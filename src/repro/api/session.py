"""The transactional repair session — the library's primary entry point.

A :class:`RepairSession` is opened **once** over a
:class:`~repro.graph.PropertyGraph` and a :class:`~repro.rules.RuleSet`; the
expensive repair state — candidate index, enumerated match stores, compiled
search plans, the violation queue — is built at open time and *persists*
across every subsequent call.  That is the usage shape a long-lived service
needs: the graph keeps receiving edits, and each edit is reconciled
incrementally instead of re-matching the world.

Three interaction styles compose:

**Repairing.**  :meth:`repair` drives the pending violations to a fixpoint
with the configured backend and returns the session's cumulative
:class:`~repro.repair.report.RepairReport`.  With
``RepairConfig.fast().batched()`` the queue drains in batches of
region-independent violations whose deltas are maintained under **one**
merged incremental pass per batch.

**Transactions.**  External edits are staged — :meth:`stage` (a mutator
callable or a recorded :class:`~repro.graph.GraphDelta`) or the
:meth:`transaction` context manager — and land on the graph immediately, but
the matcher state is *not* reconciled until :meth:`commit`, which merges all
staged deltas and folds them in under a single maintenance pass (batched
delta maintenance).  :meth:`rollback` discards staged work instead, using the
delta-inverse machinery to restore the exact pre-stage graph (ids, labels,
properties).  :meth:`apply` is stage-and-commit in one step.

**Streaming.**  A :class:`~repro.api.SessionEvents` bundle
(``on_violation`` / ``on_repair_applied`` / ``on_maintenance``) streams
progress while any of the above runs.  Separately, the **committed-delta
changefeed** (:meth:`deltas` / :meth:`on_commit`) publishes every change
that entered the committed history — committed transactions and repair
mutations — as monotonically sequenced :class:`~repro.api.CommittedDelta`
records that replay exactly onto a replica.

**Threading.**  A session is safe to share between threads: every public
operation takes the session's reentrant lock, so stage/commit/rollback/
repair calls from N threads serialise into *some* interleaving of complete
operations (a :meth:`transaction` block holds the lock from entry to exit —
its edits commit or roll back atomically with respect to other threads).
The changefeed sequence numbers are assigned under the same lock, so the
feed is a total order over the committed history.  The *graph* object is
not independently thread-safe: mutate it through the session (or hold
:meth:`transaction`), never directly from another thread.

Example::

    from repro.api import RepairConfig, RepairSession

    with RepairSession(graph, rules, config=RepairConfig.fast()) as session:
        report = session.repair()              # initial cleaning
        with session.transaction() as g:       # edits arrive later
            g.add_edge(alice, berlin, "bornIn")
            g.remove_edge(stale_edge_id)
        session.commit()                       # ONE maintenance pass
        session.repair()                       # fix what the edits broke

(``commit().discovered`` counts the violations the fast backend queued; the
re-detection backends report 0 there because they find work at the next
``repair()`` instead — call ``repair()`` after committing regardless of it.)
"""

from __future__ import annotations

import threading
import warnings
from contextlib import contextmanager
from typing import Callable, Iterator

import time

from repro import telemetry
from repro.exceptions import InconsistentRuleSetError, SessionStateError
from repro.graph.delta import GraphDelta, apply_inverse, recording, replay_delta
from repro.graph.property_graph import PropertyGraph
from repro.matching.vf2 import MatchingStats
from repro.repair.report import RepairReport
from repro.repair.violation import Violation
from repro.rules.grr import GraphRepairingRule, RuleSet
from repro.api.backend import Repairer, build_backend
from repro.repair.config import RepairConfig
from repro.api.events import (
    CommitResult,
    CommittedDelta,
    MaintenanceEvent,
    SessionEvents,
)


def _consistency_gate(rules: RuleSet, require: bool) -> None:
    """Static rule-set analysis before any repairing (config-gated)."""
    from repro.analysis.consistency import ConsistencyVerdict, check_consistency

    result = check_consistency(rules)
    if result.verdict is ConsistencyVerdict.INCONSISTENT:
        message = ("rule set failed the consistency check: "
                   + "; ".join(result.reasons))
        if require:
            raise InconsistentRuleSetError(message, evidence=result)
        warnings.warn(message, stacklevel=4)


class RepairSession:
    """A long-lived, transactional repair session over one graph + rule set.

    The session repairs **in place**: pass ``graph.copy()`` to keep the
    original.  Use as a context manager (or call :meth:`close`) so the
    backend detaches its index listener from the graph's change feed.

    **Threading contract.**  Every public operation acquires the session's
    reentrant lock, so a session may be shared between threads: concurrent
    stage/commit/rollback/repair calls serialise into complete, atomic
    operations in *some* order (which order is the scheduler's choice — use
    external coordination when the order matters).  A :meth:`transaction`
    block holds the lock from entry to exit.  Changefeed callbacks
    (:meth:`on_commit`) and :class:`SessionEvents` hooks run on the calling
    thread while the lock is held — keep them fast and never block in them
    on another thread that needs this session.
    """

    def __init__(self, graph: PropertyGraph,
                 rules: RuleSet | list[GraphRepairingRule],
                 config: RepairConfig | None = None,
                 events: SessionEvents | None = None,
                 pool=None) -> None:
        self.graph = graph
        self.rules = rules if isinstance(rules, RuleSet) else RuleSet(rules)
        if config is None:
            config = RepairConfig.fast()
        elif not isinstance(config, RepairConfig):
            raise TypeError(f"config must be a RepairConfig, not "
                            f"{type(config).__name__}; docs/MIGRATION.md "
                            "lists the removed legacy configs")
        self.config = config
        self.events = events
        if self.config.check_consistency or self.config.require_consistency:
            _consistency_gate(self.rules, self.config.require_consistency)
        self.backend: Repairer = build_backend(self.config, events=events,
                                               pool=pool)
        self.backend.bind(graph, self.rules)
        self._staged: list[GraphDelta] = []
        self._report: RepairReport | None = None
        self._in_transaction = False
        self._closed = False
        self._lock = threading.RLock()
        self._feed: list[CommittedDelta] = []
        self._feed_subscribers: list[Callable[[CommittedDelta], None]] = []
        if telemetry.TELEMETRY.enabled:
            # the backend already worked during construction (index build,
            # initial detection) — count it, so telemetry totals equal the
            # cumulative stats at every repair boundary
            self._record_counter_deltas(
                dict.fromkeys(self._counter_state(), 0.0))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Detach the backend from the graph; the session becomes inert.

        Staged, uncommitted edits are left on the graph untouched — call
        :meth:`rollback` first to discard them.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.backend.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "RepairSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise SessionStateError("the session is closed")

    def _require_no_transaction(self, operation: str) -> None:
        if self._in_transaction:
            raise SessionStateError(
                f"{operation}() is illegal inside an open transaction(): the "
                "transaction's edits are still being recorded — exit the "
                "transaction block first")

    # ------------------------------------------------------------------
    # repairing
    # ------------------------------------------------------------------

    def repair(self) -> RepairReport:
        """Drive every pending violation to a fixpoint (in place).

        Returns the session's **cumulative** report (counters, provenance,
        and matcher statistics accumulate across calls).  Raises
        :class:`~repro.exceptions.SessionStateError` while staged edits are
        pending — commit or roll them back first, so the report always
        describes a reconciled graph.
        """
        with self._lock:
            self._require_open()
            self._require_no_transaction("repair")
            if self._staged:
                raise SessionStateError(
                    f"{len(self._staged)} staged transaction(s) pending; "
                    "commit() or rollback() before repairing")
            observing = telemetry.TELEMETRY.enabled
            if observing:
                before = self._counter_state()
                started = time.perf_counter()
            with telemetry.span("session.repair", tenant=self.graph.name,
                                backend=self.config.backend):
                with recording(self.graph) as recorder:
                    report = self.backend.run()
            self._publish("repair", recorder.drain())
            if self.backend.cumulative_report:
                self._report = report
            elif self._report is None:
                self._report = report
            else:
                self._report.absorb(report)
            if observing:
                telemetry.observe("repro_repair_seconds",
                                  time.perf_counter() - started,
                                  tenant=self.graph.name,
                                  backend=self.config.backend)
                self._record_counter_deltas(before)
            return self._report

    def violations(self) -> list[Violation]:
        """The currently pending violations, in processing order.

        The fast backend answers from its persistent stores, which reflect
        the last *reconciled* state — staged-but-uncommitted edits appear
        only after :meth:`commit`.  The re-detection backends (naive,
        greedy) have no stores and re-detect over the live graph, staged
        edits included.  Commit or roll back staged work first when the
        distinction matters.  Illegal inside an open :meth:`transaction`
        (the graph is mid-edit there).
        """
        with self._lock:
            self._require_open()
            self._require_no_transaction("violations")
            return self.backend.plan()

    @property
    def report(self) -> RepairReport | None:
        """The cumulative report of every :meth:`repair` call so far."""
        return self._report

    @property
    def stats(self) -> MatchingStats:
        """Aggregated matcher counters of the backend's lifetime (including
        ``maintenance_passes`` — the batching win is visible here)."""
        return self.backend.stats()

    # -- telemetry: counters equal the report/stats by construction -----

    def _counter_state(self) -> dict[str, float]:
        """The cumulative counter values telemetry mirrors (lock held)."""
        report, stats = self._report, self.backend.stats()
        return {
            "repro_violations_detected_total":
                report.violations_detected if report else 0,
            "repro_repairs_applied_total":
                report.repairs_applied if report else 0,
            "repro_repairs_failed_total":
                report.repairs_failed if report else 0,
            "repro_match_nodes_tried_total": stats.nodes_tried,
            "repro_matches_found_total": stats.matches_found,
            "repro_maintenance_passes_total": stats.maintenance_passes,
        }

    def _record_counter_deltas(self, before: dict[str, float]) -> None:
        """Advance the telemetry counters by exactly what this call added,
        so their totals always equal the cumulative report/stats — the
        equivalence the telemetry integration tests pin."""
        after = self._counter_state()
        for name, value in after.items():
            delta = value - before[name]
            if delta:
                telemetry.inc(name, delta, tenant=self.graph.name,
                              backend=self.config.backend)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def stage(self, edit: Callable[[PropertyGraph], object] | GraphDelta) -> GraphDelta:
        """Stage one transaction of edits.

        ``edit`` is either a callable receiving the graph (its mutations are
        recorded) or a previously recorded :class:`GraphDelta` (replayed onto
        the graph).  The edits land on the graph immediately; the matcher
        state is reconciled only at :meth:`commit`, where all staged deltas
        are merged and maintained under **one** incremental pass.  Returns
        the recorded delta of this transaction.
        """
        with self._lock:
            staged_before = len(self._staged)
            with self.transaction() as graph:
                if isinstance(edit, GraphDelta):
                    replay_delta(graph, edit)
                else:
                    edit(graph)
            if len(self._staged) > staged_before:
                return self._staged[-1]
            return GraphDelta()

    @contextmanager
    def transaction(self) -> Iterator[PropertyGraph]:
        """Context-manager form of :meth:`stage` (the one transaction
        implementation — :meth:`stage` delegates here).

        Yields the graph for direct mutation; on normal exit the recorded
        delta joins the staged set, on exception the partial edits —
        including a partially applied delta replay — are inverse-applied
        (the transaction never happened) and the exception propagates.
        Transactions do not nest: two overlapping recorders would capture the
        inner edits twice, so nested entry raises
        :class:`~repro.exceptions.SessionStateError`.  The session lock is
        held for the whole block, so the transaction is atomic with respect
        to every other thread's session operations.
        """
        with self._lock:
            self._require_open()
            if self._in_transaction:
                raise SessionStateError(
                    "transactions do not nest; finish the open transaction() / "
                    "stage() before starting another")
            self._in_transaction = True
            try:
                with recording(self.graph) as recorder:
                    yield self.graph
            except BaseException:
                # recording() has already detached the listener, so the undo
                # mutations below are not themselves recorded
                apply_inverse(self.graph, recorder.delta)
                raise
            finally:
                self._in_transaction = False
            delta = recorder.drain()
            if delta:
                self._staged.append(delta)

    @property
    def staged(self) -> int:
        """Number of staged, uncommitted transactions."""
        return len(self._staged)

    def _merge_staged(self) -> GraphDelta:
        merged = GraphDelta()
        for delta in self._staged:
            merged.extend(delta.changes)
        self._staged.clear()
        return merged

    def commit(self) -> CommitResult:
        """Reconcile all staged edits under one merged maintenance pass.

        With the fast backend, newly created violations join the pending
        queue (streamed through ``on_violation``) — including re-created
        instances of previously repaired violations — and are repaired by
        the next :meth:`repair` call.  Backends without incremental state
        (naive, greedy) have nothing to reconcile: their commit reports zero
        passes and the next ``repair()`` re-detects from scratch.
        Committing with nothing staged is always a no-op (``passes == 0``,
        nothing published to the changefeed).
        """
        with self._lock:
            self._require_open()
            self._require_no_transaction("commit")
            merged = self._merge_staged()
            if not merged:
                return CommitResult(delta=merged,
                                    maintenance=MaintenanceEvent(source="commit",
                                                                 passes=0))
            observing = telemetry.TELEMETRY.enabled
            if observing:
                before = self._counter_state()
                started = time.perf_counter()
            with telemetry.span("session.commit", tenant=self.graph.name,
                                changes=len(merged.changes)):
                event = self.backend.maintain(merged, source="commit")
            self._publish("commit", merged)
            if observing:
                telemetry.observe("repro_commit_seconds",
                                  time.perf_counter() - started,
                                  tenant=self.graph.name,
                                  backend=self.config.backend)
                self._record_counter_deltas(before)
            return CommitResult(delta=merged, maintenance=event)

    def rollback(self) -> GraphDelta:
        """Discard every staged transaction.

        The staged deltas are inverse-applied (newest first), restoring the
        graph element-for-element — same ids, labels, properties — to its
        state before the first uncommitted :meth:`stage`.  The matcher state
        was never told about the staged edits, so nothing else needs
        repairing.  Returns the inverse delta that was applied.

        Rolled-back edits never reach the changefeed: records are published
        at commit, so a subscriber only ever sees the committed history.
        """
        with self._lock:
            self._require_open()
            self._require_no_transaction("rollback")
            merged = self._merge_staged()
            if not merged:
                return GraphDelta()
            return apply_inverse(self.graph, merged)

    def apply(self, edit: Callable[[PropertyGraph], object] | GraphDelta) -> CommitResult:
        """Stage one transaction and commit it immediately (atomically: the
        session lock is held across both steps)."""
        with self._lock:
            self.stage(edit)
            return self.commit()

    def apply_many(self, edits: "list[Callable[[PropertyGraph], object] | GraphDelta]") -> CommitResult:
        """Stage each edit as its own transaction, then commit them all
        under **one** merged maintenance pass.

        Atomic: the session lock is held across the whole batch, so no
        other thread's stage or commit interleaves, and the changefeed
        carries a single record for the batch.  This is the coalescing
        primitive the ingestion scheduler folds queued deltas with —
        graph state afterwards is element-for-element what applying the
        edits one ``apply`` at a time would produce.  ``edits`` must be
        non-empty.
        """
        if not edits:
            raise ValueError("apply_many needs at least one edit")
        with self._lock:
            for edit in edits:
                self.stage(edit)
            return self.commit()

    # ------------------------------------------------------------------
    # the committed-delta changefeed
    # ------------------------------------------------------------------

    def _publish(self, source: str, delta: GraphDelta) -> None:
        """Append one changefeed record and notify subscribers (lock held).

        Empty deltas are not published: a record always carries at least one
        change.  Subscriber exceptions propagate to the committing caller —
        after the record is already in the feed, so :meth:`deltas` readers
        never miss it.
        """
        if not delta:
            return
        record = CommittedDelta(sequence=len(self._feed) + 1, source=source,
                                delta=delta, timestamp=time.monotonic())
        self._feed.append(record)
        if telemetry.TELEMETRY.enabled:
            telemetry.inc("repro_commits_total", tenant=self.graph.name,
                          source=source)
        for subscriber in list(self._feed_subscribers):
            subscriber(record)

    def deltas(self, after: int = 0) -> list[CommittedDelta]:
        """The committed-delta changefeed records with ``sequence > after``.

        Sequences start at 1 and are dense, so a subscriber polls with the
        last sequence it has applied and receives exactly the missing tail.
        Replaying every record (in order, via
        :meth:`~repro.api.CommittedDelta.replay_onto`) onto a copy of the
        graph as it was when the session opened reconstructs the current
        committed state element for element.
        """
        with self._lock:
            self._require_open()
            if after < 0:
                raise ValueError(f"after must be >= 0, got {after}")
            return self._feed[after:]

    def on_commit(self, callback: Callable[[CommittedDelta], None],
                  *, prepend: bool = False) -> Callable[[], None]:
        """Subscribe ``callback`` to the changefeed; returns an unsubscribe.

        The callback runs on the committing thread, under the session lock,
        once per published record, in sequence order.  It must not mutate
        this session's graph (ship the delta to a *replica* instead) and
        should return quickly — every other thread's session operation waits
        while it runs.

        ``prepend=True`` places the callback **ahead** of every subscriber
        registered so far — the durability hook's slot: a write-ahead log
        must see (and fsync) the record before any replica-feeding
        subscriber ships it, and before the committing call returns.  A
        prepended callback that raises therefore also *prevents* later
        subscribers from observing the record in that delivery (the record
        itself is already in :meth:`deltas` either way).
        """
        with self._lock:
            self._require_open()
            if prepend:
                self._feed_subscribers.insert(0, callback)
            else:
                self._feed_subscribers.append(callback)

        def unsubscribe() -> None:
            with self._lock:
                if callback in self._feed_subscribers:
                    self._feed_subscribers.remove(callback)
        return unsubscribe

    @property
    def last_sequence(self) -> int:
        """Sequence number of the newest changefeed record (0 when empty)."""
        with self._lock:
            return len(self._feed)


def repair_copy(graph: PropertyGraph,
                rules: RuleSet | list[GraphRepairingRule],
                config: RepairConfig | None = None,
                events: SessionEvents | None = None) -> tuple[PropertyGraph, RepairReport]:
    """One-shot convenience: repair a copy of ``graph`` through a short-lived
    session; returns ``(repaired copy, report)``.

    The idiom every harness/benchmark call site shares.  For anything
    long-lived (successive edits, transactions, streaming) open a
    :class:`RepairSession` directly.
    """
    repaired = graph.copy(name=f"{graph.name}-repaired")
    with RepairSession(repaired, rules, config=config, events=events) as session:
        report = session.repair()
    return repaired, report
