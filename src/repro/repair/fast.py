"""The efficient repairing algorithm (index + decomposition + incremental).

``FastRepairer`` reaches the same fixpoint as the naive algorithm but avoids
its per-round full re-matching:

* the **candidate index** is built once and maintained from the graph's
  change feed;
* initial violations are enumerated once using **decomposed** (pivot-ordered)
  pattern search;
* a priority queue holds pending violations; after each applied repair the
  resulting :class:`GraphDelta` drives **incremental match maintenance** —
  only matches overlapping the affected region are invalidated or discovered,
  via seeded searches from the touched nodes;
* repairs that *delete* structure additionally re-check stored evidence
  matches of incompleteness rules, because deleting a previously-present
  extension can turn an existing match into a new violation.  The maintainer
  names the candidates
  (:meth:`~repro.matching.incremental.IncrementalMatcher.recheck_candidates`):
  only the matches a subtractive change can reach through the missing
  pattern, with edge changes filtered by the labels the missing pattern
  reads, and the whole store when the missing pattern has variables of its
  own.

The state behind the algorithm — index, match stores, violation queue,
extension prober — lives in :class:`FastRepairCore`, which is shared between
the one-shot :class:`FastRepairer` facade and the long-lived
:class:`~repro.api.RepairSession`: a session keeps one core alive across many
``repair()`` / ``commit()`` calls, which is what makes its repairs
incremental *across* invocations, not just within one.

With ``batch_repairs=True`` the core drains the queue in *batches* of
mutually independent violations (no shared bound nodes): every repair in a
batch is validated against the live graph and applied, their deltas are
merged, and **one** incremental-maintenance pass covers the whole batch —
amortising seeded-search startup across independent repairs (the ROADMAP
"batch deltas across repairs" item).  Because independence is defined by
region disjointness, a batch of non-overlapping violations produces the same
fixpoint as applying them one at a time.

The three optimisations can be toggled independently for the ablation
experiment (E5); turning incremental maintenance off is equivalent to running
the naive loop with an optimised matcher, which the experiment harness does
via :class:`~repro.repair.naive.NaiveRepairer`.

Termination: every violation instance (rule + match identity) is handled at
most once.  For consistent rule sets this changes nothing — a repaired
violation never legitimately reappears — while for inconsistent (oscillating)
rule sets it guarantees the run ends and reports the leftover violations and
``reached_fixpoint=False`` instead of looping forever.
"""

from __future__ import annotations

import heapq
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping

from repro.graph.delta import GraphDelta
from repro.graph.property_graph import PropertyGraph
from repro.matching.incremental import IncrementalMatcher
from repro.matching.index import CandidateIndex
from repro.matching.pattern import Match, Pattern
from repro.matching.vf2 import MatchingStats, VF2Matcher
from repro.repair.config import RepairConfig
from repro.repair.events import MaintenanceEvent
from repro.repair.executor import ExecutionOutcome, RepairExecutor
from repro.repair.report import RepairReport
from repro.repair.violation import Violation, ViolationStatus, sort_key
from repro.rules.grr import GraphRepairingRule, RuleSet


@dataclass
class AppliedRepair:
    """One successfully applied repair, in the shape the parallel merger needs.

    ``region`` is the set of node ids the violation's match had bound when the
    repair fired (the independence region); ``delta`` is the full recorded
    change list; ``match`` is the violation's match, shipped so the
    coordinator can stream faithful ``on_repair_applied`` events and retire
    the violation's identity in its own queue.  Collected by
    :meth:`FastRepairCore.drain` when a ``collector`` is supplied — the unit
    of work a shard worker ships back to the coordinator.
    """

    rule_name: str
    region: frozenset[str]
    delta: GraphDelta
    match: "Match | None" = None


class _ExtensionChecker:
    """Minimal ``exists_extension`` provider shared with the rules' violation check.

    One :class:`VF2Matcher` instance is reused for every existence probe, so
    the per-pattern search plans are compiled once per repair run and the
    probes' :class:`~repro.matching.vf2.MatchingStats` accumulate (merged into
    the repair report).
    """

    def __init__(self, graph: PropertyGraph, index: CandidateIndex | None,
                 use_decomposition: bool, use_cost_planner: bool = True) -> None:
        self._engine = VF2Matcher(graph=graph, candidate_index=index,
                                  use_decomposition=use_decomposition,
                                  use_cost_planner=use_cost_planner)

    @property
    def stats(self):
        return self._engine.stats

    def exists_extension(self, pattern: Pattern, bindings: Mapping[str, str]) -> bool:
        seed = {variable: node_id for variable, node_id in bindings.items()
                if pattern.has_variable(variable)}
        return self._engine.exists(pattern, seed=seed)


class FastRepairCore:
    """Persistent state and lifecycle of the fast algorithm.

    Exposes the unified ``plan`` / ``apply`` / ``maintain`` lifecycle the
    :class:`~repro.api.Repairer` protocol names:

    * construction binds the core to one graph + rule set, builds the
      candidate index, enumerates initial matches, and seeds the violation
      queue (the *plan*);
    * :meth:`validate` + :meth:`execute` apply one queued violation;
    * :meth:`maintain` folds one :class:`GraphDelta` (a repair's, or a
      session's committed staged edits) into the match stores and requeues
      newly discovered violations;
    * :meth:`drain` runs the standard repair loop (sequential or batched) and
      :meth:`finalize` settles the report.

    The core stays usable after ``drain`` — a :class:`~repro.api.RepairSession`
    keeps calling ``maintain``/``drain`` as new edits arrive.  ``close`` only
    detaches the candidate index from the graph's change feed.
    """

    def __init__(self, graph: PropertyGraph, rules: RuleSet,
                 config: RepairConfig | None = None, events=None) -> None:
        self.graph = graph
        self.rules = rules
        self.config = config or RepairConfig()
        self._on_violation = getattr(events, "on_violation", None)
        self._on_repair_applied = getattr(events, "on_repair_applied", None)
        self._on_maintenance = getattr(events, "on_maintenance", None)
        self.report = RepairReport(
            method="fast", graph_name=graph.name, rule_set_name=rules.name,
            initial_nodes=graph.num_nodes, initial_edges=graph.num_edges)
        started = time.perf_counter()
        # work time only: a long-lived session may sit idle between calls, so
        # wall-clock is accumulated around construction / drains / maintains,
        # never measured across the core's lifetime
        self._elapsed = 0.0
        self._timing_depth = 0
        # repairs applied when the current drain started: max_repairs caps
        # each drain (each session repair() call), matching the per-call
        # budget semantics of the naive and greedy backends
        self._drain_baseline = 0
        # valid remaining-violation count from the last full scan; None while
        # stores may have changed since (keeps no-op repair() calls O(1))
        self._remaining_cache: int | None = None
        self._closed = False

        config = self.config
        self.index: CandidateIndex | None = None
        if config.use_candidate_index:
            with self.report.timings.measure("index-build"):
                self.index = CandidateIndex(graph)
            self.index.attach()

        self.incremental = IncrementalMatcher(
            graph, candidate_index=self.index,
            use_decomposition=config.use_decomposition,
            use_cost_planner=config.use_cost_planner)
        self.checker = _ExtensionChecker(graph, self.index, config.use_decomposition,
                                         config.use_cost_planner)
        self.executor = RepairExecutor(graph, cost_model=config.cost_model)

        self.rules_by_pattern: dict[str, GraphRepairingRule] = {}
        self._queue: list[tuple[tuple, int, Violation]] = []
        self._counter = itertools.count()
        self._queued_keys: set[tuple] = set()
        self._processed_keys: set[tuple] = set()

        with self.report.timings.measure("initial-detection"):
            for rule in rules:
                self.rules_by_pattern[rule.pattern.name] = rule
                self.incremental.register(
                    rule.pattern, enumerate_now=True,
                    limit=config.match_limit_per_rule, missing=rule.missing)
            for store in self.incremental.stores():
                rule = self.rules_by_pattern[store.pattern.name]
                for match in store:
                    if rule.is_violation(self.checker, match):
                        self.push(Violation(rule=rule, match=match))
        self._elapsed += time.perf_counter() - started

    # ------------------------------------------------------------------
    # queue
    # ------------------------------------------------------------------

    def push(self, violation: Violation, requeue: bool = False) -> bool:
        """Queue a violation unless its identity was already queued/handled.

        ``requeue=True`` forgets that the identity was handled before — used
        when an *external* (committed) edit re-creates a violation that an
        earlier repair had already addressed, which must become repairable
        again.  Repair-driven maintenance never requeues, preserving the
        handle-each-instance-once termination guarantee within a drain.
        """
        key = violation.key()
        if requeue:
            self._processed_keys.discard(key)
        if key in self._queued_keys or key in self._processed_keys:
            return False
        cost = self.config.cost_model.estimate(self.graph, violation.rule,
                                               violation.match)
        sequence = next(self._counter)
        self._push_entry((sort_key(violation, cost=cost, sequence=sequence),
                          sequence, violation))
        self.report.violations_detected += 1
        if self._on_violation is not None:
            self._on_violation(violation)
        return True

    def _push_entry(self, entry: tuple[tuple, int, Violation]) -> None:
        """(Re-)insert a fully formed queue entry without re-counting it as a
        new detection (no counter bump, no ``on_violation`` event)."""
        heapq.heappush(self._queue, entry)
        self._queued_keys.add(entry[2].key())

    def has_pending(self) -> bool:
        return bool(self._queue)

    def mark_handled(self, key: tuple) -> None:
        """Retire a violation identity that was repaired *outside* this core.

        The sharded coordinator calls this for every worker repair it merged:
        the identity's queue entry (detected at bind time) is skipped by the
        settle drain instead of being popped, validated, and miscounted as
        obsolete — the repair was applied, just not by this core's executor.
        """
        self._processed_keys.add(key)

    def pending(self) -> list[Violation]:
        """Snapshot of the queued violations in processing order."""
        return [entry[2] for entry in sorted(self._queue)
                if entry[2].key() not in self._processed_keys]

    def _pop_entry(self) -> tuple[tuple, int, Violation] | None:
        """Next queue entry whose identity was not handled yet."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            key = entry[2].key()
            self._queued_keys.discard(key)
            if key not in self._processed_keys:
                return entry
        return None

    def _pop(self) -> Violation | None:
        """Next queued violation whose identity was not handled yet."""
        entry = self._pop_entry()
        return entry[2] if entry is not None else None

    # ------------------------------------------------------------------
    # plan / apply / maintain lifecycle pieces
    # ------------------------------------------------------------------

    def validate(self, violation: Violation) -> bool:
        """Re-check a violation against the current graph; obsolete ones are
        retired (counted, status set) and ``False`` is returned."""
        with self._timed(), self.report.timings.measure("validation"):
            still_valid = (violation.match.is_valid(self.graph)
                           and violation.rule.is_violation(self.checker,
                                                           violation.match))
        if not still_valid:
            violation.status = ViolationStatus.OBSOLETE
            self.report.repairs_obsolete += 1
            self._processed_keys.add(violation.key())
        return still_valid

    def execute(self, violation: Violation) -> ExecutionOutcome:
        """Apply one violation's repair (no maintenance); updates counters."""
        with self._timed(), self.report.timings.measure("execution"):
            outcome = self.executor.apply(violation.rule, violation.match)
        self._processed_keys.add(violation.key())
        if outcome.delta:
            # even a failed repair may have mutated the graph (partial
            # repairs are kept, not rolled back)
            self._remaining_cache = None
        if not outcome.applied:
            violation.status = ViolationStatus.FAILED
            self.report.repairs_failed += 1
            return outcome
        violation.status = ViolationStatus.REPAIRED
        self.report.repairs_applied += 1
        if self._on_repair_applied is not None:
            self._on_repair_applied(violation, outcome)
        return outcome

    def maintain(self, delta: GraphDelta, source: str = "repair") -> MaintenanceEvent:
        """Fold one delta into the match stores; queue newly found violations.

        One call is one incremental-maintenance pass, whatever the delta size
        — batching independent repairs' deltas into a single call is exactly
        how the batched mode amortises maintenance.  A ``"commit"``-sourced
        delta comes from *external* edits, which may legitimately re-create a
        violation an earlier repair already handled — those are requeued;
        repair-driven deltas never requeue (termination guarantee).
        """
        event = MaintenanceEvent(source=source, delta_changes=len(delta))
        if not delta:
            event.passes = 0
            return event
        self._remaining_cache = None
        requeue = source == "commit"

        with self._timed():
            with self.report.timings.measure("incremental-maintenance"):
                updates = self.incremental.apply_delta(delta)
            for pattern_name, update in updates.items():
                rule = self.rules_by_pattern[pattern_name]
                self.report.seeded_searches += update.seeded_searches
                event.seeded_searches += update.seeded_searches
                event.invalidated += len(update.invalidated)
                for match in update.discovered:
                    if rule.is_violation(self.checker, match):
                        if self.push(Violation(rule=rule, match=match),
                                     requeue=requeue):
                            event.discovered += 1

            # Deletions can turn existing incompleteness matches into
            # violations: their required extension may just have disappeared.
            if delta.has_subtractive_effect:
                with self.report.timings.measure("incompleteness-recheck"):
                    recheck = self.incremental.recheck_candidates(delta)
                    for pattern_name, candidates in recheck:
                        rule = self.rules_by_pattern[pattern_name]
                        for match in candidates:
                            event.rechecked += 1
                            if rule.is_violation(self.checker, match):
                                if self.push(Violation(rule=rule, match=match),
                                             requeue=requeue):
                                    event.discovered += 1
        if self._on_maintenance is not None:
            self._on_maintenance(event)
        return event

    # ------------------------------------------------------------------
    # drains
    # ------------------------------------------------------------------

    def _budget_left(self) -> bool:
        max_repairs = self.config.max_repairs
        if max_repairs is None:
            return True
        return self.report.repairs_applied - self._drain_baseline < max_repairs

    @contextmanager
    def _timed(self):
        """Accumulate wall-clock into the report's work time (re-entrant:
        nested sections — maintain inside drain — are counted once)."""
        if self._timing_depth:
            self._timing_depth += 1
            try:
                yield
            finally:
                self._timing_depth -= 1
            return
        self._timing_depth = 1
        started = time.perf_counter()
        try:
            yield
        finally:
            self._timing_depth = 0
            self._elapsed += time.perf_counter() - started

    def drain(self, accept=None, collector: list[AppliedRepair] | None = None) -> None:
        """Process the queue to exhaustion (or budget), per the config's mode.

        ``max_repairs`` budgets each drain call independently — a session
        that exhausted the budget once can repair again on its next call.

        ``accept`` (optional ``violation -> bool``) restricts the drain to
        the violations it approves; rejected ones are retired unrepaired
        (status ``SKIPPED``, identity marked handled so this drain never
        revisits them).  A shard worker passes ownership — *bound nodes all
        inside my core* — here, leaving frontier violations to the
        coordinator.  ``collector`` (optional list) receives one
        :class:`AppliedRepair` per successfully applied repair, in
        application order.
        """
        self._drain_baseline = self.report.repairs_applied
        with self._timed():
            if self.config.batch_repairs:
                self._drain_batched(accept, collector)
            else:
                self._drain_sequential(accept, collector)

    def _skip(self, violation: Violation) -> None:
        """Retire a violation without repairing it (rejected by an ``accept``
        filter): not an obsoletion, not a failure — just not ours to repair."""
        violation.status = ViolationStatus.SKIPPED
        self._processed_keys.add(violation.key())

    def _collect(self, collector: list[AppliedRepair] | None,
                 violation: Violation, outcome: ExecutionOutcome) -> None:
        if collector is not None:
            collector.append(AppliedRepair(
                rule_name=violation.rule.name,
                region=frozenset(violation.match.bound_node_ids()),
                delta=outcome.delta,
                match=violation.match))

    def _drain_sequential(self, accept=None,
                          collector: list[AppliedRepair] | None = None) -> None:
        while self._queue and self._budget_left():
            violation = self._pop()
            if violation is None:
                break
            if accept is not None and not accept(violation):
                self._skip(violation)
                continue
            if not self.validate(violation):
                continue
            outcome = self.execute(violation)
            if outcome.applied and outcome.delta:
                self._collect(collector, violation, outcome)
                self.maintain(outcome.delta, source="repair")

    def _drain_batched(self, accept=None,
                       collector: list[AppliedRepair] | None = None) -> None:
        while self._queue and self._budget_left():
            batch = self._pop_independent_batch()
            if not batch:
                break
            merged = GraphDelta()
            for entry in batch:
                violation = entry[2]
                if accept is not None and not accept(violation):
                    self._skip(violation)
                    continue
                if not self._budget_left():
                    # over budget mid-batch: restore the untouched remainder
                    # verbatim (no re-count, no duplicate events)
                    self._push_entry(entry)
                    continue
                if not self.validate(violation):
                    continue
                outcome = self.execute(violation)
                if outcome.applied and outcome.delta:
                    self._collect(collector, violation, outcome)
                    merged.extend(outcome.delta.changes)
            if merged:
                self.maintain(merged, source="repair-batch")

    def _pop_independent_batch(self) -> list[tuple[tuple, int, Violation]]:
        """Pop a maximal prefix (in priority order) of region-independent
        queue entries; conflicting entries are restored for the next batch
        (verbatim — deferral is not a re-detection).

        Independence = disjoint bound-node sets.  Because every edge a match
        binds (edge variable or witness) has both endpoints among its bound
        nodes, node-disjoint matches share no structure, so their repairs
        cannot invalidate one another and their deltas can be maintained as
        one merged pass.
        """
        max_batch = self.config.max_batch
        batch: list[tuple[tuple, int, Violation]] = []
        region: set[str] = set()
        deferred: list[tuple[tuple, int, Violation]] = []
        while self._queue:
            if max_batch is not None and len(batch) >= max_batch:
                break
            entry = self._pop_entry()
            if entry is None:
                break
            nodes = entry[2].match.bound_node_ids()
            if batch and region & nodes:
                deferred.append(entry)
                continue
            batch.append(entry)
            region |= nodes
        for entry in deferred:
            self._push_entry(entry)
        return batch

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def count_remaining(self) -> int:
        """Stored matches that still violate their rule (the fixpoint check).

        The count is cached between calls and invalidated by applied repairs
        and maintenance passes, so a no-op ``repair()`` on an already-settled
        session does not pay a full store rescan.
        """
        if self._remaining_cache is not None:
            return self._remaining_cache
        with self._timed(), self.report.timings.measure("final-check"):
            remaining = 0
            for store in self.incremental.stores():
                rule = self.rules_by_pattern[store.pattern.name]
                for match in store:
                    if not match.is_valid(self.graph):
                        continue
                    if rule.is_violation(self.checker, match):
                        remaining += 1
        self._remaining_cache = remaining
        return remaining

    def finalize(self) -> RepairReport:
        """Settle the report against the current state; the core stays usable."""
        report = self.report
        report.remaining_violations = self.count_remaining()
        report.reached_fixpoint = (report.remaining_violations == 0
                                   and not self._queue)
        report.rounds = 1
        report.matching_stats = self.stats
        report.matches_enumerated = self.incremental.total_matches()
        report.log = self.executor.log
        # accumulated work time, not core lifetime: a session core may sit
        # idle between calls and that idle time is not repair time
        report.elapsed_seconds = self._elapsed
        report.final_nodes = self.graph.num_nodes
        report.final_edges = self.graph.num_edges
        return report

    @property
    def stats(self) -> MatchingStats:
        """Live aggregated matcher counters (maintenance + extension probes)."""
        stats = MatchingStats()
        stats.merge(self.incremental.stats)
        stats.merge(self.checker.stats)
        return stats

    def close(self) -> None:
        """Detach the candidate index from the graph's change feed."""
        if self._closed:
            return
        self._closed = True
        if self.index is not None:
            self.index.detach()


class FastRepairer:
    """Queue-driven repair with incremental match maintenance (one-shot facade
    over :class:`FastRepairCore`)."""

    def __init__(self, config: RepairConfig | None = None, events=None) -> None:
        self.config = config or RepairConfig()
        self.events = events

    def repair(self, graph: PropertyGraph, rules: RuleSet) -> RepairReport:
        """Repair ``graph`` in place; returns the :class:`RepairReport`."""
        core = FastRepairCore(graph, rules, config=self.config, events=self.events)
        try:
            core.drain()
            return core.finalize()
        finally:
            core.close()


def make_ownership_filter(graph: PropertyGraph, owned: frozenset[str]):
    """The priority-safe shard ownership ``accept`` filter of the pool's
    standing shard workers (:class:`~repro.parallel.worker.ShardWorkerState`).

    Accepts violations whose matches bind owned nodes exclusively.  Once a
    still-valid violation is deferred — not owned, or overlapping an earlier
    deferral — its region is blocked and every later violation touching that
    region defers too: a deferred higher-priority repair could invalidate an
    overlapping lower-priority one, so the worker must not pre-empt the
    coordinator inside such regions.  Stale queue entries (matches no longer
    valid) never sterilise their region.
    """
    blocked: set[str] = set()

    def accept(violation: Violation) -> bool:
        region = violation.match.bound_node_ids()
        if region <= owned and not (region & blocked):
            return True
        if violation.match.is_valid(graph):
            blocked.update(region)
        return False

    return accept
