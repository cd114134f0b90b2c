"""The ingestion front: per-tenant edit queues plus the background
repair scheduler.

:class:`IngestFront` sits in front of a
:class:`~repro.service.GraphRepairService` and turns its synchronous
edit/repair API into an ingestion pipeline:

* **submit** — producers hand deltas (or callable edits) to bounded
  per-tenant :class:`~repro.ingest.queues.EditQueue` objects and get a
  :class:`~repro.ingest.queues.SubmitAck` back.  Admission control
  (block / reject / shed-oldest, per-tenant quotas) happens here, at
  submit time, so a flooding tenant feels backpressure immediately and
  never grows another tenant's queue.
* **tick** — one scheduling pass: every tenant's queued deltas are
  *coalesced* (staged together, committed under ONE maintenance pass via
  :meth:`RepairSession.apply_many`), then the dirtiest tenants are
  repaired — ordered by a staleness/SLA priority score with a bounded
  pending-work boost, so flooding raises a tenant's priority only up to
  a cap and staleness eventually wins (no starvation).  Sharded tenants'
  repairs run under a :meth:`WorkerPool.lease`, so concurrent direct
  callers time-slice the shared pool fairly with the scheduler.
* **start/stop** — a daemon thread runs ``tick`` when there is work:
  it sleeps on one event that a submit, a registration, a commit
  published to a registered tenant by any caller, or ``stop`` sets, with
  the earliest open backoff deadline as the only timeout.  A pass that
  committed or repaired anything is followed at once by the next, so
  edits that arrive during a commit and its repair fold into the next
  commit (group commit); a pass that did nothing sleeps.  ``tick`` may
  also be driven manually (do not ``start`` then) for deterministic
  tests and benchmarks.
* **wait_for_repair** — read-your-writes: blocks until every changefeed
  record up to a sequence has been reconciled by a repair.  The
  callback-based :meth:`add_repair_waiter` underneath is what the
  asyncio facade multiplexes thousands of clients over.

Every per-tenant phase is error-isolated: one tenant's failing commit or
repair fails *that tenant's* acks and is recorded in :meth:`stats`; the
scheduler carries on with the others.  A tenant whose *repairs* keep
failing additionally backs off exponentially
(``IngestConfig.repair_backoff_base`` doubling per consecutive failure up
to ``repair_backoff_max``) so a poisoned tenant stops burning a repair
slot in every pass; the first successful repair resets the backoff.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import Callable, Optional

from repro import telemetry
from repro.exceptions import AdmissionError, IngestError, ServiceError
from repro.ingest.config import IngestConfig, TenantQuota
from repro.ingest.queues import EditQueue, SubmitAck

#: Cap on per-tenant latency samples kept for :meth:`IngestFront.stats`.
_LATENCY_SAMPLES = 8192
#: Cap on the pending-work boost in the priority score: queue flooding
#: raises priority by at most this much, so staleness always wins
#: eventually and no tenant is starved by another's volume.
_PENDING_BOOST_CAP = 10


class _TenantFront:
    """Per-tenant scheduler state (queue, counters, inflight commits)."""

    __slots__ = ("queue", "quota", "force_dirty", "last_served", "inflight",
                 "submitted", "rejected", "shed", "committed", "commits",
                 "coalesced", "repairs", "latencies", "last_error",
                 "consecutive_failures", "backoff_until", "backoffs",
                 "unsubscribe")

    def __init__(self, name: str, quota: TenantQuota) -> None:
        self.queue = EditQueue(name, quota)
        self.quota = quota
        self.force_dirty = False
        self.last_served = time.monotonic()
        self.inflight: list[tuple[int, float]] = []  # (sequence, publish time)
        self.submitted = 0
        self.rejected = 0
        self.shed = 0
        self.committed = 0
        self.commits = 0
        self.coalesced = 0
        self.repairs = 0
        self.latencies: list[float] = []
        self.last_error: Optional[str] = None
        # retry backoff for failing repairs (see IngestConfig): the
        # scheduler skips this tenant's repairs until backoff_until
        self.consecutive_failures = 0
        self.backoff_until = 0.0
        self.backoffs = 0
        self.unsubscribe: Callable[[], None] = lambda: None


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index]


class IngestFront:
    """Async ingestion front over a :class:`GraphRepairService`.

    Usable three ways: fully manual (``submit`` + ``tick`` — tests,
    benchmarks), background (``start``/``stop`` — production shape), or
    through :class:`~repro.ingest.aio.AsyncRepairService` for asyncio
    clients.  Thread-safe throughout; ``close`` fails every unresolved
    ack so no producer waits forever.
    """

    def __init__(self, service, config: IngestConfig | None = None) -> None:
        self._service = service
        self._config = config or IngestConfig()
        self._tenants: dict[str, _TenantFront] = {}
        self._lock = threading.RLock()          # registry + counters
        self._tick_lock = threading.RLock()     # one scheduling pass at a time
        self._waiters: list[tuple[str, int, Callable[[bool], None]]] = []
        self._waiter_lock = threading.Lock()
        self._ticks = 0
        self._wake = threading.Event()          # set when there is work
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._last_tick_error: Optional[str] = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register(self, name: str, quota: TenantQuota | None = None) -> None:
        """Open an edit queue for an already-served tenant.

        For tenants the service *restored*, the scheduler seeds its dirty
        set from the recovery record: unless the recovered WAL proves the
        tenant clean (a repair record newer than every commit), the
        tenant is marked dirty and repaired on the first pass — uncertain
        recovery state is treated as dirty, never as clean.
        """
        self._require_open()
        if name not in self._service.names():
            raise IngestError(f"tenant {name!r} is not served; serve() or "
                              "restore() it before registering")
        with self._lock:
            if name in self._tenants:
                raise IngestError(f"tenant {name!r} is already registered")
            state = _TenantFront(name, quota or self._config.default_quota)
            try:
                recovered = self._service.recovery_info(name)
            except ServiceError:
                recovered = None
            if recovered is not None and not recovered.known_clean:
                state.force_dirty = True
            state.unsubscribe = self._service.subscribe(name,
                                                        self._on_record)
            self._tenants[name] = state
        self._wake.set()

    def _on_record(self, record) -> None:
        """Changefeed hook: any caller's commit makes the tenant dirty."""
        if record.source == "commit":
            self._wake.set()

    def deregister(self, name: str) -> None:
        """Close one tenant's queue, failing its unresolved acks."""
        with self._lock:
            state = self._tenants.pop(name, None)
        if state is not None:
            self._fail_leftovers(name, state)
            state.unsubscribe()

    def tenants(self) -> list[str]:
        """Registered tenant names, sorted."""
        with self._lock:
            return sorted(self._tenants)

    # ------------------------------------------------------------------
    # submission (producer side)
    # ------------------------------------------------------------------

    def submit(self, name: str, edit) -> SubmitAck:
        """Queue one edit (a :class:`GraphDelta` or a callable receiving
        the graph) for the named tenant; returns the ack.

        Applies the tenant's admission policy at the queue bound — may
        block (policy ``block``), raise
        :class:`~repro.exceptions.AdmissionError` (``reject`` /
        ``block`` timeout), or shed the tenant's oldest queued edit
        (``shed_oldest``, failing *that* edit's ack).
        """
        state = self._state(name)
        ack = SubmitAck(name)
        try:
            shed = state.queue.put(edit, ack)
        except AdmissionError as exc:
            with self._lock:
                state.rejected += 1
            if telemetry.TELEMETRY.enabled:
                telemetry.inc("repro_ingest_rejected_total", tenant=name,
                              reason=exc.reason)
            raise
        with self._lock:
            state.submitted += 1
            state.shed += len(shed)
        self._wake.set()
        if telemetry.TELEMETRY.enabled:
            telemetry.inc("repro_ingest_submitted_total", tenant=name)
            telemetry.gauge_set("repro_ingest_queue_depth", len(state.queue),
                                tenant=name)
        for shed_ack in shed:
            if telemetry.TELEMETRY.enabled:
                telemetry.inc("repro_ingest_rejected_total", tenant=name,
                              reason="shed")
            shed_ack._fail(AdmissionError(
                f"tenant {name!r}: delta shed to admit a newer submission",
                tenant=name, reason="shed"))
        return ack

    def submit_many(self, name: str, edits) -> list[SubmitAck]:
        """Queue several edits in order; returns one ack per edit.

        Stops at the first admission failure (earlier edits stay queued
        with live acks; the raising edit and its successors were not
        admitted).
        """
        return [self.submit(name, edit) for edit in edits]

    # ------------------------------------------------------------------
    # scheduling (one pass)
    # ------------------------------------------------------------------

    def tick(self) -> dict[str, int]:
        """One scheduling pass: coalesce+commit every tenant's queued
        edits (one batch each), then repair the highest-priority dirty
        tenants (at most ``max_repairs_per_tick``).

        Returns ``{"commits": ..., "repairs": ...}``.  Safe to call
        manually; the background thread calls exactly this.
        """
        with self._tick_lock:
            if self._closed:
                return {"commits": 0, "repairs": 0}
            with self._lock:
                self._ticks += 1
            if telemetry.TELEMETRY.enabled:
                telemetry.inc("repro_scheduler_ticks_total")
            commits = 0
            for name in self.tenants():
                commits += 1 if self._commit_tenant(name) else 0
            repairs = self._repair_phase()
            self._fire_repair_waiters()
            return {"commits": commits, "repairs": repairs}

    def _commit_tenant(self, name: str) -> bool:
        """Drain one coalesced batch for ``name`` and commit it.

        Returns True if a commit happened.  A failing commit fails the
        batch's acks and is recorded; other tenants are unaffected.
        """
        state = self._tenants.get(name)
        if state is None:
            return False
        batch = state.queue.drain(state.quota.max_coalesce)
        if not batch:
            return False
        edits = [edit for edit, _ in batch]
        acks = [ack for _, ack in batch]
        try:
            session = self._service.sessions.get(name)
            seq_before = session.last_sequence
            session.apply_many(edits)
            seq_after = session.last_sequence
        except Exception as exc:  # isolate: fail this batch, keep serving
            with self._lock:
                state.last_error = f"commit: {exc!r}"
            for ack in acks:
                ack._fail(exc)
            return False
        if seq_after > seq_before:
            records = session.deltas(after=seq_after - 1)
            published = records[-1].timestamp if records else time.monotonic()
            with self._lock:
                state.inflight.append((seq_after, published))
        with self._lock:
            state.committed += len(batch)
            state.commits += 1
            state.coalesced += max(0, len(batch) - 1)
        if telemetry.TELEMETRY.enabled:
            if len(batch) > 1:
                telemetry.inc("repro_ingest_coalesced_total",
                              len(batch) - 1, tenant=name)
            telemetry.gauge_set("repro_ingest_queue_depth", len(state.queue),
                                tenant=name)
        for ack in acks:
            ack._resolve(seq_after)
        return True

    def _repair_phase(self) -> int:
        """Repair the highest-priority dirty tenants; returns the count."""
        staleness = self._service.staleness()
        now = time.monotonic()
        candidates = []
        with self._lock:
            for name, state in self._tenants.items():
                stale = staleness.get(name)
                if stale is None:
                    continue
                if not stale.dirty and not state.force_dirty:
                    continue
                if state.backoff_until > now:
                    # a persistently failing tenant sits out its backoff
                    # window instead of burning a repair slot every pass
                    continue
                score = ((stale.seconds_since_repair / state.quota.sla_seconds)
                         * state.quota.weight
                         + min(stale.pending_deltas, _PENDING_BOOST_CAP)
                         / _PENDING_BOOST_CAP)
                candidates.append((-score, state.last_served, name))
        candidates.sort()
        repairs = 0
        for _, _, name in candidates[:self._config.max_repairs_per_tick]:
            if self._repair_tenant(name, now):
                repairs += 1
        return repairs

    def _repair_tenant(self, name: str, now: float | None = None) -> bool:
        state = self._tenants.get(name)
        if state is None:
            return False
        pool = self._service.pool
        slice_ctx = (pool.lease(owner=f"ingest:{name}") if pool is not None
                     else nullcontext())
        try:
            with slice_ctx:
                self._service.repair(name)
        except Exception as exc:  # isolate: record, back off, keep serving
            base = self._config.repair_backoff_base
            with self._lock:
                state.last_error = f"repair: {exc!r}"
                state.consecutive_failures += 1
                if base > 0:
                    delay = min(self._config.repair_backoff_max,
                                base * 2 ** (state.consecutive_failures - 1))
                    state.backoff_until = ((now if now is not None
                                            else time.monotonic()) + delay)
                    state.backoffs += 1
            if base > 0 and telemetry.TELEMETRY.enabled:
                telemetry.inc("repro_ingest_backoffs_total", tenant=name)
            return False
        with self._lock:
            state.force_dirty = False
            state.last_served = now if now is not None else time.monotonic()
            state.repairs += 1
            state.consecutive_failures = 0
            state.backoff_until = 0.0
        if telemetry.TELEMETRY.enabled:
            telemetry.inc("repro_scheduler_repairs_total", tenant=name)
        stale = self._service.staleness().get(name)
        if stale is not None:
            self._observe_repaired(name, state, stale.repaired_through)
        return True

    def _observe_repaired(self, name: str, state: _TenantFront,
                          through: int) -> None:
        """Record commit→repaired latency for inflight commits now proven
        reconciled (sequence <= ``through``)."""
        now = time.monotonic()
        observed: list[float] = []
        with self._lock:
            while state.inflight and state.inflight[0][0] <= through:
                _, published = state.inflight.pop(0)
                observed.append(max(0.0, now - published))
            state.latencies.extend(observed)
            if len(state.latencies) > _LATENCY_SAMPLES:
                del state.latencies[:len(state.latencies) - _LATENCY_SAMPLES]
        if telemetry.TELEMETRY.enabled:
            for latency in observed:
                telemetry.observe("repro_ingest_commit_to_repaired_seconds",
                                  latency, tenant=name)

    # ------------------------------------------------------------------
    # read-your-writes
    # ------------------------------------------------------------------

    def add_repair_waiter(self, name: str, sequence: int,
                          callback: Callable[[bool], None]) -> None:
        """Call ``callback(True)`` once every record up to ``sequence`` of
        tenant ``name`` has been reconciled by a repair — immediately if
        it already has.  ``callback(False)`` means the front closed (or
        the tenant went away) first.  The callback runs on the scheduler
        (or closing) thread; keep it trivial.
        """
        stale = self._service.staleness().get(name)
        if stale is not None and stale.repaired_through >= sequence:
            callback(True)
            return
        if self._closed or stale is None:
            callback(False)
            return
        with self._waiter_lock:
            self._waiters.append((name, sequence, callback))

    def wait_for_repair(self, name: str, sequence: int,
                        timeout: Optional[float] = None) -> None:
        """Block until tenant ``name`` is repaired through ``sequence``.

        With an ack in hand this is read-your-writes:
        ``front.wait_for_repair(t, ack.wait())`` returns only once the
        submitted edit's consequences are reconciled.  Raises
        :class:`TimeoutError` on timeout and
        :class:`~repro.exceptions.IngestError` if the front closes
        first.
        """
        outcome: dict[str, bool] = {}
        event = threading.Event()

        def _done(satisfied: bool) -> None:
            outcome["satisfied"] = satisfied
            event.set()

        self.add_repair_waiter(name, sequence, _done)
        if not event.wait(timeout):
            raise TimeoutError(
                f"tenant {name!r} not repaired through sequence {sequence} "
                f"within {timeout}s")
        if not outcome.get("satisfied"):
            raise IngestError(
                f"the ingest front closed before tenant {name!r} was "
                f"repaired through sequence {sequence}")

    def _fire_repair_waiters(self, closing: bool = False) -> None:
        staleness = self._service.staleness()
        fired: list[tuple[Callable[[bool], None], bool]] = []
        with self._waiter_lock:
            keep = []
            for name, sequence, callback in self._waiters:
                stale = staleness.get(name)
                if stale is not None and stale.repaired_through >= sequence:
                    fired.append((callback, True))
                elif closing or stale is None:
                    fired.append((callback, False))
                else:
                    keep.append((name, sequence, callback))
            self._waiters = keep
        for callback, satisfied in fired:
            callback(satisfied)

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------

    def flush(self, name: Optional[str] = None) -> int:
        """Commit queued edits (no repairs) until the queue(s) are empty;
        returns the number of edits committed.  ``name=None`` flushes
        every tenant."""
        names = [name] if name is not None else None
        total = 0
        while True:
            moved = 0
            for tenant in (names or self.tenants()):
                state = self._tenants.get(tenant)
                if state is None:
                    continue
                before = state.committed
                self._commit_tenant(tenant)
                moved += self._tenants[tenant].committed - before
            total += moved
            if moved == 0:
                return total

    def quiesce(self, timeout: float = 30.0) -> None:
        """Drain every queue AND repair every dirty tenant, blocking until
        the whole front is clean (no queued edits, no pending deltas).

        Works with or without the background thread running.  Raises
        :class:`~repro.exceptions.IngestError` if producers keep the
        front dirty past ``timeout``.
        """
        deadline = time.monotonic() + timeout
        while True:
            with self._tick_lock:
                self.flush()
                staleness = self._service.staleness()
                dirty = [
                    name for name, state in self._tenants.items()
                    if state.force_dirty
                    or staleness.get(name) is not None
                    and staleness[name].dirty
                ]
                for name in sorted(dirty):
                    self._repair_tenant(name)
                self._fire_repair_waiters()
                clean = (not dirty
                         and all(len(s.queue) == 0
                                 for s in self._tenants.values()))
            if clean:
                return
            if time.monotonic() > deadline:
                raise IngestError(f"quiesce did not converge within "
                                  f"{timeout}s (producers still active?)")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the background scheduler thread (daemon); its first pass
        runs at once, over whatever was queued or dirty before.

        Do not mix with manual :meth:`tick` calls — the thread owns the
        passes once started.
        """
        self._require_open()
        with self._lock:
            if self._thread is not None:
                raise IngestError("the scheduler is already running")
            self._stop.clear()
            self._wake.set()
            self._thread = threading.Thread(target=self._run,
                                            name="repro-ingest-scheduler",
                                            daemon=True)
            self._thread.start()

    def _run(self) -> None:
        """Group commit: sleep until there is work, then pass until a pass
        finds none.  Clearing the wake-up *before* a pass means that an
        edit submitted during it is never missed."""
        while True:
            self._wake.wait(self._next_backoff_deadline())
            if self._stop.is_set():
                return
            self._wake.clear()
            try:
                done = self.tick()
                busy = done["commits"] or done["repairs"]
            except Exception as exc:  # keep the scheduler alive
                with self._lock:
                    self._last_tick_error = repr(exc)
                busy = False
            if busy or self._queued():
                self._wake.set()

    def _next_backoff_deadline(self) -> Optional[float]:
        """Seconds until the earliest open backoff window closes, or
        ``None`` (sleep until woken) when no window is open."""
        now = time.monotonic()
        with self._lock:
            deadlines = [state.backoff_until for state in self._tenants.values()
                         if state.backoff_until > now]
        return min(deadlines) - now if deadlines else None

    def _queued(self) -> bool:
        with self._lock:
            return any(len(state.queue) for state in self._tenants.values())

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the background thread (queued work stays queued)."""
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        self._wake.set()
        thread.join(timeout)

    @property
    def running(self) -> bool:
        return self._thread is not None

    def close(self) -> None:
        """Stop the scheduler, refuse new submissions, fail every
        unresolved ack and waiter.  Idempotent.  Does NOT close the
        underlying service."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.stop()
        with self._lock:
            tenants = dict(self._tenants)
        for name, state in tenants.items():
            self._fail_leftovers(name, state)
            state.unsubscribe()
        self._fire_repair_waiters(closing=True)

    def __enter__(self) -> "IngestFront":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _fail_leftovers(self, name: str, state: _TenantFront) -> None:
        for ack in state.queue.close():
            ack._fail(AdmissionError(
                f"tenant {name!r}: the ingest front shut down before the "
                "delta was committed", tenant=name, reason="shutdown"))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Counters for tests, benchmarks, and operators: global tick
        count plus per-tenant submission/commit/repair/latency numbers.
        Always available (no telemetry enablement needed)."""
        with self._lock:
            tenants = {}
            for name, state in self._tenants.items():
                tenants[name] = {
                    "submitted": state.submitted,
                    "rejected": state.rejected,
                    "shed": state.shed,
                    "committed": state.committed,
                    "commits": state.commits,
                    "coalesced": state.coalesced,
                    "repairs": state.repairs,
                    "queue_depth": len(state.queue),
                    "inflight": len(state.inflight),
                    "latency_p50": round(_percentile(state.latencies, 0.50), 6),
                    "latency_p99": round(_percentile(state.latencies, 0.99), 6),
                    "last_error": state.last_error,
                    "consecutive_failures": state.consecutive_failures,
                    "backoffs": state.backoffs,
                }
            return {"ticks": self._ticks, "running": self.running,
                    "closed": self._closed,
                    "last_tick_error": self._last_tick_error,
                    "tenants": tenants}

    def _state(self, name: str) -> _TenantFront:
        self._require_open_submit(name)
        with self._lock:
            state = self._tenants.get(name)
        if state is None:
            raise IngestError(f"tenant {name!r} is not registered with this "
                              "ingest front")
        return state

    def _require_open(self) -> None:
        if self._closed:
            raise IngestError("the ingest front is closed")

    def _require_open_submit(self, name: str) -> None:
        if self._closed:
            raise AdmissionError(
                f"tenant {name!r}: the ingest front is shut down",
                tenant=name, reason="shutdown")
