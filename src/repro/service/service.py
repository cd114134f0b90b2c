"""The managed, multi-session repair service façade.

A :class:`GraphRepairService` is what a long-running deployment embeds: it
owns many named :class:`~repro.api.RepairSession` objects (one per served
graph — a *tenant*), a single shared :class:`~repro.parallel.pool.WorkerPool`
that sharded tenants keep warm across repair calls, and the routing glue
that turns "here is an edit" into "the owning session staged and committed
it".

Layering: the service only *composes* the public session API — every
operation lands on a session exactly as a direct caller's would, so a
service-mediated workload is replayable through bare sessions (and the
concurrent-equivalence suite pins that).  Concurrency comes from the
sessions' own locks: N threads hitting N tenants run fully in parallel;
N threads hitting one tenant serialise on that tenant's session lock alone.

Example::

    from repro.service import GraphRepairService

    with GraphRepairService() as service:
        service.serve("kg", kg_graph, kg_rules, shards=4)
        service.serve("movies", movie_graph, movie_rules)
        service.stage("kg", lambda g: g.add_edge(a, b, "bornIn"))
        service.commit("kg")
        reports = service.repair_all()       # deterministic tenant order
        feed = service.deltas("kg")          # committed-delta changefeed
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro import telemetry
from repro.exceptions import ServiceError
from repro.graph.delta import GraphDelta
from repro.graph.property_graph import PropertyGraph
from repro.repair.report import RepairReport
from repro.rules.grr import GraphRepairingRule, RuleSet
from repro.repair.config import RepairConfig
from repro.api.events import CommitResult, CommittedDelta, SessionEvents
from repro.api.session import RepairSession
from repro.durability import (
    DurabilityConfig,
    RecoveredTenant,
    TenantDurability,
    has_tenant_state,
    recover,
)
from repro.service.manager import SessionManager


@dataclass(frozen=True)
class TenantStaleness:
    """One tenant's dirty/staleness accounting at a point in time.

    ``pending_deltas`` counts the committed changefeed records no repair
    pass has covered yet (0 = fully reconciled); ``seconds_since_repair``
    is the age of the last service-level repair (measured from ``serve``
    when the tenant was never repaired).  The ingest scheduler's priority
    score is computed from exactly these two numbers, and
    :meth:`GraphRepairService.telemetry_snapshot` refreshes the matching
    ``repro_tenant_staleness_seconds`` / ``repro_tenant_pending_deltas``
    gauges from them on every scrape.
    """

    name: str
    pending_deltas: int
    seconds_since_repair: float
    repaired_through: int
    last_sequence: int
    repairs: int
    recovered_dirty: bool = False

    @property
    def dirty(self) -> bool:
        """True when any repair work is owed: unreconciled commits, or a
        restore whose WAL could not prove the tenant clean (uncertain
        recovery state counts as dirty, never as clean)."""
        return self.pending_deltas > 0 or self.recovered_dirty


class _TenantActivity:
    """Per-tenant repair-coverage bookkeeping (internal; lock-free reads
    are fine — all fields are monotone and independently meaningful)."""

    __slots__ = ("served_at", "last_repair_monotonic", "repaired_through",
                 "repairs", "recovered_dirty", "unsubscribe")

    def __init__(self) -> None:
        self.served_at = time.monotonic()
        self.last_repair_monotonic: float | None = None
        self.repaired_through = 0
        self.repairs = 0
        self.recovered_dirty = False
        self.unsubscribe = None

    def on_record(self, record) -> None:
        """Changefeed hook: a published ``"repair"`` record proves every
        record at or below its sequence is reconciled (sequences are
        assigned under the session lock the repair held throughout)."""
        if record.source == "repair":
            self.repaired_through = max(self.repaired_through,
                                        record.sequence)
            self.last_repair_monotonic = time.monotonic()
            self.repairs += 1
            self.recovered_dirty = False

    def mark_repaired(self, through_sequence: int) -> None:
        """A repair pass completed that covered ``through_sequence`` even
        if it published no record (nothing needed fixing) — the staleness
        clock resets either way, and any recovered-dirty doubt is settled
        (the repair drove the *current* graph to a fixpoint)."""
        self.repaired_through = max(self.repaired_through, through_sequence)
        self.last_repair_monotonic = time.monotonic()
        self.recovered_dirty = False


class GraphRepairService:
    """Concurrent multi-session repair over many named, partitioned graphs.

    ``pool_workers`` fixes the shared warm pool's process count; the default
    ``0`` sizes it to the first sharded tenant's ``workers``.
    ``inline_pool=True`` runs the pool's state machine in-process (no
    spawned workers — tests, single-CPU hosts).
    """

    def __init__(self, pool_workers: int = 0, inline_pool: bool = False) -> None:
        self.sessions = SessionManager()
        self._pool = None
        self._pool_workers = pool_workers
        self._inline_pool = inline_pool
        self._lock = threading.Lock()
        self._closed = False
        self._durability: dict[str, TenantDurability] = {}
        self._recoveries: dict[str, RecoveredTenant] = {}
        self._activity: dict[str, _TenantActivity] = {}
        self._metrics_server = None

    # ------------------------------------------------------------------
    # serving tenants
    # ------------------------------------------------------------------

    def serve(self, name: str, graph: PropertyGraph,
              rules: RuleSet | list[GraphRepairingRule],
              config: RepairConfig | None = None,
              events: SessionEvents | None = None,
              shards: int = 0,
              durable: DurabilityConfig | None = None) -> RepairSession:
        """Open a named session over ``graph`` and start serving it.

        ``shards=K`` (with no explicit config) serves the graph partitioned:
        the session runs the sharded backend — K rule-radius-aware shards
        (:mod:`repro.parallel.partition`) with standing replicas in the
        shared worker pool, committed deltas shipped to the shards that own
        the edited nodes, and a deterministic cross-shard settle through the
        :class:`~repro.parallel.merge.DeltaMerger`.  An explicit sharded
        ``config`` joins the shared pool likewise.

        ``durable=DurabilityConfig(dir=...)`` makes the tenant crash-safe:
        an opening snapshot is written, and every committed record is
        appended (and fsync'd) to the tenant's write-ahead log *before* the
        committing call returns — see :mod:`repro.durability`.  Serving a
        name that already has durable state under ``dir`` raises; bring it
        back with :meth:`restore` instead (or point at a fresh directory).

        The session repairs **in place** (pass ``graph.copy()`` to keep the
        original), exactly like opening it directly.
        """
        self._require_open()
        if durable is not None and has_tenant_state(durable, name):
            raise ServiceError(
                f"tenant {name!r} already has durable state under "
                f"{durable.tenant_dir(name)}; restore() it instead of "
                "serving a fresh graph over it")
        sink = None
        if durable is not None:
            sink = TenantDurability(name, durable)
            sink.bootstrap(graph)
        try:
            session = self._open_session(name, graph, rules, config=config,
                                         events=events, shards=shards)
        except BaseException:
            if sink is not None:
                sink.close()
            raise
        if sink is not None:
            sink.attach(session)
            self._durability[name] = sink
        self._register_activity(name, session)
        return session

    def _register_activity(self, name: str, session: RepairSession,
                           recovered_dirty: bool = False) -> None:
        activity = _TenantActivity()
        # The restored session's changefeed restarts at 0 (recovered
        # records were replayed onto the graph, not into the new feed), so
        # recovered-but-unrepaired state can't show up as pending_deltas.
        # restore() flags it instead: unless the WAL proved the tenant
        # clean, it stays dirty until the first post-restore repair.
        activity.recovered_dirty = recovered_dirty
        activity.unsubscribe = session.on_commit(activity.on_record)
        self._activity[name] = activity

    def _open_session(self, name: str, graph: PropertyGraph,
                      rules: RuleSet | list[GraphRepairingRule],
                      config: RepairConfig | None = None,
                      events: SessionEvents | None = None,
                      shards: int = 0) -> RepairSession:
        if shards:
            if config is not None:
                raise ServiceError("pass either shards= or an explicit "
                                   "config, not both")
            config = RepairConfig.sharded(workers=shards,
                                          parallel_inline=self._inline_pool)
        pool = None
        if config is not None and config.backend == "sharded":
            pool = self._ensure_pool(config.workers)
        return self.sessions.open(name, graph, rules, config=config,
                                  events=events, pool=pool)

    def restore(self, name: str,
                rules: RuleSet | list[GraphRepairingRule],
                durable: DurabilityConfig,
                config: RepairConfig | None = None,
                events: SessionEvents | None = None,
                shards: int = 0) -> RepairSession:
        """Bring a crashed (or cleanly stopped) durable tenant back.

        Recovers the graph from its newest intact snapshot plus exact WAL
        replay (:func:`repro.durability.recover`), opens a fresh session
        over it, and re-attaches the durable sink at the recovered global
        sequence — new commits continue the same log.  The recovery
        details (restore point, records replayed) stay readable through
        :meth:`recovery_info`.
        """
        self._require_open()
        recovered = recover(name, durable)
        sink = TenantDurability(name, durable,
                                base_sequence=recovered.sequence)
        try:
            session = self._open_session(name, recovered.graph, rules,
                                         config=config, events=events,
                                         shards=shards)
        except BaseException:
            sink.close()
            raise
        sink.attach(session)
        self._durability[name] = sink
        self._recoveries[name] = recovered
        self._register_activity(name, session,
                                recovered_dirty=not recovered.known_clean)
        return session

    def _ensure_pool(self, workers: int):
        from repro.parallel.pool import WorkerPool

        with self._lock:
            if self._pool is None:
                self._pool = WorkerPool(self._pool_workers or workers,
                                        inline=self._inline_pool)
            return self._pool

    def session(self, name: str) -> RepairSession:
        """The named tenant's session (the full session API, directly)."""
        return self.sessions.get(name)

    def graph(self, name: str) -> PropertyGraph:
        return self.sessions.get(name).graph

    def names(self) -> list[str]:
        return self.sessions.names()

    def durability(self, name: str) -> TenantDurability:
        """The named tenant's durable sink (raises for non-durable tenants)."""
        sink = self._durability.get(name)
        if sink is None:
            raise ServiceError(f"tenant {name!r} is not served durably")
        return sink

    def recovery_info(self, name: str) -> RecoveredTenant:
        """The :class:`RecoveredTenant` of the last :meth:`restore` of
        ``name`` in this service's lifetime (raises if never restored)."""
        recovered = self._recoveries.get(name)
        if recovered is None:
            raise ServiceError(f"tenant {name!r} was not restored here")
        return recovered

    def stop_serving(self, name: str) -> None:
        """Close one tenant's session (and durable sink), release its name.

        The durable state on disk stays — :meth:`restore` brings the tenant
        back.  The sink closes even when the session's close raises.
        """
        try:
            self.sessions.close_session(name)
        finally:
            self._activity.pop(name, None)
            sink = self._durability.pop(name, None)
            if sink is not None:
                sink.close()

    # ------------------------------------------------------------------
    # staged edits (routed to the owning session)
    # ------------------------------------------------------------------

    def stage(self, name: str, edit) -> GraphDelta:
        return self.sessions.get(name).stage(edit)

    def commit(self, name: str) -> CommitResult:
        return self.sessions.get(name).commit()

    def rollback(self, name: str) -> GraphDelta:
        return self.sessions.get(name).rollback()

    def apply(self, name: str, edit) -> CommitResult:
        return self.sessions.get(name).apply(edit)

    def route(self, delta: GraphDelta) -> str:
        """The tenant that owns every pre-existing node ``delta`` touches.

        A recorded delta (e.g. one hop of a replication log) names the nodes
        it reads and mutates; the owner is the tenant whose graph holds all
        of them.  Raises :class:`~repro.exceptions.ServiceError` when no
        tenant qualifies, or when several do (id spaces overlap — route
        explicitly by name in that deployment).
        """
        referenced = delta.touched_nodes - set(delta.added_node_ids)
        if not referenced:
            raise ServiceError("the delta references no pre-existing nodes; "
                               "route it explicitly by tenant name")
        owners = [name for name in self.sessions.names()
                  if all(self.sessions.get(name).graph.has_node(node_id)
                         for node_id in referenced)]
        if not owners:
            raise ServiceError("no served graph holds all nodes the delta "
                               f"references ({sorted(referenced)[:5]} ...)")
        if len(owners) > 1:
            raise ServiceError(f"ambiguous delta: tenants {owners} all hold "
                               "the referenced nodes; route explicitly")
        return owners[0]

    def apply_routed(self, delta: GraphDelta) -> tuple[str, CommitResult]:
        """Route a recorded delta to its owning session and apply it there."""
        with telemetry.span("service.apply_routed", changes=len(delta.changes)):
            name = self.route(delta)
            result = self.apply(name, delta)
        if telemetry.TELEMETRY.enabled:
            telemetry.inc("repro_routed_deltas_total", tenant=name)
        return name, result

    # ------------------------------------------------------------------
    # repairing
    # ------------------------------------------------------------------

    def repair(self, name: str) -> RepairReport:
        session = self.sessions.get(name)
        seq_before = session.last_sequence
        report = session.repair()
        activity = self._activity.get(name)
        if activity is not None:
            # A repair that found violations published a "repair" record and
            # on_record already advanced repaired_through past seq_before; a
            # no-op repair publishes nothing, so record the proof here: every
            # commit <= seq_before has now been reconciled.
            activity.mark_repaired(seq_before)
        return report

    def repair_all(self) -> dict[str, RepairReport]:
        """Repair every tenant, in sorted-name order (deterministic).

        Each tenant's repair is one ordinary session repair — for sharded
        tenants that is fan-out over the warm pool, merge, and the
        deterministic cross-shard settle.  Tenants are independent graphs,
        so the sequential order only fixes *pool scheduling*, never
        outcomes; callers wanting wall-clock overlap can repair tenants from
        their own threads instead.
        """
        names = self.sessions.names()
        with telemetry.span("service.repair_all", tenants=len(names)):
            return {name: self.repair(name) for name in names}

    # ------------------------------------------------------------------
    # the changefeed
    # ------------------------------------------------------------------

    def deltas(self, name: str, after: int = 0) -> list[CommittedDelta]:
        """The named tenant's committed-delta changefeed (see
        :meth:`RepairSession.deltas`)."""
        return self.sessions.get(name).deltas(after=after)

    def subscribe(self, name: str, callback) -> "callable":
        """Subscribe to one tenant's changefeed; returns the unsubscribe."""
        return self.sessions.get(name).on_commit(callback)

    def staleness(self) -> dict[str, TenantStaleness]:
        """Per-tenant dirty/staleness accounting, keyed by tenant name.

        ``pending_deltas`` counts committed changefeed records not yet
        proven reconciled by a repair (``last_sequence`` minus
        ``repaired_through``); ``seconds_since_repair`` is the wall time
        since the tenant's last repair (or since it was served, before its
        first repair).  The background scheduler orders its work by these
        numbers, and :meth:`telemetry_snapshot` exports them as gauges.
        """
        now = time.monotonic()
        out: dict[str, TenantStaleness] = {}
        for name in self.sessions.names():
            activity = self._activity.get(name)
            if activity is None:
                continue
            try:
                last_sequence = self.sessions.get(name).last_sequence
            except Exception:
                continue  # silent-ok: the tenant closed between list and read
            anchor = activity.last_repair_monotonic
            if anchor is None:
                anchor = activity.served_at
            out[name] = TenantStaleness(
                name=name,
                pending_deltas=max(0, last_sequence - activity.repaired_through),
                seconds_since_repair=max(0.0, now - anchor),
                repaired_through=activity.repaired_through,
                last_sequence=last_sequence,
                repairs=activity.repairs,
                recovered_dirty=activity.recovered_dirty,
            )
        return out

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------

    @property
    def pool(self):
        """The shared warm pool, or ``None`` before any sharded tenant."""
        return self._pool

    @property
    def pool_stats(self) -> dict[str, int]:
        """The shared pool's overhead counters (zeros before it exists)."""
        if self._pool is None:
            return {"spawns": 0, "binds": 0, "deltas_shipped": 0,
                    "shard_repairs": 0, "repair_calls": 0,
                    "leases": 0, "lease_wait_seconds": 0.0,
                    "worker_deaths": 0, "respawns": 0,
                    "command_timeouts": 0, "retries": 0,
                    "fallback_repairs": 0}
        return self._pool.stats.as_dict()

    # ------------------------------------------------------------------
    # telemetry exposition
    # ------------------------------------------------------------------

    def telemetry_snapshot(self):
        """A consistent :class:`~repro.telemetry.RegistrySnapshot` of the
        process registry, with the service's scrape-time gauges refreshed
        first: per-tenant changefeed sequence, and — for durable tenants —
        snapshot sequence and feed-sequence lag (records a crash would
        replay).  This is what ``/metrics`` renders on every scrape.
        """
        for name in self.sessions.names():
            try:
                sequence = self.sessions.get(name).last_sequence
            except Exception:
                continue  # silent-ok: the tenant closed between list and read
            telemetry.gauge_set("repro_feed_sequence", sequence, tenant=name)
            sink = self._durability.get(name)
            if sink is not None:
                telemetry.gauge_set("repro_snapshot_sequence",
                                    sink.last_snapshot_sequence, tenant=name)
                telemetry.gauge_set(
                    "repro_snapshot_age_records",
                    sink.global_sequence - sink.last_snapshot_sequence,
                    tenant=name)
                telemetry.gauge_set(
                    "repro_feed_sequence_lag",
                    sink.global_sequence - sink.last_snapshot_sequence,
                    tenant=name)
            else:
                telemetry.gauge_set("repro_feed_sequence_lag", 0, tenant=name)
        for name, stale in self.staleness().items():
            telemetry.gauge_set("repro_tenant_staleness_seconds",
                                stale.seconds_since_repair, tenant=name)
            telemetry.gauge_set("repro_tenant_pending_deltas",
                                stale.pending_deltas, tenant=name)
        pool = self._pool
        if pool is not None:
            from repro.parallel.breaker import BREAKER_STATE_VALUES

            telemetry.gauge_set("repro_pool_breaker_state",
                                BREAKER_STATE_VALUES[pool.breaker.state])
        return telemetry.TELEMETRY.registry.snapshot()

    def health(self) -> dict:
        """The ``/healthz`` document: liveness, per-tenant sequences, and —
        once the shared pool exists — its supervision counters and circuit
        breaker state, so a probe can see degradation before it can see
        failures."""
        tenants = {}
        for name in self.sessions.names():
            try:
                tenants[name] = self.sessions.get(name).last_sequence
            except Exception:
                continue  # silent-ok: the tenant closed between list and read
        document = {"status": "closed" if self._closed else "ok",
                    "tenants": tenants}
        pool = self._pool
        if pool is not None:
            stats = pool.stats
            document["pool"] = {
                "workers": pool.workers,
                "started": pool.started,
                "generation": pool.generation,
                "worker_deaths": stats.worker_deaths,
                "respawns": stats.respawns,
                "retries": stats.retries,
                "fallback_repairs": stats.fallback_repairs,
                "breaker": pool.breaker.snapshot(),
            }
        return document

    def start_metrics_server(self, host: str = "127.0.0.1", port: int = 0):
        """Start the opt-in Prometheus endpoint (and enable telemetry).

        Serves ``/metrics`` (text exposition 0.0.4) and ``/healthz`` on a
        stdlib HTTP daemon thread until :meth:`close`.  ``port=0`` picks a
        free port — read it back from the returned server's ``.port``.
        """
        from repro.telemetry.exposition import TelemetryServer

        self._require_open()
        if self._metrics_server is not None:
            raise ServiceError("the metrics server is already running on "
                               f"{self._metrics_server.url}")
        telemetry.enable()
        self._metrics_server = TelemetryServer(self.telemetry_snapshot,
                                               health_provider=self.health,
                                               host=host, port=port)
        return self._metrics_server

    @property
    def metrics_server(self):
        """The running telemetry endpoint, or ``None``."""
        return self._metrics_server

    def close(self) -> None:
        """Close every session, every durable sink, then the shared pool.

        Idempotent — and *complete*: a failing stage never short-circuits
        the later ones, so the worker pool's child processes are reclaimed
        even when a session (or sink) close raises.  The first failure is
        re-raised after everything has been torn down.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        errors: list[BaseException] = []
        if self._metrics_server is not None:
            try:
                self._metrics_server.close()
            except BaseException as exc:
                errors.append(exc)
            self._metrics_server = None
        try:
            self.sessions.close()
        except BaseException as exc:
            errors.append(exc)
        for sink in self._durability.values():
            try:
                sink.close()
            except BaseException as exc:
                errors.append(exc)
        self._durability.clear()
        if self._pool is not None:
            try:
                self._pool.close()
            except BaseException as exc:
                errors.append(exc)
            self._pool = None
        if errors:
            raise errors[0]

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError("the service is closed")

    def __enter__(self) -> "GraphRepairService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
