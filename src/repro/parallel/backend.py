"""The ``"sharded"`` repair backend: fan-out / fan-in over shard workers.

:class:`ShardedRepairer` implements the :class:`repro.api.Repairer`
plan/apply/maintain protocol around a persistent primary
:class:`~repro.repair.fast.FastRepairCore` (exactly like the fast backend),
but its ``run()`` turns one repair pass into a pipeline:

1. **partition** — cut the primary graph into rule-radius-aware shards
   (:mod:`repro.parallel.partition`);
2. **fan-out** — bind each shard's working copy as a standing replica in
   the supervised :class:`~repro.parallel.pool.WorkerPool` (later calls
   ship committed deltas instead), then run one repair barrier in which
   each worker proposes only the violations its core owns;
3. **fan-in** — merge the per-shard deltas onto the primary graph with
   reserved ids and cross-shard conflict detection
   (:mod:`repro.parallel.merge`), then fold the whole merged delta into the
   primary core's matcher state under **one** incremental-maintenance pass;
4. **settle** — drain the primary core sequentially for whatever the fan-out
   could not own: frontier violations (matches spanning shard cores),
   conflict-rejected repairs, and cascades discovered by the merge pass.

Determinism: partitioning, shard-local repair, fan-in order, and the settle
drain are all deterministic for a fixed input, so two runs over the same
graph produce identical graphs — whatever the pool's scheduling order was.
On conflict-free partitions the result is also equivalent to the sequential
fast backend's (the parallel equivalence suite pins this across all three
dataset generators).

Degradation is graceful and explicit: ``workers <= 1``, a ``max_repairs``
budget, a graph smaller than ``min_partition_nodes``, or a partition that
collapses to one shard all skip the fan-out and behave exactly like the
fast backend (the last two are rechecked on every call until replicas
stand).  Failures degrade *per call* (docs/RESILIENCE.md): a pool failure
that supervision could not heal records one strike on the pool's circuit
breaker and this call settles through the sequential drain (workers
propose-then-revert, so a failed fan-out left the primary graph untouched
and the drain owns the whole workload); an **open** breaker skips the
fan-out up front until its half-open probe succeeds.  Correctness under
fallback is exactly the sharded==sequential equivalence the parallel suite
pins.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field

from repro import telemetry
from repro.exceptions import WorkerPoolError
from repro.graph.delta import GraphDelta, recording
from repro.graph.property_graph import PropertyGraph
from repro.matching.vf2 import MatchingStats
from repro.parallel.merge import DeltaMerger, MergeOutcome
from repro.parallel.partition import (
    Shard,
    ShardPlan,
    partition_graph,
    rule_radius,
)
from repro.parallel.pool import PoolStats, WorkerPool
from repro.parallel.replica import project_delta
from repro.parallel.worker import ShardResult
from repro.repair.events import MaintenanceEvent
from repro.repair.executor import ExecutionOutcome
from repro.repair.fast import FastRepairCore
from repro.repair.report import RepairReport
from repro.repair.violation import Violation, ViolationStatus
from repro.rules.grr import RuleSet
from repro.telemetry.log import get_logger, log_event

_log = get_logger("parallel.backend")


@dataclass
class FanoutReport:
    """Diagnostics of the last fan-out (exposed as ``last_fanout`` and
    surfaced by the parallel example / benchmark)."""

    shards: int = 0
    radius: int = 0
    workers: int = 0
    used_processes: bool = False
    cut_edges: int = 0
    halo_fraction: float = 0.0
    shard_repairs: int = 0
    accepted: int = 0
    rejected: int = 0
    conflicts: list[str] = field(default_factory=list)
    #: the workers' matcher counters summed over this fan-out's shards
    #: (each shard ships its own :meth:`MatchingStats.since` delta)
    shard_stats: MatchingStats = field(default_factory=MatchingStats)
    #: the worker pool's counters grown during this fan-out (spawns, binds,
    #: ships, respawns, retries: all 0 after warm-up on a healthy pool)
    pool: PoolStats = field(default_factory=PoolStats)
    #: shards rebound because a committed delta was not expressible on their
    #: standing replica
    stale_rebinds: int = 0
    #: fraction of the primary graph's nodes owned by a shard core at this
    #: fan-out (1 - coverage settles at the coordinator) — the trigger
    #: signal online repartitioning will watch (ROADMAP item 2)
    ownership_coverage: float = 0.0
    #: smallest-to-largest owned-core ratio across shards (1.0 = balanced)
    shard_balance: float = 0.0
    #: this run degraded to the sequential drain (pool failure beyond
    #: supervision, or the circuit breaker refusing the fan-out)
    fallback: bool = False
    #: why: ``"pool-failure"`` or ``"breaker-open"`` ("" when no fallback)
    fallback_reason: str = ""

    @property
    def ran(self) -> bool:
        return self.shards > 0


#: distinguishes pool shard keys of coexisting backends (a service shares
#: one pool between many tenants' backends)
_BACKEND_SEQUENCE = itertools.count()


@dataclass
class _ReplicaTracker:
    """Coordinator-side bookkeeping for one standing shard replica."""

    index: int
    namespace: str
    key: str
    core: set[str]
    #: the replica's current node set (extraction membership + adoptions)
    nodes: set[str] = field(default_factory=set)
    bound: bool = False
    stale: bool = True          # an unbound replica is stale by definition
    stale_reason: str = "never bound"
    #: the shard exactly as the partition cut it, until its first bind
    #: extracts it (the partition's halo is current at that bind)
    partitioned: Shard | None = None


def execute_tasks(pool: WorkerPool, trackers: list[_ReplicaTracker],
                  context: dict | None, rebinder) -> list[ShardResult]:
    """The fan-out's one repair barrier: results in ``trackers`` order, each
    stamped with its shard index.

    Module-level rather than a method so that tracers which wrap
    ``repro.parallel.backend.execute_tasks`` by name (``bench/spans.py``)
    time the barrier as the fan-out stage.
    """
    results = pool.repair([tracker.key for tracker in trackers],
                          context=context, rebinder=rebinder)
    for tracker, result in zip(trackers, results):
        result.shard_index = tracker.index
    return results


class ShardedRepairer:
    """Sharded multi-process repair behind the session's backend seam.

    Every fan-out runs through one supervised
    :class:`~repro.parallel.pool.WorkerPool` holding standing shard replicas
    across calls: committed deltas (session commits, merged repairs, settle
    repairs) are projected per shard and shipped
    (:mod:`repro.parallel.replica`), so worker detection is incremental and
    nothing is spawned after the first fan-out.  A shard whose replica
    cannot express a committed delta is rebound from a fresh extraction.

    The pool may be supplied (a service sharing one pool across tenants) or
    is created lazily at the first fan-out and owned — an owned pool is
    closed with the backend, so a one-shot session gets a transient pool and
    a session ``close()`` never leaks worker processes.
    """

    name = "sharded"
    cumulative_report = True

    def __init__(self, config, events=None, pool=None) -> None:
        self.config = config
        self.events = events
        self.core: FastRepairCore | None = None
        self.last_fanout = FanoutReport()
        self.pool = pool
        self._owns_pool = False
        self._graph: PropertyGraph | None = None
        self._rules: RuleSet | None = None
        self._key_prefix = f"b{next(_BACKEND_SEQUENCE)}"
        self._plan: ShardPlan | None = None
        self._replicas: dict[int, _ReplicaTracker] = {}
        self._unshipped: list[GraphDelta] = []
        #: pool generation the replicas were bound under; a mismatch means
        #: the pool restarted (failure recovery) and every replica is gone
        self._pool_generation = -1

    # ------------------------------------------------------------------
    # Repairer protocol
    # ------------------------------------------------------------------

    def bind(self, graph: PropertyGraph, rules: RuleSet) -> None:
        self._graph = graph
        self._rules = rules
        self.core = FastRepairCore(graph, rules, config=self.config,
                                   events=self.events)

    def plan(self) -> list[Violation]:
        return self.core.pending()

    def apply(self, violation: Violation) -> ExecutionOutcome:
        if not self.core.validate(violation):
            return ExecutionOutcome(applied=False, error="violation is obsolete")
        return self.core.execute(violation)

    def _track_unshipped(self, delta: GraphDelta) -> None:
        """Queue a committed primary delta for the standing replicas.

        Only once replicas actually stand (a plan exists) — before the first
        fan-out the binds extract the then-current graph anyway, and a
        backend that never fans out would accumulate without bound.
        """
        if delta and self._plan is not None:
            self._unshipped.append(delta)

    def maintain(self, delta: GraphDelta, source: str = "commit") -> MaintenanceEvent:
        # committed external edits must reach the standing replicas too;
        # shipped (projected per shard) before the next fan-out
        self._track_unshipped(delta)
        return self.core.maintain(delta, source=source)

    def stats(self) -> MatchingStats:
        return self.core.stats

    def ownership_coverage(self) -> tuple[float, float]:
        """``(coverage, balance)`` of the standing partition.

        *Coverage* is the fraction of the primary graph's current nodes that
        some shard core owns; nodes created since partitioning are adopted
        as unowned context and settle at the coordinator, so a long-lived
        growing tenant's coverage decays toward 0 — the trigger signal for
        online repartitioning.  *Balance* is the smallest owned core divided
        by the largest (1.0 = perfectly even shards).  ``(0.0, 0.0)`` before
        the first fan-out or on a backend that never fans out.
        """
        if not self._replicas or self._graph is None:
            return 0.0, 0.0
        total = self._graph.num_nodes
        if total == 0:
            return 0.0, 0.0
        core_sizes = []
        owned = 0
        for tracker in self._replicas.values():
            alive = sum(1 for node_id in tracker.core
                        if self._graph.has_node(node_id))
            core_sizes.append(alive)
            owned += alive
        largest = max(core_sizes)
        balance = (min(core_sizes) / largest) if largest else 0.0
        return owned / total, balance

    def close(self) -> None:
        if self.core is not None:
            self.core.close()
        if self._owns_pool and self.pool is not None:
            self.pool.close()
            self.pool = None

    # ------------------------------------------------------------------
    # the fan-out / fan-in run
    # ------------------------------------------------------------------

    def run(self) -> RepairReport:
        """One repair pass: ship → fan out → merge → settle.

        Every primary mutation of this run — merge replays and settle
        repairs — is recorded and queued for the replicas, so the *next*
        call's shard detection starts from exactly this call's outcome.

        Failure is degraded, not raised: the fan-out is guarded by the
        pool's circuit breaker, and a :class:`WorkerPoolError` that escaped
        supervision falls back to the sequential drain for this call —
        workers propose-then-revert, so a failed fan-out never left partial
        mutations on the primary graph, and the drain repairs everything
        the fan-out would have.
        """
        self.last_fanout = FanoutReport()
        with recording(self._graph) as recorder:
            if self._should_fanout():
                pool = self._ensure_pool()
                if not pool.breaker.allow():
                    self._note_fallback("breaker-open",
                                        f"circuit breaker {pool.breaker.state}"
                                        ": fan-out refused")
                else:
                    try:
                        self._fanout(pool)
                    except WorkerPoolError as exc:
                        pool.breaker.record_failure()
                        # the pool shut itself down; the standing replicas
                        # are gone and queued deltas have nothing to feed —
                        # the post-failure rebinds extract fresh working
                        # copies from the then-current graph
                        self._unshipped.clear()
                        self._note_fallback("pool-failure", str(exc))
                    else:
                        pool.breaker.record_success()
            # settle: frontier violations, conflict-rejected repairs, and
            # anything the merge pass discovered — or the entire workload
            # when the fan-out was skipped or failed
            self.core.drain()
        self._track_unshipped(recorder.drain())
        return self.core.finalize()

    def _note_fallback(self, reason: str, detail: str) -> None:
        fanout = self.last_fanout
        fanout.fallback = True
        fanout.fallback_reason = reason
        self.pool.stats.bump("fallback_repairs", tenant=self._graph.name,
                             reason=reason)
        log_event(_log, "warning", "warm-fanout-fallback",
                  tenant=self._graph.name, reason=reason, detail=detail)

    def _fan_out_viable(self) -> bool:
        """The config's own verdict on fanning out (fixed for the backend's
        life): more than one worker, and no ``max_repairs`` budget —
        ``max_repairs`` caps the repairs of one run() call, and fanning out
        would hand every worker (and the settle drain) an independent budget
        and silently multiply the cap, so such runs stay on the single
        sequential drain, whose budget accounting is exact."""
        return self.config.workers > 1 and self.config.max_repairs is None

    def _should_fanout(self) -> bool:
        if not self._fan_out_viable():
            return False
        if self._plan is None \
                and self._graph.num_nodes < self.config.min_partition_nodes:
            # too small to be worth partitioning (rechecked every call: a
            # growing graph crosses the floor later); once replicas stand,
            # they keep serving even if the graph shrinks below it
            return False
        return self.core.has_pending()

    def _ensure_pool(self) -> WorkerPool:
        if self.pool is None:
            self.pool = WorkerPool(self.config.workers,
                                   inline=self.config.parallel_inline)
            self._owns_pool = True
        return self.pool

    def _ensure_plan(self) -> ShardPlan | None:
        """The standing partition, cut now if none stands yet: one shard per
        worker, with a halo of the rule set's reach.  ``None`` when the
        graph collapses to one shard (it would just serialise through a
        worker; the next call partitions again)."""
        if self._plan is not None:
            return self._plan
        plan = partition_graph(self._graph, self.config.workers,
                               rule_radius(self._rules))
        if len(plan) <= 1:
            return None
        self._plan = plan
        for shard in plan.shards:
            self._replicas[shard.index] = _ReplicaTracker(
                index=shard.index, namespace=shard.namespace,
                key=f"{self._key_prefix}:{shard.index}",
                core=shard.core, partitioned=shard)
        return plan

    def _halo_intact(self, tracker: _ReplicaTracker, radius: int,
                     projection) -> bool:
        """Whether the replica's node set still covers the core's full
        ``radius``-neighbourhood on the *current* primary graph.

        Edge additions between two replica members can shorten primary
        distances, pulling nodes that were beyond the radius at extraction
        time inside it; such nodes are absent from the replica, so shard
        decisions about core-bound matches could silently diverge.  Checked
        against the candidate membership *after* the projection (adoptions
        and removals applied).
        """
        members = (set(tracker.nodes) | projection.adopted_nodes) \
            - projection.removed_nodes
        core = {node_id for node_id in tracker.core
                if self._graph.has_node(node_id)}
        return self._graph.neighborhood(core, hops=radius) <= members

    def _bind_payload(self, tracker: _ReplicaTracker,
                      radius: int) -> tuple[dict, frozenset[str]]:
        """A working-copy payload for one replica against the *current*
        graph, extracted through :meth:`Shard.extract`.

        A first bind extracts the shard as partitioned; a rebind builds a
        shard of the surviving core nodes and a freshly computed radius
        halo.
        """
        shard, tracker.partitioned = tracker.partitioned, None
        if shard is None:
            graph = self._graph
            core = {node_id for node_id in tracker.core
                    if graph.has_node(node_id)}
            shard = Shard(index=tracker.index, core=core,
                          halo=graph.neighborhood(core, hops=radius) - core,
                          frontier=set())
        tracker.core = shard.core
        tracker.nodes = shard.node_ids()
        return shard.extract(self._graph), frozenset(shard.core)

    def _recovery_rebinder(self, key: str) -> tuple:
        """Fresh bind arguments for ``key`` — the pool's mid-barrier recovery
        hook: when a worker dies (or errors) holding an in-flight shard
        repair, its respawned replacement needs the shard's standing replica
        rebuilt before the one retry.  Runs on the coordinator thread (which
        already holds the session lock for this repair call), so reading the
        primary graph is safe; workers propose-then-revert, so the primary
        is exactly as it was when the barrier started.
        """
        tracker = next(t for t in self._replicas.values() if t.key == key)
        payload, core = self._bind_payload(tracker, self._plan.radius)
        return (payload, tracker.namespace, core, self._rules, self.config)

    def _fanout(self, pool: WorkerPool) -> None:
        config = self.config
        stats_before = copy.copy(pool.stats)

        # 0. a pool restart (failure recovery, or a shared pool another
        #    tenant's error shut down) discards every standing replica; a
        #    mid-barrier worker respawn discards only that worker's
        #    replicas, which the pool reports per shard key.  Started before
        #    partitioning, so a fresh plan is bound within this call while
        #    its halos are current.
        generation = pool.start()
        plan = self._ensure_plan()
        if plan is None:
            return
        fanout = self.last_fanout
        fanout.shards = len(plan)
        fanout.radius = plan.radius
        fanout.workers = config.workers
        fanout.used_processes = not pool.inline
        fanout.cut_edges = plan.cut_edges
        fanout.halo_fraction = plan.halo_fraction
        if generation != self._pool_generation:
            if self._pool_generation >= 0:
                for tracker in self._replicas.values():
                    tracker.stale = True
                    tracker.stale_reason = "pool restarted"
            self._pool_generation = generation
        lost = pool.take_lost([tracker.key
                               for tracker in self._replicas.values()])
        if lost:
            for tracker in self._replicas.values():
                if tracker.key in lost and not tracker.stale:
                    tracker.stale = True
                    tracker.stale_reason = ("worker respawned: standing "
                                            "replica lost")

        # 1. bring every standing replica up to the committed state: project
        #    the accumulated primary deltas per shard, ship the expressible
        #    ones (one barrier, parallel across workers), rebind the stale
        #    ones from a fresh extraction
        pending = GraphDelta()
        for delta in self._unshipped:
            pending.extend(delta.changes)
        self._unshipped.clear()
        ships: list[tuple[str, GraphDelta]] = []
        shipped_by_key: dict[str, "_ReplicaTracker"] = {}
        with self.core.report.timings.measure("shard-ship"):
            for tracker in self._replicas.values():
                if not (tracker.bound and not tracker.stale and pending):
                    continue
                projection = project_delta(pending, tracker.nodes)
                if projection.stale:
                    tracker.stale = True
                    tracker.stale_reason = projection.reason
                    continue
                if not projection.shipped:
                    continue
                if projection.shipped.added_edge_ids \
                        and not self._halo_intact(tracker, plan.radius,
                                                  projection):
                    # new member-member edges can shorten distances and pull
                    # previously-outside structure inside the rule radius —
                    # the replica would silently miss it, so rebind instead
                    tracker.stale = True
                    tracker.stale_reason = ("added edge shrank distances: "
                                            "halo no longer covers the "
                                            "core's radius-neighbourhood")
                    continue
                ships.append((tracker.key, projection.shipped))
                shipped_by_key[tracker.key] = tracker
                projection.apply_membership(tracker.nodes)
            for key, applied in pool.ship_all(ships).items():
                if not applied:  # the worker dropped a diverged replica
                    tracker = shipped_by_key[key]
                    tracker.stale = True
                    tracker.stale_reason = "worker reported divergence"
        binds: list[tuple] = []
        with self.core.report.timings.measure("shard-extraction"):
            for tracker in self._replicas.values():
                if not tracker.stale:
                    continue
                if tracker.bound:
                    fanout.stale_rebinds += 1
                    log_event(_log, "warning", "replica-stale-rebind",
                              tenant=self._graph.name, shard=tracker.key,
                              reason=tracker.stale_reason)
                    if telemetry.TELEMETRY.enabled:
                        telemetry.inc("repro_pool_stale_rebinds_total",
                                      shard=tracker.key)
                payload, core = self._bind_payload(tracker, plan.radius)
                binds.append((tracker.key, payload, tracker.namespace,
                              core, self._rules, config))
        with self.core.report.timings.measure("shard-bind"):
            pool.bind_all(binds)
        for tracker in self._replicas.values():
            tracker.bound = True
            tracker.stale = False
            tracker.stale_reason = ""

        # 2. one repair barrier over every shard (propose-then-revert on the
        #    workers), then the shared fan-in commits the survivors here.
        #    The fan-out span stays open through the fan-in so the workers'
        #    shipped spans re-parent under it.
        trackers = sorted(self._replicas.values(), key=lambda t: t.index)
        with telemetry.span("repair.fanout", tenant=self._graph.name,
                            shards=len(trackers)):
            context = telemetry.current_context()
            with self.core.report.timings.measure("shard-fanout"):
                results = execute_tasks(pool, trackers, context,
                                        self._recovery_rebinder)
            fanout.pool = pool.stats.since(stats_before)
            self._fan_in(results)
        # measured after fan-in so adoption/settlement of this run's created
        # elements is reflected: coverage decays as repairs/commits grow the
        # graph past the standing partition
        coverage, balance = self.ownership_coverage()
        fanout.ownership_coverage = coverage
        fanout.shard_balance = balance
        if telemetry.TELEMETRY.enabled:
            telemetry.gauge_set("repro_pool_ownership_coverage", coverage,
                                tenant=self._graph.name)
            telemetry.gauge_set("repro_pool_shard_balance", balance,
                                tenant=self._graph.name)

    def _fan_in(self, results: list[ShardResult]) -> None:
        fanout = self.last_fanout
        if telemetry.TELEMETRY.enabled:
            # fold each worker's shipped registry into the coordinator's
            # (associative merge — arrival order cannot matter) and re-parent
            # its span trees under the still-open fan-out span
            for result in results:
                if result.telemetry is not None:
                    telemetry.TELEMETRY.registry.absorb(result.telemetry)
                if result.spans:
                    telemetry.TELEMETRY.tracer.attach_remote(
                        result.spans, process=f"shard-{result.shard_index}")
        for result in results:
            fanout.shard_repairs += result.repairs_applied
            fanout.shard_stats.merge(result.stats)

        with self.core.report.timings.measure("shard-merge"):
            outcome: MergeOutcome = DeltaMerger(self._graph).merge(results)
        fanout.accepted = outcome.accepted
        fanout.rejected = outcome.rejected
        fanout.conflicts = outcome.conflicts

        # the accepted repairs were applied to the primary graph above; count
        # them in the cumulative report (they are real repairs of this run,
        # executed by workers instead of the primary executor), retire their
        # identities so the settle drain skips them instead of miscounting
        # them as obsolete, and stream them through the session's event hooks
        on_repair_applied = getattr(self.events, "on_repair_applied", None)
        for accepted in outcome.accepted_repairs:
            self.core.report.repairs_applied += 1
            match = accepted.match
            if match is None:
                continue
            violation = Violation(rule=self._rules.get(accepted.repair.rule_name),
                                  match=match, status=ViolationStatus.REPAIRED)
            self.core.mark_handled(violation.key())
            if on_repair_applied is not None:
                on_repair_applied(violation,
                                  ExecutionOutcome(applied=True,
                                                   delta=accepted.replayed))
        if outcome.applied_delta:
            # ONE incremental-maintenance pass over everything the fan-out
            # changed; "shard-merge" never requeues already-handled
            # identities (same termination contract as repair-driven
            # maintenance)
            self.core.maintain(outcome.applied_delta, source="shard-merge")
