"""The sharded backend's worker side: shard payloads, results, replicas.

A worker process repairs its shard with no access to the coordinator's
memory.  Everything it needs arrives in a
:class:`~repro.parallel.pool.WorkerPool` ``bind`` message:

* the shard's working copy as a **plain-dict payload**
  (:func:`shard_payload`, i.e. :func:`repro.graph.io.graph_to_dict`) rather
  than a live :class:`~repro.graph.PropertyGraph` — no listeners, no shared
  indexes, nothing process-specific, safe for the ``spawn`` start method on
  every platform;
* the pickled rule set and :class:`~repro.repair.config.RepairConfig`
  (both are declarative object trees — patterns, predicate dataclasses,
  cost models — with no callables, by design);
* the shard's **core** node ids (ownership filter) and id **namespace**.

The worker rebuilds the graph into a standing :class:`ShardWorkerState`
replica and answers each ``repair`` command with a :class:`ShardResult`
whose deltas still live in the shard's namespaced id space — translating
them into the primary graph's id space is the merger's job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.graph.delta import GraphDelta, apply_inverse, recording, replay_delta
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.property_graph import PropertyGraph
from repro.repair.config import RepairConfig
from repro.repair.fast import AppliedRepair, FastRepairCore, make_ownership_filter
from repro.rules.grr import RuleSet


@dataclass
class ShardResult:
    """What one worker ships back to the coordinator.

    ``repairs`` are in shard application order with deltas in the shard's
    namespaced id space.  The counters summarise the shard-local run (its
    full :class:`~repro.repair.report.RepairReport` never leaves the worker —
    logs and timing breakdowns would dominate the result pickle).
    """

    shard_index: int
    repairs: list[AppliedRepair] = field(default_factory=list)
    violations_detected: int = 0
    repairs_applied: int = 0
    repairs_failed: int = 0
    nodes_tried: int = 0
    # candidates the shard's value buckets scanned in place of label buckets
    # (the predicate-pushdown layer, rebuilt worker-side with the index)
    value_bucket_candidates: int = 0
    # candidates the shard's range/membership probes offered
    range_bucket_candidates: int = 0
    # cost-planner activity inside the shard (plans built / drift replans)
    planner_plans: int = 0
    planner_replans: int = 0
    elapsed_seconds: float = 0.0
    #: worker-side :class:`~repro.telemetry.RegistrySnapshot` (None when
    #: telemetry was not collecting) — the coordinator absorbs it, so shard
    #: metrics merge deterministically into the dispatching registry
    telemetry: object = None
    #: worker-side finished span trees (plain dicts) — the coordinator
    #: re-parents them under its open fan-out span
    spans: list = field(default_factory=list)


def shard_payload(graph: PropertyGraph) -> dict:
    """Serialise a shard working copy into its spawn-safe payload."""
    return graph_to_dict(graph)


def shard_from_payload(payload: dict, namespace: str) -> PropertyGraph:
    """Rebuild a worker-side graph from a payload, with namespaced ids."""
    return graph_from_dict(payload, id_namespace=namespace)


class ShardWorkerState:
    """One standing shard replica inside a pool worker.

    Holds the shard's working copy and a persistent
    :class:`~repro.repair.fast.FastRepairCore` across repair calls — the
    expensive bind (graph rebuild, index construction, full initial
    detection) happens once; afterwards the coordinator ships committed
    primary deltas (:meth:`ship`) and detection stays incremental.

    :meth:`repair` follows a *propose-then-revert* protocol: the worker
    drains its owned violations, collects the applied repairs, then rolls
    every local mutation back so the replica returns to the last state the
    coordinator synced.  Only the coordinator commits: whatever subset of the
    proposed repairs survives the cross-shard merge comes back — in primary
    id space — through the next :meth:`ship`, exactly like any other
    committed change.  The replica therefore never diverges from the
    primary's slice, whatever the merge rejected.
    """

    def __init__(self, payload: dict, namespace: str, core: frozenset[str],
                 rules: RuleSet, config: RepairConfig) -> None:
        self.graph = shard_from_payload(payload, namespace)
        self.namespace = namespace
        self.owned = frozenset(core)
        self.core_state = FastRepairCore(self.graph, rules, config=config)

    def ship(self, delta: GraphDelta) -> int:
        """Replay one projected primary delta and fold it into the matcher
        state (one incremental pass).  Returns the number of changes applied.

        ``source="commit"`` maintenance semantics apply: a committed edit may
        legitimately re-create a violation identity an earlier call handled,
        and it must become repairable again.
        """
        replayed = replay_delta(self.graph, delta)
        self.core_state.maintain(replayed, source="commit")
        return len(replayed)

    def repair(self) -> ShardResult:
        """One propose-then-revert repair pass over the standing replica."""
        started = time.perf_counter()
        report = self.core_state.report
        stats = self.core_state.stats
        baseline = (report.violations_detected, report.repairs_applied,
                    report.repairs_failed, stats.nodes_tried,
                    stats.value_bucket_candidates,
                    stats.range_bucket_candidates,
                    stats.planner_plans, stats.planner_replans)
        collected: list[AppliedRepair] = []
        with recording(self.graph) as recorder:
            self.core_state.drain(
                accept=make_ownership_filter(self.graph, self.owned),
                collector=collected)
        mutations = recorder.drain()
        if mutations:
            # revert *everything* the drain changed — applied repairs and
            # partial mutations of failed ones alike — and tell the matcher,
            # requeuing the violations whose repairs were just undone
            inverse = apply_inverse(self.graph, mutations)
            self.core_state.maintain(inverse, source="commit")
        finalized = self.core_state.finalize()
        return ShardResult(
            shard_index=-1,
            repairs=collected,
            violations_detected=finalized.violations_detected - baseline[0],
            repairs_applied=finalized.repairs_applied - baseline[1],
            repairs_failed=finalized.repairs_failed - baseline[2],
            nodes_tried=finalized.matching_stats.nodes_tried - baseline[3],
            value_bucket_candidates=(
                finalized.matching_stats.value_bucket_candidates - baseline[4]),
            range_bucket_candidates=(
                finalized.matching_stats.range_bucket_candidates - baseline[5]),
            planner_plans=finalized.matching_stats.planner_plans - baseline[6],
            planner_replans=(
                finalized.matching_stats.planner_replans - baseline[7]),
            elapsed_seconds=time.perf_counter() - started,
        )

    def close(self) -> None:
        self.core_state.close()
