"""The sharded backend's worker side: shard payloads, results, replicas.

A worker process repairs its shard with no access to the coordinator's
memory.  Everything it needs arrives in a
:class:`~repro.parallel.pool.WorkerPool` ``bind`` message:

* the shard's working copy as a **plain-dict graph document**
  (:meth:`repro.parallel.partition.Shard.extract`, in
  :func:`repro.graph.io.graph_to_dict` form) rather than a live
  :class:`~repro.graph.PropertyGraph` — no listeners, no shared indexes,
  nothing process-specific, safe for the ``spawn`` start method on every
  platform;
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
from repro.graph.io import graph_from_dict
from repro.matching.vf2 import MatchingStats
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
    repairs_applied: int = 0
    #: the shard matcher's counters grown during this repair pass
    #: (:meth:`MatchingStats.since`; the planner dicts stay empty)
    stats: MatchingStats = field(default_factory=MatchingStats)
    elapsed_seconds: float = 0.0
    #: worker-side :class:`~repro.telemetry.RegistrySnapshot` (None when
    #: telemetry was not collecting) — the coordinator absorbs it, so shard
    #: metrics merge deterministically into the dispatching registry
    telemetry: object = None
    #: worker-side finished span trees (plain dicts) — the coordinator
    #: re-parents them under its open fan-out span
    spans: list = field(default_factory=list)


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
        self.graph = graph_from_dict(payload, id_namespace=namespace)
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
        """One propose-then-revert repair pass over the standing replica.

        The counters are deltas of the core's live report and stats; the
        replica never settles a report (no fixpoint check), since the
        coordinator's settle drain decides what remains."""
        started = time.perf_counter()
        core = self.core_state
        applied_before = core.report.repairs_applied
        stats_before = core.stats  # a fresh record: a snapshot, not a view
        collected: list[AppliedRepair] = []
        with recording(self.graph) as recorder:
            core.drain(accept=make_ownership_filter(self.graph, self.owned),
                       collector=collected)
        mutations = recorder.drain()
        if mutations:
            # revert *everything* the drain changed — applied repairs and
            # partial mutations of failed ones alike — and tell the matcher,
            # requeuing the violations whose repairs were just undone
            inverse = apply_inverse(self.graph, mutations)
            core.maintain(inverse, source="commit")
        return ShardResult(
            shard_index=-1, repairs=collected,
            repairs_applied=core.report.repairs_applied - applied_before,
            stats=core.stats.since(stats_before),
            elapsed_seconds=time.perf_counter() - started)

    def close(self) -> None:
        self.core_state.close()
