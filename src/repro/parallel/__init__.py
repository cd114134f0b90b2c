"""``repro.parallel`` — sharded multi-process repair with deterministic
delta merging.

The subsystem turns one repair pass into a fan-out/fan-in pipeline behind
the ``"sharded"`` backend name (select it with
``RepairConfig.sharded(workers=N)``):

* :mod:`repro.parallel.partition` — rule-radius-aware graph partitioning
  into core/halo/frontier shards;
* :mod:`repro.parallel.worker` — the spawn-safe worker side (shard
  payloads, results, standing replicas);
* :mod:`repro.parallel.pool` — the supervised worker pool every fan-out
  runs through (spawned processes, or inline for tests);
* :mod:`repro.parallel.merge` — deterministic delta merging with id-space
  reservation and cross-shard conflict detection;
* :mod:`repro.parallel.backend` — the :class:`ShardedRepairer` that plugs
  the pipeline into the :class:`repro.api.RepairSession` seam.

See ``docs/PARALLEL.md`` for the architecture and the determinism /
equivalence guarantees.
"""

from repro.parallel.backend import FanoutReport, ShardedRepairer
from repro.parallel.merge import AcceptedRepair, DeltaMerger, MergeOutcome
from repro.parallel.pool import PoolStats, WorkerPool
from repro.parallel.replica import DeltaProjection, project_delta
from repro.parallel.partition import (
    Shard,
    ShardPlan,
    partition_graph,
    rule_radius,
)
from repro.parallel.worker import (
    ShardResult,
    ShardWorkerState,
    shard_from_payload,
    shard_payload,
)

__all__ = [
    "ShardedRepairer",
    "FanoutReport",
    "WorkerPool",
    "PoolStats",
    "DeltaProjection",
    "project_delta",
    "ShardWorkerState",
    "DeltaMerger",
    "MergeOutcome",
    "AcceptedRepair",
    "Shard",
    "ShardPlan",
    "partition_graph",
    "rule_radius",
    "ShardResult",
    "shard_payload",
    "shard_from_payload",
]
