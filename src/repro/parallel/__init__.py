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

from repro._lazy import lazy_exports

#: public name -> the submodule defining it.  Resolved on first access
#: (PEP 562), so a spawned pool worker — which unpickles
#: ``repro.parallel.pool._pool_worker_main`` and so runs this file — loads
#: only the modules it runs, not the coordinator side.
_EXPORTS = {
    "ShardedRepairer": "repro.parallel.backend",
    "FanoutReport": "repro.parallel.backend",
    "WorkerPool": "repro.parallel.pool",
    "PoolStats": "repro.parallel.pool",
    "DeltaProjection": "repro.parallel.replica",
    "project_delta": "repro.parallel.replica",
    "ShardWorkerState": "repro.parallel.worker",
    "DeltaMerger": "repro.parallel.merge",
    "MergeOutcome": "repro.parallel.merge",
    "AcceptedRepair": "repro.parallel.merge",
    "Shard": "repro.parallel.partition",
    "ShardPlan": "repro.parallel.partition",
    "partition_graph": "repro.parallel.partition",
    "rule_radius": "repro.parallel.partition",
    "ShardResult": "repro.parallel.worker",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
