"""Sharded multi-process repair: a worker-count sweep on the knowledge graph.

Run with::

    python examples/parallel_repair.py [scale] [workers ...]

e.g. ``python examples/parallel_repair.py 800 1 2 4 8``.

Steps:

1. build a corrupted knowledge-graph workload;
2. repair it sequentially with the fast backend (the reference);
3. repair fresh copies with ``RepairConfig.sharded(workers=N)`` for each
   requested worker count, through each session's worker pool of spawned
   processes (closed with the session);
4. verify every sharded result is element-for-element identical to the
   sequential one, and print the sweep: wall-clock, shard/fan-out shape,
   how many repairs the workers contributed vs the coordinator.

Reading the numbers: sharding pays for partitioning, per-shard detection
over core+halo subgraphs, process startup, and delta merging.  It wins when
the graph is large enough that per-shard work dominates that overhead and
the machine has idle cores; on a small graph (or a single-core box) the
sequential fast backend stays ahead — see docs/PARALLEL.md for the model.
"""

from __future__ import annotations

import sys
import time

from repro import build_workload
from repro.api import RepairConfig, RepairSession
from repro.metrics import format_table


def main(scale: int = 400, worker_counts: list[int] | None = None) -> None:
    worker_counts = worker_counts or [1, 2, 4]
    print(f"Building 'kg' workload (scale={scale}) ...")
    workload = build_workload("kg", scale=scale, error_rate=0.05, seed=0)
    print(f"  dirty graph: {workload.dirty.num_nodes} nodes, "
          f"{workload.dirty.num_edges} edges")

    print("\n== sequential reference (fast backend) ==")
    reference = workload.dirty.copy(name="kg-sequential")
    started = time.perf_counter()
    with RepairSession(reference, workload.rules,
                       config=RepairConfig.fast()) as session:
        ref_report = session.repair()
    ref_seconds = time.perf_counter() - started
    print(f"  {ref_report.repairs_applied} repairs in {ref_seconds:.3f}s, "
          f"fixpoint={ref_report.reached_fixpoint}")

    rows = [{"workers": "sequential", "seconds": ref_seconds,
             "repairs": ref_report.repairs_applied, "shards": "-",
             "merged": "-", "deferred": "-", "identical": "-"}]

    print("\n== sharded sweep ==")
    for workers in worker_counts:
        repaired = workload.dirty.copy(name=f"kg-sharded-{workers}")
        config = RepairConfig.sharded(workers=workers)
        started = time.perf_counter()
        with RepairSession(repaired, workload.rules, config=config) as session:
            report = session.repair()
            fanout = session.backend.last_fanout
        seconds = time.perf_counter() - started
        identical = repaired.structurally_equal(reference)
        shape = (f"{fanout.shards} shards, halo x{fanout.halo_fraction:.2f}"
                 if fanout.ran else "fan-out skipped (degraded to fast drain)")
        print(f"  workers={workers}: {seconds:.3f}s, "
              f"{report.repairs_applied} repairs, {shape}, "
              f"identical-to-sequential={identical}")
        if fanout.conflicts:
            for conflict in fanout.conflicts:
                print(f"    conflict: {conflict}")
        rows.append({"workers": workers, "seconds": seconds,
                     "repairs": report.repairs_applied,
                     "shards": fanout.shards if fanout.ran else 0,
                     "merged": fanout.accepted if fanout.ran else 0,
                     "deferred": fanout.rejected if fanout.ran else 0,
                     "identical": identical})
        assert identical, "sharded repair diverged from the sequential result"

    print("\n== summary ==")
    print(format_table(rows, title="Sharded repair worker sweep (kg)"))


if __name__ == "__main__":
    scale_arg = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    workers_arg = [int(arg) for arg in sys.argv[2:]] or None
    main(scale_arg, workers_arg)
