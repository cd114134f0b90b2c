"""Every metric the benchmark reports: unit, direction, bound, workloads.

``BENCHMARK.json`` declares the metrics each run prints on every workload
(``end_to_end`` untraced, ``per_layer`` traced); this module adds the ones
that exist on some workloads only, the raw timings (reported beside the
bounded metrics, not judged: they follow the host's speed, README.md),
and the deterministic counts ``compare.py`` requires to match exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ALL = tuple(workload["name"] for workload in CONTRACT["workloads"])
REPAIR = ("repair-kg", "repair-kg-sharded", "repair-social")
INGEST = ("ingest-kg",)
SHARDED = ("repair-kg-sharded",)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: "lower", "higher", or "equal" (a count any change of which is wrong)
    better: str = "lower"
    #: worst tolerated change as a share of the parent's median
    bound: float | None = None
    workloads: tuple[str, ...] = ALL
    #: "end_to_end", "raw" (a timing reported, not judged), "per_layer",
    #: or "count" (deterministic, compared exactly, seed by seed)
    tier: str = "end_to_end"


def _contract(tier: str) -> list[Metric]:
    return [Metric(entry["name"], entry["unit"], entry["better"],
                   entry.get("bound"), tier=tier)
            for entry in CONTRACT[tier]]


def _counts(workloads, better, *names, unit="count") -> list[Metric]:
    return [Metric(name, unit, better, workloads=workloads, tier="count")
            for name in names]


def _layers(workloads, unit, *names, better="lower") -> list[Metric]:
    return [Metric(name, unit, better, workloads=workloads, tier="per_layer")
            for name in names]


METRICS: list[Metric] = [
    *_contract("end_to_end"),
    Metric("repair_ms", "ms", workloads=REPAIR, tier="raw"),
    *[Metric(name, unit, workloads=INGEST, tier="raw")
      for name, unit in (("repaired_p50_ms", "ms"), ("repaired_p99_ms", "ms"),
                         ("ack_p50_ms", "ms"), ("ack_p99_ms", "ms"),
                         ("restore_s", "s"))],
    *_counts(ALL, "lower", "failed_frac", unit="ratio"),
    *_counts(REPAIR, "equal", "repairs_applied", "violations_detected"),
    *_counts(REPAIR, "lower", "nodes_tried", "seeded_searches",
             "maintenance_passes"),
    *_counts(INGEST, "equal", "history_edits", "history_records",
             "history_snapshots", "records_replayed"),
    *_contract("per_layer"),
    *_layers(REPAIR, "s", "repair.phase.index-build_s",
             "repair.phase.initial-detection_s"),
    *_layers(SHARDED, "s", "parallel.partition_s", "parallel.extract_s",
             "parallel.fanout_s", "parallel.merge_s", "parallel.settle_s"),
    *_layers(SHARDED, "ratio", "parallel.accepted_ratio", better="higher"),
    *_layers(SHARDED, "ratio", "parallel.halo_fraction"),
    *_layers(INGEST, "ms", "ingest.queue_wait_ms_p50", "ingest.queue_wait_ms_p99",
             "ingest.commit_ms_p50", "ingest.repair_ms_p50",
             "ingest.repair_ms_p90", "durability.wal_append_ms_p50",
             "durability.wal_append_ms_p90", "bench.generator_late_ms"),
    *_layers(INGEST, "ratio", "ingest.tick_busy_frac"),
    *_layers(INGEST, "count", "ingest.edits_per_commit", better="higher"),
    *_layers(INGEST, "count", "ingest.backlog_max", "durability.snapshots",
             "durability.records_replayed"),
    *_layers(INGEST, "s", "durability.snapshot_write_s", "durability.recover_s"),
    *_layers(INGEST, "B", "durability.bytes_per_change"),
]
BY_NAME = {metric.name: metric for metric in METRICS}


def for_workload(workload: str, tier: str) -> list[Metric]:
    return [metric for metric in METRICS
            if metric.tier == tier and workload in metric.workloads]
