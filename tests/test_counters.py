"""One declared counter set, many views.

:class:`~repro.utils.counters.Counters` derives ``merge``, ``since`` and
``as_dict`` from a record's field list; ``MatchingStats`` and ``PoolStats``
use it, and the report, the service, and the sharded backend's
``FanoutReport`` build on those records instead of copying their fields.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro import telemetry
from repro.api import RepairConfig, RepairSession
from repro.matching.vf2 import MatchingStats
from repro.parallel.pool import PoolStats, WorkerPool
from repro.repair.report import RepairReport
from repro.service import GraphRepairService

#: ``RepairReport.as_dict()`` keys, in order, as the harness tables read them
REPORT_KEYS = [
    "method", "graph", "rules", "rounds", "violations_detected",
    "repairs_applied", "repairs_failed", "repairs_obsolete",
    "remaining_violations", "reached_fixpoint", "matches_enumerated",
    "seeded_searches", "nodes_tried", "backtracks", "closed_probes",
    "maintenance_passes",
    "label_bucket_candidates", "value_bucket_candidates",
    "range_bucket_candidates", "predicate_survivors", "planner_plans",
    "planner_replans", "planner_orders", "planner_estimated",
    "planner_actual", "elapsed_seconds", "total_changes", "initial_nodes",
    "initial_edges", "final_nodes", "final_edges", "timings",
    "repairs_per_semantics",
]

POOL_STATS = {"spawns": 0, "binds": 0, "deltas_shipped": 0,
              "shard_repairs": 0, "repair_calls": 0, "leases": 0,
              "lease_wait_seconds": 0.0, "worker_deaths": 0, "respawns": 0,
              "command_timeouts": 0, "retries": 0, "fallback_repairs": 0}


@dataclass
class _ExtendedStats(MatchingStats):
    """A record that gains one counter and nothing else."""

    probes_skipped: int = 0


class TestCounters:
    def test_a_new_field_reaches_every_view(self):
        first = _ExtendedStats(nodes_tried=2, probes_skipped=3)
        second = _ExtendedStats(nodes_tried=5, probes_skipped=4)
        first.merge(second)
        assert (first.nodes_tried, first.probes_skipped) == (7, 7)
        delta = first.since(second)
        assert isinstance(delta, _ExtendedStats)
        assert (delta.nodes_tried, delta.probes_skipped) == (2, 3)
        flat = first.as_dict()
        assert flat["probes_skipped"] == 7
        assert list(flat)[-1] == "probes_skipped"

    def test_since_leaves_the_planner_dicts_empty(self):
        stats = MatchingStats(nodes_tried=4, elapsed_seconds=0.5)
        stats.planner_orders["p"] = ["x", "y"]
        stats.planner_actual["p"] = {"x": 3}
        delta = stats.since(MatchingStats(nodes_tried=1))
        assert delta.nodes_tried == 3 and delta.elapsed_seconds == 0.5
        assert delta.planner_orders == {} and delta.planner_actual == {}

    def test_merge_adds_planner_actual_per_variable(self):
        mine, other = MatchingStats(), MatchingStats()
        mine.planner_actual["p"] = {"x": 1}
        other.planner_actual["p"] = {"x": 2, "y": 5}
        other.planner_orders["p"] = ("y", "x")
        mine.merge(other)
        assert mine.planner_actual == {"p": {"x": 3, "y": 5}}
        # as_dict detaches: sequences become fresh lists, dicts fresh dicts
        flat = mine.as_dict()
        assert flat["planner_orders"] == {"p": ["y", "x"]}
        flat["planner_actual"]["p"]["x"] = 0
        assert mine.planner_actual["p"]["x"] == 3

    def test_pool_stats_shape_and_rounding(self):
        assert PoolStats().as_dict() == POOL_STATS
        assert list(PoolStats().as_dict()) == list(POOL_STATS)
        stats = PoolStats(lease_wait_seconds=0.123456789)
        assert stats.as_dict()["lease_wait_seconds"] == 0.123457

    def test_bump_advances_the_mirror_only_when_enabled(self):
        stats = PoolStats()
        stats.bump("binds", shard="k")
        assert stats.binds == 1
        with telemetry.collecting() as (registry, _tracer):
            stats.bump("binds", shard="k")
            stats.bump("worker_deaths", 2, reason="crash")
            stats.bump("command_timeouts")  # no mirror: the field alone
        snapshot = registry.snapshot()
        assert snapshot.get("repro_pool_binds_total").value(shard="k") == 1
        assert snapshot.get("repro_pool_worker_deaths_total").value(
            reason="crash") == 2
        assert (stats.binds, stats.worker_deaths, stats.command_timeouts) \
            == (2, 2, 1)


class TestViews:
    def test_report_as_dict_keys_and_order(self, small_kg_workload):
        report = RepairReport("m", "g", "r")
        assert list(report.as_dict()) == REPORT_KEYS
        with RepairSession(small_kg_workload.dirty.copy(name="kg"),
                           small_kg_workload.rules,
                           config=RepairConfig.fast()) as session:
            report = session.repair()
        flat = report.as_dict()
        assert list(flat) == REPORT_KEYS
        stats = report.matching_stats
        assert flat["nodes_tried"] == stats.nodes_tried > 0
        assert flat["maintenance_passes"] == stats.maintenance_passes
        # the report's own elapsed time, not the matcher's
        assert flat["elapsed_seconds"] == report.elapsed_seconds

    def test_service_pool_stats_before_the_pool_exists(self):
        with GraphRepairService() as service:
            assert service.pool is None
            assert service.pool_stats == PoolStats().as_dict()

    def test_fanout_views_sum_the_shipped_records(self, small_kg_workload):
        config = RepairConfig.sharded(workers=2, parallel_inline=True,
                                      min_partition_nodes=1)
        shipped = []
        with WorkerPool(workers=2, inline=True) as pool:
            repair = pool.repair

            def recording_repair(*args, **kwargs):
                results = repair(*args, **kwargs)
                shipped.extend(results)
                return results

            pool.repair = recording_repair
            graph = small_kg_workload.dirty.copy(name="kg-views")
            with RepairSession(graph, small_kg_workload.rules,
                               config=config, pool=pool) as session:
                before = copy.copy(pool.stats)
                session.repair()
                fanout = session.backend.last_fanout
                assert fanout.ran and fanout.shards == len(shipped) == 2
                summed = MatchingStats()
                for result in shipped:
                    summed.merge(result.stats)
                assert fanout.shard_stats == summed
                assert summed.nodes_tried > 0
                assert fanout.pool == pool.stats.since(before)
                assert fanout.pool.binds == 2
                assert fanout.pool.shard_repairs == 2
                assert fanout.shard_repairs == sum(result.repairs_applied
                                                   for result in shipped)
