"""Sharded-vs-sequential equivalence across all three dataset generators.

The sharded backend's contract: for a fixed workload it is deterministic,
and its repaired graph is element-for-element identical to the sequential
fast backend's — shards, halos, worker pools, and delta merging must change
*how* the repair runs, never *what* it produces.  (The guarantee is stated
for conflict-free partitions; these workloads also exercise runs where the
merger detects and defers cross-shard conflicts, and equivalence still holds
because deferred repairs replay through the coordinator in the same
structural priority order.)

Most cases run the worker path inline (identical code and serialization
round-trip, no process startup) so the suite stays fast; one smoke case goes
through the real ``multiprocessing`` spawn pool end to end.
"""

from __future__ import annotations

import pytest

from repro.api import RepairConfig, RepairSession

WORKLOAD_FIXTURES = ("small_kg_workload", "small_movie_workload",
                     "small_social_workload")


@pytest.fixture(params=WORKLOAD_FIXTURES)
def workload(request):
    return request.getfixturevalue(request.param)


def _repair(graph, rules, config):
    repaired = graph.copy(name=f"{graph.name}-{config.backend}")
    with RepairSession(repaired, rules, config=config) as session:
        report = session.repair()
        fanout = getattr(session.backend, "last_fanout", None)
    return repaired, report, fanout


def _sharded(workers: int, **overrides) -> RepairConfig:
    # min_partition_nodes=1 so the small test workloads actually fan out
    return RepairConfig.sharded(workers=workers, parallel_inline=True,
                                min_partition_nodes=1, **overrides)


class TestShardedMatchesSequential:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_same_graph_and_fixpoint(self, workload, workers):
        reference, ref_report, _ = _repair(workload.dirty, workload.rules,
                                           RepairConfig.fast())
        repaired, report, fanout = _repair(workload.dirty, workload.rules,
                                           _sharded(workers))
        assert fanout.ran, "the test workload must actually fan out"
        assert repaired.structurally_equal(reference)
        assert report.reached_fixpoint == ref_report.reached_fixpoint
        assert report.remaining_violations == ref_report.remaining_violations
        assert report.repairs_applied == ref_report.repairs_applied

    def test_sharded_is_deterministic(self, workload):
        first, first_report, _ = _repair(workload.dirty, workload.rules,
                                         _sharded(3))
        second, second_report, _ = _repair(workload.dirty, workload.rules,
                                           _sharded(3))
        assert first.structurally_equal(second)
        assert first_report.repairs_applied == second_report.repairs_applied

    def test_sharded_matches_naive(self, workload):
        """Sharding composes with the rule semantics, not only with the fast
        drain: the sharded graph is the naive algorithm's fixpoint."""
        reference, ref_report, _ = _repair(workload.dirty, workload.rules,
                                           RepairConfig.naive())
        repaired, report, _ = _repair(workload.dirty, workload.rules,
                                      _sharded(3))
        assert repaired.structurally_equal(reference)
        assert report.reached_fixpoint == ref_report.reached_fixpoint


class TestShardedProcessPool:
    def test_spawn_pool_matches_sequential(self, small_kg_workload):
        """End-to-end through the real spawn pool (one small case: process
        startup dominates, the inline cases above cover the matrix)."""
        workload = small_kg_workload
        reference, _, _ = _repair(workload.dirty, workload.rules,
                                  RepairConfig.fast())
        config = RepairConfig.sharded(workers=2, min_partition_nodes=1)
        repaired, report, fanout = _repair(workload.dirty, workload.rules,
                                           config)
        assert fanout.ran and fanout.used_processes
        assert repaired.structurally_equal(reference)
        assert report.reached_fixpoint
