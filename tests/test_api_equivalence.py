"""Session-vs-one-shot equivalence across backends and dataset generators.

The session API must not change *what* gets repaired, only *how* the repair
state is managed: for every backend (fast / naive / greedy) and every dataset
generator (kg / movies / social), opening a session over a workload and
repairing must produce exactly the graph and the headline counters of the
corresponding one-shot entry point.
"""

from __future__ import annotations

import pytest

from repro.api import RepairConfig, RepairSession, SessionEvents
from repro.baselines import GreedyDeleteBaseline
from repro.repair import FastRepairer, NaiveRepairer

WORKLOAD_FIXTURES = ("small_kg_workload", "small_movie_workload",
                     "small_social_workload")


def _session_repair(graph, rules, config):
    repaired = graph.copy(name=f"{graph.name}-session")
    with RepairSession(repaired, rules, config=config) as session:
        report = session.repair()
    return repaired, report


@pytest.fixture(params=WORKLOAD_FIXTURES)
def workload(request):
    return request.getfixturevalue(request.param)


class TestSessionMatchesOneShot:
    def test_fast_backend(self, workload):
        reference = workload.dirty.copy()
        ref_report = FastRepairer().repair(reference, workload.rules)

        repaired, report = _session_repair(workload.dirty, workload.rules,
                                           RepairConfig.fast())
        assert repaired.structurally_equal(reference)
        assert report.repairs_applied == ref_report.repairs_applied
        assert report.violations_detected == ref_report.violations_detected
        assert report.remaining_violations == ref_report.remaining_violations
        assert report.reached_fixpoint == ref_report.reached_fixpoint

    def test_naive_backend(self, workload):
        reference = workload.dirty.copy()
        ref_report = NaiveRepairer().repair(reference, workload.rules)

        repaired, report = _session_repair(workload.dirty, workload.rules,
                                           RepairConfig.naive())
        assert repaired.structurally_equal(reference)
        assert report.repairs_applied == ref_report.repairs_applied
        assert report.violations_detected == ref_report.violations_detected
        assert report.remaining_violations == ref_report.remaining_violations
        assert report.reached_fixpoint == ref_report.reached_fixpoint

    def test_greedy_backend(self, workload):
        reference, ref_report = GreedyDeleteBaseline().repair(workload.dirty,
                                                              workload.rules)

        repaired, report = _session_repair(workload.dirty, workload.rules,
                                           RepairConfig.baseline())
        assert repaired.structurally_equal(reference)
        assert report.repairs_applied == ref_report.changes_applied
        assert report.violations_detected == ref_report.violations_detected

    def test_cumulative_report_accumulates_timings(self, workload):
        """Non-cumulative backends absorb per-run reports; the timing
        breakdown must accumulate, not keep only the first run's timers."""
        repaired = workload.dirty.copy()
        with RepairSession(repaired, workload.rules,
                           config=RepairConfig.naive()) as session:
            first = session.repair()
            detection_after_first = first.timings.get("detection")
            second = session.repair()
        assert second.timings.get("detection") > detection_after_first

    def test_fast_and_naive_reach_the_same_fixpoint(self, workload):
        """Cross-backend sanity: both GRR algorithms agree on the outcome."""
        fast_graph, _ = _session_repair(workload.dirty, workload.rules,
                                        RepairConfig.fast())
        naive_graph, _ = _session_repair(workload.dirty, workload.rules,
                                         RepairConfig.naive())
        assert fast_graph.structurally_equal(naive_graph)


class TestSequentialDrain:
    def test_one_maintenance_pass_per_repair(self, workload):
        """The drain maintains every applied repair on its own, before the
        next violation is popped, and a second call finds nothing to do."""
        sources = []
        repaired = workload.dirty.copy()
        with RepairSession(repaired, workload.rules,
                           events=SessionEvents(
                               on_maintenance=lambda e: sources.append(e.source))
                           ) as session:
            report = session.repair()
            assert report.reached_fixpoint
            assert report.matching_stats.maintenance_passes == \
                report.repairs_applied
            assert sources == ["repair"] * report.repairs_applied
            again = session.repair()
        assert again.reached_fixpoint
        assert again.repairs_applied == report.repairs_applied
        assert sources == ["repair"] * report.repairs_applied
