"""The cost-based match planner: equivalence, ablation, and observability.

The planner replaces the static ``base_order`` with a per-graph variable
order chosen greedily from live candidate-index cardinalities.  Its contract
is strictly *perf-only*: for any graph, rule set, and backend, turning it
off (``ablation("planner")`` / ``use_cost_planner=False``) must produce the
same matches and the same repaired graph, element for element.  These tests
pin that contract across all three dataset generators and both the
sequential and sharded backends (across calls too, with standing shard
replicas), and check the new ``planner_*`` counters surface end to end.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.api import RepairConfig, RepairSession
from repro.datasets import build_workload
from repro.matching import CandidateIndex, Matcher, MatcherConfig, VF2Matcher

DOMAINS = ("kg", "movies", "social")


def _workload(domain):
    return build_workload(domain, scale=60, error_rate=0.08, seed=3)


def _repair(graph, rules, config):
    repaired = graph.copy(name=f"{graph.name}-{config.backend}")
    with RepairSession(repaired, rules, config=config) as session:
        report = session.repair()
        fanout = getattr(session.backend, "last_fanout", None)
    return repaired, report, fanout


def _corrupt(graph, seed: int = 11) -> None:
    """Deterministic violation-producing edits (deletions + duplicates)."""
    rng = random.Random(seed)
    for edge_id in rng.sample(graph.edge_ids(), 6):
        graph.remove_edge(edge_id)
    for edge_id in rng.sample(graph.edge_ids(), 4):
        edge = graph.edge(edge_id)
        graph.add_edge(edge.source, edge.target, edge.label,
                       dict(edge.properties))


class TestPlannerMatchEquivalence:
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_planned_order_finds_identical_matches(self, domain):
        workload = _workload(domain)
        graph = workload.dirty
        for rule in workload.rules:
            planned = VF2Matcher(graph=graph,
                                 candidate_index=CandidateIndex(graph),
                                 use_cost_planner=True)
            static = VF2Matcher(graph=graph,
                                candidate_index=CandidateIndex(graph),
                                use_cost_planner=False)
            planned_keys = {m.key() for m in planned.find_matches(rule.pattern)}
            static_keys = {m.key() for m in static.find_matches(rule.pattern)}
            assert planned_keys == static_keys, rule.name

    def test_matcher_config_threads_the_flag(self):
        assert MatcherConfig.optimized().use_cost_planner is True
        assert MatcherConfig.naive().use_cost_planner is False
        workload = _workload("kg")
        planned = Matcher(workload.dirty, MatcherConfig.optimized())
        static = Matcher(workload.dirty,
                         replace(MatcherConfig.optimized(),
                                 use_cost_planner=False))
        for rule in workload.rules:
            assert {m.key() for m in planned.find_matches(rule.pattern)} == \
                {m.key() for m in static.find_matches(rule.pattern)}


class TestPlannerRepairEquivalence:
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_fast_equals_planner_ablation(self, domain):
        workload = _workload(domain)
        on_graph, on_report, _ = _repair(workload.dirty, workload.rules,
                                         RepairConfig.fast())
        off_graph, off_report, _ = _repair(workload.dirty, workload.rules,
                                           RepairConfig.ablation("planner"))
        assert on_graph.structurally_equal(off_graph)
        assert on_report.repairs_applied == off_report.repairs_applied
        assert on_report.violations_detected == off_report.violations_detected
        assert on_report.reached_fixpoint == off_report.reached_fixpoint
        # the ablation really did disable the planner
        assert on_report.matching_stats.planner_plans > 0
        assert off_report.matching_stats.planner_plans == 0

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_sharded_backend_planner_on_off_agree(self, domain):
        workload = _workload(domain)
        on_graph, _, on_fanout = _repair(
            workload.dirty, workload.rules,
            RepairConfig.sharded(workers=2, parallel_inline=True,
                                 min_partition_nodes=1))
        off_graph, _, _ = _repair(
            workload.dirty, workload.rules,
            RepairConfig.sharded(workers=2, parallel_inline=True,
                                 min_partition_nodes=1,
                                 use_cost_planner=False))
        assert on_fanout.ran
        assert on_graph.structurally_equal(off_graph)
        assert on_fanout.shard_planner_plans > 0

    def test_standing_replicas_planner_on_off_agree(self):
        """Across calls too: shipped deltas keep the standing replicas'
        planned detection in step with the static order."""
        workload = _workload("kg")

        def drive(config):
            graph = workload.dirty.copy(name="kg-replicas")
            with RepairSession(graph, workload.rules, config=config) as session:
                session.repair()
                session.apply(_corrupt)
                session.repair()
                assert session.backend.last_fanout.pool_ships > 0
            return graph

        config = RepairConfig.sharded(workers=2, parallel_inline=True,
                                      min_partition_nodes=1)
        on_graph = drive(config)
        off_graph = drive(config.with_options(use_cost_planner=False))
        assert on_graph.structurally_equal(off_graph)


class TestPlannerObservability:
    def test_report_surfaces_planner_counters(self):
        workload = _workload("kg")
        _, report, _ = _repair(workload.dirty, workload.rules,
                               RepairConfig.fast())
        stats = report.matching_stats
        assert stats.planner_plans > 0
        assert stats.planner_orders  # at least one pattern got a plan
        for name, order in stats.planner_orders.items():
            assert order, name
            assert set(stats.planner_estimated.get(name, {})) <= set(order)
        as_dict = report.as_dict()
        for key in ("planner_plans", "planner_replans", "planner_orders",
                    "planner_estimated", "planner_actual",
                    "range_bucket_candidates"):
            assert key in as_dict
        assert "planner:" in report.describe()

    def test_ablation_knob_reaches_repair_config(self):
        config = RepairConfig.ablation("planner")
        assert config.use_cost_planner is False
        assert config.use_candidate_index is True

    def test_planner_replans_after_heavy_mutation(self):
        """A graph whose bucket cardinalities shift hard between searches
        must trigger at most re-plans, never a wrong result."""
        workload = _workload("kg")
        graph = workload.dirty.copy(name="replan")
        matcher = VF2Matcher(graph=graph,
                             candidate_index=CandidateIndex(graph),
                             use_cost_planner=True)
        matcher.candidate_index.attach()
        rule = next(iter(workload.rules))
        before = {m.key() for m in matcher.find_matches(rule.pattern)}
        assert matcher.stats.planner_plans >= 1
        # skew the graph: a pile of fresh nodes under one label
        for i in range(200):
            graph.add_node("Person", {"name": f"skew-{i}"})
        after = {m.key() for m in matcher.find_matches(rule.pattern)}
        fresh = VF2Matcher(graph=graph, candidate_index=CandidateIndex(graph),
                           use_cost_planner=False)
        assert after == {m.key() for m in fresh.find_matches(rule.pattern)}
        assert before  # the rule does fire on this workload
        matcher.candidate_index.detach()
