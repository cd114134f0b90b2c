"""Tests for the naive and fast repair algorithms and the one-shot entry points.

The central property: **both algorithms reach a violation-free fixpoint and
produce equivalent repairs** (same fact-level outcome) on every workload.
"""

from __future__ import annotations

import pytest

from repro.api import RepairConfig, RepairSession, repair_copy
from repro.datasets import build_workload
from repro.exceptions import InconsistentRuleSetError
from repro.graph import PropertyGraph
from repro.metrics import graph_facts, repair_quality
from repro.repair import FastRepairer, NaiveRepairer, detect_violations
from repro.rules import RuleSet, conflict_rule, incompleteness_rule


class TestNaiveRepairer:
    def test_reaches_fixpoint_on_tiny_kg(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        report = NaiveRepairer().repair(graph, kg_rules)
        assert report.reached_fixpoint
        assert report.remaining_violations == 0
        assert report.repairs_applied > 0
        assert len(detect_violations(graph, kg_rules)) == 0
        assert report.final_nodes == graph.num_nodes
        assert report.method == "naive"

    def test_max_repairs_budget_is_respected(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        report = NaiveRepairer(RepairConfig.naive(max_repairs=2)).repair(graph, kg_rules)
        assert report.repairs_applied <= 2
        assert not report.reached_fixpoint

    def test_report_describes_itself(self, tiny_kg, kg_rules):
        report = NaiveRepairer().repair(tiny_kg.copy(), kg_rules)
        text = report.describe()
        assert "naive" in text and "fixpoint" in text
        as_dict = report.as_dict()
        assert as_dict["repairs_applied"] == report.repairs_applied
        assert "timings" in as_dict


class TestFastRepairer:
    def test_reaches_fixpoint_on_tiny_kg(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        report = FastRepairer().repair(graph, kg_rules)
        assert report.reached_fixpoint
        assert report.remaining_violations == 0
        assert len(detect_violations(graph, kg_rules)) == 0
        assert report.seeded_searches > 0
        assert report.timings.get("incremental-maintenance") >= 0.0

    def test_optimisations_can_be_disabled(self, tiny_kg, kg_rules):
        for config in (RepairConfig(use_candidate_index=False),
                       RepairConfig(use_decomposition=False)):
            graph = tiny_kg.copy()
            report = FastRepairer(config).repair(graph, kg_rules)
            assert report.reached_fixpoint
            assert len(detect_violations(graph, kg_rules)) == 0

    def test_max_repairs_budget(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        report = FastRepairer(RepairConfig(max_repairs=1)).repair(graph, kg_rules)
        assert report.repairs_applied == 1
        assert not report.reached_fixpoint


class TestEquivalenceOfAlgorithms:
    def test_failed_repairs_settle_alike(self):
        """A rule whose repair always fails leaves its violation behind: both
        algorithms must count it as remaining and report no fixpoint."""
        good = (incompleteness_rule("good")
                .node("p", "Person")
                .missing_property("p", "checked")
                .update_node("p", set_properties={"checked": True})
                .build())
        # the repair adds an edge *from an edge variable*, which cannot be
        # executed, so every attempt fails
        bad = (incompleteness_rule("bad-endpoint")
               .node("p", "Person").node("q", "Person")
               .edge("p", "q", "knows", variable="e")
               .missing_edge("q", "p", "likes")
               .add_edge("e", "p", "likes")
               .build())
        rules = RuleSet([good, bad], name="one-failing")
        graph = PropertyGraph(name="two-people")
        ann = graph.add_node("Person", {"name": "Ann"})
        bob = graph.add_node("Person", {"name": "Bob"})
        graph.add_edge(ann.id, bob.id, "knows")

        outcomes = {}
        for config in (RepairConfig.fast(), RepairConfig.naive()):
            _, report = repair_copy(graph, rules, config)
            outcomes[config.backend] = (report.repairs_failed,
                                        report.remaining_violations,
                                        report.reached_fixpoint)
        assert outcomes["fast"] == (1, 1, False)
        assert outcomes["naive"] == outcomes["fast"]

    @pytest.mark.parametrize("domain", ["kg", "movies", "social"])
    def test_fast_and_naive_reach_equivalent_fixpoints(self, domain):
        workload = build_workload(domain, scale=40, error_rate=0.08, seed=11)
        fast_graph, fast_report = repair_copy(workload.dirty, workload.rules,
                                              RepairConfig.fast())
        naive_graph, naive_report = repair_copy(workload.dirty, workload.rules,
                                                RepairConfig.naive())

        assert fast_report.reached_fixpoint and naive_report.reached_fixpoint
        assert len(detect_violations(fast_graph, workload.rules)) == 0
        assert len(detect_violations(naive_graph, workload.rules)) == 0
        # identical fact-level outcome
        assert graph_facts(fast_graph) == graph_facts(naive_graph)
        # and identical quality against ground truth
        fast_quality = repair_quality(workload.clean, workload.dirty, fast_graph,
                                      workload.ground_truth)
        naive_quality = repair_quality(workload.clean, workload.dirty, naive_graph,
                                       workload.ground_truth)
        assert fast_quality.f1 == pytest.approx(naive_quality.f1)

    def test_repairing_a_clean_graph_changes_nothing(self, small_kg_dataset):
        clean = small_kg_dataset.clean
        repaired, report = repair_copy(clean, small_kg_dataset.rules)
        assert report.repairs_applied == 0
        assert graph_facts(repaired) == graph_facts(clean)

    def test_repair_is_idempotent(self, small_kg_workload):
        rules = small_kg_workload.rules
        once, first_report = repair_copy(small_kg_workload.dirty, rules)
        twice, second_report = repair_copy(once, rules)
        assert first_report.repairs_applied > 0
        assert second_report.repairs_applied == 0
        assert graph_facts(once) == graph_facts(twice)


class TestEntryPoints:
    def test_repair_copy_leaves_input_untouched(self, tiny_kg, kg_rules):
        before = graph_facts(tiny_kg)
        repaired, report = repair_copy(tiny_kg, kg_rules, RepairConfig.fast())
        assert graph_facts(tiny_kg) == before
        assert report.repairs_applied > 0
        assert repaired.name.endswith("-repaired")

    def test_in_place_repair_mutates_input(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules, config=RepairConfig.fast()) as session:
            report = session.repair()
        assert report.repairs_applied > 0
        assert len(detect_violations(graph, kg_rules)) == 0

    def test_unknown_method_rejected(self, tiny_kg, kg_rules):
        with pytest.raises(ValueError):
            repair_copy(tiny_kg, kg_rules, RepairConfig(backend="quantum"))

    def test_consistency_gate_warns_or_raises(self, tiny_kg):
        adder = (incompleteness_rule("always-add")
                 .node("a", "Person").node("b", "City")
                 .edge("a", "b", "bornIn")
                 .missing_edge("a", "b", "derived")
                 .add_edge("a", "b", "derived")
                 .build())
        deleter = (conflict_rule("always-delete")
                   .node("a", "Person").node("b", "City")
                   .edge("a", "b", "derived", variable="e")
                   .delete_edge(edge_variable="e")
                   .build())
        inconsistent = RuleSet([adder, deleter], name="oscillating")

        with pytest.warns(UserWarning):
            repair_copy(tiny_kg, inconsistent,
                        RepairConfig.fast(check_consistency=True, max_repairs=30))

        with pytest.raises(InconsistentRuleSetError):
            repair_copy(tiny_kg, inconsistent,
                        RepairConfig.fast(require_consistency=True))

    def test_oscillating_rules_terminate_without_fixpoint(self, tiny_kg):
        """An inconsistent (oscillating) pair must not loop forever: the fast
        repairer handles each violation instance at most once, so the run ends
        and honestly reports that no fixpoint was reached."""
        adder = (incompleteness_rule("always-add")
                 .node("a", "Person").node("b", "City")
                 .edge("a", "b", "bornIn")
                 .missing_edge("a", "b", "derived")
                 .add_edge("a", "b", "derived")
                 .build())
        deleter = (conflict_rule("always-delete")
                   .node("a", "Person").node("b", "City")
                   .edge("a", "b", "derived", variable="e")
                   .delete_edge(edge_variable="e")
                   .build())
        rules = RuleSet([adder, deleter], name="oscillating")
        graph = tiny_kg.copy()
        report = FastRepairer(RepairConfig(max_repairs=200)).repair(graph, rules)
        assert report.repairs_applied < 200
        assert not report.reached_fixpoint
        assert report.remaining_violations > 0
