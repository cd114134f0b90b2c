"""Unit tests for the repair building blocks: violations, detection, cost,
execution, and provenance."""

from __future__ import annotations

import pytest

from repro.matching import Matcher
from repro.repair import (
    DEFAULT_COST_MODEL,
    CostModel,
    RepairExecutor,
    Violation,
    ViolationDetector,
    ViolationStatus,
    detect_violations,
)
from repro.repair.violation import sort_key
from repro.rules import knowledge_graph_rules


class TestViolation:
    def _one_violation(self, graph, rules):
        detection = detect_violations(graph, rules)
        return detection.violations[0], detection

    def test_key_identity_and_properties(self, tiny_kg, kg_rules):
        violation, _ = self._one_violation(tiny_kg, kg_rules)
        same = Violation(rule=violation.rule, match=violation.match)
        assert violation.key() == same.key()
        assert violation.priority == violation.rule.priority
        assert violation.semantics is violation.rule.semantics
        assert violation.involved_node_ids()
        assert violation.status is ViolationStatus.PENDING
        assert violation.rule.name in repr(violation)

    def test_is_still_valid_tracks_graph_changes(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        detection = detect_violations(graph, kg_rules)
        dup = next(v for v in detection if v.rule.name == "kg-dedup-lives-in")
        matcher = Matcher(graph)
        assert dup.is_still_valid(graph, matcher)
        graph.remove_edge(dup.match.edge_id("e2"))
        assert not dup.is_still_valid(graph, matcher)
        matcher.close()

    def test_sort_key_orders_by_priority_then_cost(self, tiny_kg, kg_rules):
        detection = detect_violations(tiny_kg, kg_rules)
        ordered = sorted(detection.violations, key=lambda v: sort_key(v))
        priorities = [v.priority for v in ordered]
        assert priorities == sorted(priorities, reverse=True)


class TestDetector:
    def test_detect_counts_per_rule_and_semantics(self, tiny_kg, kg_rules):
        detector = ViolationDetector(tiny_kg, kg_rules)
        result = detector.detect()
        assert len(result) == sum(result.per_rule().values())
        assert set(result.per_semantics()) <= {"incompleteness", "conflict", "redundancy"}
        assert result.matches_enumerated >= len(result)
        assert result.timings.total > 0.0

    def test_detect_for_single_rule(self, tiny_kg, kg_rules):
        detector = ViolationDetector(tiny_kg, kg_rules)
        result = detector.detect_for_rule("kg-dedup-person")
        assert set(v.rule.name for v in result) == {"kg-dedup-person"}

    def test_detect_enumerates_every_match(self, tiny_kg, kg_rules):
        """Detection is uncapped: every match of every rule pattern is
        enumerated, and every violating one is reported."""
        result = ViolationDetector(tiny_kg, kg_rules).detect()
        with Matcher(tiny_kg) as matcher:
            matches = {rule.name: matcher.find_matches(rule.pattern)
                       for rule in kg_rules}
            violating = {rule.name: sum(rule.is_violation(matcher, match)
                                        for match in matches[rule.name])
                         for rule in kg_rules}
        assert result.matches_enumerated == sum(map(len, matches.values()))
        assert result.per_rule() == {name: count for name, count
                                     in violating.items() if count}

    def test_has_violations_short_circuits(self, tiny_kg, kg_rules, small_kg_dataset):
        assert ViolationDetector(tiny_kg, kg_rules).has_violations()
        clean_detector = ViolationDetector(small_kg_dataset.clean, small_kg_dataset.rules)
        assert not clean_detector.has_violations()


class TestCostModel:
    def test_costs_reflect_operation_mix(self, tiny_kg, kg_rules):
        detection = detect_violations(tiny_kg, kg_rules)
        model = DEFAULT_COST_MODEL
        for violation in detection:
            cost = model.estimate(tiny_kg, violation.rule, violation.match)
            assert cost > 0.0

    def test_merge_cost_grows_with_degree(self, tiny_kg, kg_rules):
        detection = detect_violations(tiny_kg, kg_rules)
        merges = [v for v in detection if v.rule.name == "kg-dedup-person"]
        adds = [v for v in detection if v.rule.name == "kg-add-nationality"]
        assert merges and adds
        model = CostModel()
        merge_cost = model.estimate(tiny_kg, merges[0].rule, merges[0].match)
        add_cost = model.estimate(tiny_kg, adds[0].rule, adds[0].match)
        assert merge_cost > add_cost - 1e-9

    def test_custom_cost_model_changes_estimates(self, tiny_kg, kg_rules):
        detection = detect_violations(tiny_kg, kg_rules)
        violation = next(v for v in detection if v.rule.name == "kg-add-nationality")
        cheap = CostModel(add_edge=0.1).estimate(tiny_kg, violation.rule, violation.match)
        expensive = CostModel(add_edge=10.0).estimate(tiny_kg, violation.rule,
                                                      violation.match)
        assert expensive > cheap


class TestExecutorAndProvenance:
    def test_apply_records_delta_and_log(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        executor = RepairExecutor(graph)
        detection = detect_violations(graph, kg_rules)
        violation = next(v for v in detection if v.rule.name == "kg-add-nationality")
        outcome = executor.apply(violation.rule, violation.match)
        assert outcome.applied and outcome.changed_anything
        assert outcome.delta.summary() == {"add_edge": 1}
        assert len(executor.log) == 1
        action = executor.log.actions[0]
        assert action.rule_name == "kg-add-nationality"
        assert action.total_changes == 1
        assert "kg-add-nationality" in action.describe()

    def test_log_aggregations_and_provenance_queries(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        executor = RepairExecutor(graph)
        for violation in detect_violations(graph, kg_rules):
            if violation.match.is_valid(graph):
                executor.apply(violation.rule, violation.match)
        log = executor.log
        assert sum(log.actions_per_rule().values()) == len(log)
        assert sum(log.actions_per_semantics().values()) == len(log)
        assert log.total_cost() > 0
        some_node = log.actions[0].node_bindings[next(iter(log.actions[0].node_bindings))]
        assert log.actions_touching(some_node)
        assert "repairs" in log.describe()

    def test_failed_repair_is_reported_not_raised(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        executor = RepairExecutor(graph)
        detection = detect_violations(graph, kg_rules)
        violation = next(v for v in detection if v.rule.name == "kg-add-nationality")
        # sabotage: remove the country the repair wants to attach
        graph.remove_node(violation.match.node_id("k"))
        outcome = executor.apply(violation.rule, violation.match)
        assert not outcome.applied
        assert outcome.error
        assert len(executor.log) == 0
