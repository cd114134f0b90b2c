"""Tests for the comparison baselines and the quality / change metrics."""

from __future__ import annotations

import pytest

from repro.baselines import DetectOnlyBaseline, FDRelationalBaseline, GreedyConfig, \
    GreedyDeleteBaseline
from repro.metrics import (
    change_summary,
    entity_key,
    fact_delta,
    format_csv,
    format_series,
    format_table,
    graph_facts,
    graph_restored_exactly,
    repair_quality,
    summarize_rows,
)
from repro.api import repair_copy
from repro.repair import detect_violations


class TestDetectOnlyBaseline:
    def test_detects_but_changes_nothing(self, small_kg_workload):
        repaired, report = DetectOnlyBaseline().repair(small_kg_workload.dirty,
                                                       small_kg_workload.rules)
        assert report.violations_detected > 0
        assert report.changes_applied == 0
        assert graph_facts(repaired) == graph_facts(small_kg_workload.dirty)
        quality = repair_quality(small_kg_workload.clean, small_kg_workload.dirty,
                                 repaired, small_kg_workload.ground_truth)
        assert quality.recall == 0.0
        assert quality.precision == 1.0  # vacuously: it changed nothing


class TestFDRelationalBaseline:
    def test_repairs_functional_conflicts_and_duplicate_edges_only(self, small_kg_workload):
        repaired, report = FDRelationalBaseline().repair(small_kg_workload.dirty,
                                                         small_kg_workload.rules)
        assert report.changes_applied > 0
        quality = repair_quality(small_kg_workload.clean, small_kg_workload.dirty,
                                 repaired, small_kg_workload.ground_truth)
        grr_repaired, _ = repair_copy(small_kg_workload.dirty, small_kg_workload.rules)
        grr_quality = repair_quality(small_kg_workload.clean, small_kg_workload.dirty,
                                     grr_repaired, small_kg_workload.ground_truth)
        # it can fix some conflicts/duplicate edges but never incompleteness,
        # so GRR repair strictly dominates it on recall
        assert quality.recall < grr_quality.recall
        assert quality.recall_by_kind.get("incompleteness", 0.0) == 0.0

    def test_explicit_functional_predicates_are_respected(self, small_kg_workload):
        baseline = FDRelationalBaseline(functional_predicates=["bornIn"])
        _, report = baseline.repair(small_kg_workload.dirty, small_kg_workload.rules)
        assert report.details["functional_predicates"] == ["bornIn"]

    def test_keeps_the_higher_confidence_edge(self, tiny_kg):
        graph = tiny_kg.copy()
        bob = next(node.id for node in graph.nodes_with_label("Person")
                   if node.get("name") == "Bob")
        london = next(node.id for node in graph.nodes_with_label("City")
                      if node.get("name") == "London")
        graph.add_edge(bob, london, "bornIn", {"confidence": 0.3})
        repaired, _ = FDRelationalBaseline(functional_predicates=["bornIn"]).repair(graph)
        kept = repaired.out_edges_with_label(bob, "bornIn")
        assert len(kept) == 1
        assert kept[0].get("confidence") == 1.0


class TestGreedyBaseline:
    def test_reaches_violation_free_state_by_deleting(self, small_kg_workload):
        repaired, report = GreedyDeleteBaseline().repair(small_kg_workload.dirty,
                                                         small_kg_workload.rules)
        assert report.changes_applied > 0
        assert len(detect_violations(repaired, small_kg_workload.rules)) == 0
        quality = repair_quality(small_kg_workload.clean, small_kg_workload.dirty,
                                 repaired, small_kg_workload.ground_truth)
        grr_repaired, _ = repair_copy(small_kg_workload.dirty, small_kg_workload.rules)
        grr_quality = repair_quality(small_kg_workload.clean, small_kg_workload.dirty,
                                     grr_repaired, small_kg_workload.ground_truth)
        assert quality.f1 < grr_quality.f1  # deletion-only is strictly worse

    def test_deletion_budget_is_respected(self, small_kg_workload):
        baseline = GreedyDeleteBaseline(GreedyConfig(max_deletions=3))
        _, report = baseline.repair(small_kg_workload.dirty, small_kg_workload.rules)
        assert report.changes_applied <= 3


class TestFactsAndQuality:
    def test_entity_key_uses_identifying_property(self, tiny_kg):
        person = tiny_kg.nodes_with_label("Person")[0]
        key = entity_key(person)
        assert key[0] == "Person" and key[1] == "name"
        country = tiny_kg.nodes_with_label("Country")[0]
        assert entity_key(country)[2] == country.get("name")

    def test_fact_multiset_counts_duplicates(self, tiny_kg):
        facts = graph_facts(tiny_kg)
        ada_key = ("Person", "name", "Ada")
        paris_key = ("City", "name", "Paris")
        assert facts[("edge", ada_key, "livesIn", paris_key)] == 2
        assert facts[("node", ada_key, "Person")] == 2  # Ada and her duplicate

    def test_fact_delta_is_exact_inverse(self, tiny_kg):
        modified = tiny_kg.copy()
        modified.remove_edge(modified.edge_ids()[0])
        modified.add_node("Person", {"name": "Zed"})
        added, removed = fact_delta(graph_facts(tiny_kg), graph_facts(modified))
        back_added, back_removed = fact_delta(graph_facts(modified), graph_facts(tiny_kg))
        assert added == back_removed and removed == back_added

    def test_perfect_repair_scores_one(self, small_kg_workload):
        repaired, _ = repair_copy(small_kg_workload.dirty, small_kg_workload.rules)
        quality = repair_quality(small_kg_workload.clean, small_kg_workload.dirty,
                                 repaired, small_kg_workload.ground_truth)
        assert quality.precision > 0.95
        assert quality.recall > 0.9
        assert 0.0 <= quality.f1 <= 1.0
        assert quality.performed_changes >= quality.correct_changes

    def test_no_op_repair_scores_zero_recall(self, small_kg_workload):
        quality = repair_quality(small_kg_workload.clean, small_kg_workload.dirty,
                                 small_kg_workload.dirty.copy(),
                                 small_kg_workload.ground_truth)
        assert quality.recall == 0.0
        assert quality.missed_changes == quality.needed_changes

    def test_identical_graphs_restored_exactly(self, small_kg_dataset):
        assert graph_restored_exactly(small_kg_dataset.clean,
                                      small_kg_dataset.clean.copy())

    def test_quality_describe_and_dict(self, small_kg_workload):
        repaired, _ = repair_copy(small_kg_workload.dirty, small_kg_workload.rules)
        quality = repair_quality(small_kg_workload.clean, small_kg_workload.dirty,
                                 repaired, small_kg_workload.ground_truth)
        assert "precision" in quality.describe()
        assert set(quality.as_dict()) >= {"precision", "recall", "f1", "recall_by_kind"}


class TestChangeSummary:
    def test_summary_of_real_repair(self, small_kg_workload):
        repaired, _ = repair_copy(small_kg_workload.dirty, small_kg_workload.rules)
        summary = change_summary(small_kg_workload.clean, small_kg_workload.dirty, repaired)
        assert summary.facts_added >= 0 and summary.facts_removed > 0
        assert 0.0 < summary.preservation_ratio <= 1.0
        assert summary.edit_distance_from_dirty > 0
        assert summary.residual_distance_to_clean < summary.edit_distance_from_dirty * 10
        assert "preservation_ratio" in summary.as_dict()

    def test_no_op_preserves_everything(self, small_kg_workload):
        summary = change_summary(small_kg_workload.clean, small_kg_workload.dirty,
                                 small_kg_workload.dirty.copy())
        assert summary.preservation_ratio == 1.0
        assert summary.facts_removed == 0


class TestReportFormatting:
    ROWS = [
        {"method": "fast", "seconds": 1.23456, "ok": True, "nested": {"a": 1}},
        {"method": "naive", "seconds": 4.5, "ok": False, "nested": {"a": 2}},
    ]

    def test_format_table_aligns_and_includes_all_rows(self):
        text = format_table(self.ROWS, title="demo")
        assert "demo" in text and "fast" in text and "naive" in text
        assert "1.235" in text  # float formatting
        assert "yes" in text and "no" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_csv(self):
        text = format_csv(self.ROWS, columns=["method", "seconds"])
        assert text.splitlines()[0] == "method,seconds"
        assert len(text.splitlines()) == 3

    def test_format_series_selects_columns(self):
        text = format_series(self.ROWS, x_column="method", y_columns=["seconds"])
        assert "method" in text and "ok" not in text

    def test_summarize_rows_averages_per_group(self):
        rows = [{"scale": 10, "seconds": 1.0}, {"scale": 10, "seconds": 3.0},
                {"scale": 20, "seconds": 5.0}]
        summary = summarize_rows(rows, group_by="scale", value_columns=["seconds"])
        assert summary[0]["seconds"] == pytest.approx(2.0)
        assert summary[0]["runs"] == 2
        assert summary[1]["seconds"] == pytest.approx(5.0)
