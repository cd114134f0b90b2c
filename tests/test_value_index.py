"""Tests for the predicate-pushdown value buckets and their matcher wiring.

Covers:

* :func:`variable_pushdowns` — which constraints compile into pushdown specs
  (unary ``EQ`` predicates, literal ``EQ`` comparisons, cross-variable ``EQ``
  comparisons in both directions) and which must not (edge-variable
  comparisons, non-``EQ`` operators, unhashable constants);
* :meth:`CandidateIndex.value_bucket` semantics — completeness for the
  equality, unhashable stored values pooled rather than dropped, ``None``
  for unanswerable probes, label-scoped vs label-free indexes;
* indexed == unindexed matcher equivalence with every pushdown shape, on
  hand-built graphs and on all three workload generators' rule libraries
  (the acceptance pin for this optimisation);
* the dead-branch prunes (empty bucket; bound neighbour missing the compared
  property) returning exactly the matches the naive matcher finds;
* the prune counters flowing through :class:`MatchingStats` into
  :class:`RepairReport`.
"""

from __future__ import annotations

import pytest

from repro.api import RepairConfig, repair_copy
from repro.datasets.registry import build_workload
from repro.graph import PropertyGraph
from repro.matching import (
    CandidateIndex,
    Comparison,
    ComparisonOp,
    Matcher,
    MatcherConfig,
    Pattern,
    PatternEdge,
    PatternNode,
    VF2Matcher,
    eq,
    gt,
    same_value,
    value_is,
    variable_pushdowns,
)

DOMAINS = ("kg", "movies", "social")


def _match_keys(matcher_graph, pattern, candidate_index):
    engine = VF2Matcher(graph=matcher_graph, candidate_index=candidate_index)
    return {match.key() for match in engine.find_matches(pattern)}, engine.stats


def _assert_equivalent(graph, pattern):
    """The indexed matcher (pushdown active) finds exactly the naive matches."""
    indexed, _ = _match_keys(graph, pattern, CandidateIndex(graph))
    naive, _ = _match_keys(graph, pattern, None)
    assert indexed == naive
    return indexed


class TestVariablePushdowns:
    def test_unary_eq_predicates_compile(self):
        pattern = Pattern(nodes=[PatternNode("x", "Person",
                                             predicates=(eq("country", "FR"),))],
                          name="unary")
        specs = variable_pushdowns(pattern)
        assert specs["x"].unary == (("country", "FR"),)
        assert specs["x"].literal == ()
        assert specs["x"].dynamic == ()

    def test_range_predicates_compile_into_ranges(self):
        # since the sorted-bucket layer, gt/lt/le/ge compile as range
        # pushdowns (not equality pushdowns — see test_sorted_index.py)
        pattern = Pattern(nodes=[PatternNode("x", "Person",
                                             predicates=(gt("age", 30),))],
                          name="non-eq")
        specs = variable_pushdowns(pattern)
        assert specs["x"].unary == ()
        assert specs["x"].ranges == (("age", "gt", 30),)

    def test_unhashable_constants_are_skipped(self):
        pattern = Pattern(nodes=[PatternNode("x", "Person",
                                             predicates=(eq("tags", ["a", "b"]),))],
                          name="unhashable")
        assert variable_pushdowns(pattern) == {}

    def test_literal_comparisons_compile_separately(self):
        pattern = Pattern(nodes=[PatternNode("x", "Person")],
                          comparisons=[value_is("x", "country", "FR")],
                          name="literal")
        specs = variable_pushdowns(pattern)
        assert specs["x"].literal == (("country", "FR"),)
        assert specs["x"].unary == ()

    def test_dynamic_comparisons_compile_both_directions(self):
        pattern = Pattern(
            nodes=[PatternNode("a", "Person"), PatternNode("b", "Person"),
                   PatternNode("c", "City")],
            edges=[PatternEdge("a", "c", "bornIn"), PatternEdge("b", "c", "bornIn")],
            comparisons=[same_value("a", "name", "b")],
            name="dedup")
        specs = variable_pushdowns(pattern)
        assert specs["a"].dynamic == (("name", "b", "name"),)
        assert specs["b"].dynamic == (("name", "a", "name"),)
        assert "c" not in specs

    def test_edge_variable_comparisons_are_excluded(self):
        pattern = Pattern(
            nodes=[PatternNode("x", "Person"), PatternNode("y", "City")],
            edges=[PatternEdge("x", "y", "bornIn", variable="e1"),
                   PatternEdge("x", "y", "bornIn", variable="e2")],
            comparisons=[Comparison(("e1", "confidence"), ComparisonOp.EQ,
                                    ("e2", "confidence"))],
            name="edge-vars")
        assert variable_pushdowns(pattern) == {}


class TestValueBucketSemantics:
    def _graph(self):
        graph = PropertyGraph()
        graph.add_node("Person", {"name": "ada"}, node_id="p1")
        graph.add_node("Person", {"name": "ada"}, node_id="p2")
        graph.add_node("Person", {"name": "bob"}, node_id="p3")
        graph.add_node("Person", {}, node_id="p4")
        graph.add_node("City", {"name": "ada"}, node_id="c1")
        return graph

    def test_label_scoped_bucket(self):
        graph = self._graph()
        index = CandidateIndex(graph)
        index.ensure_value_index("Person", "name")
        assert index.value_bucket("Person", "name", "ada") == {"p1", "p2"}
        assert index.value_bucket("Person", "name", "bob") == {"p3"}
        assert index.value_bucket("Person", "name", "eve") == frozenset()

    def test_label_free_bucket_spans_labels(self):
        graph = self._graph()
        index = CandidateIndex(graph)
        index.ensure_value_index(None, "name")
        assert index.value_bucket(None, "name", "ada") == {"p1", "p2", "c1"}

    def test_unregistered_pair_is_unanswerable(self):
        index = CandidateIndex(self._graph())
        assert index.value_bucket("Person", "name", "ada") is None

    def test_unhashable_probe_is_unanswerable(self):
        graph = self._graph()
        index = CandidateIndex(graph)
        index.ensure_value_index("Person", "name")
        assert index.value_bucket("Person", "name", ["ada"]) is None

    def test_unhashable_stored_values_stay_in_every_bucket(self):
        graph = self._graph()
        graph.update_node("p3", {"name": ["weird", "list"]})
        index = CandidateIndex(graph)
        index.ensure_value_index("Person", "name")
        # p3's value cannot be dict-keyed; completeness demands it shows up in
        # every probe so the residual predicate check can decide
        assert index.value_bucket("Person", "name", "ada") == {"p1", "p2", "p3"}
        assert index.value_bucket("Person", "name", "nope") == {"p3"}

    def test_cross_type_equal_values_share_a_bucket(self):
        graph = PropertyGraph()
        graph.add_node("N", {"v": 1}, node_id="a")
        graph.add_node("N", {"v": 1.0}, node_id="b")
        graph.add_node("N", {"v": True}, node_id="c")
        index = CandidateIndex(graph)
        index.ensure_value_index("N", "v")
        # Python dict semantics: 1 == 1.0 == True hash identically, matching
        # the == the predicates evaluate
        assert index.value_bucket("N", "v", 1) == {"a", "b", "c"}

    def test_maintenance_tracks_mutations(self):
        graph = self._graph()
        index = CandidateIndex(graph)
        index.attach()
        index.ensure_value_index("Person", "name")
        graph.update_node("p4", {"name": "ada"})
        assert index.value_bucket("Person", "name", "ada") == {"p1", "p2", "p4"}
        graph.update_node("p1", {"name": "eve"})
        assert index.value_bucket("Person", "name", "ada") == {"p2", "p4"}
        graph.remove_node("p2")
        assert index.value_bucket("Person", "name", "ada") == {"p4"}
        graph.relabel_node("p4", "Robot")
        assert index.value_bucket("Person", "name", "ada") == frozenset()
        assert index.check_value_integrity()
        index.detach()

    def test_merge_refreshes_kept_node_values(self):
        graph = self._graph()
        index = CandidateIndex(graph)
        index.attach()
        index.ensure_value_index("Person", "name")
        # p4 has no name; merging bob into it adopts bob's name
        graph.merge_nodes("p4", "p3", prefer_kept_properties=True)
        assert index.value_bucket("Person", "name", "bob") == {"p4"}
        assert index.check_value_integrity()
        index.detach()

    def test_shared_bucket_tracks_values_held_twice(self):
        """``shared`` = ids whose value another node also holds, plus the
        unhashable pool — maintained through the transitions 1 <-> 2."""
        graph = self._graph()
        index = CandidateIndex(graph)
        index.attach()
        assert index.shared_bucket("Person", "name") is None
        index.ensure_value_index("Person", "name")
        assert index.shared_bucket("Person", "name") == {"p1", "p2"}
        graph.update_node("p4", {"name": "bob"})
        assert index.shared_bucket("Person", "name") == {"p1", "p2", "p3", "p4"}
        graph.update_node("p1", {"name": "eve"})
        assert index.shared_bucket("Person", "name") == {"p3", "p4"}
        graph.update_node("p2", {"name": ["a", "list"]})
        assert index.shared_bucket("Person", "name") == {"p2", "p3", "p4"}
        graph.remove_node("p3")
        assert index.shared_bucket("Person", "name") == {"p2"}
        graph.update_node("p2", remove_keys=("name",))
        assert index.shared_bucket("Person", "name") == frozenset()
        assert index.check_value_integrity()
        index.detach()


class TestPushdownMatcherEquivalence:
    def _dedup_graph(self):
        graph = PropertyGraph()
        city = graph.add_node("City", {"name": "rome"})
        for name in ("ada", "ada", "bob", "eve", "eve", "eve"):
            person = graph.add_node("Person", {"name": name})
            graph.add_edge(person.id, city.id, "bornIn")
        return graph

    def test_same_value_dedup_pattern(self):
        pattern = Pattern(
            nodes=[PatternNode("a", "Person"), PatternNode("b", "Person"),
                   PatternNode("c", "City")],
            edges=[PatternEdge("a", "c", "bornIn"), PatternEdge("b", "c", "bornIn")],
            comparisons=[same_value("a", "name", "b")],
            name="dedup")
        matches = _assert_equivalent(self._dedup_graph(), pattern)
        # ada pair (2 orientations) + eve triple (6 orientations)
        assert len(matches) == 8

    def test_unary_eq_root_pattern(self):
        pattern = Pattern(
            nodes=[PatternNode("p", "Person", predicates=(eq("name", "ada"),)),
                   PatternNode("c", "City")],
            edges=[PatternEdge("p", "c", "bornIn")],
            name="named-person")
        matches = _assert_equivalent(self._dedup_graph(), pattern)
        assert len(matches) == 2

    def test_literal_comparison_pattern(self):
        pattern = Pattern(
            nodes=[PatternNode("p", "Person"), PatternNode("c", "City")],
            edges=[PatternEdge("p", "c", "bornIn")],
            comparisons=[value_is("p", "name", "eve")],
            name="literal-person")
        matches = _assert_equivalent(self._dedup_graph(), pattern)
        assert len(matches) == 3

    def test_missing_compared_property_prunes_to_naive_answer(self):
        graph = self._dedup_graph()
        nameless = graph.add_node("Person", {})
        city_id = next(n.id for n in graph.nodes_with_label("City"))
        graph.add_edge(nameless.id, city_id, "bornIn")
        pattern = Pattern(
            nodes=[PatternNode("a", "Person"), PatternNode("b", "Person"),
                   PatternNode("c", "City")],
            edges=[PatternEdge("a", "c", "bornIn"), PatternEdge("b", "c", "bornIn")],
            comparisons=[same_value("a", "name", "b")],
            name="dedup")
        # the nameless node can never satisfy the comparison: both matchers
        # must exclude it (the indexed one prunes the branch outright)
        matches = _assert_equivalent(graph, pattern)
        assert len(matches) == 8

    def test_unhashable_property_values_still_match(self):
        graph = PropertyGraph()
        city = graph.add_node("City", {"name": "rome"})
        weird1 = graph.add_node("Person", {"name": ["list", "name"]})
        weird2 = graph.add_node("Person", {"name": ["list", "name"]})
        graph.add_edge(weird1.id, city.id, "bornIn")
        graph.add_edge(weird2.id, city.id, "bornIn")
        pattern = Pattern(
            nodes=[PatternNode("a", "Person"), PatternNode("b", "Person"),
                   PatternNode("c", "City")],
            edges=[PatternEdge("a", "c", "bornIn"), PatternEdge("b", "c", "bornIn")],
            comparisons=[same_value("a", "name", "b")],
            name="dedup")
        matches = _assert_equivalent(graph, pattern)
        assert len(matches) == 2  # the two orientations of the weird pair

    def test_empty_bucket_prunes_branch(self):
        graph = self._dedup_graph()
        pattern = Pattern(
            nodes=[PatternNode("p", "Person", predicates=(eq("name", "nobody"),)),
                   PatternNode("c", "City")],
            edges=[PatternEdge("p", "c", "bornIn")],
            name="absent")
        index = CandidateIndex(graph)
        engine = VF2Matcher(graph=graph, candidate_index=index)
        assert engine.find_matches(pattern) == []
        # the pushdown answered from the bucket: at most the pivot variable's
        # root was tried, never a Person candidate
        assert engine.stats.nodes_tried <= 1

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_workload_rules_equivalence(self, domain):
        """Acceptance pin: indexed == unindexed matches for every rule
        pattern of every dataset domain."""
        workload = build_workload(domain, scale=80, error_rate=0.08, seed=5)
        optimized = Matcher(workload.dirty, MatcherConfig.optimized(),
                            maintain_index=False)
        naive = Matcher(workload.dirty, MatcherConfig.naive(),
                        maintain_index=False)
        for rule in workload.rules:
            left = {m.key() for m in optimized.find_matches(rule.pattern)}
            right = {m.key() for m in naive.find_matches(rule.pattern)}
            assert left == right, rule.name
        optimized.close()
        naive.close()

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_workload_repair_equivalence(self, domain):
        """Fast repair with the pushdown produces the same graph as the
        index-less ablation configuration."""
        workload = build_workload(domain, scale=60, error_rate=0.08, seed=7)
        with_index, _ = repair_copy(workload.dirty, workload.rules,
                                    config=RepairConfig.fast())
        without_index, _ = repair_copy(workload.dirty, workload.rules,
                                       config=RepairConfig.ablation("index"))
        assert with_index.structurally_equal(without_index)


class TestPruneCountersSurfaced:
    def test_matching_stats_counters_populate(self):
        workload = build_workload("kg", scale=60, error_rate=0.08, seed=3)
        matcher = Matcher(workload.dirty, MatcherConfig.optimized(),
                          maintain_index=False)
        for rule in workload.rules:
            matcher.find_matches(rule.pattern)
        stats = matcher.stats
        assert stats.label_bucket_candidates > 0
        assert stats.value_bucket_candidates > 0  # the dedup rules push down
        assert stats.predicate_survivors > 0
        flat = stats.as_dict()
        assert flat["label_bucket_candidates"] == stats.label_bucket_candidates
        assert flat["value_bucket_candidates"] == stats.value_bucket_candidates
        assert flat["predicate_survivors"] == stats.predicate_survivors
        matcher.close()

    def test_repair_report_carries_prune_counters(self):
        workload = build_workload("kg", scale=60, error_rate=0.1, seed=3)
        _, report = repair_copy(workload.dirty, workload.rules,
                                config=RepairConfig.fast())
        flat = report.as_dict()
        assert flat["value_bucket_candidates"] == \
            report.matching_stats.value_bucket_candidates
        assert flat["label_bucket_candidates"] == \
            report.matching_stats.label_bucket_candidates
        assert flat["predicate_survivors"] == \
            report.matching_stats.predicate_survivors
        assert report.matching_stats.value_bucket_candidates > 0
