"""Unit tests for pattern definition, validation, and the match oracle."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidPatternError
from repro.graph import PropertyGraph
from repro.matching import (
    Comparison,
    ComparisonOp,
    Match,
    Pattern,
    PatternEdge,
    PatternNode,
    exists,
    pattern_from_graph,
    pattern_to_graph,
    same_value,
)


class TestPatternValidation:
    def test_empty_pattern_rejected(self):
        with pytest.raises(InvalidPatternError):
            Pattern(nodes=[])

    def test_duplicate_variable_rejected(self):
        with pytest.raises(InvalidPatternError):
            Pattern(nodes=[PatternNode("x"), PatternNode("x")])

    def test_edge_with_unknown_variable_rejected(self):
        with pytest.raises(InvalidPatternError):
            Pattern(nodes=[PatternNode("x")], edges=[PatternEdge("x", "y", "r")])

    def test_edge_variable_clashing_with_node_variable_rejected(self):
        with pytest.raises(InvalidPatternError):
            Pattern(nodes=[PatternNode("x"), PatternNode("y")],
                    edges=[PatternEdge("x", "y", "r", variable="x")])

    def test_disconnected_pattern_rejected(self):
        with pytest.raises(InvalidPatternError):
            Pattern(nodes=[PatternNode("x"), PatternNode("y")])

    def test_comparison_over_unknown_variable_rejected(self):
        with pytest.raises(InvalidPatternError):
            Pattern(nodes=[PatternNode("x")], comparisons=[same_value("x", "name", "z")])

    def test_single_node_pattern_is_connected(self):
        pattern = Pattern(nodes=[PatternNode("x", "Person")])
        assert pattern.variables == ["x"]
        assert pattern.size() == 1

    def test_self_loop_pattern_is_valid(self):
        pattern = Pattern(nodes=[PatternNode("u", "User")],
                          edges=[PatternEdge("u", "u", "follows", variable="e")])
        assert pattern.edge_variables == ["e"]


class TestPatternAccessors:
    def test_adjacency_and_edge_lookup(self, duplicate_person_pattern):
        pattern = duplicate_person_pattern
        assert pattern.adjacent_variables("c") == {"a", "b"}
        assert pattern.adjacent_variables("a") == {"c"}
        assert len(pattern.edges_touching("c")) == 2
        assert pattern.node_labels() == {"Person", "City"}
        assert pattern.edge_labels() == {"bornIn"}
        assert pattern.has_variable("a") and not pattern.has_variable("zzz")

    def test_node_variable_lookup_errors(self, duplicate_person_pattern):
        with pytest.raises(InvalidPatternError):
            duplicate_person_pattern.node_variable("missing")

    def test_describe_mentions_variables(self, duplicate_person_pattern):
        text = duplicate_person_pattern.describe()
        assert "(a:Person)" in text and "bornIn" in text


class TestCheckMatchOracle:
    def test_valid_assignment_accepted(self, tiny_kg, duplicate_person_pattern):
        ada_ids = [node.id for node in tiny_kg.nodes_with_label("Person")
                   if node.get("name") == "Ada"]
        london = next(node.id for node in tiny_kg.nodes_with_label("City")
                      if node.get("name") == "London")
        assignment = {"a": ada_ids[0], "b": ada_ids[1], "c": london}
        assert duplicate_person_pattern.check_match(tiny_kg, assignment)

    def test_injectivity_enforced(self, tiny_kg, duplicate_person_pattern):
        ada = next(node.id for node in tiny_kg.nodes_with_label("Person")
                   if node.get("name") == "Ada")
        london = next(node.id for node in tiny_kg.nodes_with_label("City")
                      if node.get("name") == "London")
        assert not duplicate_person_pattern.check_match(
            tiny_kg, {"a": ada, "b": ada, "c": london})

    def test_comparison_enforced(self, tiny_kg, duplicate_person_pattern):
        people = {node.get("name"): node.id for node in tiny_kg.nodes_with_label("Person")}
        paris = next(node.id for node in tiny_kg.nodes_with_label("City")
                     if node.get("name") == "Paris")
        # Bob and Carol are both born in Paris but have different names.
        assignment = {"a": people["Bob"], "b": people["Carol"], "c": paris}
        assert not duplicate_person_pattern.check_match(tiny_kg, assignment)

    def test_missing_edge_rejected(self, tiny_kg, duplicate_person_pattern):
        people = {node.get("name"): node.id for node in tiny_kg.nodes_with_label("Person")}
        london = next(node.id for node in tiny_kg.nodes_with_label("City")
                      if node.get("name") == "London")
        # Carol is born in Paris, not London.
        assignment = {"a": people["Ada"], "b": people["Carol"], "c": london}
        assert not duplicate_person_pattern.check_match(tiny_kg, assignment)

    def test_incomplete_assignment_rejected(self, tiny_kg, duplicate_person_pattern):
        assert not duplicate_person_pattern.check_match(tiny_kg, {"a": "n0"})

    def test_label_and_predicate_checked(self, tiny_kg):
        pattern = Pattern(nodes=[PatternNode("x", "Person", predicates=(exists("name"),))])
        person = tiny_kg.nodes_with_label("Person")[0]
        country = tiny_kg.nodes_with_label("Country")[0]
        assert pattern.check_match(tiny_kg, {"x": person.id})
        assert not pattern.check_match(tiny_kg, {"x": country.id})


    def test_edge_variables_bind_distinct_edges(self):
        """As in the matchers, two edge variables never share one data edge."""
        graph = PropertyGraph()
        graph.add_node("P", node_id="p")
        graph.add_node("C", node_id="c")
        graph.add_edge("p", "c", "r", {"w": 1}, edge_id="only")
        pattern = Pattern(
            nodes=[PatternNode("x", "P"), PatternNode("y", "C")],
            edges=[PatternEdge("x", "y", "r", variable="e0"),
                   PatternEdge("x", "y", "r", variable="e1")],
            comparisons=[Comparison(("e0", "w"), ComparisonOp.GE, ("e1", "w"))])
        assert not pattern.check_match(graph, {"x": "p", "y": "c"})
        graph.add_edge("p", "c", "r", {"w": 0}, edge_id="second")
        assert pattern.check_match(graph, {"x": "p", "y": "c"})


class TestMatchObject:
    def test_key_is_stable_and_hashable(self, duplicate_person_pattern):
        match = Match(pattern=duplicate_person_pattern,
                      node_bindings={"a": "1", "b": "2", "c": "3"})
        again = Match(pattern=duplicate_person_pattern,
                      node_bindings={"c": "3", "b": "2", "a": "1"})
        assert match.key() == again.key()
        assert hash(match.key())

    def test_touches(self, duplicate_person_pattern):
        match = Match(pattern=duplicate_person_pattern,
                      node_bindings={"a": "1", "b": "2", "c": "3"},
                      edge_bindings={"e": "e9"})
        assert match.touches(node_ids={"2"})
        assert match.touches(edge_ids={"e9"})
        assert not match.touches(node_ids={"42"}, edge_ids={"e1"})

    def test_is_valid_reflects_graph_changes(self, tiny_kg, duplicate_person_pattern):
        ada_ids = [node.id for node in tiny_kg.nodes_with_label("Person")
                   if node.get("name") == "Ada"]
        london = next(node.id for node in tiny_kg.nodes_with_label("City")
                      if node.get("name") == "London")
        match = Match(pattern=duplicate_person_pattern,
                      node_bindings={"a": ada_ids[0], "b": ada_ids[1], "c": london})
        graph = tiny_kg.copy()
        assert match.is_valid(graph)
        graph.merge_nodes(ada_ids[0], ada_ids[1])
        assert not match.is_valid(graph)


class TestPatternGraphConversion:
    def test_round_trip_preserves_shape(self, duplicate_person_pattern):
        graph = pattern_to_graph(duplicate_person_pattern)
        assert graph.num_nodes == 3
        assert graph.num_edges == 2
        back = pattern_from_graph(graph, name="back")
        assert len(back.nodes) == 3
        assert len(back.edges) == 2

    def test_pattern_from_graph_can_keep_properties(self, tiny_kg):
        sub = tiny_kg.subgraph(tiny_kg.node_ids()[:1])
        pattern = pattern_from_graph(sub, keep_properties=True)
        assert pattern.nodes[0].predicates  # property equality predicates generated
