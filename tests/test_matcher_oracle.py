"""An independent completeness oracle for the subgraph matcher.

The other equivalence suites compare the indexed matcher with the
index-free one, but both walk the same search engine, so a fault in the
engine's step tables would pass them.  Here the reference is brute force:
every injective assignment of the pattern's node variables to data nodes
that :meth:`Pattern.check_match` accepts.  On small hypothesis multigraphs
(self-loops, parallel edges, edge predicates, missing and list-valued
properties) and patterns of at most four variables (self-loop and parallel
pattern edges, edge variables, unary predicates, node and edge
comparisons), every matcher configuration must yield exactly that set of
node bindings: unseeded, seeded on one variable, and seeded on both
endpoints of one pattern edge (the seed shapes incremental discovery uses),
on the graph as built (most with the pattern's shape planted in it) and
after edits made while the index is attached.
"""

from __future__ import annotations

from itertools import permutations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.graph import PropertyGraph
from repro.matching import (
    CandidateIndex,
    Comparison,
    ComparisonOp,
    Pattern,
    PatternEdge,
    PatternNode,
    VF2Matcher,
    eq,
    exists,
    same_value,
    value_is,
)
from repro.matching.predicates import lt, one_of

# skewed towards one node and one edge label so that most examples match
NODE_LABELS = ("A", "A", "A", "B")
EDGE_LABELS = ("r", "r", "r", "s")
NAMES = (None, "x", "y", ["l"])
VALUES = (None, 0, 1, 2)
WEIGHTS = (None, 0, 1)
NODE_PREDICATES = ((), (), (), (), (eq("value", 1),), (lt("value", 2),),
                   (exists("name"),), (one_of("value", (0, 2)),))
# a value meeting each node predicate, for planting
MEETS = {predicate: value for (predicate,), value in zip(
    NODE_PREDICATES[4:], (1, 1, "x", 2))}
EDGE_PREDICATES = ((), (), (), (eq("w", 0),), (eq("w", 1),))


@st.composite
def graph_specs(draw):
    """``(nodes, edges)``: node ``(label, name index, value index)`` and edge
    ``(source, target, label, weight indexes)``, one edge per weight index
    (so two or more make parallel edges); source may equal target."""
    num_nodes = draw(st.integers(min_value=2, max_value=6))
    nodes = draw(st.lists(
        st.tuples(st.sampled_from(NODE_LABELS),
                  st.integers(0, len(NAMES) - 1),
                  st.integers(0, len(VALUES) - 1)),
        min_size=num_nodes, max_size=num_nodes))
    edges = draw(st.lists(
        st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1),
                  st.sampled_from(EDGE_LABELS),
                  st.lists(st.integers(0, len(WEIGHTS) - 1),
                           min_size=1, max_size=3)),
        min_size=2, max_size=12))
    return nodes, edges


@st.composite
def pattern_specs(draw):
    """``(nodes, edges, comparisons)``: node ``(label, predicate index)``;
    edges ``(source, target, label, has variable, predicate index)`` — a
    random spanning tree plus up to three extra edges, which may be
    self-loops or parallel to a tree edge; comparison codes."""
    num_variables = draw(st.integers(min_value=1, max_value=4))
    nodes = draw(st.lists(
        st.tuples(st.sampled_from(("A", "A", "B", None)),
                  st.integers(0, len(NODE_PREDICATES) - 1)),
        min_size=num_variables, max_size=num_variables))
    edge_shape = st.tuples(st.sampled_from(("r", "r", "s", None)), st.booleans(),
                           st.integers(0, len(EDGE_PREDICATES) - 1))
    edges = []
    for index in range(1, num_variables):
        other = draw(st.integers(0, index - 1))
        ends = (other, index) if draw(st.booleans()) else (index, other)
        edges.append(ends + draw(edge_shape))
    for _ in range(draw(st.integers(0, 3))):
        ends = (draw(st.integers(0, num_variables - 1)),
                draw(st.integers(0, num_variables - 1)))
        edges.append(ends + draw(edge_shape))
    comparisons = draw(st.lists(
        st.tuples(st.sampled_from(("same-name", "value-lt", "literal", "edge-ge")),
                  st.integers(0, num_variables - 1),
                  st.integers(0, num_variables - 1)),
        max_size=2))
    return nodes, edges, comparisons


def build_graph(spec) -> PropertyGraph:
    nodes, edges = spec
    graph = PropertyGraph(name="oracle")
    ids = []
    for label, name_index, value_index in nodes:
        properties = {}
        name, value = NAMES[name_index], VALUES[value_index]
        if name is not None:
            properties["name"] = list(name) if isinstance(name, list) else name
        if value is not None:
            properties["value"] = value
        ids.append(graph.add_node(label, properties).id)
    for source, target, label, weight_indexes in edges:
        for weight_index in weight_indexes:
            weight = WEIGHTS[weight_index]
            graph.add_edge(ids[source], ids[target], label,
                           {} if weight is None else {"w": weight})
    return graph


def build_pattern(spec) -> Pattern:
    nodes, edges, comparison_codes = spec
    pattern_nodes = [PatternNode(f"v{index}", label, NODE_PREDICATES[predicate])
                     for index, (label, predicate) in enumerate(nodes)]
    pattern_edges = []
    edge_variables = []
    for index, (source, target, label, has_variable, predicate) in enumerate(edges):
        variable = f"e{index}" if has_variable else None
        if variable is not None:
            edge_variables.append(variable)
        pattern_edges.append(PatternEdge(f"v{source}", f"v{target}", label,
                                         variable=variable,
                                         predicates=EDGE_PREDICATES[predicate]))
    comparisons = []
    for code, left, right in comparison_codes:
        if code == "same-name" and left != right:
            comparisons.append(same_value(f"v{left}", "name", f"v{right}"))
        elif code == "value-lt" and left != right:
            comparisons.append(Comparison((f"v{left}", "value"), ComparisonOp.LT,
                                          (f"v{right}", "value")))
        elif code == "literal":
            comparisons.append(value_is(f"v{left}", "value", 1))
        elif code == "edge-ge" and len(edge_variables) >= 2:
            comparisons.append(Comparison((edge_variables[0], "w"), ComparisonOp.GE,
                                          (edge_variables[1], "w")))
    return Pattern(nodes=pattern_nodes, edges=pattern_edges,
                   comparisons=comparisons, name="oracle-pattern")


def plant(graph: PropertyGraph, pattern: Pattern, placement) -> None:
    """Embed the pattern into the graph: the ``placement`` order of node
    positions gives each variable its node, relabelled to the variable's
    label and updated to meet its predicates, and each pattern edge gets a
    data edge whose ``w`` meets the edge's predicate.  Whether the
    comparisons hold is left to chance."""
    node_ids = graph.node_ids()
    chosen = [position for position in placement if position < len(node_ids)]
    if len(chosen) < len(pattern.variables):
        return
    where = {}
    for variable, position in zip(pattern.variables, chosen):
        where[variable] = node_ids[position]
        pattern_node = pattern.node_variable(variable)
        if pattern_node.label is not None:
            graph.relabel_node(node_ids[position], pattern_node.label)
        for predicate in pattern_node.predicates:
            graph.update_node(node_ids[position], {predicate.key: MEETS[predicate]})
    for edge in pattern.edges:
        graph.add_edge(where[edge.source], where[edge.target], edge.label or "r",
                       {predicate.key: predicate.value
                        for predicate in edge.predicates})


def _brute_force(graph: PropertyGraph, pattern: Pattern) -> set[tuple]:
    """Node bindings of every injective assignment ``check_match`` accepts."""
    variables = pattern.variables
    found = set()
    for nodes in permutations(graph.node_ids(), len(variables)):
        assignment = dict(zip(variables, nodes))
        if pattern.check_match(graph, assignment):
            found.add(tuple(sorted(assignment.items())))
    return found


def _bindings(matcher: VF2Matcher, pattern: Pattern, seed=None) -> set[tuple]:
    return {tuple(sorted(match.node_bindings.items()))
            for match in matcher.find_matches(pattern, seed=seed)}


def _seeds(graph: PropertyGraph, pattern: Pattern):
    """One-variable seeds, and seeds binding both endpoints of one
    (non-loop) pattern edge to two distinct nodes."""
    node_ids = graph.node_ids()
    for variable in pattern.variables:
        for node_id in node_ids:
            yield {variable: node_id}
    for edge in pattern.edges:
        if edge.source == edge.target:
            continue
        for source_id, target_id in permutations(node_ids, 2):
            yield {edge.source: source_id, edge.target: target_id}


def _edit(graph: PropertyGraph, data) -> None:
    """One random edit: a merge, an edge relabel or removal, a value update."""
    action = data.draw(st.sampled_from(
        ["merge", "relabel_edge", "remove_edge", "update"]))
    node_ids = graph.node_ids()
    if action == "merge" and len(node_ids) >= 2:
        keep, merged = data.draw(st.permutations(node_ids))[:2]
        graph.merge_nodes(keep, merged)
    elif action == "relabel_edge" and graph.num_edges:
        graph.relabel_edge(data.draw(st.sampled_from(graph.edge_ids())),
                           data.draw(st.sampled_from(("r", "s"))))
    elif action == "remove_edge" and graph.num_edges:
        graph.remove_edge(data.draw(st.sampled_from(graph.edge_ids())))
    elif action == "update":
        graph.update_node(data.draw(st.sampled_from(node_ids)),
                          {"value": data.draw(st.sampled_from((0, 1, 2)))})


class TestCompletenessOracle:
    @given(graph_spec=graph_specs(), pattern_spec=pattern_specs(),
           placement=st.permutations(range(6)), data=st.data())
    # a self-loop pattern edge next to a parallel edge-variable pair whose
    # witnesses must differ, on a data self-loop and a parallel pair
    @example(graph_spec=([("A", 1, 1), ("A", 1, 2)],
                         [(0, 0, "r", [0]), (0, 1, "r", [1, 2])]),
             pattern_spec=([("A", 0), ("A", 0)],
                           [(0, 1, "r", True, 0), (0, 0, "r", False, 0),
                            (0, 1, "r", True, 0)],
                           [("edge-ge", 0, 0), ("same-name", 0, 1)]),
             placement=None, data=None)
    # a comparison over seeded variables only: no step evaluates it, so a
    # seeded search must check it when the assignment completes
    @example(graph_spec=([("A", 0, 1), ("A", 0, 2)], [(0, 1, "r", [0])]),
             pattern_spec=([("A", 0), ("A", 0)], [(0, 1, "r", False, 0)],
                           [("literal", 0, 0)]),
             placement=None, data=None)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matchers_find_exactly_the_brute_force_bindings(
            self, graph_spec, pattern_spec, placement, data):
        graph = build_graph(graph_spec)
        pattern = build_pattern(pattern_spec)
        if placement is not None:
            plant(graph, pattern, placement)
        index = CandidateIndex(graph)
        index.attach()
        if data is not None:
            for _ in range(data.draw(st.integers(0, 2))):
                _edit(graph, data)
        matchers = {
            "index-free": VF2Matcher(graph=graph, candidate_index=None,
                                     use_decomposition=False),
            "index-free, decomposed": VF2Matcher(graph=graph, candidate_index=None),
            "indexed, static order": VF2Matcher(graph=graph, candidate_index=index,
                                                use_cost_planner=False),
            "indexed, planned": VF2Matcher(graph=graph, candidate_index=index),
        }
        expected = _brute_force(graph, pattern)
        for name, matcher in matchers.items():
            assert _bindings(matcher, pattern) == expected, name
        for seed in _seeds(graph, pattern):
            seeded = {bindings for bindings in expected
                      if all((variable, node_id) in bindings
                             for variable, node_id in seed.items())}
            for name, matcher in matchers.items():
                assert _bindings(matcher, pattern, seed) == seeded, (name, seed)
        index.detach()
