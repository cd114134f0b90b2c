"""Property-based tests (hypothesis) for the core data structures and invariants.

Covered invariants:

* property-graph mutations keep the internal indexes consistent with a
  recomputed ground truth, and JSON serialisation round-trips;
* the optimised matchers (index / decomposition) agree with the naive matcher
  and with the declarative ``check_match`` oracle on random graphs;
* incremental match maintenance agrees with from-scratch re-enumeration after
  random mutation batches;
* the pruned enumeration (signature-aware roots, parallel-edge multiplicity,
  same-key self-joins) finds exactly the naive matcher's matches, unseeded
  and from fully-bound seeds, on multigraphs with parallel edges, parallel
  pattern edges whose predicates may differ, edge-variable comparisons, and
  duplicate, missing and list-valued properties; every match re-verifies
  (``Match.is_valid``) against its bound edges;
* a closed existence probe (every node variable bound, no edge
  variables), answered by direct witness lookups, agrees with the
  ``check_match`` oracle and with the seeded search, on multigraphs with
  self-loops, parallel edges and edge predicates and on bindings to absent,
  repeated and wrongly-labelled nodes; every other probe searches; and the
  stock incompleteness rules probe only by the closed path;
* repairing random corrupted graphs of every domain (kg, movies, social)
  reaches a violation-free fixpoint, never lowers quality below the
  do-nothing baseline, and the fast and naive algorithms agree on the
  resulting facts.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pytest

from repro.api import RepairConfig, repair_copy
from repro.datasets import build_workload
from repro.graph import ChangeRecorder, PropertyGraph, loads_json, dumps_json
from repro.matching import (
    CandidateIndex,
    IncrementalMatcher,
    Comparison,
    ComparisonOp,
    Matcher,
    MatcherConfig,
    Pattern,
    PatternEdge,
    PatternNode,
    VF2Matcher,
    eq,
    exists,
    same_value,
    value_is,
)
from repro.metrics import graph_facts, repair_quality
from repro.repair import detect_violations

NODE_LABELS = ("A", "B", "C")
EDGE_LABELS = ("r", "s")


@st.composite
def random_graphs(draw, max_nodes: int = 12, max_edges: int = 24) -> PropertyGraph:
    """Small random labelled multigraphs."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    labels = draw(st.lists(st.sampled_from(NODE_LABELS), min_size=num_nodes,
                           max_size=num_nodes))
    graph = PropertyGraph(name="random")
    node_ids = [graph.add_node(label, {"value": index % 3}).id
                for index, label in enumerate(labels)]
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    for _ in range(num_edges):
        source = draw(st.sampled_from(node_ids))
        target = draw(st.sampled_from(node_ids))
        label = draw(st.sampled_from(EDGE_LABELS))
        graph.add_edge(source, target, label)
    return graph


@st.composite
def random_patterns(draw, max_variables: int = 3) -> Pattern:
    """Small connected random patterns over the same label alphabet."""
    num_variables = draw(st.integers(min_value=1, max_value=max_variables))
    nodes = []
    for index in range(num_variables):
        label = draw(st.sampled_from(NODE_LABELS + (None,)))
        nodes.append(PatternNode(f"v{index}", label))
    edges = []
    # chain edges guarantee connectivity; direction and label are random
    for index in range(1, num_variables):
        label = draw(st.sampled_from(EDGE_LABELS + (None,)))
        if draw(st.booleans()):
            edges.append(PatternEdge(f"v{index - 1}", f"v{index}", label))
        else:
            edges.append(PatternEdge(f"v{index}", f"v{index - 1}", label))
    # optionally one extra edge creating a cycle / parallel constraint
    if num_variables >= 2 and draw(st.booleans()):
        edges.append(PatternEdge("v0", f"v{num_variables - 1}",
                                 draw(st.sampled_from(EDGE_LABELS))))
    return Pattern(nodes=nodes, edges=edges, name="random-pattern")


class TestGraphInvariants:
    @given(graph=random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_label_indexes_match_recount(self, graph):
        recount_nodes = Counter(node.label for node in graph.nodes())
        for label, expected in recount_nodes.items():
            assert graph.count_nodes_with_label(label) == expected
        recount_edges = Counter(edge.label for edge in graph.edges())
        for label, expected in recount_edges.items():
            assert graph.count_edges_with_label(label) == expected
        total_out = sum(graph.out_degree(node_id) for node_id in graph.node_ids())
        assert total_out == graph.num_edges

    @given(graph=random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip(self, graph):
        assert loads_json(dumps_json(graph)).structurally_equal(graph)

    @given(graph=random_graphs(), data=st.data())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_node_removal_keeps_adjacency_consistent(self, graph, data):
        if graph.num_nodes == 0:
            return
        victim = data.draw(st.sampled_from(graph.node_ids()))
        graph.remove_node(victim)
        for edge in graph.edges():
            assert graph.has_node(edge.source) and graph.has_node(edge.target)
        assert victim not in graph


class TestMatcherEquivalence:
    @given(graph=random_graphs(), pattern=random_patterns())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_configurations_agree_and_satisfy_oracle(self, graph, pattern):
        naive = VF2Matcher(graph=graph, candidate_index=None, use_decomposition=False)
        expected = {match.key() for match in naive.find_matches(pattern)}

        index = CandidateIndex(graph)
        optimized = VF2Matcher(graph=graph, candidate_index=index, use_decomposition=True)
        actual = {match.key() for match in optimized.find_matches(pattern)}
        assert actual == expected

        for match in optimized.find_matches(pattern):
            assert pattern.check_match(graph, match.node_bindings)

    @given(graph=random_graphs(max_nodes=8, max_edges=14), pattern=random_patterns(),
           data=st.data())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_incremental_matches_equal_recomputation(self, graph, pattern, data):
        index = CandidateIndex(graph)
        index.attach()
        incremental = IncrementalMatcher(graph, candidate_index=index)
        store = incremental.register(pattern)
        recorder = ChangeRecorder()
        graph.add_listener(recorder)

        # a random batch of mutations
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            action = data.draw(st.sampled_from(["add_edge", "remove_edge", "add_node",
                                                "remove_node"]))
            if action == "add_edge" and graph.num_nodes:
                source = data.draw(st.sampled_from(graph.node_ids()))
                target = data.draw(st.sampled_from(graph.node_ids()))
                graph.add_edge(source, target, data.draw(st.sampled_from(EDGE_LABELS)))
            elif action == "remove_edge" and graph.num_edges:
                graph.remove_edge(data.draw(st.sampled_from(graph.edge_ids())))
            elif action == "add_node":
                graph.add_node(data.draw(st.sampled_from(NODE_LABELS)))
            elif action == "remove_node" and graph.num_nodes > 1:
                graph.remove_node(data.draw(st.sampled_from(graph.node_ids())))

        incremental.apply_delta(recorder.drain())
        fresh = {match.key()
                 for match in VF2Matcher(graph=graph).find_matches(pattern)}
        assert {match.key() for match in store} == fresh


# property values a node may carry under ``name``: None = absent; lists are
# unhashable (copied per node, so equal lists are distinct objects)
NAME_CHOICES = (None, "x", "y", ["l"], ["l"], ["m"])
# edge ``w`` values (None = absent) and the predicates a pattern edge may carry
WEIGHT_CHOICES = (None, 0, 1)
EDGE_PREDICATES = ((), (eq("w", 0),), (eq("w", 1),))


@st.composite
def multigraph_specs(draw):
    """``(nodes, edges)``: node ``(label, name index)`` pairs and edge
    ``(source, target, label, w indexes)`` tuples — one edge per ``w``
    index, so two or more make parallel same-label edges."""
    num_nodes = draw(st.integers(min_value=2, max_value=5))
    nodes = draw(st.lists(
        st.tuples(st.sampled_from(("A", "A", "B")),
                  st.integers(0, len(NAME_CHOICES) - 1)),
        min_size=num_nodes, max_size=num_nodes))
    edges = draw(st.lists(
        st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1),
                  st.sampled_from(("r", "r", "s")),
                  st.lists(st.integers(0, len(WEIGHT_CHOICES) - 1),
                           min_size=1, max_size=3)),
        max_size=8))
    return nodes, edges


@st.composite
def parallel_pattern_specs(draw):
    """``(labels, chain, group, self_join, edge_join)``: node labels of
    ``v0..vn``; chain edges ``(label, forward)`` joining ``v(i-1)`` and
    ``vi`` for i >= 2; a parallel group of edge-variable ``v0 -> v1`` edges
    as ``(label, predicate index)`` pairs (their predicates may differ);
    whether ``v0.name == v1.name`` is required; and whether ``e0.w >= e1.w``
    is (with two or more group edges)."""
    num_variables = draw(st.integers(min_value=2, max_value=3))
    labels = draw(st.lists(st.sampled_from(("A", "A", "B")),
                           min_size=num_variables, max_size=num_variables))
    chain = draw(st.lists(st.tuples(st.sampled_from(EDGE_LABELS), st.booleans()),
                          min_size=num_variables - 2,
                          max_size=num_variables - 2))
    group_label = draw(st.sampled_from(("r", "r", "s")))
    group = draw(st.lists(st.integers(0, len(EDGE_PREDICATES) - 1),
                          min_size=1, max_size=3))
    self_join = draw(st.booleans())
    edge_join = draw(st.booleans())
    return (labels, chain, [(group_label, index) for index in group], self_join,
            edge_join)


def build_multigraph(spec) -> PropertyGraph:
    nodes, edges = spec
    graph = PropertyGraph(name="multigraph")
    ids = []
    for label, name_index in nodes:
        name = NAME_CHOICES[name_index]
        properties = {} if name is None else {
            "name": list(name) if isinstance(name, list) else name}
        ids.append(graph.add_node(label, properties).id)
    for source, target, label, weight_indexes in edges:
        for weight_index in weight_indexes:
            weight = WEIGHT_CHOICES[weight_index]
            graph.add_edge(ids[source], ids[target], label,
                           {} if weight is None else {"w": weight})
    return graph


def build_parallel_pattern(spec) -> Pattern:
    labels, chain, group, self_join, edge_join = spec
    nodes = [PatternNode(f"v{index}", label) for index, label in enumerate(labels)]
    edges = [PatternEdge("v0", "v1", label, variable=f"e{index}",
                         predicates=EDGE_PREDICATES[predicate_index])
             for index, (label, predicate_index) in enumerate(group)]
    for index, (label, forward) in enumerate(chain, start=2):
        source, target = (f"v{index - 1}", f"v{index}") if forward else \
            (f"v{index}", f"v{index - 1}")
        edges.append(PatternEdge(source, target, label))
    comparisons = [same_value("v0", "name", "v1")] if self_join else []
    if edge_join and len(group) >= 2:
        comparisons.append(Comparison(("e0", "w"), ComparisonOp.GE, ("e1", "w")))
    return Pattern(nodes=nodes, edges=edges, comparisons=comparisons,
                   name="parallel-pattern")


def _assert_pruned_equals_naive(graph: PropertyGraph, pattern: Pattern,
                                index: CandidateIndex) -> None:
    naive = VF2Matcher(graph=graph, candidate_index=None, use_decomposition=False)
    expected = naive.find_matches(pattern)
    pruned = VF2Matcher(graph=graph, candidate_index=index)
    assert {match.key() for match in pruned.find_matches(pattern)} == \
        {match.key() for match in expected}
    # a yielded match re-verifies against its own bound edges, and its node
    # bindings satisfy the reference check with some choice of witnesses
    assert all(match.is_valid(graph) and pattern.check_match(graph, match.node_bindings)
               for match in expected)
    # fully-bound probes: every match's node bindings as the seed
    for match in expected:
        probed = pruned.find_matches(pattern, seed=match.node_bindings)
        assert match.key() in {found.key() for found in probed}


class TestPrunedEnumerationEquivalence:
    """The candidate prunings only skip candidates that cannot complete a
    match: index + planner enumeration equals the naive matcher, on a fresh
    index and on one maintained through further edits."""

    @given(graph_spec=multigraph_specs(), pattern_spec=parallel_pattern_specs(),
           data=st.data())
    # a match whose parallel pattern edges carry different predicates (one
    # witness each), and a same-key self-join over equal list values
    @example(graph_spec=([("A", 0), ("B", 0)], [(0, 1, "r", [2, 1])]),
             pattern_spec=(["A", "B"], [], [("r", 2), ("r", 0)], False, False),
             data=None)
    @example(graph_spec=([("A", 3), ("A", 4), ("A", 5)], [(0, 1, "r", [0])]),
             pattern_spec=(["A", "A"], [], [("r", 0)], True, False),
             data=None)
    # an edge-variable comparison that only a non-first parallel witness
    # satisfies: re-verification must read the bound edge
    @example(graph_spec=([("A", 0), ("B", 0)], [(0, 1, "r", [0, 2, 1])]),
             pattern_spec=(["A", "B"], [], [("r", 0), ("r", 0)], False, True),
             data=None)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_pruned_enumeration_equals_naive(self, graph_spec, pattern_spec, data):
        graph = build_multigraph(graph_spec)
        pattern = build_parallel_pattern(pattern_spec)
        index = CandidateIndex(graph)
        index.attach()
        _assert_pruned_equals_naive(graph, pattern, index)
        if data is None:
            return
        # edits that move degrees and shared value buckets: duplicate or
        # drop an edge, rename a node (lists included), relabel a node
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            action = data.draw(st.sampled_from(
                ["duplicate_edge", "remove_edge", "rename", "relabel"]))
            if action == "duplicate_edge" and graph.num_edges:
                edge = graph.edge(data.draw(st.sampled_from(graph.edge_ids())))
                graph.add_edge(edge.source, edge.target, edge.label,
                               dict(edge.properties))
            elif action == "remove_edge" and graph.num_edges:
                graph.remove_edge(data.draw(st.sampled_from(graph.edge_ids())))
            elif action == "rename":
                node_id = data.draw(st.sampled_from(graph.node_ids()))
                name = NAME_CHOICES[data.draw(st.integers(0, len(NAME_CHOICES) - 1))]
                if name is None:
                    graph.update_node(node_id, remove_keys=("name",))
                else:
                    graph.update_node(node_id, {
                        "name": list(name) if isinstance(name, list) else name})
            elif action == "relabel":
                graph.relabel_node(data.draw(st.sampled_from(graph.node_ids())),
                                   data.draw(st.sampled_from(("A", "B"))))
        assert index.check_degree_integrity()
        assert index.check_value_integrity()
        _assert_pruned_equals_naive(graph, pattern, index)
        index.detach()


# the unary predicates a missing-pattern node may carry: ``exists("name")``
# is the shape ``RuleBuilder.missing_property`` builds
NODE_PREDICATES = ((), (exists("name"),), (eq("name", "x"),))
# an id no graph holds, bound to probe absent nodes
ABSENT = "absent-node"


@st.composite
def closed_probe_specs(draw):
    """``(nodes, edges, comparisons, bound, extra)`` of one missing pattern
    and its probe: node ``(label, predicate index)`` pairs of ``v0..vn``;
    edges ``(source, target, label, predicate index, edge variable?)``, a
    chain that keeps the pattern connected, then self-loops and parallel
    edges; comparison kinds; the node index (or None for an absent id) bound
    to each variable, or ``"free"`` for a variable left to the search; and
    whether the bindings carry a variable the pattern does not declare."""
    num_variables = draw(st.integers(min_value=1, max_value=3))
    nodes = draw(st.lists(
        st.tuples(st.sampled_from(("A", "B", None)),
                  st.integers(0, len(NODE_PREDICATES) - 1)),
        min_size=num_variables, max_size=num_variables))
    edge = st.tuples(st.sampled_from(("r", "s", None)),
                     st.integers(0, len(EDGE_PREDICATES) - 1))
    edges = []
    for index in range(1, num_variables):
        label, predicate = draw(edge)
        ends = (index - 1, index) if draw(st.booleans()) else (index, index - 1)
        edges.append((*ends, label, predicate))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        label, predicate = draw(edge)
        if draw(st.booleans()):  # a self-loop
            variable = draw(st.integers(0, num_variables - 1))
            edges.append((variable, variable, label, predicate))
        elif edges:  # parallel to an earlier edge, predicates may differ
            source, target, _, _ = draw(st.sampled_from(edges))
            edges.append((source, target, label, predicate))
    with_edge_variable = bool(edges) and draw(st.integers(0, 4)) == 0
    edges = [(*spec, with_edge_variable and index == 0)
             for index, spec in enumerate(edges)]
    comparisons = draw(st.lists(st.sampled_from(("same-name", "name-is-x")),
                                max_size=2))
    bound = draw(st.lists(
        st.one_of(st.none(), st.integers(0, 4),
                  st.just("free") if num_variables > 1 else st.nothing()),
        min_size=num_variables, max_size=num_variables))
    return nodes, edges, comparisons, bound, draw(st.booleans())


def build_missing_pattern(spec) -> Pattern:
    nodes, edges, comparisons, _, _ = spec
    pattern_comparisons = []
    for kind in comparisons:
        if kind == "same-name" and len(nodes) > 1:
            pattern_comparisons.append(same_value("v0", "name", f"v{len(nodes) - 1}"))
        elif kind == "name-is-x":
            pattern_comparisons.append(value_is("v0", "name", "x"))
    return Pattern(
        nodes=[PatternNode(f"v{index}", label, NODE_PREDICATES[predicate])
               for index, (label, predicate) in enumerate(nodes)],
        edges=[PatternEdge(f"v{source}", f"v{target}", label,
                           variable="e0" if edge_variable else None,
                           predicates=EDGE_PREDICATES[predicate])
               for source, target, label, predicate, edge_variable in edges],
        comparisons=pattern_comparisons, name="missing-pattern")


def probe_bindings(spec, graph: PropertyGraph) -> dict[str, str]:
    """The probe's bindings: node ids by index (repeats allowed), an absent
    id for None, no binding for a free variable, and optionally one binding
    for a variable the pattern does not declare."""
    _, _, _, bound, extra = spec
    ids = graph.node_ids()
    bindings = {f"v{variable}": ABSENT if choice is None else ids[choice % len(ids)]
                for variable, choice in enumerate(bound) if choice != "free"}
    if extra:
        bindings["evidence-only"] = ids[0]
    return bindings


class TestClosedProbes:
    """A closed probe answers by lookups what the seeded search answers by
    searching: same result, same ``matches_found``, no nodes tried."""

    @given(graph_spec=multigraph_specs(), probe_spec=closed_probe_specs())
    # a self-loop that only a parallel loop with the right weight witnesses
    @example(graph_spec=([("A", 1), ("B", 0)], [(0, 0, "r", [0, 2]), (0, 1, "s", [0])]),
             probe_spec=([("A", 1), ("B", 0)],
                         [(0, 1, "s", 0, False), (0, 0, "r", 2, False)],
                         ["name-is-x"], [0, 1], False))
    # two variables bound to one node, and a wrongly-labelled binding
    @example(graph_spec=([("A", 1), ("B", 1)], [(0, 0, "r", [0])]),
             probe_spec=([("A", 0), ("A", 1)], [(0, 1, None, 0, False)],
                         ["same-name"], [0, 0], True))
    @example(graph_spec=([("A", 1), ("B", 1)], [(0, 1, "r", [0])]),
             probe_spec=([("A", 0), ("A", 0)], [(0, 1, "r", 0, False)],
                         [], [0, 1], False))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_closed_probe_equals_oracle_and_seeded_search(self, graph_spec,
                                                          probe_spec):
        graph = build_multigraph(graph_spec)
        pattern = build_missing_pattern(probe_spec)
        bindings = probe_bindings(probe_spec, graph)
        seed = {variable: node_id for variable, node_id in bindings.items()
                if pattern.has_variable(variable)}
        searched = VF2Matcher(graph=graph).find_one(pattern, seed=seed) is not None
        closed = (not pattern.edge_variables
                  and len(seed) == len(pattern.nodes))
        for index in (None, CandidateIndex(graph)):
            matcher = VF2Matcher(graph=graph, candidate_index=index)
            answer = matcher.exists_extension(pattern, bindings)
            assert answer == searched
            stats = matcher.stats
            assert stats.matches_found == int(answer)
            if closed:
                assert answer == pattern.check_match(graph, seed)
                assert (stats.closed_probes, stats.nodes_tried) == (1, 0)
                assert stats.planner_plans == 0
            else:
                assert stats.closed_probes == 0

    @pytest.mark.parametrize("domain, scale, expected", [
        # (repairs applied, violations detected, seeded searches,
        #  nodes tried, matches found), as the seeded-search probes gave
        ("kg", 60, (21, 38, 23, 304, 179)),
        ("social", 50, (46, 110, 55, 641, 467)),
    ])
    def test_stock_rules_probe_only_closed(self, monkeypatch, domain, scale,
                                           expected):
        workload = build_workload(domain, scale=scale, error_rate=0.08, seed=3)
        missing = {rule.missing.name for rule in workload.rules
                   if rule.missing is not None}
        assert missing
        probes = []
        exists_extension = VF2Matcher.exists_extension

        def counting(matcher, pattern, bindings):
            probes.append(pattern.name)
            return exists_extension(matcher, pattern, bindings)

        monkeypatch.setattr(VF2Matcher, "exists_extension", counting)
        _, report = repair_copy(workload.dirty, workload.rules, RepairConfig.fast())
        stats = report.matching_stats
        assert report.reached_fixpoint and report.remaining_violations == 0
        assert (report.repairs_applied, report.violations_detected,
                report.seeded_searches, stats.nodes_tried,
                stats.matches_found) == expected
        assert set(probes) == missing
        assert stats.closed_probes == len(probes)
        # no plan is built for a missing pattern
        assert not missing & set(stats.planner_orders)


class TestRepairInvariants:
    @given(domain=st.sampled_from(["kg", "movies", "social"]),
           seed=st.integers(min_value=0, max_value=10_000),
           error_rate=st.sampled_from([0.03, 0.08, 0.15]))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_repairing_random_corruptions_restores_consistency(self, domain, seed,
                                                               error_rate):
        workload = build_workload(domain, scale=25, error_rate=error_rate, seed=seed)
        rules, clean, dirty = workload.rules, workload.clean, workload.dirty
        truth = workload.ground_truth

        fast_repaired, fast_report = repair_copy(dirty, rules, RepairConfig.fast())
        assert fast_report.reached_fixpoint
        assert len(detect_violations(fast_repaired, rules)) == 0

        quality = repair_quality(clean, dirty, fast_repaired, truth)
        baseline = repair_quality(clean, dirty, dirty.copy(), truth)
        assert quality.recall >= baseline.recall
        assert quality.precision >= 0.5

        naive_repaired, _ = repair_copy(dirty, rules, RepairConfig.naive())
        assert graph_facts(naive_repaired) == graph_facts(fast_repaired)
