"""Property-based tests (hypothesis) for the core data structures and invariants.

Covered invariants:

* property-graph mutations keep the internal indexes consistent with a
  recomputed ground truth, and JSON serialisation round-trips;
* the optimised matchers (index / decomposition) agree with the naive matcher
  and with the declarative ``check_match`` oracle on random graphs;
* incremental match maintenance agrees with from-scratch re-enumeration after
  random mutation batches;
* repairing random corrupted graphs of every domain (kg, movies, social)
  reaches a violation-free fixpoint, never lowers quality below the
  do-nothing baseline, and the fast and naive algorithms agree on the
  resulting facts.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RepairConfig, repair_copy
from repro.datasets import build_workload
from repro.graph import ChangeRecorder, PropertyGraph, loads_json, dumps_json
from repro.matching import (
    CandidateIndex,
    IncrementalMatcher,
    Matcher,
    MatcherConfig,
    Pattern,
    PatternEdge,
    PatternNode,
    VF2Matcher,
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
