"""Unit tests for the property-graph core (nodes, edges, mutations, merge)."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    DuplicateElementError,
    EdgeNotFoundError,
    GraphMutationError,
    NodeNotFoundError,
)
from repro.graph import (
    ChangeKind,
    ChangeRecorder,
    PropertyGraph,
    graph_from_dict,
    graph_to_dict,
    replay_delta,
)


class TestNodeBasics:
    def test_add_node_assigns_fresh_ids(self, empty_graph):
        first = empty_graph.add_node("Person")
        second = empty_graph.add_node("Person")
        assert first.id != second.id
        assert empty_graph.num_nodes == 2

    def test_add_node_with_explicit_id(self, empty_graph):
        node = empty_graph.add_node("Person", node_id="alice")
        assert node.id == "alice"
        assert empty_graph.node("alice").label == "Person"

    def test_add_node_duplicate_id_rejected(self, empty_graph):
        empty_graph.add_node("Person", node_id="alice")
        with pytest.raises(DuplicateElementError):
            empty_graph.add_node("Person", node_id="alice")

    def test_generated_ids_avoid_existing_ones(self, empty_graph):
        empty_graph.add_node("Person", node_id="n0")
        node = empty_graph.add_node("Person")
        assert node.id != "n0"

    def test_node_properties_are_copied(self, empty_graph):
        properties = {"name": "Ada"}
        node = empty_graph.add_node("Person", properties)
        properties["name"] = "changed"
        assert node.properties["name"] == "Ada"

    def test_missing_node_raises(self, empty_graph):
        with pytest.raises(NodeNotFoundError):
            empty_graph.node("nope")

    def test_contains_and_has_node(self, empty_graph):
        node = empty_graph.add_node("Person")
        assert node.id in empty_graph
        assert empty_graph.has_node(node.id)
        assert not empty_graph.has_node("ghost")

    def test_nodes_with_label_uses_index(self, empty_graph):
        empty_graph.add_node("Person", node_id="p1")
        empty_graph.add_node("City", node_id="c1")
        empty_graph.add_node("Person", node_id="p2")
        assert {node.id for node in empty_graph.nodes_with_label("Person")} == {"p1", "p2"}
        assert empty_graph.count_nodes_with_label("City") == 1
        assert empty_graph.count_nodes_with_label("Ghost") == 0


class TestEdgeBasics:
    def test_add_edge_requires_endpoints(self, empty_graph):
        node = empty_graph.add_node("Person")
        with pytest.raises(NodeNotFoundError):
            empty_graph.add_edge(node.id, "ghost", "knows")

    def test_add_edge_and_adjacency(self, empty_graph):
        a = empty_graph.add_node("Person")
        b = empty_graph.add_node("Person")
        edge = empty_graph.add_edge(a.id, b.id, "knows")
        assert empty_graph.out_degree(a.id) == 1
        assert empty_graph.in_degree(b.id) == 1
        assert empty_graph.successors(a.id) == {b.id}
        assert empty_graph.predecessors(b.id) == {a.id}
        assert [e.id for e in empty_graph.out_edges(a.id)] == [edge.id]

    def test_parallel_edges_are_allowed(self, empty_graph):
        a = empty_graph.add_node("Person")
        b = empty_graph.add_node("City")
        empty_graph.add_edge(a.id, b.id, "livesIn")
        empty_graph.add_edge(a.id, b.id, "livesIn")
        assert len(empty_graph.edges_between(a.id, b.id, "livesIn")) == 2

    def test_edges_between_filters_by_label(self, empty_graph):
        a = empty_graph.add_node("Person")
        b = empty_graph.add_node("City")
        empty_graph.add_edge(a.id, b.id, "livesIn")
        empty_graph.add_edge(a.id, b.id, "bornIn")
        assert len(empty_graph.edges_between(a.id, b.id)) == 2
        assert len(empty_graph.edges_between(a.id, b.id, "bornIn")) == 1
        assert empty_graph.has_edge_between(a.id, b.id, "bornIn")
        assert not empty_graph.has_edge_between(b.id, a.id, "bornIn")

    def test_remove_edge(self, empty_graph):
        a = empty_graph.add_node("Person")
        b = empty_graph.add_node("Person")
        edge = empty_graph.add_edge(a.id, b.id, "knows")
        removed = empty_graph.remove_edge(edge.id)
        assert removed.id == edge.id
        assert empty_graph.num_edges == 0
        assert empty_graph.degree(a.id) == 0
        with pytest.raises(EdgeNotFoundError):
            empty_graph.edge(edge.id)

    def test_self_loop_counts_once_in_incident_edges(self, empty_graph):
        a = empty_graph.add_node("Person")
        empty_graph.add_edge(a.id, a.id, "follows")
        assert len(empty_graph.incident_edges(a.id)) == 1
        assert empty_graph.degree(a.id) == 2  # out + in
        assert empty_graph.neighbors(a.id) == set()

    def test_edge_labels_index(self, empty_graph):
        a = empty_graph.add_node("A")
        b = empty_graph.add_node("B")
        empty_graph.add_edge(a.id, b.id, "r")
        empty_graph.add_edge(b.id, a.id, "s")
        assert empty_graph.edge_labels() == {"r", "s"}
        assert empty_graph.count_edges_with_label("r") == 1


class TestRemoveNode:
    def test_remove_node_removes_incident_edges(self, empty_graph):
        a = empty_graph.add_node("Person")
        b = empty_graph.add_node("Person")
        c = empty_graph.add_node("Person")
        empty_graph.add_edge(a.id, b.id, "knows")
        empty_graph.add_edge(c.id, a.id, "knows")
        empty_graph.add_edge(b.id, c.id, "knows")
        empty_graph.remove_node(a.id)
        assert empty_graph.num_nodes == 2
        assert empty_graph.num_edges == 1
        assert not empty_graph.has_node(a.id)

    def test_remove_node_updates_label_index(self, empty_graph):
        node = empty_graph.add_node("Person")
        empty_graph.remove_node(node.id)
        assert empty_graph.count_nodes_with_label("Person") == 0


class TestUpdateAndRelabel:
    def test_update_node_sets_and_removes(self, empty_graph):
        node = empty_graph.add_node("Person", {"name": "Ada", "age": 36})
        empty_graph.update_node(node.id, {"name": "Ada L."}, remove_keys=["age"])
        assert empty_graph.node(node.id).properties == {"name": "Ada L."}

    def test_update_edge_properties(self, empty_graph):
        a = empty_graph.add_node("A")
        b = empty_graph.add_node("B")
        edge = empty_graph.add_edge(a.id, b.id, "r", {"weight": 1})
        empty_graph.update_edge(edge.id, {"weight": 2, "source": "import"})
        assert empty_graph.edge(edge.id).properties["weight"] == 2

    def test_relabel_node_moves_label_buckets(self, empty_graph):
        node = empty_graph.add_node("Person")
        empty_graph.relabel_node(node.id, "Author")
        assert empty_graph.count_nodes_with_label("Person") == 0
        assert empty_graph.count_nodes_with_label("Author") == 1
        assert empty_graph.node(node.id).label == "Author"

    def test_relabel_edge_moves_label_buckets(self, empty_graph):
        a = empty_graph.add_node("A")
        b = empty_graph.add_node("B")
        edge = empty_graph.add_edge(a.id, b.id, "knows")
        empty_graph.relabel_edge(edge.id, "follows")
        assert empty_graph.count_edges_with_label("knows") == 0
        assert empty_graph.count_edges_with_label("follows") == 1


class TestMergeNodes:
    def _two_people_with_city(self):
        graph = PropertyGraph()
        a = graph.add_node("Person", {"name": "Ada", "birthYear": 1815})
        b = graph.add_node("Person", {"name": "Ada", "nickname": "Lady"})
        city = graph.add_node("City", {"name": "London"})
        graph.add_edge(a.id, city.id, "bornIn")
        graph.add_edge(b.id, city.id, "bornIn")
        graph.add_edge(b.id, city.id, "livesIn")
        return graph, a, b, city

    def test_merge_redirects_and_dedupes_edges(self):
        graph, a, b, city = self._two_people_with_city()
        graph.merge_nodes(a.id, b.id)
        assert not graph.has_node(b.id)
        # the duplicate bornIn edge is dropped, livesIn is redirected
        assert len(graph.edges_between(a.id, city.id, "bornIn")) == 1
        assert len(graph.edges_between(a.id, city.id, "livesIn")) == 1

    def test_merge_unions_properties_prefers_kept(self):
        graph, a, b, _ = self._two_people_with_city()
        graph.merge_nodes(a.id, b.id)
        node = graph.node(a.id)
        assert node.properties["birthYear"] == 1815
        assert node.properties["nickname"] == "Lady"

    def test_merge_incoming_edges_are_redirected(self):
        graph = PropertyGraph()
        a = graph.add_node("Person")
        b = graph.add_node("Person")
        fan = graph.add_node("Person")
        graph.add_edge(fan.id, b.id, "follows")
        graph.merge_nodes(a.id, b.id)
        assert graph.has_edge_between(fan.id, a.id, "follows")

    def test_merge_into_itself_is_rejected(self, empty_graph):
        node = empty_graph.add_node("Person")
        with pytest.raises(GraphMutationError):
            empty_graph.merge_nodes(node.id, node.id)


class TestCopySubgraphNeighborhood:
    def test_copy_is_deep_and_equal(self, tiny_kg):
        clone = tiny_kg.copy()
        assert clone.structurally_equal(tiny_kg)
        clone.add_node("Person", {"name": "New"})
        assert clone.num_nodes == tiny_kg.num_nodes + 1

    def test_subgraph_keeps_internal_edges_only(self, triangle_graph):
        ids = triangle_graph.node_ids()[:2]
        sub = triangle_graph.subgraph(ids)
        assert sub.num_nodes == 2
        assert sub.num_edges == 1

    def test_neighborhood_expands_by_hops(self, triangle_graph):
        start = triangle_graph.node_ids()[0]
        assert triangle_graph.neighborhood([start], hops=0) == {start}
        assert len(triangle_graph.neighborhood([start], hops=1)) == 3

    def test_size_counts_nodes_and_edges(self, triangle_graph):
        assert triangle_graph.size() == 6
        assert len(triangle_graph) == 6

    def test_subgraph_iterates_in_insertion_order(self, tiny_kg):
        keep = set(tiny_kg.node_ids()[2:7])
        sub = tiny_kg.subgraph(keep)
        order_in_parent = [nid for nid in tiny_kg.node_ids() if nid in keep]
        assert sub.node_ids() == order_in_parent

    def test_subgraph_with_namespace_prefixes_new_ids(self, tiny_kg):
        sub = tiny_kg.subgraph(tiny_kg.node_ids()[:3], id_namespace="s2")
        node = sub.add_node("Person")
        edge = sub.add_edge(node.id, sub.node_ids()[0], "knows")
        assert node.id.startswith("s2:n") and edge.id.startswith("s2:e")

    def test_subgraph_missing_node_raises(self, tiny_kg):
        with pytest.raises(NodeNotFoundError):
            tiny_kg.subgraph(["nope"])


class TestPerLabelAdjacencyBuckets:
    """The per-label adjacency index must agree with a filter over the full
    adjacency after every mutation kind that can move edges around."""

    def _assert_buckets_consistent(self, graph):
        for node in graph.nodes():
            for label in {edge.label for edge in graph.out_edges(node.id)} | {None}:
                if label is None:
                    continue
                expected = [e.id for e in graph.out_edges(node.id)
                            if e.label == label]
                assert sorted(graph.out_edge_ids_with_label(node.id, label)) \
                    == sorted(expected)
            for label in {edge.label for edge in graph.in_edges(node.id)}:
                expected = [e.id for e in graph.in_edges(node.id)
                            if e.label == label]
                assert sorted(graph.in_edge_ids_with_label(node.id, label)) \
                    == sorted(expected)

    def test_add_and_remove_edge(self, tiny_kg):
        self._assert_buckets_consistent(tiny_kg)
        person = tiny_kg.nodes_with_label("Person")[0]
        city = tiny_kg.nodes_with_label("City")[0]
        edge = tiny_kg.add_edge(person.id, city.id, "visited")
        assert list(tiny_kg.out_edge_ids_with_label(person.id, "visited")) \
            == [edge.id]
        tiny_kg.remove_edge(edge.id)
        assert not tiny_kg.out_edge_ids_with_label(person.id, "visited")
        self._assert_buckets_consistent(tiny_kg)

    def test_relabel_edge_moves_buckets(self, tiny_kg):
        edge = next(iter(tiny_kg.edges_with_label("livesIn")))
        tiny_kg.relabel_edge(edge.id, "residesIn")
        assert edge.id in tiny_kg.out_edge_ids_with_label(edge.source, "residesIn")
        assert edge.id not in tiny_kg.out_edge_ids_with_label(edge.source, "livesIn")
        assert edge.id in tiny_kg.in_edge_ids_with_label(edge.target, "residesIn")
        self._assert_buckets_consistent(tiny_kg)

    def test_remove_node_clears_buckets(self, tiny_kg):
        person = tiny_kg.nodes_with_label("Person")[0]
        tiny_kg.remove_node(person.id)
        self._assert_buckets_consistent(tiny_kg)
        assert not tiny_kg.out_edge_ids_with_label(person.id, "bornIn")

    def test_merge_nodes_rebuckets_redirected_edges(self, tiny_kg):
        persons = tiny_kg.nodes_with_label("Person")
        keep, merge = persons[0], persons[1]
        tiny_kg.merge_nodes(keep.id, merge.id)
        self._assert_buckets_consistent(tiny_kg)

    def test_labeled_views_match_list_accessors(self, tiny_kg):
        for node in tiny_kg.nodes():
            for edge in tiny_kg.out_edges(node.id):
                listed = [e.id for e in
                          tiny_kg.out_edges_with_label(node.id, edge.label)]
                assert sorted(tiny_kg.out_edge_ids_with_label(node.id, edge.label)) \
                    == listed


class TestNetworkxConversion:
    def test_round_trip_through_networkx(self, tiny_kg):
        nx_graph = tiny_kg.to_networkx()
        back = PropertyGraph.from_networkx(nx_graph, name="back")
        assert back.num_nodes == tiny_kg.num_nodes
        assert back.num_edges == tiny_kg.num_edges
        assert back.node_labels() == tiny_kg.node_labels()
        assert back.edge_labels() == tiny_kg.edge_labels()


class TestChangeEvents:
    def test_every_mutation_emits_a_change(self, empty_graph):
        recorder = ChangeRecorder()
        empty_graph.add_listener(recorder)
        a = empty_graph.add_node("Person")
        b = empty_graph.add_node("Person")
        edge = empty_graph.add_edge(a.id, b.id, "knows")
        empty_graph.update_node(a.id, {"name": "Ada"})
        empty_graph.relabel_edge(edge.id, "follows")
        empty_graph.remove_edge(edge.id)
        empty_graph.remove_node(b.id)
        kinds = [change.kind for change in recorder.delta]
        assert kinds == [
            ChangeKind.ADD_NODE, ChangeKind.ADD_NODE, ChangeKind.ADD_EDGE,
            ChangeKind.UPDATE_NODE, ChangeKind.RELABEL_EDGE,
            ChangeKind.REMOVE_EDGE, ChangeKind.REMOVE_NODE,
        ]

    def test_listener_can_be_removed(self, empty_graph):
        recorder = ChangeRecorder()
        empty_graph.add_listener(recorder)
        empty_graph.add_node("Person")
        empty_graph.remove_listener(recorder)
        empty_graph.add_node("Person")
        assert len(recorder.delta) == 1

    def test_merge_emits_single_merge_change_with_details(self, empty_graph):
        a = empty_graph.add_node("Person")
        b = empty_graph.add_node("Person")
        c = empty_graph.add_node("City")
        empty_graph.add_edge(b.id, c.id, "bornIn")
        recorder = ChangeRecorder()
        empty_graph.add_listener(recorder)
        empty_graph.merge_nodes(a.id, b.id)
        merges = [change for change in recorder.delta
                  if change.kind == ChangeKind.MERGE_NODES]
        assert len(merges) == 1
        assert merges[0].details["merged"] == b.id
        assert merges[0].details["added_edges"]


    @pytest.mark.parametrize("build", [
        lambda graph: graph.copy(),
        lambda graph: graph.subgraph(graph.node_ids()),
        lambda graph: graph_from_dict(graph_to_dict(graph), id_namespace="s0"),
    ], ids=["copy", "subgraph", "graph_from_dict"])
    def test_listener_attached_after_bulk_build_sees_every_mutation(
            self, tiny_kg, build):
        """A graph with no listeners builds no change records; one attached
        afterwards still sees every later mutation, completely enough to
        replay them onto an untouched copy."""
        built = build(tiny_kg)
        before = built.copy()
        recorder = ChangeRecorder()
        built.add_listener(recorder)
        a = built.add_node("Person", {"name": "A"})
        b = built.add_node("Person")
        c = built.add_node("City")
        edge = built.add_edge(a.id, b.id, "knows")
        built.update_node(a.id, {"name": "Ada"})
        built.update_edge(edge.id, {"since": 2001})
        built.relabel_node(b.id, "Agent")
        built.relabel_edge(edge.id, "follows")
        built.remove_edge(edge.id)
        built.add_edge(b.id, c.id, "livesIn")
        built.merge_nodes(a.id, b.id)
        built.remove_node(c.id)
        assert [change.kind for change in recorder.delta] == [
            ChangeKind.ADD_NODE, ChangeKind.ADD_NODE, ChangeKind.ADD_NODE,
            ChangeKind.ADD_EDGE, ChangeKind.UPDATE_NODE,
            ChangeKind.UPDATE_EDGE, ChangeKind.RELABEL_NODE,
            ChangeKind.RELABEL_EDGE, ChangeKind.REMOVE_EDGE,
            ChangeKind.ADD_EDGE, ChangeKind.MERGE_NODES,
            ChangeKind.REMOVE_NODE,
        ]
        replay_delta(before, recorder.delta)
        assert before.structurally_equal(built)


class TestSlottedElementsAndSignatureCache:
    """The graph core's scale posture: slotted records, interned strings,
    cached frozen signatures invalidated by every mutation path."""

    def test_elements_have_no_instance_dict(self, empty_graph):
        node = empty_graph.add_node("Person", {"name": "ada"})
        other = empty_graph.add_node("Person")
        edge = empty_graph.add_edge(node.id, other.id, "knows")
        assert not hasattr(node, "__dict__")
        assert not hasattr(edge, "__dict__")

    def test_labels_and_ids_are_interned(self, empty_graph):
        first = empty_graph.add_node("".join(["Per", "son"]))
        second = empty_graph.add_node("".join(["Pers", "on"]))
        assert first.label is second.label
        edge = empty_graph.add_edge(first.id, second.id, "knows")
        # edge endpoints reuse the node records' id strings
        assert edge.source is first.id
        assert edge.target is second.id

    def test_node_signature_cached_and_invalidated(self, empty_graph):
        node = empty_graph.add_node("Person", {"name": "ada"})
        before = node.signature()
        assert node.signature() is before  # cached, not recomputed
        empty_graph.update_node(node.id, {"name": "eve"})
        after = node.signature()
        assert after != before
        assert dict(after[1])["name"] == "eve"
        empty_graph.relabel_node(node.id, "Robot")
        assert node.signature()[0] == "Robot"

    def test_edge_signature_cached_and_invalidated(self, empty_graph):
        a = empty_graph.add_node("Person")
        b = empty_graph.add_node("Person")
        edge = empty_graph.add_edge(a.id, b.id, "knows", {"since": 1})
        before = edge.signature()
        assert edge.signature() is before
        empty_graph.update_edge(edge.id, {"since": 2})
        assert edge.signature() != before
        empty_graph.relabel_edge(edge.id, "met")
        assert edge.signature()[0] == "met"

    def test_merge_invalidates_kept_node_signature(self, empty_graph):
        keep = empty_graph.add_node("Person", {"name": "ada"})
        merge = empty_graph.add_node("Person", {"name": "ada", "age": 30})
        hub = empty_graph.add_node("City")
        empty_graph.add_edge(keep.id, hub.id, "bornIn")
        empty_graph.add_edge(merge.id, hub.id, "bornIn")
        before = keep.signature()
        empty_graph.merge_nodes(keep.id, merge.id)
        assert keep.signature() != before
        assert dict(keep.signature()[1])["age"] == 30

    def test_copies_do_not_share_signature_state(self, empty_graph):
        node = empty_graph.add_node("Person", {"name": "ada"})
        node.signature()
        clone = node.copy()
        assert clone.signature() == node.signature()
        assert clone == node
