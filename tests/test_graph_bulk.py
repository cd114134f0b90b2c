"""The bulk graph build and the columnar snapshot format.

Every whole-graph build — ``copy``, ``subgraph``, ``graph_from_dict`` and
the snapshot codec's ``decode_graph`` — goes through one bulk constructor,
``PropertyGraph._from_elements``.  Each must produce exactly the graph the
per-element build (``add_node`` / ``add_edge`` in row order) produces: the
same elements, the same iteration order of every store, adjacency dict,
label bucket and label index (the matcher walks them in that order), the
same next fresh ids, and the same errors on bad input.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.durability import codec
from repro.durability.snapshot import load_snapshot
from repro.exceptions import DuplicateElementError, NodeNotFoundError
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.property_graph import PropertyGraph

from graph_oracle import exactly_equal

FIXTURE_V1 = Path(__file__).parent / "fixtures" / "snapshot-v1.snap"


def per_element(nodes, edges, name="graph", id_namespace=None) -> PropertyGraph:
    """The reference build: one ``add_node`` / ``add_edge`` per row."""
    graph = PropertyGraph(name=name, id_namespace=id_namespace)
    for node_id, label, properties in nodes:
        graph.add_node(label, properties, node_id=node_id)
    for edge_id, source, target, label, properties in edges:
        graph.add_edge(source, target, label, properties, edge_id=edge_id)
    return graph


def node_rows(graph, keep=None):
    return [(node.id, node.label, dict(node.properties)) for node in graph.nodes()
            if keep is None or node.id in keep]


def edge_rows(edges):
    return [(edge.id, edge.source, edge.target, edge.label, dict(edge.properties))
            for edge in edges]


def layout(graph: PropertyGraph):
    """Everything whose iteration order the matcher or the codec observes."""
    return (list(graph.node_store), list(graph.edge_store),
            [(node_id, list(graph.out_edge_ids(node_id)),
              list(graph.in_edge_ids(node_id))) for node_id in graph.node_store],
            [(key, list(bucket)) for key, bucket in graph._out_by_label.items()],
            [(key, list(bucket)) for key, bucket in graph._in_by_label.items()],
            [(label, list(ids)) for label, ids in graph._nodes_by_label.items()],
            [(label, list(ids)) for label, ids in graph._edges_by_label.items()])


def assert_same_build(bulk: PropertyGraph, reference: PropertyGraph) -> None:
    assert exactly_equal(bulk, reference)
    assert (bulk.name, bulk.id_namespace) == (reference.name, reference.id_namespace)
    assert layout(bulk) == layout(reference)
    # the next fresh ids: the generators saw the same ids and counters
    for graph in (bulk, reference):
        first = graph.add_node("Fresh")
        graph.add_edge(first.id, first.id, "fresh")
    assert layout(bulk) == layout(reference)


# ---------------------------------------------------------------------------
# hypothesis multigraphs
# ---------------------------------------------------------------------------

VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=2),
    st.floats(allow_nan=True, allow_infinity=True), st.binary(max_size=2),
    st.tuples(st.integers(0, 2), st.text(max_size=1)),
    st.sets(st.integers(0, 3), max_size=2), st.frozensets(st.integers(0, 3), max_size=2),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["a", "$tuple"]), st.integers(0, 2), max_size=1))
KEYS = st.one_of(st.sampled_from(["name", "w", "", "$tuple", "$x"]),
                 st.integers(0, 1), st.tuples(st.integers(0, 1)))
PROPERTIES = st.dictionaries(KEYS, VALUES, max_size=3)
# permuted ids: some look like generated ids, so the id generators' memory
# of observed ids decides the next fresh id
NODE_IDS = ["n0", "n1", "n2", "alpha", "b:7", "n10"]
EDGE_IDS = ["e0", "e1", "e3", "x", "y", "z", "e-1", "e11"]


@st.composite
def multigraphs(draw) -> PropertyGraph:
    """Small multigraphs: self-loops, parallel edges, tagged property values,
    non-string and ``$``-prefixed keys, permuted non-numeric ids, and id
    generators that issued (and burnt) ids of their own."""
    node_ids = draw(st.permutations(NODE_IDS))[:draw(st.integers(1, len(NODE_IDS)))]
    graph = PropertyGraph(name=draw(st.sampled_from(["g", "kg"])))
    for node_id in node_ids:
        graph.add_node(draw(st.sampled_from(["A", "B"])), draw(PROPERTIES),
                       node_id=node_id)
    edge_ids = draw(st.permutations(EDGE_IDS))
    for edge_id in edge_ids[:draw(st.integers(0, len(EDGE_IDS)))]:
        source = draw(st.sampled_from(node_ids))
        target = draw(st.sampled_from(node_ids + [source]))
        graph.add_edge(source, target, draw(st.sampled_from(["r", "r", "s"])),
                       draw(PROPERTIES), edge_id=edge_id)
    if draw(st.booleans()):  # generated ids, one of them burnt
        doomed = graph.add_node("A")
        graph.add_edge(doomed.id, draw(st.sampled_from(node_ids)), "r")
        graph.add_node("B", {"late": (1, 2)})
        graph.remove_node(doomed.id)
    return graph


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestBulkEqualsPerElement:
    @given(graph=multigraphs())
    @SETTINGS
    def test_copy(self, graph):
        reference = per_element(node_rows(graph), edge_rows(graph.edges()),
                                name="clone")
        assert_same_build(graph.copy(name="clone"), reference)

    @given(graph=multigraphs(), data=st.data())
    @SETTINGS
    def test_subgraph(self, graph, data):
        keep = set(data.draw(st.lists(st.sampled_from(graph.node_ids()))))
        namespace = data.draw(st.sampled_from([None, "s0"]))
        # edges come off the kept nodes' out-adjacency, in adjacency order
        kept_edges = [graph.edge_store[edge_id] for node_id in graph.node_store
                      if node_id in keep for edge_id in graph.out_edge_ids(node_id)
                      if graph.edge_store[edge_id].target in keep]
        reference = per_element(node_rows(graph, keep), edge_rows(kept_edges),
                                name="sub", id_namespace=namespace)
        assert_same_build(graph.subgraph(keep, name="sub", id_namespace=namespace),
                          reference)

    @given(graph=multigraphs())
    @SETTINGS
    def test_graph_from_dict(self, graph):
        document = graph_to_dict(graph)
        reference = per_element(node_rows(graph), edge_rows(graph.edges()),
                                name=graph.name, id_namespace="w1")
        assert_same_build(graph_from_dict(document, id_namespace="w1"), reference)

    @given(graph=multigraphs())
    @SETTINGS
    def test_decode_graph_v2(self, graph):
        document = codec.encode_graph(graph)
        assert document["v"] == codec.GRAPH_VERSION == 2
        rebuilt = codec.decode_graph(codec.loads(codec.dumps(document)))
        reference = per_element(node_rows(graph), edge_rows(graph.edges()),
                                name=graph.name)
        reference._node_ids.restore_counter(graph._node_ids.counter)
        reference._edge_ids.restore_counter(graph._edge_ids.counter)
        assert_same_build(rebuilt, reference)


class TestBulkErrors:
    """Bad rows raise the per-element build's error, for the first bad row."""

    @pytest.mark.parametrize("nodes, edges", [
        ([("a", "A", {}), ("b", "A", {}), ("a", "B", {})], []),
        ([("a", "A", {})], [("e", "a", "zz", "r", {})]),
        ([("a", "A", {})], [("e", "zz", "a", "r", {})]),
        ([("a", "A", {})], [("e", "a", "a", "r", {}), ("e", "a", "a", "s", {})]),
        ([(7, "A", {}), ("7", "A", {})], []),
    ])
    def test_same_error_as_per_element(self, nodes, edges):
        with pytest.raises((DuplicateElementError, NodeNotFoundError)) as expected:
            per_element(nodes, edges)
        with pytest.raises(expected.type) as actual:
            PropertyGraph._from_elements(iter(nodes), iter(edges))
        assert str(actual.value) == str(expected.value)


# ---------------------------------------------------------------------------
# the columnar snapshot document
# ---------------------------------------------------------------------------


class TestSnapshotV2:
    def test_layout(self):
        graph = PropertyGraph(name="g")
        graph.add_node("P", {"name": "x", "score": math.inf}, node_id="p")
        graph.add_node("P", {"name": "y", "score": 1.5}, node_id="q")
        graph.add_node("C", {1: "non-string key"}, node_id="c")
        graph.add_edge("p", "c", "bornIn", {"w": (1, 2)}, edge_id="e")
        document = codec.encode_graph(graph)
        assert document["labels"] == ["P", "C", "bornIn"]
        assert document["shapes"] == [["name", "score"], ["w"]]
        assert document["nodes"] == {"id": ["p", "q", "c"], "label": [0, 0, 1],
                                     "shape": [0, 0, -1]}
        assert document["edges"] == {"id": ["e"], "source": ["p"], "target": ["c"],
                                     "label": [2], "shape": [1]}
        # only values JSON cannot carry as they are are tagged
        assert document["values"] == ["x", {"$float": "inf"}, "y", 1.5,
                                      {"$dict": [[1, "non-string key"]]},
                                      {"$tuple": [1, 2]}]

    def test_malformed_document_raises_durability_error(self):
        from repro.exceptions import DurabilityError

        document = codec.encode_graph(v1_fixture_source())
        document["nodes"]["label"][0] = 99
        with pytest.raises(DurabilityError, match="malformed graph snapshot"):
            codec.decode_graph(document)
        del document["values"]
        with pytest.raises(DurabilityError, match="malformed graph snapshot"):
            codec.decode_graph(document)

    @pytest.mark.parametrize("damage", [
        lambda doc: doc["values"].pop(),                    # a value short
        lambda doc: doc["values"].append(1),                # a value over
        lambda doc: doc["nodes"]["label"].pop(),            # a short column
        lambda doc: doc["edges"]["target"].append("ada"),   # a long column
        lambda doc: doc["nodes"]["shape"].__setitem__(0, -2),
        lambda doc: doc["edges"]["label"].__setitem__(0, -1),
        lambda doc: doc["shapes"][0].append(doc["shapes"][0][0]),
        lambda doc: doc["values"].__setitem__(
            _tagged_dict_index(doc), "not a dict"),
        lambda doc: doc["nodes"].__setitem__("id", 5),
    ])
    def test_inconsistent_columns_raise_durability_error(self, damage):
        """No malformed v2 document loses elements or properties silently."""
        from repro.exceptions import DurabilityError

        document = codec.encode_graph(v1_fixture_source())
        damage(document)
        with pytest.raises(DurabilityError, match="malformed graph snapshot"):
            codec.decode_graph(document)

    def test_newer_graph_version_refused(self):
        from repro.exceptions import DurabilityError

        document = codec.encode_graph(v1_fixture_source())
        document["v"] = codec.GRAPH_VERSION + 1
        with pytest.raises(DurabilityError, match="newer than this codec"):
            codec.decode_graph(document)


def _tagged_dict_index(document) -> int:
    """Where the value list holds the first shape ``-1`` element's dict."""
    shapes = document["shapes"]
    index = 0
    for shape in document["nodes"]["shape"] + document["edges"]["shape"]:
        if shape < 0:
            return index
        index += len(shapes[shape])
    raise AssertionError("no shape -1 element")


def v1_fixture_source() -> PropertyGraph:
    """The graph ``tests/fixtures/snapshot-v1.snap`` was written from, by the
    format-1 ``write_snapshot`` (sequence 7)."""
    graph = PropertyGraph(name="fixture")
    doomed = graph.add_node("Person", {"name": "gone"})
    graph.add_node("Person", {"name": "Ada", "born": 1815, "score": math.nan,
                              "tags": {"x", "y"}, "raw": b"\x00\x01"},
                   node_id="ada")
    graph.add_node("City", {"name": "London", "$ref": (1, -math.inf),
                            "frozen": frozenset({2, 3})}, node_id="n7")
    graph.add_node("City", {1: "one", (2,): [3.5, None, True]}, node_id="c:2")
    graph.add_edge("ada", "n7", "bornIn", {"confidence": 0.9})
    graph.add_edge("ada", "n7", "bornIn", {"confidence": 0.1}, edge_id="p1")
    graph.add_edge("n7", "n7", "near", {}, edge_id="loop")
    graph.add_edge("c:2", "ada", "knows", {"nested": {"k": (1,)}})
    graph.remove_node(doomed.id)
    return graph


class TestSnapshotV1StillReads:
    def test_fixture_loads_equal_to_its_source(self):
        graph, sequence = load_snapshot(FIXTURE_V1)
        body = codec.loads(FIXTURE_V1.read_bytes().split(b"\n")[1])
        assert body["v"] == 1  # the body really is the per-element format
        assert sequence == 7
        source = v1_fixture_source()
        assert exactly_equal(graph, source)
        assert layout(graph) == layout(source)
        # the id counters travelled: the burnt id is not issued again
        assert graph.add_node("X").id == source.add_node("X").id
        assert graph.add_edge("ada", "ada", "r").id == \
            source.add_edge("ada", "ada", "r").id
