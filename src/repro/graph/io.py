"""Serialisation of property graphs.

Three interchange formats are supported:

* **JSON documents** — a faithful round-trip format (node/edge ids, labels,
  properties) used to persist generated datasets and repaired outputs.
* **Triples** — a flattened `(subject, predicate, object)` view.  Node
  properties become literal triples, edges become entity triples.  This is
  the representation the relational-FD baseline operates on and is the
  closest analogue to RDF dumps such as YAGO / DBpedia.
* **Edge lists** — a compact tab-separated format for quick inspection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

from repro.exceptions import SerializationError
from repro.graph.property_graph import PropertyGraph

FORMAT_VERSION = 1
GRAPH_FORMAT = "repro-property-graph"


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


def graph_to_dict(graph: PropertyGraph) -> dict[str, Any]:
    """Return a JSON-serialisable dictionary representing ``graph``."""
    return {
        "format": GRAPH_FORMAT,
        "version": FORMAT_VERSION,
        "name": graph.name,
        "nodes": [
            {"id": node.id, "label": node.label, "properties": node.properties}
            for node in graph.nodes()
        ],
        "edges": [
            {
                "id": edge.id,
                "source": edge.source,
                "target": edge.target,
                "label": edge.label,
                "properties": edge.properties,
            }
            for edge in graph.edges()
        ],
    }


def subgraph_to_dict(graph: PropertyGraph, node_ids: set[str],
                     name: str) -> dict[str, Any]:
    """The document of ``graph.subgraph(node_ids, name=name)``, read straight
    off ``graph``'s adjacency without building the subgraph.

    Nodes come in ``graph``'s insertion order, and each kept node brings its
    out-edges whose target is kept, in adjacency order: the order the
    subgraph's own stores would hold.  Property dicts are copied, so the
    document shares no mutable state with ``graph``.  This is the sharded
    backend's shard payload (:meth:`repro.parallel.partition.Shard.extract`).
    """
    nodes = graph.node_store
    edges = graph.edge_store
    kept = [node for node_id, node in nodes.items() if node_id in node_ids]
    edge_docs = []
    for node in kept:
        for edge_id in graph.out_edge_ids(node.id):
            edge = edges[edge_id]
            if edge.target in node_ids:
                edge_docs.append({"id": edge_id, "source": edge.source,
                                  "target": edge.target, "label": edge.label,
                                  "properties": dict(edge.properties)})
    return {
        "format": GRAPH_FORMAT,
        "version": FORMAT_VERSION,
        "name": name,
        "nodes": [{"id": node.id, "label": node.label,
                   "properties": dict(node.properties)} for node in kept],
        "edges": edge_docs,
    }


def graph_from_dict(document: dict[str, Any],
                    id_namespace: str | None = None) -> PropertyGraph:
    """Rebuild a :class:`PropertyGraph` from :func:`graph_to_dict` output.

    ``id_namespace`` seeds the rebuilt graph's id generators with a disjoint
    prefix — the spawn-safe shard codec in :mod:`repro.parallel.worker` uses
    it so ids created inside a worker can never collide with the primary's.
    """
    if not isinstance(document, dict):
        raise SerializationError("graph document must be a JSON object")
    if document.get("format") != GRAPH_FORMAT:
        raise SerializationError(
            f"unexpected document format {document.get('format')!r}")
    return PropertyGraph._from_elements(
        _node_rows(document.get("nodes", [])),
        _edge_rows(document.get("edges", [])),
        name=document.get("name", "graph"), id_namespace=id_namespace)


def _node_rows(node_docs):
    """``(id, label, properties)`` rows of node documents."""
    for node_doc in node_docs:
        try:
            row = (node_doc["id"], node_doc["label"],
                   dict(node_doc.get("properties") or {}))
        except KeyError as exc:
            raise SerializationError(f"node document missing key {exc}") from exc
        yield row


def _edge_rows(edge_docs):
    """``(id, source, target, label, properties)`` rows of edge documents."""
    for edge_doc in edge_docs:
        try:
            row = (edge_doc["id"], edge_doc["source"], edge_doc["target"],
                   edge_doc["label"], dict(edge_doc.get("properties") or {}))
        except KeyError as exc:
            raise SerializationError(f"edge document missing key {exc}") from exc
        yield row


def dump_json(graph: PropertyGraph, path: str | Path, indent: int | None = 2) -> None:
    """Write ``graph`` as a JSON document to ``path``."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(graph_to_dict(graph), handle, indent=indent, sort_keys=False)


def load_json(path: str | Path) -> PropertyGraph:
    """Load a graph previously written by :func:`dump_json`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        document = json.load(handle)
    return graph_from_dict(document)


def dumps_json(graph: PropertyGraph) -> str:
    """Return the JSON document of ``graph`` as a string."""
    return json.dumps(graph_to_dict(graph), sort_keys=False)


def loads_json(payload: str) -> PropertyGraph:
    """Parse a graph from a JSON string."""
    try:
        document = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return graph_from_dict(document)


# ---------------------------------------------------------------------------
# Triple view (RDF-like)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Triple:
    """A ``(subject, predicate, object)`` fact.

    ``object_is_literal`` distinguishes property triples (object is a literal
    value) from edge triples (object is a node id).
    """

    subject: str
    predicate: str
    object: Any
    object_is_literal: bool = False

    def as_tuple(self) -> tuple[str, str, Any]:
        return (self.subject, self.predicate, self.object)


TYPE_PREDICATE = "rdf:type"


def graph_to_triples(graph: PropertyGraph, include_types: bool = True) -> Iterator[Triple]:
    """Flatten a property graph into triples.

    Every node yields one ``rdf:type`` triple (unless ``include_types=False``)
    plus one literal triple per property; every edge yields one entity triple.
    Edge properties are dropped in this view (as they would be in plain RDF).
    """
    for node in graph.nodes():
        if include_types:
            yield Triple(node.id, TYPE_PREDICATE, node.label, object_is_literal=True)
        for key, value in sorted(node.properties.items()):
            yield Triple(node.id, key, value, object_is_literal=True)
    for edge in graph.edges():
        yield Triple(edge.source, edge.label, edge.target, object_is_literal=False)


def triples_to_graph(triples: Iterable[Triple], name: str = "graph") -> PropertyGraph:
    """Reassemble a property graph from triples.

    ``rdf:type`` triples set node labels; other literal triples become node
    properties; entity triples become edges.  Nodes referenced only as
    objects get the default label ``"Node"``.
    """
    graph = PropertyGraph(name=name)
    pending_edges: list[Triple] = []

    def ensure_node(node_id: str) -> None:
        if not graph.has_node(node_id):
            graph.add_node("Node", node_id=node_id)

    for triple in triples:
        if triple.object_is_literal:
            ensure_node(triple.subject)
            if triple.predicate == TYPE_PREDICATE:
                graph.relabel_node(triple.subject, str(triple.object))
            else:
                graph.update_node(triple.subject, {triple.predicate: triple.object})
        else:
            pending_edges.append(triple)

    for triple in pending_edges:
        ensure_node(triple.subject)
        ensure_node(str(triple.object))
        graph.add_edge(triple.subject, str(triple.object), triple.predicate)
    return graph


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------


def write_edge_list(graph: PropertyGraph, handle: TextIO) -> None:
    """Write a tab-separated edge list ``source  label  target`` plus a node header."""
    for node in graph.nodes():
        handle.write(f"# node\t{node.id}\t{node.label}\n")
    for edge in graph.edges():
        handle.write(f"{edge.source}\t{edge.label}\t{edge.target}\n")


def read_edge_list(handle: TextIO, name: str = "graph") -> PropertyGraph:
    """Read the edge-list format produced by :func:`write_edge_list`."""
    graph = PropertyGraph(name=name)
    edge_lines: list[tuple[str, str, str]] = []
    for line_no, raw_line in enumerate(handle, start=1):
        line = raw_line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("# node\t"):
            parts = line.split("\t")
            if len(parts) != 3:
                raise SerializationError(f"malformed node line {line_no}: {line!r}")
            _, node_id, label = parts
            graph.add_node(label, node_id=node_id)
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise SerializationError(f"malformed edge line {line_no}: {line!r}")
        edge_lines.append((parts[0], parts[1], parts[2]))
    for source, label, target in edge_lines:
        for endpoint in (source, target):
            if not graph.has_node(endpoint):
                graph.add_node("Node", node_id=endpoint)
        graph.add_edge(source, target, label)
    return graph
