"""The exact graph-equality oracle of the durability, changefeed, service
and ingest suites, and the structure recount of the mutation suites.

Two graphs are exactly equal when they hold the same nodes and edges, in the
same order, with the same ids, labels and property values; the graph name is
ignored.  This is stricter than ``PropertyGraph.structurally_equal``, which
treats edges as an id-less multiset.
"""

from __future__ import annotations

import json

from repro.durability.codec import encode_value
from repro.graph.io import graph_to_dict
from repro.graph.property_graph import PropertyGraph


def canonical_graph(graph: PropertyGraph) -> str:
    """``graph`` as canonical JSON, its name dropped.

    Values go through the durability codec, which sorts set members and tags
    each container type, so the iteration order of a set never decides
    equality, while set, frozenset, list and tuple stay distinct.
    """
    document = graph_to_dict(graph)
    document.pop("name", None)
    return json.dumps(encode_value(document), sort_keys=True)


def exactly_equal(left: PropertyGraph, right: PropertyGraph) -> bool:
    return canonical_graph(left) == canonical_graph(right)


def _member_sets(mapping) -> dict:
    return {key: set(members) for key, members in mapping.items()}


def structure_mismatches(graph: PropertyGraph) -> list[str]:
    """The names of the graph's label and adjacency indexes that differ from
    a recount of its element stores (an empty list when all agree).

    Recounted: the node and edge label indexes, the per-label adjacency
    buckets (which hold no empty bucket) and the per-node adjacency (one
    entry per node, empty or not).  Members are compared as sets: a relabel
    appends an edge to its new bucket, so bucket order may differ from
    edge-store order.
    """
    nodes, edges = graph.node_store, graph.edge_store
    recount = {
        "_nodes_by_label": {}, "_edges_by_label": {},
        "_out_by_label": {}, "_in_by_label": {},
        "_out_edges": {node_id: set() for node_id in nodes},
        "_in_edges": {node_id: set() for node_id in nodes},
    }
    for node in nodes.values():
        recount["_nodes_by_label"].setdefault(node.label, set()).add(node.id)
    for edge in edges.values():
        recount["_edges_by_label"].setdefault(edge.label, set()).add(edge.id)
        recount["_out_by_label"].setdefault((edge.source, edge.label), set()).add(edge.id)
        recount["_in_by_label"].setdefault((edge.target, edge.label), set()).add(edge.id)
        recount["_out_edges"][edge.source].add(edge.id)
        recount["_in_edges"][edge.target].add(edge.id)
    return [name for name, expected in recount.items()
            if _member_sets(getattr(graph, name)) != expected]
