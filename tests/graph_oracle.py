"""The exact graph-equality oracle of the durability, changefeed, service
and ingest suites.

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
