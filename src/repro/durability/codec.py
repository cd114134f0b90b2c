"""The versioned wire codec for committed-delta records and graph snapshots.

Everything the durability layer writes — WAL records, snapshot documents,
replication messages — is a JSON document produced here.  JSON alone cannot
round-trip the values a :class:`~repro.graph.delta.GraphChange` carries:
property maps hold ``NaN``/``±inf`` floats, tuples (which JSON would flatten
into lists), bytes, sets, dicts with non-string keys, and — because graph
properties accept any hashable — arbitrary Python objects.  The value codec
wraps every non-JSON-native value in a single-key *tag object*::

    (1, 2)            -> {"$tuple": [1, 2]}
    float("nan")      -> {"$float": "nan"}
    b"\\x00\\x01"       -> {"$bytes": "0001"}
    {1: "a"}          -> {"$dict": [[1, "a"]]}
    SomeHashable()    -> {"$pickle": "<base64>"}

JSON-native scalars, lists, and dicts with plain string keys pass through
untouched (a dict whose keys could be mistaken for a tag is escaped into the
``$dict`` form).  The pickle fallback makes the codec *total* over graph
property values; it is what makes the format a **trusted-environment**
format — see ``docs/DURABILITY.md`` for the security note.

Every top-level document carries a format version: ``GRAPH_VERSION`` (2,
the columnar layout of :func:`encode_graph`) on graph snapshots and
``FORMAT_VERSION`` (1) on everything else.  Decoders accept any version up
to their own and raise :class:`~repro.exceptions.DurabilityError` beyond
it, so an old reader fails loudly on a new log instead of misinterpreting
it, and a new reader can migrate old versions in place: version-1 graph
snapshots, one object per element, still decode.

The *structural* schema of a change (kind / element ids / detail keys) is
owned by :meth:`GraphChange.to_payload` — this module only supplies the
value encoding, keeping the graph layer free of wire-format concerns.
"""

from __future__ import annotations

import base64
import json
import math
import pickle
from collections import Counter
from typing import Any, Mapping

from repro.exceptions import DurabilityError
from repro.graph.delta import GraphChange, GraphDelta
from repro.graph.property_graph import PropertyGraph

#: bumped whenever a record, snapshot header or replication message
#: produced by this module changes shape (graph snapshots: GRAPH_VERSION)
FORMAT_VERSION = 1

_FLOAT_TAGS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def encode_value(value: Any) -> Any:
    """Encode one Python value into a JSON-safe document (see module doc)."""
    if value is None or value is True or value is False:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return {"$float": "nan"}
        if math.isinf(value):
            return {"$float": "inf" if value > 0 else "-inf"}
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return {"$tuple": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        tag = "$set" if isinstance(value, set) else "$frozenset"
        try:  # sort for deterministic output when the members allow it
            members = sorted(value)
        except TypeError:
            members = sorted(value, key=repr)
        return {tag: [encode_value(item) for item in members]}
    if isinstance(value, (bytes, bytearray)):
        return {"$bytes": bytes(value).hex()}
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value) \
                and not any(key.startswith("$") for key in value):
            return {key: encode_value(item) for key, item in value.items()}
        # non-string or tag-shaped keys: escape into an item-list form
        return {"$dict": [[encode_value(key), encode_value(item)]
                          for key, item in value.items()]}
    # the total fallback: any other object (graph properties accept arbitrary
    # hashables) travels pickled — a trusted-environment escape hatch
    try:
        blob = pickle.dumps(value, protocol=pickle.DEFAULT_PROTOCOL)
    except Exception as exc:
        raise DurabilityError(
            f"value of type {type(value).__name__!r} is neither JSON-safe "
            f"nor picklable: {exc}") from exc
    return {"$pickle": base64.b64encode(blob).decode("ascii")}


def decode_value(document: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(document, list):
        return [decode_value(item) for item in document]
    if not isinstance(document, dict):
        return document
    if len(document) == 1:
        (tag, payload), = document.items()
        if tag == "$tuple":
            return tuple(decode_value(item) for item in payload)
        if tag == "$set":
            return {decode_value(item) for item in payload}
        if tag == "$frozenset":
            return frozenset(decode_value(item) for item in payload)
        if tag == "$float":
            try:
                return _FLOAT_TAGS[payload]
            except KeyError:
                raise DurabilityError(
                    f"unknown float tag {payload!r}") from None
        if tag == "$bytes":
            return bytes.fromhex(payload)
        if tag == "$dict":
            return {decode_value(key): decode_value(item)
                    for key, item in payload}
        if tag == "$pickle":
            return pickle.loads(base64.b64decode(payload))
        if tag.startswith("$"):
            raise DurabilityError(f"unknown value tag {tag!r} (written by a "
                                  "newer codec?)")
    return {key: decode_value(item) for key, item in document.items()}


# ---------------------------------------------------------------------------
# changes, deltas, changefeed records
# ---------------------------------------------------------------------------


def encode_change(change: GraphChange) -> dict[str, Any]:
    return change.to_payload(encode_value)


def decode_change(document: Mapping[str, Any]) -> GraphChange:
    try:
        return GraphChange.from_payload(document, decode_value)
    except (KeyError, ValueError) as exc:
        raise DurabilityError(f"undecodable change document: {exc}") from exc


def encode_delta(delta: GraphDelta) -> list[dict[str, Any]]:
    return delta.to_payload(encode_value)


def decode_delta(documents: list[Mapping[str, Any]]) -> GraphDelta:
    return GraphDelta([decode_change(document) for document in documents])


def encode_record(sequence: int, source: str, delta: GraphDelta) -> dict[str, Any]:
    """One changefeed record as a wire document.

    ``sequence`` is the **global** (log) sequence: a session's record
    sequences restart at 1 per session lifetime, so the durability sink
    offsets them by the recovered base before writing (see
    :class:`repro.durability.recovery.TenantDurability`).
    """
    return {"v": FORMAT_VERSION, "seq": int(sequence), "source": source,
            "changes": encode_delta(delta)}


def decode_record(document: Mapping[str, Any]) -> tuple[int, str, GraphDelta]:
    """Invert :func:`encode_record`; returns ``(sequence, source, delta)``."""
    check_version(document, kind="record")
    try:
        return (int(document["seq"]), document["source"],
                decode_delta(document["changes"]))
    except (KeyError, TypeError) as exc:
        raise DurabilityError(f"malformed record document: {exc}") from exc


def check_version(document: Mapping[str, Any], kind: str = "document",
                  newest: int = FORMAT_VERSION) -> int:
    """Validate a document's format version; returns it.

    Versions newer than ``newest``, the newest this codec writes for the
    document's kind, raise — refusing to guess at a future format — while
    every older version remains readable (migration happens here, per
    version, as the format evolves).
    """
    version = document.get("v")
    if not isinstance(version, int) or version < 1:
        raise DurabilityError(f"{kind} carries no format version: "
                              f"{version!r}")
    if version > newest:
        raise DurabilityError(
            f"{kind} has format version {version}, newer than this codec's "
            f"{newest}; upgrade before reading this log")
    return version


# ---------------------------------------------------------------------------
# graph snapshots
# ---------------------------------------------------------------------------

#: the version :func:`encode_graph` writes; :func:`decode_graph` reads it and
#: every older one
GRAPH_VERSION = 2

_PLAIN_SCALARS = frozenset((str, int, bool, type(None)))


def _plain(value: Any) -> bool:
    """True for a value JSON carries unchanged: str, int, bool, None, or a
    finite float."""
    kind = type(value)
    return kind in _PLAIN_SCALARS or (kind is float and math.isfinite(value))


def encode_graph(graph: PropertyGraph) -> dict[str, Any]:
    """A full graph snapshot document (element-exact, codec-safe values).

    Unlike :func:`repro.graph.io.graph_to_dict` — whose output feeds plain
    ``json.dump`` and therefore silently degrades tuples and refuses NaN
    under strict parsers — every property value survives exactly, and the
    graph's **id-generator counters** are captured so a restored graph
    continues the same fresh-id stream as the original (ids issued-then-
    removed before the snapshot are invisible in the element lists, but
    must never be re-issued after recovery).

    The document is columnar (format version 2): node and edge ids,
    endpoints and label codes are parallel arrays; ``labels`` lists each
    distinct label once; ``shapes`` lists each distinct property-key
    sequence once, and an element's shape code says which keys its values
    fill, in order, from the one flat ``values`` list.  A value goes through
    :func:`encode_value` only when JSON cannot carry it as is.  An element
    whose keys are not all strings has shape ``-1`` and its whole property
    dict, tagged, as its one value.
    """
    label_codes: dict[str, int] = {}
    shape_codes: dict[tuple, int] = {}
    shape_table: list[list[str]] = []
    raw_values: list[Any] = []

    def columns(elements) -> tuple[list[int], list[int]]:
        labels, shapes = [], []
        for element in elements:
            labels.append(label_codes.setdefault(element.label, len(label_codes)))
            properties = element.properties
            keys = tuple(properties)
            shape = shape_codes.get(keys)
            if shape is None:
                shape = -1
                if all(isinstance(key, str) for key in keys):
                    shape = len(shape_table)
                    shape_table.append(list(keys))
                shape_codes[keys] = shape
            shapes.append(shape)
            if shape < 0:
                raw_values.append(properties)
            else:
                raw_values.extend(properties.values())
        return labels, shapes

    nodes = graph.node_store.values()
    edges = graph.edge_store.values()
    node_labels, node_shapes = columns(nodes)
    edge_labels, edge_shapes = columns(edges)
    return {
        "v": GRAPH_VERSION,
        "name": graph.name,
        "id_state": {"node_counter": graph._node_ids.counter,
                     "edge_counter": graph._edge_ids.counter,
                     "namespace": graph.id_namespace},
        "labels": list(label_codes),
        "shapes": shape_table,
        "nodes": {"id": [node.id for node in nodes], "label": node_labels,
                  "shape": node_shapes},
        "edges": {"id": [edge.id for edge in edges],
                  "source": [edge.source for edge in edges],
                  "target": [edge.target for edge in edges],
                  "label": edge_labels, "shape": edge_shapes},
        "values": [value if _plain(value) else encode_value(value)
                   for value in raw_values],
    }


def decode_graph(document: Mapping[str, Any]) -> PropertyGraph:
    """Invert :func:`encode_graph` (element-for-element, id counters
    included); reads format versions 1 and 2."""
    version = check_version(document, kind="graph snapshot", newest=GRAPH_VERSION)
    id_state = document.get("id_state", {})
    rows = _rows_v1 if version == 1 else _rows_v2
    try:
        nodes, edges = rows(document)
        graph = PropertyGraph._from_elements(
            nodes, edges, name=document.get("name", "graph"),
            id_namespace=id_state.get("namespace"))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DurabilityError(f"malformed graph snapshot: {exc!r}") from exc
    graph._node_ids.restore_counter(id_state.get("node_counter", 0))
    graph._edge_ids.restore_counter(id_state.get("edge_counter", 0))
    return graph


def _rows_v1(document: Mapping[str, Any]):
    """Element rows of a version-1 snapshot: one object per element."""
    nodes = ((node["id"], node["label"], decode_value(node["properties"]))
             for node in document["nodes"])
    edges = ((edge["id"], edge["source"], edge["target"], edge["label"],
              decode_value(edge["properties"]))
             for edge in document["edges"])
    return nodes, edges


def _rows_v2(document: Mapping[str, Any]):
    """Element rows of a version-2 (columnar) snapshot.

    The columns are checked to agree before any row is built — equal
    lengths, codes inside their tables, distinct string keys per shape, and
    exactly as many values as the shapes fill — so a malformed document
    raises instead of losing elements or properties.
    """
    labels, shapes = document["labels"], document["shapes"]
    nodes, edges = document["nodes"], document["edges"]
    raw_values = document["values"]
    for shape in shapes:
        if (not all(isinstance(key, str) for key in shape)
                or len(set(shape)) != len(shape)):
            raise DurabilityError(f"malformed graph snapshot: shape {shape!r}")
    widths = [len(shape) for shape in shapes] + [1]  # code -1: one tagged dict
    needed = 0
    for columns, names in ((nodes, ("label", "shape")),
                           (edges, ("source", "target", "label", "shape"))):
        if any(len(columns[name]) != len(columns["id"]) for name in names):
            raise DurabilityError("malformed graph snapshot: columns of "
                                  "unequal length")
        if not _codes_within(columns["label"], 0, len(labels)):
            raise DurabilityError("malformed graph snapshot: label code "
                                  "outside the label table")
        if not _codes_within(columns["shape"], -1, len(shapes)):
            raise DurabilityError("malformed graph snapshot: shape code "
                                  "outside the shape table")
        needed += sum(widths[shape] * count
                      for shape, count in Counter(columns["shape"]).items())
    if needed != len(raw_values):
        raise DurabilityError(f"malformed graph snapshot: the shapes fill "
                              f"{needed} values, the document has "
                              f"{len(raw_values)}")
    # one cursor over the flat value list: node rows are consumed in full
    # before the first edge row, the order encode_graph wrote them in
    values = iter([value if _plain(value) else decode_value(value)
                   for value in raw_values])

    def properties(shape_codes):
        for shape in shape_codes:
            if shape >= 0:
                # zip takes a key first, so it stops without consuming a value
                yield dict(zip(shapes[shape], values))
                continue
            tagged = next(values)
            if not isinstance(tagged, dict):
                raise DurabilityError("malformed graph snapshot: properties "
                                      f"{tagged!r} are not a dict")
            yield tagged

    return (zip(nodes["id"], map(labels.__getitem__, nodes["label"]),
                properties(nodes["shape"])),
            zip(edges["id"], edges["source"], edges["target"],
                map(labels.__getitem__, edges["label"]),
                properties(edges["shape"])))


def _codes_within(codes: list, low: int, high: int) -> bool:
    """True when every code is an int in ``[low, high)``."""
    return (all(type(code) is int for code in codes)
            and (not codes or (low <= min(codes) and max(codes) < high)))


# ---------------------------------------------------------------------------
# byte-level helpers (shared by the WAL and the replication stream)
# ---------------------------------------------------------------------------


def dumps(document: Mapping[str, Any]) -> bytes:
    """Serialise one document to compact UTF-8 JSON bytes.

    ``allow_nan=False``: a raw NaN reaching the serialiser means a value
    bypassed the codec — fail here, at write time, not at some future read.
    """
    try:
        return json.dumps(document, separators=(",", ":"),
                          allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise DurabilityError(f"document is not codec-clean: {exc}") from exc


def loads(payload: bytes) -> Any:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DurabilityError(f"undecodable document payload: {exc}") from exc
