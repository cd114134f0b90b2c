"""The property graph: a directed, labelled multigraph with attributes.

This is the substrate every other subsystem operates on.  Design goals:

* **Multigraph** — knowledge graphs routinely contain parallel edges with
  different predicates (and, when dirty, duplicate parallel edges with the
  same predicate — exactly the redundancy errors we repair).
* **Label-indexed** — pattern matching needs fast per-label candidate lists,
  so the graph maintains node-label and edge-label indexes internally.
* **Change events** — every mutation emits a :class:`GraphChange` to the
  graph's listeners so that the candidate index and the incremental matcher
  can be maintained without rescanning the graph (the core of the paper's
  "efficient" algorithms).  A graph nobody listens to builds no records, so
  bulk builds (copies, subgraphs, documents loaded into a worker) stay cheap.
* **Deterministic iteration** — node/edge dictionaries are insertion-ordered,
  so experiments are reproducible run to run.

The implementation is a plain adjacency-dictionary structure rather than a
networkx wrapper: we need merge-with-edge-redirection, change events, and
label indexes as first-class operations, and profiling showed a dedicated
structure is both simpler and faster for the matcher's access patterns.
Conversion to/from :mod:`networkx` is provided for interoperability.
"""

from __future__ import annotations

from sys import intern as _intern
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.exceptions import (
    DuplicateElementError,
    EdgeNotFoundError,
    GraphMutationError,
    NodeNotFoundError,
)
from repro.graph.delta import ChangeKind, ChangeListener, GraphChange
from repro.graph.elements import Edge, EdgeId, Label, Node, NodeId, Properties, merge_properties
from repro.utils.ids import IdGenerator


def _edge_spec(edge: Edge) -> dict[str, Any]:
    """Full snapshot of one edge, rich enough to recreate it exactly.

    Stored in change details of subtractive mutations so that
    :func:`repro.graph.delta.apply_inverse` can restore removed structure
    (same ids, labels, and properties) during a session rollback.
    """
    return {"id": edge.id, "source": edge.source, "target": edge.target,
            "label": edge.label, "properties": dict(edge.properties)}


def _element_rows(nodes: Iterable[Node], edges: Iterable[Edge]):
    """The :meth:`PropertyGraph._from_elements` rows of existing elements,
    each with its own copy of the properties."""
    return (((node.id, node.label, dict(node.properties)) for node in nodes),
            ((edge.id, edge.source, edge.target, edge.label, dict(edge.properties))
             for edge in edges))


class PropertyGraph:
    """A directed, labelled property multigraph."""

    def __init__(self, name: str = "graph", *, id_namespace: str | None = None) -> None:
        self.name = name
        self.id_namespace = id_namespace
        self._nodes: dict[NodeId, Node] = {}
        self._edges: dict[EdgeId, Edge] = {}
        # adjacency: node id -> incident edge ids (split by direction).  Stored
        # as insertion-ordered dicts (id -> None) rather than sets so that the
        # matcher can iterate adjacency deterministically without re-sorting on
        # every backtracking step.
        self._out_edges: dict[NodeId, dict[EdgeId, None]] = {}
        self._in_edges: dict[NodeId, dict[EdgeId, None]] = {}
        # per-label adjacency buckets: (node id, edge label) -> edge ids, same
        # insertion-ordered-dict representation.  The matcher's label probes
        # (_candidates_for / _has_witness) and shard extraction read these so
        # that a label lookup touches only the matching-label edges instead of
        # scanning the node's full adjacency.  Kept exactly in sync by every
        # mutation that attaches, detaches, or relabels an edge.
        self._out_by_label: dict[tuple[NodeId, Label], dict[EdgeId, None]] = {}
        self._in_by_label: dict[tuple[NodeId, Label], dict[EdgeId, None]] = {}
        # label indexes
        self._nodes_by_label: dict[Label, set[NodeId]] = {}
        self._edges_by_label: dict[Label, set[EdgeId]] = {}
        self._listeners: list[ChangeListener] = []
        # An id namespace prefixes every generated id ("s0:n7" instead of
        # "n7"), giving disjoint graphs — e.g. per-shard working copies in
        # repro.parallel — id spaces that can never collide with the primary
        # graph's or each other's.
        prefix = f"{id_namespace}:" if id_namespace else ""
        self._node_ids = IdGenerator(prefix=f"{prefix}n")
        self._edge_ids = IdGenerator(prefix=f"{prefix}e")

    # ------------------------------------------------------------------
    # listeners
    # ------------------------------------------------------------------

    def add_listener(self, listener: ChangeListener) -> None:
        """Subscribe ``listener`` to every subsequent mutation."""
        self._listeners.append(listener)

    def remove_listener(self, listener: ChangeListener) -> None:
        self._listeners.remove(listener)

    def _emit(self, change: GraphChange) -> None:
        for listener in self._listeners:
            listener(change)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def size(self) -> int:
        """Total number of elements (nodes + edges)."""
        return len(self._nodes) + len(self._edges)

    def __len__(self) -> int:
        return self.size()

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._nodes

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def has_edge(self, edge_id: EdgeId) -> bool:
        return edge_id in self._edges

    def node(self, node_id: NodeId) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def edge(self, edge_id: EdgeId) -> Edge:
        try:
            return self._edges[edge_id]
        except KeyError:
            raise EdgeNotFoundError(edge_id) from None

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes (insertion order)."""
        return iter(list(self._nodes.values()))

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges (insertion order)."""
        return iter(list(self._edges.values()))

    def node_ids(self) -> list[NodeId]:
        return list(self._nodes.keys())

    def edge_ids(self) -> list[EdgeId]:
        return list(self._edges.keys())

    # ------------------------------------------------------------------
    # label indexes
    # ------------------------------------------------------------------

    def node_labels(self) -> set[Label]:
        return set(self._nodes_by_label.keys())

    def edge_labels(self) -> set[Label]:
        return set(self._edges_by_label.keys())

    def nodes_with_label(self, label: Label) -> list[Node]:
        # sorted for determinism: label buckets are sets, and reproducible
        # iteration matters to the error injector and the experiments
        return [self._nodes[node_id]
                for node_id in sorted(self._nodes_by_label.get(label, ()))]

    def node_ids_with_label(self, label: Label) -> set[NodeId]:
        return set(self._nodes_by_label.get(label, set()))

    def edges_with_label(self, label: Label) -> list[Edge]:
        return [self._edges[edge_id]
                for edge_id in sorted(self._edges_by_label.get(label, ()))]

    def count_nodes_with_label(self, label: Label) -> int:
        return len(self._nodes_by_label.get(label, ()))

    def count_edges_with_label(self, label: Label) -> int:
        return len(self._edges_by_label.get(label, ()))

    # ------------------------------------------------------------------
    # adjacency accessors
    # ------------------------------------------------------------------

    def out_edges(self, node_id: NodeId) -> list[Edge]:
        """All edges whose source is ``node_id`` (sorted by edge id for determinism)."""
        self._require_node(node_id)
        return [self._edges[eid] for eid in sorted(self._out_edges.get(node_id, ()))]

    def in_edges(self, node_id: NodeId) -> list[Edge]:
        """All edges whose target is ``node_id`` (sorted by edge id for determinism)."""
        self._require_node(node_id)
        return [self._edges[eid] for eid in sorted(self._in_edges.get(node_id, ()))]

    def incident_edges(self, node_id: NodeId) -> list[Edge]:
        """All edges incident to ``node_id`` in either direction (self-loops once)."""
        self._require_node(node_id)
        edge_ids = (self._out_edges.get(node_id, {}).keys()
                    | self._in_edges.get(node_id, {}).keys())
        return [self._edges[eid] for eid in sorted(edge_ids)]

    @property
    def edge_store(self) -> Mapping[EdgeId, Edge]:
        """The live edge-id -> :class:`Edge` mapping (read-only contract).

        Hot-path counterpart of :meth:`edge` for inner loops that resolve many
        edge ids and can tolerate a plain ``KeyError``: direct dict indexing
        skips the not-found wrapping.  Callers must not mutate it.
        """
        return self._edges

    @property
    def node_store(self) -> Mapping[NodeId, Node]:
        """The live node-id -> :class:`Node` mapping (read-only contract, see
        :attr:`edge_store`)."""
        return self._nodes

    def out_edge_ids(self, node_id: NodeId):
        """Zero-copy view of the outgoing edge ids of ``node_id``.

        Insertion-ordered and deterministic; the view must not be mutated and
        is invalidated by graph mutations.  This is the matcher's hot-path
        accessor — unlike :meth:`out_edges` it neither copies nor sorts.
        """
        bucket = self._out_edges.get(node_id)
        return bucket.keys() if bucket is not None else ()

    def in_edge_ids(self, node_id: NodeId):
        """Zero-copy view of the incoming edge ids of ``node_id`` (see
        :meth:`out_edge_ids`)."""
        bucket = self._in_edges.get(node_id)
        return bucket.keys() if bucket is not None else ()

    def iter_out_edges(self, node_id: NodeId) -> Iterator[Edge]:
        """Outgoing edges in insertion order, without copying or sorting."""
        edges = self._edges
        for edge_id in self._out_edges.get(node_id, ()):
            yield edges[edge_id]

    def iter_in_edges(self, node_id: NodeId) -> Iterator[Edge]:
        """Incoming edges in insertion order, without copying or sorting."""
        edges = self._edges
        for edge_id in self._in_edges.get(node_id, ()):
            yield edges[edge_id]

    def out_degree(self, node_id: NodeId) -> int:
        self._require_node(node_id)
        return len(self._out_edges.get(node_id, ()))

    def in_degree(self, node_id: NodeId) -> int:
        self._require_node(node_id)
        return len(self._in_edges.get(node_id, ()))

    def degree(self, node_id: NodeId) -> int:
        return self.out_degree(node_id) + self.in_degree(node_id)

    def successors(self, node_id: NodeId) -> set[NodeId]:
        """Ids of nodes reachable by one outgoing edge."""
        return {edge.target for edge in self.out_edges(node_id)}

    def predecessors(self, node_id: NodeId) -> set[NodeId]:
        """Ids of nodes with an edge pointing to ``node_id``."""
        return {edge.source for edge in self.in_edges(node_id)}

    def neighbors(self, node_id: NodeId) -> set[NodeId]:
        """Ids of nodes adjacent in either direction (excluding the node itself)."""
        adjacent = self.successors(node_id) | self.predecessors(node_id)
        adjacent.discard(node_id)
        return adjacent

    def edges_between(self, source: NodeId, target: NodeId,
                      label: Label | None = None) -> list[Edge]:
        """All edges from ``source`` to ``target`` (optionally restricted to a label)."""
        self._require_node(source)
        self._require_node(target)
        # Probe whichever endpoint has the smaller adjacency list, using the
        # per-label buckets when a label narrows the probe.
        if label is None:
            out_bucket = self._out_edges.get(source, ())
            in_bucket = self._in_edges.get(target, ())
        else:
            out_bucket = self._out_by_label.get((source, label), ())
            in_bucket = self._in_by_label.get((target, label), ())
        found = []
        if len(out_bucket) <= len(in_bucket):
            for edge_id in out_bucket:
                edge = self._edges[edge_id]
                if edge.target == target:
                    found.append(edge)
        else:
            for edge_id in in_bucket:
                edge = self._edges[edge_id]
                if edge.source == source:
                    found.append(edge)
        return found

    def has_edge_between(self, source: NodeId, target: NodeId,
                         label: Label | None = None) -> bool:
        return bool(self.edges_between(source, target, label))

    def out_edge_ids_with_label(self, node_id: NodeId, label: Label):
        """Zero-copy view of the outgoing edge ids of ``node_id`` carrying
        ``label`` (insertion-ordered; same contract as :meth:`out_edge_ids`)."""
        bucket = self._out_by_label.get((node_id, label))
        return bucket.keys() if bucket is not None else ()

    def in_edge_ids_with_label(self, node_id: NodeId, label: Label):
        """Zero-copy view of the incoming edge ids of ``node_id`` carrying
        ``label`` (see :meth:`out_edge_ids_with_label`)."""
        bucket = self._in_by_label.get((node_id, label))
        return bucket.keys() if bucket is not None else ()

    def out_edges_with_label(self, node_id: NodeId, label: Label) -> list[Edge]:
        self._require_node(node_id)
        return [self._edges[eid]
                for eid in sorted(self.out_edge_ids_with_label(node_id, label))]

    def in_edges_with_label(self, node_id: NodeId, label: Label) -> list[Edge]:
        self._require_node(node_id)
        return [self._edges[eid]
                for eid in sorted(self.in_edge_ids_with_label(node_id, label))]

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------

    def add_node(self, label: Label, properties: Mapping[str, Any] | None = None,
                 node_id: NodeId | None = None) -> Node:
        """Create a node; returns the new :class:`Node`.

        If ``node_id`` is omitted a fresh id is generated.
        """
        if node_id is None:
            node_id = self._node_ids.next()
        else:
            node_id = str(node_id)
            if node_id in self._nodes:
                raise DuplicateElementError(f"node id {node_id!r} already exists")
            self._node_ids.observe(node_id)
        # Interned ids and labels: both are compared (and hashed) constantly in
        # the matcher's inner loops and repeat across elements, so pooling them
        # turns most comparisons into pointer checks and deduplicates storage.
        node_id = _intern(node_id)
        label = _intern(label)
        node = Node(id=node_id, label=label, properties=dict(properties or {}))
        self._attach_node(node)
        if self._listeners:
            self._emit(GraphChange(kind=ChangeKind.ADD_NODE, node_id=node_id,
                                   touched_nodes=(node_id,),
                                   details={"label": label,
                                            "properties": dict(node.properties)}))
        return node

    def add_edge(self, source: NodeId, target: NodeId, label: Label,
                 properties: Mapping[str, Any] | None = None,
                 edge_id: EdgeId | None = None) -> Edge:
        """Create a directed edge ``source -[label]-> target``."""
        self._require_node(source)
        self._require_node(target)
        if edge_id is None:
            edge_id = self._edge_ids.next()
        else:
            edge_id = str(edge_id)
            if edge_id in self._edges:
                raise DuplicateElementError(f"edge id {edge_id!r} already exists")
            self._edge_ids.observe(edge_id)
        edge_id = _intern(edge_id)
        edge = Edge(id=edge_id, source=self._nodes[source].id,
                    target=self._nodes[target].id, label=_intern(label),
                    properties=dict(properties or {}))
        self._edges[edge_id] = edge
        self._attach_edge_to_indexes(edge)
        if self._listeners:
            self._emit(GraphChange(kind=ChangeKind.ADD_EDGE, edge_id=edge_id,
                                   touched_nodes=(source, target),
                                   details={"label": label, "source": source,
                                            "target": target,
                                            "properties": dict(edge.properties)}))
        return edge

    def remove_edge(self, edge_id: EdgeId) -> Edge:
        """Delete an edge; returns the removed :class:`Edge`."""
        edge = self.edge(edge_id)
        self._detach_edge(edge)
        if self._listeners:
            self._emit(GraphChange(kind=ChangeKind.REMOVE_EDGE, edge_id=edge_id,
                                   touched_nodes=(edge.source, edge.target),
                                   details={"label": edge.label, "source": edge.source,
                                            "target": edge.target,
                                            "properties": dict(edge.properties)}))
        return edge

    def remove_node(self, node_id: NodeId) -> Node:
        """Delete a node and all incident edges; returns the removed :class:`Node`."""
        node = self.node(node_id)
        incident = self.incident_edges(node_id)
        removed_edges = []
        removed_specs = []
        touched: set[NodeId] = {node_id}
        for edge in incident:
            touched.add(edge.source)
            touched.add(edge.target)
            removed_specs.append(_edge_spec(edge))
            self._detach_edge(edge)
            removed_edges.append(edge.id)
        del self._nodes[node_id]
        del self._out_edges[node_id]
        del self._in_edges[node_id]
        self._discard_from_index(self._nodes_by_label, node.label, node_id)
        touched.discard(node_id)
        if self._listeners:
            self._emit(GraphChange(kind=ChangeKind.REMOVE_NODE, node_id=node_id,
                                   touched_nodes=tuple(touched),
                                   details={"label": node.label,
                                            "properties": dict(node.properties),
                                            "removed_edges": tuple(removed_edges),
                                            "removed_edge_specs": tuple(removed_specs)}))
        return node

    def update_node(self, node_id: NodeId, properties: Mapping[str, Any] | None = None,
                    remove_keys: Iterable[str] = ()) -> Node:
        """Set/overwrite node properties and/or remove property keys."""
        node = self.node(node_id)
        before = dict(node.properties)
        for key in remove_keys:
            node.properties.pop(key, None)
        if properties:
            node.properties.update(properties)
        node.invalidate_signature()
        if self._listeners:
            self._emit(GraphChange(kind=ChangeKind.UPDATE_NODE, node_id=node_id,
                                   touched_nodes=(node_id,),
                                   details={"before": before, "after": dict(node.properties)}))
        return node

    def update_edge(self, edge_id: EdgeId, properties: Mapping[str, Any] | None = None,
                    remove_keys: Iterable[str] = ()) -> Edge:
        """Set/overwrite edge properties and/or remove property keys."""
        edge = self.edge(edge_id)
        before = dict(edge.properties)
        for key in remove_keys:
            edge.properties.pop(key, None)
        if properties:
            edge.properties.update(properties)
        edge.invalidate_signature()
        if self._listeners:
            self._emit(GraphChange(kind=ChangeKind.UPDATE_EDGE, edge_id=edge_id,
                                   touched_nodes=(edge.source, edge.target),
                                   details={"before": before, "after": dict(edge.properties)}))
        return edge

    def relabel_node(self, node_id: NodeId, new_label: Label) -> Node:
        """Change a node's label, keeping id, properties, and incident edges."""
        node = self.node(node_id)
        old_label = node.label
        if old_label == new_label:
            return node
        self._discard_from_index(self._nodes_by_label, old_label, node_id)
        node.label = _intern(new_label)
        node.invalidate_signature()
        new_label = node.label
        self._nodes_by_label.setdefault(new_label, set()).add(node_id)
        if self._listeners:
            self._emit(GraphChange(kind=ChangeKind.RELABEL_NODE, node_id=node_id,
                                   touched_nodes=(node_id,),
                                   details={"before": old_label, "after": new_label}))
        return node

    def relabel_edge(self, edge_id: EdgeId, new_label: Label) -> Edge:
        """Change an edge's label (predicate), keeping endpoints and properties."""
        edge = self.edge(edge_id)
        old_label = edge.label
        if old_label == new_label:
            return edge
        self._discard_from_index(self._edges_by_label, old_label, edge_id)
        self._discard_from_label_bucket(self._out_by_label, edge.source, old_label, edge_id)
        self._discard_from_label_bucket(self._in_by_label, edge.target, old_label, edge_id)
        edge.label = _intern(new_label)
        edge.invalidate_signature()
        new_label = edge.label
        self._edges_by_label.setdefault(new_label, set()).add(edge_id)
        self._out_by_label.setdefault((edge.source, new_label), {})[edge_id] = None
        self._in_by_label.setdefault((edge.target, new_label), {})[edge_id] = None
        if self._listeners:
            self._emit(GraphChange(kind=ChangeKind.RELABEL_EDGE, edge_id=edge_id,
                                   touched_nodes=(edge.source, edge.target),
                                   details={"before": old_label, "after": new_label}))
        return edge

    def merge_nodes(self, keep_id: NodeId, merge_id: NodeId,
                    prefer_kept_properties: bool = True,
                    drop_duplicate_edges: bool = True) -> Node:
        """Fuse ``merge_id`` into ``keep_id``.

        All edges incident to the merged node are redirected to the kept node.
        Properties are merged (kept node's values win unless
        ``prefer_kept_properties=False``).  With ``drop_duplicate_edges=True``
        (the default) a redirected edge is dropped instead of redirected when
        the kept node already has an edge with the same label, same other
        endpoint, and same direction — this is what makes MERGE_NODES the
        natural repair for entity duplication without creating new parallel
        duplicates.
        """
        if keep_id == merge_id:
            raise GraphMutationError("cannot merge a node into itself")
        keep = self.node(keep_id)
        merge = self.node(merge_id)
        keep_properties_before = dict(keep.properties)
        merged_properties = dict(merge.properties)

        added_edges: list[EdgeId] = []
        removed_edges: list[EdgeId] = []
        removed_specs: list[dict[str, Any]] = []
        touched: set[NodeId] = {keep_id, merge_id}

        for edge in list(self.incident_edges(merge_id)):
            touched.add(edge.source)
            touched.add(edge.target)
            new_source = keep_id if edge.source == merge_id else edge.source
            new_target = keep_id if edge.target == merge_id else edge.target
            removed_specs.append(_edge_spec(edge))
            self._detach_edge(edge)
            removed_edges.append(edge.id)
            if drop_duplicate_edges and self._has_equivalent_edge(new_source, new_target, edge.label):
                continue
            replacement = Edge(id=self._edge_ids.next(), source=new_source,
                               target=new_target, label=edge.label,
                               properties=dict(edge.properties))
            self._edges[replacement.id] = replacement
            self._attach_edge_to_indexes(replacement)
            added_edges.append(replacement.id)

        if prefer_kept_properties:
            keep.properties = merge_properties(keep.properties, merge.properties,
                                               overwrite=False)
        else:
            keep.properties = merge_properties(keep.properties, merge.properties,
                                               overwrite=True)
        keep.invalidate_signature()
        added_specs = tuple(_edge_spec(self._edges[edge_id])
                            for edge_id in added_edges)

        del self._nodes[merge_id]
        del self._out_edges[merge_id]
        del self._in_edges[merge_id]
        self._discard_from_index(self._nodes_by_label, merge.label, merge_id)
        touched.discard(merge_id)

        if self._listeners:
            self._emit(GraphChange(kind=ChangeKind.MERGE_NODES, node_id=keep_id,
                                   touched_nodes=tuple(touched),
                                   details={"merged": merge_id,
                                            "merged_label": merge.label,
                                            "merged_properties": merged_properties,
                                            "keep_properties_before": keep_properties_before,
                                            "keep_properties_after": dict(keep.properties),
                                            "prefer_kept_properties": prefer_kept_properties,
                                            "drop_duplicate_edges": drop_duplicate_edges,
                                            "added_edges": tuple(added_edges),
                                            "added_edge_specs": added_specs,
                                            "removed_edges": tuple(removed_edges),
                                            "removed_edge_specs": tuple(removed_specs)}))
        return keep

    # ------------------------------------------------------------------
    # id reservation
    # ------------------------------------------------------------------

    def reserve_node_ids(self, count: int) -> list[str]:
        """Reserve ``count`` fresh node ids from this graph's generator.

        The ids are guaranteed never to be handed out by a later
        :meth:`add_node`; a coordinator rewrites a foreign delta's created
        ids onto a reserved block before replaying it here, so replayed
        elements can never collide with this graph's id space (see
        :func:`repro.graph.delta.rebase_delta`).
        """
        return self._node_ids.reserve(count)

    def reserve_edge_ids(self, count: int) -> list[str]:
        """Reserve ``count`` fresh edge ids (see :meth:`reserve_node_ids`)."""
        return self._edge_ids.reserve(count)

    # ------------------------------------------------------------------
    # bulk / copy / conversion
    # ------------------------------------------------------------------

    @classmethod
    def _from_elements(cls, nodes: Iterable[tuple[NodeId, Label, Properties]],
                       edges: Iterable[tuple[EdgeId, NodeId, NodeId, Label, Properties]],
                       *, name: str = "graph",
                       id_namespace: str | None = None) -> "PropertyGraph":
        """Build a whole graph in one pass: the bulk form of :meth:`add_node`
        and :meth:`add_edge`.

        ``nodes`` yields ``(id, label, properties)`` rows and ``edges``
        ``(id, source, target, label, properties)`` rows; the graph takes
        ownership of each properties dict.  Ids and labels are interned,
        endpoints and duplicate ids are validated with the per-element
        errors, every store, adjacency dict, label bucket and label index
        is filled in row order, and both id generators observe every id —
        so the result, its iteration order and its next fresh ids all equal
        those of the per-element build.  No change records are emitted.
        """
        graph = cls(name=name, id_namespace=id_namespace)
        node_store, edge_store = graph._nodes, graph._edges
        attach_node, attach_edge = graph._attach_node, graph._attach_edge_to_indexes
        for node_id, label, properties in nodes:
            node_id = _intern(str(node_id))
            if node_id in node_store:
                raise DuplicateElementError(f"node id {node_id!r} already exists")
            attach_node(Node(node_id, _intern(label), properties))
        for edge_id, source, target, label, properties in edges:
            source_node = node_store.get(source)
            if source_node is None:
                raise NodeNotFoundError(source)
            target_node = node_store.get(target)
            if target_node is None:
                raise NodeNotFoundError(target)
            edge_id = _intern(str(edge_id))
            if edge_id in edge_store:
                raise DuplicateElementError(f"edge id {edge_id!r} already exists")
            edge = Edge(edge_id, source_node.id, target_node.id, _intern(label),
                        properties)
            edge_store[edge_id] = edge
            attach_edge(edge)
        graph._node_ids.observe_all(node_store)
        graph._edge_ids.observe_all(edge_store)
        return graph

    def copy(self, name: str | None = None) -> "PropertyGraph":
        """Deep copy (listeners are not copied)."""
        return PropertyGraph._from_elements(
            *_element_rows(self._nodes.values(), self._edges.values()),
            name=name or self.name)

    def subgraph(self, node_ids: Iterable[NodeId], name: str | None = None,
                 id_namespace: str | None = None) -> "PropertyGraph":
        """Induced subgraph on ``node_ids`` (edges with both endpoints inside).

        Nodes are inserted in this graph's insertion order and edges are
        collected from the kept nodes' adjacency (cost proportional to the
        kept nodes' degrees, not to the whole edge set), so repeated shard
        extraction is both cheap and deterministic across processes.
        ``id_namespace`` seeds the subgraph's id generators with a disjoint
        prefix for ids it creates later (shard-local repairs).
        """
        keep = set(node_ids)
        missing = keep.difference(self._nodes)
        if missing:
            raise NodeNotFoundError(sorted(missing)[0])
        kept = [node for node_id, node in self._nodes.items() if node_id in keep]
        edges = self._edges
        kept_edges = (edge for node in kept for edge_id in self._out_edges[node.id]
                      if (edge := edges[edge_id]).target in keep)
        return PropertyGraph._from_elements(
            *_element_rows(kept, kept_edges),
            name=name or f"{self.name}-sub", id_namespace=id_namespace)

    def neighborhood(self, node_ids: Iterable[NodeId], hops: int = 1) -> set[NodeId]:
        """Node ids within ``hops`` undirected hops of any seed node (seeds included).

        Walks the adjacency dicts and the edge store directly, building no
        per-node :class:`Edge` lists: the partition halos and the sharded
        backend's halo checks call this over whole shard cores.
        """
        edges, out_edges, in_edges = self._edges, self._out_edges, self._in_edges
        frontier = {node_id for node_id in node_ids if node_id in self._nodes}
        visited = set(frontier)
        for _ in range(hops):
            next_frontier: set[NodeId] = set()
            for node_id in frontier:
                next_frontier.update([edges[edge_id].target
                                      for edge_id in out_edges[node_id]])
                next_frontier.update([edges[edge_id].source
                                      for edge_id in in_edges[node_id]])
            next_frontier -= visited
            if not next_frontier:
                break
            visited.update(next_frontier)
            frontier = next_frontier
        return visited

    def to_networkx(self):
        """Convert to a :class:`networkx.MultiDiGraph` (labels stored as attributes)."""
        import networkx as nx

        nx_graph = nx.MultiDiGraph(name=self.name)
        for node in self._nodes.values():
            nx_graph.add_node(node.id, label=node.label, **node.properties)
        for edge in self._edges.values():
            nx_graph.add_edge(edge.source, edge.target, key=edge.id,
                              label=edge.label, **edge.properties)
        return nx_graph

    @classmethod
    def from_networkx(cls, nx_graph, name: str | None = None) -> "PropertyGraph":
        """Build a :class:`PropertyGraph` from a networkx (multi)digraph.

        Node/edge attribute ``label`` becomes the element label (defaulting to
        ``"Node"`` / ``"edge"``); remaining attributes become properties.
        """
        graph = cls(name=name or getattr(nx_graph, "name", None) or "graph")
        for node_id, attrs in nx_graph.nodes(data=True):
            attrs = dict(attrs)
            label = attrs.pop("label", "Node")
            graph.add_node(label, attrs, node_id=str(node_id))
        if nx_graph.is_multigraph():
            edge_iter = ((u, v, data) for u, v, _key, data in nx_graph.edges(keys=True, data=True))
        else:
            edge_iter = nx_graph.edges(data=True)
        for source, target, attrs in edge_iter:
            attrs = dict(attrs)
            label = attrs.pop("label", "edge")
            graph.add_edge(str(source), str(target), label, attrs)
        return graph

    # ------------------------------------------------------------------
    # equality / hashing helpers
    # ------------------------------------------------------------------

    def structurally_equal(self, other: "PropertyGraph") -> bool:
        """Exact equality of node/edge sets including ids, labels and properties."""
        if self.num_nodes != other.num_nodes or self.num_edges != other.num_edges:
            return False
        for node_id, node in self._nodes.items():
            if not other.has_node(node_id):
                return False
            other_node = other.node(node_id)
            if node.label != other_node.label or node.properties != other_node.properties:
                return False
        mine = {(e.source, e.target, e.label, tuple(sorted(e.properties.items(), key=repr)))
                for e in self._edges.values()}
        theirs = {(e.source, e.target, e.label, tuple(sorted(e.properties.items(), key=repr)))
                  for e in other._edges.values()}
        return mine == theirs

    def __repr__(self) -> str:
        return (f"PropertyGraph(name={self.name!r}, nodes={self.num_nodes}, "
                f"edges={self.num_edges})")

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------

    def _require_node(self, node_id: NodeId) -> None:
        if node_id not in self._nodes:
            raise NodeNotFoundError(node_id)

    def _attach_node(self, node: Node) -> None:
        """Store a new node and give it empty adjacency and its label index
        entry."""
        self._nodes[node.id] = node
        self._out_edges[node.id] = {}
        self._in_edges[node.id] = {}
        self._nodes_by_label.setdefault(node.label, set()).add(node.id)

    def _attach_edge_to_indexes(self, edge: Edge) -> None:
        """Register an already-stored edge in every adjacency/label index."""
        self._out_edges[edge.source][edge.id] = None
        self._in_edges[edge.target][edge.id] = None
        self._edges_by_label.setdefault(edge.label, set()).add(edge.id)
        self._out_by_label.setdefault((edge.source, edge.label), {})[edge.id] = None
        self._in_by_label.setdefault((edge.target, edge.label), {})[edge.id] = None

    def _detach_edge(self, edge: Edge) -> None:
        del self._edges[edge.id]
        self._out_edges[edge.source].pop(edge.id, None)
        self._in_edges[edge.target].pop(edge.id, None)
        self._discard_from_index(self._edges_by_label, edge.label, edge.id)
        self._discard_from_label_bucket(self._out_by_label, edge.source, edge.label, edge.id)
        self._discard_from_label_bucket(self._in_by_label, edge.target, edge.label, edge.id)

    def _has_equivalent_edge(self, source: NodeId, target: NodeId, label: Label) -> bool:
        for edge_id in self._out_by_label.get((source, label), ()):
            if self._edges[edge_id].target == target:
                return True
        return False

    @staticmethod
    def _discard_from_index(index: dict[str, set], key: str, value: str) -> None:
        bucket = index.get(key)
        if bucket is None:
            return
        bucket.discard(value)
        if not bucket:
            del index[key]

    @staticmethod
    def _discard_from_label_bucket(index: dict[tuple[NodeId, Label], dict[EdgeId, None]],
                                   node_id: NodeId, label: Label, edge_id: EdgeId) -> None:
        key = (node_id, label)
        bucket = index.get(key)
        if bucket is None:
            return
        bucket.pop(edge_id, None)
        if not bucket:
            del index[key]
