"""Projecting primary committed deltas onto standing shard replicas.

A warm worker keeps a **standing replica** of its shard — the induced
subgraph over the shard's ``core | halo`` nodes — alive across repair calls,
together with its :class:`~repro.repair.fast.FastRepairCore`.  Between
calls, everything that changed on the primary graph (committed session
transactions, merged worker repairs, coordinator settle repairs) must reach
the replicas so worker detection can stay *incremental* instead of
re-enumerating the shard from scratch.

A primary delta cannot be replayed on a replica verbatim: the replica holds
only a slice of the graph.  :func:`project_delta` filters one primary delta
down to the changes a given shard can express, with three possible fates per
change:

* **included** — every element the change references lives on the replica
  (or is created by an earlier change of the same projection); the change is
  shipped and replays exactly, ids included;
* **skipped** — the change touches no replica node, or it concerns an edge
  whose endpoints straddle the replica boundary and which therefore never
  existed on the replica (induced-subgraph semantics make skipping sound:
  the replica never held the element, and by the rule-radius halo guarantee
  no core-owned match can probe it);
* **stale** — the change is *relevant* to the replica but not expressible on
  it: an edge now crosses the replica boundary (the halo is no longer the
  full ``radius``-neighbourhood of the core) or a node merge straddles it.
  The projection reports the shard stale and ships nothing; the coordinator
  re-extracts a fresh working copy (rebind) instead.

Created elements are **adopted**: a node the delta creates joins the
replica's node set when some change of the same delta connects it to a
replica node (transitively through other created nodes — the pass iterates
to a fixpoint).  Adopted nodes become replica *context*, not owned core
nodes: violations binding them stay with the coordinator's settle drain, so
ownership never overlaps between shards however many elements repairs
create.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.delta import ChangeKind, GraphChange, GraphDelta


@dataclass
class DeltaProjection:
    """The result of projecting one primary delta onto one shard node set."""

    #: the changes the shard replica should replay, in primary order
    shipped: GraphDelta = field(default_factory=GraphDelta)
    #: created nodes that joined the replica's node set
    adopted_nodes: set[str] = field(default_factory=set)
    #: member nodes the delta removed (or merged away)
    removed_nodes: set[str] = field(default_factory=set)
    #: True when a relevant change cannot be expressed on the replica —
    #: ship nothing and rebind the shard from a fresh extraction instead
    stale: bool = False
    reason: str = ""

    def __bool__(self) -> bool:
        return bool(self.shipped) and not self.stale

    def apply_membership(self, node_ids: set[str]) -> None:
        """Fold the projection's membership changes into ``node_ids``."""
        node_ids |= self.adopted_nodes
        node_ids -= self.removed_nodes


def _edge_endpoints(change: GraphChange) -> tuple[str, str]:
    """Both endpoints of an edge-level change (every edge mutation records
    them: ``details`` for add/remove, ``touched_nodes`` for update/relabel)."""
    details = change.details
    if "source" in details and "target" in details:
        return details["source"], details["target"]
    source, target = change.touched_nodes
    return source, target


def _adopted_created_nodes(delta: GraphDelta, members: set[str]) -> set[str]:
    """Created nodes reachable from the member set through the delta's own
    edges (iterated to a fixpoint so chains of created nodes adopt together)."""
    created: set[str] = set(delta.added_node_ids)
    if not created:
        return set()
    adopted: set[str] = set()
    changed = True
    while changed:
        changed = False
        for change in delta.changes:
            if change.kind is not ChangeKind.ADD_EDGE:
                continue
            source, target = _edge_endpoints(change)
            inside = members | adopted
            for candidate, anchor in ((source, target), (target, source)):
                if candidate in created and candidate not in adopted \
                        and anchor in inside:
                    adopted.add(candidate)
                    changed = True
    return adopted


class ReplicaView:
    """Membership bookkeeping for one standing replica of a node subset.

    The stateful wrapper around :func:`project_delta` that every consumer of
    a projected feed repeats: track the current member set, project each
    primary delta against it, fold the membership changes in on success, and
    flag the view **stale** — rebind from a fresh extraction of the primary
    (or, for a remote read replica, a fresh snapshot) — when a change cannot
    be expressed on the slice.  Used by the sharded coordinator's
    semantics and by scoped cross-process read replicas
    (:class:`repro.durability.replication.ReadReplica`).
    """

    def __init__(self, node_ids: set[str]) -> None:
        self.node_ids = set(node_ids)
        self.stale = False
        self.stale_reason = ""

    def project(self, delta: GraphDelta) -> DeltaProjection:
        """Project one primary delta; membership updates on success.

        Once stale, every further projection reports stale too (the view no
        longer tracks the primary) until :meth:`rebind`.
        """
        if self.stale:
            projection = DeltaProjection(stale=True, reason=self.stale_reason)
            return projection
        projection = project_delta(delta, self.node_ids)
        if projection.stale:
            self.stale = True
            self.stale_reason = projection.reason
        else:
            projection.apply_membership(self.node_ids)
        return projection

    def rebind(self, node_ids: set[str]) -> None:
        """Reset the view onto a freshly extracted member set."""
        self.node_ids = set(node_ids)
        self.stale = False
        self.stale_reason = ""


def project_delta(delta: GraphDelta, node_ids: set[str]) -> DeltaProjection:
    """Project one primary ``delta`` onto the replica whose current node set
    is ``node_ids``.  The input set is not mutated; apply the returned
    projection's membership changes after shipping succeeded."""
    projection = DeltaProjection()
    members = set(node_ids)
    adopted = _adopted_created_nodes(delta, members)

    def stale(change: GraphChange, why: str) -> DeltaProjection:
        projection.stale = True
        projection.reason = f"{change.kind.value}: {why}"
        projection.shipped = GraphDelta()
        return projection

    for change in delta.changes:
        kind = change.kind
        if kind is ChangeKind.ADD_NODE:
            if change.node_id in adopted:
                members.add(change.node_id)
                projection.adopted_nodes.add(change.node_id)
                projection.shipped.record(change)
            continue
        if kind is ChangeKind.REMOVE_NODE:
            if change.node_id in members:
                members.discard(change.node_id)
                projection.removed_nodes.add(change.node_id)
                projection.adopted_nodes.discard(change.node_id)
                projection.shipped.record(change)
            continue
        if kind in (ChangeKind.UPDATE_NODE, ChangeKind.RELABEL_NODE):
            if change.node_id in members:
                projection.shipped.record(change)
            continue
        if kind is ChangeKind.ADD_EDGE:
            source, target = _edge_endpoints(change)
            in_source, in_target = source in members, target in members
            if in_source and in_target:
                projection.shipped.record(change)
            elif in_source or in_target:
                # the halo is no longer the full radius-neighbourhood of the
                # core: structure reachable from a replica node now lives
                # outside the replica, so shard-local decisions could diverge
                return stale(change, "new edge crosses the replica boundary "
                                     f"({source!r} -> {target!r})")
            continue
        if kind in (ChangeKind.REMOVE_EDGE, ChangeKind.UPDATE_EDGE,
                    ChangeKind.RELABEL_EDGE):
            source, target = _edge_endpoints(change)
            # an edge exists on the induced replica iff both endpoints do;
            # boundary-crossing edges were never there, so their mutations
            # are irrelevant to the replica
            if source in members and target in members:
                projection.shipped.record(change)
            continue
        if kind is ChangeKind.MERGE_NODES:
            merged = change.details.get("merged")
            touched = set(change.touched_nodes) | {change.node_id, merged}
            relevant = touched & members
            if not relevant:
                continue
            if touched <= members:
                members.discard(merged)
                projection.removed_nodes.add(merged)
                projection.adopted_nodes.discard(merged)
                projection.shipped.record(change)
                continue
            return stale(change, "node merge straddles the replica boundary")
        # pragma: no cover — exhaustive over ChangeKind
        return stale(change, "unknown change kind")
    return projection
