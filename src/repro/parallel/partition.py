"""Rule-radius-aware graph partitioning for the sharded repair backend.

The partitioner cuts one :class:`~repro.graph.PropertyGraph` into ``K``
shards a worker process can repair independently:

* **core** — a set of nodes *owned* by the shard.  The cores partition the
  node set: every node is owned by exactly one shard.  A worker only applies
  violations whose matches bind core nodes exclusively, so two workers can
  never repair the same violation.
* **halo** — every node within ``radius`` undirected hops of the core but
  owned by another shard.  The worker's subgraph is the induced graph over
  ``core | halo``; the halo is read-only context that makes shard-local
  decisions agree with global ones: a match bound entirely inside the core
  can only probe structure (missing-pattern extensions, witness edges,
  equivalent-edge checks) within ``radius`` hops of its bound nodes, and all
  of that is present in the subgraph.
* **frontier** — the core nodes with at least one neighbour outside the
  core.  Violations binding frontier nodes may also bind non-core nodes;
  those stay with the coordinator's follow-up drain.

``radius`` comes from the rule set: :func:`rule_radius` measures, per rule,
how far (in variable-graph hops) the evidence-plus-missing pattern reaches
from any evidence variable, and takes the maximum.  That is exactly the
horizon a violation check can inspect around its bound nodes — a safe halo
depth for any rule set, computed instead of guessed.

Cores are grown by deterministic BFS over the graph's insertion-ordered
adjacency (no hashing, no randomness), so the same graph and shard count
always produce the same partition in every process — one of the pillars of
the sharded backend's determinism guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.io import subgraph_to_dict
from repro.graph.property_graph import PropertyGraph
from repro.rules.grr import GraphRepairingRule, RuleSet


def _pattern_reach(rule: GraphRepairingRule) -> int:
    """Max hops from any *evidence* variable to any variable of the rule's
    combined evidence+missing pattern graph (undirected BFS)."""
    adjacency: dict[str, list[str]] = {}

    def connect(source: str, target: str) -> None:
        adjacency.setdefault(source, []).append(target)
        adjacency.setdefault(target, []).append(source)

    for edge in rule.pattern.edges:
        connect(edge.source, edge.target)
    for variable in rule.pattern.variables:
        adjacency.setdefault(variable, [])
    if rule.missing is not None:
        for edge in rule.missing.edges:
            connect(edge.source, edge.target)
        for variable in rule.missing.variables:
            adjacency.setdefault(variable, [])

    reach = 0
    for start in rule.pattern.variables:
        distance = {start: 0}
        frontier = [start]
        while frontier:
            next_frontier: list[str] = []
            for variable in frontier:
                for neighbour in adjacency.get(variable, ()):
                    if neighbour not in distance:
                        distance[neighbour] = distance[variable] + 1
                        next_frontier.append(neighbour)
            frontier = next_frontier
        if len(distance) < len(adjacency):
            # a variable unreachable from this evidence variable (possible
            # only for degenerate rule shapes): fall back to the worst case
            return max(len(adjacency) - 1, 1)
        reach = max(reach, max(distance.values(), default=0))
    return reach


def rule_radius(rules: RuleSet) -> int:
    """The halo depth the rule set needs: the widest pattern reach of any
    rule, and at least 1 (repairs touch the 1-hop structure of bound nodes —
    a node merge redirects edges to immediate neighbours)."""
    return max([_pattern_reach(rule) for rule in rules] + [1])


@dataclass
class Shard:
    """One partition cell: owned core, read-only halo, and the frontier."""

    index: int
    core: set[str]
    halo: set[str]
    frontier: set[str]

    @property
    def namespace(self) -> str:
        """The id namespace of this shard's working copies (``"s<index>"``)."""
        return f"s{self.index}"

    def node_ids(self) -> set[str]:
        return self.core | self.halo

    def extract(self, graph: PropertyGraph) -> dict:
        """The shard's working copy as a spawn-safe graph document: the
        induced subgraph over core + halo, read straight off ``graph``'s
        adjacency (:func:`repro.graph.io.subgraph_to_dict`).  The worker
        rebuilds it with ``graph_from_dict(document,
        id_namespace=self.namespace)``, so ids it creates never collide with
        the primary's or another shard's."""
        return subgraph_to_dict(graph, self.node_ids(),
                                name=f"{graph.name}-{self.namespace}")


@dataclass
class ShardPlan:
    """The result of partitioning one graph for one rule set."""

    shards: list[Shard]
    radius: int
    cut_edges: int = 0
    #: total halo nodes across shards / graph nodes — the replication factor
    #: the halo costs; >1.0 means every node is (on average) copied into more
    #: than one extra shard, a sign the radius is large relative to the graph
    halo_fraction: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.shards)


def _adjacent_in_order(graph: PropertyGraph, node_id: str):
    """Neighbours of ``node_id`` in adjacency insertion order (out-edges
    before in-edges) — the deterministic iteration the BFS growth relies on."""
    for edge in graph.iter_out_edges(node_id):
        yield edge.target
    for edge in graph.iter_in_edges(node_id):
        yield edge.source


def partition_graph(graph: PropertyGraph, shard_count: int,
                    radius: int) -> ShardPlan:
    """Cut ``graph`` into ``shard_count`` radius-aware shards.

    Cores are grown one at a time by BFS from the first unassigned node (in
    node insertion order) over insertion-ordered adjacency, up to
    ``ceil(n / shard_count)`` nodes per core — connected, deterministic, and
    locality-preserving (BFS growth keeps most edges inside one core, which
    is what keeps frontiers and halos small).  Disconnected remainders seed
    new BFS waves until every node is assigned.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    node_order = graph.node_ids()
    total = len(node_order)
    shard_count = min(shard_count, total) if total else 1
    target = -(-total // shard_count) if total else 0  # ceil division

    assigned: dict[str, int] = {}
    cores: list[set[str]] = []
    cursor = 0
    while len(assigned) < total:
        if len(cores) == shard_count:
            # rounding left unassigned nodes: fold them into the last core
            core = cores[-1]
            shard_index = len(cores) - 1
            capacity = total  # unbounded
        else:
            core = set()
            shard_index = len(cores)
            cores.append(core)
            capacity = target
        # BFS waves from insertion-ordered seeds until this core is full
        while len(core) < capacity and len(assigned) < total:
            while cursor < total and node_order[cursor] in assigned:
                cursor += 1
            if cursor >= total:
                break
            frontier = [node_order[cursor]]
            assigned[node_order[cursor]] = shard_index
            core.add(node_order[cursor])
            while frontier and len(core) < capacity:
                next_frontier: list[str] = []
                for node_id in frontier:
                    for neighbour in _adjacent_in_order(graph, node_id):
                        if neighbour not in assigned:
                            assigned[neighbour] = shard_index
                            core.add(neighbour)
                            next_frontier.append(neighbour)
                            if len(core) >= capacity:
                                break
                    if len(core) >= capacity:
                        break
                frontier = next_frontier

    shards: list[Shard] = []
    cut_edges = 0
    halo_total = 0
    for index, core in enumerate(cores):
        frontier = set()
        for node_id in core:
            for edge in graph.iter_out_edges(node_id):
                if edge.target not in core:
                    frontier.add(node_id)
                    cut_edges += 1
            for edge in graph.iter_in_edges(node_id):
                if edge.source not in core:
                    frontier.add(node_id)
        halo = graph.neighborhood(core, hops=radius) - core
        halo_total += len(halo)
        shards.append(Shard(index=index, core=core, halo=halo,
                            frontier=frontier))

    return ShardPlan(
        shards=shards,
        radius=radius,
        cut_edges=cut_edges,
        halo_fraction=(halo_total / total) if total else 0.0,
        diagnostics={"nodes": total, "target_core_size": target,
                     "core_sizes": [len(core) for core in cores]},
    )
