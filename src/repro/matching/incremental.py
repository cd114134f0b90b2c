"""Incremental match maintenance under graph deltas.

The key optimisation of the fast repair algorithm: after a repair mutates the
graph, we do not re-enumerate all matches of all rule patterns.  Instead:

1. **Invalidation** — :meth:`Pattern.check_match` reads only a match's bound
   nodes and the edges between pairs of bound nodes, so a change can alter
   only the stored matches inside its *region* (:class:`DeltaRegion`):

   * an edge change (add, remove, update, relabel) from ``s`` to ``t``
     reaches the matches binding both ``s`` and ``t`` (a match binding the
     edge itself binds both, since an edge variable binds an edge between
     the bound endpoints and edges never change endpoints);
   * a node update, relabel or removal reaches the matches binding the node;
   * a merge reaches the matches binding the survivor or the merged node;
   * an added node reaches no stored match.

   Only the matches in the region are re-verified; invalid ones are dropped.
   The store keeps an **inverted node→match index** (node id → match keys),
   and an endpoint pair is the intersection of two node buckets, so the cost
   is O(matches in the region) — a hub node bound by thousands of matches
   costs nothing when the other endpoint is bound by few.
2. **Discovery** — a match that exists after the delta but not before must
   bind at least one *changed* element.  Seeded backtracking searches are
   therefore derived once per delta (:class:`DeltaSeeds`), per change kind:
   an added/updated/relabelled data edge pins **both** endpoint variables of
   every label-compatible pattern edge (the new match must use the changed
   edge as witness or edge binding, so its endpoints are fixed), and an
   added/updated/relabelled node is pinned at every label-compatible
   variable.  A merge is seeded at its survivor only: it adds nothing but the
   survivor's merged properties and replacement edges that all have the
   survivor as an endpoint, and :meth:`Pattern.check_match` reads only bound
   nodes and the edges between bound pairs, so every match a merge creates
   binds the survivor.  Removals are purely subtractive for this
   existential-positive pattern language and trigger no discovery.  The union
   of the searches, deduplicated by match key, is exactly the set of new
   matches.
3. **Recheck candidates** — for the evidence stores of incompleteness rules,
   :meth:`IncrementalMatcher.recheck_candidates` names the stored matches
   whose missing-pattern extension a delta may have removed.  The same
   region rule applies, restricted to subtractive changes and to edges whose
   label the missing pattern reads; a missing pattern with variables of its
   own can reach outside the bound nodes and falls back to the whole store.

The correctness argument is the standard locality argument for connected
patterns: every new match binds a changed element, every changed element's
possible positions in a match are enumerated, and seeded search is complete
for a fixed seed.

One :class:`~repro.matching.vf2.VF2Matcher` instance is shared across the
initial enumeration and every seeded search, so per-pattern search plans are
compiled once and :class:`~repro.matching.vf2.MatchingStats` accumulate for
the whole maintenance lifetime (surfaced in the repair report).  The shared
engine also means every seeded discovery search goes through the same
predicate-pushdown candidate derivation as full enumeration: value buckets
registered at :meth:`IncrementalMatcher.register` time keep pruning
constant-equality failures out of the thousands of seeded searches a repair
run performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.graph.delta import ChangeKind, GraphChange, GraphDelta
from repro.graph.property_graph import PropertyGraph
from repro.matching.decomposition import variables_compatible_with_label
from repro.matching.index import CandidateIndex, pattern_requirements
from repro.matching.pattern import Match, Pattern
from repro.matching.vf2 import MatchingStats, VF2Matcher

# The reach of each change kind (see the module docstring): its *region*,
# the stored matches it can invalidate — those binding both endpoints of the
# changed edge, or binding the changed node (for a merge, the survivor or the
# merged node) — and its discovery *seed*, where a match it creates must bind:
# at both endpoints of the changed edge, or at the changed node (for a merge,
# the survivor).  ``None``: the kind reaches no stored match, or creates none
# (removals are purely subtractive for this existential-positive pattern
# language).
_EDGE, _NODE = "edge", "node"
_REACH: dict[ChangeKind, tuple[str | None, str | None]] = {
    #                         region   seed
    ChangeKind.ADD_EDGE:      (_EDGE, _EDGE),
    ChangeKind.UPDATE_EDGE:   (_EDGE, _EDGE),
    ChangeKind.RELABEL_EDGE:  (_EDGE, _EDGE),
    ChangeKind.REMOVE_EDGE:   (_EDGE, None),
    ChangeKind.ADD_NODE:      (None, _NODE),
    ChangeKind.UPDATE_NODE:   (_NODE, _NODE),
    ChangeKind.RELABEL_NODE:  (_NODE, _NODE),
    ChangeKind.REMOVE_NODE:   (_NODE, None),
    ChangeKind.MERGE_NODES:   (_NODE, _NODE),
}
_EDGE_KINDS = frozenset(kind for kind, (region, _) in _REACH.items()
                        if region == _EDGE)


@dataclass
class DeltaRegion:
    """Where a delta can change what :meth:`Pattern.check_match` reads.

    A stored match is inside the region when it binds a node in ``nodes``
    or both endpoints of a pair in ``pairs``; no other stored match can have
    changed validity (see the module docstring for the rule per change kind).
    """

    nodes: set[str] = field(default_factory=set)
    pairs: set[tuple[str, str]] = field(default_factory=set)

    @classmethod
    def of(cls, changes: Iterable[GraphChange]) -> "DeltaRegion":
        region = cls()
        for change in changes:
            region.add(change)
        return region

    def add(self, change: GraphChange) -> None:
        """Widen the region by the reach of one change."""
        region = _REACH[change.kind][0]
        if region == _EDGE:
            self.pairs.add(change.touched_nodes)  # (source, target)
        elif region == _NODE:
            self.nodes.add(change.node_id)
            merged = change.details.get("merged")
            if merged is not None:
                self.nodes.add(merged)


@dataclass
class DeltaSeeds:
    """Where a match that a delta creates must bind.

    A new match binds a node in ``nodes`` or both endpoints of an edge
    ``(source, target, label)`` in ``edges``, read from the graph after the
    delta (see the module docstring for the seed per change kind).  Elements
    the delta created and then removed again seed nothing.  Both lists are
    sorted, so the seeded searches run in the same order in every process.
    """

    nodes: list[str] = field(default_factory=list)
    edges: list[tuple[str, str, str]] = field(default_factory=list)

    @classmethod
    def of(cls, graph: PropertyGraph, changes: Iterable[GraphChange]) -> "DeltaSeeds":
        nodes: set[str] = set()
        edges: set[tuple[str, str, str]] = set()
        for change in changes:
            seed = _REACH[change.kind][1]
            if seed == _EDGE:
                if change.edge_id is not None and graph.has_edge(change.edge_id):
                    edge = graph.edge(change.edge_id)
                    edges.add((edge.source, edge.target, edge.label))
            elif seed == _NODE:
                if change.node_id is not None and graph.has_node(change.node_id):
                    nodes.add(change.node_id)
        return cls(nodes=sorted(nodes), edges=sorted(edges))


def _label_set(labels: Iterable[str | None]) -> frozenset[str] | None:
    """The labels as a set, or ``None`` (any label) if one is a wildcard."""
    labels = list(labels)
    return None if None in labels else frozenset(labels)


def _reads(read: frozenset[str] | None, labels: tuple[str | None, ...]) -> bool:
    """Whether a label set reads any of ``labels`` (``None`` = unknown)."""
    return read is None or any(label is None or label in read for label in labels)


def _labels_before(graph: PropertyGraph, change: GraphChange) -> tuple[str | None, ...]:
    """The labels the changed element(s) carried before ``change``
    (``None`` where the change does not record it and the graph no longer
    holds the element)."""
    kind = change.kind
    details = change.details
    if kind in (ChangeKind.REMOVE_NODE, ChangeKind.REMOVE_EDGE):
        return (details.get("label"),)
    if kind in (ChangeKind.RELABEL_NODE, ChangeKind.RELABEL_EDGE):
        return (details.get("before"),)
    if kind is ChangeKind.UPDATE_EDGE:
        edge_id = change.edge_id
        return (graph.edge(edge_id).label
                if edge_id is not None and graph.has_edge(edge_id) else None,)
    node_id = change.node_id
    label = (graph.node(node_id).label
             if node_id is not None and graph.has_node(node_id) else None)
    if kind is ChangeKind.MERGE_NODES:
        return (label, details.get("merged_label"))
    return (label,)


@dataclass(frozen=True)
class _MissingFootprint:
    """The labels an incompleteness rule's missing pattern reads.

    ``edge_labels`` are its edge labels.  ``own_labels`` are the labels of the
    variables it does not share with the evidence; empty when it has none,
    so its extension lies inside the evidence match's bound nodes.  ``None``
    stands for any label.
    """

    edge_labels: frozenset[str] | None
    own_labels: frozenset[str] | None

    @classmethod
    def of(cls, evidence: Pattern, missing: Pattern) -> "_MissingFootprint":
        shared = set(evidence.variables)
        return cls(edge_labels=_label_set(edge.label for edge in missing.edges),
                   own_labels=_label_set(node.label for node in missing.nodes
                                         if node.variable not in shared))

    def reaches_outside(
            self, changes: list[tuple[GraphChange, tuple[str | None, ...]]]) -> bool:
        """Whether a subtractive change may have removed an extension that
        runs through nodes the evidence match does not bind."""
        if self.own_labels is not None and not self.own_labels:
            return False
        return any(_reads(self.edge_labels if change.kind in _EDGE_KINDS
                          else self.own_labels, labels)
                   for change, labels in changes)


@dataclass
class MatchStore:
    """The current set of matches of one pattern, keyed by match identity.

    Alongside the primary ``matches`` dict the store maintains an inverted
    index from bound node ids to match keys, so that delta-driven
    invalidation can jump straight to the matches inside a changed region
    instead of scanning the whole store.
    """

    pattern: Pattern
    matches: dict[tuple, Match] = field(default_factory=dict)
    _by_node: dict[str, set[tuple]] = field(default_factory=dict, repr=False)

    def add(self, match: Match) -> bool:
        """Insert a match; returns True if it was not already present."""
        key = match.key()
        if key in self.matches:
            return False
        self.matches[key] = match
        for node_id in match.node_bindings.values():
            self._by_node.setdefault(node_id, set()).add(key)
        return True

    def discard(self, match: Match) -> None:
        key = match.key()
        if self.matches.pop(key, None) is None:
            return
        for node_id in match.node_bindings.values():
            bucket = self._by_node.get(node_id)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_node[node_id]

    def matches_in(self, region: DeltaRegion) -> list[Match]:
        """Stored matches inside ``region``, ordered by match key.

        Cost is the region's node buckets plus, per endpoint pair, the
        smaller of its two node buckets (``&`` iterates the smaller set) —
        independent of the store size.  Key order keeps downstream iteration
        (violation queueing) deterministic across processes.
        """
        by_node = self._by_node
        keys: set[tuple] = set()
        for node_id in region.nodes:
            keys.update(by_node.get(node_id, ()))
        for source, target in region.pairs:
            source_keys = by_node.get(source)
            target_keys = by_node.get(target)
            if source_keys and target_keys:
                keys.update(source_keys & target_keys)
        matches = self.matches
        return [matches[key] for key in sorted(keys)]

    def check_integrity(self) -> bool:
        """Verify the inverted index exactly mirrors the stored matches
        (test/debug helper; O(store size))."""
        expected: dict[str, set[tuple]] = {}
        for key, match in self.matches.items():
            for node_id in match.node_bindings.values():
                expected.setdefault(node_id, set()).add(key)
        return expected == self._by_node

    def __len__(self) -> int:
        return len(self.matches)

    def __iter__(self) -> Iterator[Match]:
        return iter(list(self.matches.values()))

    def all(self) -> list[Match]:
        return list(self.matches.values())


@dataclass
class IncrementalUpdate:
    """The outcome of applying one delta to a match store.

    ``invalidation_checked`` counts the stored matches re-verified during
    invalidation: the matches inside the delta's :class:`DeltaRegion`, which
    the delta-locality regression tests assert on.
    """

    invalidated: list[Match] = field(default_factory=list)
    discovered: list[Match] = field(default_factory=list)
    seeded_searches: int = 0
    invalidation_checked: int = 0


class IncrementalMatcher:
    """Maintains :class:`MatchStore` objects for a set of patterns under deltas."""

    def __init__(self, graph: PropertyGraph, candidate_index: CandidateIndex | None = None,
                 use_decomposition: bool = True, use_cost_planner: bool = True) -> None:
        self.graph = graph
        self.candidate_index = candidate_index
        self.use_decomposition = use_decomposition
        self.use_cost_planner = use_cost_planner
        self._stores: dict[str, MatchStore] = {}
        # the evidence stores of incompleteness rules with their missing
        # patterns' footprints: the only stores the recheck looks at
        self._missing: dict[str, _MissingFootprint] = {}
        self._engine = VF2Matcher(graph=graph, candidate_index=candidate_index,
                                  use_decomposition=use_decomposition,
                                  use_cost_planner=use_cost_planner)
        # cached pattern_requirements per (pattern, variable) for seed pruning;
        # the value keeps a strong reference to the pattern so the id() key
        # can never be recycled while the entry is alive
        self._requirements: dict[tuple[int, str], tuple] = {}

    @property
    def stats(self) -> MatchingStats:
        """Accumulated matching statistics of every search this maintainer ran."""
        return self._engine.stats

    # ------------------------------------------------------------------
    # registration and initial enumeration
    # ------------------------------------------------------------------

    def register(self, pattern: Pattern, enumerate_now: bool = True,
                 limit: int | None = None, missing: Pattern | None = None) -> MatchStore:
        """Register a pattern and (by default) enumerate its initial matches.

        ``missing`` marks the pattern as the evidence of an incompleteness
        rule with that missing pattern: :meth:`recheck_candidates` then
        covers its store.

        Registration pre-warms the candidate index's value buckets for the
        pattern's constant-equality pushdowns, so neither the initial
        enumeration nor the first seeded discovery pays a lazy bucket build
        mid-search.
        """
        if self.candidate_index is not None:
            self.candidate_index.pushdowns(pattern)
        store = MatchStore(pattern=pattern)
        self._stores[pattern.name] = store
        if missing is not None:
            self._missing[pattern.name] = _MissingFootprint.of(pattern, missing)
        else:
            self._missing.pop(pattern.name, None)
        if enumerate_now:
            for match in self._engine.iter_matches(pattern, limit=limit):
                store.add(match)
        return store

    def store(self, pattern_name: str) -> MatchStore:
        return self._stores[pattern_name]

    def stores(self) -> list[MatchStore]:
        return list(self._stores.values())

    def total_matches(self) -> int:
        return sum(len(store) for store in self._stores.values())

    # ------------------------------------------------------------------
    # delta application
    # ------------------------------------------------------------------

    def apply_delta(self, delta: GraphDelta,
                    patterns: Iterable[str] | None = None) -> dict[str, IncrementalUpdate]:
        """Update every registered (or named) pattern's store for ``delta``.

        Returns a per-pattern :class:`IncrementalUpdate` describing which
        matches were invalidated and which were newly discovered.
        """
        if not delta:
            return {}
        self._engine.stats.maintenance_passes += 1
        target_stores = ([self._stores[name] for name in patterns]
                         if patterns is not None else list(self._stores.values()))
        region = DeltaRegion.of(delta.changes)
        seeds = DeltaSeeds.of(self.graph, delta.changes)
        updates: dict[str, IncrementalUpdate] = {}
        for store in target_stores:
            updates[store.pattern.name] = self._update_store(store, region, seeds)
        return updates

    def recheck_candidates(self, delta: GraphDelta) -> list[tuple[str, list[Match]]]:
        """Per incompleteness store (registration order), the stored matches
        whose missing-pattern extension ``delta`` may have removed, in match-key
        order.

        Only subtractive changes remove extensions.  A missing pattern over
        evidence variables only is checked inside the bound nodes, so its
        candidates are the :class:`DeltaRegion` of those changes, minus edge
        changes whose label (before the change) it does not read.  A missing
        pattern with variables of its own may run through other nodes: a
        subtractive change to an element with a label it reads sends the
        whole store.
        """
        graph = self.graph
        changes = [(change, _labels_before(graph, change))
                   for change in delta.changes if change.is_subtractive]
        candidates: list[tuple[str, list[Match]]] = []
        for name, footprint in self._missing.items():
            store = self._stores[name]
            if footprint.reaches_outside(changes):
                matches = store.matches
                candidates.append((name, [matches[key] for key in sorted(matches)]))
                continue
            region = DeltaRegion.of(
                change for change, labels in changes
                if change.kind not in _EDGE_KINDS
                or _reads(footprint.edge_labels, labels))
            candidates.append((name, store.matches_in(region)))
        return candidates

    def _update_store(self, store: MatchStore, region: DeltaRegion,
                      seeds: DeltaSeeds) -> IncrementalUpdate:
        update = IncrementalUpdate()

        # 1. Invalidation: re-verify only the matches inside the delta's
        #    region, found through the store's inverted node→match index.
        affected = store.matches_in(region)
        update.invalidation_checked = len(affected)
        graph = self.graph
        for match in affected:
            if not match.is_valid(graph):
                store.discard(match)
                update.invalidated.append(match)

        # 2. Discovery: seeded searches at the delta's seeds (a changed
        #    edge's endpoints, a changed node, a merge's survivor; see the
        #    module docstring, item 2).
        self._discover(store, seeds, update)
        return update

    def _discover(self, store: MatchStore, seeds: DeltaSeeds,
                  update: IncrementalUpdate) -> None:
        graph = self.graph
        pattern = store.pattern
        engine = self._engine
        launched: set[tuple] = set()

        def run_search(seed: dict[str, str]) -> None:
            key = tuple(sorted(seed.items()))
            if key in launched:
                return
            launched.add(key)
            update.seeded_searches += 1
            for match in engine.iter_matches(pattern, seed=seed):
                if store.add(match):
                    update.discovered.append(match)

        for node_id in seeds.nodes:
            node = graph.node(node_id)
            for variable in variables_compatible_with_label(pattern, node.label):
                if self._seed_viable(pattern, variable, node_id, node):
                    run_search({variable: node_id})

        for source_id, target_id, label in seeds.edges:
            source_node = graph.node(source_id)
            target_node = graph.node(target_id)
            for pattern_edge in pattern.edges:
                if pattern_edge.label is not None and pattern_edge.label != label:
                    continue
                if pattern_edge.source == pattern_edge.target:
                    # self-loop pattern edge needs a self-loop witness
                    if source_id == target_id and self._seed_viable(
                            pattern, pattern_edge.source, source_id, source_node):
                        run_search({pattern_edge.source: source_id})
                    continue
                if source_id == target_id:
                    continue  # injectivity: distinct variables, distinct nodes
                if not self._seed_viable(pattern, pattern_edge.source,
                                         source_id, source_node):
                    continue
                if not self._seed_viable(pattern, pattern_edge.target,
                                         target_id, target_node):
                    continue
                run_search({pattern_edge.source: source_id,
                            pattern_edge.target: target_id})

    def _seed_viable(self, pattern: Pattern, variable: str, node_id: str, node) -> bool:
        """Cheap pre-filter for seeded searches: the seed node must pass the
        variable's label/unary predicates and, when a candidate index is
        available, its neighbourhood signature must dominate the variable's
        pattern-edge requirements."""
        if not pattern.node_variable(variable).matches(node):
            return False
        index = self.candidate_index
        if index is None:
            return True
        key = (id(pattern), variable)
        cached = self._requirements.get(key)
        if cached is None or cached[0] is not pattern:
            cached = (pattern, pattern_requirements(pattern, variable))
            self._requirements[key] = cached
        return index.signature_dominates(node_id, *cached[1])

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def recompute(self, pattern_name: str) -> MatchStore:
        """Throw away and fully re-enumerate one pattern's matches (used in tests
        as the oracle the incremental path is compared against)."""
        store = self._stores[pattern_name]
        fresh = MatchStore(pattern=store.pattern)
        for match in self._engine.iter_matches(store.pattern):
            fresh.add(match)
        self._stores[pattern_name] = fresh
        return fresh
