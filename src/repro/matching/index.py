"""Candidate index: label, signature, and property-value buckets for pruning.

Subgraph matching cost is dominated by how many data nodes are tried per
pattern variable.  The :class:`CandidateIndex` answers, per node:

* the node-label bucket it belongs to,
* its *neighbourhood signature* — how many outgoing / incoming edges it has
  per edge label — and
* on demand, ``(label, key) -> value -> node ids`` **value buckets** for the
  property keys that patterns constrain with constant equality
  (predicate-pushdown: see :func:`variable_pushdowns`).

A pattern variable then only needs to consider data nodes whose label matches,
whose signature dominates the variable's local requirements (e.g. a
variable with two outgoing ``actedIn`` pattern edges can only bind nodes with
at least two outgoing ``actedIn`` data edges), and — when the variable carries
an equality constraint whose right-hand side is known — whose property value
sits in the matching bucket.  Label buckets and signatures are read live from
the graph's own label index and per-label adjacency, which the graph keeps
exact under every mutation, so the index copies none of them.  Only the value
buckets are the index's own: they are maintained incrementally from the
graph's change feed, which is what lets the fast repairer keep using them
across thousands of repairs without rebuilding.

Value buckets are *complete, not exact*: a bucket is guaranteed to contain
every node whose property equals the probe value, but may contain extras
(nodes whose stored value is unhashable and therefore cannot be dict-keyed).
Callers keep their residual predicate/comparison checks, so false positives
cost a re-check, never a wrong match.

This is one of the three optimisations ablated in experiment E5.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Iterable, Mapping

from repro.graph.delta import ChangeKind, GraphChange
from repro.graph.property_graph import PropertyGraph
from repro.matching.pattern import Pattern, PatternNode
from repro.matching.predicates import ComparisonOp, PredicateOp

# Shared empty bucket so ``label_bucket`` misses allocate nothing.
_EMPTY_BUCKET: frozenset = frozenset()


def _is_hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


# first element of a (value, node_id) entry — bisect key for range probes
_entry_value = itemgetter(0)

# operator name -> mirrored name, for rewriting ``a.x < b.y`` as a probe on
# ``b``'s side (``b.y > a.x``) once ``a`` is the bound variable
MIRRORED_RANGE_OP = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}

_RANGE_PREDICATE_OPS = {PredicateOp.LT: "lt", PredicateOp.LE: "le",
                        PredicateOp.GT: "gt", PredicateOp.GE: "ge"}
_RANGE_COMPARISON_OPS = {ComparisonOp.LT: "lt", ComparisonOp.LE: "le",
                         ComparisonOp.GT: "gt", ComparisonOp.GE: "ge"}


def _orderable_class(value: Any) -> str | None:
    """Type class under which ``value`` can live in a sorted array.

    Only real numbers (bool/int/float, excluding NaN) and strings are
    orderable classes — mixing anything else into a sorted list risks a
    ``TypeError`` mid-bisect or, worse (``Decimal`` vs ``float``), a silently
    inconsistent order.  Everything else goes to the fuzzy side pool and is
    re-checked by residual predicates.
    """
    if isinstance(value, (int, float)):
        if isinstance(value, float) and value != value:  # NaN breaks ordering
            return None
        return "num"
    if isinstance(value, str):
        return "str"
    return None


@dataclass(frozen=True)
class PushdownSpec:
    """The index-answerable constraints of one pattern variable.

    ``unary`` — ``(key, value)`` pairs from the variable's unary ``EQ``
    predicates (always applicable, including in :meth:`CandidateIndex.candidates`).
    ``literal`` — ``(key, value)`` pairs from single-variable literal ``EQ``
    comparisons (applicable as matcher-side candidate filters; kept separate
    so ``candidates()`` stays semantically identical to
    :func:`naive_candidates`).
    ``dynamic`` — ``(own key, other variable, other key)`` triples from
    cross-variable ``EQ`` comparisons: once ``other variable`` is bound, its
    property value turns the comparison into a constant equality predicate
    that a value bucket can answer.
    ``ranges`` — ``(key, op, constant)`` triples from unary ``lt/le/gt/ge``
    predicates and literal range comparisons; answered by sorted-bucket
    range probes (``op`` is one of ``"lt"/"le"/"gt"/"ge"``).
    ``members`` — ``(key, values)`` pairs from unary ``IN`` predicates;
    answered as a union of equality buckets.  ``NOT_IN`` is not pushable
    (its complement is not bucket-shaped).
    ``dynamic_ranges`` — ``(own key, op, other variable, other key)`` from
    cross-variable range comparisons, already mirrored per orientation: once
    the other variable binds, its value is the probe constant.
    """

    unary: tuple[tuple[str, Any], ...] = ()
    literal: tuple[tuple[str, Any], ...] = ()
    dynamic: tuple[tuple[str, str, str], ...] = ()
    ranges: tuple[tuple[str, str, Any], ...] = ()
    members: tuple[tuple[str, tuple], ...] = ()
    dynamic_ranges: tuple[tuple[str, str, str, str], ...] = ()


def variable_pushdowns(pattern: Pattern) -> dict[str, PushdownSpec]:
    """Per-variable index-pushdown specs of ``pattern``.

    Only node variables participate; edge-variable comparisons are left to
    the edge-binding phase.  Unhashable equality/membership constants are
    skipped (they cannot key a bucket), as are unorderable range constants
    (they cannot be bisected) — those constraints stay residual-only.
    """
    node_variables = {node.variable for node in pattern.nodes}
    unary: dict[str, list[tuple[str, Any]]] = {}
    literal: dict[str, list[tuple[str, Any]]] = {}
    dynamic: dict[str, list[tuple[str, str, str]]] = {}
    ranges: dict[str, list[tuple[str, str, Any]]] = {}
    members: dict[str, list[tuple[str, tuple]]] = {}
    dynamic_ranges: dict[str, list[tuple[str, str, str, str]]] = {}
    for node in pattern.nodes:
        for predicate in node.predicates:
            if predicate.op is PredicateOp.EQ and _is_hashable(predicate.value):
                unary.setdefault(node.variable, []).append(
                    (predicate.key, predicate.value))
            elif predicate.op in _RANGE_PREDICATE_OPS:
                if _orderable_class(predicate.value) is not None:
                    ranges.setdefault(node.variable, []).append(
                        (predicate.key, _RANGE_PREDICATE_OPS[predicate.op],
                         predicate.value))
            elif predicate.op is PredicateOp.IN:
                try:
                    values = tuple(predicate.value)
                except TypeError:
                    continue
                if values and all(_is_hashable(value) for value in values):
                    members.setdefault(node.variable, []).append(
                        (predicate.key, values))
    for comparison in pattern.comparisons:
        left_var, left_key = comparison.left
        if left_var not in node_variables:
            continue
        if comparison.right_literal:
            if comparison.op is ComparisonOp.EQ:
                if _is_hashable(comparison.right_value):
                    literal.setdefault(left_var, []).append(
                        (left_key, comparison.right_value))
            elif comparison.op in _RANGE_COMPARISON_OPS:
                if _orderable_class(comparison.right_value) is not None:
                    ranges.setdefault(left_var, []).append(
                        (left_key, _RANGE_COMPARISON_OPS[comparison.op],
                         comparison.right_value))
            continue
        if comparison.right is None:
            continue
        right_var, right_key = comparison.right
        if right_var not in node_variables or right_var == left_var:
            continue
        if comparison.op is ComparisonOp.EQ:
            dynamic.setdefault(left_var, []).append((left_key, right_var, right_key))
            dynamic.setdefault(right_var, []).append((right_key, left_var, left_key))
        elif comparison.op in _RANGE_COMPARISON_OPS:
            op = _RANGE_COMPARISON_OPS[comparison.op]
            dynamic_ranges.setdefault(left_var, []).append(
                (left_key, op, right_var, right_key))
            dynamic_ranges.setdefault(right_var, []).append(
                (right_key, MIRRORED_RANGE_OP[op], left_var, left_key))
    specs: dict[str, PushdownSpec] = {}
    for variable in (set(unary) | set(literal) | set(dynamic)
                     | set(ranges) | set(members) | set(dynamic_ranges)):
        specs[variable] = PushdownSpec(
            unary=tuple(unary.get(variable, ())),
            literal=tuple(literal.get(variable, ())),
            dynamic=tuple(dynamic.get(variable, ())),
            ranges=tuple(ranges.get(variable, ())),
            members=tuple(members.get(variable, ())),
            dynamic_ranges=tuple(dynamic_ranges.get(variable, ())),
        )
    return specs


class _ValueIndex:
    """One ``(label, key)`` value index: hashable values bucketed by equality,
    unhashable values pooled (they are re-checked by residual predicates).

    ``shared`` holds the ids whose equality bucket has at least two members,
    plus the unhashable pool: the only nodes that can equal the value of
    *another* node under the same key — what a same-key ``EQ`` self-join
    (``a.k == b.k``, ``a`` and ``b`` on distinct nodes) can bind.

    Range support is opt-in (:meth:`enable_sorted`): once enabled, hashable
    entries are additionally kept in bisect-ordered ``(value, node_id)``
    arrays — one per orderable type class (numbers, strings) — so ``lt/le/
    gt/ge`` probes become O(log n) slices.  Hashable-but-unorderable values
    (tuples, ``None``, NaN floats, exotic numerics like ``Decimal``) live in
    the ``fuzzy`` side pool, which every range probe includes; residual
    predicate checks reject the extras, so probes stay complete, never wrong.
    """

    __slots__ = ("values", "unhashable", "shared", "total", "sorted_enabled",
                 "numbers", "strings", "fuzzy")

    def __init__(self) -> None:
        self.values: dict[Any, set[str]] = {}
        self.unhashable: set[str] = set()
        self.shared: set[str] = set()
        self.total = 0  # entries across equality buckets (distinct = len(values))
        self.sorted_enabled = False
        self.numbers: list[tuple[Any, str]] = []
        self.strings: list[tuple[str, str]] = []
        self.fuzzy: set[str] = set()

    def add(self, value: Any, node_id: str) -> None:
        try:
            bucket = self.values.get(value)
        except TypeError:
            self.unhashable.add(node_id)
            self.shared.add(node_id)
            return
        if bucket is None:
            bucket = self.values[value] = set()
        before = len(bucket)
        bucket.add(node_id)
        if len(bucket) != before:
            self.total += 1
            if before == 1:
                self.shared.update(bucket)
            elif before:
                self.shared.add(node_id)
            if self.sorted_enabled:
                self._sorted_add(value, node_id)

    def discard(self, value: Any, node_id: str) -> None:
        try:
            bucket = self.values.get(value)
        except TypeError:
            self.discard_unhashable(node_id)
            return
        if bucket is not None and node_id in bucket:
            bucket.discard(node_id)
            self.total -= 1
            self.shared.discard(node_id)
            if len(bucket) == 1:
                self.shared.difference_update(bucket)
            elif not bucket:
                del self.values[value]
            if self.sorted_enabled:
                self._sorted_discard(value, node_id)

    def discard_unhashable(self, node_id: str) -> None:
        if node_id in self.unhashable:
            self.unhashable.discard(node_id)
            self.shared.discard(node_id)

    # -- sorted arrays -------------------------------------------------

    def enable_sorted(self) -> None:
        """Build the sorted arrays from the current equality buckets
        (idempotent; afterwards add/discard maintain them incrementally)."""
        if self.sorted_enabled:
            return
        self.sorted_enabled = True
        numbers: list[tuple[Any, str]] = []
        strings: list[tuple[str, str]] = []
        fuzzy: set[str] = set()
        for value, bucket in self.values.items():
            type_class = _orderable_class(value)
            if type_class is None:
                fuzzy.update(bucket)
            elif type_class == "num":
                numbers.extend((value, node_id) for node_id in bucket)
            else:
                strings.extend((value, node_id) for node_id in bucket)
        numbers.sort()
        strings.sort()
        self.numbers = numbers
        self.strings = strings
        self.fuzzy = fuzzy

    def _sorted_add(self, value: Any, node_id: str) -> None:
        type_class = _orderable_class(value)
        if type_class is None:
            self.fuzzy.add(node_id)
        elif type_class == "num":
            insort(self.numbers, (value, node_id))
        else:
            insort(self.strings, (value, node_id))

    def _sorted_discard(self, value: Any, node_id: str) -> None:
        type_class = _orderable_class(value)
        if type_class is None:
            self.fuzzy.discard(node_id)
            return
        array = self.numbers if type_class == "num" else self.strings
        entry = (value, node_id)
        position = bisect_left(array, entry)
        if position < len(array) and array[position] == entry:
            del array[position]

    def range_ids(self, op: str, constant: Any) -> set[str] | None:
        """Node ids whose value may satisfy ``value <op> constant``.

        Returns ``None`` when unanswerable (sorting not enabled, or the
        constant is not orderable).  Otherwise the set is complete for the
        comparison: the bisected slice of the constant's own type class plus
        the fuzzy and unhashable side pools.  Values in the *other* type
        class are correctly absent — comparing them against the constant
        would raise ``TypeError``, which residual checks treat as ``False``.
        """
        if not self.sorted_enabled:
            return None
        type_class = _orderable_class(constant)
        if type_class is None:
            return None
        array = self.numbers if type_class == "num" else self.strings
        if op == "lt":
            selected = array[:bisect_left(array, constant, key=_entry_value)]
        elif op == "le":
            selected = array[:bisect_right(array, constant, key=_entry_value)]
        elif op == "gt":
            selected = array[bisect_right(array, constant, key=_entry_value):]
        else:  # "ge"
            selected = array[bisect_left(array, constant, key=_entry_value):]
        result = {node_id for _value, node_id in selected}
        result.update(self.fuzzy)
        result.update(self.unhashable)
        return result

    def member_ids(self, values: Iterable[Any]) -> set[str] | None:
        """Union of the equality buckets for ``values`` plus the unhashable
        pool, or ``None`` when any member cannot key a bucket."""
        result = set(self.unhashable)
        for value in values:
            try:
                bucket = self.values.get(value)
            except TypeError:
                return None
            if bucket:
                result.update(bucket)
        return result

    def equal_to(self, other: "_ValueIndex") -> bool:
        return (self.values == other.values
                and self.unhashable == other.unhashable
                and self.shared == other.shared)

    def sorted_equal_to(self, other: "_ValueIndex") -> bool:
        """Compare the sorted-array views (both sides must have them built)."""
        return (self.numbers == other.numbers
                and self.strings == other.strings
                and self.fuzzy == other.fuzzy)


class CandidateIndex:
    """Pruning queries over one graph: label buckets and edge-label
    signatures read live from the graph, plus the index's own value, sorted
    and shared buckets.

    What the graph already keeps exact is never copied: a label bucket is
    the graph's label-index set, a node's per-label degree is the size of
    its per-label adjacency bucket, and its total degree the size of its
    adjacency dict.  The index owns only what the graph lacks — the value
    buckets (with their sorted arrays and ``shared`` sets), the per-pattern
    pushdown specs, the meeting-count cache, and the ``version`` counter —
    and keeps it current from the graph's change feed once :meth:`attach`
    subscribes it.
    """

    def __init__(self, graph: PropertyGraph) -> None:
        self._graph = graph
        # live, read-only views of the graph's own structure
        self._nodes = graph.node_store
        self._by_label = graph.label_buckets
        self._out_edges, self._in_edges = graph.adjacency
        self._out_by_label, self._in_by_label = graph.label_adjacency
        # (node label, outgoing?, edge label, k) -> nodes with >= k such
        # edges, counted on demand and valid for _meeting_version only
        self._meeting_cache: dict[tuple[str, bool, str, int], int] = {}
        self._meeting_version = -1
        # value buckets, registered lazily per (label, key) the patterns
        # constrain with constant equality; _value_keys_by_label is the
        # maintenance fast path (which keys matter for a given node label)
        self._value_indexes: dict[tuple[str | None, str], _ValueIndex] = {}
        self._value_keys_by_label: dict[str | None, set[str]] = {}
        # pairs whose value index must keep sorted arrays (range probes)
        self._sorted_pairs: set[tuple[str | None, str]] = set()
        # per-pattern pushdown specs and root requirements (see _compiled;
        # the strong pattern ref keeps id() stable)
        self._pushdown_cache: dict[int, tuple[Pattern, dict[str, PushdownSpec],
                                              dict[str, tuple]]] = {}
        self._attached = False
        # bumped on every mutation; the cost planner uses it to skip
        # re-estimating plans while the graph is unchanged
        self.version = 0

    # ------------------------------------------------------------------
    # construction / maintenance
    # ------------------------------------------------------------------

    def rebuild(self) -> None:
        """Recompute every registered value index from the graph
        (O(registered pairs × label buckets))."""
        self.version += 1
        for (label, key) in list(self._value_indexes):
            rebuilt = self._build_value_index(label, key)
            if (label, key) in self._sorted_pairs:
                rebuilt.enable_sorted()
            self._value_indexes[(label, key)] = rebuilt

    def attach(self) -> None:
        """Subscribe to the graph's change feed for incremental maintenance."""
        if not self._attached:
            self._graph.add_listener(self.apply_change)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            self._graph.remove_listener(self.apply_change)
            self._attached = False

    def attached_to(self, graph: PropertyGraph) -> bool:
        """Whether the index follows ``graph``'s change feed (and so stays
        exact under its mutations)."""
        return self._attached and self._graph is graph

    def apply_change(self, change: GraphChange) -> None:
        """Update the value buckets for one elementary graph change.

        Every change bumps :attr:`version`.  Edge changes touch no value
        bucket: the structure they move is read live from the graph.
        """
        self.version += 1
        kind = change.kind
        if kind is ChangeKind.ADD_NODE and change.node_id is not None:
            node = self._graph.node(change.node_id)
            self._value_insert(node.label, node.properties, node.id)
        elif kind is ChangeKind.REMOVE_NODE and change.node_id is not None:
            self._value_discard(change.details.get("label"),
                                change.details.get("properties"), change.node_id)
        elif kind is ChangeKind.RELABEL_NODE and change.node_id is not None:
            before = change.details.get("before")
            after = change.details.get("after")
            # Value buckets are label-scoped: move the node's entries from the
            # old label's indexes to the new label's (the None-label indexes
            # are unaffected — the node's values did not change).
            properties = self._graph.node(change.node_id).properties
            for key in self._value_keys_by_label.get(before, ()):
                if key in properties:
                    self._value_indexes[(before, key)].discard(properties[key],
                                                               change.node_id)
            for key in self._value_keys_by_label.get(after, ()):
                if key in properties:
                    self._value_indexes[(after, key)].add(properties[key],
                                                          change.node_id)
        elif kind is ChangeKind.UPDATE_NODE and change.node_id is not None:
            before = change.details.get("before") or {}
            after = change.details.get("after") or {}
            label = self._graph.node(change.node_id).label
            for scope in (label, None):
                for key in self._value_keys_by_label.get(scope, ()):
                    index = self._value_indexes[(scope, key)]
                    if key in before:
                        index.discard(before[key], change.node_id)
                    if key in after:
                        index.add(after[key], change.node_id)
        elif kind is ChangeKind.MERGE_NODES:
            merged = change.details.get("merged")
            if merged is not None:
                self._value_discard(change.details.get("merged_label"),
                                    change.details.get("merged_properties"),
                                    merged)
            keep_id = change.node_id
            if keep_id is not None and self._graph.has_node(keep_id):
                keep_label = self._graph.node(keep_id).label
                self._value_discard(keep_label,
                                    change.details.get("keep_properties_before"),
                                    keep_id)
                self._value_insert(keep_label,
                                   change.details.get("keep_properties_after") or {},
                                   keep_id)

    def _nodes_meeting(self, node_label: str, outgoing: bool, label: str,
                       required: int) -> int:
        """How many ``node_label`` nodes have at least ``required`` outgoing
        (or incoming) ``label`` edges: one pass over the label bucket,
        memoised until the next mutation."""
        if self._meeting_version != self.version:
            self._meeting_cache.clear()
            self._meeting_version = self.version
        key = (node_label, outgoing, label, required)
        count = self._meeting_cache.get(key)
        if count is None:
            by_label = self._out_by_label if outgoing else self._in_by_label
            count = sum(1 for node_id in self.label_bucket(node_label)
                        if len(by_label.get((node_id, label), ())) >= required)
            self._meeting_cache[key] = count
        return count

    # ------------------------------------------------------------------
    # value buckets
    # ------------------------------------------------------------------

    def _value_insert(self, label: str | None, properties: Mapping[str, Any],
                      node_id: str) -> None:
        """Insert one node's values into every registered index covering it."""
        for scope in (label, None):
            for key in self._value_keys_by_label.get(scope, ()):
                if key in properties:
                    self._value_indexes[(scope, key)].add(properties[key], node_id)

    def _value_discard(self, label: str | None,
                       properties: Mapping[str, Any] | None,
                       node_id: str) -> None:
        """Remove one node's values from every registered index covering it."""
        if properties is None:
            properties = {}
        for scope in (label, None):
            for key in self._value_keys_by_label.get(scope, ()):
                if key in properties:
                    self._value_indexes[(scope, key)].discard(properties[key],
                                                              node_id)
                else:
                    # no value recorded — make sure no stale entry survives
                    self._value_indexes[(scope, key)].discard_unhashable(node_id)

    def _build_value_index(self, label: str | None, key: str) -> _ValueIndex:
        index = _ValueIndex()
        nodes = self._nodes
        for node_id in self.label_bucket(label):
            properties = nodes[node_id].properties
            if key in properties:
                index.add(properties[key], node_id)
        return index

    def ensure_value_index(self, label: str | None, key: str) -> None:
        """Register (and build, once) the value index for ``(label, key)``.

        Registration is O(label bucket); afterwards the index is maintained
        incrementally with every other bucket.  ``label=None`` indexes all
        nodes regardless of label (for label-free pattern variables).
        """
        pair = (label, key)
        if pair in self._value_indexes:
            return
        self._value_indexes[pair] = self._build_value_index(label, key)
        self._value_keys_by_label.setdefault(label, set()).add(key)

    def ensure_sorted_index(self, label: str | None, key: str) -> None:
        """Register ``(label, key)`` with range-probe support.

        Upgrades an existing equality-only index in place; the sorted arrays
        survive :meth:`rebuild` (the pair is remembered).
        """
        self.ensure_value_index(label, key)
        pair = (label, key)
        if pair not in self._sorted_pairs:
            self._sorted_pairs.add(pair)
            self._value_indexes[pair].enable_sorted()

    def range_bucket(self, label: str | None, key: str, op: str, value: Any):
        """Node ids with ``label`` whose ``key`` property may satisfy
        ``property <op> value`` (``op`` in ``"lt"/"le"/"gt"/"ge"``).

        Returns ``None`` when unanswerable (pair not registered for sorting,
        or ``value`` unorderable — including NaN); otherwise a complete set
        (side-pool extras included, rejected by residual checks).  The
        returned set is fresh and caller-owned.
        """
        index = self._value_indexes.get((label, key))
        if index is None:
            return None
        return index.range_ids(op, value)

    def membership_bucket(self, label: str | None, key: str, values: Iterable[Any]):
        """Node ids with ``label`` whose ``key`` property may be in ``values``
        (union of equality buckets plus the unhashable pool), or ``None``
        when unanswerable.  The returned set is fresh and caller-owned."""
        index = self._value_indexes.get((label, key))
        if index is None:
            return None
        return index.member_ids(values)

    def value_stats(self, label: str | None, key: str) -> tuple[int, int] | None:
        """``(total entries, distinct values)`` of a registered value index,
        or ``None`` — the planner's average-bucket-size statistic for
        dynamic (bind-time) equality probes."""
        index = self._value_indexes.get((label, key))
        if index is None:
            return None
        return (index.total + len(index.unhashable),
                len(index.values) + (1 if index.unhashable else 0))

    def shared_bucket(self, label: str | None, key: str):
        """Node ids with ``label`` whose ``key`` value may equal another
        such node's value (see :class:`_ValueIndex`), or ``None`` when the
        pair was never registered.  Complete for a same-key ``EQ`` self-join
        between distinct nodes; a live, read-only internal set."""
        index = self._value_indexes.get((label, key))
        if index is None:
            return None
        return index.shared

    def value_bucket(self, label: str | None, key: str, value: Any):
        """Node ids with ``label`` whose ``key`` property equals ``value``.

        Returns ``None`` when the probe cannot be answered (the pair was never
        registered, or ``value`` is unhashable) — callers must then fall back
        to their unfiltered pool.  Otherwise the returned set is **complete**
        for the equality (it may include unhashable-valued extras that the
        caller's residual checks reject) and must be treated as read-only: it
        may be a live internal bucket.
        """
        index = self._value_indexes.get((label, key))
        if index is None:
            return None
        try:
            exact = index.values.get(value)
        except TypeError:
            return None
        fuzzy = index.unhashable
        if not fuzzy:
            return exact if exact is not None else _EMPTY_BUCKET
        if exact is None:
            return fuzzy
        return exact | fuzzy

    def pushdowns(self, pattern: Pattern) -> dict[str, PushdownSpec]:
        """The pattern's constant-equality pushdown specs, cached per pattern.

        First use registers the value indexes every spec can probe, so the
        matcher's hot path never pays a lazy build mid-search.

        Lifetime contract: like the matcher's per-pattern search profiles,
        cache entries hold a strong pattern reference and registered value
        indexes are maintained for the index's lifetime.  An index is
        expected to serve a fixed rule set (sessions bind one per graph);
        callers streaming unbounded ad-hoc patterns through one index should
        rebuild it periodically instead.
        """
        return self._compiled(pattern)[0]

    def _compiled(self, pattern: Pattern) -> tuple[dict[str, PushdownSpec],
                                                   dict[str, tuple]]:
        """``(pushdown specs, root requirements)`` of ``pattern``, compiled
        once.

        The root requirements are, per variable, its labelled signature
        requirements as ``(outgoing, edge label, count)`` triples — what
        :meth:`estimated_candidates` reads for a candidate root.
        """
        cached = self._pushdown_cache.get(id(pattern))
        if cached is not None and cached[0] is pattern:
            return cached[1], cached[2]
        specs = variable_pushdowns(pattern)
        for variable, spec in specs.items():
            label = pattern.node_variable(variable).label
            for key, _value in spec.unary:
                self.ensure_value_index(label, key)
            for key, _value in spec.literal:
                self.ensure_value_index(label, key)
            for own_key, _other_var, _other_key in spec.dynamic:
                self.ensure_value_index(label, own_key)
            for key, _values in spec.members:
                self.ensure_value_index(label, key)
            for key, _op, _value in spec.ranges:
                self.ensure_sorted_index(label, key)
            for own_key, _op, _other_var, _other_key in spec.dynamic_ranges:
                self.ensure_sorted_index(label, own_key)
        roots: dict[str, tuple] = {}
        for variable in pattern.variables:
            out_required, in_required = pattern_requirements(pattern, variable)
            roots[variable] = tuple(
                (outgoing, label, count)
                for outgoing, required in ((True, out_required),
                                           (False, in_required))
                for label, count in required.items() if label is not None)
        self._pushdown_cache[id(pattern)] = (pattern, specs, roots)
        return specs, roots

    def check_value_integrity(self) -> bool:
        """Verify every registered value index exactly matches a rebuild from
        the graph (test/debug helper; O(registered pairs × label buckets))."""
        for (label, key), index in self._value_indexes.items():
            if not index.equal_to(self._build_value_index(label, key)):
                return False
        return True

    def check_sorted_integrity(self) -> bool:
        """Verify every sorted pair's arrays and side pool exactly match a
        rebuild from the graph (test/debug helper, mirror of
        :meth:`check_value_integrity` for the range layer)."""
        for pair in self._sorted_pairs:
            index = self._value_indexes[pair]
            if not index.sorted_enabled:
                return False
            rebuilt = self._build_value_index(*pair)
            rebuilt.enable_sorted()
            if not index.sorted_equal_to(rebuilt):
                return False
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def nodes_with_label(self, label: str | None) -> set[str]:
        """Node ids with the given label (a fresh, caller-owned set);
        ``None`` means all nodes."""
        return set(self.label_bucket(label))

    def label_bucket(self, label: str | None):
        """Zero-copy view of the node ids with ``label`` (``None`` = all nodes).

        The returned collection is the graph's live label-index set: it must
        not be mutated and is invalidated by graph mutations.  Hot-path
        counterpart of :meth:`nodes_with_label`.
        """
        if label is None:
            return self._nodes.keys()
        return self._by_label.get(label, _EMPTY_BUCKET)

    def label_count(self, label: str | None) -> int:
        return len(self.label_bucket(label))

    def signature_dominates(self, node_id: str, out_required: Counter,
                            in_required: Counter) -> bool:
        """True if the node has at least the required per-label out/in edges.

        A labelled requirement reads the size of the node's per-label
        adjacency bucket; a wildcard (``None``-label) one its total degree.
        Unknown nodes dominate nothing.
        """
        out_edges = self._out_edges.get(node_id)
        if out_edges is None:
            return False
        by_label = self._out_by_label
        for label, required in out_required.items():
            available = (len(out_edges) if label is None
                         else len(by_label.get((node_id, label), ())))
            if available < required:
                return False
        if in_required:
            in_edges = self._in_edges[node_id]
            by_label = self._in_by_label
            for label, required in in_required.items():
                available = (len(in_edges) if label is None
                             else len(by_label.get((node_id, label), ())))
                if available < required:
                    return False
        return True

    def candidates(self, pattern: Pattern, variable: str,
                   apply_predicates: bool = True, stats=None,
                   use_value_buckets: bool = True) -> list[str]:
        """Candidate node ids for one pattern variable.

        Filters: label bucket, neighbourhood-signature dominance over the
        variable's local pattern-edge requirements, then (optionally) the
        variable's unary property predicates.  When the variable carries a
        constant ``EQ`` predicate and ``use_value_buckets`` is on, the
        smallest matching value bucket replaces the label-bucket scan — the
        result set is identical (value buckets are complete and the residual
        predicate check still runs), only the iteration shrinks.

        ``stats`` (a :class:`~repro.matching.vf2.MatchingStats`) receives the
        prune counters: label-bucket size, value-bucket size actually scanned,
        and predicate survivors.
        """
        pattern_node = pattern.node_variable(variable)
        out_required, in_required = pattern_requirements(pattern, variable)
        check_predicates = apply_predicates and pattern_node.predicates
        label = pattern_node.label
        label_pool = self.label_bucket(label)
        pool = label_pool
        if stats is not None:
            stats.label_bucket_candidates += len(label_pool)
        if use_value_buckets and check_predicates:
            spec = self.pushdowns(pattern).get(variable)
            if spec is not None:
                pool_is_range = False
                for key, value in spec.unary:
                    bucket = self.value_bucket(label, key, value)
                    if bucket is not None and len(bucket) < len(pool):
                        pool = bucket
                for key, values in spec.members:
                    bucket = self.membership_bucket(label, key, values)
                    if bucket is not None and len(bucket) < len(pool):
                        pool = bucket
                        pool_is_range = True
                for key, op, value in spec.ranges:
                    bucket = self.range_bucket(label, key, op, value)
                    if bucket is not None and len(bucket) < len(pool):
                        pool = bucket
                        pool_is_range = True
                if pool is not label_pool and stats is not None:
                    if pool_is_range:
                        stats.range_bucket_candidates += len(pool)
                    else:
                        stats.value_bucket_candidates += len(pool)
        node = self._graph.node
        dominates = self.signature_dominates
        result = []
        for node_id in pool:
            if not dominates(node_id, out_required, in_required):
                continue
            if check_predicates and not pattern_node.matches(node(node_id)):
                continue
            result.append(node_id)
        if stats is not None:
            stats.predicate_survivors += len(result)
        return result

    def candidate_count_estimate(self, pattern: Pattern, variable: str) -> int:
        """Cheap selectivity estimate (label-bucket size) used for ordering."""
        return self.label_count(pattern.node_variable(variable).label)

    def estimated_candidates(self, pattern: Pattern, variable: str,
                             bound: Iterable[str] = ()) -> int:
        """Live cardinality estimate for one variable: the smallest count
        any of its signature requirements or pushdowns can answer right now.

        ``bound`` is the set of variables already bound when this one is
        enumerated.  With nothing bound the variable is a candidate root,
        enumerated from its label bucket under signature pruning, so each
        labelled requirement (at least ``k`` outgoing/incoming ``r`` edges)
        caps the estimate at the number of nodes meeting it — one pass over
        the label bucket's signatures, memoised until the next mutation, so
        about the cost of the signature scan the enumeration itself starts
        with.  Seeded plans never pay it.  Dynamic (cross-variable) pushdowns only apply when their
        other side is in ``bound``, in which case the average
        equality-bucket size (total entries / distinct values) stands in for
        the unknown probe.  Otherwise this is O(#pushdowns) dictionary
        lookups plus O(log n) bisects.
        """
        label = pattern.node_variable(variable).label
        estimate = self.label_count(label)
        bound_set = bound if isinstance(bound, (set, frozenset)) else set(bound)
        specs, roots = self._compiled(pattern)
        if not bound_set and label is not None:
            for outgoing, edge_label, required in roots[variable]:
                meeting = self._nodes_meeting(label, outgoing, edge_label,
                                              required)
                if meeting < estimate:
                    estimate = meeting
        spec = specs.get(variable)
        if spec is None:
            return estimate
        for key, value in spec.unary:
            bucket = self.value_bucket(label, key, value)
            if bucket is not None and len(bucket) < estimate:
                estimate = len(bucket)
        for key, value in spec.literal:
            bucket = self.value_bucket(label, key, value)
            if bucket is not None and len(bucket) < estimate:
                estimate = len(bucket)
        for key, values in spec.members:
            bucket = self.membership_bucket(label, key, values)
            if bucket is not None and len(bucket) < estimate:
                estimate = len(bucket)
        for key, op, value in spec.ranges:
            bucket = self.range_bucket(label, key, op, value)
            if bucket is not None and len(bucket) < estimate:
                estimate = len(bucket)
        for own_key, other_var, _other_key in spec.dynamic:
            if other_var not in bound_set:
                continue
            stats = self.value_stats(label, own_key)
            if stats is None:
                continue
            total, distinct = stats
            average = total // distinct + 1 if distinct else 0
            if average < estimate:
                estimate = average
        return estimate


def pattern_requirements(pattern: Pattern, variable: str) -> tuple[Counter, Counter]:
    """The per-label outgoing/incoming edge counts a data node must have to
    possibly bind ``variable``.

    Two pattern edges need *distinct* witnessing data edges only when they
    connect different variable pairs (injectivity forces distinct endpoints)
    or when they carry edge variables (the edge-binding phase enforces
    distinctness).  Parallel variable-less pattern edges between the same pair
    may share one witness, so they contribute a single requirement — counting
    them individually over-prunes (a node with one ``r`` edge can satisfy two
    parallel variable-less ``r`` constraints).
    """
    out_groups: dict[tuple[str, str | None], int] = {}
    in_groups: dict[tuple[str, str | None], int] = {}
    for edge in pattern.edges:
        carries_variable = 1 if edge.variable is not None else 0
        if edge.source == variable:
            key = (edge.target, edge.label)
            out_groups[key] = out_groups.get(key, 0) + carries_variable
        if edge.target == variable:
            key = (edge.source, edge.label)
            in_groups[key] = in_groups.get(key, 0) + carries_variable
    out_required: Counter = Counter()
    in_required: Counter = Counter()
    for (_other, label), variable_count in out_groups.items():
        out_required[label] += max(1, variable_count)
    for (_other, label), variable_count in in_groups.items():
        in_required[label] += max(1, variable_count)
    return out_required, in_required


def naive_candidates(graph: PropertyGraph, pattern: Pattern, variable: str,
                     apply_predicates: bool = True) -> list[str]:
    """Candidates computed directly from the graph (no index).

    Used when the candidate-index optimisation is disabled (ablation E5) and
    as a correctness oracle in tests.
    """
    pattern_node: PatternNode = pattern.node_variable(variable)
    out_required, in_required = pattern_requirements(pattern, variable)
    candidates = []
    if pattern_node.label is not None:
        node_pool = graph.nodes_with_label(pattern_node.label)
    else:
        node_pool = list(graph.nodes())
    for node in node_pool:
        out_counter: Counter = Counter(edge.label for edge in graph.iter_out_edges(node.id))
        in_counter: Counter = Counter(edge.label for edge in graph.iter_in_edges(node.id))
        out_total = graph.out_degree(node.id)
        in_total = graph.in_degree(node.id)
        satisfied = True
        for label, required in out_required.items():
            available = out_total if label is None else out_counter.get(label, 0)
            if available < required:
                satisfied = False
                break
        if satisfied:
            for label, required in in_required.items():
                available = in_total if label is None else in_counter.get(label, 0)
                if available < required:
                    satisfied = False
                    break
        if not satisfied:
            continue
        if apply_predicates and not pattern_node.matches(node):
            continue
        candidates.append(node.id)
    return candidates
