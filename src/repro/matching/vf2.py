"""Backtracking subgraph-isomorphism search (VF2-style).

The matcher binds pattern variables to data nodes one at a time following a
connected search order (see :mod:`repro.matching.decomposition`), deriving
each variable's candidates from the neighbourhood of already-bound nodes
whenever the pattern connects them — the join-at-a-time strategy that keeps
the search local.  Injectivity, labels, unary predicates, and cross-variable
comparisons are enforced during the search; edge variables are bound in a
final phase that requires distinct data edges for distinct edge variables
(needed for duplicate-parallel-edge redundancy patterns).

Hot-path design (this is the inner loop of every repair run):

* per-pattern search state — the variable order, the edges-touching map, and
  the node-only comparison list — is compiled once per matcher instance and
  cached, so seeded searches repeated thousands of times during incremental
  maintenance pay none of it again;
* join candidates are derived by iterating the *smallest* adjacency list of
  the bound neighbours and letting the constraint check filter the rest,
  instead of materialising and intersecting full witness sets;
* candidate order comes from the graph's insertion-ordered adjacency (a
  deterministic tie-break established when the edge was created), so no
  per-backtrack-step ``sorted()`` is needed;
* constant equality predicates are **pushed down into the candidate index**:
  the compiled profile records each variable's pushdown spec
  (:func:`~repro.matching.index.variable_pushdowns` — unary ``EQ``
  predicates, literal ``EQ`` comparisons, and cross-variable ``EQ``
  comparisons whose other side is already bound), and candidate derivation
  intersects the matching ``(label, key, value)`` buckets with the adjacency
  or label pool, so the search never *visits* a node that fails a constant
  predicate (``nodes_tried`` counts post-pushdown candidates only);
* candidates that provably cannot complete are never visited:

  - **signature-aware roots** — the planner estimates each candidate root
    of an unseeded plan at the number of nodes meeting its signature
    requirements, so it roots at the rarest shape, e.g. the person with
    two ``bornIn`` edges rather than any city;
  - **parallel-edge multiplicity** — when the join edge is one of ``k``
    parallel edge-variable pattern edges (same endpoints, label and
    predicates), a candidate needs ``k`` witnessing data edges to the
    bound node, counted while the adjacency list is scanned;
  - **same-key self-joins** — for ``a.k == b.k`` with ``b`` still unbound
    and of ``a``'s label, ``a`` must hold a value some other node holds
    too (injectivity), so the index's ``shared`` set filters ``a``.

* an existence probe that binds every node variable of a pattern without
  edge variables (a *closed* probe: the missing pattern of every stock
  incompleteness rule) leaves nothing to search, so
  :meth:`VF2Matcher.exists_extension` answers it by direct witness lookups
  instead of a seeded search (``closed_probes`` counts them).

Range and membership predicates (``lt/le/gt/ge``, ``IN``) push down the same
way through the index's sorted value buckets, including cross-variable range
comparisons that become constant probes once one side binds.

Three knobs matter for the experiments:

* ``candidate_index`` — with an index, root candidates come from label
  buckets with signature pruning; without it, from a full graph scan
  (ablation E5 / figure E7).
* ``use_decomposition`` — with decomposition, the search order starts at the
  most selective pivot; without it, declaration order is used.
* ``use_cost_planner`` — with the planner (and an index), the static
  decomposition order is replaced per (pattern, seeded set) by a greedy
  connected order driven by live bucket cardinalities, re-planned when the
  statistics drift (see ``_planned_order``).  Matches are identical either
  way; only the search order — and therefore ``nodes_tried`` — changes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.exceptions import MatchingError
from repro.graph.property_graph import PropertyGraph
from repro.matching.decomposition import build_search_plan, plan_connected_order
from repro.matching.index import (
    CandidateIndex,
    PushdownSpec,
    naive_candidates,
    pattern_requirements,
)
from repro.matching.pattern import Match, Pattern, PatternEdge
from repro.utils.counters import Counters, counter


# Sentinel returned by ``_pushdown_buckets`` when an applicable constant
# equality is unsatisfiable (empty bucket / missing compared property):
# the caller prunes the whole branch instead of deriving candidates.
_DEAD_BRANCH = object()

# Replan when some variable's live estimate has drifted past this ratio
# against the estimate its plan was built under (checked only when the
# index version moved, so unchanged graphs never re-estimate).
_REPLAN_DRIFT = 2.0


def _estimates_drifted(baseline: dict, current: dict) -> bool:
    for variable, previous in baseline.items():
        fresh = current.get(variable, previous)
        low, high = (previous, fresh) if previous <= fresh else (fresh, previous)
        # +1 smooths zero-sized buckets (0 -> 1 is not a regime change)
        if high + 1 > _REPLAN_DRIFT * (low + 1):
            return True
    return False


@dataclass
class MatchingStats(Counters):
    """Counters describing one matching run (used by benchmarks and tests).

    ``merge``, ``since`` and ``as_dict`` come from :class:`Counters`; only
    the planner dicts merge here.
    """

    nodes_tried: int = counter(mirror="repro_match_nodes_tried_total")
    backtracks: int = 0
    matches_found: int = counter(mirror="repro_matches_found_total")
    # existence probes answered by direct witness lookups instead of a
    # seeded search (see VF2Matcher.exists_extension)
    closed_probes: int = counter(mirror="repro_closed_probes_total")
    # incremental-maintenance passes driven through this engine (bumped by
    # IncrementalMatcher.apply_delta): one per applied repair in a drain and
    # one per session commit, so it shows how many deltas were maintained
    maintenance_passes: int = counter(mirror="repro_maintenance_passes_total")
    # candidate-index prune counters: how many candidates the label buckets
    # offered at root enumerations, how many survived in the value buckets
    # actually scanned instead, and how many candidates the index returned
    # after signature + unary-predicate filtering — together they show where
    # the pushdown layers cut the search space
    label_bucket_candidates: int = 0
    value_bucket_candidates: int = 0
    # candidates offered by range/membership probes (the sorted-bucket layer)
    range_bucket_candidates: int = 0
    predicate_survivors: int = 0
    # cost-planner observability: plans built, drift-triggered replans, the
    # latest chosen order per pattern, the estimates each order was chosen
    # under, and the actual candidates derived per variable while planned
    planner_plans: int = 0
    planner_replans: int = 0
    planner_orders: dict = field(default_factory=dict)
    planner_estimated: dict = field(default_factory=dict)
    planner_actual: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def merge(self, other: "MatchingStats") -> None:
        super().merge(other)
        self.planner_orders.update(other.planner_orders)
        self.planner_estimated.update(other.planner_estimated)
        for pattern_name, per_variable in other.planner_actual.items():
            mine = self.planner_actual.setdefault(pattern_name, {})
            for variable, count in per_variable.items():
                mine[variable] = mine.get(variable, 0) + count


@dataclass
class _PlanState:
    """One cached cost-based plan: the order chosen for a given seeded
    variable set, the per-variable estimates it was chosen under (the drift
    baseline), and the index version it was last validated against."""

    order: list[str]
    estimates: dict[str, int]
    checked_version: int


@dataclass
class _PatternProfile:
    """Per-pattern search state compiled once and reused across searches.

    Keeping a strong reference to the pattern means the ``id(pattern)`` cache
    key can never be recycled by the garbage collector while the profile is
    alive.
    """

    pattern: Pattern
    base_order: list[str]
    touching: dict[str, tuple[PatternEdge, ...]]
    node_variables: dict[str, object]
    # node-only comparisons (edge-variable comparisons are checked after edge
    # binding) dispatched by variable: a comparison is listed under each of its
    # variables and evaluated exactly once — when its last variable binds.
    comparisons_by_variable: dict[str, tuple[tuple[object, frozenset], ...]]
    edge_constraints: tuple[PatternEdge, ...]
    # constant-equality pushdown specs per variable (empty without an index)
    # and the cached pattern-edge requirements for bucket-derived dominance
    # pruning — both compiled once per pattern
    pushdowns: dict[str, PushdownSpec]
    requirements: dict[str, tuple]
    # id(edge) -> size of its parallel group: edge-variable pattern edges
    # with the same (source, target, label) and identical predicates, each
    # needing its own witness (groups of one are not listed; empty without
    # an index, so the index-free matcher stays the unpruned reference)
    multiplicity: dict[int, int]
    # the node variables a closed probe checks (``node_variables`` itself),
    # or None when the pattern declares edge variables: a probe must then
    # bind them by search
    closed: dict[str, object] | None
    # cost-planner plan cache: frozenset of seeded variables -> _PlanState
    plans: dict = field(default_factory=dict)


@dataclass
class VF2Matcher:
    """Backtracking matcher over one :class:`PropertyGraph`.

    Parameters
    ----------
    graph:
        The data graph.
    candidate_index:
        Optional :class:`CandidateIndex`; when absent, root candidates are
        computed by scanning the graph.
    use_decomposition:
        Use pivot selection + connected ordering (True) or declaration order
        (False).

    A matcher instance is cheap to keep around and is *designed* to be reused
    across many searches of the same patterns: the per-pattern search plan is
    compiled on first use and cached, and ``stats`` accumulates across calls.
    """

    graph: PropertyGraph
    candidate_index: CandidateIndex | None = None
    use_decomposition: bool = True
    use_cost_planner: bool = True
    stats: MatchingStats = field(default_factory=MatchingStats)
    _profiles: dict[int, _PatternProfile] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def find_matches(self, pattern: Pattern, seed: Mapping[str, str] | None = None,
                     limit: int | None = None) -> list[Match]:
        """All matches of ``pattern`` (optionally at most ``limit``), optionally
        pre-binding the variables in ``seed`` (variable -> node id)."""
        return list(self.iter_matches(pattern, seed=seed, limit=limit))

    def find_one(self, pattern: Pattern, seed: Mapping[str, str] | None = None) -> Match | None:
        """The first match found, or ``None``."""
        for match in self.iter_matches(pattern, seed=seed, limit=1):
            return match
        return None

    def exists(self, pattern: Pattern, seed: Mapping[str, str] | None = None) -> bool:
        """Whether at least one match exists (short-circuits)."""
        return self.find_one(pattern, seed=seed) is not None

    def count(self, pattern: Pattern, seed: Mapping[str, str] | None = None,
              limit: int | None = None) -> int:
        """Number of matches (up to ``limit`` if given)."""
        return sum(1 for _ in self.iter_matches(pattern, seed=seed, limit=limit))

    def exists_extension(self, pattern: Pattern, bindings: Mapping[str, str]) -> bool:
        """Whether ``pattern`` has a match consistent with ``bindings``.

        ``bindings`` may bind only a subset of the pattern's variables (the
        shared evidence variables of an incompleteness rule); bindings for
        variables the pattern does not declare are ignored, and the unbound
        variables are searched.  A *closed* probe, one that binds every node
        variable of a pattern without edge variables, leaves nothing to
        search and is answered by :meth:`_closed_probe` instead.
        """
        profile = self._profile(pattern)
        closed = profile.closed
        if closed is not None and bindings.keys() >= closed.keys():
            return self._closed_probe(profile, bindings)
        has_variable = pattern.has_variable
        seed = {variable: node_id for variable, node_id in bindings.items()
                if has_variable(variable)}
        return self.find_one(pattern, seed=seed) is not None

    def iter_matches(self, pattern: Pattern, seed: Mapping[str, str] | None = None,
                     limit: int | None = None) -> Iterator[Match]:
        """Lazily yield matches.

        A match is counted before it is yielded and the elapsed time is
        accumulated when the generator finishes *or is closed*, so existence
        probes that stop at the first match (:meth:`find_one`,
        :meth:`exists`) are recorded too.
        """
        started = time.perf_counter()
        stats = self.stats
        try:
            profile = self._profile(pattern)
            order = self._variable_order(profile, seed)
            assignment: dict[str, str] = {}
            used_nodes: set[str] = set()

            if seed:
                for variable, node_id in seed.items():
                    if not pattern.has_variable(variable):
                        raise MatchingError(
                            f"seed variable {variable!r} is not in the pattern")
                    if not self.graph.has_node(node_id):
                        return
                    if node_id in used_nodes:
                        return
                    if not pattern.node_variable(variable).matches(
                            self.graph.node(node_id)):
                        return
                    assignment[variable] = node_id
                    used_nodes.add(node_id)
                # Seeded variables must also satisfy pattern edges among themselves.
                if not self._seed_edges_consistent(pattern, assignment):
                    return

            emitted = 0
            for match in self._backtrack(profile, order, 0, assignment, used_nodes):
                emitted += 1
                stats.matches_found += 1
                yield match
                if limit is not None and emitted >= limit:
                    break
        finally:
            stats.elapsed_seconds += time.perf_counter() - started

    # ------------------------------------------------------------------
    # per-pattern compiled state
    # ------------------------------------------------------------------

    def _profile(self, pattern: Pattern) -> _PatternProfile:
        cached = self._profiles.get(id(pattern))
        if cached is not None and cached.pattern is pattern:
            return cached

        touching: dict[str, tuple[PatternEdge, ...]] = {
            variable: tuple(pattern.edges_touching(variable))
            for variable in pattern.variables
        }
        node_variables = {node.variable: node for node in pattern.nodes}
        edge_variables = set(pattern.edge_variables)
        by_variable: dict[str, list[tuple[object, frozenset]]] = {}
        for comparison in pattern.comparisons:
            variables = frozenset(comparison.variables())
            if variables & edge_variables:
                continue
            for variable in variables:
                by_variable.setdefault(variable, []).append((comparison, variables))
        pushdowns: dict[str, PushdownSpec] = {}
        requirements: dict[str, tuple] = {}
        groups: list[list[PatternEdge]] = []
        if self.candidate_index is not None:
            pushdowns = self.candidate_index.pushdowns(pattern)
            for variable in pushdowns:
                requirements[variable] = pattern_requirements(pattern, variable)
            for edge in pattern.edges:
                if edge.variable is None:
                    continue
                for group in groups:
                    first = group[0]
                    if (first.source, first.target, first.label, first.predicates) == \
                            (edge.source, edge.target, edge.label, edge.predicates):
                        group.append(edge)
                        break
                else:
                    groups.append([edge])
        profile = _PatternProfile(
            pattern=pattern,
            base_order=self._base_order(pattern),
            touching=touching,
            node_variables=node_variables,
            comparisons_by_variable={variable: tuple(items)
                                     for variable, items in by_variable.items()},
            edge_constraints=tuple(edge for edge in pattern.edges
                                   if edge.variable is not None),
            pushdowns=pushdowns,
            requirements=requirements,
            multiplicity={id(edge): len(group) for group in groups
                          if len(group) > 1 for edge in group},
            closed=None if edge_variables else node_variables,
        )
        self._profiles[id(pattern)] = profile
        return profile

    def _base_order(self, pattern: Pattern) -> list[str]:
        if not self.use_decomposition:
            return list(pattern.variables)
        selectivity = None
        if self.candidate_index is not None:
            def selectivity(p: Pattern, variable: str) -> float:  # noqa: ANN001
                label_count = self.candidate_index.candidate_count_estimate(p, variable)
                # fewer candidates and more constraints first
                return label_count - 5.0 * len(p.edges_touching(variable))
        return build_search_plan(pattern, selectivity=selectivity).order

    def _variable_order(self, profile: _PatternProfile, seed: Mapping[str, str] | None) -> list[str]:
        if (self.use_cost_planner and self.use_decomposition
                and self.candidate_index is not None):
            return self._planned_order(profile, seed)
        order = profile.base_order
        if not seed:
            return order
        seeded = [variable for variable in order if variable in seed]
        rest = [variable for variable in order if variable not in seed]
        return seeded + rest

    # ------------------------------------------------------------------
    # cost-based planning
    # ------------------------------------------------------------------

    def _planned_order(self, profile: _PatternProfile, seed: Mapping[str, str] | None) -> list[str]:
        """The cost-based variable order for this (pattern, seeded set).

        Plans are cached per seeded-variable set and validated against the
        candidate index's version counter: while the graph is unchanged the
        cached order is returned with two dict lookups.  When the version
        moved, the plan's variables are re-estimated (cheap bucket-size
        lookups); only when some estimate drifted past ``_REPLAN_DRIFT`` is
        the greedy order rebuilt and ``planner_replans`` bumped.
        """
        index = self.candidate_index
        seeded = frozenset(seed) if seed else frozenset()
        state = profile.plans.get(seeded)
        version = index.version
        if state is not None:
            if state.checked_version == version:
                return state.order
            current = self._order_estimates(profile, state.order, len(seeded))
            if not _estimates_drifted(state.estimates, current):
                state.checked_version = version
                return state.order
        pattern = profile.pattern
        order, estimates = plan_connected_order(
            pattern, seeded,
            lambda variable, bound: index.estimated_candidates(pattern, variable, bound))
        if state is None:
            self.stats.planner_plans += 1
        else:
            self.stats.planner_replans += 1
        profile.plans[seeded] = _PlanState(order, estimates, version)
        self.stats.planner_orders[pattern.name] = list(order)
        self.stats.planner_estimated.setdefault(pattern.name, {}).update(estimates)
        return order

    def _order_estimates(self, profile: _PatternProfile, order: list[str],
                         seeded_count: int) -> dict[str, int]:
        """Re-estimate a stored order's variables under the same prefix-bound
        contexts the plan was built with."""
        index = self.candidate_index
        pattern = profile.pattern
        bound = set(order[:seeded_count])
        estimates: dict[str, int] = {}
        for variable in order[seeded_count:]:
            estimates[variable] = index.estimated_candidates(pattern, variable, bound)
            bound.add(variable)
        return estimates

    # ------------------------------------------------------------------
    # search internals
    # ------------------------------------------------------------------

    def _closed_probe(self, profile: _PatternProfile,
                      bindings: Mapping[str, str]) -> bool:
        """A closed probe by direct lookups: the checks the seeded search
        makes when every variable is seeded (each bound node exists, the
        bound ids are distinct, each node passes its label and predicates,
        each pattern edge has a witness, the comparisons hold), with the same
        ``matches_found`` and ``elapsed_seconds`` accounting, and no search.
        Bindings of variables the pattern does not declare are never read."""
        started = time.perf_counter()
        stats = self.stats
        stats.closed_probes += 1
        try:
            closed = profile.closed
            nodes = self.graph.node_store
            for variable, pattern_node in closed.items():
                node = nodes.get(bindings[variable])
                if node is None or not pattern_node.matches(node):
                    return False
            if len(closed) > 1 and len({bindings[variable]
                                        for variable in closed}) < len(closed):
                return False
            has_witness = self._has_witness
            pattern = profile.pattern
            for edge in pattern.edges:
                if not has_witness(bindings[edge.source], bindings[edge.target],
                                   edge):
                    return False
            if pattern.comparisons:
                def lookup(variable: str) -> Mapping[str, object]:
                    return nodes[bindings[variable]].properties

                if not all(comparison.evaluate(lookup)
                           for comparison in pattern.comparisons):
                    return False
            stats.matches_found += 1
            return True
        finally:
            stats.elapsed_seconds += time.perf_counter() - started

    def _seed_edges_consistent(self, pattern: Pattern, assignment: dict[str, str]) -> bool:
        for edge in pattern.edges:
            if edge.source in assignment and edge.target in assignment:
                if not self._has_witness(assignment[edge.source],
                                         assignment[edge.target], edge):
                    return False
        return True

    def _backtrack(self, profile: _PatternProfile, order: list[str], depth: int,
                   assignment: dict[str, str],
                   used_nodes: set[str]) -> Iterator[Match]:
        """Depth-first search over the variable order, as an explicit-stack
        loop.

        One generator frame drives the whole search (the recursive
        formulation stacked one generator frame per bound variable, and
        every yielded match bubbled through all of them — measured at ~40%
        of matcher time at E2 scale 800).  Each stack entry is one
        variable's in-progress candidate iteration:
        ``[depth, variable, candidate_iterator, derived_from, bound_node]``;
        advancing a frame binds the next viable candidate and pushes the
        next variable's frame, exhausting it unbinds and pops.  Candidate
        derivation, constraint checks, counter semantics, and match order
        are identical to the recursive version (pinned by the matcher and
        property-based suites).
        """
        total = len(order)
        stats = self.stats
        graph_node = self.graph.node
        node_variables = profile.node_variables
        if (self.use_cost_planner and self.use_decomposition
                and self.candidate_index is not None):
            planner_actual = stats.planner_actual.setdefault(
                profile.pattern.name, {})
        else:
            planner_actual = None

        def open_frame(depth: int) -> list | None:
            """A fresh frame for the next unbound variable at/after ``depth``
            — or ``None`` when every variable is bound (a complete node
            assignment)."""
            # Skip over already-seeded variables at the front of the order.
            while depth < total and order[depth] in assignment:
                depth += 1
            if depth == total:
                return None
            variable = order[depth]
            candidates, derived_from = self._candidates_for(profile, variable,
                                                            assignment)
            if planner_actual is not None:
                planner_actual[variable] = (planner_actual.get(variable, 0)
                                            + len(candidates))
            return [depth, variable, iter(candidates), derived_from, None]

        frame = open_frame(depth)
        if frame is None:
            yield from self._bind_edge_variables(profile, assignment)
            return
        stack: list[list] = [frame]
        while stack:
            frame = stack[-1]
            _, variable, candidates, derived_from, bound = frame
            if bound is not None:
                # back from the subtree under the previous candidate
                del assignment[variable]
                used_nodes.discard(bound)
                frame[4] = None
            pattern_node = node_variables[variable]
            advanced = False
            for node_id in candidates:
                if node_id in used_nodes:
                    continue
                stats.nodes_tried += 1
                if not pattern_node.matches(graph_node(node_id)):
                    continue
                if not self._edges_to_bound_satisfied(profile, variable, node_id,
                                                      assignment,
                                                      skip=derived_from):
                    continue
                assignment[variable] = node_id
                used_nodes.add(node_id)
                if not self._node_comparisons_satisfiable(profile, variable,
                                                          assignment):
                    stats.backtracks += 1
                    del assignment[variable]
                    used_nodes.discard(node_id)
                    continue
                frame[4] = node_id
                child = open_frame(frame[0] + 1)
                if child is None:
                    # complete node assignment: emit, then resume this frame
                    yield from self._bind_edge_variables(profile, assignment)
                else:
                    stack.append(child)
                advanced = True
                break
            if not advanced:
                stack.pop()

    def _candidates_for(self, profile: _PatternProfile, variable: str,
                        assignment: dict[str, str]):
        """Candidates for ``variable`` plus the join edge they were derived from.

        If the variable is connected by pattern edges to bound variables, the
        smallest relevant adjacency list is iterated and the remaining join
        constraints are enforced by :meth:`_edges_to_bound_satisfied` — no
        intermediate witness sets are materialised.  Otherwise fall back to
        the index / full scan (sorted once for a deterministic root order).

        Constant-equality pushdown (see the module docstring) intersects the
        variable's value buckets with whichever pool is chosen: buckets act as
        membership filters over adjacency-derived candidates, and when the
        smallest bucket undercuts the smallest adjacency list it *becomes*
        the candidate source instead.  Buckets are complete for the equality,
        so no true candidate is ever dropped; the residual predicate /
        comparison checks still run downstream.
        """
        graph = self.graph
        best_edge: PatternEdge | None = None
        best_ids = None
        best_size = -1
        best_inbound = False
        for edge in profile.touching[variable]:
            other = edge.target if edge.source == variable else edge.source
            if other == variable or other not in assignment:
                continue
            bound_id = assignment[other]
            if not graph.has_node(bound_id):
                return (), None
            # A labelled pattern edge probes the per-label adjacency bucket,
            # so only matching-label edges are ever iterated below.
            if edge.source == variable:
                # variable -[label]-> bound : candidates are sources of in-edges
                edge_ids = (graph.in_edge_ids(bound_id) if edge.label is None
                            else graph.in_edge_ids_with_label(bound_id, edge.label))
                inbound = True
            else:
                edge_ids = (graph.out_edge_ids(bound_id) if edge.label is None
                            else graph.out_edge_ids_with_label(bound_id, edge.label))
                inbound = False
            size = len(edge_ids)
            if best_edge is None or size < best_size:
                best_edge, best_ids, best_size, best_inbound = edge, edge_ids, size, inbound
                if size == 0:
                    break

        filters = self._pushdown_buckets(profile, variable, assignment)
        if filters is _DEAD_BRANCH:
            return (), None
        filter_pool = min(filters, key=len) if filters else None

        if best_edge is not None and (filter_pool is None
                                      or best_size <= len(filter_pool)):
            edge_store = graph.edge_store
            predicates = best_edge.predicates
            # when the join edge is one of ``need`` parallel edge variables,
            # a candidate needs that many distinct witnesses to the bound node
            need = profile.multiplicity.get(id(best_edge), 1)
            witnessed: dict[str, int] = {}
            candidates: list[str] = []
            for edge_id in best_ids:
                witness = edge_store[edge_id]
                if predicates and not best_edge.matches(witness):
                    continue
                candidate = witness.source if best_inbound else witness.target
                count = witnessed.get(candidate, 0) + 1
                witnessed[candidate] = count
                if count != need:  # listed once, at its need-th witness
                    continue
                if filters and not all(candidate in bucket for bucket in filters):
                    continue
                candidates.append(candidate)
            return candidates, best_edge

        if filter_pool is not None:
            # The value bucket is the candidate source: intersect with the
            # other buckets, keep signature-dominance pruning, and sort for a
            # deterministic order.  All join edges (if any) are re-checked by
            # _edges_to_bound_satisfied, hence derived_from=None.
            index = self.candidate_index
            self.stats.value_bucket_candidates += len(filter_pool)
            required = profile.requirements[variable]
            dominates = index.signature_dominates
            others = [bucket for bucket in filters if bucket is not filter_pool]
            candidates = sorted(
                candidate for candidate in filter_pool
                if dominates(candidate, *required)
                and all(candidate in bucket for bucket in others))
            return candidates, None

        pattern = profile.pattern
        if self.candidate_index is not None:
            return sorted(self.candidate_index.candidates(
                pattern, variable, stats=self.stats)), None
        return sorted(naive_candidates(graph, pattern, variable)), None

    def _pushdown_buckets(self, profile: _PatternProfile, variable: str,
                          assignment: dict[str, str]):
        """The value buckets applicable to ``variable`` right now.

        Returns a list of read-only node-id sets (possibly empty),
        or the ``_DEAD_BRANCH`` sentinel when some applicable equality can
        never be satisfied (an empty bucket, or a bound neighbour missing the
        compared property) — the caller prunes the whole branch.
        """
        spec = profile.pushdowns.get(variable)
        if spec is None:
            return ()
        index = self.candidate_index
        label = profile.node_variables[variable].label
        graph = self.graph
        buckets = []
        for key, value in spec.unary:
            bucket = index.value_bucket(label, key, value)
            if bucket is not None:
                if not bucket:
                    return _DEAD_BRANCH
                buckets.append(bucket)
        for key, value in spec.literal:
            bucket = index.value_bucket(label, key, value)
            if bucket is not None:
                if not bucket:
                    return _DEAD_BRANCH
                buckets.append(bucket)
        for own_key, other_variable, other_key in spec.dynamic:
            other_id = assignment.get(other_variable)
            if other_id is None:
                # a same-key self-join (a.k == b.k, b unbound, same label):
                # injectivity puts b on another node of this label, so the
                # candidate's equality bucket must have at least two members
                if (other_key == own_key
                        and profile.node_variables[other_variable].label == label):
                    bucket = index.shared_bucket(label, own_key)
                    if bucket is not None:
                        if not bucket:
                            return _DEAD_BRANCH
                        buckets.append(bucket)
                continue
            if not graph.has_node(other_id):
                continue
            other_properties = graph.node(other_id).properties
            if other_key not in other_properties:
                # an EQ comparison against a missing property is always False
                return _DEAD_BRANCH
            bucket = index.value_bucket(label, own_key,
                                        other_properties[other_key])
            if bucket is not None:
                if not bucket:
                    return _DEAD_BRANCH
                buckets.append(bucket)
        stats = self.stats
        for key, values in spec.members:
            bucket = index.membership_bucket(label, key, values)
            if bucket is not None:
                if not bucket:
                    return _DEAD_BRANCH
                stats.range_bucket_candidates += len(bucket)
                buckets.append(bucket)
        for key, op, value in spec.ranges:
            bucket = index.range_bucket(label, key, op, value)
            if bucket is not None:
                if not bucket:
                    return _DEAD_BRANCH
                stats.range_bucket_candidates += len(bucket)
                buckets.append(bucket)
        for own_key, op, other_variable, other_key in spec.dynamic_ranges:
            other_id = assignment.get(other_variable)
            if other_id is None or not graph.has_node(other_id):
                continue
            other_properties = graph.node(other_id).properties
            if other_key not in other_properties:
                # a range comparison against a missing property is always False
                return _DEAD_BRANCH
            bucket = index.range_bucket(label, own_key, op,
                                        other_properties[other_key])
            # None = unanswerable (unorderable bound value, e.g. a list or
            # NaN) — leave it to the residual comparison check
            if bucket is not None:
                if not bucket:
                    return _DEAD_BRANCH
                stats.range_bucket_candidates += len(bucket)
                buckets.append(bucket)
        return buckets

    def _edges_to_bound_satisfied(self, profile: _PatternProfile, variable: str,
                                  node_id: str, assignment: dict[str, str],
                                  skip: PatternEdge | None = None) -> bool:
        """Every pattern edge between ``variable`` and bound variables must be
        witnessed.  ``skip`` is the join edge candidates were derived from —
        it is already satisfied by construction."""
        for edge in profile.touching[variable]:
            if edge is skip:
                continue
            other = edge.target if edge.source == variable else edge.source
            if other == variable:
                # self-loop pattern edge
                if not self._has_witness(node_id, node_id, edge):
                    return False
                continue
            if other not in assignment:
                continue
            if edge.source == variable:
                source_id, target_id = node_id, assignment[other]
            else:
                source_id, target_id = assignment[other], node_id
            if not self._has_witness(source_id, target_id, edge):
                return False
        return True

    def _has_witness(self, source_id: str, target_id: str, edge: PatternEdge) -> bool:
        """Whether some data edge ``source -> target`` satisfies ``edge``,
        probing the smaller adjacency side and stopping at the first hit.
        Labelled pattern edges probe the per-label buckets, so only
        matching-label edges are iterated."""
        graph = self.graph
        label = edge.label
        if label is None:
            out_ids = graph.out_edge_ids(source_id)
            in_ids = graph.in_edge_ids(target_id)
        else:
            out_ids = graph.out_edge_ids_with_label(source_id, label)
            in_ids = graph.in_edge_ids_with_label(target_id, label)
        edge_store = graph.edge_store
        predicates = edge.predicates
        if len(out_ids) <= len(in_ids):
            for edge_id in out_ids:
                witness = edge_store[edge_id]
                if witness.target != target_id:
                    continue
                if not predicates or edge.matches(witness):
                    return True
        else:
            for edge_id in in_ids:
                witness = edge_store[edge_id]
                if witness.source != source_id:
                    continue
                if not predicates or edge.matches(witness):
                    return True
        return False

    def _node_comparisons_satisfiable(self, profile: _PatternProfile, variable: str,
                                      assignment: dict[str, str]) -> bool:
        """Early-prune on node-only comparisons that became fully bound when
        ``variable`` was assigned (each comparison is evaluated exactly once,
        at the depth its last variable binds)."""
        relevant = profile.comparisons_by_variable.get(variable)
        if not relevant:
            return True
        graph = self.graph

        def lookup(name: str) -> Mapping[str, object]:
            node_id = assignment.get(name)
            if node_id is not None and graph.has_node(node_id):
                return graph.node(node_id).properties
            return {}

        for comparison, variables in relevant:
            if not variables.issubset(assignment.keys()):
                continue  # not fully bound yet; checked when the last variable binds
            if not comparison.evaluate(lookup):
                return False
        return True

    def _bind_edge_variables(self, profile: _PatternProfile,
                             assignment: dict[str, str]) -> Iterator[Match]:
        """Enumerate bindings of edge variables to distinct witnessing edges,
        evaluate the full comparison set, and yield one match per valid binding."""
        pattern = profile.pattern
        edge_constraints = profile.edge_constraints
        if not edge_constraints:
            match = Match(pattern=pattern, node_bindings=dict(assignment))
            if match.satisfies_comparisons(self.graph):
                yield match
            return

        def witnesses_for(edge: PatternEdge) -> list[str]:
            found = self.graph.edges_between(assignment[edge.source],
                                             assignment[edge.target], edge.label)
            return [candidate.id for candidate in found if edge.matches(candidate)]

        def backtrack_edges(index: int, bindings: dict[str, str],
                            used_edges: set[str]) -> Iterator[dict[str, str]]:
            if index == len(edge_constraints):
                yield dict(bindings)
                return
            edge = edge_constraints[index]
            for edge_id in witnesses_for(edge):
                if edge_id in used_edges:
                    continue
                bindings[edge.variable] = edge_id  # type: ignore[index]
                used_edges.add(edge_id)
                yield from backtrack_edges(index + 1, bindings, used_edges)
                del bindings[edge.variable]  # type: ignore[arg-type]
                used_edges.discard(edge_id)

        for edge_bindings in backtrack_edges(0, {}, set()):
            match = Match(pattern=pattern, node_bindings=dict(assignment),
                          edge_bindings=edge_bindings)
            if match.satisfies_comparisons(self.graph):
                yield match
