"""Tests for the sorted value buckets (range/membership pushdown layer).

Covers:

* :func:`variable_pushdowns` — range predicates, literal range comparisons,
  ``IN`` membership, and cross-variable range comparisons (mirrored per
  orientation) compile into the new spec fields; ``NOT_IN``, unorderable
  range constants, and NaN stay residual-only;
* :meth:`CandidateIndex.range_bucket` / :meth:`membership_bucket` semantics —
  bisect-exact slices per orderable type class, the fuzzy/unhashable side
  pools always included, ``None`` for unanswerable probes;
* incremental maintenance: the hypothesis mirror of the PR-5 value-bucket
  integrity test, asserting :meth:`check_sorted_integrity` and probe-vs-fresh
  agreement after random mutation sequences (including a rebuild);
* indexed == unindexed matcher equivalence with range/membership shapes,
  including the empty-range dead-branch prune;
* the ``one_of`` / ``not_one_of`` constructors accepting any iterable,
  deduplicating, and tolerating unhashable members.
"""

from __future__ import annotations

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.registry import load_dataset
from repro.graph import PropertyGraph
from repro.matching import (
    CandidateIndex,
    Comparison,
    ComparisonOp,
    Pattern,
    PatternEdge,
    PatternNode,
    VF2Matcher,
    ge,
    gt,
    le,
    lt,
    one_of,
    not_one_of,
    variable_pushdowns,
)
from repro.matching.predicates import PredicateOp

from tests.test_incremental_index import _random_mutation


def _match_keys(graph, pattern, indexed: bool):
    """Match keys and stats of one search, through an attached candidate
    index or without one."""
    index = CandidateIndex(graph) if indexed else None
    if index is not None:
        index.attach()
    engine = VF2Matcher(graph=graph, candidate_index=index)
    keys = {match.key() for match in engine.find_matches(pattern)}
    if index is not None:
        index.detach()
    return keys, engine.stats


def _assert_equivalent(graph, pattern):
    indexed, _ = _match_keys(graph, pattern, True)
    naive, _ = _match_keys(graph, pattern, False)
    assert indexed == naive
    return indexed


class TestRangePushdownCompilation:
    def test_all_range_predicates_compile(self):
        pattern = Pattern(
            nodes=[PatternNode("x", "Person",
                               predicates=(lt("age", 30), le("age", 30),
                                           gt("age", 20), ge("age", 20)))],
            name="ranges")
        spec = variable_pushdowns(pattern)["x"]
        assert spec.ranges == (("age", "lt", 30), ("age", "le", 30),
                               ("age", "gt", 20), ("age", "ge", 20))

    def test_literal_range_comparisons_compile(self):
        pattern = Pattern(
            nodes=[PatternNode("x", "Person")],
            comparisons=[Comparison(("x", "age"), ComparisonOp.GE,
                                    right_value=21, right_literal=True)],
            name="literal-range")
        spec = variable_pushdowns(pattern)["x"]
        assert spec.ranges == (("age", "ge", 21),)
        assert spec.literal == ()

    def test_unorderable_range_constants_stay_residual(self):
        pattern = Pattern(
            nodes=[PatternNode("x", "Person",
                               predicates=(gt("age", [1, 2]),
                                           lt("age", float("nan"))))],
            name="unorderable")
        assert variable_pushdowns(pattern) == {}

    def test_membership_compiles(self):
        pattern = Pattern(
            nodes=[PatternNode("x", "Person",
                               predicates=(one_of("country", ["FR", "DE"]),))],
            name="members")
        spec = variable_pushdowns(pattern)["x"]
        assert spec.members == (("country", ("FR", "DE")),)

    def test_not_in_and_unhashable_members_stay_residual(self):
        pattern = Pattern(
            nodes=[PatternNode("x", "Person",
                               predicates=(not_one_of("country", ["FR"]),
                                           one_of("tags", [["a"], ["b"]])))],
            name="not-pushable")
        assert variable_pushdowns(pattern) == {}

    def test_dynamic_range_comparisons_mirror_per_orientation(self):
        pattern = Pattern(
            nodes=[PatternNode("a", "Person"), PatternNode("b", "Person"),
                   PatternNode("c", "City")],
            edges=[PatternEdge("a", "c", "bornIn"), PatternEdge("b", "c", "bornIn")],
            comparisons=[Comparison(("a", "age"), ComparisonOp.LT, ("b", "age"))],
            name="dyn-range")
        specs = variable_pushdowns(pattern)
        assert specs["a"].dynamic_ranges == (("age", "lt", "b", "age"),)
        assert specs["b"].dynamic_ranges == (("age", "gt", "a", "age"),)
        assert "c" not in specs


class TestRangeBucketSemantics:
    def _graph(self):
        graph = PropertyGraph()
        graph.add_node("Person", {"age": 10}, node_id="p10")
        graph.add_node("Person", {"age": 20}, node_id="p20")
        graph.add_node("Person", {"age": 20.5}, node_id="p20f")
        graph.add_node("Person", {"age": 30}, node_id="p30")
        graph.add_node("Person", {"age": "thirty"}, node_id="pstr")
        graph.add_node("Person", {"age": [30]}, node_id="plist")
        graph.add_node("Person", {"age": (1, 2)}, node_id="ptuple")
        graph.add_node("Person", {"age": float("nan")}, node_id="pnan")
        graph.add_node("Person", {}, node_id="pnone")
        return graph

    def _index(self, graph):
        index = CandidateIndex(graph)
        index.ensure_sorted_index("Person", "age")
        return index

    def test_numeric_range_probes(self):
        index = self._index(self._graph())
        # side pools (unhashable list + fuzzy tuple/NaN) ride along in every
        # probe; the residual predicate check rejects them downstream
        side = {"plist", "ptuple", "pnan"}
        assert index.range_bucket("Person", "age", "lt", 20) == {"p10"} | side
        assert index.range_bucket("Person", "age", "le", 20) == {"p10", "p20"} | side
        assert index.range_bucket("Person", "age", "gt", 20) == {"p20f", "p30"} | side
        assert index.range_bucket("Person", "age", "ge", 20) == \
            {"p20", "p20f", "p30"} | side
        # strings live in the other type class: correctly absent from
        # numeric probes (str < int raises, i.e. the predicate is False)
        assert "pstr" not in index.range_bucket("Person", "age", "gt", 0)

    def test_string_range_probes_use_string_array(self):
        index = self._index(self._graph())
        bucket = index.range_bucket("Person", "age", "ge", "a")
        assert "pstr" in bucket
        assert "p10" not in bucket

    def test_unanswerable_probes_return_none(self):
        graph = self._graph()
        index = self._index(graph)
        assert index.range_bucket("Person", "age", "lt", float("nan")) is None
        assert index.range_bucket("Person", "age", "lt", (1,)) is None
        assert index.range_bucket("Person", "age", "lt", None) is None
        # unregistered pair / equality-only registration
        assert index.range_bucket("City", "age", "lt", 5) is None
        index.ensure_value_index("Person", "other")
        assert index.range_bucket("Person", "other", "lt", 5) is None

    def test_membership_probe_unions_equality_buckets(self):
        graph = self._graph()
        index = self._index(graph)
        bucket = index.membership_bucket("Person", "age", (10, 30, 99))
        assert bucket == {"p10", "p30", "plist"}  # unhashable pool included
        assert index.membership_bucket("Person", "age", ([1],)) is None

    def test_incremental_maintenance_tracks_mutations(self):
        graph = self._graph()
        index = self._index(graph)
        index.attach()
        graph.add_node("Person", {"age": 25}, node_id="p25")
        graph.update_node("p10", {"age": 40})
        graph.remove_node("p30")
        assert index.range_bucket("Person", "age", "lt", 30) == \
            {"p20", "p20f", "p25", "plist", "ptuple", "pnan"}
        assert index.check_sorted_integrity()
        index.rebuild()  # sorted arrays must survive a full rebuild
        assert index.check_sorted_integrity()
        assert index.range_bucket("Person", "age", "ge", 40) == \
            {"p10", "plist", "ptuple", "pnan"}
        index.detach()

    @given(seed=st.integers(min_value=0, max_value=10_000),
           mutation_count=st.integers(min_value=5, max_value=30))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sorted_buckets_survive_random_mutations(self, seed, mutation_count):
        """The incrementally-maintained sorted arrays must equal a rebuild
        from scratch after any mutation sequence (the sorted mirror of the
        PR-5 value-bucket integrity property)."""
        rng = random.Random(seed)
        graph = load_dataset("kg", scale=30, seed=seed).clean
        index = CandidateIndex(graph)
        index.attach()
        index.ensure_sorted_index("Person", "name")
        index.ensure_sorted_index(None, "name")
        index.ensure_sorted_index("City", "population")
        mutations = 0
        while mutations < mutation_count:
            if not _random_mutation(graph, rng):
                continue
            mutations += 1
        assert index.check_value_integrity()
        assert index.check_sorted_integrity()
        # the probe surface agrees with a from-scratch sorted index
        fresh = CandidateIndex(graph)
        fresh.ensure_sorted_index("Person", "name")
        for probe in ("A", "M", "Z", "name-5"):
            for op in ("lt", "le", "gt", "ge"):
                assert index.range_bucket("Person", "name", op, probe) == \
                    fresh.range_bucket("Person", "name", op, probe)
        index.detach()


class TestRangeMatcherEquivalence:
    def _graph(self):
        graph = PropertyGraph()
        city = graph.add_node("City", {"name": "x"}, node_id="c")
        for index, age in enumerate((10, 20, 30, "na", [5], float("nan"))):
            node_id = f"p{index}"
            graph.add_node("Person", {"age": age}, node_id=node_id)
            graph.add_edge(node_id, "c", "bornIn")
        return graph

    def test_unary_range_equivalence(self):
        graph = self._graph()
        for predicate in (lt("age", 25), le("age", 20), gt("age", 10),
                          ge("age", 30)):
            pattern = Pattern(
                nodes=[PatternNode("p", "Person", predicates=(predicate,)),
                       PatternNode("c", "City")],
                edges=[PatternEdge("p", "c", "bornIn")],
                name="unary-range")
            assert _assert_equivalent(graph, pattern)

    def test_empty_range_dead_branch(self):
        graph = self._graph()
        pattern = Pattern(
            nodes=[PatternNode("p", "Person", predicates=(gt("age", 1000),)),
                   PatternNode("c", "City")],
            edges=[PatternEdge("p", "c", "bornIn")],
            name="empty-range")
        # no orderable value exceeds 1000, but the side pools keep the probe
        # non-empty; equivalence is the contract either way
        assert _assert_equivalent(graph, pattern) == set()

    def test_membership_equivalence(self):
        graph = self._graph()
        pattern = Pattern(
            nodes=[PatternNode("p", "Person",
                               predicates=(one_of("age", [10, 30, 999]),)),
                   PatternNode("c", "City")],
            edges=[PatternEdge("p", "c", "bornIn")],
            name="membership")
        matches = _assert_equivalent(graph, pattern)
        assert len(matches) == 2

    def test_dynamic_range_equivalence(self):
        graph = self._graph()
        pattern = Pattern(
            nodes=[PatternNode("a", "Person"), PatternNode("b", "Person"),
                   PatternNode("c", "City")],
            edges=[PatternEdge("a", "c", "bornIn"), PatternEdge("b", "c", "bornIn")],
            comparisons=[Comparison(("a", "age"), ComparisonOp.LT, ("b", "age"))],
            name="dyn-range-match")
        matches = _assert_equivalent(graph, pattern)
        assert len(matches) == 3  # (10,20), (10,30), (20,30)

    def test_range_counter_surfaces(self):
        graph = self._graph()
        pattern = Pattern(
            nodes=[PatternNode("p", "Person", predicates=(gt("age", 10),)),
                   PatternNode("c", "City")],
            edges=[PatternEdge("p", "c", "bornIn")],
            name="counter")
        _, stats = _match_keys(graph, pattern, True)
        assert stats.range_bucket_candidates > 0


class TestOneOfConstructors:
    def test_accepts_any_iterable_and_dedupes(self):
        predicate = one_of("k", (value for value in ("a", "b", "a", "b")))
        assert predicate.value == ("a", "b")
        assert predicate.op is PredicateOp.IN

    def test_unhashable_members_kept_and_deduped(self):
        predicate = one_of("k", [["x"], ["x"], ["y"], "z", "z"])
        assert predicate.value == (["x"], ["y"], "z")
        assert predicate.evaluate({"k": ["y"]})
        assert not predicate.evaluate({"k": ["w"]})

    def test_not_one_of_mirrors(self):
        predicate = not_one_of("k", iter(["a", "a", "b"]))
        assert predicate.value == ("a", "b")
        assert predicate.evaluate({"k": "c"})
        assert not predicate.evaluate({"k": "a"})
