"""Tests for the inverted element→match index and the delta-driven hot path.

Covers:

* the inverted index in :class:`MatchStore` (lookup correctness + integrity
  under randomized mutation sequences on all three dataset generators);
* the delta-region invalidation bound, asserted with the
  ``invalidation_checked`` counter rather than timing, and the matching
  narrowing of the incompleteness recheck;
* recheck soundness: a :class:`FastRepairCore` driven through random
  committed edits queues every violation, including those reached only
  through a missing pattern's own variables;
* merge discovery seeded at the survivor only: stores equal re-enumeration
  after every merge of merge-heavy sequences, and the search work of a merge
  does not grow with the hub it shares;
* the ``pattern_requirements`` regression: parallel variable-less pattern
  edges between the same variable pair must not over-prune;
* matcher statistics flowing from incremental maintenance and extension
  probes into the :class:`RepairReport`.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RepairConfig, RepairSession, repair_copy
from repro.datasets.registry import build_workload, load_dataset
from repro.datasets.rulegen import RuleGenConfig, generate_rules
from repro.graph import ChangeRecorder, PropertyGraph
from repro.graph.statistics import label_pair_histogram
from repro.matching import (
    CandidateIndex,
    DeltaRegion,
    IncrementalMatcher,
    Pattern,
    PatternEdge,
    PatternNode,
    VF2Matcher,
    naive_candidates,
    pattern_requirements,
)
from repro.matching.predicates import eq, exists, ne, same_value
from repro.repair.fast import FastRepairCore
from repro.repair.violation import Violation
from repro.rules.builder import conflict_rule, incompleteness_rule, redundancy_rule
from repro.rules.grr import RuleSet

from graph_oracle import structure_mismatches
from repro.rules.library import knowledge_graph_rules

DOMAINS = ("kg", "movies", "social")


def _random_mutation(graph: PropertyGraph, rng: random.Random) -> bool:
    """Apply one random mutation; returns False if the drawn op was a no-op."""
    op = rng.choice(["add_edge", "add_edge", "remove_edge", "remove_node",
                     "add_node", "relabel_node", "relabel_edge", "update_node",
                     "merge"])
    if op == "add_edge" and graph.num_nodes >= 2:
        labels = sorted(graph.edge_labels()) or ["rel"]
        ids = graph.node_ids()
        graph.add_edge(rng.choice(ids), rng.choice(ids), rng.choice(labels))
    elif op == "remove_edge" and graph.num_edges:
        graph.remove_edge(rng.choice(graph.edge_ids()))
    elif op == "remove_node" and graph.num_nodes > 2:
        graph.remove_node(rng.choice(graph.node_ids()))
    elif op == "add_node":
        graph.add_node(rng.choice(sorted(graph.node_labels())))
    elif op == "relabel_node" and graph.num_nodes:
        graph.relabel_node(rng.choice(graph.node_ids()),
                           rng.choice(sorted(graph.node_labels())))
    elif op == "relabel_edge" and graph.num_edges:
        graph.relabel_edge(rng.choice(graph.edge_ids()),
                           rng.choice(sorted(graph.edge_labels())))
    elif op == "update_node" and graph.num_nodes:
        graph.update_node(rng.choice(graph.node_ids()),
                          {"name": rng.choice(["X", "Y", "Z"])})
    elif op == "merge" and graph.num_nodes > 3:
        keep, merge = rng.sample(graph.node_ids(), 2)
        graph.merge_nodes(keep, merge)
    else:
        return False
    return True


def _assert_index_integrity(index: CandidateIndex) -> None:
    """The graph's label and adjacency indexes, which the candidate index
    reads live, and the index's own value buckets (``shared`` included)
    equal a recount from the graph."""
    assert not structure_mismatches(index._graph)
    assert index.check_value_integrity()


def _most_common_triple(graph: PropertyGraph) -> tuple[str, str, str]:
    """The (source label, edge label, target label) with the most edges."""
    histogram = label_pair_histogram(graph)
    return max(sorted(histogram), key=histogram.__getitem__)


def _open_rule(graph: PropertyGraph):
    """An incompleteness rule whose missing pattern has a variable of its own:
    every source of the graph's most common edge triple keeps such an edge to
    a target not named ``X`` (a name the random updates set)."""
    source, label, target = _most_common_triple(graph)
    return (incompleteness_rule("keeps-an-edge")
            .node("x", source)
            .missing_node("y", target, [ne("name", "X")])
            .missing_edge("x", "y", label)
            .add_node("z", target).add_edge("x", "z", label)
            .build())


def _failing_rule(graph: PropertyGraph):
    """An incompleteness rule whose repair always fails: it fires on every
    edge of the graph's most common triple that lacks a reverse edge, and
    the repair adds one from an edge variable, which cannot be executed.
    Its priority ranks it ahead of every stock rule, so a budgeted drain
    reaches it."""
    source, label, target = _most_common_triple(graph)
    return (incompleteness_rule("never-repaired").priority(100)
            .node("x", source).node("y", target)
            .edge("x", "y", label, variable="e")
            .missing_edge("y", "x", label)
            .add_edge("e", "x", label)
            .build())


def _rescan_remaining(core: FastRepairCore) -> int:
    """The fixpoint check by full rescan: every stored match that is valid
    and violates its rule, the count the violation ledger must equal."""
    return sum(1 for store in core.incremental.stores()
               for match in store
               if match.is_valid(core.graph)
               and core.rules_by_pattern[store.pattern.name].is_violation(
                   core.checker, match))


def _assert_stores_equal_recompute(incremental: IncrementalMatcher,
                                   graph: PropertyGraph, index) -> None:
    oracle = VF2Matcher(graph=graph, candidate_index=index)
    for store in incremental.stores():
        expected = {m.key() for m in oracle.find_matches(store.pattern)}
        assert {m.key() for m in store} == expected
        assert store.check_integrity()


class TestInvertedIndexEqualsRecompute:
    """apply_delta with the inverted index must produce store contents
    identical to a from-scratch re-enumeration, across randomized repair-like
    mutation sequences on every dataset generator."""

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("seed", [1, 42])
    def test_randomized_sequences(self, domain, seed):
        rng = random.Random(seed)
        graph = load_dataset(domain, scale=50, seed=seed).clean
        rules = generate_rules(graph, RuleGenConfig(num_rules=5, seed=seed))

        index = CandidateIndex(graph)
        index.attach()
        incremental = IncrementalMatcher(graph, candidate_index=index)
        for rule in rules:
            incremental.register(rule.pattern)
        recorder = ChangeRecorder()
        graph.add_listener(recorder)

        mutations = 0
        while mutations < 25:
            if not _random_mutation(graph, rng):
                continue
            mutations += 1
            _assert_index_integrity(index)
            incremental.apply_delta(recorder.drain())
            if mutations % 5 == 0:
                _assert_stores_equal_recompute(incremental, graph, index)

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("rule_source", ["rulegen", "library"])
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_fast_core_queues_every_violation(self, domain, rule_source, seed):
        """The same sequences committed to a FastRepairCore: after every
        maintenance pass each stored match that violates its rule must be
        queued (pushing it again is a no-op), so the narrowed recheck
        misses nothing.  A rule with a missing-only variable is added to
        cover the whole-store fallback.

        Drains run between the commits, and a rule whose repairs always
        fail is added, so processed and failed identities exist; after
        every step the violation ledger's count must equal a full rescan."""
        rng = random.Random(seed)
        instance = load_dataset(domain, scale=50, seed=seed)
        graph = instance.clean
        rules = (generate_rules(graph, RuleGenConfig(num_rules=5, seed=seed))
                 if rule_source == "rulegen" else instance.rules)
        rules = RuleSet([*rules, _open_rule(graph), _failing_rule(graph)])

        # on a triple whose source and target labels agree (social's User
        # follows User) each repair of the open rule adds a node that
        # violates it again, so every drain runs on a budget
        core = FastRepairCore(graph, rules, RepairConfig.fast(max_repairs=20))
        recorder = ChangeRecorder()
        graph.add_listener(recorder)
        rechecked = 0
        mutations = 0
        try:
            assert core.count_remaining() == _rescan_remaining(core)
            while mutations < 25:
                if not _random_mutation(graph, rng):
                    continue
                mutations += 1
                _assert_index_integrity(core.index)
                delta = recorder.drain()
                rechecked += core.maintain(delta, source="commit").rechecked
                for store in core.incremental.stores():
                    rule = core.rules_by_pattern[store.pattern.name]
                    for match in store:
                        if rule.is_violation(core.checker, match):
                            assert not core.push(Violation(rule=rule, match=match)), \
                                f"{rule.name} violation at {match} was not queued"
                assert core.count_remaining() == _rescan_remaining(core)
                if mutations % 3 == 0:
                    core.drain()
                    # the drain already maintained its repairs' changes
                    recorder.drain()
                    _assert_index_integrity(core.index)
                    assert core.count_remaining() == _rescan_remaining(core)
                if mutations % 5 == 0:
                    _assert_stores_equal_recompute(core.incremental, graph, core.index)
        finally:
            core.close()
        assert rechecked > 0
        assert core.report.repairs_applied > 0
        assert core.report.repairs_failed > 0

    @given(seed=st.integers(min_value=0, max_value=10_000),
           mutation_count=st.integers(min_value=5, max_value=30))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_value_buckets_survive_random_mutations(self, seed, mutation_count):
        """The incrementally-maintained value buckets (and the signatures)
        must equal an index rebuilt from scratch after
        every step of any mutation sequence (the value-bucket mirror of the
        MatchStore integrity property above)."""
        rng = random.Random(seed)
        graph = load_dataset("kg", scale=30, seed=seed).clean
        index = CandidateIndex(graph)
        index.attach()
        # register the shapes the pushdown uses: a label-scoped key, the same
        # key label-free, and a key that is often absent
        index.ensure_value_index("Person", "name")
        index.ensure_value_index(None, "name")
        index.ensure_value_index("City", "population")
        mutations = 0
        while mutations < mutation_count:
            if not _random_mutation(graph, rng):
                continue
            mutations += 1
            _assert_index_integrity(index)
        # and the probe surface agrees with a from-scratch index
        fresh = CandidateIndex(graph)
        fresh.ensure_value_index("Person", "name")
        for node in graph.nodes_with_label("Person"):
            name = node.properties.get("name")
            if name is None:
                continue
            assert index.value_bucket("Person", "name", name) == \
                fresh.value_bucket("Person", "name", name)
        index.detach()

    def test_region_query_equals_linear_scan(self, tiny_kg, duplicate_person_pattern):
        graph = tiny_kg.copy()
        incremental = IncrementalMatcher(graph)
        lives = Pattern(nodes=[PatternNode("p", "Person"), PatternNode("c", "City")],
                        edges=[PatternEdge("p", "c", "livesIn", variable="e")],
                        name="lives")
        node_ids = sorted(graph.node_ids())
        for pattern in (duplicate_person_pattern, lives):
            store = incremental.register(pattern)
            assert len(store) > 0
            for node_id in node_ids:
                via_index = store.matches_in(DeltaRegion(nodes={node_id}))
                via_scan = [m for m in store if m.touches(node_ids={node_id})]
                assert [m.key() for m in via_index] == sorted(m.key() for m in via_scan)
                for other in node_ids:
                    via_index = store.matches_in(DeltaRegion(pairs={(node_id, other)}))
                    via_scan = [m for m in store
                                if {node_id, other} <= m.bound_node_ids()]
                    assert [m.key() for m in via_index] == \
                        sorted(m.key() for m in via_scan)
            # a match binding an edge binds both its endpoints, so the pair
            # region of an edge covers every match binding it
            for edge in graph.edges():
                via_index = store.matches_in(
                    DeltaRegion(pairs={(edge.source, edge.target)}))
                binding = {m.key() for m in store if m.touches(edge_ids={edge.id})}
                assert binding <= {m.key() for m in via_index}
            assert store.check_integrity()
        assert any(m.edge_bindings for m in incremental.store("lives"))


def _pair_sharing_a_neighbour(graph: PropertyGraph,
                              rng: random.Random) -> tuple[str, str] | None:
    """Two same-label nodes adjacent to one common node, or None."""
    hubs = sorted(node_id for node_id in graph.node_ids()
                  if graph.degree(node_id) >= 2)
    for hub in rng.sample(hubs, len(hubs)):
        by_label: dict[str, list[str]] = {}
        for node_id in sorted(graph.neighbors(hub) - {hub}):
            by_label.setdefault(graph.node(node_id).label, []).append(node_id)
        pairs = [ids for ids in by_label.values() if len(ids) >= 2]
        if pairs:
            return tuple(rng.sample(rng.choice(pairs), 2))
    return None


class TestMergeDiscovery:
    """A merge creates matches only through its survivor: its replacement
    edges all end there and only its properties change.  Discovery seeds the
    survivor alone, so these tests check that nothing is missed and that the
    merged node's neighbourhood costs nothing."""

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("rule_source", ["rulegen", "library"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_merge_heavy_sequences(self, domain, rule_source, seed):
        rng = random.Random(seed)
        instance = load_dataset(domain, scale=50, seed=seed)
        graph = instance.clean
        rules = (generate_rules(graph, RuleGenConfig(num_rules=5, seed=seed))
                 if rule_source == "rulegen" else instance.rules)
        index = CandidateIndex(graph)
        index.attach()
        incremental = IncrementalMatcher(graph, candidate_index=index)
        for rule in rules:
            incremental.register(rule.pattern)
        recorder = ChangeRecorder()
        graph.add_listener(recorder)

        merges = 0
        while merges < 15:
            pair = _pair_sharing_a_neighbour(graph, rng)
            if pair is None:
                break
            keep, merge = pair
            if rng.random() < 0.4:
                # a self-loop on the merged node becomes one on the survivor;
                # maintained on its own, or in the merge's delta, where the
                # edge it adds is gone again
                graph.add_edge(merge, merge, rng.choice(sorted(graph.edge_labels())))
                if rng.random() < 0.5:
                    incremental.apply_delta(recorder.drain())
            if rng.random() < 0.3:
                # an edge between the two becomes a self-loop too
                graph.add_edge(keep, merge, rng.choice(sorted(graph.edge_labels())))
            graph.merge_nodes(keep, merge,
                              prefer_kept_properties=rng.random() < 0.5,
                              drop_duplicate_edges=rng.random() < 0.5)
            merges += 1
            incremental.apply_delta(recorder.drain())
            _assert_stores_equal_recompute(incremental, graph, index)
        assert merges >= 10

    def _merge_beside_residents(self, residents: int):
        """Merge two same-named persons who live in one city beside
        ``residents`` others; returns the merge's seeded searches, nodes
        tried and discovered matches (pattern and node bindings: the ids of
        the replacement edges depend on the number of residents)."""
        graph = PropertyGraph(name="hub-city")
        country = graph.add_node("Country", {"name": "italy"})
        hub = graph.add_node("City", {"name": "hub"})
        born = [graph.add_node("City", {"name": f"born{i}"}) for i in range(2)]
        for city in (hub, *born):
            graph.add_edge(city.id, country.id, "inCountry")
        ada, ada2 = (graph.add_node("Person", {"name": "ada"}) for _ in range(2))
        for person, city, confidence in ((ada, born[0], 0.9), (ada2, born[1], 0.5)):
            graph.add_edge(person.id, city.id, "bornIn", {"confidence": confidence})
            graph.add_edge(person.id, hub.id, "livesIn")
        for i in range(residents):
            resident = graph.add_node("Person", {"name": f"resident{i}"})
            graph.add_edge(resident.id, hub.id, "livesIn")

        index = CandidateIndex(graph)
        index.attach()
        incremental = IncrementalMatcher(graph, candidate_index=index)
        for rule in knowledge_graph_rules():
            incremental.register(rule.pattern)
        recorder = ChangeRecorder()
        graph.add_listener(recorder)
        graph.merge_nodes(ada.id, ada2.id)
        tried_before = incremental.stats.nodes_tried
        updates = incremental.apply_delta(recorder.drain())
        _assert_stores_equal_recompute(incremental, graph, index)
        return (sum(update.seeded_searches for update in updates.values()),
                incremental.stats.nodes_tried - tried_before,
                sorted(match.key()[:2] for update in updates.values()
                       for match in update.discovered))

    def test_search_work_does_not_grow_with_the_hub(self):
        searches, tried, discovered = self._merge_beside_residents(5)
        assert (searches, tried, discovered) == self._merge_beside_residents(50)
        # the survivor now has two birthplaces: a conflict the merge created
        assert any(key[0].startswith("kg-single-birthplace") for key in discovered)


class TestInvalidationIsDeltaLocal:
    """Invalidation work must be O(matches touching the delta), not O(store)."""

    def _many_independent_matches(self, pairs: int) -> PropertyGraph:
        graph = PropertyGraph(name="stars")
        for i in range(pairs):
            a = graph.add_node("Person", {"name": f"dup{i}"})
            b = graph.add_node("Person", {"name": f"dup{i}"})
            city = graph.add_node("City", {"name": f"city{i}"})
            graph.add_edge(a.id, city.id, "bornIn")
            graph.add_edge(b.id, city.id, "bornIn")
        return graph

    def test_counter_bounds_invalidation_work(self):
        pattern = Pattern(
            nodes=[PatternNode("a", "Person"), PatternNode("b", "Person"),
                   PatternNode("c", "City")],
            edges=[PatternEdge("a", "c", "bornIn"), PatternEdge("b", "c", "bornIn")],
            name="dup-pair")
        graph = self._many_independent_matches(pairs=40)
        index = CandidateIndex(graph)
        index.attach()
        incremental = IncrementalMatcher(graph, candidate_index=index)
        store = incremental.register(pattern)
        assert len(store) == 80  # both orientations per pair

        recorder = ChangeRecorder()
        graph.add_listener(recorder)
        # Delete one pair's witness edge: the delta touches exactly 2 stored
        # matches (the two orientations of that pair).
        victim = next(e for e in graph.edges() if e.source == "n1")
        graph.remove_edge(victim.id)
        updates = incremental.apply_delta(recorder.drain())
        update = updates[pattern.name]

        assert update.invalidation_checked == 2
        assert update.invalidation_checked < len(store) + len(update.invalidated)
        assert len(update.invalidated) == 2
        assert len(store) == 78
        assert store.check_integrity()

    def test_unrelated_region_checks_nothing(self):
        pattern = Pattern(
            nodes=[PatternNode("a", "Person"), PatternNode("b", "Person"),
                   PatternNode("c", "City")],
            edges=[PatternEdge("a", "c", "bornIn"), PatternEdge("b", "c", "bornIn")],
            name="dup-pair")
        graph = self._many_independent_matches(pairs=10)
        outsider = graph.add_node("Organization", {"name": "acme"})
        other = graph.add_node("Organization", {"name": "globex"})
        incremental = IncrementalMatcher(graph)
        incremental.register(pattern)

        recorder = ChangeRecorder()
        graph.add_listener(recorder)
        graph.add_edge(outsider.id, other.id, "partnerOf")
        updates = incremental.apply_delta(recorder.drain())
        update = updates[pattern.name]
        # No stored match binds the two organizations.
        assert update.invalidation_checked == 0
        assert update.invalidated == []

    def test_hub_edge_checks_only_matches_binding_both_endpoints(self):
        pattern = Pattern(
            nodes=[PatternNode("a", "Person"), PatternNode("b", "Person"),
                   PatternNode("c", "City")],
            edges=[PatternEdge("a", "c", "bornIn"), PatternEdge("b", "c", "bornIn")],
            name="dup-pair")
        graph = PropertyGraph(name="hub")
        hub = graph.add_node("City", {"name": "hub"})
        people = [graph.add_node("Person", {"name": f"p{i}"}) for i in range(12)]
        for person in people:
            graph.add_edge(person.id, hub.id, "bornIn")
        index = CandidateIndex(graph)
        index.attach()
        incremental = IncrementalMatcher(graph, candidate_index=index)
        store = incremental.register(pattern)
        assert len(store) == 12 * 11  # every ordered pair binds the hub

        recorder = ChangeRecorder()
        graph.add_listener(recorder)
        graph.add_edge(people[0].id, hub.id, "livesIn")
        update = incremental.apply_delta(recorder.drain())[pattern.name]
        # only the matches binding person 0 (as ``a`` or ``b``) and the hub
        assert update.invalidation_checked == 2 * 11
        assert update.invalidated == []
        assert len(store) == 12 * 11
        assert store.check_integrity()

    def _nationality_graph(self) -> tuple[PropertyGraph, dict[str, str]]:
        graph = PropertyGraph(name="one-person")
        person = graph.add_node("Person", {"name": "ada"})
        city = graph.add_node("City", {"name": "turin"})
        country = graph.add_node("Country", {"name": "italy"})
        graph.add_edge(person.id, city.id, "bornIn")
        graph.add_edge(city.id, country.id, "inCountry")
        nationality = graph.add_edge(person.id, country.id, "nationality")
        lives = graph.add_edge(person.id, city.id, "livesIn")
        return graph, {"nationality": nationality.id, "livesIn": lives.id}

    def test_removed_edge_no_missing_pattern_reads_rechecks_nothing(self):
        graph, edges = self._nationality_graph()
        with RepairSession(graph, knowledge_graph_rules()) as session:
            assert session.repair().remaining_violations == 0
            result = session.apply(lambda g: g.remove_edge(edges["livesIn"]))
        assert result.maintenance.rechecked == 0
        assert result.discovered == 0

    def test_removed_edge_the_missing_pattern_reads_is_rechecked(self):
        graph, edges = self._nationality_graph()
        with RepairSession(graph, knowledge_graph_rules()) as session:
            assert session.repair().remaining_violations == 0
            result = session.apply(lambda g: g.remove_edge(edges["nationality"]))
            assert result.maintenance.rechecked == 1
            assert result.discovered == 1
            assert session.repair().remaining_violations == 0


class TestRecheckThroughMissingOnlyVariables:
    """A missing pattern with variables of its own reaches nodes the evidence
    match does not bind; a subtractive edit there must still queue the
    violation, so fast repairs exactly what naive repairs."""

    @staticmethod
    def _repair_after(rule, build, edit):
        outcomes = []
        for config in (RepairConfig.fast(), RepairConfig.naive()):
            graph, ids = build()
            with RepairSession(graph, RuleSet([rule]), config=config) as session:
                assert session.repair().remaining_violations == 0
                session.apply(lambda g: edit(g, ids))
                report = session.repair()
            outcomes.append((graph, report))
        (fast_graph, fast), (naive_graph, naive) = outcomes
        assert naive.reached_fixpoint and naive.repairs_applied == 1
        assert fast.remaining_violations == 0 and fast.reached_fixpoint
        assert fast.repairs_applied == naive.repairs_applied
        assert fast_graph.structurally_equal(naive_graph)

    def test_property_removed_from_the_witness_node(self):
        rule = (incompleteness_rule("works-for-active")
                .node("p", "Person")
                .missing_node("o", "Org", [exists("active")])
                .missing_edge("p", "o", "worksFor")
                .add_node("n", "Org", {"active": True})
                .add_edge("p", "n", "worksFor")
                .build())

        def build():
            graph = PropertyGraph()
            person = graph.add_node("Person", {"name": "ada"})
            org = graph.add_node("Org", {"active": True})
            graph.add_edge(person.id, org.id, "worksFor")
            return graph, {"org": org.id}

        self._repair_after(
            rule, build,
            lambda graph, ids: graph.update_node(ids["org"], remove_keys=["active"]))

    def test_second_edge_of_a_two_edge_missing_pattern_removed(self):
        rule = (incompleteness_rule("works-for-based")
                .node("p", "Person")
                .missing_node("o", "Org").missing_node("k", "Country")
                .missing_edge("p", "o", "worksFor")
                .missing_edge("o", "k", "basedIn")
                .add_node("n", "Org").add_node("m", "Country")
                .add_edge("p", "n", "worksFor").add_edge("n", "m", "basedIn")
                .build())

        def build():
            graph = PropertyGraph()
            person = graph.add_node("Person", {"name": "ada"})
            org = graph.add_node("Org")
            country = graph.add_node("Country")
            graph.add_edge(person.id, org.id, "worksFor")
            based = graph.add_edge(org.id, country.id, "basedIn")
            return graph, {"basedIn": based.id}

        self._repair_after(
            rule, build, lambda graph, ids: graph.remove_edge(ids["basedIn"]))


class TestViolationLedger:
    """The fixpoint check counts the violation ledger, not a rescan of the
    stores; it must still equal the rescan where a region-local check would
    not, and keep counting what a repair could not fix."""

    def test_violation_satisfied_outside_its_delta_region(self):
        graph = PropertyGraph()
        ada = graph.add_node("Person", {"name": "ada"})
        oslo = graph.add_node("City", {"name": "Oslo"})
        graph.add_edge(ada.id, oslo.id, "livesIn")
        bob = graph.add_node("Person", {"name": "bob"})
        rule = _open_rule(graph)
        core = FastRepairCore(graph, RuleSet([rule]))
        recorder = ChangeRecorder()
        graph.add_listener(recorder)
        try:
            assert core.count_remaining() == _rescan_remaining(core) == 1
            # the missing pattern's own City variable is satisfied by an
            # edge whose region is the pair (bob, Oslo): the match binding
            # only bob lies outside it
            graph.add_edge(bob.id, oslo.id, "livesIn")
            delta = recorder.drain()
            store = core.incremental.store(rule.pattern.name)
            assert store.matches_in(DeltaRegion.of(delta.changes)) == []
            core.maintain(delta, source="commit")
            assert core.count_remaining() == _rescan_remaining(core) == 0
        finally:
            core.close()

    def test_failed_repair_stays_counted_across_repairs(self):
        graph = PropertyGraph()
        ann = graph.add_node("Person", {"name": "Ann"})
        bob = graph.add_node("Person", {"name": "Bob"})
        graph.add_edge(ann.id, bob.id, "knows")
        with RepairSession(graph, RuleSet([_failing_rule(graph)]),
                           config=RepairConfig.fast()) as session:
            core = session.backend.core
            for _ in range(3):
                report = session.repair()
                assert report.repairs_failed == 1
                assert report.remaining_violations == _rescan_remaining(core) == 1
                assert not report.reached_fixpoint
            # an edit that satisfies the failed violation retires its entry
            session.apply(lambda g: g.add_edge(bob.id, ann.id, "knows"))
            report = session.repair()
            assert report.remaining_violations == _rescan_remaining(core) == 0
            assert report.reached_fixpoint

    def test_failed_repair_partial_changes_reach_the_stores(self):
        """A repair that fails mid-way leaves its earlier operations' changes
        in the graph; the drain must fold them into the stores.  Here the
        merge succeeds and the update of the merged node fails, and the
        survivor ends up holding both ``keep=True`` and the ``R`` edge — a
        conflict only maintenance of the failed repair's delta finds (fast
        had reported no remaining violation and a fixpoint)."""

        def build() -> PropertyGraph:
            graph = PropertyGraph()
            graph.add_node("A", {"name": "dup", "keep": True}, node_id="a")
            graph.add_node("A", {"name": "dup"}, node_id="b")
            graph.add_node("C", node_id="c")
            graph.add_node("D", node_id="d")
            graph.add_edge("a", "c", "S")
            graph.add_edge("b", "c", "S")
            graph.add_edge("b", "d", "R")
            return graph

        dedup = (redundancy_rule("dedup-then-touch")
                 .node("a", "A").node("b", "A").node("c", "C")
                 .edge("a", "c", "S").edge("b", "c", "S")
                 .compare(same_value("a", "name", "b"))
                 .merge(keep="a", merge="b").update_node("b", {"touched": True})
                 .build())
        no_kept_r = (conflict_rule("kept-has-no-r")
                     .node("x", "A", [eq("keep", True)]).node("y", "D")
                     .edge("x", "y", "R", variable="f").delete_edge("f")
                     .build())
        rules = RuleSet([dedup, no_kept_r])

        graph = build()
        with RepairSession(graph, rules, config=RepairConfig.fast()) as session:
            core = session.backend.core
            report = session.repair()
            _assert_stores_equal_recompute(core.incremental, graph, core.index)
            assert core.count_remaining() == _rescan_remaining(core) == 0
        # fast: the failed merge leaves one A node holding keep=True, and the
        # conflict repair then deletes its R edge
        assert (report.repairs_failed, report.repairs_applied) == (1, 1)
        assert report.reached_fixpoint
        assert sorted((e.source, e.label, e.target) for e in graph.edges()) == \
            [("b", "S", "c")]

        # naive stops after the round in which nothing applied: it keeps the
        # R edge and counts that round's two dedup violations as remaining
        naive_graph = build()
        with RepairSession(naive_graph, rules, config=RepairConfig.naive()) as session:
            naive = session.repair()
        assert (naive.repairs_failed, naive.repairs_applied) == (1, 0)
        assert (naive.remaining_violations, naive.reached_fixpoint) == (2, False)
        assert sorted((e.source, e.label, e.target) for e in naive_graph.edges()) == \
            [("b", "R", "d"), ("b", "S", "c")]
        assert naive_graph.node("b").properties == graph.node("b").properties == \
            {"name": "dup", "keep": True}


class TestPatternRequirementsRegression:
    """Parallel variable-less pattern edges may share one witnessing data edge
    (hypothesis-found over-pruning bug in the seed implementation)."""

    def _pattern(self) -> Pattern:
        return Pattern(
            nodes=[PatternNode("v0", None), PatternNode("v1", "A")],
            edges=[PatternEdge("v0", "v1", "r"), PatternEdge("v0", "v1", "r")],
            name="parallel")

    def test_shared_witness_requires_single_edge(self):
        pattern = self._pattern()
        out_required, _ = pattern_requirements(pattern, "v0")
        assert out_required["r"] == 1  # both constraints can share one witness
        _, in_required = pattern_requirements(pattern, "v1")
        assert in_required["r"] == 1

    def test_edge_variables_still_require_distinct_witnesses(self):
        pattern = Pattern(
            nodes=[PatternNode("v0", None), PatternNode("v1", "A")],
            edges=[PatternEdge("v0", "v1", "r", variable="e1"),
                   PatternEdge("v0", "v1", "r", variable="e2")],
            name="parallel-vars")
        out_required, _ = pattern_requirements(pattern, "v0")
        assert out_required["r"] == 2

    def test_optimized_matcher_agrees_with_naive_on_shared_witness(self):
        graph = PropertyGraph()
        a0 = graph.add_node("A")
        a1 = graph.add_node("A")
        graph.add_node("A")
        graph.add_node("B")
        graph.add_edge(a0.id, a0.id, "r")
        graph.add_edge(a0.id, a1.id, "r")
        pattern = self._pattern()

        naive = VF2Matcher(graph=graph, candidate_index=None, use_decomposition=False)
        expected = {m.key() for m in naive.find_matches(pattern)}
        assert expected  # the bug made this match disappear under the index

        index = CandidateIndex(graph)
        index.attach()
        optimized = VF2Matcher(graph=graph, candidate_index=index, use_decomposition=True)
        assert {m.key() for m in optimized.find_matches(pattern)} == expected
        for variable in ("v0", "v1"):
            assert sorted(index.candidates(pattern, variable)) == \
                sorted(naive_candidates(graph, pattern, variable))


class TestMatcherStatsSurfaced:
    """Seeded incremental searches and extension probes must contribute their
    MatchingStats to the repair report (they were lost in the seed)."""

    def test_fast_report_carries_matching_stats(self):
        workload = build_workload("kg", scale=60, error_rate=0.1, seed=3)
        _, report = repair_copy(workload.dirty, workload.rules,
                                RepairConfig.fast())
        assert report.repairs_applied > 0
        assert report.matching_stats.nodes_tried > 0
        assert report.matching_stats.matches_found > 0
        flat = report.as_dict()
        assert flat["nodes_tried"] == report.matching_stats.nodes_tried
        assert flat["backtracks"] == report.matching_stats.backtracks

    def test_naive_report_carries_matching_stats(self):
        workload = build_workload("kg", scale=60, error_rate=0.1, seed=3)
        _, report = repair_copy(workload.dirty, workload.rules,
                                RepairConfig.naive())
        assert report.matching_stats.nodes_tried > 0

    def test_incremental_matcher_accumulates_stats(self, tiny_kg, duplicate_person_pattern):
        graph = tiny_kg.copy()
        incremental = IncrementalMatcher(graph)
        incremental.register(duplicate_person_pattern)
        baseline = incremental.stats.nodes_tried
        assert baseline > 0

        recorder = ChangeRecorder()
        graph.add_listener(recorder)
        people = [n for n in graph.nodes_with_label("Person")]
        city = graph.nodes_with_label("City")[0]
        graph.add_edge(people[0].id, city.id, "bornIn")
        incremental.apply_delta(recorder.drain())
        assert incremental.stats.nodes_tried >= baseline
