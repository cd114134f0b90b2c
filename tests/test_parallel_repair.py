"""Unit tests of the ``repro.parallel`` subsystem.

Partitioning invariants, the spawn-safe pool protocol, delta merging with
conflict detection, graceful single-worker degradation, and the fast
core's queue identities (the coordinator retires merged worker repairs
through ``mark_handled``).
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RepairConfig, RepairSession, available_backends, build_backend
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.property_graph import PropertyGraph
from repro.matching.pattern import Match, Pattern, PatternEdge, PatternNode
from repro.parallel import (
    DeltaMerger,
    ShardedRepairer,
    Shard,
    ShardWorkerState,
    WorkerPool,
    partition_graph,
    rule_radius,
)
from repro.parallel.worker import ShardResult
from repro.repair.fast import AppliedRepair, FastRepairCore
from repro.repair.violation import Violation
from repro.graph.delta import recording
from repro.rules.builder import conflict_rule
from repro.rules.grr import RuleSet
from repro.rules.library import knowledge_graph_rules, movie_rules, social_rules


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------


class TestRuleRadius:
    def test_kg_rules_radius_covers_three_hop_patterns(self):
        # kg-nationality-matches-birthplace spans p-c-k1 plus p-k2: the
        # farthest pair (k1, k2) is 3 variable hops apart
        assert rule_radius(knowledge_graph_rules()) == 3

    def test_radius_is_at_least_one(self):
        rules = RuleSet([
            (conflict_rule("self-loop")
             .node("u", "User")
             .edge("u", "u", "follows", variable="e")
             .delete_edge(edge_variable="e")
             .build())
        ])
        assert rule_radius(rules) >= 1


class TestPartitionGraph:
    def _plan(self, workload, shards=3, radius=2):
        return partition_graph(workload.dirty, shards, radius)

    def test_cores_partition_the_node_set(self, small_kg_workload):
        plan = self._plan(small_kg_workload)
        all_nodes = set(small_kg_workload.dirty.node_ids())
        covered: set[str] = set()
        for shard in plan.shards:
            assert not (shard.core & covered), "cores must be disjoint"
            covered |= shard.core
        assert covered == all_nodes

    def test_halo_is_radius_neighborhood_outside_core(self, small_kg_workload):
        graph = small_kg_workload.dirty
        plan = self._plan(small_kg_workload, radius=2)
        for shard in plan.shards:
            expected = graph.neighborhood(shard.core, hops=2) - shard.core
            assert shard.halo == expected
            assert not (shard.halo & shard.core)

    def test_frontier_nodes_have_an_external_neighbour(self, small_kg_workload):
        graph = small_kg_workload.dirty
        plan = self._plan(small_kg_workload)
        for shard in plan.shards:
            for node_id in shard.frontier:
                assert node_id in shard.core
                assert any(neighbour not in shard.core
                           for neighbour in graph.neighbors(node_id))

    def test_partition_is_deterministic(self, small_kg_workload):
        first = self._plan(small_kg_workload)
        second = self._plan(small_kg_workload)
        for a, b in zip(first.shards, second.shards):
            assert a.core == b.core and a.halo == b.halo

    def test_extract_namespaces_new_ids(self, small_kg_workload):
        plan = self._plan(small_kg_workload)
        shard = plan.shards[0]
        payload = shard.extract(small_kg_workload.dirty)
        working = graph_from_dict(payload, id_namespace=shard.namespace)
        created = working.add_node("Person", {"name": "new"})
        assert created.id.startswith("s0:")

    def test_single_shard_request(self, small_kg_workload):
        plan = self._plan(small_kg_workload, shards=1)
        assert len(plan) == 1
        assert plan.shards[0].core == set(small_kg_workload.dirty.node_ids())
        assert not plan.shards[0].halo

    def test_invalid_shard_count(self, small_kg_workload):
        with pytest.raises(ValueError):
            partition_graph(small_kg_workload.dirty, 0, 1)


_PROPERTIES = st.dictionaries(st.sampled_from(("name", "since")),
                              st.one_of(st.integers(0, 3), st.text(max_size=2)),
                              max_size=2)


@st.composite
def _multigraphs(draw):
    """Small multigraphs with self-loops, parallel same-label edges,
    isolated nodes and properties.  Node and edge ids are drawn as
    permutations, so insertion order, adjacency order and id order differ."""
    count = draw(st.integers(min_value=0, max_value=8))
    graph = PropertyGraph(name="g")
    node_ids = draw(st.permutations([f"n{i}" for i in range(count)]))
    for node_id in node_ids:
        graph.add_node(draw(st.sampled_from(("A", "B"))), draw(_PROPERTIES),
                       node_id=node_id)
    if node_ids:
        specs = draw(st.lists(
            st.tuples(st.sampled_from(node_ids), st.sampled_from(node_ids),
                      st.sampled_from(("r", "r", "s")), _PROPERTIES),
            max_size=20))
        edge_ids = draw(st.permutations([f"e{i}" for i in range(len(specs))]))
        for edge_id, (source, target, label, properties) in zip(edge_ids, specs):
            graph.add_edge(source, target, label, properties, edge_id=edge_id)
    return graph


def _reference_neighborhood(graph, seeds, hops):
    """Breadth-first search over :meth:`PropertyGraph.neighbors`."""
    visited = {seed for seed in seeds if graph.has_node(seed)}
    frontier = set(visited)
    for _ in range(hops):
        frontier = {neighbour for node_id in frontier
                    for neighbour in graph.neighbors(node_id)} - visited
        visited |= frontier
    return visited


class TestExtractionEquivalence:
    """The fan-out's adjacency walks against the graph-level references
    they replaced: shard documents against ``graph_to_dict(subgraph)``,
    halos against a breadth-first search over ``neighbors()``."""

    @settings(max_examples=200, deadline=None)
    @given(graph=_multigraphs(), data=st.data())
    def test_extract_equals_subgraph_document(self, graph, data):
        node_ids = graph.node_ids()
        kept = data.draw(st.lists(st.sampled_from(node_ids), unique=True)
                         if node_ids else st.just([]))
        split = data.draw(st.integers(min_value=0, max_value=len(kept)))
        shard = Shard(index=data.draw(st.integers(0, 3)),
                      core=set(kept[:split]), halo=set(kept[split:]),
                      frontier=set())
        expected = graph_to_dict(graph.subgraph(
            shard.node_ids(), name=f"{graph.name}-{shard.namespace}",
            id_namespace=shard.namespace))
        assert json.dumps(shard.extract(graph)) == json.dumps(expected)

    @settings(max_examples=200, deadline=None)
    @given(graph=_multigraphs(), data=st.data())
    def test_neighborhood_equals_reference_bfs(self, graph, data):
        seeds = data.draw(st.lists(
            st.sampled_from(graph.node_ids() + ["ghost"]), max_size=3))
        for hops in range(4):
            assert graph.neighborhood(seeds, hops=hops) \
                == _reference_neighborhood(graph, seeds, hops)


# ---------------------------------------------------------------------------
# worker protocol
# ---------------------------------------------------------------------------


class TestWorkerProtocol:
    def test_payload_round_trip_preserves_graph(self, small_kg_workload):
        graph = small_kg_workload.dirty
        rebuilt = graph_from_dict(graph_to_dict(graph), id_namespace="s7")
        assert rebuilt.structurally_equal(graph)
        assert rebuilt.add_node("Person").id.startswith("s7:")

    @pytest.mark.parametrize("rules_factory", [knowledge_graph_rules,
                                               movie_rules, social_rules])
    def test_bind_message_is_picklable(self, rules_factory, small_kg_workload):
        """Spawn-safety: every component of a bind command must survive the
        pickling that carries it to a spawned pool worker."""
        graph = small_kg_workload.dirty
        message = ("bind", "b0:0", graph_to_dict(graph), "s0",
                   frozenset(graph.node_ids()), rules_factory(),
                   RepairConfig())
        clone = pickle.loads(pickle.dumps(message))
        assert clone[:2] == ("bind", "b0:0") and clone[3] == "s0"
        assert clone[5].names() == rules_factory().names()
        assert graph_from_dict(clone[2], id_namespace="s0") \
            .structurally_equal(graph)

    def test_worker_state_proposes_owned_repairs_then_reverts(
            self, small_kg_workload):
        workload = small_kg_workload
        plan = partition_graph(workload.dirty, 2, rule_radius(workload.rules))
        shard = plan.shards[0]
        payload = shard.extract(workload.dirty)
        working = graph_from_dict(payload)
        state = ShardWorkerState(payload, shard.namespace,
                                 frozenset(shard.core), workload.rules,
                                 RepairConfig())
        try:
            result = state.repair()
            assert result.repairs_applied == len(result.repairs) > 0
            assert all(repair.region <= shard.core
                       for repair in result.repairs)
            # propose-then-revert: the replica is the extracted working copy
            assert state.graph.structurally_equal(working)
            assert len(pickle.loads(pickle.dumps(result)).repairs) \
                == len(result.repairs)
        finally:
            state.close()

    def test_inline_pool_repair_returns_results_in_key_order(
            self, small_kg_workload):
        workload = small_kg_workload
        plan = partition_graph(workload.dirty, 3, rule_radius(workload.rules))
        binds = [(f"k{shard.index}",
                  shard.extract(workload.dirty),
                  shard.namespace, frozenset(shard.core), workload.rules,
                  RepairConfig())
                 for shard in plan.shards]
        keys = ["k2", "k0", "k1"]
        with WorkerPool(workers=3, inline=True) as pool:
            pool.bind_all(binds)
            results = pool.repair(keys)
        for key, result in zip(keys, results):
            core = plan.shards[int(key[1:])].core
            assert all(repair.region <= core for repair in result.repairs)
            with WorkerPool(workers=1, inline=True) as alone:
                alone.bind_all([bind for bind in binds if bind[0] == key])
                (expected,) = alone.repair([key])
            assert [(repair.rule_name, repair.region)
                    for repair in result.repairs] \
                == [(repair.rule_name, repair.region)
                    for repair in expected.repairs]


# ---------------------------------------------------------------------------
# merging and conflicts
# ---------------------------------------------------------------------------


def _recorded_repair(graph: PropertyGraph, mutate, rule_name="r") -> AppliedRepair:
    with recording(graph) as recorder:
        region = mutate(graph)
    return AppliedRepair(rule_name=rule_name, region=frozenset(region),
                         delta=recorder.drain())


class TestDeltaMerger:
    def _two_edge_graph(self):
        graph = PropertyGraph(name="primary")
        a = graph.add_node("X", node_id="a")
        b = graph.add_node("X", node_id="b")
        c = graph.add_node("X", node_id="c")
        graph.add_edge(a.id, b.id, "r", edge_id="ab")
        graph.add_edge(b.id, c.id, "r", edge_id="bc")
        return graph

    def test_disjoint_shard_deltas_all_apply(self):
        primary = self._two_edge_graph()
        copy0 = primary.copy()
        copy1 = primary.copy()
        repair0 = _recorded_repair(copy0, lambda g: (g.remove_edge("ab"),
                                                     ("a", "b"))[1])
        repair1 = _recorded_repair(copy1, lambda g: (g.update_node("c", {"x": 1}),
                                                     ("c",))[1])
        outcome = DeltaMerger(primary).merge([
            ShardResult(shard_index=0, repairs=[repair0]),
            ShardResult(shard_index=1, repairs=[repair1]),
        ])
        assert outcome.accepted == 2 and outcome.rejected == 0
        assert not primary.has_edge("ab")
        assert primary.node("c").properties == {"x": 1}

    def test_cross_shard_conflict_is_rejected_with_shard_suffix(self):
        primary = self._two_edge_graph()
        copy0 = primary.copy()
        copy1 = primary.copy()
        # both shards touch node b: shard 0 wins, shard 1's repair (and its
        # whole remaining list) defers to the coordinator
        repair0 = _recorded_repair(copy0, lambda g: (g.remove_edge("ab"),
                                                     ("a", "b"))[1])
        repair1 = _recorded_repair(copy1, lambda g: (g.remove_edge("bc"),
                                                     ("b", "c"))[1])
        follow1 = _recorded_repair(copy1, lambda g: (g.update_node("c", {"x": 1}),
                                                     ("c",))[1])
        outcome = DeltaMerger(primary).merge([
            ShardResult(shard_index=0, repairs=[repair0]),
            ShardResult(shard_index=1, repairs=[repair1, follow1]),
        ])
        assert outcome.accepted == 1
        assert outcome.rejected == 2
        assert len(outcome.conflicts) == 1
        assert primary.has_edge("bc"), "conflicting repair must not land"

    def test_created_ids_are_rebased_onto_primary_reservations(self):
        primary = self._two_edge_graph()
        shard_copy = primary.subgraph(["a", "b"], id_namespace="s0")

        def mutate(graph):
            graph.add_edge("a", "b", "extra")
            return ("a", "b")

        repair = _recorded_repair(shard_copy, mutate)
        created = repair.delta.created_edge_ids
        assert all(edge_id.startswith("s0:") for edge_id in created)
        outcome = DeltaMerger(primary).merge(
            [ShardResult(shard_index=0, repairs=[repair])])
        assert outcome.accepted == 1
        landed = primary.edges_between("a", "b", "extra")
        assert len(landed) == 1
        assert not landed[0].id.startswith("s0:"), \
            "merged edge must carry a primary-reserved id"

    def test_failed_replay_rolls_back_partial_changes(self):
        """A repair whose delta fails mid-replay must leave no trace: the
        already-applied prefix is inverse-applied, so the graph never holds
        changes the maintenance pass will not cover."""
        primary = self._two_edge_graph()
        shard_copy = primary.subgraph(["a", "b"], id_namespace="s0")

        def mutate(graph):
            graph.add_edge("a", "b", "extra")
            graph.remove_edge("ab")
            return ("a", "b")

        repair = _recorded_repair(shard_copy, mutate)
        # sabotage the second change: make it remove an edge the primary
        # does not have (simulates preconditions consumed elsewhere)
        primary.remove_edge("ab")
        before_edges = set(primary.edge_ids())
        outcome = DeltaMerger(primary).merge(
            [ShardResult(shard_index=0, repairs=[repair])])
        assert outcome.accepted == 0 and outcome.rejected == 1
        assert "replay failed" in outcome.conflicts[0]
        assert set(primary.edge_ids()) == before_edges, \
            "the partially replayed ADD_EDGE must have been rolled back"
        assert not outcome.applied_delta

    def test_chained_reference_to_earlier_repair_creation(self):
        """A later repair of the same shard may delete an element an earlier
        repair created; the merger must chain the id across the rebase."""
        primary = self._two_edge_graph()
        shard_copy = primary.subgraph(["a", "b", "c"], id_namespace="s0")
        first = _recorded_repair(
            shard_copy, lambda g: (g.add_edge("a", "b", "extra"), ("a", "b"))[1])
        created_id = first.delta.created_edge_ids[0]
        second = _recorded_repair(
            shard_copy, lambda g: (g.remove_edge(created_id), ("a", "b"))[1])
        outcome = DeltaMerger(primary).merge(
            [ShardResult(shard_index=0, repairs=[first, second])])
        assert outcome.accepted == 2
        assert not primary.edges_between("a", "b", "extra")


# ---------------------------------------------------------------------------
# the sharded backend: registry, degradation, fan-out accounting
# ---------------------------------------------------------------------------


class TestShardedBackend:
    def test_registered_and_buildable(self):
        assert "sharded" in available_backends()
        backend = build_backend(RepairConfig.sharded(workers=2))
        assert isinstance(backend, ShardedRepairer)
        assert backend.name == "sharded"

    def test_sharded_preset(self):
        config = RepairConfig.sharded(workers=6)
        assert config.backend == "sharded" and config.workers == 6

    def test_degrades_to_plain_fast_drain_with_one_worker(self, small_kg_workload):
        """workers=1 must skip the fan-out entirely and match the fast
        backend exactly — the graceful-degradation contract."""
        workload = small_kg_workload
        reference = workload.dirty.copy()
        with RepairSession(reference, workload.rules,
                           config=RepairConfig.fast()) as session:
            ref_report = session.repair()

        repaired = workload.dirty.copy()
        with RepairSession(repaired, workload.rules,
                           config=RepairConfig.sharded(workers=1)) as session:
            report = session.repair()
            assert not session.backend.last_fanout.ran
        assert repaired.structurally_equal(reference)
        assert report.repairs_applied == ref_report.repairs_applied
        assert report.remaining_violations == ref_report.remaining_violations

    def test_small_graphs_skip_the_fanout(self, small_kg_workload):
        workload = small_kg_workload
        repaired = workload.dirty.copy()
        config = RepairConfig.sharded(workers=4, parallel_inline=True,
                                      min_partition_nodes=10_000)
        with RepairSession(repaired, workload.rules, config=config) as session:
            report = session.repair()
            assert not session.backend.last_fanout.ran
        assert report.reached_fixpoint

    def test_fanout_accounting(self, small_kg_workload):
        workload = small_kg_workload
        repaired = workload.dirty.copy()
        config = RepairConfig.sharded(workers=2, parallel_inline=True,
                                      min_partition_nodes=1)
        with RepairSession(repaired, workload.rules, config=config) as session:
            report = session.repair()
            fanout = session.backend.last_fanout
        assert fanout.ran and fanout.shards == 2
        assert fanout.accepted + fanout.rejected == fanout.shard_repairs
        assert len(fanout.conflicts) <= fanout.rejected
        assert report.reached_fixpoint
        assert {"shard-extraction", "shard-ship", "shard-bind",
                "shard-fanout", "shard-merge"} <= set(report.timings.as_dict())

    def test_max_repairs_budget_disables_fanout_and_stays_exact(self, small_kg_workload):
        """A shared cap must not be multiplied across worker drains: with
        max_repairs set the backend degrades to the sequential drain and the
        cap binds exactly."""
        workload = small_kg_workload
        repaired = workload.dirty.copy()
        config = RepairConfig.sharded(workers=4, parallel_inline=True,
                                      min_partition_nodes=1, max_repairs=3)
        with RepairSession(repaired, workload.rules, config=config) as session:
            report = session.repair()
            assert not session.backend.last_fanout.ran
        assert report.repairs_applied == 3

    def test_events_fire_once_per_counted_repair(self, small_kg_workload):
        """Merged worker repairs must stream through on_repair_applied like
        coordinator repairs do — one event per counted repair — and must not
        inflate repairs_obsolete (their identities are retired, not popped)."""
        from repro.api import SessionEvents

        workload = small_kg_workload
        reference = workload.dirty.copy()
        with RepairSession(reference, workload.rules,
                           config=RepairConfig.fast()) as session:
            ref_obsolete = session.repair().repairs_obsolete

        seen = []
        events = SessionEvents(
            on_repair_applied=lambda violation, outcome: seen.append(
                (violation.rule.name, outcome.applied)))
        repaired = workload.dirty.copy()
        config = RepairConfig.sharded(workers=2, parallel_inline=True,
                                      min_partition_nodes=1)
        with RepairSession(repaired, workload.rules, config=config,
                           events=events) as session:
            report = session.repair()
            fanout = session.backend.last_fanout
        assert fanout.ran and fanout.accepted > 0
        assert len(seen) == report.repairs_applied
        assert all(applied for _, applied in seen)
        assert report.repairs_obsolete == ref_obsolete

    def test_session_reuse_after_fanout(self, small_kg_workload):
        """A second repair() on a settled sharded session is a no-op, and a
        committed edit that re-creates work is repaired incrementally."""
        workload = small_kg_workload
        repaired = workload.dirty.copy()
        config = RepairConfig.sharded(workers=2, parallel_inline=True,
                                      min_partition_nodes=1)
        with RepairSession(repaired, workload.rules, config=config) as session:
            first = session.repair()
            assert first.reached_fixpoint
            again = session.repair()
            assert again.reached_fixpoint
            assert again.repairs_applied == first.repairs_applied


# ---------------------------------------------------------------------------
# queue identities of the fast core (property-based coverage)
# ---------------------------------------------------------------------------


_DUMMY_RULE = (conflict_rule("probe-rule")
               .node("u", "User")
               .edge("u", "u", "follows", variable="e")
               .delete_edge(edge_variable="e")
               .build())


def _violation(node_ids: tuple[str, ...], index: int) -> Violation:
    bindings = {f"v{i}": node_id for i, node_id in enumerate(node_ids)}
    pattern = Pattern(
        nodes=[PatternNode(f"v{i}") for i in range(len(node_ids))],
        edges=[PatternEdge(f"v{i}", f"v{i + 1}")
               for i in range(len(node_ids) - 1)],  # path: keeps it connected
        name=f"probe{index}")
    return Violation(rule=_DUMMY_RULE,
                     match=Match(pattern=pattern, node_bindings=bindings))


@st.composite
def _regions(draw):
    universe = [f"n{i}" for i in range(12)]
    count = draw(st.integers(min_value=1, max_value=14))
    regions = []
    for _ in range(count):
        size = draw(st.integers(min_value=1, max_value=3))
        indexes = draw(st.lists(st.integers(min_value=0, max_value=11),
                                min_size=size, max_size=size, unique=True))
        regions.append(tuple(universe[i] for i in indexes))
    return regions


def _empty_core() -> FastRepairCore:
    return FastRepairCore(PropertyGraph(name="probe"),
                          RuleSet([], name="empty"))


def _drain_queue(core: FastRepairCore) -> list[tuple]:
    popped = []
    while (violation := core._pop()) is not None:
        popped.append(violation.key())
    return popped


class TestFastCoreQueue:
    @settings(max_examples=60, deadline=None)
    @given(regions=_regions())
    def test_each_identity_pops_once(self, regions):
        core = _empty_core()
        violations = [_violation(region, index)
                      for index, region in enumerate(regions)]
        assert all(core.push(violation) for violation in violations)
        # a second push of a queued identity is refused, not double-queued
        assert not any(core.push(violation) for violation in violations)
        assert core.report.violations_detected == len(violations)
        popped = _drain_queue(core)
        assert sorted(popped) == sorted(v.key() for v in violations)
        assert not core.has_pending()

    @settings(max_examples=40, deadline=None)
    @given(regions=_regions(), data=st.data())
    def test_handled_identities_are_never_popped(self, regions, data):
        core = _empty_core()
        violations = [_violation(region, index)
                      for index, region in enumerate(regions)]
        for violation in violations:
            core.push(violation)
        handled = {violations[i].key() for i in data.draw(st.sets(
            st.integers(min_value=0, max_value=len(violations) - 1)))}
        for key in handled:
            core.mark_handled(key)
        expected = [v.key() for v in core.pending()]
        assert not set(expected) & handled
        assert _drain_queue(core) == expected

    def test_requeue_forgets_a_handled_identity(self):
        core = _empty_core()
        violation = _violation(("n0", "n1"), 0)
        core.mark_handled(violation.key())
        assert not core.push(violation)
        assert core.pending() == []
        assert core.push(violation, requeue=True)
        assert _drain_queue(core) == [violation.key()]
