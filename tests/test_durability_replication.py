"""Cross-process read replicas over the socket changefeed.

The acceptance bar: a replica in a *separate process* that connects to the
primary's :class:`~repro.durability.replication.ChangefeedServer`, catches
up, and serves match traffic returns **identical match results** to a
matcher over the primary graph — and keeps doing so as commits stream.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.api import RepairSession
from repro.exceptions import ReplicationError
from repro.graph.property_graph import PropertyGraph
from repro.matching.matcher import Matcher, MatcherConfig
from repro.rules.grr import RuleSet
from repro.durability import ChangefeedServer, ReadReplica, replica_match_probe
from repro.service import GraphRepairService

from graph_oracle import exactly_equal


def _match_keys(graph: PropertyGraph, patterns) -> dict[str, list]:
    with Matcher(graph, MatcherConfig.optimized(),
                 maintain_index=False) as matcher:
        return {pattern.name: sorted(repr(match.key()) for match in
                                     matcher.find_matches(pattern))
                for pattern in patterns}


class TestInProcessReplica:
    def test_replica_tracks_the_primary_exactly(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="kg")
        with RepairSession(graph, small_kg_workload.rules) as session, \
                ChangefeedServer() as server:
            server.publish("kg", session)
            with ReadReplica(server.address, "kg") as replica:
                assert exactly_equal(replica.graph, graph)
                session.repair()
                session.apply(lambda g: g.add_node("City", {"name": "Kyiv"}))
                replica.catch_up(until_sequence=session.last_sequence,
                                 timeout=20)
                assert exactly_equal(replica.graph, graph)
                assert replica.records_applied == session.last_sequence

    def test_snapshot_cut_is_race_free(self, small_kg_workload):
        """Commits racing the replica's subscription are neither lost nor
        double-applied: the snapshot cut dedupes by sequence."""
        graph = small_kg_workload.dirty.copy(name="kg")
        with RepairSession(graph, small_kg_workload.rules) as session, \
                ChangefeedServer() as server:
            server.publish("kg", session)
            stop = threading.Event()

            def traffic():
                index = 0
                while not stop.is_set():
                    session.apply(lambda g, i=index: g.add_node("P", {"i": i}))
                    index += 1

            writer = threading.Thread(target=traffic, daemon=True)
            writer.start()
            try:
                replicas = [ReadReplica(server.address, "kg")
                            for _ in range(3)]
            finally:
                stop.set()
                writer.join(timeout=20)
            target = session.last_sequence
            for replica in replicas:
                replica.catch_up(until_sequence=target, timeout=20)
                # replay past the cut must agree element-for-element
                frozen = graph.copy(name="frozen")
                replica.catch_up(timeout=5)  # drain any idle tail
                assert exactly_equal(replica.graph, frozen)
                replica.close()

    def test_unknown_tenant_refused(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="kg")
        with RepairSession(graph, small_kg_workload.rules) as session, \
                ChangefeedServer() as server:
            server.publish("kg", session)
            with pytest.raises(ReplicationError, match="unknown tenant"):
                ReadReplica(server.address, "nope")

    def test_two_tenants_stream_independently(self):
        left, right = PropertyGraph(name="l"), PropertyGraph(name="r")
        with RepairSession(left, RuleSet([])) as first, \
                RepairSession(right, RuleSet([])) as second, \
                ChangefeedServer() as server:
            server.publish("l", first)
            server.publish("r", second)
            with ReadReplica(server.address, "l") as replica_l, \
                    ReadReplica(server.address, "r") as replica_r:
                first.apply(lambda g: g.add_node("A"))
                second.apply(lambda g: g.add_node("B"))
                second.apply(lambda g: g.add_node("B"))
                replica_l.catch_up(until_sequence=1, timeout=20)
                replica_r.catch_up(until_sequence=2, timeout=20)
                assert replica_l.graph.num_nodes == 1
                assert replica_r.graph.num_nodes == 2

    def test_match_results_equal_primary(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="kg")
        patterns = [rule.pattern for rule in small_kg_workload.rules]
        with RepairSession(graph, small_kg_workload.rules) as session, \
                ChangefeedServer() as server:
            server.publish("kg", session)
            with ReadReplica(server.address, "kg") as replica:
                session.repair()
                replica.catch_up(until_sequence=session.last_sequence,
                                 timeout=20)
                assert replica.match_keys(patterns) \
                    == _match_keys(graph, patterns)


class TestScopedReplica:
    def test_scope_serves_its_slice_and_adopts_created_nodes(self):
        graph = PropertyGraph(name="kg")
        hub = graph.add_node("City", {"name": "hub"}).id
        other = graph.add_node("City", {"name": "elsewhere"}).id
        with RepairSession(graph, RuleSet([])) as session, \
                ChangefeedServer() as server:
            server.publish("kg", session)
            with ReadReplica(server.address, "kg", scope={hub}) as replica:
                assert replica.graph.num_nodes == 1
                session.apply(lambda g: g.update_node(hub, {"pop": 9}))
                # a created node wired to the slice is adopted, no rebind
                session.apply(lambda g: g.add_edge(
                    g.add_node("Person", {}).id, hub, "livesIn"))
                # irrelevant traffic is filtered out
                session.apply(lambda g: g.update_node(other, {"pop": 1}))
                replica.catch_up(until_sequence=session.last_sequence,
                                 timeout=20)
                assert replica.rebinds == 0
                assert replica.graph.num_nodes == 2
                assert replica.graph.node(hub).properties["pop"] == 9
                assert not replica.graph.has_node(other)

    def test_boundary_crossing_edge_triggers_transparent_rebind(self):
        graph = PropertyGraph(name="kg")
        hub = graph.add_node("City", {"name": "hub"}).id
        other = graph.add_node("City", {"name": "elsewhere"}).id
        with RepairSession(graph, RuleSet([])) as session, \
                ChangefeedServer() as server:
            server.publish("kg", session)
            with ReadReplica(server.address, "kg", scope={hub}) as replica:
                session.apply(lambda g: g.add_edge(hub, other, "twinnedWith"))
                session.apply(lambda g: g.update_node(hub, {"pop": 2}))
                replica.catch_up(until_sequence=session.last_sequence,
                                 timeout=20)
                assert replica.rebinds >= 1
                # after the rebind the slice re-derives (and the boundary
                # edge's far endpoint joined it, so the edge is visible now)
                assert replica.graph.node(hub).properties["pop"] == 2


class TestCrossProcessReplica:
    def test_separate_process_replica_serves_identical_matches(
            self, small_kg_workload):
        """The ISSUE acceptance bar: a real second process connects, catches
        up, and its match results equal the primary's."""
        graph = small_kg_workload.dirty.copy(name="kg")
        rules = small_kg_workload.rules
        with RepairSession(graph, rules) as session, \
                ChangefeedServer() as server:
            server.publish("kg", session)
            session.repair()
            session.apply(lambda g: g.add_node("City", {"name": "Lima"}))
            target = session.last_sequence
            context = multiprocessing.get_context("spawn")
            results = context.Queue()
            probe = context.Process(
                target=replica_match_probe,
                args=(server.address, "kg", list(rules), target, results))
            probe.start()
            try:
                status, payload = results.get(timeout=120)
            finally:
                probe.join(timeout=30)
                if probe.is_alive():
                    probe.kill()
                    probe.join(timeout=30)
            assert status == "ok", payload
            assert payload["sequence"] == target
            assert payload["nodes"] == graph.num_nodes
            assert payload["edges"] == graph.num_edges
            patterns = [rule.pattern for rule in rules]
            assert payload["match_keys"] == _match_keys(graph, patterns)


class TestServiceIntegration:
    def test_durable_tenant_plus_replica_after_restart(self, tmp_path,
                                                       small_kg_workload):
        """The full story: durable serve, clean stop, restore, then a read
        replica over the restored tenant serves the same matches."""
        from repro.service import DurabilityConfig

        config = DurabilityConfig(dir=tmp_path, snapshot_every=6, fsync=False)
        rules = small_kg_workload.rules
        patterns = [rule.pattern for rule in rules]
        with GraphRepairService() as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          rules, durable=config)
            service.repair("kg")
        with GraphRepairService() as service:
            session = service.restore("kg", rules, durable=config)
            with ChangefeedServer() as server:
                server.publish("kg", session,
                               base_sequence=service.durability(
                                   "kg").base_sequence)
                with ReadReplica(server.address, "kg") as replica:
                    service.apply("kg",
                                  lambda g: g.add_node("City",
                                                       {"name": "Bern"}))
                    replica.catch_up(
                        until_sequence=service.durability(
                            "kg").global_sequence, timeout=20)
                    assert exactly_equal(replica.graph, session.graph)
                    assert replica.match_keys(patterns) \
                        == _match_keys(session.graph, patterns)
