"""The session's committed-delta changefeed.

Pins the transport contract delta log shipping builds on:

* records are **monotonically sequenced** (dense, starting at 1) and
  published only for the committed history — staged-then-rolled-back edits
  never appear;
* every record **replays exactly**: a replica that starts from a copy of the
  session's opening graph and applies each record once, in sequence order,
  is element-for-element identical to the session's graph — ids, labels,
  properties — across repairs (merges included, via exact ``MERGE_NODES``
  replay) and commits, for every backend;
* ``on_commit`` subscribers observe the same records, in order, and can
  unsubscribe.

The hypothesis case fuzzes random mutation batches (including node merges
and rollbacks) through a session and replays the feed; the domain cases run
full repair workloads.
"""

from __future__ import annotations


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import CommittedDelta, RepairConfig, RepairSession
from repro.graph.delta import rebase_delta, replay_delta
from repro.graph.property_graph import PropertyGraph

from graph_oracle import exactly_equal

WORKLOAD_FIXTURES = ("small_kg_workload", "small_movie_workload",
                     "small_social_workload")


@pytest.fixture(params=WORKLOAD_FIXTURES)
def workload(request):
    return request.getfixturevalue(request.param)


def _rebuild_from_feed(opening: PropertyGraph,
                       records: list[CommittedDelta]) -> PropertyGraph:
    replica = opening.copy(name="replica")
    for record in records:
        record.replay_onto(replica)
    return replica


class TestFeedOrdering:
    def test_sequences_are_dense_and_sourced(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy()
        with RepairSession(graph, small_kg_workload.rules) as session:
            assert session.deltas() == []
            assert session.last_sequence == 0
            session.repair()
            session.apply(lambda g: g.add_node("Person", {"name": "A"}))
            session.repair()  # nothing pending: publishes no record
            records = session.deltas()
        assert [r.sequence for r in records] == list(range(1, len(records) + 1))
        assert records[0].source == "repair"
        assert records[1].source == "commit"
        assert len(records) == 2

    def test_empty_commit_and_rollback_publish_nothing(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy()
        with RepairSession(graph, small_kg_workload.rules) as session:
            session.commit()
            session.stage(lambda g: g.add_node("Person", {"name": "gone"}))
            session.rollback()
            assert session.deltas() == []

    def test_deltas_after_paginates(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy()
        with RepairSession(graph, small_kg_workload.rules) as session:
            session.apply(lambda g: g.add_node("Person", {"name": "A"}))
            session.apply(lambda g: g.add_node("Person", {"name": "B"}))
            assert [r.sequence for r in session.deltas(after=1)] == [2]
            assert session.deltas(after=2) == []
            with pytest.raises(ValueError):
                session.deltas(after=-1)

    def test_on_commit_streams_in_order_and_unsubscribes(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy()
        seen: list[int] = []
        with RepairSession(graph, small_kg_workload.rules) as session:
            unsubscribe = session.on_commit(lambda r: seen.append(r.sequence))
            session.repair()
            session.apply(lambda g: g.add_node("Person", {"name": "A"}))
            assert seen == [1, 2]
            unsubscribe()
            session.apply(lambda g: g.add_node("Person", {"name": "B"}))
            assert seen == [1, 2]
            assert session.last_sequence == 3

    def test_subscriber_exception_propagates_but_record_lands(self,
                                                              small_kg_workload):
        graph = small_kg_workload.dirty.copy()
        with RepairSession(graph, small_kg_workload.rules) as session:
            session.on_commit(lambda r: (_ for _ in ()).throw(RuntimeError("x")))
            with pytest.raises(RuntimeError):
                session.apply(lambda g: g.add_node("Person", {"name": "A"}))
            assert session.last_sequence == 1


class TestReplicaReconstruction:
    @pytest.mark.parametrize("config_factory", [
        RepairConfig.fast,
        lambda: RepairConfig.fast().batched(),
        lambda: RepairConfig.sharded(workers=2, parallel_inline=True,
                                     min_partition_nodes=1),
    ], ids=["fast", "batched", "sharded"])
    def test_feed_rebuilds_exact_graph(self, workload, config_factory):
        opening = workload.dirty.copy(name="opening")
        live = opening.copy(name="live")
        with RepairSession(live, workload.rules,
                           config=config_factory()) as session:
            session.repair()
            session.apply(lambda g: g.add_node("Person", {"name": "late"}))
            edge_id = live.edge_ids()[3]
            session.apply(lambda g: g.remove_edge(edge_id))
            session.repair()
            records = session.deltas()
        replica = _rebuild_from_feed(opening, records)
        assert exactly_equal(replica, live)

    def test_incremental_subscriber_replica(self, small_kg_workload):
        """A replica fed through on_commit (not a terminal poll) tracks the
        session after every operation."""
        opening = small_kg_workload.dirty.copy(name="opening")
        live = opening.copy(name="live")
        replica = opening.copy(name="replica")
        with RepairSession(live, small_kg_workload.rules) as session:
            session.on_commit(lambda record: record.replay_onto(replica))
            session.repair()
            assert exactly_equal(replica, live)
            session.apply(lambda g: g.add_node("City", {"name": "Geneva"}))
            assert exactly_equal(replica, live)
            session.repair()
            assert exactly_equal(replica, live)

    def test_rebase_onto_foreign_id_space(self, small_kg_workload):
        """A record rebased onto a replica with a *live* id generator whose
        next ids would collide still replays cleanly (the reservation
        scheme)."""
        opening = small_kg_workload.dirty.copy(name="opening")
        live = opening.copy(name="live")
        with RepairSession(live, small_kg_workload.rules) as session:
            session.apply(lambda g: g.add_node("Person", {"name": "fresh"}))
            (record,) = session.deltas()
        replica = opening.copy(name="replica")
        # burn the replica's generator so the record's created id collides
        shadow = replica.add_node("Person", {"name": "shadow"})
        created = record.delta.created_node_ids
        assert shadow.id in created, "scenario must provoke a collision"
        rebased, node_map, _ = rebase_delta(record.delta, replica)
        replay_delta(replica, rebased)
        assert replica.num_nodes == opening.num_nodes + 2
        assert node_map[created[0]] in replica.node_store


NODE_LABELS = ("Person", "City", "Country")
EDGE_LABELS = ("knows", "livesIn", "inCountry")


@st.composite
def seed_graphs(draw, max_nodes: int = 8, max_edges: int = 14) -> PropertyGraph:
    graph = PropertyGraph(name="seed")
    count = draw(st.integers(min_value=2, max_value=max_nodes))
    for index in range(count):
        graph.add_node(draw(st.sampled_from(NODE_LABELS)), {"i": index})
    node_ids = graph.node_ids()
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
        graph.add_edge(draw(st.sampled_from(node_ids)),
                       draw(st.sampled_from(node_ids)),
                       draw(st.sampled_from(EDGE_LABELS)))
    return graph


class TestFeedReplayProperty:
    @given(graph=seed_graphs(), data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_commits_replay_exactly(self, graph, data):
        """Any committed mutation history — adds, removals, updates,
        relabels, merges, with rollbacks interleaved — rebuilds the exact
        graph from the changefeed."""
        opening = graph.copy(name="opening")
        session = RepairSession(graph, [], config=RepairConfig.fast())
        try:
            for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
                action = data.draw(st.sampled_from(
                    ["add_edge", "remove_edge", "add_node", "remove_node",
                     "update", "relabel", "merge", "rollback"]))
                node_ids = graph.node_ids()
                edge_ids = graph.edge_ids()

                def edit(g, action=action, data=data):
                    if action == "add_edge" and node_ids:
                        g.add_edge(data.draw(st.sampled_from(node_ids)),
                                   data.draw(st.sampled_from(node_ids)),
                                   data.draw(st.sampled_from(EDGE_LABELS)))
                    elif action == "remove_edge" and edge_ids:
                        g.remove_edge(data.draw(st.sampled_from(edge_ids)))
                    elif action == "add_node":
                        node = g.add_node(data.draw(st.sampled_from(NODE_LABELS)))
                        if node_ids:
                            g.add_edge(node.id,
                                       data.draw(st.sampled_from(node_ids)),
                                       data.draw(st.sampled_from(EDGE_LABELS)))
                    elif action == "remove_node" and len(node_ids) > 2:
                        g.remove_node(data.draw(st.sampled_from(node_ids)))
                    elif action == "update" and node_ids:
                        g.update_node(data.draw(st.sampled_from(node_ids)),
                                      {"touched": data.draw(st.integers(0, 9))})
                    elif action == "relabel" and node_ids:
                        g.relabel_node(data.draw(st.sampled_from(node_ids)),
                                       data.draw(st.sampled_from(NODE_LABELS)))
                    elif action == "merge" and len(node_ids) > 3:
                        keep = data.draw(st.sampled_from(node_ids))
                        merge = data.draw(st.sampled_from(
                            [n for n in node_ids if n != keep]))
                        g.merge_nodes(keep, merge,
                                      prefer_kept_properties=data.draw(
                                          st.booleans()),
                                      drop_duplicate_edges=data.draw(
                                          st.booleans()))

                if action == "rollback":
                    session.stage(lambda g: g.add_node("Person",
                                                       {"name": "doomed"}))
                    session.rollback()
                else:
                    session.apply(edit)
            replica = _rebuild_from_feed(opening, session.deltas())
            assert exactly_equal(replica, session.graph)
        finally:
            session.close()
