"""The service layer: session manager, routing, and concurrent equivalence.

The load-bearing case is the threaded stress test: N threads staging,
committing, and repairing against one service interleave arbitrarily, yet
the committed history the changefeed records is a total order — replaying
exactly that order through a fresh single-threaded session must land on the
identical graph.  Concurrency may change *which* interleaving happens,
never the integrity of the one that did.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import RepairConfig, RepairSession
from repro.exceptions import ServiceError, SessionStateError
from repro.graph.delta import recording
from repro.service import GraphRepairService, SessionManager

from graph_oracle import exactly_equal


class TestSessionManager:
    def test_open_get_close_lifecycle(self, small_kg_workload):
        manager = SessionManager()
        session = manager.open("kg", small_kg_workload.dirty.copy(),
                               small_kg_workload.rules)
        assert manager.get("kg") is session
        assert manager.names() == ["kg"]
        assert "kg" in manager and len(manager) == 1
        manager.close_session("kg")
        assert session.closed
        assert "kg" not in manager
        manager.close()
        with pytest.raises(ServiceError):
            manager.get("kg")

    def test_duplicate_and_unknown_names(self, small_kg_workload):
        with SessionManager() as manager:
            manager.open("kg", small_kg_workload.dirty.copy(),
                         small_kg_workload.rules)
            with pytest.raises(ServiceError):
                manager.open("kg", small_kg_workload.dirty.copy(),
                             small_kg_workload.rules)
            with pytest.raises(ServiceError):
                manager.get("nope")
            with pytest.raises(ServiceError):
                manager.close_session("nope")

    def test_close_closes_every_session(self, small_kg_workload):
        manager = SessionManager()
        first = manager.open("a", small_kg_workload.dirty.copy(),
                             small_kg_workload.rules)
        second = manager.open("b", small_kg_workload.dirty.copy(),
                              small_kg_workload.rules)
        manager.close()
        assert first.closed and second.closed
        assert manager.closed


class TestServiceBasics:
    def test_serve_repair_and_feed(self, small_kg_workload,
                                   small_movie_workload):
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules, shards=2)
            service.serve("movies",
                          small_movie_workload.dirty.copy(name="movies"),
                          small_movie_workload.rules)
            reports = service.repair_all()
            assert sorted(reports) == ["kg", "movies"]
            assert all(r.repairs_applied > 0 for r in reports.values())
            assert service.deltas("kg")[0].source == "repair"
            # sharded tenant went through the shared pool
            assert service.pool_stats["binds"] >= 2
        assert service.closed

    def test_sharded_tenant_equals_plain_session(self, small_kg_workload):
        reference = small_kg_workload.dirty.copy(name="ref")
        with RepairSession(reference, small_kg_workload.rules,
                           config=RepairConfig.fast()) as session:
            session.repair()
        with GraphRepairService(inline_pool=True) as service:
            served = service.serve(
                "kg", small_kg_workload.dirty.copy(name="kg"),
                small_kg_workload.rules,
                config=RepairConfig.sharded(workers=2, parallel_inline=True,
                                            min_partition_nodes=1))
            service.repair("kg")
            assert served.graph.structurally_equal(reference)

    def test_shards_and_config_are_exclusive(self, small_kg_workload):
        with GraphRepairService(inline_pool=True) as service:
            with pytest.raises(ServiceError):
                service.serve("kg", small_kg_workload.dirty.copy(),
                              small_kg_workload.rules,
                              config=RepairConfig.fast(), shards=2)

    def test_stop_serving_releases_name(self, small_kg_workload):
        with GraphRepairService() as service:
            service.serve("kg", small_kg_workload.dirty.copy(),
                          small_kg_workload.rules)
            service.stop_serving("kg")
            assert service.names() == []
            service.serve("kg", small_kg_workload.dirty.copy(),
                          small_kg_workload.rules)
            assert service.names() == ["kg"]

    def test_closed_service_refuses_serving(self, small_kg_workload):
        service = GraphRepairService()
        service.close()
        with pytest.raises(ServiceError):
            service.serve("kg", small_kg_workload.dirty.copy(),
                          small_kg_workload.rules)


class TestRouting:
    def test_routes_to_unique_owner(self, small_kg_workload,
                                    small_social_workload):
        with GraphRepairService() as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules)
            service.serve("social",
                          small_social_workload.dirty.copy(name="social"),
                          small_social_workload.rules)
            kg_graph = service.graph("kg")
            social_graph = service.graph("social")
            # the generated domains share an id prefix (n0, n1, ...): anchor
            # at a node only the larger graph holds, whichever that is
            owner, owner_graph, other = ("kg", kg_graph, social_graph) \
                if kg_graph.num_nodes > social_graph.num_nodes \
                else ("social", social_graph, kg_graph)
            anchor = next(n for n in owner_graph.node_ids()
                          if not other.has_node(n))
            scratch = owner_graph.copy()
            with recording(scratch) as recorder:
                node = scratch.add_node("Person", {"name": "routed"})
                scratch.add_edge(node.id, anchor, "knows")
            name, result = service.apply_routed(recorder.drain())
            assert name == owner
            assert result.changes == 2
            assert service.deltas(owner)[-1].source == "commit"

    def test_ambiguous_and_unroutable_deltas(self, small_kg_workload,
                                             small_social_workload):
        with GraphRepairService() as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules)
            service.serve("social",
                          small_social_workload.dirty.copy(name="social"),
                          small_social_workload.rules)
            shared = next(n for n in service.graph("kg").node_ids()
                          if service.graph("social").has_node(n))
            scratch = service.graph("kg").copy()
            with recording(scratch) as recorder:
                scratch.update_node(shared, {"touched": True})
            with pytest.raises(ServiceError, match="ambiguous"):
                service.route(recorder.drain())

            lonely = scratch.copy()
            with recording(lonely) as recorder:
                lonely.add_node("Person", {"name": "island"})
            with pytest.raises(ServiceError, match="no pre-existing"):
                service.route(recorder.drain())


WORKLOAD_FIXTURES = ("small_kg_workload", "small_movie_workload",
                     "small_social_workload")


@pytest.fixture(params=WORKLOAD_FIXTURES)
def workload(request):
    return request.getfixturevalue(request.param)


class TestConcurrentEquivalence:
    THREADS = 4
    OPS_PER_THREAD = 8

    def _stress(self, service, name) -> None:
        """N threads stage+commit independent edits and trigger repairs."""
        errors: list[BaseException] = []

        def hammer(thread_index: int) -> None:
            try:
                for op in range(self.OPS_PER_THREAD):
                    def edit(g, thread_index=thread_index, op=op):
                        node = g.add_node(
                            "Person",
                            {"name": f"t{thread_index}-{op}"})
                        g.add_edge(node.id, g.node_ids()[thread_index],
                                   "knows")
                    service.apply(name, edit)
                    if op % 3 == thread_index % 3:
                        service.repair(name)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(index,))
                   for index in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors

    @pytest.mark.parametrize("serve_kwargs", [
        {},
        {"shards": 2},
    ], ids=["fast-backend", "sharded"])
    def test_threaded_service_equals_sequential_replay(self, workload,
                                                       serve_kwargs):
        opening = workload.dirty.copy(name="opening")
        with GraphRepairService(inline_pool=True) as service:
            live = service.serve("tenant", opening.copy(name="live"),
                                 workload.rules, **serve_kwargs)
            self._stress(service, "tenant")
            service.repair("tenant")  # settle whatever the last edits broke
            records = live.deltas()
            final = live.graph

            # sequential replay: a fresh single-threaded session applies the
            # SAME committed history in the feed's total order
            replay = opening.copy(name="replay")
            with RepairSession(replay, workload.rules,
                               config=RepairConfig.fast()) as replayer:
                for record in records:
                    if record.source == "commit":
                        replayer.apply(record.delta)
                    else:
                        record.replay_onto(replay)
            assert exactly_equal(replay, final)
            # and the feed alone rebuilds it too (pure replica, no session)
            replica = opening.copy(name="replica")
            for record in records:
                record.replay_onto(replica)
            assert exactly_equal(replica, final)

    def test_two_tenants_hammered_from_threads(self, small_kg_workload,
                                               small_movie_workload):
        """Both tenants sharded over the ONE shared pool, hammered from
        threads — pool barriers from different tenants must interleave
        atomically (the pool's internal lock), and repairs stay correct."""
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules, shards=2)
            service.serve("movies",
                          small_movie_workload.dirty.copy(name="movies"),
                          small_movie_workload.rules, shards=2)
            workers = [threading.Thread(target=self._stress,
                                        args=(service, name))
                       for name in ("kg", "movies")]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            reports = service.repair_all()
            assert reports["kg"].remaining_violations == 0
            assert reports["movies"].remaining_violations == 0

    def test_transaction_blocks_are_atomic_across_threads(self,
                                                          small_kg_workload):
        """A reader thread never observes a half-applied transaction."""
        graph = small_kg_workload.dirty.copy()
        observed: list[int] = []
        with RepairSession(graph, small_kg_workload.rules) as session:
            def writer():
                for index in range(10):
                    with session.transaction() as g:
                        g.add_node("Person", {"pair": index})
                        g.add_node("Person", {"pair": index})
                    session.commit()

            def reader():
                for _ in range(50):
                    with session.transaction() as g:
                        observed.append(g.count_nodes_with_label("Person"))

            threads = [threading.Thread(target=writer),
                       threading.Thread(target=reader)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        baseline = observed[0]
        # pairs land atomically: every observed count has the same parity
        assert all((count - baseline) % 2 == 0 for count in observed)


class TestShutdownHygiene:
    """Service teardown must reclaim every owned resource — child worker
    processes above all — even when an individual close step raises."""

    def test_close_reaps_all_worker_processes(self, small_kg_workload):
        import multiprocessing

        before = {child.pid for child in multiprocessing.active_children()}
        service = GraphRepairService()
        service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                      small_kg_workload.rules, shards=2)
        service.repair("kg")  # spawns the warm pool's real processes
        spawned = [child for child in multiprocessing.active_children()
                   if child.pid not in before]
        assert spawned, "the warm pool should have spawned child processes"
        service.close()
        service.close()  # idempotent
        for child in spawned:
            child.join(timeout=30)
        leaked = [child for child in multiprocessing.active_children()
                  if child.pid not in before]
        assert leaked == [], f"leaked worker processes: {leaked}"

    def test_failing_session_close_does_not_leak_the_pool(
            self, small_kg_workload, monkeypatch):
        import multiprocessing

        before = {child.pid for child in multiprocessing.active_children()}
        service = GraphRepairService()
        service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                      small_kg_workload.rules, shards=2)
        service.repair("kg")
        session = service.session("kg")
        monkeypatch.setattr(session, "close",
                            lambda: (_ for _ in ()).throw(
                                RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="boom"):
            service.close()
        assert service.closed and service.pool is None
        for child in multiprocessing.active_children():
            if child.pid not in before:
                child.join(timeout=30)
        leaked = [child for child in multiprocessing.active_children()
                  if child.pid not in before]
        assert leaked == [], f"leaked worker processes: {leaked}"

    def test_manager_close_sweeps_past_a_failing_session(
            self, small_kg_workload, monkeypatch):
        manager = SessionManager()
        first = manager.open("a", small_kg_workload.dirty.copy(),
                             small_kg_workload.rules)
        second = manager.open("b", small_kg_workload.dirty.copy(),
                              small_kg_workload.rules)
        monkeypatch.setattr(first, "close",
                            lambda: (_ for _ in ()).throw(
                                RuntimeError("first")))
        with pytest.raises(RuntimeError, match="first"):
            manager.close()
        assert second.closed, "the sweep must continue past the failure"
