"""Asyncio-facade tests: many event-loop clients multiplexed over one
thread-backed ingest front, equivalence against sequential replay, and
flooding-tenant admission control.

The equivalence contract has two strengths, tested separately:

* **edits-then-repair** (deterministic): when every repair happens after
  all edits (traffic committed by a flusher, repairs at the end), the
  final graph is **element-for-element identical** to replaying the
  feed's commit deltas sequentially onto a fresh copy and repairing —
  across two domains at once.
* **eager scheduling** (repairs interleave with traffic): repair-created
  element ids then depend on scheduling, so the pinned invariant is the
  changefeed's own: replaying *every* published record (commits and
  repairs, in feed order) onto the opening graph reconstructs the final
  state exactly.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import telemetry
from repro.exceptions import AdmissionError
from repro.ingest import (
    AsyncRepairService,
    IngestFront,
    TenantQuota,
)
from repro.service import GraphRepairService

from graph_oracle import exactly_equal


def _touch(node_id, key, value):
    return lambda graph: graph.update_node(node_id, {key: value})


def _first_node(service, name):
    return next(iter(service.sessions.get(name).graph.nodes())).id


def _serve_two_domains(service, small_kg_workload, small_movie_workload):
    service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                  small_kg_workload.rules)
    service.serve("movies", small_movie_workload.dirty.copy(name="movies"),
                  small_movie_workload.rules)


class TestAsyncEquivalence:
    def test_async_traffic_equals_sequential_replay(self, small_kg_workload,
                                                    small_movie_workload):
        """8 async clients x 2 domains; commits flow during traffic,
        repairs run once afterwards — the graphs must equal a sequential
        replay of each feed's commit deltas plus one repair, exactly."""
        openings = {
            "kg": small_kg_workload.dirty.copy(name="kg-opening"),
            "movies": small_movie_workload.dirty.copy(name="movies-opening"),
        }
        rules = {"kg": small_kg_workload.rules,
                 "movies": small_movie_workload.rules}
        with GraphRepairService(inline_pool=True) as service:
            _serve_two_domains(service, small_kg_workload,
                               small_movie_workload)
            with IngestFront(service) as front:
                front.register("kg", TenantQuota(max_pending=512))
                front.register("movies", TenantQuota(max_pending=512))
                aio = AsyncRepairService(front)
                nodes = {name: _first_node(service, name)
                         for name in ("kg", "movies")}

                # a flusher commits queued edits during traffic; no repairs
                stop = threading.Event()

                def flusher():
                    while not stop.wait(0.002):
                        front.flush()

                pump = threading.Thread(target=flusher, daemon=True)
                pump.start()

                async def client(tenant, client_id, count):
                    node = nodes[tenant]
                    return [await aio.submit(
                        tenant, _touch(node, f"c{client_id}_k{i}", i))
                        for i in range(count)]

                async def main():
                    return await asyncio.gather(
                        *(client(t, c, 10)
                          for t in ("kg", "movies") for c in range(8)))

                sequences = asyncio.run(main())
                stop.set()
                pump.join(2.0)
                front.flush()
                assert all(seq >= 1 for per_client in sequences
                           for seq in per_client)
                assert front.stats()["tenants"]["kg"]["repairs"] == 0

                service.repair_all()  # repairs strictly after all edits
                for name in ("kg", "movies"):
                    replay = openings[name].copy(name=f"{name}-replay")
                    commits = [r for r in service.deltas(name)
                               if r.source == "commit"]
                    assert commits  # traffic actually flowed
                    with GraphRepairService(inline_pool=True) as sequential:
                        session = sequential.serve(name, replay, rules[name])
                        for record in commits:
                            session.apply(record.delta)
                        sequential.repair(name)
                        assert exactly_equal(
                            session.graph, service.sessions.get(name).graph)

    def test_eager_scheduling_preserves_feed_replay_exactness(
            self, small_kg_workload, small_movie_workload):
        """With the background scheduler interleaving repairs into live
        async traffic, the feed must still rebuild the final graph."""
        openings = {
            "kg": small_kg_workload.dirty.copy(name="kg-opening"),
            "movies": small_movie_workload.dirty.copy(name="movies-opening"),
        }
        with GraphRepairService(inline_pool=True) as service:
            _serve_two_domains(service, small_kg_workload,
                               small_movie_workload)
            with IngestFront(service) as front:
                front.register("kg", TenantQuota(max_pending=512))
                front.register("movies", TenantQuota(max_pending=512))
                front.start()
                aio = AsyncRepairService(front)
                nodes = {name: _first_node(service, name)
                         for name in ("kg", "movies")}

                async def client(tenant, client_id, count):
                    node = nodes[tenant]
                    for i in range(count):
                        await aio.submit(
                            tenant, _touch(node, f"c{client_id}_k{i}", i))

                async def main():
                    await asyncio.gather(
                        *(client(t, c, 8)
                          for t in ("kg", "movies") for c in range(6)))
                    await aio.quiesce(timeout=30.0)

                asyncio.run(main())
                stats = front.stats()["tenants"]
                assert stats["kg"]["repairs"] >= 1
                assert stats["movies"]["repairs"] >= 1
                for name in ("kg", "movies"):
                    assert service.staleness()[name].pending_deltas == 0
                    replica = openings[name].copy(name=f"{name}-replica")
                    for record in service.deltas(name):
                        record.replay_onto(replica)
                    assert exactly_equal(replica,
                                          service.sessions.get(name).graph)


class TestAsyncReadYourWrites:
    def test_submit_and_wait_covers_the_write(self, small_kg_workload):
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules)
            with IngestFront(service) as front:
                front.register("kg")
                front.start()
                aio = AsyncRepairService(front)
                node = _first_node(service, "kg")

                async def main():
                    seq = await aio.submit_and_wait(
                        "kg", _touch(node, "ryw", 42), timeout=10.0)
                    return seq

                sequence = asyncio.run(main())
                stale = service.staleness()["kg"]
                assert stale.repaired_through >= sequence
                graph = service.sessions.get("kg").graph
                assert graph.node(node).properties["ryw"] == 42

    def test_wait_for_repair_times_out_without_scheduler(self,
                                                         small_kg_workload):
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules)
            with IngestFront(service) as front:
                front.register("kg")
                aio = AsyncRepairService(front)
                node = _first_node(service, "kg")

                async def main():
                    ack = front.submit("kg", _touch(node, "x", 1))
                    front.flush("kg")  # committed, never repaired
                    with pytest.raises(asyncio.TimeoutError):
                        await aio.wait_for_repair("kg", ack.wait(1.0),
                                                  timeout=0.05)

                asyncio.run(main())


class TestAsyncAdmission:
    def test_flooding_tenant_is_rejected_not_its_neighbour(
            self, small_kg_workload, small_movie_workload):
        """A tenant flooding a tiny reject-policy queue collects
        AdmissionErrors while the well-behaved tenant's traffic commits
        and repairs untouched."""
        with GraphRepairService(inline_pool=True) as service:
            _serve_two_domains(service, small_kg_workload,
                               small_movie_workload)
            with IngestFront(service) as front:
                front.register("kg", TenantQuota(max_pending=4,
                                                 policy="reject"))
                front.register("movies", TenantQuota(max_pending=256))
                front.start()
                aio = AsyncRepairService(front)
                flood_node = _first_node(service, "kg")
                quiet_node = _first_node(service, "movies")

                async def flood(i):
                    try:
                        await aio.submit("kg",
                                         _touch(flood_node, f"f{i}", i))
                        return "ok"
                    except AdmissionError as exc:
                        assert exc.tenant == "kg"
                        return exc.reason

                async def quiet(i):
                    return await aio.submit(
                        "movies", _touch(quiet_node, f"q{i}", i))

                async def main():
                    results = await asyncio.gather(
                        *(flood(i) for i in range(200)),
                        *(quiet(i) for i in range(20)))
                    await aio.quiesce(timeout=30.0)
                    return results

                results = asyncio.run(main())
                flood_results = results[:200]
                quiet_results = results[200:]
                assert flood_results.count("full") > 0  # backpressure fired
                assert all(isinstance(seq, int) for seq in quiet_results)
                stats = front.stats()["tenants"]
                assert stats["kg"]["rejected"] > 0
                assert stats["movies"]["rejected"] == 0
                assert stats["movies"]["repairs"] >= 1

    def test_shed_policy_surfaces_as_admission_error(self,
                                                     small_kg_workload):
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules)
            with IngestFront(service) as front:
                front.register("kg", TenantQuota(max_pending=2,
                                                 policy="shed_oldest"))
                aio = AsyncRepairService(front)
                node = _first_node(service, "kg")

                async def main():
                    # fill the queue, then one more: the oldest is shed
                    first = asyncio.ensure_future(
                        aio.submit("kg", _touch(node, "a", 1)))
                    await asyncio.sleep(0.05)  # first reaches the queue
                    front.submit("kg", _touch(node, "b", 2))
                    front.submit("kg", _touch(node, "c", 3))
                    with pytest.raises(AdmissionError) as excinfo:
                        await first
                    assert excinfo.value.reason == "shed"

                asyncio.run(main())

    def test_many_clients_one_loop_smoke(self, small_kg_workload):
        """50 concurrent event-loop clients over one front: everything
        commits, the loop never blocks on a queue."""
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules)
            with IngestFront(service) as front:
                front.register("kg", TenantQuota(max_pending=4096))
                front.start()
                aio = AsyncRepairService(front)
                node = _first_node(service, "kg")

                async def client(c):
                    return await aio.submit("kg", _touch(node, f"m{c}", c))

                async def main():
                    seqs = await asyncio.gather(
                        *(client(c) for c in range(50)))
                    await aio.quiesce(timeout=30.0)
                    return seqs

                sequences = asyncio.run(main())
                assert len(sequences) == 50
                stats = front.stats()["tenants"]["kg"]
                assert stats["committed"] == 50
                assert stats["coalesced"] > 0  # batching actually happened
                assert stats["latency_p99"] >= stats["latency_p50"] >= 0.0
