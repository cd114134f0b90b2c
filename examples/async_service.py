"""Async ingestion front: two tenants, one flooding, fairness + backpressure.

Run with::

    python examples/async_service.py [kg_scale] [movie_scale]

Steps:

1. build two corrupted workloads (knowledge graph + movie catalog), serve
   both from one :class:`~repro.service.GraphRepairService`, and put an
   :class:`~repro.ingest.IngestFront` in front with its background repair
   scheduler running — the movie tenant on the default generous ``block``
   quota, the kg tenant on a deliberately **tiny reject-policy queue**
   (``max_pending=8``) so it can be flooded;
2. drive both tenants from one event loop through
   :class:`~repro.ingest.AsyncRepairService`: a handful of **well-behaved
   movie clients** that await every commit, and one **kg flooder** that
   fires hundreds of submissions concurrently;
3. watch admission control do its job: the flooder collects
   ``AdmissionError(reason="full")`` while every quiet-client edit commits
   and repairs — one tenant's flood never touches the other's traffic;
4. demonstrate **read-your-writes**: ``submit_and_wait`` returns only after
   the scheduler's repair pass covered the committed edit, after which the
   write is visible in the served graph;
5. quiesce the front (queues empty, every dirty tenant repaired) and print
   the scoreboard from **telemetry**: per-tenant submitted / rejected /
   coalesced counters and the commit→repaired latency p50/p99 for the
   well-behaved tenant, read from the metrics registry the scheduler
   populated.

This is the intended embedding shape for continuous ingestion: clients are
asyncio tasks, the front owns admission and scheduling, and repairs run
only where edits landed — see ``docs/INGEST.md``.
"""

from __future__ import annotations

import asyncio
import sys

from repro import build_workload, telemetry
from repro.exceptions import AdmissionError
from repro.ingest import (
    AsyncRepairService,
    IngestConfig,
    IngestFront,
    TenantQuota,
)
from repro.service import GraphRepairService

QUIET_CLIENTS = 6
QUIET_EDITS = 15
FLOOD_SUBMITS = 300


def first_node(service: GraphRepairService, name: str) -> str:
    return next(iter(service.sessions.get(name).graph.nodes())).id


def touch(node_id, key, value):
    return lambda graph: graph.update_node(node_id, {key: value})


async def quiet_client(aio: AsyncRepairService, node, client_id: int) -> int:
    """A well-behaved movie client: awaits every commit ack."""
    last = 0
    for i in range(QUIET_EDITS):
        last = await aio.submit("movies", touch(node, f"c{client_id}_k{i}", i))
        await asyncio.sleep(0)  # yield; keep the loop fair
    return last


async def flooder(aio: AsyncRepairService, node) -> tuple[int, int]:
    """The kg flooder: hundreds of concurrent submissions at a queue of 8."""

    async def one(i: int) -> bool:
        try:
            await aio.submit("kg", touch(node, f"f{i}", i))
            return True
        except AdmissionError as exc:
            assert exc.tenant == "kg" and exc.reason == "full"
            return False

    outcomes = await asyncio.gather(*(one(i) for i in range(FLOOD_SUBMITS)))
    return sum(outcomes), FLOOD_SUBMITS - sum(outcomes)


async def drive(service: GraphRepairService, front: IngestFront) -> None:
    aio = AsyncRepairService(front)
    kg_node = first_node(service, "kg")
    movie_node = first_node(service, "movies")

    print(f"Driving {QUIET_CLIENTS} quiet movie clients x {QUIET_EDITS} edits"
          f" against a {FLOOD_SUBMITS}-submission kg flood ...")
    results = await asyncio.gather(
        flooder(aio, kg_node),
        *(quiet_client(aio, movie_node, c) for c in range(QUIET_CLIENTS)))
    admitted, rejected = results[0]
    print(f"  flood:  {admitted} admitted, {rejected} rejected by "
          f"admission control (queue capacity 8, policy=reject)")
    print(f"  quiet:  all {QUIET_CLIENTS * QUIET_EDITS} edits committed, "
          f"0 rejections")

    seq = await aio.submit_and_wait("movies",
                                    touch(movie_node, "headline", "fixed"),
                                    timeout=30.0)
    graph = service.sessions.get("movies").graph
    print(f"  read-your-writes: seq {seq} repaired, headline="
          f"{graph.node(movie_node).properties['headline']!r}")

    await aio.quiesce(timeout=60.0)


def main(kg_scale: int = 120, movie_scale: int = 100) -> None:
    print(f"Building workloads (kg scale={kg_scale}, "
          f"movies scale={movie_scale}) ...")
    kg = build_workload("kg", scale=kg_scale, error_rate=0.05, seed=0)
    movies = build_workload("movies", scale=movie_scale, error_rate=0.05,
                            seed=0)

    with telemetry.collecting() as (registry, _tracer):
        with GraphRepairService() as service:
            service.serve("kg", kg.dirty.copy(name="kg"), kg.rules)
            service.serve("movies", movies.dirty.copy(name="movies"),
                          movies.rules)
            config = IngestConfig(max_repairs_per_tick=2)
            with IngestFront(service, config) as front:
                front.register("kg", TenantQuota(max_pending=8,
                                                 policy="reject",
                                                 sla_seconds=0.5))
                front.register("movies", TenantQuota(max_pending=2048,
                                                     sla_seconds=0.2))
                front.start()
                asyncio.run(drive(service, front))

                stats = front.stats()["tenants"]
                print("\nFront scoreboard:")
                for name in ("kg", "movies"):
                    s = stats[name]
                    print(f"  {name:<7} committed={s['committed']:<4} "
                          f"rejected={s['rejected']:<4} "
                          f"coalesced={s['coalesced']:<4} "
                          f"repairs={s['repairs']}")

        snapshot = registry.snapshot()
        hist = snapshot.get("repro_ingest_commit_to_repaired_seconds")
        p50 = hist.quantile(0.5, tenant="movies")
        p99 = hist.quantile(0.99, tenant="movies")
        rejected = snapshot.get("repro_ingest_rejected_total")
        print("\nTelemetry (movies tenant, flood running next door):")
        print(f"  commit->repaired p50 {p50:.4f}s / p99 {p99:.4f}s")
        print(f"  kg rejections counted: "
              f"{rejected.value(tenant='kg', reason='full'):.0f}")

    print("\nThe flood hurt only itself: admission control rejected its "
          "overflow at the queue,\nwhile the quiet tenant committed "
          "everything and kept its repair latency.")


if __name__ == "__main__":
    scales = [int(arg) for arg in sys.argv[1:3]]
    main(*scales)
