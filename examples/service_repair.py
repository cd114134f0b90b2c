"""Multi-tenant repair service: two datasets, threads, and a live replica.

Run with::

    python examples/service_repair.py [kg_scale] [movie_scale]

Steps:

1. build two corrupted workloads (knowledge graph + movie catalog) and
   serve both from one :class:`~repro.service.GraphRepairService` — the kg
   tenant partitioned over a **warm worker pool** (``shards=2``), the movie
   tenant on a plain fast session;
2. subscribe a **replica graph** to the kg tenant's committed-delta
   changefeed (every committed transaction and repair mutation replays onto
   it as it publishes);
3. hammer both tenants **concurrently from worker threads** — staged
   transactions, commits, and repair calls interleaving freely under the
   sessions' locks;
4. settle everything with ``repair_all()`` and verify:
   the replica is **element-for-element identical** (ids included) to the
   served kg graph, both tenants reach a violation-free fixpoint, and the
   warm pool spawned nothing after warm-up;
5. show the telemetry surface: the whole run is traced and metered
   (``start_metrics_server`` turned telemetry on), so the example scrapes
   its own Prometheus ``/metrics`` endpoint, prints per-tenant repair
   latency percentiles from the registry, and dumps a Chrome trace of the
   repair spans to ``service_repair_trace.json`` (load it in
   ``chrome://tracing`` or https://ui.perfetto.dev — the fan-out shows
   every shard's repair nested under it).

This is the intended embedding shape for a long-running deployment: the
service owns the sessions, threads talk to tenants by name, and replication
consumes the changefeed — no caller ever touches engine objects.
"""

from __future__ import annotations

import json
import sys
import threading
import urllib.request

from repro import build_workload, telemetry
from repro.durability.codec import encode_value
from repro.graph.io import graph_to_dict
from repro.service import GraphRepairService


def exactly_equal(left, right) -> bool:
    """Element-for-element equality, ids included (stricter than
    ``structurally_equal``).  Values go through the durability codec, which
    sorts set members, so a set's iteration order cannot decide it."""
    def canonical(graph) -> str:
        document = graph_to_dict(graph)
        document.pop("name", None)
        return json.dumps(encode_value(document), sort_keys=True)
    return canonical(left) == canonical(right)


def hammer(service: GraphRepairService, name: str, threads: int = 3,
           ops: int = 6) -> None:
    """N threads staging/committing edits and repairing one tenant."""
    errors: list[BaseException] = []

    def loop(thread_index: int) -> None:
        try:
            for op in range(ops):
                def edit(g, thread_index=thread_index, op=op):
                    node = g.add_node("Person",
                                      {"name": f"{name}-t{thread_index}-{op}"})
                    g.add_edge(node.id, g.node_ids()[thread_index], "knows")
                service.apply(name, edit)
                if (op + thread_index) % 3 == 0:
                    service.repair(name)
        except BaseException as exc:
            errors.append(exc)

    workers = [threading.Thread(target=loop, args=(index,))
               for index in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]


def main(kg_scale: int = 200, movie_scale: int = 150) -> None:
    print(f"Building workloads (kg scale={kg_scale}, movies scale={movie_scale}) ...")
    kg = build_workload("kg", scale=kg_scale, error_rate=0.05, seed=0)
    movies = build_workload("movies", scale=movie_scale, error_rate=0.05, seed=0)

    with GraphRepairService() as service:
        print("\n== serving two tenants ==")
        kg_session = service.serve("kg", kg.dirty.copy(name="kg"), kg.rules,
                                   shards=2)
        service.serve("movies", movies.dirty.copy(name="movies"),
                      movies.rules)
        print(f"  tenants: {service.names()}  (kg partitioned over the warm pool)")

        # opt into observability: enables telemetry and serves Prometheus
        # text at /metrics (plus /healthz) on a stdlib daemon thread
        metrics = service.start_metrics_server()
        print(f"  metrics endpoint: {metrics.url}/metrics")

        # a replica rebuilt purely from the kg changefeed, live
        replica = kg.dirty.copy(name="kg-replica")
        service.subscribe("kg", lambda record: record.replay_onto(replica))

        print("\n== initial repair_all ==")
        for name, report in service.repair_all().items():
            print(f"  {name:<7} {report.repairs_applied} repairs, "
                  f"{report.remaining_violations} remaining")

        print("\n== concurrent traffic (3 threads per tenant) ==")
        tenant_threads = [
            threading.Thread(target=hammer, args=(service, name))
            for name in ("kg", "movies")
        ]
        for thread in tenant_threads:
            thread.start()
        for thread in tenant_threads:
            thread.join()
        reports = service.repair_all()
        for name, report in reports.items():
            print(f"  {name:<7} {report.repairs_applied} repairs total, "
                  f"{report.remaining_violations} remaining")

        print("\n== verification ==")
        feed = service.deltas("kg")
        commits = sum(1 for record in feed if record.source == "commit")
        print(f"  kg changefeed: {len(feed)} records "
              f"({commits} commits, {len(feed) - commits} repair deltas)")
        assert exactly_equal(replica, service.graph("kg")), \
            "replica must equal the served graph element for element"
        print("  replica == served kg graph: element-for-element identical")
        assert all(report.remaining_violations == 0
                   for report in reports.values())
        print("  both tenants at a violation-free fixpoint")
        stats = service.pool_stats
        print(f"  warm pool: {stats['spawns']} spawns, {stats['binds']} binds, "
              f"{stats['deltas_shipped']} deltas shipped, "
              f"{stats['repair_calls']} fan-outs "
              f"(spawns happen once; repairs after warm-up ship deltas)")

        print("\n== telemetry ==")
        snapshot = service.telemetry_snapshot()
        repair_seconds = snapshot.get("repro_repair_seconds")
        for tenant, backend in sorted(repair_seconds.histograms):
            count = repair_seconds.histograms[(tenant, backend)][2]
            p50 = repair_seconds.quantile(0.50, tenant=tenant,
                                          backend=backend)
            p99 = repair_seconds.quantile(0.99, tenant=tenant,
                                          backend=backend)
            print(f"  {tenant:<7} {count} repairs  "
                  f"p50={p50 * 1000:.2f}ms  p99={p99 * 1000:.2f}ms  "
                  f"({backend})")

        # the endpoint serves the same registry as Prometheus text
        with urllib.request.urlopen(f"{metrics.url}/metrics") as response:
            exposition = response.read().decode()
        sample = [line for line in exposition.splitlines()
                  if line.startswith(("repro_repair_seconds_count",
                                      "repro_pool_spawns_total",
                                      "repro_feed_sequence{"))]
        print("  scraped from /metrics:")
        for line in sample:
            print(f"    {line}")

        # every span of the run, one Chrome trace: coordinator lane plus
        # one lane per shard worker under each repair.fanout
        trace = telemetry.TELEMETRY.tracer.export_chrome()
        with open("service_repair_trace.json", "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        spans = sum(1 for event in trace["traceEvents"]
                    if event["ph"] == "X")
        print(f"  wrote service_repair_trace.json ({spans} spans — open in "
              "chrome://tracing or ui.perfetto.dev)")


if __name__ == "__main__":
    arguments = [int(argument) for argument in sys.argv[1:3]]
    main(*arguments)
