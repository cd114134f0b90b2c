"""Perf-baseline harness: time the matcher and both repairers, track trajectory.

Measures, for each of the three dataset domains (``kg``, ``movies``,
``social``):

* ``match_seconds`` — full enumeration of every rule pattern with the
  optimised matcher (index + decomposition);
* ``fast_seconds`` — end-to-end fast repair through a
  :class:`~repro.api.RepairSession` (the paper's efficient algorithm: index +
  decomposition + incremental maintenance);
* ``naive_seconds`` — end-to-end naive repair (full re-detection per round);
* ``sharded_seconds`` — (kg domain only: the ``sharded-kg`` scenario) the
  sharded multi-process backend at 4 workers through the real spawn pool,
  measured once per invocation (process startup dominates repeats) and
  compared against ``fast_seconds``; excluded from the regression gate's
  timing keys because pool startup is host-load dependent, but its
  deterministic work counters are tracked;
* the ``service-kg`` scenario (kg domain only) — sharded repair through
  ``repro.service`` against a plain session: one sharded tenant driven
  through repair → (edit → repair) × N on the service's shared pool, and
  the same drive on a plain sharded session with its own pool (the
  ``service_cold_*`` keys).  Wall-clock per call is recorded (not gated —
  spawn cost is host-load dependent); the *overhead counters* are gated:
  ``service_warm_spawns_after_warmup`` must stay 0 (nothing spawns once the
  pool is warm — the whole point), and the two drives' repair counts must
  agree with each other;
* the ``scale-kg`` scenario (kg domain only) — the large-graph tier:
  kg@1500 in quick mode, kg@4000 in full mode, measured once (matching +
  fast repair wall-clock, the deterministic work counters, and the
  ``tracemalloc`` peak of a full repair-a-copy run — the memory-footprint
  trajectory of the slotted graph core).  The work counters are **hard
  gates** in ``check_regression.py`` (see ``GATED_COUNTER_KEYS``): a drift
  means the matcher does different work at scale and the baseline must be
  re-recorded deliberately;
* the ``recovery-kg`` scenario (kg domain only) — durable serve through
  ``repro.durability`` (fsync'd WAL + periodic snapshots) under the same
  deterministic traffic as the service scenario, then a timed cold restore
  (``recovery_seconds``, a gated timing key) and the replay counters
  (committed sequence, records/changes replayed, snapshots written —
  **hard gates**: identical traffic must produce an identical durable
  history);
* the ``chaos-kg`` scenario (kg domain only) — scripted faults
  (:mod:`repro.testing.faults`) through the supervised pool: a worker
  crash mid-repair must heal (respawn + rebind + one retry) to the exact
  sequential result, and persistent errors must trip the circuit breaker
  into the sequential-drain fallback — the respawn/retry/fallback counters
  and both equivalence bits are **hard gates**;
* the ``service-traffic`` scenario (kg domain only) — the ``repro.ingest``
  front under load: a deterministic manual-tick phase whose scheduler
  ticks, admission rejections, and coalesced-delta counts are **hard
  gates**, plus a live phase (background scheduler + asyncio clients with
  one flooding tenant) recording sustained edits/sec and the steady
  tenant's commit→repaired p50/p99 (the p99 joins the host-aware
  wall-clock gates);

plus the deterministic work counters (repairs applied, violations detected,
matches enumerated, nodes tried, and the fast drain's incremental
``maintenance_passes``) that let a regression checker distinguish "the machine is
slower" from "the algorithm does more work".

Each invocation appends one entry to ``BENCH_repair.json`` (the *trajectory*)
so the perf history of the repo is recorded alongside the code.  The last
entry for a given mode is the baseline that ``check_regression.py`` compares
against.  Entries record the host fingerprint (hostname + core count):
wall-clock gates only apply when the baseline was recorded on the same
host, while the deterministic work counters gate everywhere.

Usage::

    PYTHONPATH=src python benchmarks/perf_baseline.py --mode quick --label "my change"
    PYTHONPATH=src python benchmarks/perf_baseline.py --mode full

``--dry-run`` prints the measurements without touching the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from repro.api import RepairConfig, repair_copy
from repro.datasets.registry import build_workload
from repro.matching.matcher import Matcher, MatcherConfig

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_repair.json"
SCHEMA_VERSION = 1

# Per-mode measurement grids: deterministic workloads (fixed seed) so the
# work counters are exactly reproducible and only wall-clock varies.
MODES: dict[str, dict[str, Any]] = {
    "quick": {"scales": {"kg": 200, "movies": 150, "social": 150},
              "error_rate": 0.05, "seed": 0, "repeats": 3},
    "full": {"scales": {"kg": 800, "movies": 400, "social": 400},
             "error_rate": 0.05, "seed": 0, "repeats": 3},
}

# sharded_seconds is deliberately NOT a gated timing key: spawn-pool startup
# varies with host load, and on single-core hosts the scenario measures
# overhead, not speedup (see docs/PARALLEL.md "when sharding wins").
# traffic_p99_seconds is informational for the same reason the warm-pool and
# recovery percentiles are: it is read from a fixed-bucket histogram, so the
# p99 is quantised to bucket bounds and flips between adjacent buckets (an
# apparent 2x) on scheduler-timing noise; the traffic scenario's teeth are
# its deterministic gated counters (ticks / rejections / coalesced).
TIMING_KEYS = ("match_seconds", "fast_seconds", "naive_seconds",
               "scale_match_seconds", "scale_fast_seconds",
               "recovery_seconds")
COUNTER_KEYS = ("matches", "fast_repairs_applied", "fast_violations_detected",
                "fast_nodes_tried", "naive_repairs_applied",
                "fast_maintenance_passes", "sharded_repairs_applied",
                "sharded_accepted", "sharded_rejected",
                "service_warm_repairs", "service_cold_repairs",
                "service_warm_spawns_after_warmup", "service_warm_binds",
                "service_warm_ships",
                "scale_matches", "scale_repairs_applied",
                "scale_violations_detected", "scale_nodes_tried",
                "scale_range_bucket_candidates", "scale_planner_plans",
                "scale_planner_replans",
                "recovery_sequence", "recovery_records_replayed",
                "recovery_changes_replayed", "recovery_snapshots_written",
                "traffic_scheduler_ticks", "traffic_admission_rejections",
                "traffic_coalesced_deltas", "traffic_committed",
                "traffic_repairs",
                "chaos_respawns", "chaos_retries", "chaos_worker_deaths",
                "chaos_repairs_applied", "chaos_fallback_repairs",
                "chaos_crash_equal", "chaos_fallback_equal")

# Deterministic counters that HARD-FAIL the regression gate on any drift
# (instead of warning): the warm pool must never spawn after warm-up, and the
# scale tier's work counters are the contract that the matcher does the same
# work on large graphs — an intentional algorithmic change must re-record the
# baseline in the same commit.  The planner counters pin the cost planner's
# decisions at scale: a plan-count or replan-count drift means the planner
# reacts differently to the same statistics.  The recovery counters pin the
# durability pipeline: the committed history's length, the snapshot cadence,
# and the replay tail must all be exactly reproducible — a drift means the
# WAL records different traffic for the same workload.
GATED_COUNTER_KEYS = ("service_warm_spawns_after_warmup",
                      "scale_repairs_applied", "scale_nodes_tried",
                      "scale_planner_plans", "scale_planner_replans",
                      "recovery_sequence", "recovery_records_replayed",
                      "recovery_changes_replayed",
                      "recovery_snapshots_written",
                      "traffic_scheduler_ticks",
                      "traffic_admission_rejections",
                      "traffic_coalesced_deltas",
                      "chaos_respawns", "chaos_retries",
                      "chaos_fallback_repairs",
                      "chaos_crash_equal", "chaos_fallback_equal")


def host_fingerprint() -> dict[str, Any]:
    """What the wall-clock gates are conditioned on: timings recorded on a
    different machine (or core count) are not comparable, while the
    deterministic work counters always are."""
    return {"host": platform.node(), "cpu_count": os.cpu_count()}

#: the sharded scenario runs only where fan-out has enough work to mean
#: anything: the kg domain at each mode's scale, 4 workers
SHARDED_DOMAIN = "kg"
SHARDED_WORKERS = 4

#: the scale tier runs the kg domain far past the regular grid: large enough
#: that per-element overhead and index quality dominate, small enough that a
#: quick-mode run stays interactive
SCALE_TIERS = {"quick": 1500, "full": 4000}


def _best_of(repeats: int, func) -> tuple[float, Any]:
    """Minimum wall-clock over ``repeats`` runs (robust to scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - started)
    return best, result


def measure_domain(domain: str, scale: int, error_rate: float, seed: int,
                   repeats: int) -> dict[str, Any]:
    """One domain's measurements (timings + deterministic work counters)."""
    workload = build_workload(domain, scale=scale, error_rate=error_rate, seed=seed)

    def run_matching():
        matcher = Matcher(workload.dirty, MatcherConfig.optimized(), maintain_index=False)
        found = sum(len(matcher.find_matches(rule.pattern)) for rule in workload.rules)
        matcher.close()
        return found

    match_seconds, matches = _best_of(repeats, run_matching)

    def run_session(config):
        return lambda: repair_copy(workload.dirty, workload.rules,
                                   config=config)[1]

    fast_seconds, fast_report = _best_of(repeats, run_session(RepairConfig.fast()))
    naive_seconds, naive_report = _best_of(repeats, run_session(RepairConfig.naive()))

    sharded: dict[str, Any] = {}
    if domain == SHARDED_DOMAIN:
        sharded = measure_sharded(workload)
        sharded.update(measure_service(workload))
        sharded.update(measure_recovery(workload))
        sharded.update(measure_traffic(workload))
        sharded.update(measure_chaos(workload))

    return {
        **sharded,
        "scale": scale,
        "nodes": workload.dirty.num_nodes,
        "edges": workload.dirty.num_edges,
        "match_seconds": round(match_seconds, 4),
        "fast_seconds": round(fast_seconds, 4),
        "naive_seconds": round(naive_seconds, 4),
        "matches": matches,
        "fast_repairs_applied": fast_report.repairs_applied,
        "fast_violations_detected": fast_report.violations_detected,
        "fast_nodes_tried": fast_report.matching_stats.nodes_tried,
        "fast_maintenance_passes": fast_report.matching_stats.maintenance_passes,
        "naive_repairs_applied": naive_report.repairs_applied,
        "fast_reached_fixpoint": fast_report.reached_fixpoint,
    }


def measure_sharded(workload) -> dict[str, Any]:
    """The ``sharded-<domain>`` scenario: one end-to-end repair through the
    multi-process backend (real spawn pool), plus fan-out diagnostics."""
    from repro.api import RepairSession

    graph = workload.dirty.copy(name=f"{workload.dirty.name}-sharded")
    config = RepairConfig.sharded(workers=SHARDED_WORKERS)
    started = time.perf_counter()
    with RepairSession(graph, workload.rules, config=config) as session:
        report = session.repair()
        fanout = session.backend.last_fanout
    elapsed = time.perf_counter() - started
    return {
        "sharded_seconds": round(elapsed, 4),
        "sharded_workers": SHARDED_WORKERS,
        "sharded_shards": fanout.shards,
        "sharded_repairs_applied": report.repairs_applied,
        "sharded_accepted": fanout.accepted,
        "sharded_rejected": fanout.rejected,
        "sharded_halo_fraction": round(fanout.halo_fraction, 3),
        "sharded_reached_fixpoint": report.reached_fixpoint,
    }


def _service_corrupt(graph, seed: int) -> None:
    """Deterministic violation-producing edits for the service scenario."""
    import random

    rng = random.Random(seed)
    edge_ids = graph.edge_ids()
    for edge_id in rng.sample(edge_ids, min(10, len(edge_ids))):
        if graph.has_edge(edge_id):
            graph.remove_edge(edge_id)
    edge_ids = graph.edge_ids()
    for edge_id in rng.sample(edge_ids, min(6, len(edge_ids))):
        edge = graph.edge(edge_id)
        graph.add_edge(edge.source, edge.target, edge.label,
                       dict(edge.properties))


#: edit→repair rounds the service scenario drives after the initial repair
SERVICE_ROUNDS = 3

#: durability knobs for the ``recovery-kg`` scenario: enough edit→repair
#: rounds and a small snapshot cadence that the restore path exercises both
#: a snapshot load and a WAL replay tail (each service call commits one
#: changefeed record, so 1 + 2×rounds records total)
RECOVERY_ROUNDS = 8
RECOVERY_SNAPSHOT_EVERY = 4


def measure_service(workload) -> dict[str, Any]:
    """The ``service-kg`` scenario: service tenant vs plain session.

    Both sides run the same drive — initial repair, then
    ``SERVICE_ROUNDS`` rounds of (commit deterministic edits → repair) —
    through the sharded backend at ``SHARDED_WORKERS`` with real spawn
    pools.  The service tenant (the ``service_warm_*`` keys) joins the
    service's shared pool; the plain session (the ``service_cold_*`` keys)
    creates and owns its pool.  Both keep standing shard replicas and ship
    deltas between calls.  The per-call overhead counters are the gated
    result: after the first service call, spawns must be 0.
    """
    from repro import telemetry
    from repro.api import RepairConfig, RepairSession
    from repro.service import GraphRepairService

    def drive(repair, apply, after_first=None):
        seconds = []
        repairs = 0
        started = time.perf_counter()
        repairs += repair().repairs_applied
        seconds.append(time.perf_counter() - started)
        if after_first is not None:
            after_first()
        for round_index in range(SERVICE_ROUNDS):
            apply(lambda g, s=round_index: _service_corrupt(g, s))
            started = time.perf_counter()
            repairs += repair().repairs_applied
            seconds.append(time.perf_counter() - started)
        return seconds, repairs

    # the service tenant: the shared pool, standing replicas, delta shipping
    spawns_at_warmup = 0

    def record_warmup():
        nonlocal spawns_at_warmup
        spawns_at_warmup = service.pool_stats["spawns"]

    # telemetry collects the service drive so the trajectory records repair
    # latency percentiles (informational — not regression-gated; the wall
    # clocks above stay the gateable measurements)
    with telemetry.collecting() as (registry, _tracer):
        with GraphRepairService() as service:
            session = service.serve("bench", workload.dirty.copy(name="bench"),
                                    workload.rules, shards=SHARDED_WORKERS)
            warm_seconds, warm_repairs = drive(
                lambda: service.repair("bench"),
                lambda edit: service.apply("bench", edit),
                after_first=record_warmup)
            stats = service.pool_stats
            spawns_after_warmup = stats["spawns"] - spawns_at_warmup
            # informational (not gated): how much of the graph the standing
            # replicas own, and how evenly — the shard-balance trajectory
            # the online-repartitioning roadmap item will push toward 1.0
            coverage, balance = session.backend.ownership_coverage()
    repair_family = registry.get("repro_repair_seconds")

    # a plain session on its own pool, closed with the session
    plain_graph = workload.dirty.copy(name="bench-plain")
    with RepairSession(plain_graph, workload.rules,
                       config=RepairConfig.sharded(
                           workers=SHARDED_WORKERS)) as session:
        plain_seconds, plain_repairs = drive(session.repair, session.apply)

    return {
        "service_workers": SHARDED_WORKERS,
        "service_rounds": SERVICE_ROUNDS,
        # histogram-estimated service per-call latency percentiles (bucketed
        # linear interpolation — see repro.telemetry.quantile_from_buckets)
        "service_warm_p50_seconds": round(repair_family.quantile(0.50), 4),
        "service_warm_p95_seconds": round(repair_family.quantile(0.95), 4),
        "service_warm_p99_seconds": round(repair_family.quantile(0.99), 4),
        "service_warm_first_seconds": round(warm_seconds[0], 4),
        "service_warm_call_seconds": round(
            sum(warm_seconds[1:]) / max(len(warm_seconds) - 1, 1), 4),
        "service_cold_call_seconds": round(
            sum(plain_seconds[1:]) / max(len(plain_seconds) - 1, 1), 4),
        "service_warm_repairs": warm_repairs,
        "service_cold_repairs": plain_repairs,
        "service_warm_spawns_total": stats["spawns"],
        "service_warm_spawns_after_warmup": spawns_after_warmup,
        "service_warm_binds": stats["binds"],
        "service_warm_ships": stats["deltas_shipped"],
        "service_ownership_coverage": round(coverage, 3),
        "service_shard_balance": round(balance, 3),
    }


def measure_recovery(workload) -> dict[str, Any]:
    """The ``recovery-kg`` scenario: durable serve → shutdown → cold restore.

    Serves the kg workload durably (fsync'd WAL) and drives the service
    scenario's deterministic repair → (edit → repair) × ``RECOVERY_ROUNDS``
    traffic, then closes the service and times a cold
    :func:`repro.durability.recover` of the tenant from snapshot + WAL
    (best-of-3 — recovery is read-only, so it repeats cleanly).
    ``recovery_seconds`` joins the timing gates; the replay counters
    (committed sequence, records and changes replayed, snapshots written)
    are **hard gates** — identical traffic must produce an identical
    durable history, snapshot cadence, and replay tail.
    """
    import shutil
    import tempfile

    from repro.durability import DurabilityConfig, recover
    from repro.service import GraphRepairService

    root = Path(tempfile.mkdtemp(prefix="repro-recovery-"))
    try:
        config = DurabilityConfig(dir=root,
                                  snapshot_every=RECOVERY_SNAPSHOT_EVERY,
                                  fsync=True)
        started = time.perf_counter()
        with GraphRepairService() as service:
            service.serve("bench", workload.dirty.copy(name="bench"),
                          workload.rules, durable=config)
            service.repair("bench")
            for round_index in range(RECOVERY_ROUNDS):
                service.apply("bench",
                              lambda g, s=round_index: _service_corrupt(g, s))
                service.repair("bench")
            live = service.graph("bench")
            live_nodes, live_edges = live.num_nodes, live.num_edges
            stats = service.durability("bench").stats()
        serve_seconds = time.perf_counter() - started

        recovery_seconds, recovered = _best_of(
            3, lambda: recover("bench", config))

        # one extra (untimed) recovery under telemetry for the per-record
        # replay-latency percentiles; kept out of the best-of above so the
        # gated recovery_seconds measures the uninstrumented path
        from repro import telemetry

        with telemetry.collecting() as (registry, _tracer):
            recover("bench", config)
        replay_family = registry.get("repro_recovery_replay_seconds")
    finally:
        shutil.rmtree(root, ignore_errors=True)

    return {
        "recovery_serve_seconds": round(serve_seconds, 4),
        "recovery_seconds": round(recovery_seconds, 4),
        # per-record WAL replay latency percentiles (informational)
        "recovery_replay_p50_seconds": round(
            replay_family.quantile(0.50), 6) if replay_family else 0.0,
        "recovery_replay_p95_seconds": round(
            replay_family.quantile(0.95), 6) if replay_family else 0.0,
        "recovery_replay_p99_seconds": round(
            replay_family.quantile(0.99), 6) if replay_family else 0.0,
        "recovery_sequence": recovered.sequence,
        "recovery_snapshot_sequence": recovered.snapshot_sequence,
        "recovery_records_replayed": recovered.records_replayed,
        "recovery_changes_replayed": recovered.changes_replayed,
        "recovery_snapshots_written": stats["snapshots_written"],
        "recovery_exact": (recovered.graph.num_nodes == live_nodes
                           and recovered.graph.num_edges == live_edges),
    }


#: service-traffic deterministic phase: submit/tick rounds and batch sizes.
#: Each round submits TRAFFIC_BATCH edits to the steady tenant (large quota)
#: and TRAFFIC_FLOOD_BATCH to the flooding tenant (quota
#: TRAFFIC_FLOOD_QUOTA, reject policy), then runs one manual scheduler
#: tick — so ticks, rejections (flood batch minus quota per round), and
#: coalesced deltas are exact, reproducible numbers (hard gates).
TRAFFIC_ROUNDS = 10
TRAFFIC_BATCH = 16
TRAFFIC_FLOOD_BATCH = 12
TRAFFIC_FLOOD_QUOTA = 8

#: service-traffic live phase: event-loop clients over the running
#: scheduler (woken by each submit), measuring sustained edits/sec and the
#: commit→repaired latency percentiles from the telemetry histogram
TRAFFIC_CLIENTS = 6
TRAFFIC_EDITS_PER_CLIENT = 20
TRAFFIC_LIVE_FLOOD = 100


def measure_traffic(workload) -> dict[str, Any]:
    """The ``service-traffic`` scenario: the ingest front under load.

    Two phases over the kg workload:

    * **deterministic** — manual ``tick()`` driving: ``TRAFFIC_ROUNDS``
      rounds of (submit steady batch + overflow the flooding tenant's
      reject-policy queue → one scheduler pass).  Scheduler ticks,
      admission rejections, and the coalesced-delta count are exact
      functions of the submit pattern — **hard gates** in
      ``check_regression.py``: a drift means the scheduler batches or
      admits differently for the same traffic;
    * **live** — the background scheduler thread plus an asyncio
      ``AsyncRepairService``: ``TRAFFIC_CLIENTS`` well-behaved clients
      await every commit while a flooding client hammers a tiny
      reject-policy queue.  Records sustained committed edits/sec and the
      steady tenant's commit→repaired p50/p99 (from the
      ``repro_ingest_commit_to_repaired_seconds`` histogram).  The p99
      joins the host-aware wall-clock gates: a flooding tenant must not
      raise the steady tenant's tail latency beyond the threshold.
    """
    import asyncio

    from repro import telemetry
    from repro.ingest import (AdmissionError, AsyncRepairService,
                              IngestFront, TenantQuota)
    from repro.service import GraphRepairService

    def touch(node_id, key, value):
        return lambda graph: graph.update_node(node_id, {key: value})

    results: dict[str, Any] = {
        "traffic_rounds": TRAFFIC_ROUNDS,
        "traffic_clients": TRAFFIC_CLIENTS,
    }

    with GraphRepairService(inline_pool=True) as service:
        # -- deterministic phase: manual ticks, exact counters ----------
        service.serve("steady", workload.dirty.copy(name="steady"),
                      workload.rules)
        service.serve("flood", workload.dirty.copy(name="flood"),
                      workload.rules)
        steady_node = next(iter(service.sessions.get("steady")
                                .graph.nodes())).id
        flood_node = next(iter(service.sessions.get("flood")
                               .graph.nodes())).id
        rejected = 0
        with IngestFront(service) as front:
            front.register("steady", TenantQuota(
                max_pending=1024, max_coalesce=TRAFFIC_BATCH))
            front.register("flood", TenantQuota(
                max_pending=TRAFFIC_FLOOD_QUOTA, policy="reject"))
            for round_index in range(TRAFFIC_ROUNDS):
                for i in range(TRAFFIC_BATCH):
                    front.submit("steady",
                                 touch(steady_node, f"r{round_index}_{i}", i))
                for i in range(TRAFFIC_FLOOD_BATCH):
                    try:
                        front.submit(
                            "flood",
                            touch(flood_node, f"f{round_index}_{i}", i))
                    except AdmissionError:
                        rejected += 1
                front.tick()
            stats = front.stats()
            per_tenant = stats["tenants"]
            results.update({
                "traffic_scheduler_ticks": stats["ticks"],
                "traffic_admission_rejections": rejected,
                "traffic_coalesced_deltas":
                    sum(t["coalesced"] for t in per_tenant.values()),
                "traffic_committed":
                    sum(t["committed"] for t in per_tenant.values()),
                "traffic_repairs":
                    sum(t["repairs"] for t in per_tenant.values()),
            })

        # -- live phase: background scheduler + asyncio clients ---------
        service.serve("steady-live", workload.dirty.copy(name="steady-live"),
                      workload.rules)
        service.serve("flood-live", workload.dirty.copy(name="flood-live"),
                      workload.rules)
        live_steady = next(iter(service.sessions.get("steady-live")
                                .graph.nodes())).id
        live_flood = next(iter(service.sessions.get("flood-live")
                               .graph.nodes())).id
        live_rejected = 0
        with telemetry.collecting() as (registry, _tracer):
            with IngestFront(service) as front:
                front.register("steady-live", TenantQuota(max_pending=1024))
                front.register("flood-live", TenantQuota(
                    max_pending=TRAFFIC_FLOOD_QUOTA, policy="reject"))
                front.start()
                aio = AsyncRepairService(front)

                async def steady_client(client_id):
                    for i in range(TRAFFIC_EDITS_PER_CLIENT):
                        await aio.submit(
                            "steady-live",
                            touch(live_steady, f"c{client_id}_{i}", i))

                async def flood_one(i):
                    await aio.submit("flood-live",
                                     touch(live_flood, f"f{i}", i))

                async def flood_client():
                    # all at once: the tiny reject-policy queue must shed
                    nonlocal live_rejected
                    outcomes = await asyncio.gather(
                        *(flood_one(i) for i in range(TRAFFIC_LIVE_FLOOD)),
                        return_exceptions=True)
                    live_rejected = sum(
                        1 for o in outcomes if isinstance(o, AdmissionError))

                async def main():
                    await asyncio.gather(
                        *(steady_client(c) for c in range(TRAFFIC_CLIENTS)),
                        flood_client())
                    await aio.quiesce(timeout=60.0)

                started = time.perf_counter()
                asyncio.run(main())
                elapsed = time.perf_counter() - started
        latency = registry.get("repro_ingest_commit_to_repaired_seconds")
        total_edits = TRAFFIC_CLIENTS * TRAFFIC_EDITS_PER_CLIENT
        results.update({
            "traffic_live_seconds": round(elapsed, 4),
            "traffic_edits_per_second": round(total_edits / elapsed, 1),
            "traffic_live_rejections": live_rejected,
            "traffic_p50_seconds": round(
                latency.quantile(0.50, tenant="steady-live"), 4),
            "traffic_p99_seconds": round(
                latency.quantile(0.99, tenant="steady-live"), 4),
        })
    return results


#: chaos-kg: workers for the supervised inline pools (simulated deaths keep
#: the scenario deterministic and fast; the real-SIGKILL path is covered by
#: the tests/test_chaos.py spawn smoke in CI)
CHAOS_WORKERS = 2


def measure_chaos(workload) -> dict[str, Any]:
    """The ``chaos-kg`` scenario: scripted faults through the supervised pool.

    Two phases over the kg workload, both deterministic (inline pools,
    simulated worker death — see :mod:`repro.testing.faults`):

    * **crash-heal** — a scripted worker crash on the first shard-repair
      command: supervision must respawn the worker, rebind its replica, and
      retry the repair, landing on a graph element-for-element equal to the
      sequential backend's (``chaos_crash_equal``).  The respawn/retry
      counters are **hard gates**: the same script must cost the same
      recovery work on every run;
    * **fallback** — persistent scripted repair errors defeat the one-retry
      heal; the pool failure trips a threshold-1 circuit breaker and the
      repairer degrades to the sequential drain, once for the failure and
      once more for the open breaker (``chaos_fallback_repairs`` — a hard
      gate, as is the drain's equivalence, ``chaos_fallback_equal``).
    """
    from repro.api import RepairSession
    from repro.parallel.breaker import CircuitBreaker
    from repro.parallel.pool import WorkerPool
    from repro.testing import Fault, FaultPlan

    def warm_config():
        return RepairConfig.sharded(workers=CHAOS_WORKERS,
                                    parallel_inline=True,
                                    min_partition_nodes=1)

    # ground truth for both phases: the sequential backend over the same
    # deterministic drive
    crash_reference = workload.dirty.copy(name="chaos-crash-ref")
    with RepairSession(crash_reference, workload.rules,
                       config=RepairConfig.fast()) as session:
        session.repair()
    fallback_reference = workload.dirty.copy(name="chaos-fallback-ref")
    with RepairSession(fallback_reference, workload.rules,
                       config=RepairConfig.fast()) as session:
        session.repair()
        session.apply(lambda g: _service_corrupt(g, 0))
        session.repair()

    # -- phase 1: crash mid-repair, transparent heal --------------------
    plan = FaultPlan(faults=(
        Fault(site="worker.command", kind="crash", command="repair"),))
    crash_graph = workload.dirty.copy(name="chaos-crash")
    started = time.perf_counter()
    with WorkerPool(CHAOS_WORKERS, inline=True, fault_plan=plan) as pool:
        with RepairSession(crash_graph, workload.rules, config=warm_config(),
                           pool=pool) as session:
            crash_report = session.repair()
            crash_stats = pool.stats.as_dict()
            crash_fell_back = session.backend.last_fanout.fallback
    crash_seconds = time.perf_counter() - started

    # -- phase 2: unhealable errors → breaker-guarded fallback ----------
    plan = FaultPlan(faults=tuple(
        Fault(site="worker.command", kind="error", command="repair")
        for _ in range(2)))
    breaker = CircuitBreaker(failure_threshold=1, reset_seconds=3600.0)
    fallback_graph = workload.dirty.copy(name="chaos-fallback")
    with WorkerPool(CHAOS_WORKERS, inline=True, fault_plan=plan,
                    breaker=breaker) as pool:
        with RepairSession(fallback_graph, workload.rules,
                           config=warm_config(), pool=pool) as session:
            session.repair()                     # errors defeat the retry
            session.apply(lambda g: _service_corrupt(g, 0))
            session.repair()                     # breaker open: drain again
            fallback_stats = pool.stats.as_dict()
            breaker_state = breaker.state

    return {
        "chaos_workers": CHAOS_WORKERS,
        "chaos_crash_seconds": round(crash_seconds, 4),
        "chaos_repairs_applied": crash_report.repairs_applied,
        "chaos_worker_deaths": crash_stats["worker_deaths"],
        "chaos_respawns": crash_stats["respawns"],
        "chaos_retries": crash_stats["retries"],
        "chaos_crash_fell_back": crash_fell_back,
        "chaos_crash_equal": crash_graph.structurally_equal(crash_reference),
        "chaos_fallback_repairs": fallback_stats["fallback_repairs"],
        "chaos_breaker_state": breaker_state,
        "chaos_fallback_equal":
            fallback_graph.structurally_equal(fallback_reference),
    }


def measure_scale(mode: str, error_rate: float, seed: int) -> dict[str, Any]:
    """The ``scale-kg`` scenario: the hot path at 10–20× the regular grid.

    Measured once per invocation (the runs are seconds long; repeat noise is
    small relative to the signal), untraced for wall-clock, then a second
    repair-a-copy run under ``tracemalloc`` for the peak-memory trajectory
    (graph copy + candidate index + match stores + queue — the whole
    session footprint).
    """
    import tracemalloc

    scale = SCALE_TIERS[mode]
    workload = build_workload(SHARDED_DOMAIN, scale=scale,
                              error_rate=error_rate, seed=seed)

    matcher = Matcher(workload.dirty, MatcherConfig.optimized(),
                      maintain_index=False)
    started = time.perf_counter()
    matches = sum(len(matcher.find_matches(rule.pattern))
                  for rule in workload.rules)
    match_seconds = time.perf_counter() - started
    matcher.close()

    started = time.perf_counter()
    _, report = repair_copy(workload.dirty, workload.rules,
                            config=RepairConfig.fast())
    fast_seconds = time.perf_counter() - started

    tracemalloc.start()
    repair_copy(workload.dirty, workload.rules, config=RepairConfig.fast())
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "scale_tier": scale,
        "scale_nodes": workload.dirty.num_nodes,
        "scale_edges": workload.dirty.num_edges,
        "scale_match_seconds": round(match_seconds, 4),
        "scale_fast_seconds": round(fast_seconds, 4),
        "scale_matches": matches,
        "scale_repairs_applied": report.repairs_applied,
        "scale_violations_detected": report.violations_detected,
        "scale_nodes_tried": report.matching_stats.nodes_tried,
        "scale_value_bucket_candidates":
            report.matching_stats.value_bucket_candidates,
        "scale_range_bucket_candidates":
            report.matching_stats.range_bucket_candidates,
        "scale_planner_plans": report.matching_stats.planner_plans,
        "scale_planner_replans": report.matching_stats.planner_replans,
        "scale_reached_fixpoint": report.reached_fixpoint,
        "scale_tracemalloc_peak_mb": round(peak / (1024 * 1024), 2),
    }


def measure(mode: str) -> dict[str, Any]:
    """All domains' measurements for one mode."""
    grid = MODES[mode]
    results: dict[str, Any] = {}
    for domain, scale in grid["scales"].items():
        results[domain] = measure_domain(domain, scale, grid["error_rate"],
                                         grid["seed"], grid["repeats"])
    results[SHARDED_DOMAIN].update(
        measure_scale(mode, grid["error_rate"], grid["seed"]))
    return results


def load_trajectory(path: Path) -> dict[str, Any]:
    if path.exists():
        with path.open(encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("schema") != SCHEMA_VERSION:
            raise SystemExit(f"unsupported {path.name} schema: {data.get('schema')!r}")
        return data
    return {"schema": SCHEMA_VERSION, "entries": []}


def latest_entry(trajectory: dict[str, Any], mode: str) -> dict[str, Any] | None:
    for entry in reversed(trajectory.get("entries", [])):
        if entry.get("mode") == mode:
            return entry
    return None


def append_entry(path: Path, mode: str, label: str,
                 results: dict[str, Any]) -> dict[str, Any]:
    trajectory = load_trajectory(path)
    entry = {
        "label": label,
        "mode": mode,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        **host_fingerprint(),
        "results": results,
    }
    trajectory["entries"].append(entry)
    path.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")
    return entry


def format_results(results: dict[str, Any]) -> str:
    lines = [f"{'domain':<8} {'scale':>6} {'match_s':>9} {'fast_s':>9} {'naive_s':>9} "
             f"{'matches':>8} {'repairs':>8} {'passes':>8}"]
    for domain, row in results.items():
        lines.append(f"{domain:<8} {row['scale']:>6} {row['match_seconds']:>9.4f} "
                     f"{row['fast_seconds']:>9.4f} {row['naive_seconds']:>9.4f} "
                     f"{row['matches']:>8} {row['fast_repairs_applied']:>8} "
                     f"{row['fast_maintenance_passes']:>8}")
        if "sharded_seconds" in row:
            lines.append(
                f"{'':8} sharded-{domain}@{row['scale']}: "
                f"{row['sharded_seconds']:.4f}s @ {row['sharded_workers']} workers "
                f"({row['sharded_shards']} shards, "
                f"{row['sharded_accepted']} merged + {row['sharded_rejected']} deferred, "
                f"vs fast {row['fast_seconds']:.4f}s)")
        if "service_warm_call_seconds" in row:
            lines.append(
                f"{'':8} service-{domain}@{row['scale']}: service "
                f"{row['service_warm_call_seconds']:.4f}s/call vs session "
                f"{row['service_cold_call_seconds']:.4f}s/call after warm-up "
                f"({row['service_warm_first_seconds']:.4f}s; "
                f"{row['service_warm_spawns_total']} spawns total, "
                f"{row['service_warm_spawns_after_warmup']} after warm-up, "
                f"{row['service_warm_binds']} binds, "
                f"{row['service_warm_ships']} ships; service p50/p95/p99 "
                f"{row['service_warm_p50_seconds']:.4f}/"
                f"{row['service_warm_p95_seconds']:.4f}/"
                f"{row['service_warm_p99_seconds']:.4f}s; ownership "
                f"{row['service_ownership_coverage']:.3f} coverage / "
                f"{row['service_shard_balance']:.3f} balance)")
        if "traffic_scheduler_ticks" in row:
            lines.append(
                f"{'':8} traffic-{domain}@{row['scale']}: "
                f"{row['traffic_scheduler_ticks']} ticks, "
                f"{row['traffic_admission_rejections']} rejected, "
                f"{row['traffic_coalesced_deltas']} coalesced / "
                f"{row['traffic_committed']} committed "
                f"({row['traffic_repairs']} repairs); live "
                f"{row['traffic_edits_per_second']:.1f} edits/s over "
                f"{row['traffic_live_seconds']:.4f}s, "
                f"{row['traffic_live_rejections']} flood rejections, "
                f"commit→repaired p50/p99 "
                f"{row['traffic_p50_seconds']:.4f}/"
                f"{row['traffic_p99_seconds']:.4f}s")
        if "chaos_respawns" in row:
            lines.append(
                f"{'':8} chaos-{domain}@{row['scale']}: crash healed in "
                f"{row['chaos_crash_seconds']:.4f}s "
                f"({row['chaos_worker_deaths']} deaths, "
                f"{row['chaos_respawns']} respawns, "
                f"{row['chaos_retries']} retries, "
                f"equal={row['chaos_crash_equal']}); "
                f"{row['chaos_fallback_repairs']} fallbacks, breaker "
                f"{row['chaos_breaker_state']}, "
                f"equal={row['chaos_fallback_equal']}")
        if "recovery_seconds" in row:
            lines.append(
                f"{'':8} recovery-{domain}@{row['scale']}: restore "
                f"{row['recovery_seconds']:.4f}s from snapshot@"
                f"{row['recovery_snapshot_sequence']} + "
                f"{row['recovery_records_replayed']} replayed records "
                f"({row['recovery_changes_replayed']} changes, "
                f"{row['recovery_snapshots_written']} snapshots, "
                f"committed seq {row['recovery_sequence']}, "
                f"durable serve {row['recovery_serve_seconds']:.4f}s, "
                f"replay p50/p99 {row['recovery_replay_p50_seconds']:.6f}/"
                f"{row['recovery_replay_p99_seconds']:.6f}s, "
                f"exact={row['recovery_exact']})")
        if "scale_tier" in row:
            lines.append(
                f"{'':8} scale-{domain}@{row['scale_tier']}: "
                f"{row['scale_nodes']} nodes / {row['scale_edges']} edges, "
                f"match {row['scale_match_seconds']:.4f}s, fast "
                f"{row['scale_fast_seconds']:.4f}s "
                f"({row['scale_repairs_applied']} repairs, "
                f"{row['scale_nodes_tried']} nodes tried, "
                f"{row['scale_value_bucket_candidates']} via value buckets, "
                f"{row['scale_planner_plans']} plans / "
                f"{row['scale_planner_replans']} replans, "
                f"peak {row['scale_tracemalloc_peak_mb']:.1f} MiB)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="quick")
    parser.add_argument("--label", default="manual run",
                        help="free-form description stored with the entry")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--dry-run", action="store_true",
                        help="measure and print, do not write the trajectory")
    args = parser.parse_args(argv)

    results = measure(args.mode)
    print(format_results(results))
    if args.dry_run:
        return 0
    append_entry(args.output, args.mode, args.label, results)
    print(f"\n[appended {args.mode!r} entry to {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
