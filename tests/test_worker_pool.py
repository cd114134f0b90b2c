"""The persistent worker pool: lifecycle, hygiene, and warm equivalence.

Covers the three warm-pool guarantees the service stack relies on:

* **warm == sequential** — a sharded session whose pool keeps its shard
  replicas warm, driven through repair / commit / repair rounds, produces a
  graph element-for-element equal to the sequential fast backend's, with
  worker detection running incrementally off shipped deltas;
* **no spawns after warm-up** — worker processes are created once; later
  repair calls bind nothing and spawn nothing (the overhead the ``service-kg``
  benchmark tracks);
* **clean failure** — a failing worker (bad payload, dead process) raises
  :class:`~repro.exceptions.WorkerPoolError` *after* the pool shut itself
  down: no orphaned processes, ever, including when a repair raises
  mid-fan-out.
"""

from __future__ import annotations

import multiprocessing
import random
import time

import pytest

from repro.api import RepairConfig, RepairSession
from repro.exceptions import WorkerPoolError
from repro.graph.delta import GraphDelta, recording
from repro.graph.io import graph_to_dict
from repro.parallel.pool import PoolStats, WorkerPool

WORKLOAD_FIXTURES = ("small_kg_workload", "small_movie_workload",
                     "small_social_workload")


@pytest.fixture(params=WORKLOAD_FIXTURES)
def workload(request):
    return request.getfixturevalue(request.param)


def _inline_config(workers: int = 2, **overrides) -> RepairConfig:
    return RepairConfig.sharded(workers=workers, parallel_inline=True,
                                min_partition_nodes=1, **overrides)


def _corrupt(graph, seed: int) -> None:
    """Deterministic violation-producing edits (deletions + duplicates)."""
    rng = random.Random(seed)
    edge_ids = graph.edge_ids()
    for edge_id in rng.sample(edge_ids, min(6, len(edge_ids))):
        if graph.has_edge(edge_id):
            graph.remove_edge(edge_id)
    edge_ids = graph.edge_ids()
    for edge_id in rng.sample(edge_ids, min(4, len(edge_ids))):
        edge = graph.edge(edge_id)
        graph.add_edge(edge.source, edge.target, edge.label,
                       dict(edge.properties))


def _drive(session) -> list[int]:
    """repair → (corrupt → repair) × 2; returns the repair counts."""
    counts = [session.repair().repairs_applied]
    for round_seed in (11, 12):
        session.apply(lambda g: _corrupt(g, round_seed))
        counts.append(session.repair().repairs_applied)
    return counts


def _no_pool_children() -> bool:
    """True when no repro pool worker process is left alive."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        alive = [p for p in multiprocessing.active_children()
                 if p.name.startswith("repro-pool-worker")]
        if not alive:
            return True
        time.sleep(0.05)
    return False


class TestWarmEqualsSequential:
    def test_multi_round_equivalence(self, workload):
        reference = workload.dirty.copy(name="reference")
        with RepairSession(reference, workload.rules,
                           config=RepairConfig.fast()) as session:
            reference_counts = _drive(session)

        warm = workload.dirty.copy(name="warm")
        with RepairSession(warm, workload.rules,
                           config=_inline_config(workers=2)) as session:
            warm_counts = _drive(session)
            stats = session.backend.pool.stats

        assert warm_counts == reference_counts
        assert warm.structurally_equal(reference)
        # detection went incremental: later rounds shipped deltas instead of
        # re-binding full payloads for every shard every round
        assert stats.repair_calls >= 2
        assert stats.deltas_shipped > 0

    def test_replicas_survive_across_calls_without_rebind(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="warm-rebind")
        with RepairSession(graph, small_kg_workload.rules,
                           config=_inline_config(workers=2)) as session:
            session.repair()
            stats = session.backend.pool.stats
            binds_after_first = stats.binds
            session.apply(lambda g: _corrupt(g, 21))
            session.repair()
            # intra-shard edits ship as deltas; only boundary-crossing
            # changes may rebind, so binds must not grow per shard per call
            assert stats.binds <= binds_after_first \
                + session.backend.last_fanout.stale_rebinds

    def test_shared_pool_between_two_backends(self, small_kg_workload,
                                              small_movie_workload):
        with WorkerPool(workers=2, inline=True) as pool:
            graphs = []
            for workload, name in ((small_kg_workload, "kg"),
                                   (small_movie_workload, "movies")):
                repaired = workload.dirty.copy(name=name)
                with RepairSession(repaired, workload.rules,
                                   config=_inline_config(workers=2),
                                   pool=pool) as session:
                    session.repair()
                reference = workload.dirty.copy(name=f"{name}-ref")
                with RepairSession(reference, workload.rules,
                                   config=RepairConfig.fast()) as session:
                    session.repair()
                assert repaired.structurally_equal(reference)
                graphs.append(repaired)
            # both tenants' shards lived in the one pool, keyed apart
            assert pool.stats.binds >= 4


class TestWarmDegradation:
    """Runs that stay on the sequential drain never create a pool; the
    per-call checks (the node floor, a one-shard partition) are rechecked
    on every call until replicas stand."""

    def test_max_repairs_budget_keeps_warm_path_sequential(self,
                                                           small_kg_workload):
        reference = small_kg_workload.dirty.copy(name="reference")
        with RepairSession(reference, small_kg_workload.rules,
                           config=RepairConfig.fast(max_repairs=3)) as session:
            session.repair()

        graph = small_kg_workload.dirty.copy(name="warm-budget")
        with RepairSession(graph, small_kg_workload.rules,
                           config=_inline_config(workers=2, max_repairs=3)
                           ) as session:
            report = session.repair()
            assert not session.backend.last_fanout.ran
            assert session.backend.pool is None
        assert report.repairs_applied == 3
        assert graph.structurally_equal(reference)

    def test_small_graph_keeps_warm_path_sequential(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="warm-small")
        config = RepairConfig.sharded(workers=2, parallel_inline=True,
                                      min_partition_nodes=10_000)
        with RepairSession(graph, small_kg_workload.rules,
                           config=config) as session:
            report = session.repair()
            assert not session.backend.last_fanout.ran
            assert session.backend.pool is None
        assert report.reached_fixpoint

    def test_graph_grown_past_the_floor_fans_out(self, small_kg_workload):
        """A session opened below ``min_partition_nodes`` is not degraded for
        good: once commits grow the graph past the floor, the next repair
        fans out and still equals the sequential result."""
        workload = small_kg_workload
        floor = workload.dirty.num_nodes + 1

        def grow(graph):
            _corrupt(graph, 31)
            cities = [node_id for node_id in graph.node_ids()
                      if graph.node(node_id).label == "City"]
            for index in range(40):
                person = graph.add_node("Person", {"name": f"grown-{index}"})
                graph.add_edge(person.id, cities[index % len(cities)],
                               "bornIn")

        def drive(session):
            counts = [session.repair().repairs_applied]
            session.apply(grow)
            return counts

        reference = workload.dirty.copy(name="reference")
        with RepairSession(reference, workload.rules,
                           config=RepairConfig.fast()) as session:
            reference_counts = drive(session)
            reference_counts.append(session.repair().repairs_applied)

        graph = workload.dirty.copy(name="growing")
        config = RepairConfig.sharded(workers=2, parallel_inline=True,
                                      min_partition_nodes=floor)
        with RepairSession(graph, workload.rules, config=config) as session:
            counts = drive(session)
            assert not session.backend.last_fanout.ran
            assert session.backend.pool is None
            assert graph.num_nodes >= floor
            counts.append(session.repair().repairs_applied)
            assert session.backend.last_fanout.ran
        assert counts == reference_counts
        assert graph.structurally_equal(reference)

    def test_warm_spawns_once_and_closes_clean(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="spawned")
        config = RepairConfig.sharded(workers=2, min_partition_nodes=1)
        session = RepairSession(graph, small_kg_workload.rules, config=config)
        try:
            counts = _drive(session)
            stats = session.backend.pool.stats
            # processes were spawned exactly once, at the first repair call;
            # the later calls (after warm-up) spawned nothing
            assert stats.spawns == 2
            assert stats.repair_calls >= 2
            assert session.backend.last_fanout.pool.spawns == 0
        finally:
            session.close()
        assert _no_pool_children()

        reference = small_kg_workload.dirty.copy(name="spawn-ref")
        with RepairSession(reference, small_kg_workload.rules,
                           config=RepairConfig.fast()) as ref_session:
            reference_counts = _drive(ref_session)
        assert counts == reference_counts
        assert graph.structurally_equal(reference)

    def test_failing_worker_shuts_pool_down(self, small_kg_workload):
        pool = WorkerPool(workers=2)
        with pytest.raises(WorkerPoolError):
            # a payload the worker cannot rebuild a graph from
            pool.bind("bad", {"garbage": True}, "s0", frozenset(),
                      small_kg_workload.rules,
                      RepairConfig.fast())
        assert pool.closed
        assert _no_pool_children()
        # the pool is reopenable (failure recovery), but work against the
        # never-successfully-bound key still fails loudly — and cleans up
        with pytest.raises(WorkerPoolError):
            pool.repair(["bad"])
        assert pool.closed
        assert _no_pool_children()


class TestFailureRecovery:
    def test_warm_session_recovers_after_pool_shutdown(self, small_kg_workload):
        """A pool another tenant's failure closed is reopened at the next
        fan-out (fresh generation), and every replica rebinds — the session
        keeps working and stays equivalent."""
        reference = small_kg_workload.dirty.copy(name="ref")
        with RepairSession(reference, small_kg_workload.rules,
                           config=RepairConfig.fast()) as session:
            reference_counts = _drive(session)

        graph = small_kg_workload.dirty.copy(name="recover")
        with RepairSession(graph, small_kg_workload.rules,
                           config=_inline_config(workers=2)) as session:
            counts = [session.repair().repairs_applied]
            pool = session.backend.pool
            generation = pool.generation
            pool.close()  # simulate a shared-pool failure from elsewhere
            for round_seed in (11, 12):
                session.apply(lambda g: _corrupt(g, round_seed))
                counts.append(session.repair().repairs_applied)
            assert pool.generation > generation  # reopened, new generation
        assert counts == reference_counts
        assert graph.structurally_equal(reference)

    def test_halo_invariant_check_catches_shortcut_edges(self,
                                                         small_kg_workload):
        """An added member-member edge that pulls outside structure inside
        the rule radius must mark the shard stale (rebind), never ship."""
        from repro.api.backend import build_backend
        from repro.graph.delta import recording
        from repro.parallel.backend import _ReplicaTracker
        from repro.parallel.replica import project_delta
        from repro.graph.property_graph import PropertyGraph

        chain = PropertyGraph(name="chain")
        nodes = [chain.add_node("Person", {"i": i}).id for i in range(5)]
        for left, right in zip(nodes, nodes[1:]):
            chain.add_edge(left, right, "knows")
        backend = build_backend(_inline_config(workers=2))
        backend.bind(chain, small_kg_workload.rules)
        try:
            # core = first two chain nodes; radius-2 halo covers nodes[2..3],
            # and nodes[4] is correctly outside (3 hops from the core)
            tracker = _ReplicaTracker(
                index=0, namespace="s0", key="k",
                core=set(nodes[:2]), nodes=set(nodes[:4]),
                bound=True, stale=False)
            with recording(chain) as recorder:
                chain.add_edge(nodes[1], nodes[3], "knows")  # shortcut
            projection = project_delta(recorder.drain(), tracker.nodes)
            assert not projection.stale  # both endpoints are members...
            assert not backend._halo_intact(tracker, 2, projection), \
                "nodes[4] is now 2 hops from the core but not a member"
            # a benign member-member edge (no distance change) passes
            with recording(chain) as recorder:
                chain.add_edge(nodes[0], nodes[1], "knows")
            benign = project_delta(recorder.drain(), tracker.nodes)
            assert backend._halo_intact(
                _ReplicaTracker(index=0, namespace="s0", key="k",
                                core=set(nodes[:2]),
                                nodes=set(chain.node_ids()),
                                bound=True, stale=False), 2, benign)
        finally:
            backend.close()


class TestPoolProtocol:
    def test_inline_bind_ship_repair_roundtrip(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="proto")
        rules = small_kg_workload.rules
        config = RepairConfig.fast()
        with WorkerPool(workers=1, inline=True) as pool:
            pool.bind("whole", graph_to_dict(graph), "s0",
                      frozenset(graph.node_ids()), rules, config)
            (result,) = pool.repair(["whole"])
            assert result.repairs_applied > 0
            assert len(result.repairs) == result.repairs_applied
            # propose-then-revert: the standing replica still matches the
            # unrepaired payload graph
            replica = pool._inline_states["whole"].graph
            assert replica.structurally_equal(graph)
            # ship a committed delta and observe it on the replica
            with recording(graph) as recorder:
                node = graph.add_node("Person", {"name": "Shipped"})
                graph.add_edge(node.id, graph.node_ids()[0], "knows")
            assert pool.ship("whole", recorder.drain())
            assert replica.structurally_equal(graph)
            assert pool.stats.deltas_shipped == 1

    def test_ship_divergence_reports_stale_not_fatal(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="diverge")
        with WorkerPool(workers=1, inline=True) as pool:
            pool.bind("r", graph_to_dict(graph), "s0",
                      frozenset(graph.node_ids()),
                      small_kg_workload.rules,
                      RepairConfig.fast())
            # a delta referencing a node the replica does not have
            scratch = graph.copy()
            ghost = scratch.add_node("Person", {"name": "Ghost"})
            with recording(scratch) as recorder:
                scratch.remove_node(ghost.id)
            assert pool.ship("r", recorder.drain()) is False
            assert not pool.closed  # divergence is recoverable: rebind

    def test_batch_rejects_duplicate_keys(self):
        pool = WorkerPool(workers=1, inline=True)
        with pytest.raises(ValueError):
            pool._dispatch([("repair", "k"), ("repair", "k")])
        pool.close()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)

    def test_stats_shape(self):
        stats = PoolStats()
        assert set(stats.as_dict()) == {"spawns", "binds", "deltas_shipped",
                                        "shard_repairs", "repair_calls",
                                        "leases", "lease_wait_seconds",
                                        "worker_deaths", "respawns",
                                        "command_timeouts", "retries",
                                        "fallback_repairs"}

    def test_close_escalates_past_wedged_worker(self, small_kg_workload):
        """A worker that ignores the stop sentinel *and* SIGTERM must not
        outlive close() — escalation reaches SIGKILL (the zombie-leak fix)."""
        from repro.testing import Fault, FaultPlan

        plan = FaultPlan(faults=(Fault(site="worker.stop", kind="wedge"),))
        pool = WorkerPool(workers=2, stop_grace=0.25, fault_plan=plan)
        payload = graph_to_dict(small_kg_workload.dirty)
        pool.bind("k", payload, "s0", frozenset(), small_kg_workload.rules,
                  RepairConfig.fast())
        pool.close()
        assert pool.closed
        assert _no_pool_children()
