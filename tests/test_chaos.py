"""Chaos suite: scripted faults drive the self-healing machinery.

Every test here follows the same contract the resilience layer promises
(docs/RESILIENCE.md): a fault — a SIGKILL'd worker, a hung reply, a full
disk mid-WAL-append — may cost a recovery pass, but never correctness.
The repaired graph must stay element-for-element equal to the sequential
backend's result, acknowledged commits must stay durable, and no orphan
process may outlive a failure.

Faults are injected with :mod:`repro.testing.faults` — deterministic,
declaration-ordered scripts — so every scenario is reproducible, including
the real-process SIGKILL-mid-repair smoke test that CI runs on every push.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api import RepairConfig, RepairSession
from repro.durability import DurabilityConfig, TenantDurability, WriteAheadLog, recover
from repro.exceptions import AdmissionError, DurabilityError, IngestError
from repro.graph.property_graph import PropertyGraph
from repro.ingest import IngestConfig, IngestFront
from repro.parallel.breaker import BREAKER_STATE_VALUES, CircuitBreaker
from repro.parallel.pool import WorkerPool
from repro.rules.grr import RuleSet
from repro.service import GraphRepairService
from repro.testing import Fault, FaultPlan, InjectedFault
from repro.testing import faults as faults_module


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


def _sequential_reference(workload, name: str, seeds=()) -> PropertyGraph:
    """The ground truth: the same repair rounds on the sequential backend."""
    reference = workload.dirty.copy(name=name)
    with RepairSession(reference, workload.rules,
                       config=RepairConfig.fast()) as session:
        session.repair()
        for seed in seeds:
            session.apply(lambda g: _corrupt(g, seed))
            session.repair()
    return reference


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


def _touch(node_id, key, value):
    return lambda graph: graph.update_node(node_id, {key: value})


# ----------------------------------------------------------------------
# the fault plan itself
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_at_counts_matching_hits(self):
        plan = FaultPlan(faults=(Fault(site="s", kind="error", at=3),))
        assert plan.take("s") is None
        assert plan.take("s") is None
        fault = plan.take("s")
        assert fault is not None and fault.kind == "error"

    def test_filters_narrow_matching(self):
        plan = FaultPlan(faults=(
            Fault(site="worker.command", kind="error", command="repair",
                  worker=1),))
        # wrong command and wrong worker never advance the counter
        assert plan.take("worker.command", worker=1, command="bind") is None
        assert plan.take("worker.command", worker=0, command="repair") is None
        assert plan.take("wal.append") is None
        assert plan.take("worker.command", worker=1,
                         command="repair") is not None

    def test_none_filters_match_everything(self):
        plan = FaultPlan(faults=(Fault(site="worker.command", kind="error"),))
        assert plan.take("worker.command", worker=7, command="ship",
                         key="k") is not None

    def test_each_fault_fires_exactly_once(self):
        plan = FaultPlan(faults=(Fault(site="s", kind="error"),))
        assert plan.take("s") is not None
        assert not any(plan.take("s") for _ in range(5))
        assert plan.exhausted

    def test_declaration_order_wins_and_counters_are_shared_hits(self):
        first = Fault(site="s", kind="error")
        second = Fault(site="s", kind="hang")
        plan = FaultPlan(faults=(first, second))
        # both faults count the first hit; the earlier declaration fires
        assert plan.take("s") is first
        # the second fault already saw one matching hit, so it fires next
        assert plan.take("s") is second
        assert plan.exhausted

    def test_plan_pickles_with_independent_counters(self):
        plan = FaultPlan(faults=(Fault(site="s", kind="error", at=2),))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.take("s") is None
        assert clone.take("s") is not None
        # the original (the coordinator's copy) never saw those hits
        assert plan.take("s") is None
        assert not plan.exhausted

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(site="s", kind="explode")
        with pytest.raises(ValueError, match="at must be"):
            Fault(site="s", kind="error", at=0)
        with pytest.raises(ValueError, match="seconds must be"):
            Fault(site="s", kind="slow", seconds=-1.0)

    def test_perform_error_raises_injected_fault(self):
        with pytest.raises(InjectedFault):
            faults_module.perform(Fault(site="s", kind="error"))

    def test_perform_enospc_raises_oserror(self):
        import errno

        with pytest.raises(OSError) as excinfo:
            faults_module.perform(Fault(site="s", kind="enospc"))
        assert excinfo.value.errno == errno.ENOSPC


# ----------------------------------------------------------------------
# the circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def _breaker(self, **overrides):
        clock = [0.0]
        options = {"failure_threshold": 3, "reset_seconds": 30.0,
                   "clock": lambda: clock[0]}
        options.update(overrides)
        return CircuitBreaker(**options), clock

    def test_full_lifecycle(self):
        breaker, clock = self._breaker()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # below the threshold
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock[0] += 30.0
        assert breaker.state == "half_open"
        assert breaker.allow()            # the probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self._breaker(failure_threshold=1)
        breaker.record_failure()
        clock[0] += 30.0
        assert breaker.allow()
        assert not breaker.allow()        # probe outstanding: refuse
        breaker.record_success()
        assert breaker.allow()            # closed again

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        breaker, clock = self._breaker(failure_threshold=1)
        breaker.record_failure()
        clock[0] += 30.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock[0] += 29.0
        assert not breaker.allow()        # cool-down restarted at the reopen
        clock[0] += 1.0
        assert breaker.allow()

    def test_snapshot_shape(self):
        breaker, _ = self._breaker()
        breaker.record_failure()
        snapshot = breaker.snapshot()
        assert snapshot == {"state": "closed", "consecutive_failures": 1,
                            "failure_threshold": 3, "reset_seconds": 30.0,
                            "transitions": 0}

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_seconds=-1.0)
        assert set(BREAKER_STATE_VALUES) == {"closed", "half_open", "open"}


# ----------------------------------------------------------------------
# inline supervision (simulated deaths, deterministic)
# ----------------------------------------------------------------------


class TestInlineChaos:
    def test_crash_mid_repair_heals_and_matches_sequential(
            self, small_kg_workload):
        plan = FaultPlan(faults=(
            Fault(site="worker.command", kind="crash", command="repair"),))
        graph = small_kg_workload.dirty.copy(name="inline-crash")
        with WorkerPool(workers=2, inline=True, fault_plan=plan) as pool:
            with RepairSession(graph, small_kg_workload.rules,
                               config=_inline_config(), pool=pool) as session:
                session.repair()
                fanout = session.backend.last_fanout
                assert not fanout.fallback
                assert pool.stats.worker_deaths == 1
                assert pool.stats.respawns == 1
                assert pool.stats.retries >= 1
                assert fanout.pool.respawns == 1
        reference = _sequential_reference(small_kg_workload, "inline-crash-ref")
        assert graph.structurally_equal(reference)

    def test_errored_repair_is_retried_once(self, small_kg_workload):
        plan = FaultPlan(faults=(
            Fault(site="worker.command", kind="error", command="repair"),))
        graph = small_kg_workload.dirty.copy(name="inline-error")
        with WorkerPool(workers=2, inline=True, fault_plan=plan) as pool:
            with RepairSession(graph, small_kg_workload.rules,
                               config=_inline_config(), pool=pool) as session:
                session.repair()
                assert not session.backend.last_fanout.fallback
                assert pool.stats.retries == 1
                assert pool.stats.respawns == 0   # an error is not a death
        reference = _sequential_reference(small_kg_workload, "inline-error-ref")
        assert graph.structurally_equal(reference)

    def test_persistent_errors_degrade_to_sequential(self, small_kg_workload):
        # enough scripted errors to defeat the first attempt AND its one
        # retry: the pool gives up, the backend falls back to the drain
        plan = FaultPlan(faults=tuple(
            Fault(site="worker.command", kind="error", command="repair")
            for _ in range(4)))
        graph = small_kg_workload.dirty.copy(name="inline-fallback")
        with WorkerPool(workers=2, inline=True, fault_plan=plan) as pool:
            with RepairSession(graph, small_kg_workload.rules,
                               config=_inline_config(), pool=pool) as session:
                report = session.repair()
                fanout = session.backend.last_fanout
                assert fanout.fallback
                assert fanout.fallback_reason == "pool-failure"
                assert pool.stats.fallback_repairs == 1
                assert pool.breaker.consecutive_failures == 1
                assert report.repairs_applied > 0
        reference = _sequential_reference(small_kg_workload,
                                          "inline-fallback-ref")
        assert graph.structurally_equal(reference)

    def test_breaker_opens_then_recovers_through_probe(self,
                                                       small_kg_workload):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=60.0,
                                 clock=lambda: clock[0])
        # exactly two errors: enough to defeat round 1's attempt + retry,
        # exhausted by the time the half-open probe runs
        plan = FaultPlan(faults=tuple(
            Fault(site="worker.command", kind="error", command="repair")
            for _ in range(2)))
        graph = small_kg_workload.dirty.copy(name="breaker")
        with WorkerPool(workers=2, inline=True, fault_plan=plan,
                        breaker=breaker) as pool:
            with RepairSession(graph, small_kg_workload.rules,
                               config=_inline_config(), pool=pool) as session:
                # round 1: the scripted errors defeat attempt + retry; the
                # pool failure trips the breaker (threshold 1) open
                session.repair()
                assert session.backend.last_fanout.fallback_reason \
                    == "pool-failure"
                assert breaker.state == "open"

                # round 2: the open breaker refuses the fan-out outright —
                # the pool is never touched, the drain serves the call
                session.apply(lambda g: _corrupt(g, 31))
                session.repair()
                assert session.backend.last_fanout.fallback_reason \
                    == "breaker-open"
                assert pool.stats.fallback_repairs == 2

                # round 3: cool-down elapsed — the half-open probe fans out
                # (the plan is exhausted), success closes the breaker
                clock[0] += 60.0
                session.apply(lambda g: _corrupt(g, 32))
                session.repair()
                assert not session.backend.last_fanout.fallback
                assert breaker.state == "closed"
        reference = _sequential_reference(small_kg_workload, "breaker-ref",
                                          seeds=(31, 32))
        assert graph.structurally_equal(reference)

    def test_take_lost_reports_only_out_of_barrier_replicas(self):
        # the simulated death kills every standing inline replica; keys in
        # the running barrier are re-driven, keys outside it are "lost"
        # and reported exactly once through take_lost()
        pool = WorkerPool(workers=1, inline=True, fault_plan=FaultPlan())
        pool._inline_states["old"] = _ClosableStub()
        pool._simulate_inline_death(
            Fault(site="worker.command", kind="crash"), barrier_keys={"new"})
        assert pool.take_lost(["old", "new"]) == {"old"}
        assert pool.take_lost(["old"]) == set()   # drained
        pool.close()


class _ClosableStub:
    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# real processes: SIGKILL and hangs (the CI smoke tests)
# ----------------------------------------------------------------------


class TestSpawnChaos:
    def test_sigkill_mid_repair_heals_transparently(self, small_kg_workload):
        """The ISSUE's acceptance scenario: SIGKILL a pool worker while it
        runs a shard repair → the barrier heals (respawn + rebind + one
        retry), the repair completes, the result equals the sequential
        backend's, and close() leaves no orphan process."""
        plan = FaultPlan(faults=(
            Fault(site="worker.command", kind="crash", command="repair",
                  worker=0),))
        config = RepairConfig.sharded(workers=2, min_partition_nodes=1)
        graph = small_kg_workload.dirty.copy(name="sigkill")
        pool = WorkerPool(workers=2, fault_plan=plan)
        try:
            with RepairSession(graph, small_kg_workload.rules,
                               config=config, pool=pool) as session:
                session.repair()
                assert not session.backend.last_fanout.fallback
                assert pool.stats.worker_deaths == 1
                assert pool.stats.respawns == 1
                assert pool.stats.retries >= 1
                assert not pool.closed
        finally:
            pool.close()
        assert _no_pool_children()
        reference = _sequential_reference(small_kg_workload, "sigkill-ref")
        assert graph.structurally_equal(reference)

    def test_hung_worker_is_timed_out_and_respawned(self, small_kg_workload):
        plan = FaultPlan(faults=(
            Fault(site="worker.command", kind="hang", command="repair",
                  worker=0),))
        config = RepairConfig.sharded(workers=2, min_partition_nodes=1)
        graph = small_kg_workload.dirty.copy(name="hung")
        pool = WorkerPool(workers=2, reply_timeout=3.0, fault_plan=plan)
        try:
            with RepairSession(graph, small_kg_workload.rules,
                               config=config, pool=pool) as session:
                session.repair()
                assert pool.stats.command_timeouts >= 1
                assert pool.stats.worker_deaths == 1
                assert pool.stats.respawns == 1
        finally:
            pool.close()
        assert _no_pool_children()
        reference = _sequential_reference(small_kg_workload, "hung-ref")
        assert graph.structurally_equal(reference)


    def test_unguarded_main_script_falls_back_instead_of_hanging(
            self, tmp_path):
        """A script with no ``if __name__ == "__main__"`` guard makes every
        spawned worker re-run it and die at bootstrap.  The default sharded
        config must give up on the pool and settle sequentially, not respawn
        dead workers forever."""
        script = tmp_path / "unguarded_main.py"
        script.write_text(textwrap.dedent("""
            import json

            from repro.api import RepairConfig, RepairSession
            from repro.datasets import build_workload

            workload = build_workload("kg", scale=60, error_rate=0.08, seed=3)
            config = RepairConfig.sharded(workers=2)
            assert workload.dirty.num_nodes > config.min_partition_nodes
            with RepairSession(workload.dirty, workload.rules,
                               config=config) as session:
                report = session.repair()
                fanout = session.backend.last_fanout
            print(json.dumps({"fallback_reason": fanout.fallback_reason,
                              "remaining": report.remaining_violations}))
        """))
        source_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [source_root] + [path for path in [env.get("PYTHONPATH")] if path])
        completed = subprocess.run([sys.executable, str(script)],
                                   capture_output=True, text=True, env=env,
                                   cwd=tmp_path, timeout=120)
        assert completed.returncode == 0, completed.stderr[-3000:]
        outcome = json.loads(completed.stdout.strip().splitlines()[-1])
        assert outcome == {"fallback_reason": "pool-failure", "remaining": 0}


# ----------------------------------------------------------------------
# WAL faults: full disks and torn frames
# ----------------------------------------------------------------------


class TestWalFaults:
    def test_enospc_fails_the_commit_before_the_ack(self, tmp_path):
        """A full disk during the durable append must fail the commit
        loudly — with tenant and sequence context — before any later
        subscriber (the ack side) observes the record."""
        plan = FaultPlan(faults=(Fault(site="wal.append", kind="enospc",
                                       at=2),))
        config = DurabilityConfig(dir=tmp_path, fsync=False, fault_plan=plan)
        graph = PropertyGraph(name="kg")
        observed: list[int] = []
        sink = TenantDurability("kg", config)
        sink.bootstrap(graph)
        with RepairSession(graph, RuleSet([])) as session:
            session.on_commit(lambda record: observed.append(record.sequence))
            sink.attach(session)   # prepended: durability outranks the ack
            session.apply(lambda g: g.add_node("Person"))
            with pytest.raises(DurabilityError) as excinfo:
                session.apply(lambda g: g.add_node("Person"))
            assert excinfo.value.tenant == "kg"
            assert excinfo.value.sequence == 2
            assert "NOT acknowledged" in str(excinfo.value)
        sink.close()
        # the failed record never reached the ack-side subscriber, and it
        # is not on disk either: recovery sees exactly the acknowledged
        # prefix
        assert observed == [1]
        recovered = recover("kg", DurabilityConfig(dir=tmp_path, fsync=False))
        assert recovered.sequence == 1
        assert recovered.graph.num_nodes == 1

    def test_torn_frame_is_truncated_and_recovery_keeps_the_prefix(
            self, tmp_path):
        plan = FaultPlan(faults=(Fault(site="wal.append", kind="torn",
                                       at=2),))
        config = DurabilityConfig(dir=tmp_path, fsync=False, fault_plan=plan)
        graph = PropertyGraph(name="kg")
        sink = TenantDurability("kg", config)
        sink.bootstrap(graph)
        with RepairSession(graph, RuleSet([])) as session:
            sink.attach(session)
            session.apply(lambda g: g.add_node("Person", {"name": "ok"}))
            with pytest.raises(DurabilityError):
                session.apply(lambda g: g.add_node("Person",
                                                   {"name": "doomed"}))
        sink.close()
        recovered = recover("kg", DurabilityConfig(dir=tmp_path, fsync=False))
        assert recovered.sequence == 1
        names = [node.properties.get("name")
                 for node in recovered.graph.nodes()]
        assert names == ["ok"]

    def test_fsync_failure_maps_to_durability_error_and_is_retryable(
            self, tmp_path):
        plan = FaultPlan(faults=(Fault(site="wal.fsync", kind="enospc"),))
        wal = WriteAheadLog(tmp_path, fsync=True, fault_plan=plan)
        with pytest.raises(DurabilityError) as excinfo:
            wal.append({"seq": 1, "kind": "probe"})
        assert excinfo.value.sequence == 1
        assert wal.last_sequence == 0
        # the failed frame was sealed away; once the condition clears the
        # same sequence appends cleanly
        assert wal.append({"seq": 1, "kind": "probe"}) == 1
        assert wal.last_sequence == 1
        wal.close()


# ----------------------------------------------------------------------
# ingest: retry backoff and the close()/tick() race
# ----------------------------------------------------------------------


class TestIngestBackoff:
    def _served(self, workload, config):
        service = GraphRepairService(inline_pool=True)
        service.serve("kg", workload.dirty.copy(name="kg"), workload.rules)
        front = IngestFront(service, config=config)
        front.register("kg")
        return service, front

    def test_failing_tenant_backs_off_exponentially(self, small_kg_workload):
        config = IngestConfig(repair_backoff_base=60.0,
                              repair_backoff_max=3600.0)
        service, front = self._served(small_kg_workload, config)
        calls = {"count": 0}
        healthy_repair = service.repair

        def failing_repair(name):
            calls["count"] += 1
            raise RuntimeError("injected repair failure")

        try:
            service.repair = failing_repair
            node = next(iter(service.sessions.get("kg").graph.nodes())).id
            ack = front.submit("kg", _touch(node, "marker", 1))
            front.tick()               # commit lands, the repair fails
            assert ack.wait(1.0) >= 1  # the commit itself was acknowledged
            stats = front.stats()["tenants"]["kg"]
            assert calls["count"] == 1
            assert stats["consecutive_failures"] == 1
            assert stats["backoffs"] == 1
            assert "injected repair failure" in stats["last_error"]

            front.tick()
            front.tick()               # inside the 60 s window: skipped
            assert calls["count"] == 1

            # the window elapses (cleared manually — no wall-clock waits in
            # tests), the repair is retried and a success resets the state
            service.repair = healthy_repair
            front._tenants["kg"].backoff_until = 0.0
            front.tick()
            stats = front.stats()["tenants"]["kg"]
            assert stats["consecutive_failures"] == 0
            assert stats["backoffs"] == 1
        finally:
            front.close()
            service.close()

    def test_zero_base_disables_backoff(self, small_kg_workload):
        config = IngestConfig(repair_backoff_base=0.0)
        service, front = self._served(small_kg_workload, config)
        calls = {"count": 0}

        def failing_repair(name):
            calls["count"] += 1
            raise RuntimeError("still failing")

        try:
            service.repair = failing_repair
            node = next(iter(service.sessions.get("kg").graph.nodes())).id
            front.submit("kg", _touch(node, "marker", 1))
            for _ in range(3):
                front.tick()
            assert calls["count"] == 3    # retried every tick, no backoff
            assert front.stats()["tenants"]["kg"]["backoffs"] == 0
        finally:
            front.close()
            service.close()

    def test_backoff_delay_doubles_and_caps(self, small_kg_workload):
        config = IngestConfig(repair_backoff_base=1.0, repair_backoff_max=3.0)
        service, front = self._served(small_kg_workload, config)

        def failing_repair(name):
            raise RuntimeError("boom")

        try:
            service.repair = failing_repair
            node = next(iter(service.sessions.get("kg").graph.nodes())).id
            front.submit("kg", _touch(node, "marker", 1))
            state = front._tenants["kg"]
            for expected_delay in (1.0, 2.0, 3.0, 3.0):  # capped at max
                state.backoff_until = 0.0   # expire the previous window
                before = time.monotonic()
                front.tick()
                assert state.backoff_until \
                    == pytest.approx(before + expected_delay, abs=0.5)
        finally:
            front.close()
            service.close()


class TestCloseTickRace:
    def test_close_racing_inflight_ticks_never_hangs_an_ack(
            self, small_kg_workload):
        """Acks caught between a background tick and close() must resolve
        (committed) or fail (AdmissionError/IngestError) — never hang."""
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules)
            front = IngestFront(service)
            front.register("kg")
            node = next(iter(service.sessions.get("kg").graph.nodes())).id
            stop = threading.Event()

            def ticker():
                while not stop.is_set():
                    front.tick()

            thread = threading.Thread(target=ticker, daemon=True)
            thread.start()
            acks = []
            try:
                for index in range(200):
                    try:
                        acks.append(front.submit(
                            "kg", _touch(node, f"race{index}", index)))
                    except (AdmissionError, IngestError):
                        break       # close won the race: submits refused
                    if index == 120:
                        front.close()
            finally:
                stop.set()
                thread.join(5.0)
            assert not thread.is_alive()
            assert len(acks) > 0
            resolved = failed = 0
            for ack in acks:
                try:
                    ack.wait(5.0)   # a TimeoutError here fails the test
                    resolved += 1
                except (AdmissionError, IngestError):
                    failed += 1
            assert resolved + failed == len(acks)
            assert failed >= 1      # close() failed the still-queued tail
            front.close()           # idempotent


# ----------------------------------------------------------------------
# service surfacing: health and /metrics
# ----------------------------------------------------------------------


class TestServiceSurfacing:
    def test_health_reports_pool_and_breaker(self, small_kg_workload):
        with GraphRepairService(inline_pool=True) as service:
            assert "pool" not in service.health()
            zeros = service.pool_stats
            assert zeros["respawns"] == 0 and zeros["fallback_repairs"] == 0
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules, shards=2)
            service.repair("kg")
            document = service.health()
            pool_doc = document["pool"]
            assert pool_doc["workers"] >= 2
            assert pool_doc["respawns"] == 0
            assert pool_doc["fallback_repairs"] == 0
            assert pool_doc["breaker"]["state"] == "closed"
            assert pool_doc["breaker"]["failure_threshold"] >= 1
            assert set(service.pool_stats) == set(zeros)

    def test_metrics_expose_breaker_state_gauge(self, small_kg_workload):
        from repro import telemetry

        telemetry.enable()
        try:
            with GraphRepairService(inline_pool=True) as service:
                service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                              small_kg_workload.rules, shards=2)
                service.repair("kg")
                snapshot = service.telemetry_snapshot()
                assert snapshot.get("repro_pool_breaker_state").value() \
                    == BREAKER_STATE_VALUES["closed"]
        finally:
            telemetry.disable()
            # drain the spans this test's repairs parked on the process
            # tracer — later tests assert the shared tracer starts empty
            telemetry.TELEMETRY.tracer.export_finished(drain=True)
