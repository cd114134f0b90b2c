"""Tests for :mod:`repro.ingest` — edit queues, admission control, the
background repair scheduler, staleness accounting, and the bounded
changefeed buffer.

Scheduling tests drive :meth:`IngestFront.tick` manually (deterministic:
no background thread); thread-liveness tests start the real scheduler.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RepairConfig, RepairSession, telemetry
from repro.exceptions import AdmissionError, IngestError
from repro.ingest import (
    AsyncRepairService,
    BufferedFeed,
    EditQueue,
    IngestConfig,
    IngestFront,
    SubmitAck,
    TenantQuota,
)
from repro.service import DurabilityConfig, GraphRepairService

from graph_oracle import exactly_equal


def _touch(node_id, key, value):
    """A recordable edit closure setting one node property."""
    return lambda graph: graph.update_node(node_id, {key: value})


def _first_node(service, name):
    return next(iter(service.sessions.get(name).graph.nodes())).id


class TestQuotaValidation:
    def test_policy_must_be_known(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            TenantQuota(policy="drop_newest")

    @pytest.mark.parametrize("kwargs", [
        {"max_pending": 0}, {"block_timeout": -1.0}, {"sla_seconds": 0.0},
        {"weight": 0.0}, {"max_coalesce": 0},
    ])
    def test_bounds_are_validated(self, kwargs):
        with pytest.raises(ValueError):
            TenantQuota(**kwargs)

    def test_ingest_config_is_validated(self):
        with pytest.raises(ValueError):
            IngestConfig(max_repairs_per_tick=0)
        with pytest.raises(ValueError):
            IngestConfig(repair_backoff_base=-1.0)
        with pytest.raises(ValueError):
            IngestConfig(repair_backoff_base=1.0, repair_backoff_max=0.5)

    def test_ingest_config_fields(self):
        assert [field.name for field in dataclasses.fields(IngestConfig)] == [
            "max_repairs_per_tick", "default_quota", "repair_backoff_base",
            "repair_backoff_max"]

    def test_removed_knobs_are_rejected(self):
        """The scheduler wakes on work, so its polling interval is gone,
        not ignored; so is the ``drain`` alias of ``flush``
        (docs/MIGRATION.md, "Ingest scheduler")."""
        with pytest.raises(TypeError):
            IngestConfig(tick_interval=0.05)
        assert not hasattr(IngestFront, "drain")


class TestSubmitAck:
    def test_resolve_and_wait(self):
        ack = SubmitAck("t")
        assert not ack.done()
        ack._resolve(7)
        assert ack.done() and ack.wait(0.1) == 7 and ack.error is None

    def test_fail_raises_from_wait(self):
        ack = SubmitAck("t")
        boom = AdmissionError("shed", tenant="t", reason="shed")
        ack._fail(boom)
        with pytest.raises(AdmissionError) as excinfo:
            ack.wait(0.1)
        assert excinfo.value.reason == "shed"

    def test_wait_timeout(self):
        with pytest.raises(TimeoutError):
            SubmitAck("t").wait(0.01)

    def test_first_resolution_wins(self):
        ack = SubmitAck("t")
        ack._resolve(1)
        ack._fail(RuntimeError("late"))
        assert ack.wait(0.1) == 1

    def test_done_callback_runs_once_whenever_registered(self):
        seen = []
        ack = SubmitAck("t")
        ack.add_done_callback(lambda a: seen.append(("before", a.sequence)))
        ack._resolve(3)
        ack.add_done_callback(lambda a: seen.append(("after", a.sequence)))
        assert seen == [("before", 3), ("after", 3)]


class TestEditQueue:
    def _quota(self, **kwargs):
        return TenantQuota(max_pending=3, block_timeout=0.05, **kwargs)

    def test_fifo_drain_with_limit(self):
        queue = EditQueue("t", self._quota())
        acks = [SubmitAck("t") for _ in range(3)]
        for i, ack in enumerate(acks):
            queue.put(i, ack)
        first = queue.drain(2)
        assert [edit for edit, _ in first] == [0, 1]
        assert [edit for edit, _ in queue.drain(10)] == [2]
        assert queue.drain(10) == []

    def test_reject_policy_raises_full(self):
        queue = EditQueue("t", self._quota(policy="reject"))
        for i in range(3):
            queue.put(i, SubmitAck("t"))
        with pytest.raises(AdmissionError) as excinfo:
            queue.put(99, SubmitAck("t"))
        assert excinfo.value.reason == "full" and excinfo.value.tenant == "t"

    def test_shed_oldest_returns_shed_acks(self):
        queue = EditQueue("t", self._quota(policy="shed_oldest"))
        oldest = SubmitAck("t")
        queue.put(0, oldest)
        queue.put(1, SubmitAck("t"))
        queue.put(2, SubmitAck("t"))
        shed = queue.put(3, SubmitAck("t"))
        assert shed == [oldest]
        assert [edit for edit, _ in queue.drain(10)] == [1, 2, 3]

    def test_block_policy_times_out(self):
        queue = EditQueue("t", self._quota(policy="block"))
        for i in range(3):
            queue.put(i, SubmitAck("t"))
        started = time.monotonic()
        with pytest.raises(AdmissionError) as excinfo:
            queue.put(99, SubmitAck("t"))
        assert excinfo.value.reason == "timeout"
        assert time.monotonic() - started >= 0.04

    def test_block_policy_unblocks_on_drain(self):
        queue = EditQueue("t", TenantQuota(max_pending=3, policy="block",
                                           block_timeout=5.0))
        for i in range(3):
            queue.put(i, SubmitAck("t"))
        admitted = threading.Event()

        def producer():
            queue.put(99, SubmitAck("t"))
            admitted.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.02)
        assert not admitted.is_set()  # still blocked at the bound
        queue.drain(1)
        assert admitted.wait(2.0)
        thread.join(2.0)

    def test_close_refuses_puts_and_returns_leftovers(self):
        queue = EditQueue("t", self._quota())
        ack = SubmitAck("t")
        queue.put(0, ack)
        assert queue.close() == [ack]
        with pytest.raises(AdmissionError) as excinfo:
            queue.put(1, SubmitAck("t"))
        assert excinfo.value.reason == "shutdown"


@pytest.fixture
def served(small_kg_workload):
    """An inline-pool service with one registered tenant and its front."""
    with GraphRepairService(inline_pool=True) as service:
        service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                      small_kg_workload.rules)
        with IngestFront(service) as front:
            front.register("kg")
            yield service, front


class TestIngestFront:
    def test_register_requires_served_tenant(self, served):
        _, front = served
        with pytest.raises(IngestError, match="not served"):
            front.register("ghost")

    def test_register_twice_raises(self, served):
        _, front = served
        with pytest.raises(IngestError, match="already registered"):
            front.register("kg")

    def test_submit_unregistered_tenant_raises(self, served):
        _, front = served
        with pytest.raises(IngestError, match="not registered"):
            front.submit("ghost", lambda g: None)

    def test_coalesced_commit_resolves_all_acks_to_one_sequence(self, served):
        service, front = served
        node = _first_node(service, "kg")
        acks = front.submit_many(
            "kg", [_touch(node, f"p{i}", i) for i in range(6)])
        result = front.tick()
        assert result["commits"] == 1
        sequences = {ack.wait(1.0) for ack in acks}
        assert len(sequences) == 1  # one changefeed record for the batch
        stats = front.stats()["tenants"]["kg"]
        assert stats["committed"] == 6 and stats["commits"] == 1
        assert stats["coalesced"] == 5

    def test_coalesced_state_equals_sequential_applies(self, small_kg_workload):
        """Folding a batch into one commit must leave the graph element-
        for-element identical to applying the edits one at a time."""
        sequential = small_kg_workload.dirty.copy(name="seq")
        with RepairSession(sequential, small_kg_workload.rules,
                           config=RepairConfig.fast()) as session:
            node = next(iter(sequential.nodes())).id
            edits = [_touch(node, f"p{i}", i) for i in range(6)]
            for edit in edits:
                session.apply(edit)
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules)
            with IngestFront(service) as front:
                front.register("kg")
                front.submit_many("kg", edits)
                front.flush("kg")
                assert exactly_equal(service.sessions.get("kg").graph,
                                      sequential)

    def test_max_coalesce_bounds_one_batch(self, served):
        service, front = served
        front.deregister("kg")
        front.register("kg", TenantQuota(max_pending=64, max_coalesce=4))
        node = _first_node(service, "kg")
        front.submit_many("kg", [_touch(node, f"p{i}", i) for i in range(10)])
        front.tick()
        stats = front.stats()["tenants"]["kg"]
        assert stats["committed"] == 4 and stats["queue_depth"] == 6
        front.flush("kg")
        assert front.stats()["tenants"]["kg"]["committed"] == 10

    def test_tick_repairs_dirty_tenant_and_clears_staleness(self, served):
        service, front = served
        node = _first_node(service, "kg")
        ack = front.submit("kg", _touch(node, "marker", 1))
        front.tick()
        sequence = ack.wait(1.0)
        stale = service.staleness()["kg"]
        assert stale.repaired_through >= sequence
        assert stale.pending_deltas == 0
        assert front.stats()["tenants"]["kg"]["repairs"] >= 1
        # read-your-writes is immediately satisfied now
        front.wait_for_repair("kg", sequence, timeout=0.5)

    def test_flush_commits_without_repairing(self, served):
        service, front = served
        node = _first_node(service, "kg")
        front.submit_many("kg", [_touch(node, f"p{i}", i) for i in range(3)])
        moved = front.flush()
        assert moved == 3
        assert front.stats()["tenants"]["kg"]["repairs"] == 0
        assert service.staleness()["kg"].pending_deltas > 0

    def test_quiesce_leaves_front_clean(self, served):
        service, front = served
        node = _first_node(service, "kg")
        front.submit_many("kg", [_touch(node, f"p{i}", i) for i in range(5)])
        front.quiesce(timeout=10.0)
        stale = service.staleness()["kg"]
        assert stale.pending_deltas == 0
        assert front.stats()["tenants"]["kg"]["queue_depth"] == 0

    def test_wait_for_repair_timeout(self, served):
        service, front = served
        node = _first_node(service, "kg")
        ack = front.submit("kg", _touch(node, "x", 1))
        front.flush("kg")  # committed but never repaired
        with pytest.raises(TimeoutError):
            front.wait_for_repair("kg", ack.wait(1.0), timeout=0.05)

    def test_commit_error_is_isolated_per_tenant(self, small_kg_workload,
                                                 small_movie_workload):
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules)
            service.serve("movies",
                          small_movie_workload.dirty.copy(name="movies"),
                          small_movie_workload.rules)
            with IngestFront(service) as front:
                front.register("kg")
                front.register("movies")

                def explode(graph):
                    raise RuntimeError("bad edit")

                bad = front.submit("kg", explode)
                node = _first_node(service, "movies")
                good = front.submit("movies", _touch(node, "ok", 1))
                front.tick()
                with pytest.raises(RuntimeError, match="bad edit"):
                    bad.wait(1.0)
                assert good.wait(1.0) >= 1
                stats = front.stats()["tenants"]
                assert "bad edit" in stats["kg"]["last_error"]
                assert stats["movies"]["last_error"] is None

    def test_shed_policy_fails_oldest_ack(self, served):
        service, front = served
        front.deregister("kg")
        front.register("kg", TenantQuota(max_pending=2, policy="shed_oldest"))
        node = _first_node(service, "kg")
        first = front.submit("kg", _touch(node, "a", 1))
        front.submit("kg", _touch(node, "b", 2))
        front.submit("kg", _touch(node, "c", 3))  # sheds `first`
        with pytest.raises(AdmissionError) as excinfo:
            first.wait(1.0)
        assert excinfo.value.reason == "shed"
        stats = front.stats()["tenants"]["kg"]
        assert stats["shed"] == 1

    def test_close_fails_pending_acks_and_refuses_submits(self,
                                                          small_kg_workload):
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules)
            front = IngestFront(service)
            front.register("kg")
            node = _first_node(service, "kg")
            ack = front.submit("kg", _touch(node, "x", 1))
            front.close()
            with pytest.raises(AdmissionError) as excinfo:
                ack.wait(1.0)
            assert excinfo.value.reason == "shutdown"
            with pytest.raises(AdmissionError):
                front.submit("kg", _touch(node, "y", 2))
            front.close()  # idempotent

    def test_priority_prefers_stale_over_flooded(self, small_kg_workload,
                                                 small_movie_workload):
        """A flooding tenant's pending-work boost is capped: the tenant
        whose staleness/SLA ratio is worse wins the repair slot."""
        with GraphRepairService(inline_pool=True) as service:
            service.serve("flood", small_kg_workload.dirty.copy(name="flood"),
                          small_kg_workload.rules)
            service.serve("quiet",
                          small_movie_workload.dirty.copy(name="quiet"),
                          small_movie_workload.rules)
            config = IngestConfig(max_repairs_per_tick=1)
            with IngestFront(service, config) as front:
                # quiet: tight SLA; flood: loose SLA but huge queue volume
                front.register("flood", TenantQuota(max_pending=4096,
                                                    sla_seconds=1000.0))
                front.register("quiet", TenantQuota(sla_seconds=0.01))
                flood_node = _first_node(service, "flood")
                quiet_node = _first_node(service, "quiet")
                front.submit_many("flood", [_touch(flood_node, f"f{i}", i)
                                            for i in range(50)])
                front.submit("quiet", _touch(quiet_node, "q", 1))
                front.flush()
                time.sleep(0.05)  # quiet's staleness >> its 10ms SLA
                front.tick()
                stats = front.stats()["tenants"]
                assert stats["quiet"]["repairs"] == 1
                assert stats["flood"]["repairs"] == 0

    def test_no_starvation_under_sustained_flood(self, small_kg_workload,
                                                 small_movie_workload):
        """With one repair slot per tick and the flooder resubmitting every
        tick, the quiet tenant still gets repaired within a few ticks."""
        with GraphRepairService(inline_pool=True) as service:
            service.serve("flood", small_kg_workload.dirty.copy(name="flood"),
                          small_kg_workload.rules)
            service.serve("quiet",
                          small_movie_workload.dirty.copy(name="quiet"),
                          small_movie_workload.rules)
            config = IngestConfig(max_repairs_per_tick=1)
            with IngestFront(service, config) as front:
                front.register("flood", TenantQuota(max_pending=4096))
                front.register("quiet")
                flood_node = _first_node(service, "flood")
                quiet_node = _first_node(service, "quiet")
                front.submit("quiet", _touch(quiet_node, "q", 1))
                for tick in range(20):
                    front.submit_many(
                        "flood", [_touch(flood_node, f"f{tick}_{i}", i)
                                  for i in range(10)])
                    front.tick()
                    time.sleep(0.005)  # staleness accrues between ticks
                    if front.stats()["tenants"]["quiet"]["repairs"] >= 1:
                        break
                assert front.stats()["tenants"]["quiet"]["repairs"] >= 1

    def test_background_thread_drains_and_repairs(self, served):
        service, front = served
        node = _first_node(service, "kg")
        front.start()
        assert front.running
        with pytest.raises(IngestError):
            front.start()  # already running
        acks = front.submit_many(
            "kg", [_touch(node, f"bg{i}", i) for i in range(8)])
        for ack in acks:
            ack.wait(5.0)
        front.wait_for_repair("kg", acks[-1].wait(0.0), timeout=5.0)
        front.stop()
        assert not front.running

    def test_sharded_tenant_repairs_under_pool_lease(self, small_kg_workload):
        with GraphRepairService(inline_pool=True) as service:
            service.serve(
                "kg", small_kg_workload.dirty.copy(name="kg"),
                small_kg_workload.rules,
                config=RepairConfig.sharded(workers=2, parallel_inline=True,
                                            min_partition_nodes=1))
            with IngestFront(service) as front:
                front.register("kg")
                node = _first_node(service, "kg")
                front.submit("kg", _touch(node, "sharded", 1))
                front.tick()
                assert front.stats()["tenants"]["kg"]["repairs"] == 1
                assert service.pool_stats["leases"] >= 1


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.002)


class _RecordingEvent(threading.Event):
    """A wake-up event that records the timeout of every wait."""

    def __init__(self) -> None:
        super().__init__()
        self.timeouts: list = []

    def wait(self, timeout=None):
        self.timeouts.append(timeout)
        return super().wait(timeout)


def _passed(front):
    """Whether the started front has run its first pass."""
    return front.stats()["ticks"] >= 1


def _repairs(front):
    return front.stats()["tenants"]["kg"]["repairs"]


class TestWakeOnWork:
    """The background thread runs a pass only when there is work: a
    submit, a registration, a commit by any caller, a closing backoff
    window, or a stop."""

    def test_idle_front_runs_no_pass_and_no_timed_wait(self, served):
        _, front = served
        wake = _RecordingEvent()
        wake.set()  # carries the registration's wake-up over
        front._wake = wake
        front.start()
        _wait_until(lambda: _passed(front))
        ticks = front.stats()["ticks"]
        time.sleep(0.35)
        assert front.stats()["ticks"] == ticks == 1
        assert wake.timeouts and all(t is None for t in wake.timeouts)

    def test_edits_queued_during_a_commit_form_the_next_commit(
            self, served, monkeypatch):
        service, front = served
        session = service.sessions.get("kg")
        original = session.apply_many
        batches: list[int] = []
        entered, release = threading.Event(), threading.Event()

        def held(edits):
            batches.append(len(edits))
            if len(batches) == 1:
                entered.set()
                assert release.wait(5.0)
            return original(edits)

        monkeypatch.setattr(session, "apply_many", held)
        node = _first_node(service, "kg")
        front.start()
        first = front.submit("kg", _touch(node, "first", 0))
        assert entered.wait(5.0)
        later = front.submit_many(
            "kg", [_touch(node, f"later{i}", i) for i in range(4)])
        release.set()
        sequences = {ack.wait(5.0) for ack in later}
        assert batches == [1, 4]
        assert len(sequences) == 1 and first.wait(0.0) < sequences.pop()
        assert front.stats()["tenants"]["kg"]["commits"] == 2

    def test_no_wake_up_is_lost_under_concurrent_producers(self, served):
        """Closed-loop producers racing the thread's passes: each waits for
        its edit's commit before the next submit, so a lost wake-up leaves
        an ack unresolved with nothing left to rescue it."""
        service, front = served
        node = _first_node(service, "kg")
        front.start()
        sequences: list[int] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def produce(worker):
            try:
                for i in range(25):
                    ack = front.submit("kg", _touch(node, f"w{worker}_{i}", i))
                    sequence = ack.wait(10.0)
                    with lock:
                        sequences.append(sequence)
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=produce, args=(w,))
                       for w in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and len(sequences) == 100
        front.wait_for_repair("kg", max(sequences), timeout=5.0)
        assert front.stats()["tenants"]["kg"]["committed"] == 100

    def test_commit_during_an_idle_pass_is_not_lost(self, served,
                                                    monkeypatch):
        """A commit published while an idle pass runs, after its repair
        phase looked, is repaired by the next pass: the wake-up is cleared
        before a pass, never after."""
        service, front = served
        front.start()
        _wait_until(lambda: _passed(front))
        original = front._fire_repair_waiters
        injected: list[int] = []

        def inject(*args, **kwargs):
            if not injected:
                service.apply("kg", _touch(_first_node(service, "kg"),
                                           "mid_pass", 1))
                injected.append(service.sessions.get("kg").last_sequence)
            return original(*args, **kwargs)

        monkeypatch.setattr(front, "_fire_repair_waiters", inject)
        front._wake.set()  # one idle pass, which makes the commit mid-pass
        _wait_until(lambda: bool(injected))
        front.wait_for_repair("kg", injected[0], timeout=5.0)

    def test_stop_returns_promptly_from_an_idle_wait(self, served):
        _, front = served
        front.start()
        _wait_until(lambda: _passed(front))
        thread = front._thread
        started = time.monotonic()
        front.stop()
        assert time.monotonic() - started < 1.0
        assert not thread.is_alive() and not front.running

    def test_failed_repair_is_retried_when_its_backoff_closes(
            self, small_kg_workload, monkeypatch):
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules)
            original = service.repair
            calls = []

            def flaky(name):
                calls.append(time.monotonic())
                if len(calls) == 1:
                    raise RuntimeError("transient")
                return original(name)

            monkeypatch.setattr(service, "repair", flaky)
            config = IngestConfig(repair_backoff_base=0.05)
            with IngestFront(service, config) as front:
                front.register("kg")
                ack = front.submit("kg", _touch(_first_node(service, "kg"),
                                                "x", 1))
                front.start()
                front.wait_for_repair("kg", ack.wait(5.0), timeout=5.0)
                # the waiter fires inside the repair, before it is counted
                _wait_until(lambda: _repairs(front) == 1)
                stats = front.stats()["tenants"]["kg"]
                assert stats["submitted"] == 1 and stats["backoffs"] == 1
                assert len(calls) == 2
                # the window opens when the pass starts, just before the
                # first call, and the retry waits for it to close
                assert calls[1] - calls[0] >= 0.04

    def test_direct_commit_to_a_registered_tenant_gets_repaired(self,
                                                                served):
        service, front = served
        front.start()
        _wait_until(lambda: _passed(front))
        service.apply("kg", _touch(_first_node(service, "kg"), "direct", 1))
        sequence = service.sessions.get("kg").last_sequence
        front.wait_for_repair("kg", sequence, timeout=5.0)
        _wait_until(lambda: _repairs(front) == 1)
        assert front.stats()["tenants"]["kg"]["submitted"] == 0

    def test_deregister_and_close_remove_the_commit_hook(self, served):
        service, front = served
        session = service.sessions.get("kg")
        hooks = len(session._feed_subscribers)
        front.deregister("kg")
        assert len(session._feed_subscribers) == hooks - 1
        front.register("kg")
        front.close()
        assert len(session._feed_subscribers) == hooks - 1


class TestStalenessAccounting:
    def test_pending_deltas_track_unrepaired_commits(self, served):
        service, front = served
        node = _first_node(service, "kg")
        assert service.staleness()["kg"].pending_deltas == 0
        front.submit_many("kg", [_touch(node, f"p{i}", i) for i in range(3)])
        front.flush("kg")
        stale = service.staleness()["kg"]
        assert stale.pending_deltas == stale.last_sequence > 0
        service.repair("kg")
        after = service.staleness()["kg"]
        assert after.pending_deltas == 0
        assert after.repaired_through == after.last_sequence

    def test_noop_repair_resets_staleness_clock(self, served):
        service, front = served
        service.repair("kg")  # clean everything
        before = service.staleness()["kg"].seconds_since_repair
        time.sleep(0.03)
        assert service.staleness()["kg"].seconds_since_repair > before
        service.repair("kg")  # no-op: publishes nothing
        assert service.staleness()["kg"].seconds_since_repair < 0.03

    def test_staleness_gauges_in_snapshot(self, served):
        service, front = served
        node = _first_node(service, "kg")
        front.submit("kg", _touch(node, "x", 1))
        front.flush("kg")
        with telemetry.collecting():
            snapshot = service.telemetry_snapshot()
            staleness = snapshot.get("repro_tenant_staleness_seconds")
            pending = snapshot.get("repro_tenant_pending_deltas")
            assert staleness is not None and pending is not None
            assert staleness.value(tenant="kg") >= 0.0
            assert pending.value(tenant="kg") \
                == service.staleness()["kg"].pending_deltas > 0


class TestRestoreSeeding:
    def _durable(self, tmp_path):
        return DurabilityConfig(dir=tmp_path, fsync=False)

    def test_unrepaired_recovery_marks_tenant_dirty(self, tmp_path,
                                                    small_kg_workload):
        config = self._durable(tmp_path)
        with GraphRepairService(inline_pool=True) as service:
            session = service.serve("kg",
                                    small_kg_workload.dirty.copy(name="kg"),
                                    small_kg_workload.rules, durable=config)
            node = next(iter(session.graph.nodes())).id
            service.apply("kg", _touch(node, "x", 1))  # commit, never repair
        with GraphRepairService(inline_pool=True) as service:
            service.restore("kg", small_kg_workload.rules, durable=config)
            assert not service.recovery_info("kg").known_clean
            stale = service.staleness()["kg"]
            assert stale.recovered_dirty and stale.dirty
            with IngestFront(service) as front:
                front.register("kg")
                result = front.tick()  # no queued edits, still repairs
                assert result["repairs"] == 1
                assert not service.staleness()["kg"].dirty

    def test_repaired_recovery_is_known_clean(self, tmp_path,
                                              small_kg_workload):
        config = self._durable(tmp_path)
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules, durable=config)
            service.repair("kg")  # publishes a repair record
        with GraphRepairService(inline_pool=True) as service:
            service.restore("kg", small_kg_workload.rules, durable=config)
            recovered = service.recovery_info("kg")
            assert recovered.known_clean
            assert recovered.last_repair_sequence > 0
            # a proven-clean recovery does NOT mark the tenant dirty
            assert not service.staleness()["kg"].dirty
            with IngestFront(service) as front:
                front.register("kg")
                assert front.tick()["repairs"] == 0


class TestBufferedFeed:
    def test_never_draining_subscriber_does_not_stall_commits(self, served):
        """Regression: a subscriber that never drains must cost a bounded
        buffer, never a blocked commit or scheduler tick."""
        service, front = served
        node = _first_node(service, "kg")
        feed = BufferedFeed(lambda cb: service.subscribe("kg", cb),
                            capacity=4, tenant="kg")
        started = time.monotonic()
        for i in range(20):
            ack = front.submit("kg", _touch(node, f"p{i}", i))
            front.tick()
            ack.wait(1.0)
        elapsed = time.monotonic() - started
        assert elapsed < 30.0  # ticked 20 times without ever blocking
        assert len(feed) == 4  # bounded
        assert feed.dropped > 0  # oldest records were shed, counted
        feed.close()

    def test_drop_oldest_keeps_newest_records(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="kg")
        with RepairSession(graph, small_kg_workload.rules,
                           config=RepairConfig.fast()) as session:
            feed = BufferedFeed(session.on_commit, capacity=2, tenant="kg")
            node = next(iter(graph.nodes())).id
            for i in range(5):
                session.apply(_touch(node, f"p{i}", i))
            records = feed.poll()
            assert [r.sequence for r in records] == [4, 5]
            assert feed.dropped == 3

    def test_get_blocks_then_times_out(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="kg")
        with RepairSession(graph, small_kg_workload.rules,
                           config=RepairConfig.fast()) as session:
            with BufferedFeed(session.on_commit, capacity=8) as feed:
                assert feed.get(timeout=0.02) is None
                node = next(iter(graph.nodes())).id
                session.apply(_touch(node, "x", 1))
                record = feed.get(timeout=1.0)
                assert record is not None and record.sequence == 1

    def test_close_unsubscribes(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="kg")
        with RepairSession(graph, small_kg_workload.rules,
                           config=RepairConfig.fast()) as session:
            feed = BufferedFeed(session.on_commit, capacity=8)
            feed.close()
            node = next(iter(graph.nodes())).id
            session.apply(_touch(node, "x", 1))
            assert len(feed) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BufferedFeed(lambda cb: (lambda: None), capacity=0)


class TestApplyMany:
    def test_apply_many_equals_sequential_applies(self, small_kg_workload):
        node_edits = None
        sequential = small_kg_workload.dirty.copy(name="seq")
        with RepairSession(sequential, small_kg_workload.rules,
                           config=RepairConfig.fast()) as session:
            node = next(iter(sequential.nodes())).id
            node_edits = [_touch(node, f"p{i}", i) for i in range(4)]
            for edit in node_edits:
                session.apply(edit)
            sequential_feed = session.last_sequence
        batched = small_kg_workload.dirty.copy(name="batch")
        with RepairSession(batched, small_kg_workload.rules,
                           config=RepairConfig.fast()) as session:
            session.apply_many(node_edits)
            assert session.last_sequence == 1  # ONE record for the batch
        assert sequential_feed == 4
        assert exactly_equal(sequential, batched)

    def test_apply_many_requires_edits(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="kg")
        with RepairSession(graph, small_kg_workload.rules,
                           config=RepairConfig.fast()) as session:
            with pytest.raises(ValueError):
                session.apply_many([])


#: what a drawn edit can create: kg labels, names that collide on purpose
#: (duplicate persons), and every edge label the kg rules read
_NODE_LABELS = ("Person", "City", "Country", "Organization")
_EDGE_LABELS = ("bornIn", "inCountry", "nationality", "livesIn",
                "capitalOf", "headquarteredIn", "basedIn", "worksFor")
_NAMES = ("Ada", "Bob", "City-0", "Country-0")
_EDIT_KINDS = ("add_node", "remove_node", "update_node",
               "add_edge", "remove_edge", "update_edge")


def _stream_edit(kind, a, b, c):
    """One drawn edit.  It picks its targets in the graph it is applied
    to, so a stream applies cleanly whatever earlier edits and repairs
    left behind, and two graphs that are exactly equal stay so."""
    def edit(graph):
        nodes = sorted(graph.node_ids())
        edges = sorted(graph.edge_ids())
        if kind == "add_node":
            graph.add_node(_NODE_LABELS[a % len(_NODE_LABELS)],
                           {"name": _NAMES[b % len(_NAMES)]})
        elif kind == "remove_node" and nodes:
            graph.remove_node(nodes[a % len(nodes)])
        elif kind == "update_node" and nodes:
            graph.update_node(nodes[a % len(nodes)],
                              {"name": _NAMES[b % len(_NAMES)]})
        elif kind == "add_edge" and nodes:
            graph.add_edge(nodes[a % len(nodes)], nodes[b % len(nodes)],
                           _EDGE_LABELS[c % len(_EDGE_LABELS)],
                           {"confidence": (c % 4 + 1) / 4})
        elif kind == "remove_edge" and edges:
            graph.remove_edge(edges[a % len(edges)])
        elif kind == "update_edge" and edges:
            graph.update_edge(edges[a % len(edges)],
                              {"confidence": (b % 4 + 1) / 4})
    return edit


@st.composite
def _batched_streams(draw):
    """An edit stream, a partition of it into batches, and for each batch
    whether a repair follows it."""
    specs = draw(st.lists(
        st.tuples(st.sampled_from(_EDIT_KINDS), st.integers(0, 999),
                  st.integers(0, 999), st.integers(0, 7)),
        min_size=1, max_size=12))
    cuts = draw(st.sets(st.integers(1, len(specs) - 1))) \
        if len(specs) > 1 else set()
    bounds = [0, *sorted(cuts), len(specs)]
    batches = [specs[start:end] for start, end in zip(bounds, bounds[1:])]
    repairs = draw(st.lists(st.booleans(), min_size=len(batches),
                            max_size=len(batches)))
    return list(zip(batches, repairs))


class TestCoalescingIsInvisible:
    @given(stream=_batched_streams())
    @settings(max_examples=25, deadline=None)
    def test_front_equals_one_edit_at_a_time(self, small_kg_workload,
                                             stream):
        """Coalesced commits through the front leave the graph exactly as
        a bare session that commits the same edits one at a time and
        repairs at the same batch boundaries; the changefeed replays it."""
        rules = small_kg_workload.rules
        reference = small_kg_workload.dirty.copy(name="kg")
        with RepairSession(reference, rules) as session:
            session.repair()
            for batch, repair in stream:
                for spec in batch:
                    session.apply(_stream_edit(*spec))
                if repair:
                    session.repair()
        opening = small_kg_workload.dirty.copy(name="kg")
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", opening.copy(name="kg"), rules)
            service.repair("kg")
            with IngestFront(service) as front:
                front.register("kg")
                for batch, repair in stream:
                    front.submit_many(
                        "kg", [_stream_edit(*spec) for spec in batch])
                    if repair:
                        assert front.tick()["commits"] == 1
                    else:
                        assert front.flush("kg") == len(batch)
            live = service.sessions.get("kg").graph
            assert exactly_equal(live, reference)
            for record in service.deltas("kg"):
                record.replay_onto(opening)
            assert exactly_equal(opening, live)
