"""The durability subsystem: codec, WAL, snapshots, recovery, service wiring.

The contract under test, end to end: a tenant served with
``durable=DurabilityConfig(dir=...)`` can lose its process at any moment —
including SIGKILL mid-append — and ``restore()`` brings back a graph
element-for-element identical to the uninterrupted run's acknowledged
prefix: same ids, labels, properties, and the same fresh-id stream.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RepairConfig, RepairSession
from repro.exceptions import DurabilityError, ServiceError
from repro.graph.property_graph import PropertyGraph
from repro.rules.grr import RuleSet
from repro.durability import (
    DurabilityConfig,
    TenantDurability,
    WriteAheadLog,
    codec,
    has_tenant_state,
    recover,
)
from repro.durability.snapshot import (
    latest_snapshot,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    write_snapshot,
)
from repro.durability.wal import (
    list_segments,
    read_segment,
    segment_first_sequence,
)
from repro.service import GraphRepairService

import durability_driver
from graph_oracle import canonical_graph, exactly_equal


# ---------------------------------------------------------------------------
# the value / record codec
# ---------------------------------------------------------------------------


class TestCodec:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -7, 1.5, "plain", "",
        (1, "two", (3,)), [1, [2, ("x",)]],
        b"\x00\xff", bytearray(b"ab"),
        {"nested": {"deep": (1, 2)}},
        {1: "intkey", (2, 3): "tuplekey"},
        {"$tuple": "not-a-tag-really"},
        frozenset({1, 2}), {"a", "b"},
        float("inf"), float("-inf"),
    ], ids=repr)
    def test_value_round_trip(self, value):
        document = codec.encode_value(value)
        # the wire form must survive real JSON serialisation
        rebuilt = codec.decode_value(codec.loads(codec.dumps({"x": document}))["x"])
        assert rebuilt == value
        assert type(rebuilt) is type(value) or isinstance(value, bytearray)

    def test_nan_round_trips_as_nan(self):
        rebuilt = codec.decode_value(codec.encode_value(float("nan")))
        assert math.isnan(rebuilt)

    def test_arbitrary_hashable_falls_back_to_pickle(self):
        value = complex(2, 3)
        document = codec.encode_value(value)
        assert "$pickle" in document
        assert codec.decode_value(document) == value

    def test_unknown_tag_raises(self):
        with pytest.raises(DurabilityError, match="unknown value tag"):
            codec.decode_value({"$fancy": 1})

    def test_newer_format_version_refused(self):
        record = codec.encode_record(1, "commit", _one_change_delta())
        record["v"] = codec.FORMAT_VERSION + 1
        with pytest.raises(DurabilityError, match="newer than this codec"):
            codec.decode_record(record)
        with pytest.raises(DurabilityError, match="no format version"):
            codec.check_version({"seq": 1})

    def test_record_round_trip_through_bytes(self):
        delta = _one_change_delta()
        payload = codec.dumps(codec.encode_record(41, "repair", delta))
        sequence, source, rebuilt = codec.decode_record(codec.loads(payload))
        assert (sequence, source) == (41, "repair")
        assert [c.kind for c in rebuilt.changes] == [c.kind for c in delta.changes]

    def test_graph_snapshot_restores_id_counters(self):
        graph = PropertyGraph(name="g")
        doomed = graph.add_node("Person", {"score": float("nan")})
        graph.add_node("City", {"name": ("x", 1)})
        graph.remove_node(doomed.id)  # the counter remembers what ids are burnt
        rebuilt = codec.decode_graph(codec.loads(codec.dumps(
            codec.encode_graph(graph))))
        assert exactly_equal(rebuilt, graph)
        assert rebuilt.add_node("X").id == graph.add_node("X").id


def _one_change_delta():
    from repro.graph.delta import recording

    graph = PropertyGraph(name="d")
    with recording(graph) as recorder:
        graph.add_node("Person", {"v": (1, float("nan"))})
    return recorder.drain()


# ---------------------------------------------------------------------------
# the write-ahead log
# ---------------------------------------------------------------------------


def _record(sequence: int) -> dict:
    return codec.encode_record(sequence, "commit", _one_change_delta())


class TestWriteAheadLog:
    def test_append_read_round_trip_across_reopen(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            for sequence in range(1, 6):
                wal.append(_record(sequence))
            assert wal.last_sequence == 5
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            assert wal.last_sequence == 5
            assert [r["seq"] for r in wal.records()] == [1, 2, 3, 4, 5]
            assert [r["seq"] for r in wal.records(after=3)] == [4, 5]

    def test_dense_sequences_enforced(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            wal.append(_record(1))
            with pytest.raises(DurabilityError, match="out-of-order"):
                wal.append(_record(3))
            with pytest.raises(DurabilityError, match="out-of-order"):
                wal.append(_record(1))

    def test_rotation_and_truncation(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=256, fsync=False) as wal:
            for sequence in range(1, 21):
                wal.append(_record(sequence))
            segments = list_segments(tmp_path)
            assert len(segments) > 2
            # truncating through a mid-log sequence drops only whole segments
            deleted = wal.truncate_through(wal.last_sequence - 1)
            assert deleted >= 1
            assert [r["seq"] for r in wal.records()][-1] == 20
            # the tail segment always survives
            assert wal.truncate_through(10 ** 9) < len(segments)
            assert list_segments(tmp_path)
            # appends continue after truncation released earlier segments
            wal.append(_record(21))
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            assert wal.last_sequence == 21

    def test_empty_log_resumes_mid_history(self, tmp_path):
        """After a snapshot truncated everything, the next append resumes at
        the tenant's global sequence, not at 1."""
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            wal.append(_record(500))
            wal.append(_record(501))
            with pytest.raises(DurabilityError):
                wal.append(_record(600))

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            for sequence in range(1, 4):
                wal.append(_record(sequence))
        (tail,) = list_segments(tmp_path)
        with tail.open("ab") as handle:  # a crash mid-append: half a frame
            handle.write(b"\x99\x00\x00\x00partial")
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            assert wal.last_sequence == 3
            assert [r["seq"] for r in wal.records()] == [1, 2, 3]
            wal.append(_record(4))  # and the log keeps going
        records, _ = read_segment(tail, is_tail=True)
        assert [r["seq"] for r in records] == [1, 2, 3, 4]

    def test_torn_before_magic_drops_the_segment(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=64, fsync=False) as wal:
            wal.append(_record(1))
            wal.append(_record(2))  # rotated: two segments now
        segments = list_segments(tmp_path)
        segments[-1].write_bytes(b"RW")  # torn during segment creation
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            assert wal.last_sequence == 1
            wal.append(_record(2))

    def test_sealed_segment_corruption_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=64, fsync=False) as wal:
            for sequence in range(1, 4):
                wal.append(_record(sequence))
        first = list_segments(tmp_path)[0]
        data = bytearray(first.read_bytes())
        data[len(data) // 2] ^= 0xFF
        first.write_bytes(bytes(data))
        with pytest.raises(DurabilityError, match="damaged beyond torn-tail"):
            WriteAheadLog(tmp_path, fsync=False)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


class TestSnapshots:
    def test_write_load_latest_and_prune(self, tmp_path):
        graph = PropertyGraph(name="s")
        graph.add_node("Person", {"x": (1, 2)})
        for sequence in (10, 20, 30):
            graph.add_node("City", {"seq": sequence})
            write_snapshot(tmp_path, graph, sequence, fsync=False)
        loaded, sequence = load_snapshot(list_snapshots(tmp_path)[-1])
        assert sequence == 30 and exactly_equal(loaded, graph)
        assert prune_snapshots(tmp_path, keep=2) == 1
        assert [p.name for p in list_snapshots(tmp_path)] \
            == [f"snapshot-{s:012d}.snap" for s in (20, 30)]
        # keep below the fallback floor is coerced up
        assert prune_snapshots(tmp_path, keep=0) == 0

    def test_corrupt_latest_falls_back(self, tmp_path):
        graph = PropertyGraph(name="s")
        graph.add_node("Person")
        write_snapshot(tmp_path, graph, 10, fsync=False)
        graph.add_node("Person")
        newest = write_snapshot(tmp_path, graph, 20, fsync=False)
        newest.write_bytes(newest.read_bytes()[:-9])  # mangle the body
        loaded, sequence, path = latest_snapshot(tmp_path)
        assert sequence == 10
        assert loaded.num_nodes == 1

    def test_no_intact_snapshot_is_none(self, tmp_path):
        assert latest_snapshot(tmp_path) is None


# ---------------------------------------------------------------------------
# the tenant sink + recovery
# ---------------------------------------------------------------------------


class TestTenantDurability:
    def _config(self, tmp_path, **overrides) -> DurabilityConfig:
        options = {"snapshot_every": 4, "fsync": False}
        options.update(overrides)
        return DurabilityConfig(dir=tmp_path, **options)

    def test_recover_matches_live_session_exactly(self, tmp_path,
                                                  small_kg_workload):
        config = self._config(tmp_path)
        graph = small_kg_workload.dirty.copy(name="kg")
        sink = TenantDurability("kg", config)
        sink.bootstrap(graph)
        with RepairSession(graph, small_kg_workload.rules) as session:
            sink.attach(session)
            session.repair()                       # repair records
            session.apply(lambda g: g.add_node("City", {"name": "Geneva"}))
            session.stage(lambda g: g.add_node("City", {"name": "doomed"}))
            session.rollback()                     # never reaches the log
            session.repair()
            for index in range(4):                 # past the snapshot cadence
                session.apply(lambda g: g.add_node("P", {"i": index}))
            assert sink.records_appended == session.last_sequence
            assert sink.snapshots_written >= 1
        sink.close()
        recovered = recover("kg", config)
        assert recovered.sequence == sink.global_sequence
        assert recovered.records_replayed <= config.snapshot_every
        assert exactly_equal(recovered.graph, graph)
        # the fresh-id streams agree too: recovery is a true continuation
        assert recovered.graph.add_node("X").id == graph.add_node("X").id

    def test_wal_is_written_before_commit_acknowledges(self, tmp_path):
        """The write-ahead contract: when a later subscriber (a replica, the
        caller) observes a record, it is already durable."""
        config = self._config(tmp_path)
        graph = PropertyGraph(name="kg")
        observed: list[tuple[int, int]] = []
        sink = TenantDurability("kg", config)
        sink.bootstrap(graph)
        with RepairSession(graph, RuleSet([])) as session:
            session.on_commit(lambda record: observed.append(
                (record.sequence, sink.wal.last_sequence)))
            sink.attach(session)   # attached after — prepend outranks order
            session.apply(lambda g: g.add_node("Person"))
            session.apply(lambda g: g.add_node("Person"))
        sink.close()
        assert observed == [(1, 1), (2, 2)]

    def test_snapshot_cadence_bounds_replay(self, tmp_path):
        config = self._config(tmp_path, snapshot_every=3)
        graph = PropertyGraph(name="kg")
        sink = TenantDurability("kg", config)
        sink.bootstrap(graph)
        with RepairSession(graph, RuleSet([])) as session:
            sink.attach(session)
            for index in range(10):
                session.apply(lambda g: g.add_node("P", {"i": index}))
        assert sink.snapshots_written == 3     # at sequences 3, 6, 9
        assert sink.stats()["global_sequence"] == 10
        sink.close()
        assert recover("kg", config).records_replayed == 1  # only seq 10

    def test_bootstrap_and_attach_refuse_misuse(self, tmp_path):
        config = self._config(tmp_path)
        graph = PropertyGraph(name="kg")
        sink = TenantDurability("kg", config)
        sink.bootstrap(graph)
        with pytest.raises(DurabilityError, match="already has durable"):
            sink.bootstrap(graph)
        with RepairSession(graph, RuleSet([])) as session:
            session.apply(lambda g: g.add_node("P"))
            with pytest.raises(DurabilityError, match="never saw"):
                sink.attach(session)
        sink.close()
        sink.close()  # idempotent

    def test_lost_segment_fails_recovery_loudly(self, tmp_path):
        config = self._config(tmp_path, snapshot_every=1000,
                              segment_bytes=256)
        graph = PropertyGraph(name="kg")
        sink = TenantDurability("kg", config)
        sink.bootstrap(graph)
        with RepairSession(graph, RuleSet([])) as session:
            sink.attach(session)
            for index in range(20):
                session.apply(lambda g: g.add_node("P", {"i": index}))
        sink.close()
        segments = list_segments(config.tenant_dir("kg"))
        assert len(segments) > 2
        segments[1].unlink()  # a middle segment vanishes
        with pytest.raises(DurabilityError, match="gap"):
            recover("kg", config)

    def test_recover_without_state_raises(self, tmp_path):
        with pytest.raises(DurabilityError, match="no durable state"):
            recover("ghost", self._config(tmp_path))
        assert not has_tenant_state(self._config(tmp_path), "ghost")


# ---------------------------------------------------------------------------
# service wiring
# ---------------------------------------------------------------------------


class TestServiceDurability:
    def test_serve_stop_restore_continues_the_log(self, tmp_path,
                                                  small_kg_workload):
        config = DurabilityConfig(dir=tmp_path, snapshot_every=5, fsync=False)
        rules = small_kg_workload.rules
        with GraphRepairService() as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          rules, durable=config)
            service.repair("kg")
            service.apply("kg", lambda g: g.add_node("City", {"name": "Oslo"}))
            expected = canonical_graph(service.graph("kg"))
            stats = service.durability("kg").stats()
        with GraphRepairService() as service:
            session = service.restore("kg", rules, durable=config)
            assert session.graph.name == "kg"
            assert canonical_graph(session.graph) == expected
            info = service.recovery_info("kg")
            assert info.sequence == stats["global_sequence"]
            # new commits continue the same global log
            service.apply("kg", lambda g: g.add_node("City", {"name": "Rio"}))
            sink = service.durability("kg")
            assert sink.global_sequence == info.sequence + 1
        recovered = recover("kg", config)
        assert recovered.sequence == info.sequence + 1

    def test_serve_refuses_existing_state(self, tmp_path):
        config = DurabilityConfig(dir=tmp_path, fsync=False)
        with GraphRepairService() as service:
            service.serve("kg", PropertyGraph(name="kg"), RuleSet([]),
                          durable=config)
            service.apply("kg", lambda g: g.add_node("P"))
            service.stop_serving("kg")
            with pytest.raises(ServiceError, match="restore"):
                service.serve("kg", PropertyGraph(name="kg"), RuleSet([]),
                              durable=config)
            with pytest.raises(ServiceError, match="not served durably"):
                service.durability("kg")

    def test_non_durable_tenants_are_unaffected(self, tmp_path):
        with GraphRepairService() as service:
            service.serve("plain", PropertyGraph(name="plain"), RuleSet([]))
            service.apply("plain", lambda g: g.add_node("P"))
            with pytest.raises(ServiceError):
                service.durability("plain")
            with pytest.raises(ServiceError):
                service.recovery_info("plain")


# ---------------------------------------------------------------------------
# SIGKILL crash recovery
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_sigkill_mid_stream_restores_acknowledged_prefix(self, tmp_path):
        """Kill the serving process mid-append; the recovered graph must be
        element-for-element the uninterrupted run at the recovered sequence."""
        seed, steps, kill_after = 11, 100_000, 120
        driver = Path(durability_driver.__file__)
        env = dict(os.environ)
        src = str(Path(driver).parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, str(driver), str(tmp_path), str(seed),
             str(steps)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        tenant_dir = tmp_path / "kg"
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    pytest.fail("crash child exited early: "
                                + child.stderr.read().decode())
                if _observed_sequence(tenant_dir) >= kill_after:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("crash child never reached the kill point")
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)

        config = DurabilityConfig(
            dir=tmp_path, snapshot_every=durability_driver.SNAPSHOT_EVERY,
            fsync=False)
        recovered = recover("kg", config)
        assert recovered.sequence >= kill_after
        assert recovered.sequence < steps, "the kill landed mid-stream"
        reference = durability_driver.reference_run(recovered.sequence, seed)
        assert exactly_equal(recovered.graph, reference)
        assert recovered.graph.add_node("X").id == reference.add_node("X").id
        # and the restored tenant serves onward through the service API
        with GraphRepairService() as service:
            service.restore("kg", RuleSet([]), durable=config)
            service.apply("kg", lambda g: g.add_node("Survivor"))
            assert service.durability("kg").global_sequence \
                == recovered.sequence + 1


def _observed_sequence(tenant_dir: Path) -> int:
    """Read-only peek at the newest durable sequence while the child runs."""
    try:
        segments = list_segments(tenant_dir)
    except (DurabilityError, OSError):
        return 0
    if not segments:
        return 0
    try:
        records, _ = read_segment(segments[-1], is_tail=True)
    except (DurabilityError, OSError):
        return 0
    if records:
        return int(records[-1]["seq"])
    if len(segments) > 1:  # fresh tail, still empty: the name says enough
        return segment_first_sequence(segments[-1]) - 1
    return 0


# ---------------------------------------------------------------------------
# the hypothesis property: any committed history round-trips the codec
# ---------------------------------------------------------------------------


NODE_LABELS = ("Person", "City", "Country")
EDGE_LABELS = ("knows", "livesIn", "inCountry")

_pathological_values = st.sampled_from([
    float("nan"), float("inf"), (1, ("a", None)), b"\x00\x01",
    frozenset({1, 2}), {"k", "e"}, {1: "x", 2: "y"}, "plain", 7,
    {"$tuple": "tag-shaped-key"}, {(1, "a"): "tuple-key"},
])


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


class TestCodecReplayProperty:
    @given(graph=seed_graphs(), data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_committed_history_round_trips(self, graph, data):
        """Every committed mutation history — adds, removals, merges,
        relabels, rollback inverses, pathological property values — encoded
        record by record to wire bytes and decoded back rebuilds the exact
        graph."""
        opening = graph.copy(name="opening")
        wire: list[bytes] = []
        session = RepairSession(graph, [], config=RepairConfig.fast())
        session.on_commit(lambda record: wire.append(codec.dumps(
            codec.encode_record(record.sequence, record.source,
                                record.delta))))
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
                                   data.draw(st.sampled_from(EDGE_LABELS)),
                                   {"w": data.draw(_pathological_values)})
                    elif action == "remove_edge" and edge_ids:
                        g.remove_edge(data.draw(st.sampled_from(edge_ids)))
                    elif action == "add_node":
                        node = g.add_node(
                            data.draw(st.sampled_from(NODE_LABELS)),
                            {"v": data.draw(_pathological_values)})
                        if node_ids:
                            g.add_edge(node.id,
                                       data.draw(st.sampled_from(node_ids)),
                                       data.draw(st.sampled_from(EDGE_LABELS)))
                    elif action == "remove_node" and len(node_ids) > 2:
                        g.remove_node(data.draw(st.sampled_from(node_ids)))
                    elif action == "update" and node_ids:
                        g.update_node(data.draw(st.sampled_from(node_ids)),
                                      {"touched": data.draw(
                                          _pathological_values)})
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
                    # rollback exercises the inverse machinery; its edits
                    # must never reach the wire
                    session.stage(lambda g: g.add_node(
                        "Person", {"doomed": data.draw(_pathological_values)}))
                    session.rollback()
                else:
                    session.apply(edit)

            replica = opening.copy(name="replica")
            expected_sequence = 0
            for payload in wire:
                sequence, source, delta = codec.decode_record(
                    codec.loads(payload))
                assert sequence == expected_sequence + 1
                assert source in ("commit", "repair")
                expected_sequence = sequence
                from repro.graph.delta import replay_delta
                replay_delta(replica, delta)
            assert exactly_equal(replica, session.graph)
        finally:
            session.close()
