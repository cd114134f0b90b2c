"""Integration tests for telemetry across the repair stack.

The pinned contracts:

* **counter equivalence** — the telemetry counters recorded during a repair
  equal the :class:`RepairReport` / :class:`MatchingStats` the session
  returns, exactly, for every backend (sequential, sharded inline) and
  every domain workload — instrumentation is an observer, not a second
  bookkeeper;
* **span re-parenting** — a sharded repair exports one trace: the
  dispatching ``repair.fanout`` span with every worker's ``shard.repair``
  nested under it, including across a real spawn boundary;
* **exposition** — a live two-tenant service answers ``/metrics`` with
  per-tenant Prometheus series (repair latency buckets, WAL fsync latency,
  pool counters) and ``/healthz`` with per-tenant sequences;
* **graceful degradation is loud** — the previously-silent swallowed
  exception paths emit structured warnings without changing behavior.
"""

from __future__ import annotations

import json
import logging
import urllib.request

import pytest

from repro import telemetry
from repro.api import RepairConfig, RepairSession
from repro.durability import DurabilityConfig
from repro.service import GraphRepairService
from repro.telemetry import TELEMETRY, MetricsRegistry, Tracer
from repro.telemetry.exposition import CONTENT_TYPE

WORKLOADS = ["small_kg_workload", "small_movie_workload",
             "small_social_workload"]


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    """Fresh disabled global telemetry per test (the service endpoint tests
    enable the process-wide state; nothing may leak across tests)."""
    previous = (TELEMETRY.enabled, TELEMETRY.registry, TELEMETRY.tracer)
    TELEMETRY.enabled = False
    TELEMETRY.registry = MetricsRegistry()
    TELEMETRY.tracer = Tracer()
    yield
    TELEMETRY.enabled, TELEMETRY.registry, TELEMETRY.tracer = previous


def _counter(snapshot, name: str, **labels) -> float:
    metric = snapshot.get(name)
    return metric.value(**labels) if metric is not None else 0.0


def _assert_counters_equal_report(snapshot, report, stats, tenant: str,
                                  backend: str) -> None:
    labels = {"tenant": tenant, "backend": backend}
    assert _counter(snapshot, "repro_repairs_applied_total", **labels) \
        == report.repairs_applied
    assert _counter(snapshot, "repro_violations_detected_total", **labels) \
        == report.violations_detected
    assert _counter(snapshot, "repro_repairs_failed_total", **labels) \
        == report.repairs_failed
    assert _counter(snapshot, "repro_match_nodes_tried_total", **labels) \
        == stats.nodes_tried
    assert _counter(snapshot, "repro_matches_found_total", **labels) \
        == stats.matches_found
    assert _counter(snapshot, "repro_maintenance_passes_total", **labels) \
        == stats.maintenance_passes


class TestCounterEquivalence:
    @pytest.mark.parametrize("workload_name", WORKLOADS)
    @pytest.mark.parametrize("config", [RepairConfig.fast(),
                                        RepairConfig.naive()],
                             ids=["fast", "naive"])
    def test_sequential_counters_equal_report(self, request, workload_name,
                                              config):
        workload = request.getfixturevalue(workload_name)
        graph = workload.dirty.copy(name="tenant-x")
        with telemetry.collecting() as (registry, _tracer):
            with RepairSession(graph, workload.rules,
                               config=config) as session:
                report = session.repair()
                stats = session.stats
        assert report.repairs_applied > 0
        _assert_counters_equal_report(registry.snapshot(), report, stats,
                                      "tenant-x", config.backend)

    @pytest.mark.parametrize("workload_name", WORKLOADS)
    def test_sharded_counters_equal_report(self, request, workload_name):
        workload = request.getfixturevalue(workload_name)
        graph = workload.dirty.copy(name="tenant-x")
        config = RepairConfig.sharded(workers=2, parallel_inline=True,
                                      min_partition_nodes=1)
        with telemetry.collecting() as (registry, _tracer):
            with RepairSession(graph, workload.rules,
                               config=config) as session:
                report = session.repair()
                stats = session.stats
        _assert_counters_equal_report(registry.snapshot(), report, stats,
                                      "tenant-x", "sharded")

    def test_repair_latency_histogram_counts_calls(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="kg")
        with telemetry.collecting() as (registry, _tracer):
            with RepairSession(graph, small_kg_workload.rules,
                               config=RepairConfig.fast()) as session:
                session.repair()
                session.repair()  # second call: already clean, still timed
        metric = registry.snapshot().get("repro_repair_seconds")
        key = ("kg", "fast")
        assert metric.histograms[key][2] == 2
        assert metric.quantile(0.99, tenant="kg", backend="fast") > 0.0

    def test_commit_publishes_metrics(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="kg")
        with telemetry.collecting() as (registry, _tracer):
            with RepairSession(graph, small_kg_workload.rules,
                               config=RepairConfig.fast()) as session:
                session.repair()
        snapshot = registry.snapshot()
        assert _counter(snapshot, "repro_commits_total",
                        tenant="kg", source="repair") >= 1
        metric = snapshot.get("repro_commit_seconds")
        assert metric is None or metric.histograms == {} \
            or metric.quantile(0.5) >= 0.0

    def test_phase_histograms_cover_engine_phases(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="kg")
        with telemetry.collecting() as (registry, _tracer):
            with RepairSession(graph, small_kg_workload.rules,
                               config=RepairConfig.fast()) as session:
                session.repair()
        metric = registry.snapshot().get("repro_phase_seconds")
        phases = {key[0] for key in metric.histograms}
        assert "initial-detection" in phases


class TestSpanTrees:
    def test_sequential_repair_span(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="kg")
        with telemetry.collecting() as (_registry, tracer):
            with RepairSession(graph, small_kg_workload.rules,
                               config=RepairConfig.fast()) as session:
                session.repair()
        roots = [span for span in tracer.roots()
                 if span.name == "session.repair"]
        assert roots
        assert roots[0].attributes == {"tenant": "kg", "backend": "fast"}
        assert roots[0].duration > 0.0

    def test_inline_fanout_reparents_shard_spans(self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="kg")
        config = RepairConfig.sharded(workers=2, parallel_inline=True,
                                      min_partition_nodes=1)
        with telemetry.collecting() as (_registry, tracer):
            with RepairSession(graph, small_kg_workload.rules,
                               config=config) as session:
                session.repair()
        roots = [span for span in tracer.roots()
                 if span.name == "session.repair"]
        assert roots
        fanouts = [child for root in roots for child in root.children
                   if child.name == "repair.fanout"]
        assert fanouts
        assert all(span.attributes == {"tenant": "kg", "shards": 2}
                   for span in fanouts)
        shard_spans = [grandchild for span in fanouts
                       for grandchild in span.children
                       if grandchild.name == "shard.repair"]
        assert shard_spans
        trace_id = roots[0].trace_id
        for span in shard_spans:
            assert span.trace_id == trace_id
            assert span.parent_id in {f.span_id for f in fanouts}

    def test_spawned_worker_spans_cross_the_process_boundary(
            self, small_kg_workload):
        graph = small_kg_workload.dirty.copy(name="kg")
        config = RepairConfig.sharded(workers=2, min_partition_nodes=1)
        with telemetry.collecting() as (registry, tracer):
            with RepairSession(graph, small_kg_workload.rules,
                               config=config) as session:
                report = session.repair()
                stats = session.stats
        roots = [span for span in tracer.roots()
                 if span.name == "session.repair"]
        fanouts = [child for root in roots for child in root.children
                   if child.name == "repair.fanout"]
        assert fanouts
        shard_spans = [grandchild for span in fanouts
                       for grandchild in span.children
                       if grandchild.name == "shard.repair"]
        assert shard_spans
        processes = {span.process for span in shard_spans}
        assert processes and all(p.startswith("shard-") for p in processes)
        assert {span.trace_id for span in shard_spans} \
            == {roots[0].trace_id}
        # shipped shard registries were absorbed: counters still exact
        _assert_counters_equal_report(registry.snapshot(), report, stats,
                                      "kg", "sharded")


class TestServiceExposition:
    def test_two_tenant_metrics_endpoint(self, small_kg_workload,
                                         small_movie_workload, tmp_path):
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules, shards=2)
            service.serve("movies",
                          small_movie_workload.dirty.copy(name="movies"),
                          small_movie_workload.rules,
                          durable=DurabilityConfig(dir=tmp_path,
                                                   snapshot_every=4))
            server = service.start_metrics_server()
            assert service.metrics_server is server
            assert TELEMETRY.enabled
            service.repair_all()

            with urllib.request.urlopen(f"{server.url}/metrics") as response:
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode()
            # per-tenant repair latency buckets
            assert 'repro_repair_seconds_bucket{tenant="kg"' in body
            assert 'repro_repair_seconds_bucket{tenant="movies"' in body
            # the durable tenant's WAL fsync latency
            assert 'repro_wal_fsync_seconds_count{tenant="movies"}' in body
            assert 'repro_snapshot_sequence{tenant="movies"}' in body
            # pool activity from the sharded tenant
            assert 'repro_pool_binds_total{shard=' in body
            # scrape-time gauges
            assert 'repro_feed_sequence{tenant="kg"}' in body
            assert 'repro_feed_sequence_lag{tenant="movies"}' in body

            with urllib.request.urlopen(f"{server.url}/healthz") as response:
                health = json.load(response)
            assert health["status"] == "ok"
            assert set(health["tenants"]) == {"kg", "movies"}
            assert health["tenants"]["kg"] >= 1

            url = server.url
        # close() shut the endpoint down with the service
        assert service.metrics_server is None or service.closed
        with pytest.raises(OSError):
            urllib.request.urlopen(f"{url}/metrics", timeout=0.5)

    def test_snapshot_gauges_track_sequences(self, small_kg_workload,
                                             tmp_path):
        telemetry.enable()
        try:
            with GraphRepairService(inline_pool=True) as service:
                session = service.serve(
                    "kg", small_kg_workload.dirty.copy(name="kg"),
                    small_kg_workload.rules,
                    durable=DurabilityConfig(dir=tmp_path,
                                             snapshot_every=1000))
                service.repair("kg")
                snapshot = service.telemetry_snapshot()
                assert snapshot.get("repro_feed_sequence").value(tenant="kg") \
                    == session.last_sequence
                lag = snapshot.get("repro_feed_sequence_lag").value(tenant="kg")
                age = snapshot.get("repro_snapshot_age_records") \
                    .value(tenant="kg")
                # snapshot_every=1000: nothing snapshotted yet, every record
                # since the initial snapshot would need replay
                assert lag == age
                assert lag >= 0
        finally:
            telemetry.disable()

    def test_second_metrics_server_is_refused(self, small_kg_workload):
        from repro.exceptions import ServiceError

        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules)
            service.start_metrics_server()
            with pytest.raises(ServiceError):
                service.start_metrics_server()


class TestLoudDegradation:
    def test_unsubscribe_failure_warns_and_still_closes(
            self, small_kg_workload, tmp_path, caplog):
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules,
                          durable=DurabilityConfig(dir=tmp_path))
            service.repair("kg")
            sink = service.durability("kg")

            def _boom():
                raise RuntimeError("hook table corrupted")

            sink._unsubscribe = _boom
            with caplog.at_level(logging.WARNING, logger="repro"):
                service.stop_serving("kg")
            assert sink.closed
        messages = [record.message for record in caplog.records]
        assert any("changefeed-unsubscribe-failed" in message
                   and "tenant=kg" in message
                   and "RuntimeError: hook table corrupted" in message
                   for message in messages)

    def test_wal_metrics_only_when_enabled(self, small_kg_workload,
                                           tmp_path):
        # disabled: the durable path runs bare — no registry writes at all
        with GraphRepairService(inline_pool=True) as service:
            service.serve("kg", small_kg_workload.dirty.copy(name="kg"),
                          small_kg_workload.rules,
                          durable=DurabilityConfig(dir=tmp_path))
            service.repair("kg")
        snapshot = TELEMETRY.registry.snapshot()
        assert snapshot.get("repro_wal_records_total") is None
