"""Unit tests for :mod:`repro.telemetry`: metrics, spans, logging,
exposition, the enablement contract, and the silent-except linter.

The load-bearing property is pinned by hypothesis: registry snapshots are
a commutative monoid under ``merge`` (associative, commutative, identity),
and merging per-shard snapshots in *any* order equals observing everything
in one registry — the exact contract the worker pool relies on when shard
results arrive in nondeterministic order.
"""

from __future__ import annotations

import importlib.util
import json
import logging
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.telemetry import (
    CATALOGUE,
    DEFAULT_LATENCY_BUCKETS,
    TELEMETRY,
    MetricsRegistry,
    RegistrySnapshot,
    Tracer,
    quantile_from_buckets,
    spans_to_chrome,
)
from repro.telemetry.exposition import (
    CONTENT_TYPE,
    TelemetryServer,
    render_prometheus,
)
from repro.telemetry.log import (
    get_logger,
    log_event,
    tenant_logger,
    warn_swallowed,
)

# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_inc_and_labels(self):
        registry = MetricsRegistry()
        family = registry.counter("hits", "hits", ("tenant",))
        family.labels(tenant="kg").inc()
        family.labels(tenant="kg").inc(2.0)
        family.labels(tenant="movies").inc(5.0)
        snap = registry.snapshot().get("hits")
        assert snap.value(tenant="kg") == 3.0
        assert snap.value(tenant="movies") == 5.0
        assert snap.total() == 8.0
        assert snap.value(tenant="never-seen") == 0.0

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        child = registry.gauge("level", "", ("tenant",)).labels(tenant="kg")
        child.set(10)
        child.inc(2.5)
        child.dec(0.5)
        assert registry.snapshot().get("level").value(tenant="kg") == 12.0

    def test_label_validation(self):
        registry = MetricsRegistry()
        family = registry.counter("hits", "", ("tenant", "backend"))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(tenant="kg")  # missing 'backend'
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(tenant="kg", backend="fast", extra=1)

    def test_redeclaration_must_agree(self):
        registry = MetricsRegistry()
        registry.counter("hits", "", ("tenant",))
        registry.counter("hits", "", ("tenant",))  # idempotent
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("hits", "", ("tenant",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("hits", "", ("other",))

    def test_histogram_buckets_and_quantiles(self):
        registry = MetricsRegistry()
        family = registry.histogram("lat", "", (), buckets=(0.1, 1.0, 10.0))
        child = family.labels()
        for value in (0.05, 0.05, 0.5, 5.0):
            child.observe(value)
        snap = registry.snapshot().get("lat")
        counts, total, count = snap.histograms[()]
        assert counts == [2, 1, 1, 0]
        assert count == 4 and total == pytest.approx(5.6)
        # p50 lands at the upper edge of the first bucket
        assert family.quantile(0.5) == pytest.approx(0.1)
        assert snap.quantile(0.5) == pytest.approx(0.1)

    def test_quantile_from_buckets_edge_cases(self):
        assert quantile_from_buckets((1.0, 2.0), [0, 0, 0], 0.5) == 0.0
        # everything in the +Inf bucket clamps to the top bound
        assert quantile_from_buckets((1.0, 2.0), [0, 0, 7], 0.5) == 2.0
        # linear interpolation inside one bucket: 10 obs in (1, 2]
        assert quantile_from_buckets((1.0, 2.0), [0, 10, 0], 0.5) \
            == pytest.approx(1.5)
        with pytest.raises(ValueError):
            quantile_from_buckets((1.0,), [0, 0], 1.5)

    def test_label_free_quantile_unions_children(self):
        registry = MetricsRegistry()
        family = registry.histogram("lat", "", ("shard",),
                                    buckets=(1.0, 2.0))
        family.labels(shard=0).observe(0.5)
        family.labels(shard=1).observe(1.5)
        assert family.quantile(1.0) == pytest.approx(2.0)
        assert family.quantile(0.25) == pytest.approx(0.5)

    def test_absorb_folds_snapshot_into_live_registry(self):
        remote = MetricsRegistry()
        remote.counter("hits", "", ("shard",)).labels(shard=1).inc(4)
        remote.histogram("lat", "", (), buckets=(1.0,)).labels().observe(0.5)
        local = MetricsRegistry()
        local.counter("hits", "", ("shard",)).labels(shard=1).inc(1)
        local.absorb(remote.snapshot())
        local.absorb(remote.snapshot())
        snap = local.snapshot()
        assert snap.get("hits").value(shard=1) == 9.0
        assert snap.get("lat").histograms[()][2] == 2

    def test_merge_rejects_mismatched_declarations(self):
        first = MetricsRegistry()
        first.counter("m", "", ("a",)).labels(a=1).inc()
        second = MetricsRegistry()
        second.gauge("m", "", ("a",)).labels(a=1).set(1)
        with pytest.raises(ValueError, match="declarations differ"):
            first.snapshot().merge(second.snapshot())


# ---------------------------------------------------------------------------
# hypothesis: snapshot merge is associative, commutative, order-independent
# ---------------------------------------------------------------------------

# integer-valued observations keep float addition exact, so equality is
# literal rather than approximate
_events = st.lists(
    st.tuples(st.sampled_from(["counter", "gauge", "histogram"]),
              st.sampled_from(["alpha", "beta"]),
              st.sampled_from(["x", "y", "z"]),
              st.integers(min_value=0, max_value=100)),
    max_size=40)


def _apply(registry: MetricsRegistry, events) -> None:
    for kind, suffix, label_value, amount in events:
        name = f"{kind}_{suffix}"
        if kind == "counter":
            registry.counter(name, "", ("l",)).labels(l=label_value) \
                .inc(float(amount))
        elif kind == "gauge":
            # gauges merge additively (per-worker resident quantities), so
            # the property uses inc — the additive update
            registry.gauge(name, "", ("l",)).labels(l=label_value) \
                .inc(float(amount))
        else:
            registry.histogram(name, "", ("l",), buckets=(10.0, 50.0)) \
                .labels(l=label_value).observe(float(amount))


def _canonical(snapshot: RegistrySnapshot) -> dict:
    """Comparable plain-data form of a snapshot (ignores empty families)."""
    result = {}
    for name, metric in snapshot.metrics.items():
        samples = {key: value for key, value in metric.samples.items()}
        histograms = {key: (tuple(entry[0]), entry[1], entry[2])
                      for key, entry in metric.histograms.items()}
        if samples or histograms:
            result[name] = (metric.kind, tuple(sorted(samples.items())),
                            tuple(sorted(histograms.items())))
    return result


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(_events, min_size=1, max_size=5),
           data=st.data())
    def test_merge_is_order_independent_and_equals_single_registry(
            self, parts, data):
        snapshots = []
        for events in parts:
            registry = MetricsRegistry()
            _apply(registry, events)
            snapshots.append(registry.snapshot())

        # one registry observing every event, in order
        combined = MetricsRegistry()
        for events in parts:
            _apply(combined, events)
        expected = _canonical(combined.snapshot())

        # left fold in a hypothesis-chosen order
        order = data.draw(st.permutations(range(len(snapshots))))
        folded = RegistrySnapshot()
        for index in order:
            folded = folded.merge(snapshots[index])
        assert _canonical(folded) == expected

        # arbitrary parenthesization: fold right instead of left
        right = snapshots[-1]
        for snap in reversed(snapshots[:-1]):
            right = snap.merge(right)
        assert _canonical(right) == expected

    @settings(max_examples=30, deadline=None)
    @given(first=_events, second=_events)
    def test_merge_commutes_and_empty_is_identity(self, first, second):
        a, b = MetricsRegistry(), MetricsRegistry()
        _apply(a, first)
        _apply(b, second)
        ab = _canonical(a.snapshot().merge(b.snapshot()))
        ba = _canonical(b.snapshot().merge(a.snapshot()))
        assert ab == ba
        assert _canonical(a.snapshot().merge(RegistrySnapshot())) \
            == _canonical(a.snapshot())

    @settings(max_examples=30, deadline=None)
    @given(parts=st.lists(_events, min_size=1, max_size=4))
    def test_absorb_agrees_with_merge(self, parts):
        live = MetricsRegistry()
        folded = RegistrySnapshot()
        for events in parts:
            registry = MetricsRegistry()
            _apply(registry, events)
            shipped = registry.snapshot()
            live.absorb(shipped)
            folded = folded.merge(shipped)
        assert _canonical(live.snapshot()) == _canonical(folded)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer", tenant="kg") as outer:
            with tracer.span("inner") as inner:
                pass
        roots = tracer.roots()
        assert [span.name for span in roots] == ["outer"]
        assert roots[0].children[0] is inner
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert outer.attributes == {"tenant": "kg"}
        assert outer.duration >= inner.duration >= 0.0

    def test_current_context_round_trip(self):
        tracer = Tracer()
        assert tracer.current_context() is None
        with tracer.span("dispatch") as dispatch:
            context = tracer.current_context()
        assert context == {"trace_id": dispatch.trace_id,
                           "span_id": dispatch.span_id}

    def test_remote_parent_and_reparenting(self):
        coordinator = Tracer()
        with coordinator.span("fanout") as fanout:
            context = coordinator.current_context()
            # what a worker process does with the shipped context
            worker = Tracer(remote_parent=context, process="shard-0")
            with worker.span("shard.repair", shard=0):
                pass
            shipped = worker.export_finished()
            assert shipped[0]["trace_id"] == fanout.trace_id
            adopted = coordinator.attach_remote(shipped, process="shard-0")
        assert fanout.children == adopted
        assert adopted[0].parent_id == fanout.span_id
        assert adopted[0].trace_id == fanout.trace_id
        assert adopted[0].process == "shard-0"

    def test_export_finished_drains(self):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        assert len(tracer.export_finished()) == 1
        assert tracer.export_finished() == []

    def test_chrome_export_has_per_process_lanes(self):
        tracer = Tracer(process="coordinator")
        with tracer.span("fanout", shards=2):
            worker = Tracer(remote_parent=tracer.current_context(),
                            process="shard-0")
            with worker.span("shard.repair"):
                pass
            tracer.attach_remote(worker.export_finished())
        trace = tracer.export_chrome()
        events = trace["traceEvents"]
        names = {event["args"]["name"] for event in events
                 if event["ph"] == "M"}
        assert names == {"repro:coordinator", "repro:shard-0"}
        complete = [event for event in events if event["ph"] == "X"]
        assert {event["name"] for event in complete} \
            == {"fanout", "shard.repair"}
        assert len({event["pid"] for event in complete}) == 2
        json.dumps(trace)  # must be serializable as-is

    def test_slow_span_threshold_logs(self, caplog):
        tracer = Tracer(slow_span_seconds=0.0)
        with caplog.at_level(logging.WARNING, logger="repro"):
            with tracer.span("glacial", tenant="kg"):
                pass
        assert any("slow-span" in record.message
                   and "span=glacial" in record.message
                   for record in caplog.records)


# ---------------------------------------------------------------------------
# structured logging
# ---------------------------------------------------------------------------


class TestLogging:
    def test_log_event_formats_key_values(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro"):
            log_event(get_logger("unit"), "info", "thing-happened",
                      shard=3, reason="because of spaces")
        record = caplog.records[-1]
        assert record.name == "repro.unit"
        assert record.message \
            == "thing-happened shard=3 reason='because of spaces'"

    def test_warn_swallowed_carries_exception(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro"):
            warn_swallowed(get_logger("unit"), "degraded",
                           exc=ValueError("boom"), tenant="kg")
        record = caplog.records[-1]
        assert record.levelno == logging.WARNING
        assert "degraded" in record.message
        assert "error='ValueError: boom'" in record.message

    def test_tenant_logger_stamps_tenant(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro"):
            log_event(tenant_logger("unit", "movies"), "info", "served")
        assert caplog.records[-1].message == "served tenant=movies"


# ---------------------------------------------------------------------------
# prometheus rendering + HTTP endpoint
# ---------------------------------------------------------------------------


class TestExposition:
    def test_render_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "Things.", ("tenant", "backend")) \
            .labels(tenant="kg", backend="fast").inc(3)
        registry.gauge("repro_level", "", ("tenant",)) \
            .labels(tenant='we"ird').set(1.5)
        text = render_prometheus(registry.snapshot())
        assert "# HELP repro_x_total Things." in text
        assert "# TYPE repro_x_total counter" in text
        # labels render in declared order, not sorted
        assert 'repro_x_total{tenant="kg",backend="fast"} 3' in text
        assert 'repro_level{tenant="we\\"ird"} 1.5' in text
        assert text.endswith("\n")

    def test_render_histogram_is_cumulative(self):
        registry = MetricsRegistry()
        child = registry.histogram("repro_lat_seconds", "Latency.",
                                   ("tenant",), buckets=(0.1, 1.0)) \
            .labels(tenant="kg")
        for value in (0.05, 0.5, 5.0):
            child.observe(value)
        text = render_prometheus(registry.snapshot())
        assert 'repro_lat_seconds_bucket{tenant="kg",le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{tenant="kg",le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{tenant="kg",le="+Inf"} 3' in text
        assert 'repro_lat_seconds_count{tenant="kg"} 3' in text
        assert 'repro_lat_seconds_sum{tenant="kg"} 5.55' in text

    def test_server_serves_metrics_health_and_404(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", "", ("tenant",)) \
            .labels(tenant="kg").inc(2)
        with TelemetryServer(registry.snapshot,
                             health_provider=lambda: {"status": "ok"}) \
                as server:
            with urllib.request.urlopen(f"{server.url}/metrics") as response:
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode()
            assert 'repro_hits_total{tenant="kg"} 2' in body
            with urllib.request.urlopen(f"{server.url}/healthz") as response:
                assert json.load(response) == {"status": "ok"}
            registry.counter("repro_hits_total", "", ("tenant",)) \
                .labels(tenant="kg").inc()
            with urllib.request.urlopen(f"{server.url}/metrics") as response:
                assert 'repro_hits_total{tenant="kg"} 3' \
                    in response.read().decode()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}/nope")
            assert excinfo.value.code == 404

    def test_server_failing_provider_returns_500(self):
        def explode():
            raise RuntimeError("snapshot failed")

        with TelemetryServer(explode) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}/metrics")
            assert excinfo.value.code == 500
            assert b"snapshot failed" in excinfo.value.read()


# ---------------------------------------------------------------------------
# the enablement contract (facade)
# ---------------------------------------------------------------------------


class TestEnablementContract:
    def test_disabled_span_is_shared_noop(self):
        assert not TELEMETRY.enabled
        first = telemetry.span("anything", tenant="kg")
        second = telemetry.span("other")
        assert first is second  # one shared nullcontext, no allocation
        with first:
            pass
        assert telemetry.current_context() is None
        assert TELEMETRY.tracer.roots() == []

    def test_collecting_scopes_and_restores(self):
        outer_registry = TELEMETRY.registry
        with telemetry.collecting() as (registry, tracer):
            assert TELEMETRY.enabled
            assert TELEMETRY.registry is registry is not outer_registry
            telemetry.inc("repro_pool_spawns_total")
            with telemetry.span("scoped"):
                pass
        assert not TELEMETRY.enabled
        assert TELEMETRY.registry is outer_registry
        assert registry.snapshot().get("repro_pool_spawns_total").total() == 1
        assert [span.name for span in tracer.roots()] == ["scoped"]

    def test_facade_uses_catalogue_declarations(self):
        with telemetry.collecting() as (registry, _tracer):
            telemetry.observe("repro_repair_seconds", 0.01,
                              tenant="kg", backend="fast")
            family = registry.get("repro_repair_seconds")
            assert family.kind == "histogram"
            assert family.labelnames == ("tenant", "backend")
            assert family.buckets == DEFAULT_LATENCY_BUCKETS
            with pytest.raises(ValueError, match="declared as"):
                telemetry.inc("repro_repair_seconds")

    def test_facade_checks_every_new_label_set(self):
        """A cached child serves only the exact labels it was resolved
        for: other label names, a misused kind, or a fresh registry are
        checked again."""
        with telemetry.collecting() as (registry, _tracer):
            for _ in range(2):
                telemetry.observe("repro_phase_seconds", 0.01, phase="a")
            assert registry.get("repro_phase_seconds").labels(
                phase="a").count == 2
            with pytest.raises(ValueError, match="takes labels"):
                telemetry.observe("repro_phase_seconds", 0.01, tenant="a")
            with pytest.raises(ValueError, match="declared as"):
                telemetry.inc("repro_phase_seconds", phase="a")
        with telemetry.collecting() as (fresh, _tracer):
            telemetry.observe("repro_phase_seconds", 0.01, phase="a")
            assert fresh.get("repro_phase_seconds").labels(
                phase="a").count == 1
        assert registry.get("repro_phase_seconds").labels(
            phase="a").count == 2

    def test_catalogue_naming_conventions(self):
        for name, (kind, help_text, labelnames) in CATALOGUE.items():
            assert name.startswith("repro_")
            assert help_text, name
            assert isinstance(labelnames, tuple)
            if kind == "counter":
                assert name.endswith("_total"), name
            if kind == "histogram":
                assert name.endswith("_seconds"), name

    def test_worker_collection_none_context_is_noop(self):
        with telemetry.worker_collection(None, process="shard-0") as box:
            assert not TELEMETRY.enabled
        assert box == {"telemetry": None, "spans": []}

    def test_worker_collection_fills_box(self):
        context = {"trace_id": "t-1", "span_id": "s-1"}
        with telemetry.worker_collection(context, process="shard-3") as box:
            telemetry.inc("repro_pool_shard_repairs_total", shard=3)
            with telemetry.span("shard.repair", shard=3):
                pass
        assert not TELEMETRY.enabled
        snapshot = box["telemetry"]
        assert snapshot.get("repro_pool_shard_repairs_total") \
            .value(shard=3) == 1
        (span_dict,) = box["spans"]
        assert span_dict["trace_id"] == "t-1"
        assert span_dict["parent_id"] == "s-1"
        assert span_dict["process"] == "shard-3"


# ---------------------------------------------------------------------------
# the silent-except linter
# ---------------------------------------------------------------------------

_LINT_PATH = Path(__file__).resolve().parent.parent \
    / "tools" / "lint_silent_except.py"


def _load_linter():
    spec = importlib.util.spec_from_file_location("lint_silent_except",
                                                  _LINT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSilentExceptLinter:
    def test_flags_silent_broad_handlers(self, tmp_path):
        linter = _load_linter()
        path = tmp_path / "bad.py"
        path.write_text(
            "try:\n    x = 1\nexcept Exception:\n    pass\n"
            "try:\n    y = 2\nexcept (ValueError, BaseException):\n    ...\n"
            "try:\n    z = 3\nexcept:\n    pass\n")
        findings = linter.lint_file(path)
        assert len(findings) == 3
        assert all("silent broad except" in finding for finding in findings)

    def test_allows_marker_logging_and_narrow_handlers(self, tmp_path):
        linter = _load_linter()
        path = tmp_path / "good.py"
        path.write_text(
            "try:\n    x = 1\n"
            "except Exception:\n    pass  # silent-ok: deliberate\n"
            "try:\n    y = 2\nexcept Exception as exc:\n    log(exc)\n"
            "try:\n    z = 3\nexcept KeyError:\n    pass\n")
        assert linter.lint_file(path) == []

    def test_src_tree_is_clean(self):
        linter = _load_linter()
        src = Path(__file__).resolve().parent.parent / "src"
        findings = []
        for path in sorted(src.rglob("*.py")):
            findings.extend(linter.lint_file(path))
        assert findings == []
