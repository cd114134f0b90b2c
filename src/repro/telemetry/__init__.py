"""``repro.telemetry`` — the unified measurement layer.

One module owns the three observability substrates every layer above shares:

* **metrics** (:mod:`repro.telemetry.metrics`) — a thread-safe registry of
  labeled counters / gauges / fixed-bucket histograms with picklable,
  associatively-mergeable snapshots (shard workers ship theirs back to the
  coordinator);
* **spans** (:mod:`repro.telemetry.spans`) — context-manager span trees
  with trace-context propagation across the spawn boundary, exportable as
  JSON and Chrome ``trace_event`` format;
* **structured logging** (:mod:`repro.telemetry.log`) — ``repro.*`` stdlib
  loggers with ``event key=value`` records and the sanctioned
  :func:`~repro.telemetry.log.warn_swallowed` router for degradation paths;
* **exposition** (:mod:`repro.telemetry.exposition`) — Prometheus text
  rendering and the opt-in stdlib ``/metrics`` + ``/healthz`` endpoint.

**The enablement contract.**  Telemetry is **off by default** and the hot
paths guard every touch with ``if TELEMETRY.enabled:`` — disabled overhead
is one attribute read, no allocation, and repair outcomes are bit-identical
either way (instrumentation only observes; ``benchmarks/check_overhead.py``
gates both properties).  Turn it on with :func:`enable` (or the
``REPRO_TELEMETRY=1`` environment variable, or scoped with
:func:`collecting`); the service layer enables it implicitly when an
embedder starts the metrics endpoint.

Hot-path call shape::

    from repro.telemetry import TELEMETRY, observe, span

    with span("repair.match", tenant=name):         # no-op when disabled
        ...
    if TELEMETRY.enabled:                           # guard the lookup work
        observe("repro_repair_seconds", dt, tenant=name, backend=backend)

The metric catalogue below is the single source of truth for names, kinds,
labels, and help strings (``docs/OBSERVABILITY.md`` documents each).
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from typing import Iterator

from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricSnapshot,
    MetricsRegistry,
    RegistrySnapshot,
    quantile_from_buckets,
)
from repro.telemetry.spans import Span, Tracer, spans_to_chrome, spans_to_json

__all__ = [
    "CATALOGUE",
    "DEFAULT_LATENCY_BUCKETS",
    "MetricSnapshot",
    "MetricsRegistry",
    "RegistrySnapshot",
    "Span",
    "TELEMETRY",
    "Tracer",
    "collecting",
    "current_context",
    "disable",
    "enable",
    "gauge_set",
    "inc",
    "observe",
    "quantile_from_buckets",
    "span",
    "spans_to_chrome",
    "spans_to_json",
    "worker_collection",
]

#: name -> (kind, help, labelnames); histograms use DEFAULT_LATENCY_BUCKETS
CATALOGUE: dict[str, tuple[str, str, tuple[str, ...]]] = {
    # session / repair hot path
    "repro_repair_seconds": (
        "histogram", "End-to-end RepairSession.repair() latency",
        ("tenant", "backend")),
    "repro_commit_seconds": (
        "histogram", "RepairSession.commit() latency (merged maintenance)",
        ("tenant", "backend")),
    "repro_repairs_applied_total": (
        "counter", "Repairs applied (equals RepairReport.repairs_applied)",
        ("tenant", "backend")),
    "repro_repairs_failed_total": (
        "counter", "Repairs failed (equals RepairReport.repairs_failed)",
        ("tenant", "backend")),
    "repro_violations_detected_total": (
        "counter", "Violations detected (equals RepairReport counter)",
        ("tenant", "backend")),
    "repro_commits_total": (
        "counter", "Changefeed records published (commits and repairs)",
        ("tenant", "source")),
    # matcher
    "repro_match_seconds": (
        "histogram", "Matcher.find_matches() wall time", ("phase",)),
    "repro_match_nodes_tried_total": (
        "counter", "VF2 nodes tried (equals MatchingStats.nodes_tried)",
        ("tenant", "backend")),
    "repro_matches_found_total": (
        "counter", "Matches found (equals MatchingStats.matches_found)",
        ("tenant", "backend")),
    "repro_closed_probes_total": (
        "counter", "Existence probes answered by direct witness lookups "
        "(equals MatchingStats.closed_probes)", ("tenant", "backend")),
    "repro_maintenance_passes_total": (
        "counter", "Incremental maintenance passes "
        "(equals MatchingStats.maintenance_passes)", ("tenant", "backend")),
    # per-phase attribution (bridged from TimingBreakdown.measure)
    "repro_phase_seconds": (
        "histogram", "Per-phase wall time (index-build, initial-detection, "
        "validation, execution, incremental-maintenance, shard-*)",
        ("phase",)),
    # worker pool
    "repro_pool_spawns_total": (
        "counter", "Worker processes spawned by worker pools", ()),
    "repro_pool_binds_total": (
        "counter", "Full shard payloads bound (first binds + rebinds)",
        ("shard",)),
    "repro_pool_ships_total": (
        "counter", "Committed deltas shipped to standing replicas",
        ("shard",)),
    "repro_pool_shard_repairs_total": (
        "counter", "Shard repair commands executed", ("shard",)),
    "repro_pool_shard_repair_seconds": (
        "histogram", "Worker-side wall time of one shard repair command",
        ("shard",)),
    "repro_pool_stale_rebinds_total": (
        "counter", "Standing replicas rebound after staleness", ("shard",)),
    "repro_pool_ownership_coverage": (
        "gauge", "Fraction of a sharded tenant's nodes owned by their home "
        "shard (the rest settle at the coordinator)", ("tenant",)),
    "repro_pool_shard_balance": (
        "gauge", "Smallest-to-largest owned-core ratio across a sharded "
        "tenant's shards (1.0 = perfectly balanced)", ("tenant",)),
    "repro_pool_lease_wait_seconds": (
        "histogram", "Time a coordinator waited for its fair pool lease",
        ("tenant",)),
    # supervision / resilience (docs/RESILIENCE.md)
    "repro_pool_worker_deaths_total": (
        "counter", "Pool workers detected dead or hung by the supervisor "
        "(reason: crash, timeout, simulated)", ("reason",)),
    "repro_pool_respawns_total": (
        "counter", "Dead pool workers replaced by the supervisor", ()),
    "repro_pool_retries_total": (
        "counter", "In-flight shard commands re-driven on a respawned "
        "worker (rebind + one repair retry)", ("shard",)),
    "repro_pool_recovery_seconds": (
        "histogram", "Wall time of one supervisor recovery pass "
        "(reap + respawn + re-drive)", ()),
    "repro_pool_breaker_state": (
        "gauge", "Warm fan-out circuit breaker state "
        "(0=closed, 1=half_open, 2=open)", ()),
    "repro_pool_breaker_transitions_total": (
        "counter", "Circuit breaker state transitions", ("state",)),
    "repro_repair_fallbacks_total": (
        "counter", "Warm repairs degraded to the sequential drain "
        "(reason: pool-failure, breaker-open)", ("tenant", "reason")),
    # durability
    "repro_wal_fsync_seconds": (
        "histogram", "WAL append+fsync latency per committed record",
        ("tenant",)),
    "repro_wal_records_total": (
        "counter", "Records appended to tenant WALs", ("tenant",)),
    "repro_wal_changes_total": (
        "counter", "Graph changes inside appended WAL records", ("tenant",)),
    "repro_snapshot_write_seconds": (
        "histogram", "Snapshot write (serialize+fsync+rename) latency",
        ("tenant",)),
    "repro_snapshots_total": (
        "counter", "Snapshots written", ("tenant",)),
    "repro_snapshot_sequence": (
        "gauge", "Global sequence of the newest snapshot", ("tenant",)),
    "repro_snapshot_age_records": (
        "gauge", "Records committed since the newest snapshot "
        "(the WAL replay a crash would need)", ("tenant",)),
    "repro_recovery_replay_seconds": (
        "histogram", "Per-record replay latency during recovery",
        ("tenant",)),
    "repro_recovery_records_total": (
        "counter", "WAL records replayed by recover()", ("tenant",)),
    "repro_recovery_changes_total": (
        "counter", "Graph changes replayed by recover()", ("tenant",)),
    # service
    "repro_feed_sequence": (
        "gauge", "Newest committed changefeed sequence", ("tenant",)),
    "repro_feed_sequence_lag": (
        "gauge", "Feed records not yet covered by a snapshot "
        "(0 for non-durable tenants)", ("tenant",)),
    "repro_routed_deltas_total": (
        "counter", "Recorded deltas applied through apply_routed()",
        ("tenant",)),
    "repro_tenant_staleness_seconds": (
        "gauge", "Seconds since the tenant's last service-level repair "
        "(since serve when never repaired)", ("tenant",)),
    "repro_tenant_pending_deltas": (
        "gauge", "Committed changefeed records not yet covered by a repair",
        ("tenant",)),
    # ingest front / repair scheduler
    "repro_ingest_submitted_total": (
        "counter", "Edits admitted into a tenant's ingest queue", ("tenant",)),
    "repro_ingest_rejected_total": (
        "counter", "Submissions refused by admission control "
        "(reason: full, timeout, shed, shutdown)", ("tenant", "reason")),
    "repro_ingest_queue_depth": (
        "gauge", "Edits waiting in a tenant's ingest queue", ("tenant",)),
    "repro_ingest_coalesced_total": (
        "counter", "Queued edits coalesced into scheduler commits",
        ("tenant",)),
    "repro_ingest_backoffs_total": (
        "counter", "Repair-backoff windows opened for persistently failing "
        "tenants by the scheduler", ("tenant",)),
    "repro_ingest_commit_to_repaired_seconds": (
        "histogram", "Latency from a commit's changefeed publish to the end "
        "of the repair pass that covered it", ("tenant",)),
    "repro_scheduler_ticks_total": (
        "counter", "Scheduling decisions taken by the repair scheduler", ()),
    "repro_scheduler_repairs_total": (
        "counter", "Repair passes run by the scheduler", ("tenant",)),
    "repro_feed_dropped_records_total": (
        "counter", "Changefeed records dropped by bounded subscriber "
        "buffers (BufferedFeed overflow)", ("tenant",)),
    "repro_swallowed_errors_total": (
        "counter", "Exceptions degraded gracefully instead of raised",
        ("site",)),
}


class TelemetryState:
    """The process-wide telemetry switchboard (one instance: ``TELEMETRY``).

    ``enabled`` is the hot-path guard; ``registry`` and ``tracer`` are the
    live sinks.  Swapping them (see :func:`collecting` /
    :func:`worker_collection`) scopes a measurement without touching the
    instrumented code.
    """

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()


TELEMETRY = TelemetryState()

_NOOP_SPAN = nullcontext()


def enable(slow_span_seconds: float | None = None) -> None:
    """Switch telemetry on for this process (idempotent).

    ``slow_span_seconds`` arms threshold-based slow-span warn logging on
    the current tracer.
    """
    if slow_span_seconds is not None:
        TELEMETRY.tracer.slow_span_seconds = slow_span_seconds
    TELEMETRY.enabled = True


def disable() -> None:
    TELEMETRY.enabled = False


def _family(name: str, kind: str, labels: dict):
    declared = CATALOGUE.get(name)
    if declared is not None:
        declared_kind, help, labelnames = declared
        if declared_kind != kind:
            raise ValueError(f"metric {name!r} is declared as "
                             f"{declared_kind}, used as {kind}")
    else:
        help, labelnames = "", tuple(sorted(labels))
    if kind == "counter":
        return TELEMETRY.registry.counter(name, help, labelnames)
    if kind == "gauge":
        return TELEMETRY.registry.gauge(name, help, labelnames)
    return TELEMETRY.registry.histogram(name, help, labelnames)


def _child(name: str, kind: str, labels: dict):
    """The live registry's child for one metric and label set.

    The first use of a (kind, name, labels) combination checks the
    catalogue declaration and the label names; the resolved child is then
    cached on the registry, so a repeated call costs one dict lookup.
    """
    registry = TELEMETRY.registry
    key = (kind, name, *labels.items())
    child = registry.resolved.get(key)
    if child is None:
        child = _family(name, kind, labels).labels(**labels)
        registry.resolved[key] = child
    return child


def inc(name: str, amount: float = 1.0, **labels: object) -> None:
    """Increment a catalogue counter (call only under the enabled guard)."""
    _child(name, "counter", labels).inc(amount)


def observe(name: str, value: float, **labels: object) -> None:
    """Observe into a catalogue histogram (call under the enabled guard)."""
    _child(name, "histogram", labels).observe(value)


def gauge_set(name: str, value: float, **labels: object) -> None:
    """Set a catalogue gauge (call only under the enabled guard)."""
    _child(name, "gauge", labels).set(value)


def span(name: str, **attributes: object):
    """A tracer span when enabled, a shared no-op context manager when not
    (no allocation on the disabled path)."""
    if not TELEMETRY.enabled:
        return _NOOP_SPAN
    return TELEMETRY.tracer.span(name, **attributes)


def current_context() -> dict | None:
    """The ambient trace context (for handing to a worker), or ``None``."""
    if not TELEMETRY.enabled:
        return None
    return TELEMETRY.tracer.current_context()


@contextmanager
def collecting(slow_span_seconds: float | None = None) \
        -> Iterator[tuple[MetricsRegistry, Tracer]]:
    """Enable telemetry into a *fresh* registry + tracer for a scope.

    The measurement idiom of the tests and benchmarks::

        with telemetry.collecting() as (registry, tracer):
            session.repair()
        p99 = registry.get("repro_repair_seconds").quantile(0.99)

    The previous state (enabled flag, registry, tracer) is restored on
    exit, so scoped collection never leaks into ambient telemetry.
    """
    previous = (TELEMETRY.enabled, TELEMETRY.registry, TELEMETRY.tracer)
    registry = MetricsRegistry()
    tracer = Tracer(slow_span_seconds=slow_span_seconds)
    TELEMETRY.registry = registry
    TELEMETRY.tracer = tracer
    TELEMETRY.enabled = True
    try:
        yield registry, tracer
    finally:
        TELEMETRY.enabled, TELEMETRY.registry, TELEMETRY.tracer = previous


@contextmanager
def worker_collection(context: dict | None, process: str) \
        -> Iterator[dict | None]:
    """Worker-side scoped collection for one shard command.

    Installs a fresh registry plus a tracer whose ``remote_parent`` is the
    coordinator's shipped trace ``context``; yields a result box that holds
    ``{"telemetry": RegistrySnapshot, "spans": [span dicts]}`` after the
    scope ends.  With ``context=None`` (coordinator telemetry disabled)
    the scope is a no-op and the box stays ``None``-valued.
    """
    if context is None:
        yield {"telemetry": None, "spans": []}
        return
    box: dict = {"telemetry": None, "spans": []}
    previous = (TELEMETRY.enabled, TELEMETRY.registry, TELEMETRY.tracer)
    registry = MetricsRegistry()
    tracer = Tracer(remote_parent=context, process=process)
    TELEMETRY.registry = registry
    TELEMETRY.tracer = tracer
    TELEMETRY.enabled = True
    try:
        yield box
    finally:
        TELEMETRY.enabled, TELEMETRY.registry, TELEMETRY.tracer = previous
        box["telemetry"] = registry.snapshot()
        box["spans"] = tracer.export_finished()


if os.environ.get("REPRO_TELEMETRY", "").strip() in {"1", "true", "yes"}:
    enable()
