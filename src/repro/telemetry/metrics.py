"""The labeled metrics registry: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` holds metric *families* (one per metric name);
a family fans out into *children*, one per label-value combination.  Three
kinds exist:

* **counter** — monotonically increasing float (``inc``);
* **gauge** — a settable level (``set`` / ``inc`` / ``dec``);
* **histogram** — fixed upper-bound buckets plus ``sum`` and ``count``
  (``observe``), with quantile estimation by linear interpolation inside
  the target bucket (the standard Prometheus ``histogram_quantile``
  approximation).

Everything is thread-safe (one registry lock, held only for the duration of
a single arithmetic update) and built for **snapshot/merge** shipping: a
:meth:`MetricsRegistry.snapshot` is a plain picklable value object, and
:meth:`RegistrySnapshot.merge` is **associative and commutative** — counters
and histogram buckets add, gauges add too (a merged gauge is the sum over
its sources: per-worker resident quantities aggregate, which is the shape
every gauge in the catalogue has).  Shard workers therefore ship their
registries back through :class:`~repro.parallel.worker.ShardResult` and the
coordinator folds them in with :meth:`MetricsRegistry.absorb` in any order
without changing the result (pinned by a hypothesis test).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricSnapshot",
    "MetricsRegistry",
    "RegistrySnapshot",
    "quantile_from_buckets",
]

#: default histogram bounds, tuned for repair/WAL latencies: 100µs .. 30s
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

_KINDS = ("counter", "gauge", "histogram")


def quantile_from_buckets(bounds: tuple[float, ...], counts: list[int],
                          quantile: float) -> float:
    """Estimate a quantile from fixed-bucket observations.

    ``counts`` has ``len(bounds) + 1`` entries (the last is the +Inf
    bucket).  Linear interpolation inside the target bucket; the +Inf
    bucket clamps to its lower bound (there is no upper edge to
    interpolate towards).  Returns 0.0 for an empty histogram.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    total = sum(counts)
    if total == 0:
        return 0.0
    target = quantile * total
    seen = 0.0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        if seen + bucket_count < target:
            seen += bucket_count
            continue
        lower = bounds[index - 1] if index > 0 else 0.0
        if index >= len(bounds):  # the +Inf bucket has no width
            return bounds[-1] if bounds else 0.0
        upper = bounds[index]
        fraction = (target - seen) / bucket_count
        return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
    return bounds[-1] if bounds else 0.0


class _Child:
    """One label-value combination of a counter or gauge family."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class _HistogramChild:
    """One label-value combination of a histogram family."""

    __slots__ = ("_lock", "_bounds", "bucket_counts", "sum", "count")

    def __init__(self, lock: threading.RLock, bounds: tuple[float, ...]) -> None:
        self._lock = lock
        self._bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self._bounds, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1

    def quantile(self, quantile: float) -> float:
        with self._lock:
            counts = list(self.bucket_counts)
        return quantile_from_buckets(self._bounds, counts, quantile)


class MetricFamily:
    """All children of one metric name (see module docstring)."""

    def __init__(self, registry: "MetricsRegistry", kind: str, name: str,
                 help: str, labelnames: tuple[str, ...],
                 buckets: tuple[float, ...] = ()) -> None:
        self.registry = registry
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._sorted_labelnames = tuple(sorted(labelnames))
        self.buckets = buckets
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labels: object) -> object:
        """The child for one label-value combination (created on first use).

        Every declared label must be supplied; values are stringified, so
        shard indexes and booleans are fine.
        """
        if tuple(sorted(labels)) != self._sorted_labelnames:
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        values = tuple(str(labels[name]) for name in self.labelnames)
        return self.child(values)

    def child(self, values: tuple[str, ...]) -> object:
        child = self._children.get(values)
        if child is None:
            with self.registry._lock:
                child = self._children.get(values)
                if child is None:
                    if self.kind == "histogram":
                        child = _HistogramChild(self.registry._lock, self.buckets)
                    else:
                        child = _Child(self.registry._lock)
                    self._children[values] = child
        return child

    def quantile(self, quantile: float, **labels: object) -> float:
        """Quantile over one child (with ``labels``) or, label-free, over
        the union of every child's observations."""
        if self.kind != "histogram":
            raise ValueError(f"metric {self.name!r} is a {self.kind}")
        if labels:
            return self.labels(**labels).quantile(quantile)
        merged = [0] * (len(self.buckets) + 1)
        with self.registry._lock:
            for child in self._children.values():
                for index, bucket_count in enumerate(child.bucket_counts):
                    merged[index] += bucket_count
        return quantile_from_buckets(self.buckets, merged, quantile)


@dataclass
class MetricSnapshot:
    """One family's frozen state (plain data: picklable, mergeable)."""

    name: str
    kind: str
    help: str
    labelnames: tuple[str, ...] = ()
    buckets: tuple[float, ...] = ()
    #: counter/gauge: label-values tuple -> value
    samples: dict = field(default_factory=dict)
    #: histogram: label-values tuple -> [bucket_counts, sum, count]
    histograms: dict = field(default_factory=dict)

    def merge(self, other: "MetricSnapshot") -> "MetricSnapshot":
        if (other.kind != self.kind or other.labelnames != self.labelnames
                or other.buckets != self.buckets):
            raise ValueError(
                f"cannot merge metric {self.name!r}: declarations differ "
                f"({self.kind}/{self.labelnames}/{self.buckets} vs "
                f"{other.kind}/{other.labelnames}/{other.buckets})")
        merged = MetricSnapshot(name=self.name, kind=self.kind, help=self.help,
                                labelnames=self.labelnames, buckets=self.buckets,
                                samples=dict(self.samples),
                                histograms={key: [list(counts), total, count]
                                            for key, (counts, total, count)
                                            in self.histograms.items()})
        for key, value in other.samples.items():
            merged.samples[key] = merged.samples.get(key, 0.0) + value
        for key, (counts, total, count) in other.histograms.items():
            mine = merged.histograms.get(key)
            if mine is None:
                merged.histograms[key] = [list(counts), total, count]
            else:
                mine[0] = [a + b for a, b in zip(mine[0], counts)]
                mine[1] += total
                mine[2] += count
        return merged

    def value(self, **labels: object) -> float:
        """One counter/gauge sample (0.0 when the child never fired)."""
        key = tuple(str(labels[name]) for name in self.labelnames)
        return self.samples.get(key, 0.0)

    def total(self) -> float:
        """Sum of every counter/gauge sample across label sets."""
        return sum(self.samples.values())

    def quantile(self, quantile: float, **labels: object) -> float:
        """Quantile of one histogram child, or of all children united."""
        if labels:
            key = tuple(str(labels[name]) for name in self.labelnames)
            entry = self.histograms.get(key)
            if entry is None:
                return 0.0
            return quantile_from_buckets(self.buckets, entry[0], quantile)
        merged = [0] * (len(self.buckets) + 1)
        for counts, _total, _count in self.histograms.values():
            for index, bucket_count in enumerate(counts):
                merged[index] += bucket_count
        return quantile_from_buckets(self.buckets, merged, quantile)


@dataclass
class RegistrySnapshot:
    """A registry's frozen state; ``merge`` is associative + commutative."""

    metrics: dict[str, MetricSnapshot] = field(default_factory=dict)

    def merge(self, other: "RegistrySnapshot") -> "RegistrySnapshot":
        merged = dict(self.metrics)
        for name, metric in other.metrics.items():
            mine = merged.get(name)
            merged[name] = metric if mine is None else mine.merge(metric)
        return RegistrySnapshot(metrics=merged)

    def get(self, name: str) -> MetricSnapshot | None:
        return self.metrics.get(name)

    def __len__(self) -> int:
        return len(self.metrics)


class MetricsRegistry:
    """A thread-safe collection of metric families (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, MetricFamily] = {}
        #: children already resolved by ``repro.telemetry``'s ``inc`` /
        #: ``observe`` / ``gauge_set``, keyed by (kind, name, label items);
        #: families and children are never replaced, so entries stay valid
        self.resolved: dict[tuple, object] = {}

    def _family(self, kind: str, name: str, help: str,
                labelnames: tuple[str, ...],
                buckets: tuple[float, ...] = ()) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.labelnames}")
            return family
        with self._lock:
            family = self._families.get(name)
            if family is None:
                if kind not in _KINDS:
                    raise ValueError(f"unknown metric kind {kind!r}")
                family = MetricFamily(self, kind, name, help,
                                      tuple(labelnames), tuple(buckets))
                self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> MetricFamily:
        return self._family("counter", name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = ()) -> MetricFamily:
        return self._family("gauge", name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> MetricFamily:
        return self._family("histogram", name, help, labelnames, tuple(buckets))

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    # ------------------------------------------------------------------
    # snapshot / merge shipping
    # ------------------------------------------------------------------

    def snapshot(self) -> RegistrySnapshot:
        """A consistent, picklable copy of every family's current state."""
        with self._lock:
            metrics: dict[str, MetricSnapshot] = {}
            for name, family in self._families.items():
                snap = MetricSnapshot(name=name, kind=family.kind,
                                      help=family.help,
                                      labelnames=family.labelnames,
                                      buckets=family.buckets)
                for values, child in family._children.items():
                    if family.kind == "histogram":
                        snap.histograms[values] = [list(child.bucket_counts),
                                                   child.sum, child.count]
                    else:
                        snap.samples[values] = child.value
                metrics[name] = snap
            return RegistrySnapshot(metrics=metrics)

    def absorb(self, snapshot: RegistrySnapshot) -> None:
        """Fold a shipped snapshot into the live registry (additively)."""
        for name, metric in snapshot.metrics.items():
            family = self._family(metric.kind, name, metric.help,
                                  metric.labelnames, metric.buckets)
            if metric.kind == "histogram":
                for values, (counts, total, count) in metric.histograms.items():
                    child = family.child(values)
                    with self._lock:
                        child.bucket_counts = [a + b for a, b in
                                               zip(child.bucket_counts, counts)]
                        child.sum += total
                        child.count += count
            else:
                for values, value in metric.samples.items():
                    family.child(values).inc(value)
