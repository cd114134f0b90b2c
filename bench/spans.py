"""Benchmark-side tracing: spans around each layer's public entry points.

Nothing under ``src/`` changes.  :class:`Tracer` replaces the entry points
listed in :data:`ENTRY_POINTS` with timing wrappers for the duration of a
traced run and puts the originals back afterwards.  Class methods are
wrapped on the class (instances resolve them through it at call time);
module functions are patched in the module that *calls* them, since that
module holds its own reference from ``from ... import``.

Each call records one :class:`Span`: name, layer, start and end, the span
that was open on the same thread when it began (its parent), and the
benchmark phase it ran in.  A layer's *self time* is its spans' durations
minus what their child spans cover.  Work inside spawned shard workers is
not traced; it appears as parent-side wait in the ``execute_tasks`` span.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(eq=False)
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    thread: str = ""
    phase: str = ""
    args: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _maintenance(args, result) -> dict:
    return {"seeded": result.seeded_searches, "discovered": result.discovered,
            "rechecked": result.rechecked}


def _commit(args, result) -> dict:
    session, edits = args[0], args[1]
    return {"sequence": session.last_sequence,
            "requests": [getattr(edit, "request", None) for edit in edits]}


def _submit(args, result) -> dict:
    return {"request": getattr(args[2], "request", None)}


def _wal_append(args, result) -> dict:
    return {"sequence": args[1]["seq"]}


def _service_repair(args, result) -> dict:
    service, name = args[0], args[1]
    return {"through": service.staleness()[name].repaired_through}


#: ``(module, attribute, layer, annotate)``: ``attribute`` is ``Class.method``
#: or a module-level name; ``annotate(args, result)`` adds span arguments.
ENTRY_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.api.session", "RepairSession.__init__", "api", None),
    ("repro.api.session", "RepairSession.repair", "api", None),
    ("repro.api.session", "RepairSession.apply_many", "api", _commit),
    ("repro.matching.index", "CandidateIndex.__init__", "matching", None),
    ("repro.matching.incremental", "IncrementalMatcher.register", "matching", None),
    ("repro.matching.incremental", "IncrementalMatcher.apply_delta", "matching", None),
    ("repro.repair.fast", "FastRepairCore.maintain", "repair", _maintenance),
    ("repro.repair.fast", "FastRepairCore.drain", "repair", None),
    ("repro.repair.fast", "FastRepairCore.validate", "repair", None),
    ("repro.repair.fast", "FastRepairCore.count_remaining", "repair", None),
    ("repro.repair.executor", "RepairExecutor.apply", "repair", None),
    ("repro.parallel.backend", "ShardedRepairer.run", "parallel", None),
    ("repro.parallel.backend", "partition_graph", "parallel", None),
    ("repro.parallel.partition", "Shard.extract", "parallel", None),
    ("repro.parallel.backend", "execute_tasks", "parallel", None),
    ("repro.parallel.merge", "DeltaMerger.merge", "parallel", None),
    ("repro.ingest.scheduler", "IngestFront.tick", "ingest", None),
    ("repro.ingest.scheduler", "IngestFront.submit", "ingest", _submit),
    ("repro.service.service", "GraphRepairService.serve", "service", None),
    ("repro.service.service", "GraphRepairService.restore", "service", None),
    ("repro.service.service", "GraphRepairService.repair", "service",
     _service_repair),
    ("repro.durability.wal", "WriteAheadLog.append", "durability", _wal_append),
    ("repro.durability.recovery", "write_snapshot", "durability", None),
    ("repro.service.service", "recover", "durability", None),
)


class Tracer:
    """Collects spans from wrapped entry points (thread-safe appends).

    Use as a context manager: entry points are wrapped on entry and
    restored on exit.  ``phase`` labels every span that starts while it
    is set, so a run can be cut into repetitions or ingest phases.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = ""
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attribute, layer, annotate in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            name = attribute
            if "." in attribute:
                class_name, name = attribute.split(".")
                owner = getattr(owner, class_name)
            original = getattr(owner, name)
            setattr(owner, name, self._wrap(original, attribute, layer, annotate))
            self._undo.append((owner, name, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, span_name: str, layer: str, annotate):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(span_name, layer, time.perf_counter(),
                        parent=stack[-1] if stack else None,
                        thread=threading.current_thread().name,
                        phase=tracer.phase)
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.args = annotate(args, result)
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """``id(span) -> self time``: duration minus the children's durations."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.duration
    return {id(span): span.duration - covered[id(span)] for span in spans}


def common_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics every workload reports, from one window of
    spans.  The api, matching and repair times are self times; the
    parallel stage times are span totals, 0 where nothing fans out.  All
    in seconds."""
    own = self_times(spans)
    events = [span.args for span in spans
              if span.name == "FastRepairCore.maintain" and span.args]
    seeded = sum(event["seeded"] for event in events)
    discovered = sum(event["discovered"] for event in events)
    rechecked_events = [event for event in events if event["rechecked"]]
    rechecked = sum(event["rechecked"] for event in rechecked_events)
    repairs = [span for span in spans if span.name == "RepairSession.repair"]
    repair_wall = sum(span.duration for span in repairs)
    repair_self = sum(own[id(span)] for span in repairs)

    def self_of(name: str) -> float:
        return sum(own[id(span)] for span in spans if span.name == name)

    def total(name: str) -> float:
        return sum(span.duration for span in spans if span.name == name)

    return {
        "parallel.partition_s": total("partition_graph"),
        "parallel.extract_s": total("Shard.extract"),
        "parallel.fanout_s": total("execute_tasks"),
        "parallel.merge_s": total("DeltaMerger.merge"),
        "parallel.settle_s": sum(
            span.duration for span in spans
            if span.name == "FastRepairCore.drain" and span.parent is not None
            and span.parent.name == "ShardedRepairer.run"),
        "api.session_open_s": self_of("RepairSession.__init__"),
        "api.repair_self_s": repair_self,
        "matching.index_build_s": self_of("CandidateIndex.__init__"),
        "matching.enumerate_s": self_of("IncrementalMatcher.register"),
        "matching.apply_delta_s": self_of("IncrementalMatcher.apply_delta"),
        "matching.apply_delta_calls": float(sum(
            1 for span in spans if span.name == "IncrementalMatcher.apply_delta")),
        "matching.discovered_per_search": discovered / seeded if seeded else 0.0,
        "repair.maintain_self_s": self_of("FastRepairCore.maintain"),
        "repair.drain_self_s": self_of("FastRepairCore.drain"),
        "repair.execute_s": self_of("RepairExecutor.apply"),
        "repair.validate_s": self_of("FastRepairCore.validate"),
        "repair.final_check_s": self_of("FastRepairCore.count_remaining"),
        "repair.rechecks": float(rechecked),
        "repair.recheck_hit_ratio": (
            sum(event["discovered"] for event in rechecked_events) / rechecked
            if rechecked else 0.0),
        "bench.attributed_frac": (1.0 - repair_self / repair_wall
                                  if repair_wall else 0.0),
    }


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time per layer (the attribution summary printed by run.py)."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.layer] += own[id(span)]
    return dict(totals)


def chrome_trace(spans: list[Span], origin: float,
                 extra_events: list[dict] | None = None) -> dict:
    """A Chrome ``trace_event`` document (open it in chrome://tracing or
    https://ui.perfetto.dev): one complete event per span, one lane per
    thread, timestamps in microseconds from ``origin``."""
    threads: dict[str, int] = {}
    events: list[dict] = []
    for span in spans:
        tid = threads.setdefault(span.thread, len(threads) + 1)
        args = {"phase": span.phase}
        if span.args:
            args.update(span.args)
        events.append({"name": span.name, "cat": span.layer, "ph": "X",
                       "ts": (span.start - origin) * 1e6,
                       "dur": span.duration * 1e6,
                       "pid": 1, "tid": tid, "args": args})
    for thread, tid in threads.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": thread}})
    events.extend(extra_events or [])
    return {"traceEvents": events, "displayTimeUnit": "ms"}
