"""Pluggable repair backends behind the session.

:class:`Repairer` is the unified protocol — a **plan / apply / maintain**
lifecycle plus run/close — that every repair strategy implements:

* ``bind(graph, rules)`` attaches the backend's (possibly persistent) state;
* ``plan()`` returns the currently pending violations;
* ``apply(violation)`` executes one repair (no maintenance);
* ``maintain(delta)`` folds a graph delta into the backend's matcher state
  and queues any newly created violations — for the fast backend this is one
  *incremental* pass over the delta's region, for the re-detection backends a
  full re-plan;
* ``run()`` drives pending violations to a fixpoint and reports.

Three implementations ship: :class:`FastBackend` (the paper's efficient
algorithm around a persistent :class:`~repro.repair.fast.FastRepairCore`),
:class:`NaiveBackend` (full re-detection per round), and
:class:`GreedyBackend` (the deletion baseline).  ``register_backend`` lets
downstream code plug in more; :class:`~repro.api.RepairSession` looks its
backend up here by the config's ``backend`` name.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

from repro.baselines.greedy import GreedyConfig, GreedyDeleteBaseline
from repro.graph.delta import GraphDelta, recording
from repro.graph.property_graph import PropertyGraph
from repro.matching.vf2 import MatchingStats
from repro.repair.detector import ViolationDetector
from repro.repair.events import MaintenanceEvent
from repro.repair.executor import ExecutionOutcome, RepairExecutor
from repro.repair.fast import FastRepairCore
from repro.repair.naive import NaiveRepairer
from repro.repair.report import RepairReport
from repro.repair.violation import Violation
from repro.rules.grr import RuleSet


@runtime_checkable
class Repairer(Protocol):
    """The plan/apply/maintain lifecycle every repair backend implements."""

    name: str
    #: True when ``run()`` returns one live, cumulative report for the whole
    #: backend lifetime (fast core); False when each ``run()`` reports only
    #: its own round-trip and the session accumulates.
    cumulative_report: bool

    def bind(self, graph: PropertyGraph, rules: RuleSet) -> None:
        """Attach to one graph + rule set (build indexes, enumerate matches)."""
        ...

    def plan(self) -> list[Violation]:
        """The pending violations, in processing order."""
        ...

    def apply(self, violation: Violation) -> ExecutionOutcome:
        """Validate and execute one repair; no maintenance is performed."""
        ...

    def maintain(self, delta: GraphDelta, source: str = "commit") -> MaintenanceEvent:
        """Fold one delta into the backend's state; queue new violations."""
        ...

    def run(self) -> RepairReport:
        """Drive every pending violation to a fixpoint and report."""
        ...

    def stats(self) -> MatchingStats:
        """Aggregated matcher counters of the backend's lifetime."""
        ...

    def close(self) -> None:
        """Release listeners / detach indexes; the backend becomes inert."""
        ...


class FastBackend:
    """The paper's efficient algorithm over a persistent ``FastRepairCore``.

    Matcher state — candidate index, match stores, violation queue, compiled
    search plans — survives across ``run()`` and ``maintain()`` calls, which
    is what makes a session's repairs incremental across invocations.
    """

    name = "fast"
    cumulative_report = True

    def __init__(self, config, events=None) -> None:
        self.config = config
        self.events = events
        self.core: FastRepairCore | None = None

    def bind(self, graph: PropertyGraph, rules: RuleSet) -> None:
        self.core = FastRepairCore(graph, rules, config=self.config,
                                   events=self.events)

    def plan(self) -> list[Violation]:
        return self.core.pending()

    def apply(self, violation: Violation) -> ExecutionOutcome:
        if not self.core.validate(violation):
            return ExecutionOutcome(applied=False, error="violation is obsolete")
        return self.core.execute(violation)

    def maintain(self, delta: GraphDelta, source: str = "commit") -> MaintenanceEvent:
        return self.core.maintain(delta, source=source)

    def run(self) -> RepairReport:
        self.core.drain()
        return self.core.finalize()

    def stats(self) -> MatchingStats:
        return self.core.stats

    def close(self) -> None:
        if self.core is not None:
            self.core.close()


class _ReDetectionBackend:
    """Shared machinery of the backends without incremental matcher state.

    ``plan`` re-detects from scratch; ``maintain`` is a **no-op** (there is
    no state to reconcile — the next ``plan``/``run`` sees the committed
    edits anyway), reported honestly as zero passes and zero newly queued
    violations rather than paying a full detection just to fill an event.
    """

    cumulative_report = False

    def __init__(self, config, events=None) -> None:
        self.config = config
        self.events = events
        self.graph: PropertyGraph | None = None
        self.rules: RuleSet | None = None
        self._stats = MatchingStats()

    def bind(self, graph: PropertyGraph, rules: RuleSet) -> None:
        self.graph = graph
        self.rules = rules

    def _detect(self) -> list[Violation]:
        detector = ViolationDetector(
            self.graph, self.rules,
            matcher_config=self.config.to_matcher_config(),
            match_limit_per_rule=self.config.match_limit_per_rule)
        violations = list(detector.detect())
        self._stats.merge(detector.matcher.stats)
        detector.matcher.close()
        return violations

    def plan(self) -> list[Violation]:
        return self._detect()

    def maintain(self, delta: GraphDelta, source: str = "commit") -> MaintenanceEvent:
        return MaintenanceEvent(source=source, delta_changes=len(delta),
                                passes=0)

    def stats(self) -> MatchingStats:
        return self._stats

    def close(self) -> None:
        pass


class NaiveBackend(_ReDetectionBackend):
    """Full re-detection per round (the paper's baseline algorithm).

    ``run`` delegates to :class:`~repro.repair.naive.NaiveRepairer` on the
    bound graph.
    """

    name = "naive"

    def bind(self, graph: PropertyGraph, rules: RuleSet) -> None:
        super().bind(graph, rules)
        self._executor = RepairExecutor(graph,
                                        cost_model=self.config.cost_model)

    def apply(self, violation: Violation) -> ExecutionOutcome:
        if not violation.match.is_valid(self.graph):
            return ExecutionOutcome(applied=False, error="violation is obsolete")
        return self._executor.apply(violation.rule, violation.match)

    def run(self) -> RepairReport:
        repairer = NaiveRepairer(self.config, events=self.events)
        report = repairer.repair(self.graph, self.rules)
        self._stats.merge(report.matching_stats)
        return report

    def close(self) -> None:
        self._executor = None


class GreedyBackend(_ReDetectionBackend):
    """The greedy-deletion baseline behind the session surface."""

    name = "greedy"

    def bind(self, graph: PropertyGraph, rules: RuleSet) -> None:
        super().bind(graph, rules)
        # every greedy repair is one deletion, so the shared max_repairs
        # budget caps deletions exactly like the other backends' repairs
        self._baseline = GreedyDeleteBaseline(
            GreedyConfig(max_rounds=self.config.max_rounds,
                         max_deletions=self.config.max_repairs))

    def apply(self, violation: Violation) -> ExecutionOutcome:
        """Greedy repair of one violation: delete one involved edge."""
        if not violation.match.is_valid(self.graph):
            return ExecutionOutcome(applied=False, error="violation is obsolete")
        edge_id = self._baseline.edge_to_delete(self.graph, violation)
        if edge_id is None:
            return ExecutionOutcome(applied=False, error="no deletable edge")
        with recording(self.graph) as recorder:
            self.graph.remove_edge(edge_id)
        return ExecutionOutcome(applied=True, delta=recorder.drain())

    def run(self) -> RepairReport:
        started = time.perf_counter()
        report = RepairReport(method=self._baseline.name,
                              graph_name=self.graph.name,
                              rule_set_name=self.rules.name,
                              initial_nodes=self.graph.num_nodes,
                              initial_edges=self.graph.num_edges)
        baseline_report = self._baseline.repair_in_place(self.graph, self.rules,
                                                         events=self.events)
        report.rounds = 1
        report.violations_detected = baseline_report.violations_detected
        report.repairs_applied = baseline_report.changes_applied
        # the loop's terminating round already proved 0 remaining when it
        # ended on an empty detection; re-detect only when it ended on
        # budget or lack of progress
        remaining = baseline_report.details.get("remaining_violations")
        report.remaining_violations = (remaining if remaining is not None
                                       else len(self._detect()))
        report.reached_fixpoint = report.remaining_violations == 0
        report.elapsed_seconds = time.perf_counter() - started
        report.final_nodes = self.graph.num_nodes
        report.final_edges = self.graph.num_edges
        return report

    def close(self) -> None:
        self._baseline = None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_BACKENDS: dict[str, type] = {
    "fast": FastBackend,
    "naive": NaiveBackend,
    "greedy": GreedyBackend,
}

# Backends resolved on first use, keeping heavyweight subsystems out of the
# import graph of ``repro.api`` (repro.parallel imports this module, so a
# module-level import here would be circular).
_LAZY_BACKENDS: dict[str, tuple[str, str]] = {
    "sharded": ("repro.parallel.backend", "ShardedRepairer"),
}


def register_backend(name: str, factory: type) -> None:
    """Register a custom :class:`Repairer` implementation under ``name``."""
    _LAZY_BACKENDS.pop(name, None)
    _BACKENDS[name] = factory


def available_backends() -> list[str]:
    return sorted(set(_BACKENDS) | set(_LAZY_BACKENDS))


def _resolve_backend(name: str) -> type:
    try:
        return _BACKENDS[name]
    except KeyError:
        pass
    try:
        module_name, attribute = _LAZY_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown repair method {name!r}; available: {available_backends()}"
        ) from None
    import importlib

    factory = getattr(importlib.import_module(module_name), attribute)
    _BACKENDS[name] = factory
    return factory


def build_backend(config, events=None, pool=None):
    """Instantiate the backend the config names (without binding it).

    A ``"fast"`` backend with ``use_incremental=False`` degrades to the
    naive loop with an optimised matcher (the E5 "incremental" ablation).

    ``pool`` is an optional shared :class:`repro.parallel.pool.WorkerPool`
    for backends that fan out over worker processes (the sharded backend;
    without one it creates and owns its own); backends that cannot use one
    reject it, so a misdirected pool fails loudly instead of being ignored.
    """
    name = config.backend
    if name == "fast" and not config.use_incremental:
        if pool is not None:
            raise ValueError("a worker pool requires a pool-capable backend; "
                             f"{name!r} with use_incremental=False degrades "
                             "to the naive loop")
        return NaiveBackend(config, events=events)
    factory = _resolve_backend(name)
    if pool is not None:
        return factory(config, events=events, pool=pool)
    return factory(config, events=events)
