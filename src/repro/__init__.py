"""repro — rule-based graph repairing.

A from-scratch Python reproduction of the system described in *"Rule-Based
Graph Repairing: Semantic and Efficient Repairing Methods"* (Cheng, Chen,
Yuan, Wang — ICDE 2018): graph repairing rules (GRRs) over property graphs
with incompleteness / conflict / redundancy semantics, static analysis of
rule sets, and efficient repairing algorithms, together with the synthetic
datasets, error injection, baselines, and experiment harness used to
reproduce the paper's evaluation (see DESIGN.md and EXPERIMENTS.md).

Quick start
-----------
The primary entry point is the transactional :class:`~repro.api.RepairSession`
(package :mod:`repro.api`): open it once, then repair, edit, and reconcile
incrementally for as long as the graph lives::

    from repro import RepairConfig, RepairSession, build_workload, repair_quality

    workload = build_workload("kg", scale=500, error_rate=0.05, seed=0)
    repaired = workload.dirty.copy()

    with RepairSession(repaired, workload.rules,
                       config=RepairConfig.fast()) as session:
        report = session.repair()               # initial cleaning
        print(report.describe())

        with session.transaction() as g:        # later edits, transactional
            g.add_edge("n12", "n3", "bornIn")
        session.commit()                        # ONE incremental pass
        session.repair()                        # fix what the edit broke

    quality = repair_quality(workload.clean, workload.dirty, repaired,
                             workload.ground_truth)
    print(quality.describe())

`SessionEvents` streams progress; `RepairConfig.naive()` /
`RepairConfig.baseline()` switch the backend;
`RepairConfig.sharded(workers=N)` fans a repair pass out over
worker processes with deterministic delta merging (``docs/PARALLEL.md``);
the session's worker pool keeps those workers and their shard replicas
alive across repair calls until the session closes.  Sessions are thread-safe and publish every committed change
on a replayable changefeed (``session.deltas()`` / ``on_commit``); the
service layer (``from repro.service import GraphRepairService``) serves
many named sessions concurrently over a shared warm pool
(``docs/SERVICE.md``), and the ingestion front (``from repro.ingest
import IngestFront, AsyncRepairService``) adds bounded edit queues,
admission control, a background repair scheduler, and an asyncio facade
on top (``docs/INGEST.md``).  For a one-shot repair,
``repair_copy(graph, rules, config)`` repairs a copy through a short-lived
session.  ``docs/MIGRATION.md`` lists the removed legacy entry points and
their replacements.

The most frequently used names are re-exported here; each subpackage
(`repro.api`, `repro.graph`, `repro.matching`, `repro.rules`,
`repro.analysis`, `repro.repair`, `repro.parallel`, `repro.errors`,
`repro.datasets`, `repro.baselines`, `repro.metrics`, `repro.experiments`)
exposes its full API.
"""

from repro.analysis import analyze_redundancy, analyze_termination, check_consistency
from repro.api import (
    CommitResult,
    CommittedDelta,
    MaintenanceEvent,
    RepairConfig,
    Repairer,
    RepairSession,
    SessionEvents,
    repair_copy,
)
from repro.datasets import build_workload, generate_rules, load_dataset
from repro.errors import ErrorInjector, ErrorProfile, inject_errors
from repro.graph import PropertyGraph
from repro.matching import Matcher, MatcherConfig, Pattern, PatternEdge, PatternNode
from repro.metrics import change_summary, repair_quality
from repro.repair import RepairReport, detect_violations
from repro.rules import (
    GraphRepairingRule,
    RuleBuilder,
    RuleSet,
    Semantics,
    conflict_rule,
    incompleteness_rule,
    knowledge_graph_rules,
    movie_rules,
    parse_rules,
    redundancy_rule,
    social_rules,
)

__version__ = "0.2.0"

__all__ = [
    "__version__",
    # session API (primary entry point)
    "RepairSession",
    "repair_copy",
    "RepairConfig",
    "Repairer",
    "SessionEvents",
    "MaintenanceEvent",
    "CommitResult",
    "CommittedDelta",
    # service + ingest layers (heavier, so not eagerly re-exported here:
    # ``from repro.service import GraphRepairService`` and
    # ``from repro.ingest import IngestFront, AsyncRepairService``)
    # graph
    "PropertyGraph",
    # matching
    "Pattern",
    "PatternNode",
    "PatternEdge",
    "Matcher",
    "MatcherConfig",
    # rules
    "GraphRepairingRule",
    "RuleSet",
    "RuleBuilder",
    "Semantics",
    "incompleteness_rule",
    "conflict_rule",
    "redundancy_rule",
    "parse_rules",
    "knowledge_graph_rules",
    "movie_rules",
    "social_rules",
    # analysis
    "check_consistency",
    "analyze_termination",
    "analyze_redundancy",
    # repair
    "RepairReport",
    "detect_violations",
    # errors & datasets
    "ErrorProfile",
    "ErrorInjector",
    "inject_errors",
    "build_workload",
    "load_dataset",
    "generate_rules",
    # metrics
    "repair_quality",
    "change_summary",
]
