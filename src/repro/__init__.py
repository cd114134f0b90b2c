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

from repro._lazy import lazy_exports

__version__ = "0.2.0"

#: public name -> the subpackage defining it.  Resolved on first access
#: (PEP 562), so ``import repro`` — which every ``repro.*`` import runs,
#: a spawned pool worker's included — loads no subpackage by itself.
_EXPORTS = {
    # session API (primary entry point)
    "RepairSession": "repro.api",
    "repair_copy": "repro.api",
    "RepairConfig": "repro.api",
    "Repairer": "repro.api",
    "SessionEvents": "repro.api",
    "MaintenanceEvent": "repro.api",
    "CommitResult": "repro.api",
    "CommittedDelta": "repro.api",
    # service + ingest layers (heavier, so not re-exported here:
    # ``from repro.service import GraphRepairService`` and
    # ``from repro.ingest import IngestFront, AsyncRepairService``)
    # graph
    "PropertyGraph": "repro.graph",
    # matching
    "Pattern": "repro.matching",
    "PatternNode": "repro.matching",
    "PatternEdge": "repro.matching",
    "Matcher": "repro.matching",
    "MatcherConfig": "repro.matching",
    # rules
    "GraphRepairingRule": "repro.rules",
    "RuleSet": "repro.rules",
    "RuleBuilder": "repro.rules",
    "Semantics": "repro.rules",
    "incompleteness_rule": "repro.rules",
    "conflict_rule": "repro.rules",
    "redundancy_rule": "repro.rules",
    "parse_rules": "repro.rules",
    "knowledge_graph_rules": "repro.rules",
    "movie_rules": "repro.rules",
    "social_rules": "repro.rules",
    # analysis
    "check_consistency": "repro.analysis",
    "analyze_termination": "repro.analysis",
    "analyze_redundancy": "repro.analysis",
    # repair
    "RepairReport": "repro.repair",
    "detect_violations": "repro.repair",
    # errors & datasets
    "ErrorProfile": "repro.errors",
    "ErrorInjector": "repro.errors",
    "inject_errors": "repro.errors",
    "build_workload": "repro.datasets",
    "load_dataset": "repro.datasets",
    "generate_rules": "repro.datasets",
    # metrics
    "repair_quality": "repro.metrics",
    "change_summary": "repro.metrics",
}

__all__ = ["__version__", *_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
