"""The result object a repair run returns.

Both repair algorithms produce the same :class:`RepairReport`, so the
experiment harness, the metrics layer, and the examples can treat them
uniformly.  The report records counts (violations seen, repairs applied /
failed / remaining), the full provenance log, the per-phase timing breakdown,
and whether a fixpoint was actually reached or a budget cut the run short.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.matching.vf2 import MatchingStats
from repro.repair.provenance import RepairLog
from repro.utils.timing import TimingBreakdown


#: matcher counters the flat report leaves out: the report's own
#: ``matches_enumerated`` and ``elapsed_seconds`` stand in for them, and the
#: stats' ``elapsed_seconds`` key would overwrite the report's
_NOT_REPORTED = frozenset({"matches_found", "elapsed_seconds"})


@dataclass
class RepairReport:
    """Summary of one repair run over one graph with one rule set."""

    method: str
    graph_name: str
    rule_set_name: str
    rounds: int = 0
    violations_detected: int = 0
    repairs_applied: int = 0
    repairs_failed: int = 0
    repairs_obsolete: int = 0
    remaining_violations: int = 0
    reached_fixpoint: bool = False
    matches_enumerated: int = 0
    seeded_searches: int = 0
    # aggregated search-engine counters from every matcher the run used
    # (initial detection, seeded incremental searches, existence probes)
    matching_stats: MatchingStats = field(default_factory=MatchingStats)
    elapsed_seconds: float = 0.0
    initial_nodes: int = 0
    initial_edges: int = 0
    final_nodes: int = 0
    final_edges: int = 0
    log: RepairLog = field(default_factory=RepairLog)
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------

    def absorb(self, other: "RepairReport") -> "RepairReport":
        """Fold another run's report into this one (cumulative session view).

        Counts, stats, timings, provenance, and elapsed time accumulate;
        terminal state (remaining violations, fixpoint, final sizes, method)
        is taken from ``other``, the most recent run.  Returns ``self``.
        """
        self.method = other.method
        self.rounds += other.rounds
        self.violations_detected += other.violations_detected
        self.repairs_applied += other.repairs_applied
        self.repairs_failed += other.repairs_failed
        self.repairs_obsolete += other.repairs_obsolete
        self.remaining_violations = other.remaining_violations
        self.reached_fixpoint = other.reached_fixpoint
        self.matches_enumerated += other.matches_enumerated
        self.seeded_searches += other.seeded_searches
        self.matching_stats.merge(other.matching_stats)
        self.elapsed_seconds += other.elapsed_seconds
        self.final_nodes = other.final_nodes
        self.final_edges = other.final_edges
        self.log.actions.extend(other.log.actions)
        self.timings = self.timings.merge(other.timings)
        return self

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------

    def repairs_per_rule(self) -> dict[str, int]:
        return self.log.actions_per_rule()

    def repairs_per_semantics(self) -> dict[str, int]:
        return self.log.actions_per_semantics()

    def change_counts(self) -> dict[str, int]:
        return self.log.change_counts()

    def total_changes(self) -> int:
        return sum(self.change_counts().values())

    def as_dict(self) -> dict[str, Any]:
        """Flat dictionary for the experiment harness' result tables."""
        return {
            "method": self.method,
            "graph": self.graph_name,
            "rules": self.rule_set_name,
            "rounds": self.rounds,
            "violations_detected": self.violations_detected,
            "repairs_applied": self.repairs_applied,
            "repairs_failed": self.repairs_failed,
            "repairs_obsolete": self.repairs_obsolete,
            "remaining_violations": self.remaining_violations,
            "reached_fixpoint": self.reached_fixpoint,
            "matches_enumerated": self.matches_enumerated,
            "seeded_searches": self.seeded_searches,
            **{name: value for name, value in self.matching_stats.as_dict().items()
               if name not in _NOT_REPORTED},
            "elapsed_seconds": self.elapsed_seconds,
            "total_changes": self.total_changes(),
            "initial_nodes": self.initial_nodes,
            "initial_edges": self.initial_edges,
            "final_nodes": self.final_nodes,
            "final_edges": self.final_edges,
            "timings": self.timings.as_dict(),
            "repairs_per_semantics": self.repairs_per_semantics(),
        }

    def describe(self) -> str:
        lines = [
            f"RepairReport [{self.method}] on {self.graph_name!r} with {self.rule_set_name!r}",
            f"  violations detected: {self.violations_detected}, repairs applied: "
            f"{self.repairs_applied}, failed: {self.repairs_failed}, "
            f"remaining: {self.remaining_violations}",
            f"  fixpoint: {self.reached_fixpoint}, rounds: {self.rounds}, "
            f"elapsed: {self.elapsed_seconds:.3f}s",
            f"  matching: {self.matching_stats.nodes_tried} nodes tried, "
            f"{self.matching_stats.backtracks} backtracks, "
            f"{self.matching_stats.closed_probes} closed probes",
            f"  index pruning: {self.matching_stats.label_bucket_candidates} label-bucket "
            f"candidates, {self.matching_stats.value_bucket_candidates} value-bucket, "
            f"{self.matching_stats.range_bucket_candidates} range/membership, "
            f"{self.matching_stats.predicate_survivors} predicate survivors",
            f"  planner: {self.matching_stats.planner_plans} plans, "
            f"{self.matching_stats.planner_replans} replans, orders: "
            f"{self.matching_stats.planner_orders}",
            f"  graph: {self.initial_nodes}/{self.initial_edges} -> "
            f"{self.final_nodes}/{self.final_edges} (nodes/edges)",
            f"  changes: {self.change_counts()}",
            f"  per semantics: {self.repairs_per_semantics()}",
            f"  timing: { {k: round(v, 4) for k, v in self.timings.as_dict().items()} }",
        ]
        return "\n".join(lines)
