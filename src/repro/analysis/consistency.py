"""Consistency checking of rule sets.

A rule set is *consistent* if, on every graph, the repairing process
terminates and does not oscillate (no two rules keep undoing each other's
repairs), so that every run ends in a graph with no remaining violations of
the set.  Deciding this exactly is intractable (it quantifies over all
graphs), which is precisely why the paper studies the static-analysis problem.
This module offers the two practical layers:

* **Sufficient conditions** (the default, polynomial in the number of rules):
  combine the termination analysis with the pairwise *undo* relation.  If the
  trigger graph is benign and no pair of rules adds and deletes the same kind
  of structure, the set is reported *consistent*; detected mutual-undo pairs
  that also trigger each other are reported *inconsistent*; everything else is
  *unknown*.
* **Exact (bounded-chase) checking** (``exact=True``, exponential — intended
  for small rule sets): for every rule, materialise its canonical witness
  graph and run the actual repair engine with a generous budget.  If some
  witness does not reach a violation-free fixpoint within the budget, the pair
  of rules still fighting over it is reported with the witness as evidence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis.dependency import DependencyGraph, build_dependency_graph
from repro.analysis.termination import TerminationVerdict, analyze_termination
from repro.analysis.witness import witness_for_rule
from repro.rules.grr import RuleSet


class ConsistencyVerdict(enum.Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    UNKNOWN = "unknown"


@dataclass
class ConsistencyReport:
    """Outcome of the consistency analysis."""

    verdict: ConsistencyVerdict
    reasons: list[str] = field(default_factory=list)
    conflicting_pairs: list[tuple[str, str]] = field(default_factory=list)
    non_converging_rules: list[str] = field(default_factory=list)
    checked_exactly: bool = False

    @property
    def is_consistent(self) -> bool:
        return self.verdict is ConsistencyVerdict.CONSISTENT

    def describe(self) -> str:
        lines = [f"Consistency: {self.verdict.value}"
                 f"{' (exact bounded-chase check)' if self.checked_exactly else ''}"]
        lines.extend(f"  - {reason}" for reason in self.reasons)
        for first, second in self.conflicting_pairs:
            lines.append(f"  conflicting pair: {first} <-> {second}")
        for name in self.non_converging_rules:
            lines.append(f"  witness of rule {name!r} did not converge")
        return "\n".join(lines)


def _sufficient_conditions(rules: RuleSet,
                           dependency_graph: DependencyGraph) -> ConsistencyReport:
    termination = analyze_termination(rules, dependency_graph)
    undo_pairs = [(relation.source, relation.target)
                  for relation in dependency_graph.undoes()]
    trigger_adjacency = dependency_graph.trigger_adjacency()

    # Mutual-undo pairs that can also re-activate each other are the classic
    # oscillation shape: r1 deletes what r2 adds *and* r1's repair re-creates a
    # violation of r2 (or vice versa).
    oscillating: list[tuple[str, str]] = []
    for first, second in undo_pairs:
        if second in trigger_adjacency.get(first, set()) and \
                first in trigger_adjacency.get(second, set()):
            oscillating.append((first, second))

    if oscillating:
        return ConsistencyReport(
            verdict=ConsistencyVerdict.INCONSISTENT,
            reasons=["found rule pairs that delete what the other adds and mutually "
                     "re-trigger each other (repair oscillation)"],
            conflicting_pairs=oscillating)

    if termination.verdict is TerminationVerdict.TERMINATING and not undo_pairs:
        return ConsistencyReport(
            verdict=ConsistencyVerdict.CONSISTENT,
            reasons=["the trigger graph guarantees termination and no rule deletes "
                     "the kind of structure another rule adds"])

    reasons = []
    if termination.verdict is not TerminationVerdict.TERMINATING:
        reasons.append("termination could not be established "
                       "(trigger cycles involve additive rules)")
    if undo_pairs:
        reasons.append(f"{len(undo_pairs)} rule pair(s) add and delete overlapping "
                       "structure; they do not provably oscillate, but the sufficient "
                       "conditions cannot rule it out")
    return ConsistencyReport(verdict=ConsistencyVerdict.UNKNOWN, reasons=reasons,
                             conflicting_pairs=undo_pairs)


def _exact_check(rules: RuleSet, base: ConsistencyReport,
                 max_repairs_per_witness: int) -> ConsistencyReport:
    """Bounded chase on every rule's canonical witness graph."""
    from repro.repair.config import RepairConfig
    from repro.repair.fast import FastRepairer

    non_converging: list[str] = []
    for rule in rules:
        witness = witness_for_rule(rule)
        repairer = FastRepairer(RepairConfig(max_repairs=max_repairs_per_witness))
        report = repairer.repair(witness, rules)
        if not report.reached_fixpoint:
            non_converging.append(rule.name)

    if non_converging:
        return ConsistencyReport(
            verdict=ConsistencyVerdict.INCONSISTENT,
            reasons=[f"bounded chase ({max_repairs_per_witness} repairs) on the canonical "
                     "witness graph of the listed rules did not reach a violation-free "
                     "fixpoint"],
            conflicting_pairs=base.conflicting_pairs,
            non_converging_rules=non_converging,
            checked_exactly=True)

    # Every witness converged.  Together with no observed oscillation this is
    # strong evidence; it upgrades an UNKNOWN (or a syntactic false alarm) to
    # CONSISTENT — still a bounded check, which ``checked_exactly`` records.
    reasons = list(base.reasons)
    if base.verdict is ConsistencyVerdict.INCONSISTENT:
        reasons.append("the syntactic oscillation alarm was not confirmed by the "
                       "bounded chase")
    reasons.append("every rule's canonical witness graph converged to a "
                   "violation-free fixpoint under the full rule set")
    return ConsistencyReport(
        verdict=ConsistencyVerdict.CONSISTENT,
        reasons=reasons,
        conflicting_pairs=[],
        checked_exactly=True)


def check_consistency(rules: RuleSet, exact: bool = False,
                      max_repairs_per_witness: int = 200,
                      dependency_graph: DependencyGraph | None = None) -> ConsistencyReport:
    """Check a rule set for consistency.

    With ``exact=False`` only the polynomial sufficient conditions run.  With
    ``exact=True`` the bounded-chase refinement runs on top; it can both
    upgrade an *unknown* verdict to *consistent* and produce concrete
    non-convergence evidence.  Exact checking materialises one witness per
    rule and runs the repair engine on it, so its cost grows quickly with rule
    count and pattern size — that trade-off is measured in experiment E6.
    """
    dependency_graph = dependency_graph or build_dependency_graph(rules)
    base = _sufficient_conditions(rules, dependency_graph)
    if not exact:
        return base
    return _exact_check(rules, base, max_repairs_per_witness)
