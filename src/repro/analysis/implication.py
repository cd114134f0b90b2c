"""Rule implication / redundancy analysis.

A rule r is *redundant* with respect to a rule set R (r ∈ R) if removing r
does not change what the set can repair: every violation r would fix is
already fixed by the remaining rules.  Exactly like consistency, the general
problem is intractable, so the practical check is witness-based:

1. materialise r's canonical witness graph (one violation of r, nothing else);
2. repair the witness with R \\ {r};
3. if the result no longer violates r, the other rules subsumed r's repair on
   its own canonical instance — r is reported redundant.

This is a sound *heuristic* in the direction that matters for rule-set
minimisation: a rule reported non-redundant is definitely needed (its witness
survives the others); a rule reported redundant could in principle still be
useful on exotic instances, which the report records as a caveat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.witness import witness_for_rule
from repro.rules.grr import GraphRepairingRule, RuleSet


@dataclass
class ImplicationResult:
    """Redundancy verdict for one rule."""

    rule_name: str
    redundant: bool
    remaining_violations_after_others: int
    repairs_by_others: int

    def describe(self) -> str:
        status = "redundant" if self.redundant else "necessary"
        return (f"{self.rule_name}: {status} "
                f"(others applied {self.repairs_by_others} repairs, "
                f"{self.remaining_violations_after_others} violation(s) of the rule left)")


@dataclass
class RedundancyReport:
    """Redundancy verdicts for a whole rule set."""

    results: list[ImplicationResult] = field(default_factory=list)

    def redundant_rules(self) -> list[str]:
        return [result.rule_name for result in self.results if result.redundant]

    def necessary_rules(self) -> list[str]:
        return [result.rule_name for result in self.results if not result.redundant]

    def describe(self) -> str:
        lines = [f"Redundancy analysis: {len(self.redundant_rules())} of "
                 f"{len(self.results)} rules look redundant"]
        lines.extend("  " + result.describe() for result in self.results)
        return "\n".join(lines)


def is_rule_redundant(rule: GraphRepairingRule, rules: RuleSet,
                      max_repairs: int = 100) -> ImplicationResult:
    """Witness-based redundancy check of one rule against the rest of the set."""
    from repro.repair.detector import detect_violations
    from repro.repair.config import RepairConfig
    from repro.repair.fast import FastRepairer

    others = RuleSet((other for other in rules if other.name != rule.name),
                     name=f"{rules.name}-minus-{rule.name}")
    witness = witness_for_rule(rule)
    single = RuleSet([rule], name=f"only-{rule.name}")

    if not others.rules():
        remaining = len(detect_violations(witness, single))
        return ImplicationResult(rule_name=rule.name, redundant=False,
                                 remaining_violations_after_others=remaining,
                                 repairs_by_others=0)

    repairer = FastRepairer(RepairConfig(max_repairs=max_repairs))
    report = repairer.repair(witness, others)
    remaining = len(detect_violations(witness, single))
    return ImplicationResult(rule_name=rule.name,
                             redundant=remaining == 0,
                             remaining_violations_after_others=remaining,
                             repairs_by_others=report.repairs_applied)


def analyze_redundancy(rules: RuleSet, max_repairs: int = 100) -> RedundancyReport:
    """Run the redundancy check for every rule of the set."""
    report = RedundancyReport()
    for rule in rules:
        report.results.append(is_rule_redundant(rule, rules, max_repairs=max_repairs))
    return report
