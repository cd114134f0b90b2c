"""Violation detection.

The detector enumerates matches of every rule's evidence pattern and filters
them through the rule's violation semantics.  It is the detection component
shared by the naive repairer (which calls it every round), by the fast
repairer (which calls it once for the initial queue, then maintains matches
incrementally), and by the detection-only baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.graph.property_graph import PropertyGraph
from repro.matching.matcher import Matcher, MatcherConfig
from repro.repair.violation import Violation
from repro.rules.grr import GraphRepairingRule, RuleSet
from repro.rules.semantics import Semantics
from repro.utils.timing import TimingBreakdown


@dataclass
class DetectionResult:
    """All violations found in one detection pass."""

    violations: list[Violation] = field(default_factory=list)
    matches_enumerated: int = 0
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)

    def __len__(self) -> int:
        return len(self.violations)

    def __iter__(self):
        return iter(self.violations)

    def per_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule.name] = counts.get(violation.rule.name, 0) + 1
        return counts

    def per_semantics(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            key = violation.semantics.value
            counts[key] = counts.get(key, 0) + 1
        return counts


class ViolationDetector:
    """Finds violations of a rule set on a graph."""

    def __init__(self, graph: PropertyGraph, rules: RuleSet | Iterable[GraphRepairingRule],
                 matcher: Matcher | None = None,
                 matcher_config: MatcherConfig | None = None) -> None:
        self.graph = graph
        self.rules = rules if isinstance(rules, RuleSet) else RuleSet(rules)
        self.matcher = matcher or Matcher(graph, matcher_config or MatcherConfig())

    def detect(self, rules: Iterable[GraphRepairingRule] | None = None) -> DetectionResult:
        """Enumerate all violations of the given rules (default: all rules)."""
        result = DetectionResult()
        target_rules = list(rules) if rules is not None else self.rules.rules()
        for rule in target_rules:
            with result.timings.measure("matching"):
                matches = self.matcher.find_matches(rule.pattern)
            result.matches_enumerated += len(matches)
            with result.timings.measure("violation-check"):
                for match in matches:
                    if rule.is_violation(self.matcher, match):
                        result.violations.append(Violation(rule=rule, match=match))
        return result

    def detect_for_rule(self, rule_name: str) -> DetectionResult:
        """Violations of a single rule (by name)."""
        return self.detect([self.rules.get(rule_name)])

    def count_by_semantics(self) -> dict[str, int]:
        """Convenience: number of violations per error class."""
        return self.detect().per_semantics()

    def has_violations(self) -> bool:
        """Short-circuiting check whether any rule is violated at all."""
        for rule in self.rules:
            for match in self.matcher.find_matches(rule.pattern):
                if rule.is_violation(self.matcher, match):
                    return True
        return False


def detect_violations(graph: PropertyGraph, rules: RuleSet,
                      optimized: bool = True) -> DetectionResult:
    """One-shot detection helper used by examples and the detection-only baseline."""
    config = MatcherConfig.optimized() if optimized else MatcherConfig.naive()
    return ViolationDetector(graph, rules, matcher_config=config).detect()
