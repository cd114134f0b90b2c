"""The naive (baseline) repairing algorithm.

``NaiveRepairer`` is the straightforward fixpoint loop the paper compares its
efficient algorithm against:

1. enumerate **all** violations of **all** rules on the **whole** graph;
2. sort them (priority, then estimated cost, then detection order);
3. apply them one by one, re-validating each immediately before applying
   (an earlier repair in the same round may have made it obsolete);
4. if anything changed, go back to 1 — full re-detection from scratch.

Correct and simple, but every round pays the full subgraph-matching bill,
which is what makes it slow on large graphs (experiments E2/E3).  Its
fixpoint semantics are identical to the fast repairer's, which is why the two
produce the same repair quality in E1/E4 — only the runtime differs.
"""

from __future__ import annotations

import time

from repro.graph.property_graph import PropertyGraph
from repro.matching.matcher import Matcher
from repro.repair.config import RepairConfig
from repro.repair.detector import ViolationDetector
from repro.repair.events import MaintenanceEvent
from repro.repair.executor import RepairExecutor
from repro.repair.report import RepairReport
from repro.repair.violation import Violation, ViolationStatus, sort_key
from repro.rules.grr import RuleSet


class NaiveRepairer:
    """Fixpoint repair with full re-detection every round."""

    def __init__(self, config: RepairConfig | None = None, events=None) -> None:
        self.config = config or RepairConfig.naive()
        self.events = events

    def repair(self, graph: PropertyGraph, rules: RuleSet) -> RepairReport:
        """Repair ``graph`` in place; returns the :class:`RepairReport`."""
        config = self.config
        matcher_config = config.to_matcher_config()
        report = RepairReport(method="naive", graph_name=graph.name,
                              rule_set_name=rules.name,
                              initial_nodes=graph.num_nodes,
                              initial_edges=graph.num_edges)
        started = time.perf_counter()
        executor = RepairExecutor(graph, cost_model=config.cost_model)
        seen_violations: set[tuple] = set()
        failed_keys: set[tuple] = set()
        on_violation = getattr(self.events, "on_violation", None)
        on_repair_applied = getattr(self.events, "on_repair_applied", None)
        on_maintenance = getattr(self.events, "on_maintenance", None)

        for round_index in range(config.max_rounds):
            report.rounds = round_index + 1
            matcher = Matcher(graph, matcher_config)
            detector = ViolationDetector(graph, rules, matcher=matcher,
                                         match_limit_per_rule=config.match_limit_per_rule)
            with report.timings.measure("detection"):
                detection = detector.detect()
            report.matches_enumerated += detection.matches_enumerated
            newly_detected = 0
            for violation in detection:
                if violation.key() not in seen_violations:
                    seen_violations.add(violation.key())
                    report.violations_detected += 1
                    newly_detected += 1
                    if on_violation is not None:
                        on_violation(violation)
            if on_maintenance is not None:
                # discovered counts *new* violation identities only, matching
                # the fast backend's newly-queued semantics; passes=0 because
                # a full re-detection is not an incremental maintenance pass
                on_maintenance(MaintenanceEvent(source="detection",
                                                discovered=newly_detected,
                                                passes=0))

            pending = [violation for violation in detection
                       if violation.key() not in failed_keys]
            if not pending:
                # only violations whose repair already failed are left: the
                # loop is done, and it is a fixpoint only if none are
                report.remaining_violations = sum(
                    1 for violation in detection if violation.key() in failed_keys)
                report.reached_fixpoint = report.remaining_violations == 0
                report.matching_stats.merge(matcher.stats)
                matcher.close()
                break

            ordered = sorted(
                ((config.cost_model.estimate(graph, violation.rule, violation.match),
                  sequence, violation)
                 for sequence, violation in enumerate(pending)),
                key=lambda item: sort_key(item[2], cost=item[0], sequence=item[1]))

            applied_this_round = 0
            for cost, _sequence, violation in ordered:
                if config.max_repairs is not None and \
                        report.repairs_applied >= config.max_repairs:
                    break
                with report.timings.measure("validation"):
                    still_valid = violation.is_still_valid(graph, matcher)
                if not still_valid:
                    violation.status = ViolationStatus.OBSOLETE
                    report.repairs_obsolete += 1
                    continue
                with report.timings.measure("execution"):
                    outcome = executor.apply(violation.rule, violation.match)
                if outcome.applied:
                    violation.status = ViolationStatus.REPAIRED
                    report.repairs_applied += 1
                    applied_this_round += 1
                    if on_repair_applied is not None:
                        on_repair_applied(violation, outcome)
                else:
                    violation.status = ViolationStatus.FAILED
                    report.repairs_failed += 1
                    failed_keys.add(violation.key())
            report.matching_stats.merge(matcher.stats)
            matcher.close()

            if config.max_repairs is not None and report.repairs_applied >= config.max_repairs:
                break
            if applied_this_round == 0:
                # Nothing applied although violations remain (all failed/obsolete):
                # a further round would not make progress.
                report.remaining_violations = len(pending)
                report.reached_fixpoint = False
                break

        if not report.reached_fixpoint and report.remaining_violations == 0:
            # Budget ended the loop; count what is left with one last detection.
            with report.timings.measure("final-check"):
                final_matcher = Matcher(graph, matcher_config)
                final_detection = ViolationDetector(
                    graph, rules, matcher=final_matcher,
                    match_limit_per_rule=config.match_limit_per_rule).detect()
                report.matching_stats.merge(final_matcher.stats)
                final_matcher.close()
            report.remaining_violations = len(final_detection)
            report.reached_fixpoint = report.remaining_violations == 0

        report.log = executor.log
        report.elapsed_seconds = time.perf_counter() - started
        report.final_nodes = graph.num_nodes
        report.final_edges = graph.num_edges
        return report
