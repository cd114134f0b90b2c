"""One runner per reconstructed table/figure of the paper's evaluation.

Each ``run_eN_*`` function builds its workloads, runs the relevant methods,
and returns a list of flat result rows; ``format_*`` helpers in
:mod:`repro.metrics.report` turn the rows into the printed tables the
benchmarks emit.  The experiment ids (E1–E8) and their mapping to the paper's
artefacts are documented in DESIGN.md §4 and EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.analysis.consistency import check_consistency
from repro.analysis.dependency import build_dependency_graph
from repro.analysis.termination import analyze_termination
from repro.api import RepairConfig, repair_copy
from repro.datasets.registry import build_workload, load_dataset
from repro.datasets.rulegen import RuleGenConfig, generate_rules
from repro.errors.injector import inject_errors
from repro.experiments.config import ExperimentDefaults, defaults
from repro.experiments.harness import evaluate_method, run_ablation
from repro.matching.matcher import Matcher, MatcherConfig
from repro.matching.pattern import Pattern, PatternEdge, PatternNode
from repro.metrics.quality import repair_quality
from repro.repair.detector import detect_violations
from repro.rules.library import MOVIES


# ---------------------------------------------------------------------------
# E1 — repair quality per domain and method
# ---------------------------------------------------------------------------

def run_e1_quality(domains: Sequence[str] | None = None,
                   methods: Sequence[str] | None = None,
                   scale: int | None = None,
                   error_rate: float | None = None,
                   seed: int | None = None,
                   config: ExperimentDefaults | None = None) -> list[dict[str, Any]]:
    """Precision / recall / F1 of every method on every domain (Table E1)."""
    config = config or defaults()
    domains = tuple(domains) if domains is not None else config.quality_domains
    methods = tuple(methods) if methods is not None else config.quality_methods
    scale = scale if scale is not None else config.quality_scale
    error_rate = error_rate if error_rate is not None else config.quality_error_rate
    seed = seed if seed is not None else config.seed

    rows: list[dict[str, Any]] = []
    for domain in domains:
        workload = build_workload(domain, scale=scale, error_rate=error_rate, seed=seed)
        for method in methods:
            rows.append(evaluate_method(method, workload))
    return rows


# ---------------------------------------------------------------------------
# E2 — runtime vs graph size
# ---------------------------------------------------------------------------

def run_e2_graph_size(scales: Sequence[int] | None = None,
                      methods: Sequence[str] | None = None,
                      domain: str | None = None,
                      error_rate: float | None = None,
                      seed: int | None = None,
                      config: ExperimentDefaults | None = None) -> list[dict[str, Any]]:
    """Repair runtime of the naive and fast algorithms as the graph grows (Figure E2)."""
    config = config or defaults()
    scales = tuple(scales) if scales is not None else config.size_scales
    methods = tuple(methods) if methods is not None else config.size_methods
    domain = domain or config.size_domain
    error_rate = error_rate if error_rate is not None else config.size_error_rate
    seed = seed if seed is not None else config.seed

    rows: list[dict[str, Any]] = []
    for scale in scales:
        workload = build_workload(domain, scale=scale, error_rate=error_rate, seed=seed)
        for method in methods:
            rows.append(evaluate_method(method, workload, include_quality=False))
    return rows


# ---------------------------------------------------------------------------
# E3 — runtime vs number of rules
# ---------------------------------------------------------------------------

def run_e3_rule_count(rule_counts: Sequence[int] | None = None,
                      domain: str | None = None,
                      scale: int | None = None,
                      error_rate: float = 0.05,
                      seed: int | None = None,
                      config: ExperimentDefaults | None = None) -> list[dict[str, Any]]:
    """Repair runtime as the number of (generated) rules grows (Figure E3)."""
    config = config or defaults()
    rule_counts = tuple(rule_counts) if rule_counts is not None else config.rules_counts
    domain = domain or config.rules_domain
    scale = scale if scale is not None else config.rules_scale
    seed = seed if seed is not None else config.seed

    instance = load_dataset(domain, scale=scale, seed=seed)
    dirty, _truth = inject_errors(instance.clean, instance.error_profile,
                                  error_rate=error_rate, seed=seed + 1)

    rows: list[dict[str, Any]] = []
    for count in rule_counts:
        rules = generate_rules(instance.clean,
                               RuleGenConfig(num_rules=count, seed=seed),
                               name=f"generated-{count}")
        for method_label, session_config in (("grr-fast", RepairConfig.fast()),
                                             ("grr-naive", RepairConfig.naive())):
            started = time.perf_counter()
            _repaired, report = repair_copy(dirty, rules, config=session_config)
            elapsed = time.perf_counter() - started
            rows.append({
                "domain": domain,
                "scale": scale,
                "num_rules": count,
                "method": method_label,
                "seconds": elapsed,
                "repairs_applied": report.repairs_applied,
                "violations_detected": report.violations_detected,
                "matches_enumerated": report.matches_enumerated,
            })
    return rows


# ---------------------------------------------------------------------------
# E4 — quality and runtime vs error rate
# ---------------------------------------------------------------------------

def run_e4_error_rate(error_rates: Sequence[float] | None = None,
                      domain: str | None = None,
                      scale: int | None = None,
                      methods: Sequence[str] = ("grr-fast", "grr-naive"),
                      seed: int | None = None,
                      config: ExperimentDefaults | None = None) -> list[dict[str, Any]]:
    """F1 and runtime as the injected error rate grows (Figure E4)."""
    config = config or defaults()
    error_rates = tuple(error_rates) if error_rates is not None else config.error_rates
    domain = domain or config.error_domain
    scale = scale if scale is not None else config.error_scale
    seed = seed if seed is not None else config.seed

    rows: list[dict[str, Any]] = []
    for rate in error_rates:
        workload = build_workload(domain, scale=scale, error_rate=rate, seed=seed)
        for method in methods:
            rows.append(evaluate_method(method, workload))
    return rows


# ---------------------------------------------------------------------------
# E5 — optimisation ablation
# ---------------------------------------------------------------------------

ABLATION_VARIANTS = ("none", "index", "decomposition", "incremental")


def run_e5_ablation(domain: str | None = None, scale: int | None = None,
                    error_rate: float | None = None, seed: int | None = None,
                    variants: Sequence[str] = ABLATION_VARIANTS,
                    config: ExperimentDefaults | None = None) -> list[dict[str, Any]]:
    """Runtime with each optimisation of the fast algorithm disabled (Figure E5)."""
    config = config or defaults()
    domain = domain or config.ablation_domain
    scale = scale if scale is not None else config.ablation_scale
    error_rate = error_rate if error_rate is not None else config.ablation_error_rate
    seed = seed if seed is not None else config.seed

    workload = build_workload(domain, scale=scale, error_rate=error_rate, seed=seed)
    rows: list[dict[str, Any]] = []
    for variant in variants:
        row = evaluate_method(run_ablation(variant), workload, include_quality=True)
        row["disabled_optimisation"] = variant
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E6 — rule-set analysis cost and verdicts
# ---------------------------------------------------------------------------

def run_e6_analysis(rule_counts: Sequence[int] | None = None,
                    domain: str = "kg", scale: int = 200,
                    seed: int | None = None,
                    exact_limit: int | None = None,
                    config: ExperimentDefaults | None = None) -> list[dict[str, Any]]:
    """Consistency / termination analysis time and verdicts vs rule-set size,
    with and without a planted inconsistent pair (Table E6)."""
    config = config or defaults()
    rule_counts = tuple(rule_counts) if rule_counts is not None else config.analysis_rule_counts
    exact_limit = exact_limit if exact_limit is not None else config.analysis_exact_limit
    seed = seed if seed is not None else config.seed

    instance = load_dataset(domain, scale=scale, seed=seed)
    rows: list[dict[str, Any]] = []
    for count in rule_counts:
        for planted in (False, True):
            rules = generate_rules(
                instance.clean,
                RuleGenConfig(num_rules=count, plant_inconsistent_pair=planted, seed=seed),
                name=f"generated-{count}{'-planted' if planted else ''}")

            started = time.perf_counter()
            dependency = build_dependency_graph(rules)
            sufficient = check_consistency(rules, dependency_graph=dependency)
            termination = analyze_termination(rules, dependency)
            sufficient_seconds = time.perf_counter() - started

            row: dict[str, Any] = {
                "num_rules": len(rules),
                "planted_inconsistency": planted,
                "sufficient_verdict": sufficient.verdict.value,
                "termination_verdict": termination.verdict.value,
                "sufficient_seconds": sufficient_seconds,
                "trigger_relations": len(dependency.triggers()),
            }
            if len(rules) <= exact_limit:
                started = time.perf_counter()
                exact = check_consistency(rules, exact=True,
                                          max_repairs_per_witness=50,
                                          dependency_graph=dependency)
                row["exact_verdict"] = exact.verdict.value
                row["exact_seconds"] = time.perf_counter() - started
            else:
                row["exact_verdict"] = "skipped"
                row["exact_seconds"] = float("nan")
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E7 — matching cost vs pattern size
# ---------------------------------------------------------------------------

def _movie_pattern_of_size(size: int) -> Pattern:
    """Connected patterns of 2–6 variables over the movie schema."""
    nodes = [PatternNode("p", MOVIES["PERSON"]), PatternNode("m", MOVIES["MOVIE"])]
    edges = [PatternEdge("p", "m", MOVIES["DIRECTED"])]
    if size >= 3:
        nodes.append(PatternNode("s", MOVIES["STUDIO"]))
        edges.append(PatternEdge("m", "s", MOVIES["PRODUCED_BY"]))
    if size >= 4:
        nodes.append(PatternNode("g", MOVIES["GENRE"]))
        edges.append(PatternEdge("m", "g", MOVIES["HAS_GENRE"]))
    if size >= 5:
        nodes.append(PatternNode("y", MOVIES["YEAR"]))
        edges.append(PatternEdge("m", "y", MOVIES["RELEASED_IN"]))
    if size >= 6:
        nodes.append(PatternNode("a", MOVIES["PERSON"]))
        edges.append(PatternEdge("a", "m", MOVIES["ACTED_IN"]))
    if size < 2 or size > 6:
        raise ValueError("pattern size must be between 2 and 6")
    return Pattern(nodes=nodes[:size], edges=edges[:size - 1], name=f"chain-{size}")


MATCHER_VARIANTS = {
    "naive": MatcherConfig(use_candidate_index=False, use_decomposition=False),
    "index-only": MatcherConfig(use_candidate_index=True, use_decomposition=False),
    "decomposition-only": MatcherConfig(use_candidate_index=False, use_decomposition=True),
    "index+decomposition": MatcherConfig(use_candidate_index=True, use_decomposition=True),
}


def run_e7_pattern_size(pattern_sizes: Sequence[int] | None = None,
                        scale: int | None = None, seed: int | None = None,
                        variants: Sequence[str] | None = None,
                        config: ExperimentDefaults | None = None) -> list[dict[str, Any]]:
    """Match-enumeration time vs pattern size for each matcher configuration
    (Figure E7)."""
    config = config or defaults()
    pattern_sizes = tuple(pattern_sizes) if pattern_sizes is not None else config.pattern_sizes
    scale = scale if scale is not None else config.pattern_scale
    seed = seed if seed is not None else config.seed
    variant_names = tuple(variants) if variants is not None else tuple(MATCHER_VARIANTS)

    instance = load_dataset("movies", scale=scale, seed=seed)
    graph = instance.clean

    rows: list[dict[str, Any]] = []
    for size in pattern_sizes:
        pattern = _movie_pattern_of_size(size)
        for variant_name in variant_names:
            matcher = Matcher(graph, MATCHER_VARIANTS[variant_name])
            started = time.perf_counter()
            matches = matcher.find_matches(pattern)
            elapsed = time.perf_counter() - started
            matcher.close()
            rows.append({
                "pattern_size": size,
                "variant": variant_name,
                "seconds": elapsed,
                "matches": len(matches),
                "nodes_tried": matcher.stats.nodes_tried,
                "graph_nodes": graph.num_nodes,
                "graph_edges": graph.num_edges,
            })
    return rows


# ---------------------------------------------------------------------------
# E8 — per-semantics breakdown
# ---------------------------------------------------------------------------

def run_e8_semantics(domains: Sequence[str] | None = None,
                     scale: int | None = None, error_rate: float | None = None,
                     seed: int | None = None,
                     config: ExperimentDefaults | None = None) -> list[dict[str, Any]]:
    """Injected / detected / repaired / remaining per error class (Table E8)."""
    config = config or defaults()
    domains = tuple(domains) if domains is not None else config.quality_domains
    scale = scale if scale is not None else config.quality_scale
    error_rate = error_rate if error_rate is not None else config.quality_error_rate
    seed = seed if seed is not None else config.seed

    rows: list[dict[str, Any]] = []
    for domain in domains:
        workload = build_workload(domain, scale=scale, error_rate=error_rate, seed=seed)
        detection = detect_violations(workload.dirty, workload.rules)
        repaired, report = repair_copy(workload.dirty, workload.rules,
                                       config=RepairConfig.fast())
        remaining = detect_violations(repaired, workload.rules)
        quality = repair_quality(workload.clean, workload.dirty, repaired,
                                 workload.ground_truth)

        injected = workload.ground_truth.counts_by_kind()
        detected = detection.per_semantics()
        repaired_counts = report.repairs_per_semantics()
        remaining_counts = remaining.per_semantics()
        for kind in ("incompleteness", "conflict", "redundancy"):
            rows.append({
                "domain": domain,
                "semantics": kind,
                "injected_errors": injected.get(kind, 0),
                "violations_detected": detected.get(kind, 0),
                "repairs_applied": repaired_counts.get(kind, 0),
                "violations_remaining": remaining_counts.get(kind, 0),
                "recall": quality.recall_by_kind.get(kind, float("nan")),
            })
    return rows


ALL_RUNNERS = {
    "e1": run_e1_quality,
    "e2": run_e2_graph_size,
    "e3": run_e3_rule_count,
    "e4": run_e4_error_rate,
    "e5": run_e5_ablation,
    "e6": run_e6_analysis,
    "e7": run_e7_pattern_size,
    "e8": run_e8_semantics,
}
