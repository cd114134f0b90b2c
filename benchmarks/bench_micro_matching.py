"""Micro-benchmarks of the matching/repair hot path (table + regression gate).

Complements the paper-level experiments (E1–E8) with targeted timings of the
four layers the hot-path overhaul touches:

* full pattern enumeration with the optimised matcher (index + decomposition),
* incremental match maintenance (``apply_delta``) over a scripted batch of
  repair-like mutations,
* both repair algorithms end to end, and
* the candidate index's value buckets: a ``(label, key, value)`` bucket probe
  against the equivalent full label-bucket property scan (the predicate-
  pushdown win in isolation),

on all three dataset generators.  Results are printed as a table and saved to
``benchmarks/results/``.

``test_perf_regression_gate`` is the tier-2 perf gate: it re-measures the
quick profile and compares against the committed ``BENCH_repair.json``
baseline (see ``check_regression.py``).  It only runs when
``REPRO_BENCH_CHECK=1`` is set, so ordinary benchmark invocations stay fast.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.datasets.registry import build_workload
from repro.graph import ChangeRecorder
from repro.matching import CandidateIndex, IncrementalMatcher, Matcher, MatcherConfig
from repro.metrics import format_table
from repro.api import RepairConfig, repair_copy

DOMAINS = ("kg", "movies", "social")
SCALES = {"kg": 200, "movies": 150, "social": 150}

COLUMNS = ("domain", "scale", "match_seconds", "incremental_seconds",
           "seeded_searches", "fast_seconds", "naive_seconds",
           "matches", "fast_repairs")


def _measure_incremental(workload) -> tuple[float, int]:
    """Time apply_delta over a scripted batch of repair-like mutations."""
    graph = workload.dirty.copy()
    index = CandidateIndex(graph)
    index.attach()
    incremental = IncrementalMatcher(graph, candidate_index=index)
    for rule in workload.rules:
        incremental.register(rule.pattern)
    recorder = ChangeRecorder()
    graph.add_listener(recorder)

    # a deterministic mutation batch covering the three discovery paths:
    # remove every 7th edge (invalidation), duplicate every 11th (edge-seeded
    # discovery), and touch every 13th node's properties (node-seeded
    # discovery)
    edges = graph.edge_ids()
    for position, edge_id in enumerate(edges):
        if position % 7 == 0:
            graph.remove_edge(edge_id)
        elif position % 11 == 0:
            edge = graph.edge(edge_id)
            graph.add_edge(edge.source, edge.target, edge.label)
    for position, node_id in enumerate(graph.node_ids()):
        if position % 13 == 0:
            graph.update_node(node_id, {"touched": True})

    seeded = 0
    started = time.perf_counter()
    updates = incremental.apply_delta(recorder.drain())
    elapsed = time.perf_counter() - started
    for update in updates.values():
        seeded += update.seeded_searches
    return elapsed, seeded


def _measure_domain(domain: str) -> dict:
    scale = SCALES[domain]
    workload = build_workload(domain, scale=scale, error_rate=0.05, seed=0)

    matcher = Matcher(workload.dirty, MatcherConfig.optimized())
    started = time.perf_counter()
    matches = sum(len(matcher.find_matches(rule.pattern)) for rule in workload.rules)
    match_seconds = time.perf_counter() - started
    matcher.close()

    incremental_seconds, seeded = _measure_incremental(workload)

    started = time.perf_counter()
    _, fast_report = repair_copy(workload.dirty, workload.rules,
                                 config=RepairConfig.fast())
    fast_seconds = time.perf_counter() - started

    started = time.perf_counter()
    repair_copy(workload.dirty, workload.rules, config=RepairConfig.naive())
    naive_seconds = time.perf_counter() - started

    return {
        "domain": domain,
        "scale": scale,
        "match_seconds": match_seconds,
        "incremental_seconds": incremental_seconds,
        "seeded_searches": seeded,
        "fast_seconds": fast_seconds,
        "naive_seconds": naive_seconds,
        "matches": matches,
        "fast_repairs": fast_report.repairs_applied,
    }


def test_micro_matching_hot_path(run_once, save_table):
    rows = run_once(lambda: [_measure_domain(domain) for domain in DOMAINS])
    save_table("micro_matching", format_table(
        rows, columns=list(COLUMNS),
        title="Micro — matcher / incremental-maintenance / repair hot path"))
    # the fast algorithm must beat full re-detection; aggregate across the
    # domains so a single scheduler stall on one sub-second measurement
    # cannot flip the comparison (the strict 25%-threshold gate is the
    # opt-in test_perf_regression_gate below)
    total_fast = sum(row["fast_seconds"] for row in rows)
    total_naive = sum(row["naive_seconds"] for row in rows)
    assert total_fast < total_naive
    for row in rows:
        assert row["matches"] > 0


# the property each domain's dedup rule compares for equality — the key the
# predicate pushdown turns into value-bucket probes
_VALUE_PROBE = {"kg": ("Person", "name"),
                "movies": ("Movie", "title"),
                "social": ("User", "email")}

INDEX_COLUMNS = ("domain", "label_size", "probes", "bucket_seconds",
                 "scan_seconds", "speedup")


def _measure_value_probe(domain: str) -> dict:
    """Probe the value bucket for every distinct dedup-key value vs answering
    the same equality question by scanning the label bucket."""
    workload = build_workload(domain, scale=SCALES[domain], error_rate=0.05,
                              seed=0)
    graph = workload.dirty
    index = CandidateIndex(graph)
    label, key = _VALUE_PROBE[domain]
    index.ensure_value_index(label, key)
    values = sorted({node.properties[key]
                     for node in graph.nodes_with_label(label)
                     if key in node.properties})

    started = time.perf_counter()
    bucket_hits = 0
    for value in values:
        bucket_hits += len(index.value_bucket(label, key, value))
    bucket_seconds = time.perf_counter() - started

    node = graph.node
    started = time.perf_counter()
    scan_hits = 0
    for value in values:
        scan_hits += sum(1 for node_id in index.label_bucket(label)
                         if node(node_id).properties.get(key) == value)
    scan_seconds = time.perf_counter() - started
    assert bucket_hits == scan_hits  # the bucket answers the same question

    return {
        "domain": domain,
        "label_size": len(index.label_bucket(label)),
        "probes": len(values),
        "bucket_seconds": bucket_seconds,
        "scan_seconds": scan_seconds,
        "speedup": scan_seconds / bucket_seconds if bucket_seconds else float("inf"),
    }


def test_micro_candidate_index(run_once, save_table):
    rows = run_once(lambda: [_measure_value_probe(domain) for domain in DOMAINS])
    save_table("micro_candidate_index", format_table(
        rows, columns=list(INDEX_COLUMNS),
        title="Micro — value-bucket probe vs full label-bucket scan"))
    for row in rows:
        # a bucket probe must beat scanning the label bucket per probe —
        # by orders of magnitude in practice; assert a conservative margin
        assert row["bucket_seconds"] < row["scan_seconds"]


RANGE_COLUMNS = ("domain", "label_size", "probes", "range_seconds",
                 "scan_seconds", "speedup")


def _measure_range_probe(domain: str) -> dict:
    """Probe the sorted buckets for ``ge`` cut points vs answering the same
    range question by scanning the label bucket (the range-pushdown win in
    isolation)."""
    workload = build_workload(domain, scale=SCALES[domain], error_rate=0.05,
                              seed=0)
    graph = workload.dirty
    index = CandidateIndex(graph)
    label, key = _VALUE_PROBE[domain]
    index.ensure_sorted_index(label, key)
    values = sorted({node.properties[key]
                     for node in graph.nodes_with_label(label)
                     if key in node.properties
                     and isinstance(node.properties[key], str)})
    # every 5th distinct value as a cut point keeps the probe count bounded
    cuts = values[::5] or values

    started = time.perf_counter()
    range_hits = 0
    for cut in cuts:
        range_hits += len(index.range_bucket(label, key, "ge", cut))
    range_seconds = time.perf_counter() - started

    node = graph.node

    def _ge(value, cut):
        try:
            return value >= cut
        except TypeError:
            return False

    started = time.perf_counter()
    scan_hits = 0
    for cut in cuts:
        scan_hits += sum(1 for node_id in index.label_bucket(label)
                         if key in node(node_id).properties
                         and _ge(node(node_id).properties[key], cut))
    scan_seconds = time.perf_counter() - started
    # the probe is complete-not-exact: it may include the fuzzy/unhashable
    # side pools, never miss a true hit
    assert range_hits >= scan_hits

    return {
        "domain": domain,
        "label_size": len(index.label_bucket(label)),
        "probes": len(cuts),
        "range_seconds": range_seconds,
        "scan_seconds": scan_seconds,
        "speedup": scan_seconds / range_seconds if range_seconds else float("inf"),
    }


def test_micro_range_probe(run_once, save_table):
    rows = run_once(lambda: [_measure_range_probe(domain) for domain in DOMAINS])
    save_table("micro_range_probe", format_table(
        rows, columns=list(RANGE_COLUMNS),
        title="Micro — sorted-bucket range probe vs full label-bucket scan"))
    for row in rows:
        assert row["range_seconds"] < row["scan_seconds"]


PLANNER_COLUMNS = ("domain", "scale", "planned_nodes", "static_nodes",
                   "planned_seconds", "static_seconds", "plans", "matches")


def _measure_planner(domain: str) -> dict:
    """Full-rule-set enumeration under the cost planner vs the static
    declaration order, with match-identity asserted."""
    scale = SCALES[domain]
    workload = build_workload(domain, scale=scale, error_rate=0.05, seed=0)
    graph = workload.dirty
    results = {}
    for flag in (True, False):
        matcher = Matcher(
            graph, replace(MatcherConfig.optimized(), use_cost_planner=flag))
        started = time.perf_counter()
        keys = set()
        for rule in workload.rules:
            keys |= {match.key() for match in matcher.find_matches(rule.pattern)}
        elapsed = time.perf_counter() - started
        results[flag] = (keys, elapsed, matcher.stats)
        matcher.close()
    planned_keys, planned_seconds, planned_stats = results[True]
    static_keys, static_seconds, static_stats = results[False]
    assert planned_keys == static_keys  # perf-only knob: identical matches
    return {
        "domain": domain,
        "scale": scale,
        "planned_nodes": planned_stats.nodes_tried,
        "static_nodes": static_stats.nodes_tried,
        "planned_seconds": planned_seconds,
        "static_seconds": static_seconds,
        "plans": planned_stats.planner_plans,
        "matches": len(planned_keys),
    }


def test_micro_planner(run_once, save_table):
    rows = run_once(lambda: [_measure_planner(domain) for domain in DOMAINS])
    save_table("micro_planner", format_table(
        rows, columns=list(PLANNER_COLUMNS),
        title="Micro — cost-planned variable order vs static declaration order"))
    for row in rows:
        assert row["plans"] > 0
    # aggregate so one noisy sub-second measurement cannot flip the gate
    assert sum(row["planned_nodes"] for row in rows) <= \
        sum(row["static_nodes"] for row in rows)


@pytest.mark.skipif(os.environ.get("REPRO_BENCH_CHECK", "") != "1",
                    reason="perf gate runs only with REPRO_BENCH_CHECK=1")
def test_perf_regression_gate(perf_baseline):
    from check_regression import DEFAULT_THRESHOLD, compare
    from perf_baseline import measure

    current = measure("quick")
    regressions, warnings = compare(perf_baseline["results"], current,
                                    DEFAULT_THRESHOLD)
    for warning in warnings:
        print(f"WARNING: {warning}")
    assert not regressions, "perf regression vs committed baseline:\n" + \
        "\n".join(regressions)
