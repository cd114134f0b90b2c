"""Pinned search counters of the stock sessions.

The matcher's candidate derivation decides how many nodes a search visits,
how many branches it abandons, and in which order matches come out.  A
change to how the search is *run* (its interpretation, its bookkeeping)
must not change any of that, so these tests pin the exact counters of a
stock fast session's ``repair()`` on the kg and social rule libraries and of
whole-library enumerations (match order included) by the index-free,
static-order and planned matchers.
The values were recorded before the step-table matcher replaced the
per-candidate interpretation, and hold under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import RepairConfig, RepairSession
from repro.datasets.registry import build_workload
from repro.matching.index import CandidateIndex
from repro.matching.vf2 import VF2Matcher

SCALES = {"kg": 300, "social": 150}


def _workload(domain: str):
    return build_workload(domain, scale=SCALES[domain], error_rate=0.05, seed=0)


SESSION_COUNTERS = {
    "kg": {
        "nodes_tried": 1236, "backtracks": 0, "matches_found": 785,
        "closed_probes": 403, "seeded_searches": 62,
        "violations_detected": 118, "repairs_applied": 60,
        "planner_actual": {
            "kg-add-nationality::evidence": {"c": 71, "k": 23, "p": 322},
            "kg-dedup-lives-in::evidence": {"c": 9, "p": 9},
            "kg-dedup-person::evidence": {"a": 75, "b": 55, "c": 70},
            "kg-nationality-matches-birthplace::evidence": {
                "c": 89, "k1": 41, "k2": 303, "p": 322},
            "kg-org-based-in::evidence": {"c": 60, "k": 12, "o": 30},
            "kg-single-birthplace::evidence": {"c1": 22, "c2": 44, "p": 11},
            "kg-single-capital::evidence": {"c1": 14, "c2": 42, "k": 5},
        },
    },
    "social": {
        "nodes_tried": 1686, "backtracks": 0, "matches_found": 1492,
        "closed_probes": 836, "seeded_searches": 115,
        "violations_detected": 228, "repairs_applied": 101,
        "planner_actual": {
            "social-dedup-account::evidence": {"a": 96, "b": 123, "g": 64},
            "social-dedup-like::evidence": {"p": 78, "u": 12},
            "social-like-implies-follow::evidence": {"p": 311, "u": 615, "v": 167},
            "social-no-self-follow::evidence": {"u": 134},
            "social-single-author::evidence": {"p": 75, "u1": 77, "u2": 137},
        },
    },
}


@pytest.mark.parametrize("domain", sorted(SESSION_COUNTERS))
def test_stock_session_counters(domain):
    instance = _workload(domain)
    session = RepairSession(instance.dirty, instance.rules,
                            config=RepairConfig.fast())
    try:
        report = session.repair()
    finally:
        session.close()
    stats = report.matching_stats
    observed = {
        "nodes_tried": stats.nodes_tried,
        "backtracks": stats.backtracks,
        "matches_found": stats.matches_found,
        "closed_probes": stats.closed_probes,
        "seeded_searches": report.seeded_searches,
        "violations_detected": report.violations_detected,
        "repairs_applied": report.repairs_applied,
        "planner_actual": stats.planner_actual,
    }
    assert observed == SESSION_COUNTERS[domain]
    assert report.reached_fixpoint and report.remaining_violations == 0


# whole-library enumeration: (matches, nodes_tried, backtracks, digest of
# the ordered match keys).  The index-free matcher checks every comparison
# in the search, so its backtracks are many; the indexed matchers push them
# down.  The digest pins the match order, which the tie-break between equal
# join adjacencies decides.
ENUMERATION_COUNTERS = {
    ("kg", "index-free"): (431, 98787, 96388, "48537f7f7d0c3ed5"),
    ("kg", "static-order"): (431, 1533, 0, "1d7edbd314e82582"),
    ("kg", "planned"): (431, 1153, 0, "561c38cc154fb972"),
    ("social", "index-free"): (712, 29802, 27356, "52b8bc2b70271a2a"),
    ("social", "static-order"): (712, 2114, 0, "32fd004f8372020f"),
    ("social", "planned"): (712, 1429, 0, "84e7e2d74797247f"),
}


@pytest.mark.parametrize("domain, variant", sorted(ENUMERATION_COUNTERS))
def test_enumeration_counters(domain, variant):
    instance = _workload(domain)
    graph = instance.dirty
    if variant == "index-free":
        matcher = VF2Matcher(graph=graph, candidate_index=None,
                             use_decomposition=False)
    else:
        index = CandidateIndex(graph)
        index.attach()
        matcher = VF2Matcher(graph=graph, candidate_index=index,
                             use_cost_planner=variant == "planned")
    keys = [match.key() for rule in instance.rules
            for match in matcher.find_matches(rule.pattern)]
    if matcher.candidate_index is not None:
        matcher.candidate_index.detach()
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()[:16]
    assert (len(keys), matcher.stats.nodes_tried, matcher.stats.backtracks,
            digest) == ENUMERATION_COUNTERS[(domain, variant)]
