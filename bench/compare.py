"""Compare two sets of benchmark runs, metric by metric and workload by
workload.

    python3 bench/compare.py A/results.json B/results.json

``A`` is the baseline (the parent commit), ``B`` the change.  Every
(metric, workload) pair gets its own row: both medians and quartiles over
the runs, the metric's bound, the change, and a verdict:

* ``unresolved`` - the runs of either side spread (inter-quartile distance
  over median) wider than the bound, unless every run of ``B`` beats every
  run of ``A`` (with at least three runs a side);
* ``worse`` / ``better`` - the median moved by more than the bound, or
  every run of ``B`` beats every run of ``A``;
* ``same`` - otherwise.

Raw timings, which follow the host's speed, get a row with verdict
``info``: reported, not judged.  Every run counts, including repeated
runs of one seed.  Deterministic counts are compared seed by seed on the
seeds both sides ran: equal is ``same``; a count that must not change
(``better: equal``) is ``worse`` when it does; a count that differs
between two runs of one seed is ``unresolved``.  Exits 1 when any row is
``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from catalogue import BY_NAME, for_workload
from stats import median, quartiles, spread

MIN_RUNS_FOR_SEPARATION = 3


def load(path: str) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["runs"]


def _values(runs: list[dict], name: str) -> list[tuple[int, float]]:
    """``(seed, value)`` of every run that reports ``name``; a seed run
    several times appears once per run."""
    return [(run["seed"], run["metrics"][name]["value"]) for run in runs
            if run["metrics"].get(name, {}).get("value") is not None]


def _by_seed(values: list[tuple[int, float]]) -> dict[int, float] | None:
    """A deterministic count per seed, or ``None`` when two runs of one
    seed disagree."""
    seen: dict[int, float] = {}
    for seed, value in values:
        if seen.setdefault(seed, value) != value:
            return None
    return seen


def _worse(a: float, b: float, better: str) -> float:
    """Signed change from ``a`` to ``b``, positive when ``b`` is worse."""
    return b - a if better == "lower" else a - b


def _count_verdict(metric, a, b) -> str:
    by_a, by_b = _by_seed(a), _by_seed(b)
    if by_a is None or by_b is None:
        return "unresolved"
    common = sorted(set(by_a) & set(by_b))
    pairs = [(by_a[seed], by_b[seed]) for seed in common] or \
        [(median(by_a.values()), median(by_b.values()))]
    if all(x == y for x, y in pairs):
        return "same"
    if metric.better == "equal":
        return "worse"
    changes = [_worse(x, y, metric.better) for x, y in pairs]
    return "better" if all(c <= 0 for c in changes) else "worse"


def verdict(metric, a: list[tuple[int, float]],
            b: list[tuple[int, float]]) -> tuple[str, float | None]:
    """``(verdict, relative change of the median)`` of one metric between
    two run sets, each a list of ``(seed, value)``."""
    xs, ys = [value for _, value in a], [value for _, value in b]
    base = median(xs)
    change = _worse(base, median(ys), metric.better)
    relative = change / abs(base) if base else None
    if metric.tier == "count":
        return _count_verdict(metric, a, b), relative
    if metric.tier == "raw":
        return "info", relative
    separated = (min(len(xs), len(ys)) >= MIN_RUNS_FOR_SEPARATION and
                 all(_worse(x, y, metric.better) < 0 for x in xs for y in ys))
    if separated:
        return "better", relative
    noisy = max(spread(xs) if len(xs) > 1 else 0.0,
                spread(ys) if len(ys) > 1 else 0.0)
    if noisy > metric.bound:
        return "unresolved", relative
    if relative is None or abs(relative) <= metric.bound:
        return "same", relative
    return ("worse" if relative > 0 else "better"), relative


def _cell(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def compare(runs_a: list[dict], runs_b: list[dict]) -> list[dict]:
    rows = []
    workloads = dict.fromkeys(run["workload"] for run in runs_a + runs_b)
    for workload in workloads:
        a_runs = [run for run in runs_a if run["workload"] == workload]
        b_runs = [run for run in runs_b if run["workload"] == workload]
        if not a_runs or not b_runs:
            continue
        for tier in ("end_to_end", "raw", "count"):
            for metric in for_workload(workload, tier):
                a, b = _values(a_runs, metric.name), _values(b_runs, metric.name)
                if not a or not b:
                    continue
                result, relative = verdict(metric, a, b)
                rows.append({"workload": workload, "metric": metric.name,
                             "unit": metric.unit,
                             "a": _cell([value for _, value in a]),
                             "b": _cell([value for _, value in b]),
                             "runs": f"{len(a)}/{len(b)}",
                             "bound": metric.bound,
                             "change": relative, "verdict": result})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':<18} {'metric':<20} {'unit':<9} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'runs':>5} {'bound':>6} {'change':>8} verdict")
    for row in rows:
        change = "-" if row["change"] is None else f"{row['change']:+.1%}"
        tier = BY_NAME[row["metric"]].tier
        bound = {"count": "exact", "raw": "-"}.get(tier) \
            or f"{row['bound']:.0%}"
        print(f"{row['workload']:<18} {row['metric']:<20} {row['unit']:<9} "
              f"{row['a']:<30} {row['b']:<30} {row['runs']:>5} {bound:>6} "
              f"{change:>8} {row['verdict']}")
    return 1 if any(row["verdict"] in ("worse", "unresolved") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
