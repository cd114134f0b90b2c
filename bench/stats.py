"""Summary statistics the benchmark reports.

A timing is reported as its median plus quartiles, and a tail percentile
only when enough samples lie beyond it to pin it down: with fewer than
``MIN_BEYOND`` samples above the rank, a p99 is one or two unlucky samples,
not a property of the system.
"""

from __future__ import annotations

import math
import statistics
from statistics import median

#: samples that must lie strictly above a tail percentile's rank
MIN_BEYOND = 10


def quartiles(samples: list[float]) -> tuple[float, float]:
    """First and third quartile (``statistics.quantiles``' default method);
    a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def tail_percentile(samples: list[float], q: float) -> float | None:
    """The nearest-rank ``q``-th percentile, or ``None`` when fewer than
    ``MIN_BEYOND`` samples lie beyond it.

    Failed requests enter as ``math.inf`` so that they count as missing any
    latency limit; the result is then ``inf`` when they reach the rank.
    """
    ordered = sorted(samples)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    if len(ordered) - 1 - rank < MIN_BEYOND:
        return None
    return ordered[rank]


def summary(samples: list[float], fastest: bool = False) -> dict[str, float]:
    """``{"value", "median", "q1", "q3", "n"}`` of one metric's samples;
    the value is the median, or the smallest sample when ``fastest``."""
    q1, q3 = quartiles(samples)
    middle = median(samples)
    return {"value": min(samples) if fastest else middle, "median": middle,
            "q1": q1, "q3": q3, "n": len(samples)}


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when the median
    is 0 and the values agree)."""
    q1, q3 = quartiles(values)
    middle = median(values)
    if middle == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(middle)
