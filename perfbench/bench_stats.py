"""Order statistics used by the benchmark: nearest-rank percentiles and spreads.

A timing is reported as its median plus the highest tail percentile that
still has at least ``MIN_BEYOND`` samples beyond it, so a tail figure is
never read off one or two outliers.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 90.0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    return ordered[max(_rank(len(ordered), q), 1) - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def _rank(n: int, q: float) -> int:
    # rounding first keeps 90% of 100 at rank 90 despite binary floating point
    return math.ceil(round(q * n / 100, 9))


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which at least ``min_beyond`` lie beyond percentile q."""
    n = 1
    while beyond(n, q) < min_beyond:
        n += 1
    return n


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """Highest candidate percentile with at least ``min_beyond`` of n samples beyond it."""
    for q in TAIL_CANDIDATES:
        if beyond(n, q) >= min_beyond:
            return q
    return None


def relative_iqr(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
