"""Order statistics used by the benchmark: percentiles, tail choice, spread.

Pure Python on purpose: the benchmark imports this module before it starts
timing its own set-up, and numpy is part of what that set-up imports.
"""
from __future__ import annotations

import math
import statistics

# A tail is reported at the highest of these percentiles that still has at
# least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method), p in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p!r} outside [0, 100]")
    xs = sorted(values)
    rank = p / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n_samples: int) -> float:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it.

    Below 2·TAIL_MIN_BEYOND samples not even the median qualifies; the tail
    then falls back to the median, and the caller reports the sample count.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        # tolerance: 100 - 99.9 is not exactly 0.1 in binary
        if samples_beyond(n_samples, p) >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def samples_beyond(n_samples: int, p: float) -> float:
    return n_samples * (100.0 - p) / 100.0


def quartile_spread(values) -> float:
    """(Q3 − Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med

