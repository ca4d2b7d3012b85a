"""Order statistics used for the benchmark's latency figures."""

from __future__ import annotations

import math


def median(values):
    """Middle value of a non-empty sample; mean of the two middle ones
    when the sample has an even size."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample value with at least
    ``q`` percent of the sample at or below it (0 < q <= 100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    return ordered[math.ceil(q / 100 * len(ordered)) - 1]
