"""Order statistics shared by every workload (standard library only)."""

from __future__ import annotations

import math
import statistics

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> int:
    """1-based rank of the highest nearest-rank percentile that leaves at
    least ``beyond`` of ``n`` samples above it.

    With ``n <= beyond`` no such percentile exists and the median's rank is
    returned, so a short run never reports its maximum as a tail.
    """
    if n <= 0:
        raise ValueError("tail of no samples")
    if n <= beyond:
        return max(1, math.ceil(n / 2))
    return n - beyond


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """``(value, percentile)`` of the tail percentile of ``values``."""
    ordered = sorted(values)
    rank = tail_rank(len(ordered), beyond)
    return float(ordered[rank - 1]), 100.0 * rank / len(ordered)
