"""Order statistics shared by the benchmark run and the compare command."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, beyond: int = TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count), or None when the samples are
    too few for that percentile to lie above the median.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 2 * beyond:
        return None
    return ordered[count - beyond - 1], 100.0 * (count - beyond) / count, count
