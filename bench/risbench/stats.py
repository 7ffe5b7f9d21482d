"""Order statistics used by the benchmark and the compare command."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10
# Percentiles above p95 are left out: on rows of a few milliseconds they
# are set by the host taking the CPU away for a scheduler tick, not by the
# program, and swing by a quarter from run to run.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)


def median(values) -> float:
    """Median of a non-empty sequence."""
    xs = list(values)
    if not xs:
        raise ValueError("median of an empty sequence")
    return float(statistics.median(xs))


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile.

    Uses ``statistics.quantiles(values, n=4)`` (exclusive method), the
    definition the run-to-run spread of the benchmark is judged by.  A
    single value is its own quartiles.
    """
    xs = [float(v) for v in values]
    if not xs:
        raise ValueError("quartiles of an empty sequence")
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> tuple:
    """Highest percentile of TAIL_LADDER with ``beyond`` samples above it.

    Percentiles use the nearest-rank definition: the p-th percentile of n
    sorted samples is the one of rank ceil(p * n / 100), and n minus that
    rank samples lie beyond it.  Returns ``(percentile, value)``.  With
    fewer than 2 * ``beyond`` samples no percentile qualifies, and the
    median is returned: a run that small has no measurable tail, and an
    extreme order statistic would swing with the single slowest sample.
    """
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("tail of an empty sequence")
    n = len(xs)
    for pct in reversed(TAIL_LADDER):
        rank = max(1, math.ceil(pct * n / 100.0 - 1e-9))
        if n - rank >= beyond or pct == TAIL_LADDER[0]:
            return pct, xs[rank - 1]


def geometric_mean(values) -> float:
    """Geometric mean of positive values."""
    xs = [float(v) for v in values]
    if not xs or min(xs) <= 0.0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(math.fsum(math.log(x) for x in xs) / len(xs))
