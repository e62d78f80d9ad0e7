"""Summary statistics for the benchmark: medians, guarded tail percentiles, spreads.

Stdlib only, so the steadiness report can use it without loading numpy.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; a thinner tail measures a handful of events (on a small VM,
#: mostly vCPU preemption), not the program.
MIN_TAIL_SAMPLES = 10


class ThinTailError(ValueError):
    """A percentile was requested that too few samples lie beyond."""


def percentile(values, q: float) -> float:
    """The ``q``-quantile (``0 <= q <= 1``) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q``-quantile rank."""
    return count - 1 - math.floor(q * (count - 1)) if count else 0


def tail_percentile(values, q: float) -> float:
    """Like :func:`percentile`, but refuses a tail with fewer than ten samples beyond it."""
    values = list(values)
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_TAIL_SAMPLES:
        raise ThinTailError(
            f"p{q * 100:g} of {len(values)} samples has only {beyond} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are needed"
        )
    return percentile(values, q)


def quartile_spread(values) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as ``statistics.quantiles`` gives them."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else math.inf
    return median, q1, q3, spread
