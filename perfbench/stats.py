"""Order statistics used by every report of the benchmark.

Timings are reported as a median plus the highest percentile the sample
supports: the highest rung of :data:`LADDER` with at least
:data:`MIN_BEYOND` samples beyond it.  A p99 over 300 samples rests on
its three largest values and moves with every run; the rule keeps the
tail figure honest about how much data stands behind it.
"""

from __future__ import annotations

import math
import statistics

#: candidate percentiles, highest first
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """The ``p``-th percentile (0-100) with linear interpolation between
    closest ranks, as ``numpy.percentile``'s default method."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    frac = rank - lo
    return float(xs[lo] + (xs[hi] - xs[lo]) * frac)


def supported_percentile(n: int) -> float | None:
    """The highest :data:`LADDER` percentile with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it (``None`` when even
    the median is unsupported)."""
    for p in LADDER:
        # rounded: 100 - 99.9 is not exactly 0.1 in binary floating point
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            return p
    return None


def tail(values) -> dict:
    """Median and supported tail of one sample, with the sample count.

    ``{"n", "p50", "tail_p", "tail"}``; ``tail_p``/``tail`` are ``None``
    when the sample is too small for any rung.
    """
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": None, "tail_p": None, "tail": None}
    p = supported_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "tail_p": p,
        "tail": percentile(values, p) if p is not None else None,
    }


def spread(values) -> dict:
    """Run-to-run spread: median, quartiles and the interquartile
    distance as a share of the median (Python's
    ``statistics.quantiles(values, n=4)``, the default exclusive
    method)."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": med, "q1": med, "q3": med,
                "iqr_share": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / abs(med) if med else math.inf
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "iqr_share": share}
