"""The percentile rule: the highest rung with >= 10 samples beyond it."""

import statistics

import numpy as np
import pytest

from perfbench.stats import (
    MIN_BEYOND,
    percentile,
    spread,
    supported_percentile,
    tail,
)


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9),
    (1_000, 99.0),
    (999, 95.0),    # 9.99 samples beyond p99: not enough
    (200, 95.0),
    (199, 90.0),
    (100, 90.0),
    (99, 75.0),
    (40, 75.0),
    (20, 50.0),
    (19, None),
    (0, None),
])
def test_supported_percentile(n, expected):
    assert supported_percentile(n) == expected


def test_supported_percentile_leaves_min_beyond_samples():
    for n in range(20, 3000, 7):
        p = supported_percentile(n)
        assert n * (100 - p) / 100 >= MIN_BEYOND


def test_tail_reports_percentile_and_count():
    values = list(range(1, 201))  # 200 samples: p95 is the highest rung
    t = tail(values)
    assert t["n"] == 200
    assert t["tail_p"] == 95.0
    assert t["tail"] == pytest.approx(np.percentile(values, 95))
    assert t["p50"] == pytest.approx(100.5)


def test_tail_of_tiny_and_empty_samples():
    assert tail([]) == {"n": 0, "p50": None, "tail_p": None, "tail": None}
    t = tail([3.0] * 5)
    assert t["n"] == 5 and t["p50"] == 3.0 and t["tail"] is None


@pytest.mark.parametrize("seed", range(5))
def test_percentile_matches_numpy_linear(seed):
    rng = np.random.default_rng(seed)
    values = rng.exponential(size=int(rng.integers(1, 400))).tolist()
    for p in (0, 10, 50, 90, 95, 99, 100):
        assert percentile(values, p) == pytest.approx(
            np.percentile(values, p))


def test_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.1, 9.9, 10.7]
    q1, _, q3 = statistics.quantiles(values, n=4)
    s = spread(values)
    assert s["median"] == statistics.median(values)
    assert s["iqr_share"] == pytest.approx((q3 - q1) / s["median"])
