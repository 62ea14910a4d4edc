import math

import pytest

from perfbench.stats import beyond, percentile


def test_nearest_rank_percentiles():
    sample = list(range(1, 101))
    assert percentile(sample, 50) == 50
    assert percentile(sample, 90) == 90
    assert percentile(sample, 99.9) == 100
    assert percentile([7.0, 3.0], 50) == 3.0
    assert percentile([7.0, 3.0], 90) == 7.0


def test_failures_are_infinitely_late():
    sample = [1.0] * 95 + [math.inf] * 5
    assert percentile(sample, 90) == 1.0
    assert math.isinf(percentile(sample, 99))
    assert beyond(sample, 90) == 5
    half_failed = [1.0] * 50 + [math.inf] * 50
    assert percentile(half_failed, 50) == 1.0
    assert math.isinf(percentile(half_failed + [math.inf], 50))


def test_interquartile_mean_drops_both_tails():
    from perfbench.stats import interquartile_mean

    assert interquartile_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]) == pytest.approx(3.5)
    assert interquartile_mean([1.0, 3.0]) == 2.0
