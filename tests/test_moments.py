"""Streaming moment accumulation against direct numpy references."""

import math

import numpy as np
import pytest

from voimc import MomentAccumulator


def reference_kurtosis(x):
    x = np.asarray(x, dtype=float)
    d = x - x.mean()
    m2 = np.sum(d**2)
    m4 = np.sum(d**4)
    return len(x) * m4 / m2**2


def test_known_small_sample():
    acc = MomentAccumulator()
    acc.add_block(np.array([1.0, -1.0, 1.0, -1.0]))
    assert acc.n == 4
    assert acc.mean == 0.0
    assert acc.variance() == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert acc.kurtosis() == pytest.approx(1.0, rel=1e-15)


def test_matches_numpy_on_random_data():
    x = np.random.default_rng(0).normal(size=5000) * 3.0 + 2.0
    acc = MomentAccumulator()
    acc.add_block(x)
    assert acc.mean == pytest.approx(x.mean(), rel=1e-13)
    assert acc.variance() == pytest.approx(x.var(ddof=1), rel=1e-12)
    assert acc.kurtosis() == pytest.approx(reference_kurtosis(x), rel=1e-10)


def test_blockwise_equals_whole_array():
    x = np.random.default_rng(1).exponential(size=4096)
    whole = MomentAccumulator()
    whole.add_block(x)
    split = MomentAccumulator()
    for chunk in np.split(x, [100, 1000, 1500, 4000]):
        split.add_block(chunk)
    assert split.n == whole.n
    assert split.mean == pytest.approx(whole.mean, rel=1e-13)
    assert split.variance() == pytest.approx(whole.variance(), rel=1e-12)
    assert split.kurtosis() == pytest.approx(whole.kurtosis(), rel=1e-10)


def test_merge_equals_single_pass():
    x = np.random.default_rng(2).normal(size=3000)
    a = MomentAccumulator()
    b = MomentAccumulator()
    a.add_block(x[:1200])
    b.add_block(x[1200:])
    a.merge(b)
    whole = MomentAccumulator()
    whole.add_block(x)
    assert a.n == whole.n
    assert a.variance() == pytest.approx(whole.variance(), rel=1e-12)
    assert a.kurtosis() == pytest.approx(whole.kurtosis(), rel=1e-10)


def test_merge_into_empty():
    x = np.random.default_rng(3).normal(size=100)
    src = MomentAccumulator()
    src.add_block(x)
    dst = MomentAccumulator()
    dst.merge(src)
    assert dst.n == src.n
    assert dst.mean == src.mean
    assert dst.variance() == src.variance()


def test_empty_block_is_noop():
    acc = MomentAccumulator()
    acc.add_block(np.array([1.0, 2.0]))
    before = (acc.n, acc.mean, acc.variance())
    acc.add_block(np.array([]))
    assert (acc.n, acc.mean, acc.variance()) == before


def test_degenerate_counts():
    acc = MomentAccumulator()
    assert math.isnan(acc.variance())
    acc.add_block(np.array([5.0]))
    assert acc.mean == 5.0
    assert math.isnan(acc.variance())


def test_constant_data_kurtosis_nan():
    acc = MomentAccumulator()
    acc.add_block(np.full(50, 3.25))
    assert acc.variance() == 0.0
    assert math.isnan(acc.kurtosis())


def test_same_block_order_is_deterministic():
    x = np.random.default_rng(4).normal(size=2048)
    def run():
        acc = MomentAccumulator()
        for chunk in np.split(x, 8):
            acc.add_block(chunk)
        return acc.mean, acc.variance(), acc.kurtosis()
    assert run() == run()

