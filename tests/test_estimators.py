"""Estimator kernels: exact identities, stream layout, and reference values."""

import math

import numpy as np
import pytest

from voimc import (
    BkocModel,
    MomentAccumulator,
    RandomStream,
    SyntheticModel,
    synthetic1,
    synthetic2,
    synthetic3,
)
from voimc.diagnostics import stats_from_accumulators
from voimc.estimators import (
    accumulate_level,
    accumulate_p_level,
    antithetic_terms,
    evpi_mc,
    nested_mc,
    sample_level_batch,
)
from voimc.models import AssumptionClass

ALL_MODELS = [synthetic1(), synthetic2(), synthetic3(), BkocModel()]
MODEL_IDS = [m.name for m in ALL_MODELS]


def constant_gap_model():
    """Two decisions whose payoffs differ by a constant: every level
    correction is identically zero."""
    return SyntheticModel(
        "constant_gap",
        (lambda x: np.zeros_like(x), lambda x: np.ones_like(x)),
        (1.0, 1.0),
        AssumptionClass.SATISFIES_ALL,
    )


def replay_payoffs(model, level, n, stream):
    """The raw payoff block behind a one-block call of the level kernels.

    Valid whenever n fits in a single block, because the kernels draw outer
    then inner from the same substream.
    """
    x = model.sample_outer(stream, n)
    y = model.sample_inner(x, stream, 1 << level)
    return model.payoffs(x, y)


def test_antithetic_terms_exact_identity():
    f = np.random.default_rng(0).normal(size=(500, 8, 3)) * 100.0
    mean_a, mean_b, mean_full = antithetic_terms(f)
    np.testing.assert_array_equal(0.5 * (mean_a + mean_b), mean_full)


def test_antithetic_terms_values():
    f = np.array([[[1.0], [3.0], [5.0], [7.0]]])
    mean_a, mean_b, mean_full = antithetic_terms(f)
    assert mean_a[0, 0] == 2.0
    assert mean_b[0, 0] == 6.0
    assert mean_full[0, 0] == 4.0


def test_antithetic_terms_odd_m_rejected():
    with pytest.raises(ValueError):
        antithetic_terms(np.zeros((2, 3, 1)))
    with pytest.raises(ValueError):
        antithetic_terms(np.zeros((2, 1, 1)))


def test_level_validation():
    m = synthetic1()
    s = RandomStream(0)
    acc = MomentAccumulator()
    with pytest.raises(ValueError):
        accumulate_level(m, 0, 1, s, acc, acc)
    with pytest.raises(ValueError):
        sample_level_batch(m, 0, 10, s)
    with pytest.raises(ValueError):
        accumulate_p_level(m, -1, 1, s, acc)


def test_p_level_zero_is_exactly_zero():
    # one draw per call, so the accumulated mean is the draw itself
    for model in ALL_MODELS:
        for k in range(20):
            acc = MomentAccumulator()
            accumulate_p_level(model, 0, 1, RandomStream(100 + k), acc)
            assert acc.mean == 0.0


def test_level_one_correction_equals_gap():
    # with one inner draw per half, Z_1 and P_1 are the same quantity
    for model in ALL_MODELS:
        z, p = sample_level_batch(model, 1, 2000, RandomStream(7))
        np.testing.assert_array_equal(z, p)


@pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
@pytest.mark.parametrize("level", [1, 3])
def test_exact_invariants_against_replay(model, level):
    # chunks of 1000 fit in one block for every model at these levels, so
    # the kernel's draws can be reproduced from the public sampling API
    chunk, chunks = 1000, 3
    agreements = 0
    for b in range(chunks):
        z, p = sample_level_batch(model, level, chunk, RandomStream(40), first_block=b)
        f = replay_payoffs(model, level, chunk, RandomStream(40).split(b))
        mean_a, mean_b, mean_full = antithetic_terms(f)
        arg_a = mean_a.argmax(axis=1)
        arg_b = mean_b.argmax(axis=1)
        arg_f = mean_full.argmax(axis=1)
        agree = (arg_a == arg_b) & (arg_b == arg_f)
        agreements += int(agree.sum())
        assert (z[agree] == 0.0).all()
        assert (z >= 0.0).all()
        assert (p >= 0.0).all()
        assert (p >= z).all()
    assert agreements > 0


def test_constant_gap_corrections_vanish():
    model = constant_gap_model()
    for level in (1, 2, 5):
        z, p = sample_level_batch(model, level, 500, RandomStream(3))
        assert (z == 0.0).all()
        assert (p == 0.0).all()


def test_z_level_scalar_draw():
    z, p = sample_level_batch(synthetic1(), 4, 1, RandomStream(9))
    assert z.shape == p.shape == (1,)
    assert p[0] >= 0.0
    assert z[0] >= 0.0
    again = sample_level_batch(synthetic1(), 4, 1, RandomStream(9))
    assert again[0][0] == z[0] and again[1][0] == p[0]
    acc_z, acc_p = MomentAccumulator(), MomentAccumulator()
    accumulate_level(synthetic1(), 4, 1, RandomStream(9), acc_z, acc_p)
    assert (acc_z.mean, acc_p.mean) == (z[0], p[0])
    assert stats_from_accumulators(4, acc_z, acc_p).cost_per_sample == 16


def test_accumulate_matches_batch():
    model = synthetic2()
    stream = RandomStream(13)
    acc_z, acc_p = MomentAccumulator(), MomentAccumulator()
    nxt = accumulate_level(model, 2, 50_000, stream, acc_z, acc_p)
    z, p = sample_level_batch(model, 2, 50_000, RandomStream(13))
    assert acc_z.n == 50_000
    assert nxt >= 1
    assert acc_z.mean == pytest.approx(z.mean(), rel=1e-12)
    assert acc_z.variance() == pytest.approx(z.var(ddof=1), rel=1e-11)
    assert acc_p.mean == pytest.approx(p.mean(), rel=1e-12)


def test_accumulate_zero_draws_is_noop():
    acc_z, acc_p = MomentAccumulator(), MomentAccumulator()
    nxt = accumulate_level(synthetic1(), 1, 0, RandomStream(0), acc_z, acc_p, first_block=5)
    assert nxt == 5
    assert acc_z.n == 0


def test_top_up_extends_the_same_sequence():
    # a top-up that resumes from the returned block index must reproduce the
    # draws a single larger call would have made, block for block
    model = synthetic3()
    acc_z, acc_p = MomentAccumulator(), MomentAccumulator()
    stream = RandomStream(17)
    nxt = accumulate_level(model, 3, 40_000, stream, acc_z, acc_p)
    accumulate_level(model, 3, 20_000, stream, acc_z, acc_p, first_block=nxt)
    z1, _ = sample_level_batch(model, 3, 40_000, RandomStream(17))
    z2, _ = sample_level_batch(model, 3, 20_000, RandomStream(17), first_block=nxt)
    whole = np.concatenate([z1, z2])
    assert acc_z.n == 60_000
    assert acc_z.mean == pytest.approx(whole.mean(), rel=1e-12)


def test_thread_count_does_not_change_results():
    model = synthetic1()
    z1, p1 = sample_level_batch(model, 1, 300_000, RandomStream(19), threads=1)
    z4, p4 = sample_level_batch(model, 1, 300_000, RandomStream(19), threads=4)
    np.testing.assert_array_equal(z1, z4)
    np.testing.assert_array_equal(p1, p4)

    acc1_z, acc1_p = MomentAccumulator(), MomentAccumulator()
    acc4_z, acc4_p = MomentAccumulator(), MomentAccumulator()
    accumulate_level(model, 1, 300_000, RandomStream(19), acc1_z, acc1_p, threads=1)
    accumulate_level(model, 1, 300_000, RandomStream(19), acc4_z, acc4_p, threads=4)
    assert acc1_z.mean == acc4_z.mean
    assert acc1_z.m2 == acc4_z.m2
    assert acc1_z.m4 == acc4_z.m4


def test_accumulate_p_level_zero_level():
    acc = MomentAccumulator()
    accumulate_p_level(synthetic2(), 0, 5000, RandomStream(23), acc)
    assert acc.n == 5000
    assert acc.mean == 0.0
    assert acc.variance() == 0.0


def test_evpi_closed_form():
    # EVPI for the first synthetic model: E[max(0, X+Y)] = 1/sqrt(pi)
    est = evpi_mc(synthetic1(), 400_000, RandomStream(29))
    want = 1.0 / math.sqrt(math.pi)
    assert est.n == 400_000
    assert est.cost == 400_000.0
    assert abs(est.value - want) <= 4.5 * est.std_error
    # Var[max(0, X+Y)] = 1 - 1/pi
    want_se = math.sqrt((1.0 - 1.0 / math.pi) / 400_000)
    assert est.std_error == pytest.approx(want_se, rel=0.05)


def test_evpi_validation_and_determinism():
    with pytest.raises(ValueError):
        evpi_mc(synthetic1(), 0, RandomStream(0))
    a = evpi_mc(synthetic2(), 50_000, RandomStream(31), threads=1)
    b = evpi_mc(synthetic2(), 50_000, RandomStream(31), threads=4)
    assert a == b


def test_nested_mc_single_inner_draw_is_zero():
    for model in ALL_MODELS:
        est = nested_mc(model, 2000, 1, RandomStream(37))
        assert est.value == 0.0
        assert est.std_error == 0.0
        assert est.cost == 2000.0


def test_nested_mc_matches_level_mean():
    # E[P_l] for the first synthetic model in closed form:
    # 1/sqrt(pi) - sqrt(1 + 2^-l)/sqrt(2 pi)
    m = 256
    est = nested_mc(synthetic1(), 100_000, m, RandomStream(41), threads=2)
    want = 1.0 / math.sqrt(math.pi) - math.sqrt(1.0 + 1.0 / m) / math.sqrt(2.0 * math.pi)
    assert abs(est.value - want) <= 5.0 * est.std_error
    assert est.cost == 100_000.0 * 256.0


def test_nested_mc_nonnegative_and_deterministic():
    a = nested_mc(synthetic3(), 30_000, 16, RandomStream(43), threads=1)
    b = nested_mc(synthetic3(), 30_000, 16, RandomStream(43), threads=4)
    assert a == b
    assert a.value >= 0.0
    with pytest.raises(ValueError):
        nested_mc(synthetic1(), 0, 4, RandomStream(0))
    with pytest.raises(ValueError):
        nested_mc(synthetic1(), 4, 0, RandomStream(0))
