"""Estimator kernels: exact identities, stream layout, and reference values."""

import hashlib
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
    _BLOCK_VALUE_BUDGET,
    _MAX_BLOCK_OUTER,
    accumulate_level,
    accumulate_p_level,
    evpi_mc,
    nested_mc,
    sample_level_batch,
    worker_pool,
)
from voimc.models import GaussianModelSpec

ALL_MODELS = [synthetic1(), synthetic2(), synthetic3(), BkocModel()]
MODEL_IDS = [m.name for m in ALL_MODELS]


def constant_gap_model():
    """Two decisions whose payoffs differ by a constant: every level
    correction is identically zero."""
    return SyntheticModel(
        "constant_gap",
        (lambda x: np.zeros_like(x), lambda x: np.ones_like(x)),
        (1.0, 1.0),
    )


def full_block(model, m):
    """Outer draws in one full block at m inner draws, as the block plan sizes it."""
    width = m * (model.decision_count + 1 + max(model.inner_dim, 1))
    return max(1, min(_BLOCK_VALUE_BUDGET // width, _MAX_BLOCK_OUTER))


def replay_payoffs(model, level, n, stream):
    """The raw payoff block behind a one-block call of the level kernels.

    Valid whenever n fits in a single block, because the kernels draw outer
    then inner from the same substream.
    """
    x = model.sample_outer(stream, n)
    y = model.sample_inner(x, stream, 1 << level)
    return model.payoffs(x, y)


def antithetic_terms(f):
    """Per-decision half and full averages of a fine-level payoff block.

    An independent replay of the level kernel's reductions: ``f`` has shape
    (n, m, D) with m even, and the result is ``(mean_a, mean_b, mean_full)``,
    each (n, D), where mean_full is derived from the same half sums, so
    1/2 (mean_a + mean_b) equals mean_full to the last bit when m is a power
    of two.
    """
    m = f.shape[1]
    if m < 2 or m % 2:
        raise ValueError("antithetic halves need an even number of inner samples")
    half = m // 2
    sum_a = f[:, :half, :].sum(axis=1)
    sum_b = f[:, half:, :].sum(axis=1)
    return sum_a / half, sum_b / half, (sum_a + sum_b) / m


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


def test_all_outer_partition_has_zero_gap():
    # with every variable outer there is no inner draw left (inner_dim 0):
    # each payoff is constant in the inner index, so Z and P are exactly 0
    model = BkocModel(GaussianModelSpec(outer_indices=range(1, 20)))
    assert model.inner_dim == 0
    for level in range(1, 7):
        z, p = sample_level_batch(model, level, 500, RandomStream(70 + level))
        assert z.shape == p.shape == (500,)
        assert (z == 0.0).all() and (p == 0.0).all()


def assert_exact_identities(z, p, f):
    """Check the bitwise identities of level draws z, p against their raw
    payoffs f; returns how many draws had all three argmax decisions agree."""
    mean_a, mean_b, mean_full = antithetic_terms(f)
    arg_a = mean_a.argmax(axis=1)
    arg_b = mean_b.argmax(axis=1)
    arg_f = mean_full.argmax(axis=1)
    agree = (arg_a == arg_b) & (arg_b == arg_f)
    assert (z[agree] == 0.0).all()
    assert (z >= 0.0).all()
    assert (p >= 0.0).all()
    assert (p >= z).all()
    return int(agree.sum())


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
        agreements += assert_exact_identities(z, p, f)
    assert agreements > 0


@pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
@pytest.mark.parametrize("level", [6, 10])
def test_exact_invariants_on_single_outer_blocks(model, level):
    # blocks of one outer draw, alone or as the ragged last block of a plan,
    # are the shapes where a pairwise inner sum would break the ordering
    cases = []
    for b in range(8):
        z, p = sample_level_batch(model, level, 1, RandomStream(50), first_block=b)
        cases.append((z, p, RandomStream(50).split(b)))
    full = full_block(model, 1 << level)
    z, p = sample_level_batch(model, level, full + 1, RandomStream(51))
    assert z.shape == (full + 1,)
    cases.append((z[full:], p[full:], RandomStream(51).split(1)))
    agreements = 0
    for z, p, sub in cases:
        agreements += assert_exact_identities(z, p, replay_payoffs(model, level, 1, sub))
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
    # synthetic1 at level 1 on 4 workers, and bkoc (5,14) at level 4 on 3
    # workers over three blocks, the last of them one outer draw
    bkoc = BkocModel()
    cases = [(synthetic1(), 1, 300_000, 4), (bkoc, 4, 2 * full_block(bkoc, 1 << 4) + 1, 3)]
    for model, level, n, threads in cases:
        z1, p1 = sample_level_batch(model, level, n, RandomStream(19))
        with worker_pool(threads) as pool:
            zt, pt = sample_level_batch(model, level, n, RandomStream(19), pool=pool)
        np.testing.assert_array_equal(z1, zt)
        np.testing.assert_array_equal(p1, pt)

        moments = []
        for workers in (1, threads):
            acc_z, acc_p = MomentAccumulator(), MomentAccumulator()
            with worker_pool(workers) as pool:
                accumulate_level(model, level, n, RandomStream(19), acc_z, acc_p, pool=pool)
            moments.append([(a.n, a.mean, a.m2, a.m3, a.m4) for a in (acc_z, acc_p)])
        assert moments[0] == moments[1]


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
    a = evpi_mc(synthetic2(), 50_000, RandomStream(31))
    with worker_pool(4) as pool:
        b = evpi_mc(synthetic2(), 50_000, RandomStream(31), pool=pool)
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
    with worker_pool(2) as pool:
        est = nested_mc(synthetic1(), 100_000, m, RandomStream(41), pool=pool)
    want = 1.0 / math.sqrt(math.pi) - math.sqrt(1.0 + 1.0 / m) / math.sqrt(2.0 * math.pi)
    assert abs(est.value - want) <= 5.0 * est.std_error
    assert est.cost == 100_000.0 * 256.0


def test_nested_mc_nonnegative_and_deterministic():
    a = nested_mc(synthetic3(), 30_000, 16, RandomStream(43))
    with worker_pool(4) as pool:
        b = nested_mc(synthetic3(), 30_000, 16, RandomStream(43), pool=pool)
    assert a == b
    assert a.value >= 0.0
    with pytest.raises(ValueError):
        nested_mc(synthetic1(), 0, 4, RandomStream(0))
    with pytest.raises(ValueError):
        nested_mc(synthetic1(), 4, 0, RandomStream(0))


# sha256 of the raw outputs of the four batch routines, per model. Sizes 1,
# 2, 3 and one full block run on one thread (a one-block plan never reaches
# the pool); a full block plus one runs its two blocks on the 2-thread pool.
# Any change to draw order, block plan or reduction order changes them.
KERNEL_MODELS = {
    "synthetic1": synthetic1,
    "synthetic2": synthetic2,
    "synthetic3": synthetic3,
    "bkoc_5_14": BkocModel,
    "bkoc_3": lambda: BkocModel(GaussianModelSpec(outer_indices=(3,))),
}
KERNEL_DIGESTS = {
    "synthetic1": {
        "level_batch": "fd86ee4ae5f0d15639d70c0a3da2a7981b0cc280b49414e04f6ffefb6591f989",
        "p_level": "90eb4efeebb6d89c171a62fbe317b9406afae115de1cf6dbfd4a3884b1a528d1",
        "evpi": "412195800512371797bef5928dcbd5c76a54d71adf542a19b3faa6035e2e7364",
        "nested": "6365e9cd3b2f5d2a91ebae1efe23ea54666dd06262ccfb5075259fe1016c9d53",
    },
    "synthetic2": {
        "level_batch": "ed442592030d119dc7afe177e43e4742ce8552bed698248ab6af55f357d10b2d",
        "p_level": "97597b76fb00168c172dba8eb12bf08665b2a4dfe5c46b16025ddeefba824710",
        "evpi": "4602794cf56d8f69eb4ae47b78f8c1d314a5e95883c291d70e6dcdc18f625e82",
        "nested": "dccbd758b6a72e26cf6ea33dbbf405220f598526de11f7ca9cf38f9530aaf3ec",
    },
    "synthetic3": {
        "level_batch": "1d46180ff7c3359f303c8c583c20acacc591237ce66f238944649fc544efc87c",
        "p_level": "793b824efbae295478e2429d53cb8f20da74a6bc4e642daa8bfc5e3a1e917d74",
        "evpi": "6243ed34ea9c41a2b62381549dd53d1802b24c4906a317846efc81eb913eb25b",
        "nested": "fc8d84c8b597a6bc0a930bb692e87e8cd22fbef4dd2a6ef565676dae0629f80e",
    },
    "bkoc_5_14": {
        "level_batch": "4301de1f9d58af2e1a4407951c83eebda72c437e129c099c993ddf432678ef33",
        "p_level": "f16e4740d57f76c8cbcbdd54aa529d3764c06b7261424aa86618f75cdcba2dd3",
        "evpi": "14a4098ac294443eb29b77bd70bb80a875a73b1f3e0e77bc0be15634df75be61",
        "nested": "8ad78d4790798444095d0573a1a9a32685dba492de6cd803f74538ee456d7044",
    },
    "bkoc_3": {
        "level_batch": "0d56e2f91ece369ec9a6c466a60cd428b850c01a54c3cd19d1ff112ee37b48b8",
        "p_level": "e8d9115d5f71b4c9ce8db3ed1605409dde543f91ee48524dcac15ff9895ab6bc",
        "evpi": "a4b28cce3d928eb489d4ab6df3042bd9f71555dd66a4d350554a8df3c433d3a5",
        "nested": "123530298e1ad80b791cd5aa07e51c972b1d69f01e52b039c0d36392fce0675b",
    },
}


def kernel_digests(model):
    hashes = {key: hashlib.sha256() for key in ("level_batch", "p_level", "evpi", "nested")}

    def put(key, *values):
        for v in values:
            hashes[key].update(np.asarray(v, dtype=np.float64).tobytes())

    def runs(m):
        full = full_block(model, m)
        return [(1, 1), (2, 1), (3, 1), (full, 1), (full + 1, 2)]

    for level in range(11):
        for n, threads in runs(1 << level):
            with worker_pool(threads) as pool:
                if level:
                    zp = sample_level_batch(model, level, n, RandomStream(level), pool=pool)
                    put("level_batch", *zp)
                acc = MomentAccumulator()
                accumulate_p_level(model, level, n, RandomStream(level), acc, pool=pool)
            put("p_level", acc.n, acc.mean, acc.m2, acc.m3, acc.m4)
    for n, threads in runs(1):
        with worker_pool(threads) as pool:
            est = evpi_mc(model, n, RandomStream(n), pool=pool)
        put("evpi", est.value, est.std_error)
    for m in (1, 3, 1000):
        for n, threads in runs(m):
            with worker_pool(threads) as pool:
                est = nested_mc(model, n, m, RandomStream(m), pool=pool)
            put("nested", est.value, est.std_error)
    return {key: h.hexdigest() for key, h in hashes.items()}


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_raw_kernel_bits_are_pinned(name):
    # levels 0-10 at block sizes 1, 2, 3, full and full + 1
    assert kernel_digests(KERNEL_MODELS[name]()) == KERNEL_DIGESTS[name]
