"""Estimator kernels: exact identities, stream layout, and reference values."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from voimc import (
    BkocModel,
    DecisionModel,
    MomentAccumulator,
    RandomStream,
    SyntheticModel,
    estimators,
    synthetic1,
    synthetic2,
    synthetic3,
)
from voimc.diagnostics import stats_from_accumulators
from voimc.errors import ConfigError
from voimc.estimators import _BLOCK_VALUE_BUDGET, accumulate_level, worker_pool
from voimc.models import GaussianModelSpec

from helpers import (
    accumulate_p_level,
    antithetic_terms,
    evpi_mc,
    nested_mc,
    sample_level_batch,
    whole_level_block,
)

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
    return max(1, _BLOCK_VALUE_BUDGET // width)


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
        accumulate_level(m, -1, 1, s, acc, acc)
    with pytest.raises(ValueError):
        sample_level_batch(m, -1, 10, s)
    with pytest.raises(ValueError):
        accumulate_p_level(m, -1, 1, s, acc)


@pytest.mark.parametrize("threads", [1, 2])
def test_level_zero_folds_exact_zeros_into_both(threads):
    # level 0 is a level like any other: Z_0 = P_0 = 0.0, to the bit, in both
    # accumulators, over several blocks and a ragged last one
    for model in ALL_MODELS:
        n = 2 * full_block(model, 1) + 3
        acc_z, acc_p = MomentAccumulator(), MomentAccumulator()
        with worker_pool(threads) as pool:
            nxt = accumulate_level(model, 0, n, RandomStream(5), acc_z, acc_p, pool=pool)
        assert nxt == 3
        for acc in (acc_z, acc_p):
            assert acc.n == n
            assert (acc.mean, acc.m2, acc.m3, acc.m4) == (0.0, 0.0, 0.0, 0.0), model.name
        z, p = sample_level_batch(model, 0, 1000, RandomStream(6))
        assert z.tobytes() == p.tobytes() == np.zeros(1000).tobytes()


def test_sample_budget_refuses_a_batch_before_listing_it():
    # 2^61 inner samples: refused at once, where listing them would not end
    with pytest.raises(ConfigError, match="budget"):
        estimators._level_blocks(synthetic1(), 1, 1 << 60, RandomStream(0))
    with pytest.raises(ConfigError, match="budget"):
        estimators._evpi_blocks(BkocModel(), 2 * 10**300, RandomStream(0))
    # the budget itself is allowed: one draw at level 40 is one block
    assert len(estimators._level_blocks(synthetic1(), 40, 1, RandomStream(0))) == 1
    with pytest.raises(ConfigError, match="budget"):
        estimators._level_blocks(synthetic1(), 40, 2, RandomStream(0))


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
    assert abs(est.value - want) <= 4.5 * est.std_error
    # With S = X + Y ~ N(0, 2) and its reflection -S, both decisions' pair
    # regrets are exactly |S|/2, of variance 1/2 - 1/pi, over n/2 pairs
    want_se = math.sqrt((0.5 - 1.0 / math.pi) / 200_000)
    assert est.std_error == pytest.approx(want_se, rel=0.05)


def test_evpi_validation_and_determinism():
    with pytest.raises(ValueError):
        evpi_mc(synthetic1(), 0, RandomStream(0))
    for odd in (1, 3, 50_001):
        with pytest.raises(ValueError):
            evpi_mc(synthetic1(), odd, RandomStream(0))
    a = evpi_mc(synthetic2(), 50_000, RandomStream(31))
    with worker_pool(4) as pool:
        b = evpi_mc(synthetic2(), 50_000, RandomStream(31), pool=pool)
    assert a == b


class RecordingModel(DecisionModel):
    """Two outer and three inner normals per draw, recorded as drawn; the
    payoffs are a fixed linear mix of them."""

    name = "recording"
    decision_count = 3
    outer_dim = 2
    inner_dim = 3

    def __init__(self):
        self.calls = []

    def sample_outer(self, stream, n):
        z = stream.normals((n, 2))
        self.calls.append(("outer", z.copy()))
        return z

    def sample_inner(self, outer, stream, m):
        z = stream.normals((outer.shape[0], m, 3))
        self.calls.append(("inner", z.copy()))
        return z

    def payoffs(self, outer, inner, out=None):
        n, m = inner.shape[:2]
        f = np.empty((m, 3, n)).transpose(2, 0, 1) if out is None else out
        f[...] = inner
        f += outer[:, None, :1]
        f[..., 2] -= outer[:, None, 1]
        return f


@pytest.mark.parametrize("pairs_per_block", [5, 4])
def test_evpi_draws_reflected_pairs(monkeypatch, pairs_per_block):
    # 1 * (3 + 1 + 3) = 7 values a draw, so two full blocks of
    # pairs_per_block pairs and a ragged last block of 3 pairs
    monkeypatch.setattr(estimators, "_BLOCK_VALUE_BUDGET", 7 * 2 * pairs_per_block)
    model = RecordingModel()
    n = 4 * pairs_per_block + 6
    est = evpi_mc(model, n, RandomStream(5))
    # a block draws its fresh half, then the same calls for the partners
    sizes = [len(z) for kind, z in model.calls if kind == "outer"]
    assert sizes == [pairs_per_block] * 4 + [3, 3]
    outers, inners = [], []
    for b, half in enumerate(sizes[::2]):
        kinds = [kind for kind, _ in model.calls[4 * b : 4 * b + 4]]
        assert kinds == ["outer", "inner"] * 2
        x, y, x_partner, y_partner = (z for _, z in model.calls[4 * b : 4 * b + 4])
        assert x.shape == x_partner.shape == (half, 2)
        assert y.shape == y_partner.shape == (half, 1, 3)
        # the fresh halves are the block substream's public draws, in order
        sub = RandomStream(5).split(b)
        assert x.tobytes() == sub.normals((half, 2)).tobytes()
        assert y.tobytes() == sub.normals((half, 1, 3)).tobytes()
        # and every partner is their exact negation
        assert x_partner.tobytes() == (-x).tobytes()
        assert y_partner.tobytes() == (-y).tobytes()
        outers += [x, x_partner]
        inners += [y, y_partner]
    f = model.payoffs(np.concatenate(outers), np.concatenate(inners))[:, 0, :]
    want = f.max(axis=1).mean() - f.mean(axis=0).max()
    assert est.value == pytest.approx(want, rel=1e-12, abs=1e-12)


class VariableMajorModel(DecisionModel):
    """f_1 = 0, f_2 = X + Y1 + Y2 with X, Y1, Y2 independent N(0, 1), the
    two inner normals drawn variable-major, as ``normals((2, n)).T``. Its
    EVPI is E[max(0, S)] with S ~ N(0, 3), that is sqrt(3 / (2 pi))."""

    name = "variable-major"
    decision_count = 2
    outer_dim = 1
    inner_dim = 2

    def sample_outer(self, stream, n):
        return stream.normals((n, 1))

    def sample_inner(self, outer, stream, m):
        n = outer.shape[0]
        return stream.normals((2, n * m)).T.reshape(n, m, 2)

    def payoffs(self, outer, inner, out=None):
        n, m = inner.shape[:2]
        f = np.empty((m, 2, n)).transpose(2, 0, 1) if out is None else out
        f[..., 0] = 0.0
        f[..., 1] = outer + inner.sum(axis=2)
        return f


def test_evpi_pairs_any_draw_layout():
    # a stand-in that reflected the second half of each call's leading axis
    # would pair Y2 with -Y1 within one draw here, and read about 0.399
    est = evpi_mc(VariableMajorModel(), 200_000, RandomStream(3))
    assert abs(est.value - math.sqrt(3.0 / (2.0 * math.pi))) < 4.0 * est.std_error


class ShiftingModel(SyntheticModel):
    """synthetic1's payoffs, but each call of ``sample_outer`` draws one row
    more than the last, so its partners' calls differ from its fresh ones."""

    def __init__(self):
        super().__init__("shifting", (np.zeros_like, lambda x: x), (0.0, 1.0))
        self.extra = 0

    def sample_outer(self, stream, n):
        self.extra += 1
        return stream.normals((n + self.extra, 1))[:n]


def test_evpi_replay_that_draws_differently_raises():
    with pytest.raises(ValueError, match="differs from the recorded draws"):
        evpi_mc(ShiftingModel(), 1000, RandomStream(3))


def test_nested_mc_single_inner_draw_is_zero():
    for model in ALL_MODELS:
        est = nested_mc(model, 2000, 1, RandomStream(37))
        assert est.value == 0.0
        assert est.std_error == 0.0


def test_nested_mc_matches_level_mean():
    # E[P_l] for the first synthetic model in closed form:
    # 1/sqrt(pi) - sqrt(1 + 2^-l)/sqrt(2 pi)
    m = 256
    with worker_pool(2) as pool:
        est = nested_mc(synthetic1(), 100_000, m, RandomStream(41), pool=pool)
    want = 1.0 / math.sqrt(math.pi) - math.sqrt(1.0 + 1.0 / m) / math.sqrt(2.0 * math.pi)
    assert abs(est.value - want) <= 5.0 * est.std_error


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
        "evpi": "3c1468251516d249df34ed0c41b78ac7109003a3b2e85fda47cb406e60f3ae81",
        "nested": "6365e9cd3b2f5d2a91ebae1efe23ea54666dd06262ccfb5075259fe1016c9d53",
    },
    "synthetic2": {
        "level_batch": "ed442592030d119dc7afe177e43e4742ce8552bed698248ab6af55f357d10b2d",
        "p_level": "97597b76fb00168c172dba8eb12bf08665b2a4dfe5c46b16025ddeefba824710",
        "evpi": "83af6f04320183e69bdf7fc017ebaf9070839a593e0ab96b4e4872aa4b4ca63a",
        "nested": "dccbd758b6a72e26cf6ea33dbbf405220f598526de11f7ca9cf38f9530aaf3ec",
    },
    "synthetic3": {
        "level_batch": "1d46180ff7c3359f303c8c583c20acacc591237ce66f238944649fc544efc87c",
        "p_level": "793b824efbae295478e2429d53cb8f20da74a6bc4e642daa8bfc5e3a1e917d74",
        "evpi": "21dc6f7708187a4f46623dc3f25abb1671bca54a1797d0dfd8d1b29d1705bc08",
        "nested": "fc8d84c8b597a6bc0a930bb692e87e8cd22fbef4dd2a6ef565676dae0629f80e",
    },
    "bkoc_5_14": {
        "level_batch": "4301de1f9d58af2e1a4407951c83eebda72c437e129c099c993ddf432678ef33",
        "p_level": "f16e4740d57f76c8cbcbdd54aa529d3764c06b7261424aa86618f75cdcba2dd3",
        "evpi": "bb7a7f7100e443e47e7bdc12af3e0e476f558cdc3dab8f077fedb144a5eab671",
        "nested": "8ad78d4790798444095d0573a1a9a32685dba492de6cd803f74538ee456d7044",
    },
    "bkoc_3": {
        "level_batch": "0d56e2f91ece369ec9a6c466a60cd428b850c01a54c3cd19d1ff112ee37b48b8",
        "p_level": "e8d9115d5f71b4c9ce8db3ed1605409dde543f91ee48524dcac15ff9895ab6bc",
        "evpi": "1bfe38e08d76e01eb358ba80585fddecf14a33afed1ea55a002af29bc4eb009b",
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
    # the EVPI in whole pairs: 1, 2 and 3 pairs, a full block, and a full
    # block plus one pair
    full = full_block(model, 1)
    assert full % 2 == 0
    for n, threads in [(2, 1), (4, 1), (6, 1), (full, 1), (full + 2, 2)]:
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


def chunk_rows(model, m):
    """Outer draws in one chunk of the kernel's walk at m inner draws."""
    width = m * estimators._width(model)
    return max(estimators._CHUNK_MIN_DRAWS, estimators._CHUNK_VALUE_BUDGET // width)


def assert_matches_whole_block(model, level, n, stream):
    """Both chunked kernels against the whole-block reference on the draws
    of ``stream``, bit for bit, with the exact identities; returns the
    agreements."""

    def stream_of():
        return RandomStream(stream.seed, stream.path)

    m = 1 << level
    z, p = estimators._level_block(model, m, n, stream_of())
    want_z, want_p, g = whole_level_block(model, level, n, stream_of())
    assert z.tobytes() == want_z.tobytes(), (model.name, level, n)
    assert p.tobytes() == want_p.tobytes(), (model.name, level, n)
    sums = g.sum(axis=0)
    want_gap = sums[-1] / m - np.maximum.reduce(sums[:-1], axis=0) / m
    assert estimators._p_block(model, m, n, stream_of()).tobytes() == want_gap.tobytes()
    return assert_exact_identities(z, p, g[:, :-1, :].transpose(2, 0, 1))


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_chunked_level_blocks_match_the_whole_block(name):
    # one chunk, one chunk and a ragged chunk of one draw, the 64-draw
    # floor and one full block, at every level the digests pin
    model = KERNEL_MODELS[name]()
    agreements = 0
    for level in range(1, 11):
        m = 1 << level
        rows = chunk_rows(model, m)
        sizes = {rows, rows + 1, estimators._CHUNK_MIN_DRAWS, full_block(model, m)}
        for n in sorted(sizes):
            sub = RandomStream(level).split(n)
            agreements += assert_matches_whole_block(model, level, n, sub)
    assert agreements > 0


@pytest.mark.parametrize("name, level", [("bkoc_5_14", 17), ("bkoc_3", 17), ("synthetic1", 19)])
def test_streamed_one_draw_blocks_match_the_whole_block(name, level):
    # a one-draw block wider than the block budget walks its inner axis in
    # power-of-two slices, at least two per half, that meet at the half
    model = KERNEL_MODELS[name]()
    m = 1 << level
    sizes, sample_inner = [], model.sample_inner

    def recorded(outer, stream, k):
        sizes.append(k)
        return sample_inner(outer, stream, k)

    model.sample_inner = recorded
    estimators._level_block(model, m, 1, RandomStream(60))
    assert sum(sizes) == m and len(set(sizes)) == 1 and sizes[0] & (sizes[0] - 1) == 0
    assert m // 2 >= 2 * sizes[0]
    model.sample_inner = sample_inner
    for b in range(2):
        assert_matches_whole_block(model, level, 1, RandomStream(60).split(b))


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_tiled_chunks_match_the_whole_block(name):
    # a chunk whose (m, D+1, c) payoff planes exceed the chunk budget is paid
    # off in power-of-two tiles of its inner axis, here at least two per
    # half, with each half sum carried from tile to tile; a chunk that fits,
    # such as the ragged last chunk of one draw at n = 65, is paid off at once
    model = KERNEL_MODELS[name]()
    d, payoffs, calls = model.decision_count, model.payoffs, []

    def recorded(outer, inner, out=None):
        calls.append(inner.shape[:2])
        return payoffs(outer, inner, out)

    model.payoffs = recorded
    kinds = set()
    for level in (11, 12):
        m = 1 << level
        rows = chunk_rows(model, m)
        for n in (64, 65, full_block(model, m)):
            calls.clear()
            estimators._level_block(model, m, n, RandomStream(level).split(n))
            left = iter(calls)
            for c in [min(rows, n - start) for start in range(0, n, rows)]:
                tiles = [next(left)]
                while sum(k for _, k in tiles) < m:
                    tiles.append(next(left))
                k = tiles[0][1]
                fits = m * (d + 1) * c <= estimators._CHUNK_VALUE_BUDGET
                kinds.add(fits)
                if fits:
                    assert tiles == [(c, m)], (name, level, n)
                else:
                    assert set(tiles) == {(c, k)} and k & (k - 1) == 0, (name, level, n)
                    assert m // 2 >= 2 * k, (name, level, n)
            assert next(left, None) is None, (name, level, n)
            assert_matches_whole_block(model, level, n, RandomStream(level).split(n))
    assert kinds == {True, False}


def peak_mb(run):
    """Peak of the memory traced while ``run()`` runs, in MB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_block_working_set_is_bounded():
    # one full block per level, walked in chunks and a wide chunk in tiles of
    # its inner axis; a whole-block kernel held 15.3-15.6 MB for bkoc and
    # 18.0 MB for synthetic1 at level 1, and untiled chunks of 64 draws
    # 15.3 MB for bkoc at level 10 and 8.2 MB for synthetic1 at levels 12-18
    bkoc, synth = BkocModel(), synthetic1()
    bounds = [
        (bkoc, range(1, 9), 6.0),
        (synth, range(1, 9), 6.0),
        (synth, range(9, 21), 3.0),
        (bkoc, range(9, 17), 10.0),
    ]
    for model, levels, bound in bounds:
        for level in levels:
            n = full_block(model, 1 << level)

            def run():
                acc_z, acc_p = MomentAccumulator(), MomentAccumulator()
                accumulate_level(model, level, n, RandomStream(level), acc_z, acc_p)

            peak = peak_mb(run)
            assert peak < bound, (model.name, level, peak)
    # one full EVPI block of pairs (52,428 draws), walked in chunks: 2.85 MB
    assert peak_mb(lambda: evpi_mc(bkoc, full_block(bkoc, 1), RandomStream(1))) < 6.0
    # a one-draw block at level 20, each tile drawing its own inner slice: 0.63 MB
    acc_z, acc_p = MomentAccumulator(), MomentAccumulator()
    assert peak_mb(lambda: accumulate_level(bkoc, 20, 1, RandomStream(2), acc_z, acc_p)) < 1.0
    assert acc_z.n == 1 and acc_p.mean >= acc_z.mean >= 0.0


# One full synthetic1 block at level 14 and one bkoc (5,14) block at level
# 12, in a process whose address space may grow by HEADROOM_MB at most once
# its imports are done: these blocks needed 3 and 9 MB of it with tiled
# chunks, 8 and 15 MB with untiled ones.
HEADROOM_MB = 12
RLIMIT_CODE = """\
import resource, sys
from voimc import MomentAccumulator, RandomStream, make_model
from voimc.estimators import _block_size, accumulate_level
blocks = [(make_model("synthetic1"), 14), (make_model("bkoc", outer=(5, 14)), 12)]
with open("/proc/self/statm") as statm:
    size = int(statm.read().split()[0]) * resource.getpagesize()
limit = size + int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
for model, level in blocks:
    n = _block_size(model, 1 << level)
    accumulate_level(model, level, n, RandomStream(level), MomentAccumulator(), MomentAccumulator())
"""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
def test_deep_blocks_run_under_an_address_space_limit():
    src = Path(estimators.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", RLIMIT_CODE, str(HEADROOM_MB)],
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
