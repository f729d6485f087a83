"""Model sampling laws, payoff values, and configuration validation."""

import itertools
import math
import json

import numpy as np
import pytest

from voimc import (
    BkocModel,
    CapabilityError,
    ConfigError,
    DecisionModel,
    RandomStream,
    make_model,
    synthetic1,
    synthetic2,
    synthetic3,
)
from voimc.models import (
    BKOC_CORRELATED_PAIRS,
    BKOC_MEANS,
    BKOC_STD_DEVS,
    GaussianModelSpec,
    load_model_config,
)


ALL_MODELS = [synthetic1(), synthetic2(), synthetic3(), BkocModel()]

# The denser reading of the case study's correlations: every pair among
# X5, X7, X14 and X16.
DENSE_PAIRS = tuple((i, j, 0.6) for i, j in itertools.combinations((5, 7, 14, 16), 2))


def point_payoffs(model, outer, inner):
    """Every decision's payoff at one (outer, inner) point, through the
    batch call with n = m = 1."""
    x = np.asarray(outer, dtype=np.float64).reshape(1, model.outer_dim)
    y = np.asarray(inner, dtype=np.float64).reshape(1, 1, model.inner_dim)
    return model.payoffs(x, y)[0, 0]


def point_conditional_means(model, outer):
    """E[f_d | X = outer] of every decision at one outer point."""
    return model.conditional_means(np.asarray(outer, dtype=np.float64).reshape(1, -1))[0]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_batch_shapes(model):
    stream = RandomStream(0)
    x = model.sample_outer(stream, 7)
    assert x.shape == (7, model.outer_dim)
    y = model.sample_inner(x, stream, 3)
    assert y.shape == (7, 3, model.inner_dim)
    f = model.payoffs(x, y)
    assert f.shape == (7, 3, model.decision_count)
    assert np.isfinite(f).all()
    g = model.conditional_means(x)
    assert g.shape == (7, model.decision_count)


def test_synthetic_payoff_values():
    m1, m2, m3 = synthetic1(), synthetic2(), synthetic3()
    assert point_payoffs(m1, [1.7], [0.3])[0] == 0.0
    assert point_payoffs(m1, [1.7], [0.3])[1] == 2.0
    assert point_payoffs(m2, [2.0], [0.5])[1] == 8.5
    assert point_payoffs(m3, [0.5], [0.25])[1] == 0.25
    assert point_payoffs(m3, [1.5], [0.0])[1] == 0.5
    assert point_payoffs(m3, [-2.0], [0.0])[1] == -1.0


def test_synthetic_conditional_means():
    m2 = synthetic2()
    assert point_conditional_means(m2, [3.0])[0] == 0.0
    assert point_conditional_means(m2, [3.0])[1] == 27.0
    m3 = synthetic3()
    assert point_conditional_means(m3, [0.99])[1] == 0.0
    assert point_conditional_means(m3, [-1.75])[1] == -0.75


def test_capability_probe():
    class Opaque(DecisionModel):
        name = "opaque"
        decision_count = 1
        outer_dim = 1
        inner_dim = 1

        def sample_outer(self, stream, n):
            return stream.normals((n, 1))

        def sample_inner(self, outer, stream, m):
            return stream.normals((outer.shape[0], m, 1))

        def payoffs(self, outer, inner):
            return inner.copy()

    with pytest.raises(CapabilityError):
        Opaque().conditional_means(np.zeros((1, 1)))
    assert synthetic1().conditional_means(np.zeros((1, 1))).shape == (1, 2)
    assert BkocModel().conditional_means(np.zeros((1, 2))).shape == (1, 2)


def bkoc_payoffs_at_means():
    lam = 1.0e4
    mu = BKOC_MEANS
    f1 = lam * (mu[4] * mu[5] * mu[6] + mu[7] * mu[8] * mu[9]) - (mu[0] + mu[1] * mu[2] * mu[3])
    f2 = lam * (mu[13] * mu[14] * mu[15] + mu[16] * mu[17] * mu[18]) - (
        mu[10] + mu[11] * mu[12] * mu[3]
    )
    return f1, f2


def test_bkoc_payoff_at_means():
    f1, f2 = bkoc_payoffs_at_means()
    assert f1 == pytest.approx(4967.0, rel=1e-12)
    assert f2 == pytest.approx(5404.8, rel=1e-12)
    model = BkocModel()
    outer = [BKOC_MEANS[i - 1] for i in model.spec.outer_indices]
    inner0 = sorted(set(range(19)) - {i - 1 for i in model.spec.outer_indices})
    inner = [BKOC_MEANS[i] for i in inner0]
    assert point_payoffs(model, outer, inner)[0] == pytest.approx(f1, rel=1e-12)
    assert point_payoffs(model, outer, inner)[1] == pytest.approx(f2, rel=1e-12)


def test_joint_sampling_matches_moments():
    # with every variable outer, the outer draw is the joint draw of all 19
    # in index order
    model = make_model("bkoc", outer=range(1, 20))
    assert (model.outer_dim, model.inner_dim) == (19, 0)
    spec = model.spec
    x = model.sample_outer(RandomStream(21), 1_000_000)
    assert x.shape == (1_000_000, 19)
    # four-sigma bands on the mean at n = 1e6
    sd = np.array(BKOC_STD_DEVS)
    assert (np.abs(x.mean(axis=0) - BKOC_MEANS) <= 4.0 * sd / 1000.0).all()
    np.testing.assert_allclose(x.std(axis=0), sd, rtol=0.005)
    for i, j, r in spec.correlated_pairs:
        got = np.corrcoef(x[:, i - 1], x[:, j - 1])[0, 1]
        assert got == pytest.approx(r, abs=0.003)
    # an uncorrelated pair stays near zero
    assert abs(np.corrcoef(x[:, 0], x[:, 1])[0, 1]) < 0.003


def test_bkoc_inner_conditional_mean_formula():
    # with the default partition, X7 | X5 = x has mean mu7 + rho sigma7/sigma5 (x - mu5)
    model = BkocModel()
    x = np.array([[0.9, 0.75]])
    m = model.inner_conditional_means(x)
    inner0 = sorted(set(range(19)) - {4, 13})
    pos7 = inner0.index(6)
    expected = 3.0 + 0.6 * (0.5 / 0.1) * (0.9 - 0.7)
    assert m[0, pos7] == pytest.approx(expected, rel=1e-12)
    # an inner variable uncorrelated with the outer block keeps its mean
    pos1 = inner0.index(0)
    assert m[0, pos1] == pytest.approx(BKOC_MEANS[0], rel=1e-12)


def test_bkoc_conditional_sampling_matches_law():
    model = BkocModel()
    x = np.array([[0.85, 0.7]])
    y = model.sample_inner(x, RandomStream(33), 400_000)[0]
    want_mean = model.inner_conditional_means(x)[0]
    # Schur complement of the outer block in the joint covariance
    cov = model.spec.covariance_matrix()
    outer0 = [i - 1 for i in model.spec.outer_indices]
    inner0 = [i for i in range(19) if i not in outer0]
    cov_io = cov[np.ix_(inner0, outer0)]
    want_cov = cov[np.ix_(inner0, inner0)] - cov_io @ np.linalg.solve(
        cov[np.ix_(outer0, outer0)], cov_io.T
    )
    sd = np.sqrt(np.diag(want_cov))
    assert (np.abs(y.mean(axis=0) - want_mean) <= 4.0 * sd / np.sqrt(400_000)).all()
    np.testing.assert_allclose(np.diag(np.cov(y.T)), np.diag(want_cov), rtol=0.02)


# (outer indices, correlated pairs, whether the conditional factor is diagonal)
SAMPLE_INNER_CASES = [
    ((5, 14), BKOC_CORRELATED_PAIRS, True),
    ((7, 16), BKOC_CORRELATED_PAIRS, True),
    ((5, 6, 14, 15), BKOC_CORRELATED_PAIRS, True),
    ((3,), BKOC_CORRELATED_PAIRS, False),
    ((14,), BKOC_CORRELATED_PAIRS, False),
    ((5, 14), DENSE_PAIRS, False),
]


@pytest.mark.parametrize(
    "outer,pairs,diagonal",
    SAMPLE_INNER_CASES,
    ids=["5,14", "7,16", "5,6,14,15", "3", "14", "dense-5,14"],
)
def test_bkoc_sample_inner_is_mean_plus_factor_bit_for_bit(outer, pairs, diagonal):
    model = BkocModel(GaussianModelSpec(correlated_pairs=pairs, outer_indices=outer))
    chol = model._chol_cond
    # exactly the factors with one nonzero per row take the in-place scaling
    assert (np.count_nonzero(chol, axis=1) == 1).all() == diagonal
    assert (model._chol_cond_diag is not None) == diagonal
    for n in (1, 2, 3, 5000):
        x = model.sample_outer(RandomStream(4, path=(n,)), n)
        for m in (1, 2, 3, 64):
            y = model.sample_inner(x, RandomStream(5, path=(n, m)), m)
            z = RandomStream(5, path=(n, m)).normals((n, m, model.inner_dim))
            want = model.inner_conditional_means(x)[:, None, :] + z @ chol.T
            assert y.shape == want.shape
            assert y.tobytes() == want.tobytes(), (n, m)


@pytest.mark.parametrize("pairs", [None, "dense"])
def test_bkoc_conditional_means_match_brute_force(pairs):
    if pairs == "dense":
        model = BkocModel(GaussianModelSpec(correlated_pairs=DENSE_PAIRS))
    else:
        model = BkocModel()
    stream = RandomStream(55)
    x = model.sample_outer(stream, 3)
    exact = model.conditional_means(x)
    m = 800_000
    y = model.sample_inner(x, stream, m)
    f = model.payoffs(x, y)
    emp_mean = f.mean(axis=1)
    emp_se = f.std(axis=1, ddof=1) / np.sqrt(m)
    assert (np.abs(emp_mean - exact) <= 5.0 * emp_se).all()


def test_synthetic_conditional_means_match_brute_force():
    model = synthetic2()
    stream = RandomStream(56)
    x = model.sample_outer(stream, 5)
    y = model.sample_inner(x, stream, 200_000)
    f = model.payoffs(x, y)
    exact = model.conditional_means(x)
    se = f.std(axis=1, ddof=1) / np.sqrt(200_000)
    assert (np.abs(f.mean(axis=1) - exact) <= 5.0 * se + 1e-12).all()


def test_spec_validation():
    with pytest.raises(ConfigError):
        GaussianModelSpec(means=(1.0, 2.0))
    with pytest.raises(ConfigError):
        GaussianModelSpec(std_devs=(0.0,) + BKOC_STD_DEVS[1:])
    with pytest.raises(ConfigError):
        GaussianModelSpec(lam=-1.0)
    with pytest.raises(ConfigError):
        GaussianModelSpec(correlated_pairs=((5, 5, 0.5),))
    with pytest.raises(ConfigError):
        GaussianModelSpec(correlated_pairs=((5, 7, 1.0),))
    with pytest.raises(ConfigError):
        GaussianModelSpec(correlated_pairs=((5, 7, 0.3), (7, 5, 0.4)))
    with pytest.raises(ConfigError):
        GaussianModelSpec(outer_indices=())
    with pytest.raises(ConfigError):
        GaussianModelSpec(outer_indices=(5, 5))
    with pytest.raises(ConfigError):
        GaussianModelSpec(outer_indices=(0,))
    with pytest.raises(ConfigError):
        GaussianModelSpec(outer_indices=(20,))
    for bad in ((1.5,), "14", (True,), (np.float64(5.0),)):
        with pytest.raises(ConfigError):
            GaussianModelSpec(outer_indices=bad)
    for bad in ((5.9, 7, 0.6), (5, "7", 0.6), (False, 7, 0.6)):
        with pytest.raises(ConfigError):
            GaussianModelSpec(correlated_pairs=(bad,))
    assert GaussianModelSpec(outer_indices=(np.int64(5),)).outer_indices == (5,)
    # numeric fields: booleans and strings are refused, not read as numbers
    for bad in ("5000", True, None):
        with pytest.raises(ConfigError):
            GaussianModelSpec(lam=bad)
    for bad in ((5, 7, "0.6"), (5, 7, True)):
        with pytest.raises(ConfigError):
            GaussianModelSpec(correlated_pairs=(bad,))
    with pytest.raises(ConfigError):
        GaussianModelSpec(means=(True,) + BKOC_MEANS[1:])
    with pytest.raises(ConfigError):
        GaussianModelSpec(std_devs="1" * 19)
    with pytest.raises(ConfigError):
        GaussianModelSpec(std_devs=("1.0",) + BKOC_STD_DEVS[1:])
    spec = GaussianModelSpec(lam=np.float64(5000.0), means=(np.int64(2),) + BKOC_MEANS[1:])
    assert (spec.lam, spec.means[0]) == (5000.0, 2.0)
    # a correlation cycle that no joint Gaussian admits
    with pytest.raises(ConfigError):
        GaussianModelSpec(correlated_pairs=((1, 2, 0.9), (2, 3, 0.9), (1, 3, -0.9)))
    # payoffs that could leave 1e64 for some variate the stream can give, and
    # so any parameter that is not finite, are refused
    for bad in (
        {"means": (*BKOC_MEANS[:4], 1e110, 1e110, 1e110, *BKOC_MEANS[7:])},
        {"means": (math.inf,) + BKOC_MEANS[1:]},
        {"means": (math.nan,) + BKOC_MEANS[1:]},
        {"std_devs": BKOC_STD_DEVS[:-1] + (math.inf,)},
        {"std_devs": BKOC_STD_DEVS[:-1] + (math.nan,)},
        {"lam": math.inf},
        {"lam": math.nan},
        {"lam": 1e70},
    ):
        with pytest.raises(ConfigError):
            GaussianModelSpec(**bad)
    GaussianModelSpec(lam=1e50)
    # a spread whose square is 0 or subnormal, as for eps: 1.5e-154 squares
    # to 2.25e-308, a normal double, and 1.4e-154 no longer does
    for tiny in (1e-160, 1e-170, 1e-200, 1.4e-154, 5e-324, -1.0):
        with pytest.raises(ConfigError, match="underflow"):
            GaussianModelSpec(std_devs=(tiny,) + BKOC_STD_DEVS[1:])
    BkocModel(GaussianModelSpec(std_devs=(1.5e-154,) + BKOC_STD_DEVS[1:]))


def test_dense_pairs_accepted():
    spec = GaussianModelSpec(correlated_pairs=DENSE_PAIRS)
    corr = spec.correlation_matrix()
    assert corr[4, 6] == 0.6
    assert corr[4, 13] == 0.6
    assert corr[6, 15] == 0.6


def test_make_model_registry(tmp_path):
    assert make_model("synthetic2").name == "synthetic2"
    model = make_model("bkoc", outer=(5, 6, 14, 15))
    assert model.spec.outer_indices == (5, 6, 14, 15)
    assert model.outer_dim == 4
    with pytest.raises(ConfigError):
        make_model("synthetic1", outer=(1,))
    # partition values reach the spec check unconverted: none is truncated
    # or read as an index
    for bad in ([1.5], [True, 14], "14"):
        with pytest.raises(ConfigError):
            make_model("bkoc", outer=bad)
    with pytest.raises(ConfigError):
        make_model("nonesuch")
    with pytest.raises(ConfigError):
        make_model()
    with pytest.raises(ConfigError):
        make_model("bkoc", config="x.json")
    # a correlation below 1 whose covariance block rounds to singular: the
    # correlation matrix passes, the outer block's factor fails
    near = tmp_path / "near.json"
    near.write_text(json.dumps({"correlated_pairs": [[5, 14, 1.0 - 2.0**-53]]}))
    with pytest.raises(ConfigError, match="numerically singular"):
        make_model(config=near)


def test_load_model_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"lambda": 5000.0, "outer_indices": [7, 16], "name": "variant"}))
    spec = load_model_config(path)
    assert spec.lam == 5000.0
    assert spec.outer_indices == (7, 16)
    assert spec.name == "variant"
    assert spec.means == BKOC_MEANS

    model = make_model(config=path)
    assert model.name == "variant"
    assert model.outer_dim == 2

    path.write_text(json.dumps({"gamma": 1}))
    with pytest.raises(ConfigError):
        load_model_config(path)
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_model_config(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError):
        load_model_config(path)
    with pytest.raises(ConfigError):
        load_model_config(tmp_path / "absent.json")


def test_sampling_is_stream_deterministic():
    model = BkocModel()
    a = model.sample_outer(RandomStream(3, path=(1,)), 100)
    b = model.sample_outer(RandomStream(3, path=(1,)), 100)
    np.testing.assert_array_equal(a, b)
