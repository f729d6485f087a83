"""Driver behavior: allocation, bias control, convergence, reproducibility."""

import math

import numpy as np
import pytest

from voimc import (
    ConfigError,
    MomentAccumulator,
    RandomStream,
    SyntheticModel,
    synthetic1,
    synthetic2,
)
from voimc.diagnostics import LevelStats, bias_remainder, stats_from_accumulators
from voimc.estimators import accumulate_level, worker_pool
from voimc.mlmc import MlmcConfig, _floored_variances, mlmc_run, optimal_allocation

CLOSED_FORM_GAP = 1.0 / math.sqrt(math.pi) - 1.0 / math.sqrt(2.0 * math.pi)


def ls(level, var_z=1.0, mean_z=0.0, n=1000):
    return LevelStats(
        level=level,
        n=n,
        mean_z=mean_z,
        var_z=var_z,
        kurtosis_z=3.0,
        mean_p=0.0,
        var_p=1.0,
        cost_per_sample=float(2**level),
    )


def test_config_validation():
    MlmcConfig(epsilon=0.1)
    with pytest.raises(ConfigError):
        MlmcConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        MlmcConfig(epsilon=math.nan)
    with pytest.raises(ConfigError):
        MlmcConfig(epsilon=0.1, warmup_samples=99)
    # the driver warms up levels 1..3, so it may not stop short of level 3
    MlmcConfig(epsilon=0.1, max_level=3)
    with pytest.raises(ConfigError):
        MlmcConfig(epsilon=0.1, max_level=2)


def test_allocation_known_case():
    stats = [ls(1, var_z=1.0), ls(2, var_z=0.25)]
    counts, degenerate = optimal_allocation(stats, epsilon=0.1, min_allocation=10_000)
    assert counts == [342, 121]
    assert not degenerate


def test_allocation_single_level_reduces_to_plain_mc():
    # one level: N = ceil(2 V / eps^2), independent of the cost
    (count,), _ = optimal_allocation([ls(3, var_z=0.5)], epsilon=0.05, min_allocation=10_000)
    assert count == math.ceil(2.0 * 0.5 / 0.05**2)


def test_allocation_meets_variance_target():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(1, 8))
        stats = [ls(l + 1, var_z=float(rng.uniform(0.01, 2.0))) for l in range(k)]
        eps = float(rng.uniform(0.01, 0.5))
        counts, _ = optimal_allocation(stats, eps, min_allocation=10_000)
        total = math.fsum(s.var_z / n for s, n in zip(stats, counts))
        assert total <= eps * eps / 2.0 * (1.0 + 1e-12)


def test_allocation_degenerate_and_invalid():
    counts, degenerate = optimal_allocation(
        [ls(1, var_z=0.0), ls(2, var_z=0.0)], 0.1, min_allocation=10_000
    )
    assert degenerate
    assert counts == [10_000, 10_000]
    counts, degenerate = optimal_allocation(
        [ls(1, var_z=0.0), ls(2, var_z=0.0)], 0.1, min_allocation=500
    )
    assert counts == [500, 500]
    with pytest.raises(ValueError):
        optimal_allocation([ls(1, var_z=math.nan)], 0.1, min_allocation=10_000)
    with pytest.raises(ValueError):
        optimal_allocation([], 0.1, min_allocation=10_000)
    with pytest.raises(ValueError):
        optimal_allocation([ls(1)], 0.0, min_allocation=10_000)


def test_zero_variance_level_gets_no_extra_samples():
    counts, degenerate = optimal_allocation(
        [ls(1, var_z=1.0), ls(2, var_z=0.0)], 0.1, min_allocation=10_000
    )
    assert not degenerate
    assert counts[1] == 0
    assert counts[0] == math.ceil(2.0 / 0.01)


def test_variance_floor_lifts_a_thin_deep_level():
    # level 3 holds only its 1,000 warm-up draws and measured a tiny variance;
    # the floor V_3 >= V_2 2^-beta / 2 takes over and its allocation rises
    beta = 1.5
    stats = [
        ls(1, var_z=1.0, n=60_000),
        ls(2, var_z=2.0**-beta, n=30_000),
        ls(3, var_z=1e-9, n=1_000),
    ]
    floored = _floored_variances(stats, beta)
    assert [s.var_z for s in floored[:2]] == [1.0, 2.0**-beta]
    assert floored[2].var_z == 0.5 * 2.0**-beta * 2.0**-beta
    assert [(s.level, s.n, s.cost_per_sample) for s in floored] == [
        (s.level, s.n, s.cost_per_sample) for s in stats
    ]
    raw, _ = optimal_allocation(stats, 0.01, min_allocation=1_000)
    counts, _ = optimal_allocation(floored, 0.01, min_allocation=1_000)
    root_vc = math.fsum(math.sqrt(s.var_z * s.cost_per_sample) for s in floored)
    assert counts[2] == math.ceil(2.0 / 0.01**2 * root_vc * math.sqrt(floored[2].var_z / 8.0))
    assert raw[2] < 1_000 < counts[2]
    # the floor cascades: a level above a floored one is floored from it
    deep = _floored_variances([*stats, ls(4, var_z=0.0)], beta)
    assert deep[3].var_z == 0.5 * deep[2].var_z * 2.0**-beta
    # with no fitted beta the rows pass unchanged
    assert _floored_variances(stats, math.nan) == stats


def test_variance_floor_never_lowers_an_allocation():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        stats = [ls(l + 1, var_z=float(10.0 ** rng.uniform(-8, 0))) for l in range(k)]
        beta = float(rng.uniform(-0.5, 3.0))
        eps = float(10.0 ** rng.uniform(-3, -1))
        floored = _floored_variances(stats, beta)
        assert all(f.var_z >= s.var_z for f, s in zip(floored, stats))
        raw, _ = optimal_allocation(stats, eps, min_allocation=1_000)
        counts, _ = optimal_allocation(floored, eps, min_allocation=1_000)
        assert all(c >= r for c, r in zip(counts, raw))


def test_bias_remainder_geometric_tail():
    # means decaying exactly as m 2^-l at alpha = 1 extrapolate to m 2^-L
    stats = [ls(l, mean_z=0.4 * 2.0**-l) for l in range(1, 6)]
    remainder = bias_remainder(stats, alpha=1.0, at_level=5)
    assert remainder == 0.4 * 2.0**-5


def test_bias_remainder_robust_to_one_small_mean():
    # a lucky near-zero mean at the finest level must not end the run early
    stats = [ls(3, mean_z=0.08), ls(4, mean_z=0.04), ls(5, mean_z=1e-9)]
    assert bias_remainder(stats, alpha=1.0, at_level=5) == pytest.approx(0.08 / 4.0)


def test_bias_validation():
    with pytest.raises(ValueError):
        bias_remainder([ls(1)], alpha=0.0, at_level=1)
    with pytest.raises(ValueError):
        bias_remainder([], alpha=1.0, at_level=1)


def standalone_warmup(model, levels, n0, stream):
    """The driver's warm-up layout rebuilt outside it: level l draws n0
    samples from substream ``stream.split(l)``."""
    stats = []
    for level in levels:
        acc_z, acc_p = MomentAccumulator(), MomentAccumulator()
        accumulate_level(model, level, n0, stream.split(level), acc_z, acc_p)
        stats.append(stats_from_accumulators(level, acc_z, acc_p))
    return stats


def test_warmup_basics():
    # a coarse target stops on the warm-up itself: warmup_samples at levels 1..3
    cfg = MlmcConfig(epsilon=10.0, warmup_samples=500)
    stats = mlmc_run(synthetic1(), cfg, RandomStream(77)).level_stats
    assert [s.level for s in stats] == [1, 2, 3]
    assert all(s.n == 500 for s in stats)
    assert all(s.cost_per_sample == 2.0**s.level for s in stats)
    again = mlmc_run(synthetic1(), cfg, RandomStream(77)).level_stats
    assert stats == again
    with pytest.raises(ValueError):
        MlmcConfig(epsilon=10.0, warmup_samples=50)
    with pytest.raises(ValueError):
        accumulate_level(
            synthetic1(), 0, 500, RandomStream(0), MomentAccumulator(), MomentAccumulator()
        )


def test_driver_reuses_warmup_layout():
    # the first control-loop pass must see exactly the standalone warm-up stats
    warm = standalone_warmup(synthetic1(), [1, 2, 3], 500, RandomStream(77))
    result = mlmc_run(
        synthetic1(), MlmcConfig(epsilon=10.0, warmup_samples=500), RandomStream(77)
    )
    assert result.history[0]["variances"] == [s.var_z for s in warm]
    assert result.converged
    assert result.allocations == (500, 500, 500)
    assert [s.var_z for s in result.level_stats] == [s.var_z for s in warm]


def test_driver_hits_closed_form():
    eps = 0.01
    result = mlmc_run(synthetic1(), MlmcConfig(epsilon=eps), RandomStream(5))
    assert result.converged
    assert abs(result.estimate - CLOSED_FORM_GAP) <= 4.0 * eps
    assert result.variance_of_estimator <= eps * eps / 2.0
    assert result.bias_estimate <= eps / math.sqrt(2.0)
    assert result.max_level_used == result.level_stats[-1].level
    want_cost = sum(int(s.cost_per_sample) * s.n for s in result.level_stats)
    assert result.total_cost == want_cost
    assert result.allocations == tuple(s.n for s in result.level_stats)
    recomputed = math.fsum(s.var_z / s.n for s in result.level_stats)
    assert result.variance_of_estimator == recomputed


def test_driver_history_structure():
    result = mlmc_run(synthetic1(), MlmcConfig(epsilon=0.02), RandomStream(5))
    actions = [h["action"] for h in result.history]
    assert actions[-1] == "stop"
    assert set(actions) <= {"top_up", "extend", "stop"}
    for h in result.history[:-1]:
        assert h["action"] in ("top_up", "extend")
    assert [h["iteration"] for h in result.history] == list(range(len(result.history)))
    assert result.history[-1]["remainder"] == result.bias_estimate
    # every tested remainder decides the pass: stop iff it clears eps/sqrt(2)
    tested = [h for h in result.history if h["remainder"] is not None]
    assert any(h["action"] == "extend" for h in tested)
    for h in tested:
        assert (h["action"] == "stop") == (h["remainder"] <= 0.02 / math.sqrt(2.0))


def test_driver_is_reproducible_across_threads():
    cfg = MlmcConfig(epsilon=0.02, warmup_samples=300)
    a = mlmc_run(synthetic1(), cfg, RandomStream(9))
    with worker_pool(4) as pool:
        b = mlmc_run(synthetic1(), cfg, RandomStream(9), pool=pool)
    assert a == b


def test_cost_growth_under_epsilon_halving():
    cfg_a = MlmcConfig(epsilon=0.005, warmup_samples=300)
    cfg_b = MlmcConfig(epsilon=0.0025, warmup_samples=300)
    cost_a = mlmc_run(synthetic1(), cfg_a, RandomStream(5)).total_cost
    cost_b = mlmc_run(synthetic1(), cfg_b, RandomStream(5)).total_cost
    assert 2.5 <= cost_b / cost_a <= 6.5


def test_degenerate_model_converges_to_zero():
    model = SyntheticModel(
        "constant_gap",
        (lambda x: np.zeros_like(x), lambda x: np.ones_like(x)),
        (1.0, 1.0),
    )
    result = mlmc_run(model, MlmcConfig(epsilon=0.01, warmup_samples=200), RandomStream(1))
    assert result.converged
    assert result.estimate == 0.0
    assert result.bias_estimate == 0.0
    assert any("zero" in w for w in result.warnings)
    assert result.allocations == (200, 200, 200)


def test_non_convergence_at_max_level():
    cfg = MlmcConfig(epsilon=0.005, warmup_samples=300, max_level=3)
    result = mlmc_run(synthetic2(), cfg, RandomStream(3))
    assert not result.converged
    assert result.max_level_used == 3
    assert result.bias_estimate > 0.005 / math.sqrt(2.0)
    assert any("max_level" in w for w in result.warnings)
    assert result.history[-1]["action"] == "fail"
    assert math.isfinite(result.estimate)
