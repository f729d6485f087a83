"""Statistics rows, rate fits, sweeps, cost models, and the EVPPI summary."""

import math

import numpy as np
import pytest

from voimc import (
    ConfigError,
    InsufficientDataError,
    MomentAccumulator,
    RandomStream,
    SyntheticModel,
    synthetic1,
    synthetic3,
)
from voimc.diagnostics import (
    LevelStats,
    bias_remainder,
    fit_rates,
    level_sweep,
    stats_from_accumulators,
)
from voimc.estimators import worker_pool
from voimc.mlmc import (
    COMPARISON_WARMUP,
    MlmcConfig,
    cost_comparison,
    evppi_report,
    mlmc_run,
)
from voimc.models import make_model

from helpers import projected_costs


def planted_stats(alpha=0.9, beta=1.3, levels=range(1, 7), var_p=1.0, n=100_000):
    return [
        LevelStats(
            level=l,
            n=n,
            mean_z=2.0 ** (-alpha * l),
            var_z=2.0 ** (-beta * l),
            kurtosis_z=3.0,
            mean_p=0.1,
            var_p=var_p,
            cost_per_sample=2**l,
        )
        for l in levels
    ]


def stats_from_draws(z_values, p_values, level):
    """A LevelStats row from raw (Z_l, P_l) draws, as the sampling code builds it."""
    acc_z, acc_p = MomentAccumulator(), MomentAccumulator()
    acc_z.add_block(np.asarray(z_values, dtype=np.float64))
    acc_p.add_block(np.asarray(p_values, dtype=np.float64))
    return stats_from_accumulators(level, acc_z, acc_p)


def test_level_stats_known_values():
    s = stats_from_draws([1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0], level=2)
    assert s.n == 4
    assert s.mean_z == 0.0
    assert s.var_z == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert s.kurtosis_z == pytest.approx(1.0, rel=1e-15)
    assert s.var_p == 0.0
    assert s.cost_per_sample == 4


def test_stats_from_accumulators_requires_matching_counts():
    a, b = MomentAccumulator(), MomentAccumulator()
    a.add_block(np.ones(5))
    b.add_block(np.ones(4))
    with pytest.raises(ValueError):
        stats_from_accumulators(1, a, b)


def test_gaussian_kurtosis_reference():
    z = RandomStream(12).normals(1_000_000)
    s = stats_from_draws(z, np.zeros_like(z), level=1)
    assert s.kurtosis_z == pytest.approx(3.0, abs=0.1)


def test_kurtosis_is_affine_invariant():
    z = RandomStream(14).normals(10_000)
    base = stats_from_draws(z, np.zeros_like(z), level=1).kurtosis_z
    moved = stats_from_draws(250.0 * z - 3.0, np.zeros_like(z), level=1).kurtosis_z
    assert moved == pytest.approx(base, rel=1e-9)


def test_constant_draws_have_nan_kurtosis():
    s = stats_from_draws(np.full(100, 2.5), np.zeros(100), level=1)
    assert s.var_z == 0.0
    assert math.isnan(s.kurtosis_z)


def test_fit_recovers_planted_rates():
    rates = fit_rates(planted_stats(alpha=0.9, beta=1.3))
    assert rates.alpha == pytest.approx(0.9, abs=1e-12)
    assert rates.beta == pytest.approx(1.3, abs=1e-12)
    assert rates.gamma == 1.0
    assert rates.r_squared_alpha == pytest.approx(1.0, abs=1e-9)
    assert rates.r_squared_beta == pytest.approx(1.0, abs=1e-9)


def test_fit_ignores_levels_below_min_level():
    stats = planted_stats(levels=range(2, 7))
    off_line = LevelStats(
        level=1, n=1000, mean_z=50.0, var_z=50.0, kurtosis_z=3.0,
        mean_p=0.1, var_p=1.0, cost_per_sample=2,
    )
    rates = fit_rates([off_line] + stats, min_level=2)
    assert rates.alpha == pytest.approx(0.9, abs=1e-12)
    lower = fit_rates([off_line] + stats, min_level=1)
    assert abs(lower.alpha - 0.9) > 0.5  # the corrupted coarse level drags the fit


def test_fit_skips_zero_statistics():
    stats = planted_stats(levels=range(2, 8))
    stats[2] = LevelStats(
        level=4, n=1000, mean_z=0.0, var_z=0.0, kurtosis_z=math.nan,
        mean_p=0.1, var_p=1.0, cost_per_sample=16,
    )
    rates = fit_rates(stats)
    assert rates.alpha == pytest.approx(0.9, abs=1e-12)


def test_fit_requires_three_usable_levels():
    with pytest.raises(InsufficientDataError):
        fit_rates(planted_stats(levels=[2, 3]))
    with pytest.raises(InsufficientDataError):
        fit_rates(planted_stats(levels=[0, 1, 2]), min_level=2)


def test_level_sweep_layout():
    rows = level_sweep(synthetic1(), max_level=3, n_per_level=2000, stream=RandomStream(1))
    assert [r.level for r in rows] == [0, 1, 2, 3]
    assert all(r.n == 2000 for r in rows)
    zero = rows[0]
    assert zero.mean_z == 0.0 and zero.var_z == 0.0
    assert math.isnan(zero.kurtosis_z)
    assert zero.mean_p == 0.0 and zero.var_p == 0.0  # P_0 is identically zero
    assert zero.cost_per_sample == 1
    assert all(r.cost_per_sample == 2**r.level for r in rows)


def test_level_sweep_validation():
    with pytest.raises(ValueError):
        level_sweep(synthetic1(), max_level=0, n_per_level=2000, stream=RandomStream(1))
    with pytest.raises(ValueError):
        level_sweep(synthetic1(), max_level=2, n_per_level=999, stream=RandomStream(1))


def test_level_sweep_refuses_overflowing_payoffs():
    # a payoff of inf makes every gap inf - inf: NaN statistics from level 0
    blown = SyntheticModel("blown", (np.zeros_like, lambda x: np.full_like(x, np.inf)), (0.0, 1.0))
    with np.errstate(invalid="ignore"), pytest.raises(ConfigError, match="level 0"):
        level_sweep(blown, max_level=3, n_per_level=1000, stream=RandomStream(1))


def test_level_sweep_thread_invariance():
    a = level_sweep(synthetic3(), 2, 30_000, RandomStream(2))
    with worker_pool(4) as pool:
        b = level_sweep(synthetic3(), 2, 30_000, RandomStream(2), pool=pool)
    assert a == b


def test_cost_comparison_rows():
    rows = cost_comparison(synthetic1(), [0.08, 0.04], RandomStream(3))
    assert [r.epsilon for r in rows] == [0.08, 0.04]
    for row in rows:
        assert row.mlmc_cost > 0
        assert row.std_cost_model > 0
        assert row.ratio == row.std_cost_model / row.mlmc_cost
    with worker_pool(4) as pool:
        again = cost_comparison(synthetic1(), [0.08, 0.04], RandomStream(3), pool=pool)
    assert rows == again


def test_cost_comparison_validation():
    with pytest.raises(ValueError):
        cost_comparison(synthetic1(), [], RandomStream(0))
    with pytest.raises(ValueError):
        cost_comparison(synthetic1(), [0.1, -0.2], RandomStream(0))
    with pytest.raises(ValueError):
        cost_comparison(synthetic1(), [0.04, 0.08], RandomStream(0))
    with pytest.raises(ValueError):
        cost_comparison(synthetic1(), [0.08, 0.08], RandomStream(0))


def test_projected_costs_planted_arithmetic():
    # exact planted rates make every piece of the projection checkable
    stats = planted_stats(alpha=1.0, beta=1.5, levels=range(1, 6), var_p=1.0)
    coefficient = bias_remainder(stats, 1.0, 0)

    def cutoff(epsilon):
        return math.ceil(math.log2(coefficient * math.sqrt(2.0) / epsilon))

    epsilon = 0.01
    row = projected_costs(stats, epsilon)
    assert row.std_cost_model == math.ceil(2.0 * 1.0 / epsilon**2) * 2.0 ** cutoff(epsilon)
    assert row.ratio == row.std_cost_model / row.mlmc_cost
    # at a coarse target the sample floor binds at every level (the largest
    # allocation is ceil(2 eps^-2 sum_l 2^(-l/4) * 2^(-5/4)) = 223 < 300),
    # which fixes the cost exactly
    coarse = projected_costs(stats, 0.1)
    assert cutoff(0.1) == 4
    assert coarse.mlmc_cost == COMPARISON_WARMUP * (2.0 ** (cutoff(0.1) + 1) - 2.0)


def test_projected_costs_tracks_epsilon():
    stats = planted_stats(alpha=1.0, beta=1.5, levels=range(1, 6))
    a = projected_costs(stats, 0.02)
    b = projected_costs(stats, 0.01)
    assert b.mlmc_cost > a.mlmc_cost
    assert b.std_cost_model > a.std_cost_model


def test_projected_costs_validation():
    stats = planted_stats(levels=range(1, 6))
    with pytest.raises(ValueError):
        projected_costs(stats, 0.0)
    with pytest.raises(InsufficientDataError):
        projected_costs([], 0.1)


def test_projected_matches_executed_run():
    # the projection should land near the driver's actual spend at the same target
    result = mlmc_run(
        synthetic1(), MlmcConfig(epsilon=0.005, warmup_samples=300), RandomStream(5)
    )
    row = projected_costs(result.level_stats, 0.005)
    assert row.mlmc_cost == pytest.approx(result.total_cost, rel=0.5)


def test_evppi_report_identity():
    report = evppi_report(synthetic1(), epsilon=0.05, n_evpi=20_000, stream=RandomStream(8))
    assert report.converged
    assert report.evppi == report.evpi - report.difference
    assert report.evppi_rms_error == math.sqrt(
        report.evpi_std_error**2 + report.difference_rms_error**2
    )
    assert abs(report.evpi - 1.0 / math.sqrt(math.pi)) <= 4.5 * report.evpi_std_error
    assert abs(report.difference - 0.16524730314632362) <= 4.0 * 0.05
    assert report.n_evpi == 20_000
    assert report.epsilon == 0.05
    assert report.mlmc_result.converged


def test_evppi_report_partition_handling():
    # the EVPI is drawn in antithetic pairs, and its error needs two
    for n_evpi in (1, 2, 3, 5, 20_001):
        with pytest.raises(ConfigError):
            evppi_report(synthetic1(), epsilon=0.1, n_evpi=n_evpi, stream=RandomStream(0))
    # the report runs on the model's own partition, chosen when it is built
    report = evppi_report(
        make_model("bkoc", outer=(7, 16)), epsilon=100.0, n_evpi=5000, stream=RandomStream(9)
    )
    assert report.evppi == report.evpi - report.difference
    assert report.difference > 0.0
