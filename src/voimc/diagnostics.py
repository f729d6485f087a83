"""Level-resolved statistics, convergence-rate fits, and cost models.

Everything here answers a question about the multilevel estimator from
level statistics alone: how fast do the level corrections decay
(level_sweep, fit_rates), how large is the bias left beyond the finest level
(bias_remainder), and what would plain nested sampling pay at a target
accuracy (standard_cost). Running the driver, and the cost reports built on
its allocation, are the job of :mod:`voimc.mlmc`, which builds on this
module.

A sweep takes its caller's pool as ``pool=`` (None runs every block on the
caller's thread), fans each level's blocks out over it and merges moment
accumulators in block order, so every statistic is independent of the
worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InsufficientDataError
from .estimators import accumulate_level, accumulate_p_level
from .models import DecisionModel
from .moments import MomentAccumulator
from .streams import RandomStream


@dataclass(frozen=True)
class LevelStats:
    """Per-level summary of the correction Z_l and the gap P_l.

    ``kurtosis_z`` is the moment ratio m4/m2^2 (biased central moments); it
    is NaN when the sample variance vanishes. ``cost_per_sample`` is the
    number of inner samples one draw consumes, 2^level.
    """

    level: int
    n: int
    mean_z: float
    var_z: float
    kurtosis_z: float
    mean_p: float
    var_p: float
    cost_per_sample: int


@dataclass(frozen=True)
class RateEstimates:
    """Fitted decay rates: |E[Z_l]| ~ 2^(-alpha l), Var[Z_l] ~ 2^(-beta l).

    ``gamma`` is the cost growth rate; it is exactly 1 for this estimator
    family because one level-l draw always costs 2^l inner samples.
    """

    alpha: float
    beta: float
    gamma: float
    r_squared_alpha: float
    r_squared_beta: float


def stats_from_accumulators(
    level: int, acc_z: MomentAccumulator, acc_p: MomentAccumulator
) -> LevelStats:
    """Materialize a LevelStats row from running moments of Z and P draws."""
    if acc_z.n != acc_p.n:
        raise ValueError("Z and P accumulators hold different draw counts")
    return LevelStats(
        level=int(level),
        n=int(acc_z.n),
        mean_z=float(acc_z.mean),
        var_z=float(acc_z.variance()),
        kurtosis_z=float(acc_z.kurtosis()),
        mean_p=float(acc_p.mean),
        var_p=float(acc_p.variance()),
        cost_per_sample=1 << int(level),
    )


def _log2_line(points: list[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares slope and r^2 of log2(value) against level."""
    x = np.array([float(level) for level, _ in points])
    y = np.array([math.log2(value) for _, value in points])
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    ss_res = float(residual @ residual)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def fit_rates(stats: Sequence[LevelStats], min_level: int = 2) -> RateEstimates:
    """Fit decay rates by unweighted least squares on the log2 statistics.

    Levels below ``min_level`` are ignored (the coarsest level often sits off
    the asymptotic line); levels whose mean or variance is exactly zero carry
    no log information and are skipped for that fit. Each fit needs at least
    three surviving levels.
    """
    mean_points = [
        (s.level, abs(s.mean_z))
        for s in stats
        if s.level >= min_level and math.isfinite(s.mean_z) and s.mean_z != 0.0
    ]
    var_points = [
        (s.level, s.var_z)
        for s in stats
        if s.level >= min_level and math.isfinite(s.var_z) and s.var_z > 0.0
    ]
    if len(mean_points) < 3 or len(var_points) < 3:
        raise InsufficientDataError(
            f"rate fits need at least 3 usable levels at or above level {min_level}"
        )
    mean_slope, r2_alpha = _log2_line(mean_points)
    var_slope, r2_beta = _log2_line(var_points)
    return RateEstimates(
        alpha=-mean_slope,
        beta=-var_slope,
        gamma=1.0,
        r_squared_alpha=r2_alpha,
        r_squared_beta=r2_beta,
    )


def level_sweep(
    model: DecisionModel,
    max_level: int,
    n_per_level: int,
    stream: RandomStream,
    pool: Executor | None = None,
) -> list[LevelStats]:
    """Draw n_per_level independent samples at each level, 0 through
    max_level, and return one LevelStats row per level.

    The level-0 row is drawn like any other so its exact zeros are observed
    rather than assumed; its correction is the gap itself, Z_0 = P_0.
    """
    if max_level < 1:
        raise ConfigError("max_level must be at least 1")
    if n_per_level < 1_000:
        raise ConfigError("level sweeps need at least 1000 draws per level")
    acc_p0 = MomentAccumulator()
    accumulate_p_level(model, 0, n_per_level, stream.split(0), acc_p0, pool=pool)
    rows = [stats_from_accumulators(0, acc_p0, acc_p0)]
    for level in range(1, int(max_level) + 1):
        acc_z = MomentAccumulator()
        acc_p = MomentAccumulator()
        accumulate_level(model, level, n_per_level, stream.split(level), acc_z, acc_p, pool=pool)
        rows.append(stats_from_accumulators(level, acc_z, acc_p))
    return rows


def bias_remainder(stats: Sequence[LevelStats], alpha: float, at_level: int) -> float:
    """Extrapolated |E[P - P_L]| at L = ``at_level``: geometric tail of the
    level means at decay rate alpha, anchored on the last three measured
    levels and taking their maximum for robustness to one noisy mean."""
    if not stats:
        raise ValueError("remainder extrapolation needs level statistics")
    if alpha <= 0.0 or not math.isfinite(alpha):
        raise ValueError("alpha must be positive")
    ordered = sorted(stats, key=lambda s: s.level)
    denom = 2.0**alpha - 1.0
    return max(
        abs(s.mean_z) * 2.0 ** (alpha * (s.level - at_level)) / denom for s in ordered[-3:]
    )


def standard_cost(
    stats: Sequence[LevelStats], alpha: float, epsilon: float
) -> tuple[int, float]:
    """Level cutoff and modeled cost of plain nested MC at RMS accuracy epsilon.

    The cutoff L is the smallest level whose extrapolated bias clears
    eps/sqrt(2); the sample count is the usual 2 Var[P] eps^-2, each draw
    costing 2^L inner samples. Var[P] is taken from the finest measured
    level, where P_l has essentially converged to P.
    """
    coefficient = bias_remainder(stats, alpha, 0)
    if coefficient <= 0.0:
        cutoff = 1
    else:
        target = epsilon / math.sqrt(2.0)
        cutoff = max(1, math.ceil(math.log2(coefficient / target) / alpha))
    finest = max(stats, key=lambda s: s.level)
    n_std = math.ceil(2.0 * finest.var_p / (epsilon * epsilon))
    return cutoff, float(n_std) * 2.0**cutoff
