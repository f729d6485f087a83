"""Adaptive multilevel driver for the value-of-information gap.

The driver estimates E[max_d f_d] - E[max_d E[f_d|X]] as the telescoped sum
of level-correction means, choosing how deep to go and how many draws each
level gets so the mean-square error splits evenly: estimator variance at
most eps^2/2 and squared bias at most eps^2/2. A run is set by three
values, the ones in :class:`MlmcConfig`: the target eps, the warm-up draws
per new level and the finest level allowed.

The control loop is sequential. It starts from 1,000 warm-up draws (by
default) at levels 1..3. Each pass recomputes pooled per-level statistics,
refits decay rates, floors each variance from level 2 on at half the
previous level's decayed at the fitted beta, and derives the optimal sample
allocation; if any level is short, it is topped up and the loop repeats.
Only once every allocation is satisfied under the current variance
estimates is the bias remainder tested, and a failing test appends one finer
level with warm-up draws. Sampling inside a level fans out over block
substreams, and each level folds its blocks in block order, so the whole run
is reproducible bit for bit from (model, config, seed). The driver and the
reports take their caller's pool as ``pool=``, and never open one; with a
pool, a top-up pass puts all its short levels on it at once, and the EVPI of
an EVPPI report runs beside the driver on the same pool.

The reports built on the driver's arithmetic live here too: the multilevel
cost against the modeled standard-MC cost, either from driver runs over
several targets (cost_comparison) or projected from measured level
statistics without a run (projected_costs), and the EVPI / EVPPI summary of
a model (evppi_report).
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Sequence

from .diagnostics import (
    LevelStats,
    bias_remainder,
    fit_rates,
    standard_cost,
    stats_from_accumulators,
)
from .errors import ConfigError, InsufficientDataError
from .estimators import accumulate_level, evpi_mc
from .models import DecisionModel
from .moments import MomentAccumulator
from .streams import RandomStream

# Safety valve for the top-up loop; normal runs settle in a handful of
# passes per level extension.
_MAX_ITERATIONS = 200

_KURTOSIS_WARNING = 100.0

# Levels 1..3 get warm-up draws before the first pass: the bias test
# extrapolates from the last three level means.
_INITIAL_LEVELS = 3

# Warm-up size, and allocation floor, of the cost reports. A cost comparison
# spans coarse targets where the driver's default warm-up would dominate the
# measured cost and flatten nothing, so these reports use a lighter one.
COMPARISON_WARMUP = 300


@dataclass(frozen=True)
class MlmcConfig:
    """Driver settings: the RMS accuracy target ``epsilon``, the draws each
    new level gets before its variance is used (``warmup_samples``, also
    the per-level allocation when every variance is zero), and the finest
    level the driver may add (``max_level``, at least the 3 warm-up levels).
    The warm-up is small; a level still thinly sampled is guarded by the
    variance floor extrapolated from the level below it.
    """

    epsilon: float
    warmup_samples: int = 1_000
    max_level: int = 25

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ConfigError("epsilon must be a positive finite number")
        if self.warmup_samples < 100:
            raise ConfigError("warmup_samples must be at least 100")
        if self.max_level < _INITIAL_LEVELS:
            raise ConfigError(f"max_level must be at least {_INITIAL_LEVELS}")


@dataclass(frozen=True)
class MlmcResult:
    """Outcome of one driver run.

    ``allocations`` holds the samples actually drawn per level (warm-up
    included), and ``total_cost`` their inner-sample cost sum(2^l N_l).
    ``history`` carries one record per control-loop pass: the level set,
    pooled variances, allocation targets, drawn counts, the remainder
    estimate when the bias was tested (None otherwise), and the action
    taken. On a run that stops before testing the bias, ``bias_estimate``
    is NaN.
    """

    estimate: float
    epsilon: float
    converged: bool
    level_stats: tuple[LevelStats, ...]
    max_level_used: int
    allocations: tuple[int, ...]
    total_cost: int
    fitted_alpha: float
    fitted_beta: float
    variance_of_estimator: float
    bias_estimate: float
    warnings: tuple[str, ...]
    history: tuple[dict, ...]


def optimal_allocation(
    stats: Sequence[LevelStats], epsilon: float, min_allocation: int
) -> tuple[list[int], bool]:
    """Per-level sample counts that hit variance eps^2/2 at minimal cost.

    N_l = ceil(2 eps^-2 sqrt(V_l / C_l) sum_k sqrt(V_k C_k)), the classic
    cost-weighted split. Zero-variance levels get zero new samples. When
    every level has zero variance the formula degenerates; the fallback is
    ``min_allocation`` per level, flagged in the second return value.
    """
    if not stats:
        raise ValueError("allocation needs at least one level")
    if epsilon <= 0.0 or not math.isfinite(epsilon):
        raise ValueError("epsilon must be positive")
    variances = []
    for s in stats:
        if not math.isfinite(s.var_z) or s.var_z < 0.0:
            raise ValueError(f"level {s.level} variance estimate is unusable: {s.var_z}")
        variances.append(s.var_z)
    costs = [float(s.cost_per_sample) for s in stats]
    if all(v == 0.0 for v in variances):
        return [int(min_allocation)] * len(stats), True
    root_vc = math.fsum(math.sqrt(v * c) for v, c in zip(variances, costs))
    scale = 2.0 / (epsilon * epsilon) * root_vc
    counts = [int(math.ceil(scale * math.sqrt(v / c))) for v, c in zip(variances, costs)]
    return counts, False


def _driver_rates(stats: Sequence[LevelStats]) -> tuple[float, float]:
    """Decay rates for the control loop: a fit over levels >= 2, falling back
    to all levels while too few exist, with alpha floored at 0.5. An
    unfittable alpha defaults to 1.0 and beta to NaN; alpha only matters
    when some level mean is nonzero, and by then the fit succeeds."""
    for min_level in (2, 1):
        try:
            fitted = fit_rates(stats, min_level=min_level)
        except InsufficientDataError:
            continue
        alpha = max(0.5, fitted.alpha) if math.isfinite(fitted.alpha) else 1.0
        return float(alpha), float(fitted.beta)
    return 1.0, math.nan


def _floored_variances(stats: Sequence[LevelStats], beta: float) -> list[LevelStats]:
    """The rows the allocation sees: from the second level on, each variance
    is at least half the previous row's variance decayed at the fitted beta,
    V_l >= V_{l-1} 2^-beta / 2 (Giles, Acta Numerica 2015), so a thinly
    sampled deep level whose few draws under-measure its variance is not
    under-allocated. The floor cascades from the coarsest level and never
    lowers a variance; with no fitted beta the rows pass unchanged."""
    rows = list(stats)
    if not math.isfinite(beta):
        return rows
    for i in range(1, len(rows)):
        floor = 0.5 * rows[i - 1].var_z * 2.0**-beta
        if floor > rows[i].var_z:
            rows[i] = dataclasses.replace(rows[i], var_z=floor)
    return rows


class _LevelState:
    """Pooled accumulators plus the next free block index for one level."""

    __slots__ = ("acc_z", "acc_p", "next_block")

    def __init__(self) -> None:
        self.acc_z = MomentAccumulator()
        self.acc_p = MomentAccumulator()
        self.next_block = 0


def mlmc_run(
    model: DecisionModel,
    config: MlmcConfig,
    stream: RandomStream,
    pool: Executor | None = None,
) -> MlmcResult:
    """Run the adaptive multilevel estimator to the configured accuracy.

    Returns a result whose ``converged`` flag is False when max_level was
    reached (or the loop safety valve tripped) before the bias target; the
    partial diagnostics are still filled in. The blocks run on ``pool``, or
    on the caller's thread when it is None.
    """
    states: dict[int, _LevelState] = {}
    warnings: list[str] = []
    history: list[dict] = []

    def grow(level: int, extra: int, blocks_pool: Executor | None) -> None:
        state = states[level]
        state.next_block = accumulate_level(
            model,
            level,
            extra,
            stream.split(level),
            state.acc_z,
            state.acc_p,
            first_block=state.next_block,
            pool=blocks_pool,
        )

    def grow_all(extra: dict[int, int]) -> None:
        """Draw ``extra[level]`` more samples at each level. A lone level
        spreads its blocks over the pool; several levels go on the pool at
        once, one task per level that runs its blocks in block order, the
        costliest first."""
        for level in extra:
            states.setdefault(level, _LevelState())
        if pool is None or len(extra) == 1:
            for level, n in extra.items():
                grow(level, n, pool)
            return
        tasks = sorted(extra.items(), key=lambda item: -(item[1] << item[0]))
        list(pool.map(lambda item: grow(*item, None), tasks))

    def pooled_stats() -> list[LevelStats]:
        return [
            stats_from_accumulators(level, states[level].acc_z, states[level].acc_p)
            for level in sorted(states)
        ]

    grow_all({level: config.warmup_samples for level in range(1, _INITIAL_LEVELS + 1)})

    converged = False
    alpha, beta = math.nan, math.nan
    remainder = math.nan
    degenerate_warned = False

    for iteration in range(_MAX_ITERATIONS):
        stats = pooled_stats()
        alpha, beta = _driver_rates(stats)
        targets, degenerate = optimal_allocation(
            _floored_variances(stats, beta), config.epsilon, config.warmup_samples
        )
        if degenerate and not degenerate_warned:
            warnings.append(
                "all level variances are zero; using the minimum allocation per level"
            )
            degenerate_warned = True
        record = {
            "iteration": iteration,
            "levels": [s.level for s in stats],
            "variances": [s.var_z for s in stats],
            "targets": [int(t) for t in targets],
            "drawn": [s.n for s in stats],
            "remainder": None,
        }
        shortfall = {
            s.level: target - s.n for s, target in zip(stats, targets) if target > s.n
        }
        if shortfall:
            record["action"] = "top_up"
            history.append(record)
            grow_all(shortfall)
            continue
        finest = stats[-1].level
        remainder = bias_remainder(stats, alpha, finest)
        converged = remainder <= config.epsilon / math.sqrt(2.0)
        record["remainder"] = float(remainder)
        if converged:
            record["action"] = "stop"
            history.append(record)
            break
        if finest >= config.max_level:
            record["action"] = "fail"
            history.append(record)
            warnings.append(
                f"bias target not reached at max_level={config.max_level}"
            )
            break
        record["action"] = "extend"
        history.append(record)
        grow_all({finest + 1: config.warmup_samples})
    else:
        warnings.append(
            f"control loop stopped after {_MAX_ITERATIONS} passes without converging"
        )

    stats = pooled_stats()
    finest = stats[-1]
    if math.isfinite(finest.kurtosis_z) and finest.kurtosis_z > _KURTOSIS_WARNING:
        warnings.append(
            f"kurtosis {finest.kurtosis_z:.0f} at level {finest.level}; the variance "
            "estimate there is dominated by a few rare samples"
        )
    estimate = math.fsum(s.mean_z for s in stats)
    variance_of_estimator = math.fsum(s.var_z / s.n for s in stats)
    total_cost = sum(s.cost_per_sample * s.n for s in stats)
    return MlmcResult(
        estimate=estimate,
        epsilon=float(config.epsilon),
        converged=converged,
        level_stats=tuple(stats),
        max_level_used=finest.level,
        allocations=tuple(s.n for s in stats),
        total_cost=int(total_cost),
        fitted_alpha=float(alpha),
        fitted_beta=float(beta),
        variance_of_estimator=float(variance_of_estimator),
        bias_estimate=float(remainder),
        warnings=tuple(warnings),
        history=tuple(history),
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One accuracy target: the multilevel cost against the modeled
    standard-MC cost, both in inner samples."""

    epsilon: float
    mlmc_cost: float
    std_cost_model: float
    ratio: float


def cost_comparison(
    model: DecisionModel,
    epsilons: Sequence[float],
    stream: RandomStream,
    pool: Executor | None = None,
) -> list[ComparisonRow]:
    """Run the adaptive driver at each target and compare its measured cost
    with the modeled standard-MC cost.

    Costs are from a single driver run per target (no replication); the
    standard-MC side is modeled, never executed, since at small targets it
    is exactly the cost the multilevel construction avoids.
    """
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ConfigError("need at least one accuracy target")
    if any(not math.isfinite(e) or e <= 0.0 for e in eps):
        raise ConfigError("accuracy targets must be positive")
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ConfigError("accuracy targets must be strictly descending")
    rows = []
    for k, epsilon in enumerate(eps):
        config = MlmcConfig(epsilon=epsilon, warmup_samples=COMPARISON_WARMUP)
        result = mlmc_run(model, config, stream.split(k), pool=pool)
        _, std_cost = standard_cost(result.level_stats, result.fitted_alpha, epsilon)
        rows.append(
            ComparisonRow(
                epsilon=epsilon,
                mlmc_cost=float(result.total_cost),
                std_cost_model=std_cost,
                ratio=std_cost / float(result.total_cost),
            )
        )
    return rows


def projected_costs(stats: Sequence[LevelStats], epsilon: float) -> ComparisonRow:
    """Model both costs at a target accuracy from measured level statistics,
    without running the driver.

    The level cutoff comes from the extrapolated bias and the per-level
    sample counts from the driver's optimal allocation, floored at
    COMPARISON_WARMUP draws; variances beyond the measured levels decay at
    the fitted beta. Useful where executing the run is itself too
    expensive.
    """
    if epsilon <= 0.0 or not math.isfinite(epsilon):
        raise ValueError("the accuracy target must be positive")
    measured = sorted((s for s in stats if s.level >= 1), key=lambda s: s.level)
    if not measured:
        raise InsufficientDataError("cost projection needs statistics for levels >= 1")
    rates = fit_rates(stats, min_level=2)
    cutoff, std_cost = standard_cost(measured, max(0.5, rates.alpha), epsilon)
    by_level = {s.level: s for s in measured}
    top = measured[-1]

    def row(level: int) -> LevelStats:
        # Only the variance and the cost of a row enter the allocation.
        if level in by_level:
            return by_level[level]
        decay = 2.0 ** (-rates.beta * (level - top.level))
        return dataclasses.replace(
            top, level=level, var_z=top.var_z * decay, cost_per_sample=1 << level
        )

    rows = [row(level) for level in range(1, cutoff + 1)]
    counts, _ = optimal_allocation(rows, epsilon, min_allocation=COMPARISON_WARMUP)
    mlmc_cost = math.fsum(
        max(COMPARISON_WARMUP, n) * 2.0**r.level for r, n in zip(rows, counts)
    )
    return ComparisonRow(
        epsilon=float(epsilon),
        mlmc_cost=mlmc_cost,
        std_cost_model=std_cost,
        ratio=std_cost / mlmc_cost,
    )


@dataclass(frozen=True)
class EvppiReport:
    """EVPI, the partial-information gap, and their difference EVPPI.

    ``evppi`` is computed as ``evpi - difference``, so that identity holds
    exactly in the report. RMS errors for the multilevel quantities combine
    the estimator variance with the bias remainder estimate.
    """

    evpi: float
    evpi_std_error: float
    difference: float
    difference_rms_error: float
    evppi: float
    evppi_rms_error: float
    epsilon: float
    n_evpi: int
    converged: bool
    mlmc_result: MlmcResult


def evppi_report(
    model: DecisionModel,
    epsilon: float,
    n_evpi: int,
    stream: RandomStream,
    pool: Executor | None = None,
) -> EvppiReport:
    """Estimate EVPI by plain MC and EVPI - EVPPI by the multilevel driver,
    on independent substreams, and report both with EVPPI = EVPI - gap.

    With a pool both share it: the EVPI is one task that runs its blocks in
    order on one worker, beside the driver's blocks.
    The partition is the model's own; build the model with
    ``make_model(..., outer=...)`` to choose another.
    """
    if n_evpi < 2:
        raise ConfigError("the EVPI estimate needs at least two samples")
    config = MlmcConfig(epsilon=float(epsilon))
    if pool is None:
        evpi = evpi_mc(model, int(n_evpi), stream.split(0))
        result = mlmc_run(model, config, stream.split(1))
    else:
        evpi_task = pool.submit(evpi_mc, model, int(n_evpi), stream.split(0))
        result = mlmc_run(model, config, stream.split(1), pool=pool)
        evpi = evpi_task.result()
    bias = result.bias_estimate if math.isfinite(result.bias_estimate) else 0.0
    difference_rms = math.sqrt(max(result.variance_of_estimator, 0.0) + bias * bias)
    evppi_rms = math.sqrt(evpi.std_error**2 + difference_rms**2)
    return EvppiReport(
        evpi=evpi.value,
        evpi_std_error=evpi.std_error,
        difference=result.estimate,
        difference_rms_error=difference_rms,
        evppi=evpi.value - result.estimate,
        evppi_rms_error=evppi_rms,
        epsilon=float(epsilon),
        n_evpi=int(n_evpi),
        converged=result.converged,
        mlmc_result=result,
    )
