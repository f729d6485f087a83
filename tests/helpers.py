"""Test-only routines, each built on the code the library itself runs.

The level draws, the P_l fold at any level, the brute-force nested-MC
baseline and the plain-MC EVPI go through the block map of
:mod:`voimc.estimators`, on the same blocks and substreams as the driver
and the reports, so their bits are the library's;
the cost projection is built on the driver's public arithmetic. The
antithetic half averages are an independent replay of the level kernel's
reductions, and the whole-block kernels a reference for its chunk walk.
"""

import dataclasses
import math

import numpy as np

from voimc import InsufficientDataError, MomentAccumulator
from voimc.diagnostics import fit_rates, standard_cost
from voimc.estimators import Estimate, _blocks, _Evpi, _level_blocks, _map_blocks, _p_block
from voimc.mlmc import COMPARISON_WARMUP, ComparisonRow, optimal_allocation


def sample_level_batch(model, level, n, stream, pool=None, first_block=0):
    """Raw (z, p_fine) arrays for n level-l draws; same substream layout as
    :func:`voimc.estimators.accumulate_level`."""
    blocks = _level_blocks(model, level, n, stream, first_block)
    if not blocks:
        return np.empty(0), np.empty(0)
    zs, ps = zip(*_map_blocks(blocks, pool))
    return np.concatenate(zs), np.concatenate(ps)


def accumulate_p_level(model, level, n, stream, acc_p, pool=None):
    """Fold n fresh draws of P_l into ``acc_p``, at any level l >= 0 (a
    negative one raises ValueError): the gap kernel alone, on the block
    layout of :func:`voimc.estimators.accumulate_level`."""
    for p in _map_blocks(_blocks(_p_block, model, 1 << level, n, stream), pool):
        acc_p.add_block(p)


def nested_mc(model, n_outer, n_inner, stream, pool=None):
    """Nested-MC estimate of EVPI - EVPPI: for each of n_outer draws of X,
    average the inner gap over n_inner conditional draws (any n_inner, not
    only powers of two).

    Each bracket is nonnegative to the last bit and n_inner = 1 gives exactly
    zero; the upward bias decays as n_inner grows.
    """
    if n_outer <= 0 or n_inner <= 0:
        raise ValueError("sample counts must be positive")
    acc = MomentAccumulator()
    for p in _map_blocks(_blocks(_p_block, model, int(n_inner), n_outer, stream), pool):
        acc.add_block(p)
    std_error = math.sqrt(acc.variance() / n_outer) if n_outer > 1 else math.nan
    return Estimate(value=acc.mean, std_error=std_error, n=n_outer)


def evpi_mc(model, n, stream, pool=None):
    """Plain-MC EVPI from n joint draws in n/2 antithetic pairs (n even):
    the EVPI of ``evppi_report`` with no pass carrying a block, so its
    finishing call maps them all."""
    return _Evpi(model, n, stream).finish(pool)


def projected_costs(stats, epsilon):
    """Model the multilevel and the standard-MC cost at a target accuracy
    from measured level statistics, without running the driver.

    The level cutoff comes from the extrapolated bias and the per-level
    sample counts from the driver's optimal allocation, floored at
    COMPARISON_WARMUP draws; variances beyond the measured levels decay at
    the fitted beta.
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

    def row(level):
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


def whole_level_block(model, level, n, stream):
    """(z, p_fine, g) of one level block drawn and reduced whole: one
    ``sample_outer`` call, one ``sample_inner`` call for all n outer draws,
    the payoffs written into the first D planes of the (m, D+1, n) block
    ``g`` and the pathwise best into the last, and half sums that add whole
    (D+1, n) rows one inner draw at a time. The level kernel walks the same
    draws in chunks."""
    m = 1 << level
    half = m // 2
    x = model.sample_outer(stream, n)
    y = model.sample_inner(x, stream, m)
    d = model.decision_count
    g = np.empty((m, d + 1, n))
    model.payoffs(x, y, out=g[:, :d, :].transpose(2, 0, 1))
    best = g[:, d, :]
    if d == 1:
        best[...] = g[:, 0, :]
    else:
        np.maximum(g[:, 0, :], g[:, 1, :], out=best)
    for k in range(2, d):
        np.maximum(best, g[:, k, :], out=best)
    ga = g[:half].sum(axis=0)
    gb = g[half:].sum(axis=0)
    sums = ga + gb
    full_best = np.maximum.reduce(sums[:-1], axis=0) / m
    z = 0.5 * (
        np.maximum.reduce(ga[:-1], axis=0) / half + np.maximum.reduce(gb[:-1], axis=0) / half
    ) - full_best
    return z, sums[-1] / m - full_best, g
