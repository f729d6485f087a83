"""Monte Carlo estimators for value-of-information quantities.

The target is the gap EVPI - EVPPI = E[max_d f_d(X,Y)] - E[max_d E[f_d|X]].
Its level-l approximation replaces the exact conditional expectation by an
average over 2^l inner draws:

    P_l = mean_i max_d f_d(X, Y_i)  -  max_d mean_i f_d(X, Y_i),

with P_0 = 0 by construction. The multilevel correction at level l >= 1 is
the antithetic difference

    Z_l = 1/2 (max_d fbar_a_d + max_d fbar_b_d) - max_d fbar_d,

where fbar_a / fbar_b average the first / second half of the 2^l inner draws
(in stream order) and fbar averages all of them. Per decision the half
averages recombine exactly to the full average, so Z_l vanishes identically
whenever the three argmax decisions agree; the sum of E[Z_l] over l >= 1
telescopes to the target.

The kernels keep two bitwise invariants, not just approximate ones:

* P_l >= 0 and p_fine >= 0 for every draw. The pathwise best payoff is
  stored as an extra decision plane of the block buffer before the
  inner-axis reduction, so every plane is summed by the identical reduction
  tree and floating-point monotonicity carries the ordering through to the
  averages.
* Z_l == 0.0 whenever the three argmax decisions agree, because the half
  averages are formed from half sums and recombined by exact power-of-two
  scalings.

A block is one (m, D+1, n) buffer: inner draw, decision plane, outer draw.
The models write their payoffs straight into the first D planes. The inner
axis is always reduced as the outermost axis of that buffer, so numpy adds
whole (D+1, n) rows one inner draw at a time and every sum runs in draw
order, for any n. Never reduce a contiguous last axis, and never an (m, 1)
array or the middle axis of a (D+1, m, 1) one: numpy sums those pairwise,
which breaks the bitwise identities at n = 1 (deep levels, and the ragged
last block of a top-up) and changes the output bits.

Batch routines split work into fixed-size blocks, one substream per block,
and merge per-block results in block order: output is bit-identical for any
worker count. Every batch routine takes one concurrency parameter, ``pool=``:
with None every block runs on the caller's thread, and with a pool the
blocks run on its workers. :func:`worker_pool` opens that pool, and a whole
command shares it.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .models import DecisionModel
from .moments import MomentAccumulator
from .streams import RandomStream

# Block sizing: roughly this many payoff values per block keeps peak memory
# modest while amortizing vectorization overhead. Block boundaries depend only
# on the model's dimensions and the inner count, never on worker count.
_BLOCK_VALUE_BUDGET = 1 << 20
_MAX_BLOCK_OUTER = 1 << 18


@dataclass(frozen=True)
class Estimate:
    """A plain Monte Carlo estimate with its standard error and sampling cost."""

    value: float
    std_error: float
    n: int
    cost: float


def _payoffs_with_best(
    model: DecisionModel, m: int, n: int, stream: RandomStream
) -> np.ndarray:
    """Payoff block of shape (m, D+1, n): one (m, n) plane per decision, and
    a last plane holding the pathwise best payoff, so one reduction call
    covers every plane. The model writes its planes straight into the block.

    With the inner index outermost, a sum over axis 0 adds whole (D+1, n)
    rows in draw order, one vectorized pass per inner draw."""
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
    return g


def _decision_max(sums: np.ndarray) -> np.ndarray:
    """Best decision of (D+1, n) sums: the max over the D decision rows."""
    return np.maximum.reduce(sums[:-1], axis=0)


def _level_block(model: DecisionModel, m: int, n: int, stream: RandomStream):
    """One block of level draws with m = 2^level inner samples: returns
    (z, p_fine) arrays of length n."""
    half = m // 2
    g = _payoffs_with_best(model, m, n, stream)
    ga = g[:half].sum(axis=0)
    gb = g[half:].sum(axis=0)
    sums = ga + gb
    full_best = _decision_max(sums) / m
    z = 0.5 * (_decision_max(ga) / half + _decision_max(gb) / half) - full_best
    p = sums[-1] / m - full_best
    return z, p


def _p_block(model: DecisionModel, m: int, n: int, stream: RandomStream) -> np.ndarray:
    """One block of gap draws over m inner samples; m = 1 gives exact zeros."""
    sums = _payoffs_with_best(model, m, n, stream).sum(axis=0)
    return sums[-1] / m - _decision_max(sums) / m


def _best_block(model: DecisionModel, m: int, n: int, stream: RandomStream):
    """One block of joint draws (m = 1): the pathwise best payoffs, and the
    per-decision payoff sums. The sums run over an (n, D) copy, so they add
    rows in outer-draw order; summing the contiguous planes would be pairwise."""
    g = _payoffs_with_best(model, m, n, stream)[0]
    return g[-1], g[:-1].T.copy().sum(axis=0)


@contextmanager
def worker_pool(threads: int):
    """The pool that blocks run on: a new pool of ``threads`` workers that
    lasts the ``with`` block, or None at one thread, where every block runs
    on the caller's thread and no thread is started."""
    if threads <= 1:
        yield None
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield pool


def _map_blocks(
    kernel,
    model: DecisionModel,
    m: int,
    n: int,
    stream: RandomStream,
    pool: Executor | None = None,
    first_block: int = 0,
):
    """Results of ``kernel(model, m, size, stream.split(block_index))`` for
    each block of n outer draws with m inner draws each, in block order. With
    a pool every block is submitted at once and runs on its workers; without
    one, each block runs on the caller's thread as the results are read.
    Block sizes depend only on the model's dimensions and m; block indices
    count up from ``first_block``."""
    width = m * (model.decision_count + 1 + max(model.inner_dim, 1))
    size = max(1, min(_BLOCK_VALUE_BUDGET // width, _MAX_BLOCK_OUTER))
    plan = [
        (first_block + i, min(size, n - start)) for i, start in enumerate(range(0, n, size))
    ]

    def run(item):
        idx, block_size = item
        return kernel(model, m, block_size, stream.split(idx))

    return map(run, plan) if pool is None else pool.map(run, plan)


def accumulate_level(
    model: DecisionModel,
    level: int,
    n: int,
    stream: RandomStream,
    acc_z: MomentAccumulator,
    acc_p: MomentAccumulator,
    first_block: int = 0,
    pool: Executor | None = None,
) -> int:
    """Fold n fresh level-l draws into the accumulators; returns the next
    free block index. Substreams are ``stream.split(block_index)``, so a
    later top-up that continues from the returned index extends the same
    deterministic sequence. The blocks run on ``pool``, or on the caller's
    thread when it is None."""
    if level < 1:
        raise ValueError("the level correction is defined for levels >= 1")
    for z, p in _map_blocks(_level_block, model, 1 << level, n, stream, pool, first_block):
        acc_z.add_block(z)
        acc_p.add_block(p)
        first_block += 1
    return first_block


def accumulate_p_level(
    model: DecisionModel,
    level: int,
    n: int,
    stream: RandomStream,
    acc_p: MomentAccumulator,
    pool: Executor | None = None,
) -> None:
    """Fold n fresh draws of P_l into ``acc_p`` (level 0 allowed), on
    ``pool`` or, when it is None, on the caller's thread."""
    if level < 0:
        raise ValueError("level must be non-negative")
    for p in _map_blocks(_p_block, model, 1 << level, n, stream, pool):
        acc_p.add_block(p)


def sample_level_batch(
    model: DecisionModel,
    level: int,
    n: int,
    stream: RandomStream,
    pool: Executor | None = None,
    first_block: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw (z, p_fine) arrays for n level-l draws; same substream layout as
    :func:`accumulate_level`."""
    if level < 1:
        raise ValueError("the level correction is defined for levels >= 1")
    if n <= 0:
        return np.empty(0), np.empty(0)
    zs, ps = zip(*_map_blocks(_level_block, model, 1 << level, n, stream, pool, first_block))
    return np.concatenate(zs), np.concatenate(ps)


def evpi_mc(
    model: DecisionModel, n: int, stream: RandomStream, pool: Executor | None = None
) -> Estimate:
    """Plain-MC EVPI: mean of the pathwise best payoff minus the best decision
    in expectation, from n joint draws.

    The reported standard error covers the first term only; the second term
    averages before taking the max and is far more accurate, so its noise is
    ignored.
    """
    if n <= 0:
        raise ValueError("sample count must be positive")
    acc_best = MomentAccumulator()
    block_sums = []
    for best, sums in _map_blocks(_best_block, model, 1, n, stream, pool):
        acc_best.add_block(best)
        block_sums.append(sums)
    best_of_means = max(math.fsum(column) / n for column in zip(*block_sums))
    value = acc_best.mean - best_of_means
    std_error = math.sqrt(acc_best.variance() / n) if n > 1 else math.nan
    return Estimate(value=value, std_error=std_error, n=int(n), cost=float(n))


def nested_mc(
    model: DecisionModel,
    n_outer: int,
    n_inner: int,
    stream: RandomStream,
    pool: Executor | None = None,
) -> Estimate:
    """Nested-MC estimate of EVPI - EVPPI: for each of n_outer draws of X,
    average the inner gap over n_inner conditional draws.

    Each bracket is nonnegative to the last bit and n_inner = 1 gives exactly
    zero; the upward bias decays as n_inner grows.
    """
    if n_outer <= 0 or n_inner <= 0:
        raise ValueError("sample counts must be positive")
    m = int(n_inner)
    acc = MomentAccumulator()
    for p in _map_blocks(_p_block, model, m, n_outer, stream, pool):
        acc.add_block(p)
    std_error = math.sqrt(acc.variance() / n_outer) if n_outer > 1 else math.nan
    return Estimate(
        value=acc.mean, std_error=std_error, n=int(n_outer), cost=float(n_outer) * float(m)
    )
