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

The EVPI, E[max_d f_d] - max_d E[f_d], is plain Monte Carlo over joint
draws (m = 1) in antithetic pairs, whatever the layout of a model's draws:
a block draws half its draws fresh and replays the same calls reflected
(_regret_block). The estimate is the least mean regret (_fold_regrets),
and its blocks run like every other, beside a driver if need be
(_evpi_ahead).

Batch routines split work into fixed-size blocks, one substream per block,
and merge per-block results in block order: output is bit-identical for any
worker count. Every batch routine takes one concurrency parameter, ``pool=``:
with None every block runs on the caller's thread, and with a pool the
blocks run on its workers. :func:`worker_pool` opens that pool, and a whole
command shares it.
"""

from __future__ import annotations

import itertools
import math
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .models import DecisionModel
from .moments import MomentAccumulator
from .streams import RandomStream, VariateSource, _Reflecting, _Replay

# Block sizing: roughly this many payoff values per block keeps peak memory
# modest while amortizing vectorization overhead. Block boundaries depend only
# on the model's dimensions and the inner count, never on worker count.
_BLOCK_VALUE_BUDGET = 1 << 20


@dataclass(frozen=True)
class Estimate:
    """A plain Monte Carlo estimate with its standard error, from n draws."""

    value: float
    std_error: float
    n: int


def _payoffs_with_best(
    model: DecisionModel, m: int, n: int, stream: VariateSource
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


def _regret_block(model: DecisionModel, m: int, n: int, stream: RandomStream):
    """One block of n joint draws (m = 1) in n/2 antithetic pairs, reduced
    where it runs: per decision d, the moments of the pair-averaged regret
    max_d' f_d' - f_d. The model draws n/2 fresh joint draws through a
    :class:`_Reflecting` stream, then makes the same calls on a
    :class:`_Replay` of their reflections: partner j reflects draw j."""
    fresh = _Reflecting(stream)
    g = _payoffs_with_best(model, m, n // 2, fresh)[0]
    replay = _Replay(fresh.reflections)
    partner = _payoffs_with_best(model, m, n // 2, replay)[0]
    replay.close()
    pairs = np.subtract(g[-1], g[:-1], out=g[:-1])
    pairs += np.subtract(partner[-1], partner[:-1], out=partner[:-1])
    pairs *= 0.5
    accs = [MomentAccumulator() for _ in range(model.decision_count)]
    for acc, row in zip(accs, pairs):
        acc.add_block(row)
    return accs


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


def _block_size(model: DecisionModel, m: int, unit: int = 1) -> int:
    """Outer draws in a full block with m inner draws each: a whole number
    of ``unit`` draws, set by the model's dimensions and m alone."""
    width = m * (model.decision_count + 1 + max(model.inner_dim, 1))
    return max(unit, _BLOCK_VALUE_BUDGET // width // unit * unit)


def _blocks(
    kernel, model: DecisionModel, m: int, n: int, stream: RandomStream, first_block=0, unit=1
) -> list[tuple]:
    """The blocks of n outer draws with m inner draws each, as the calls
    :func:`_run_block` makes: ``kernel(model, m, size, stream.split(index))``.
    Full blocks of :func:`_block_size`, then a ragged last one; block
    indices count up from ``first_block``."""
    size = _block_size(model, m, unit)
    return [
        (kernel, model, m, min(size, n - start), stream, first_block + i)
        for i, start in enumerate(range(0, n, size))
    ]


def _level_blocks(
    model: DecisionModel, level: int, n: int, stream: RandomStream, first_block: int = 0
) -> list[tuple]:
    """The blocks of n level-l draws, the layout :func:`accumulate_level`
    folds; the driver lists a whole pass of them with this too."""
    if level < 1:
        raise ValueError("the level correction is defined for levels >= 1")
    return _blocks(_level_block, model, 1 << level, n, stream, first_block)


def _run_block(block: tuple):
    kernel, model, m, size, stream, index = block
    return kernel(model, m, size, stream.split(index))


def _map_blocks(blocks: list[tuple], pool: Executor | None = None):
    """Results of the blocks, in order. With a pool every block is submitted
    at once and runs on its workers; without one, each block runs on the
    caller's thread as the results are read."""
    return map(_run_block, blocks) if pool is None else pool.map(_run_block, blocks)


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
    blocks = _level_blocks(model, level, n, stream, first_block)
    for z, p in _map_blocks(blocks, pool):
        acc_z.add_block(z)
        acc_p.add_block(p)
    return first_block + len(blocks)


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
    for p in _map_blocks(_blocks(_p_block, model, 1 << level, n, stream), pool):
        acc_p.add_block(p)


def _evpi_blocks(model: DecisionModel, n: int, stream: RandomStream) -> list[tuple]:
    """The blocks of n EVPI draws (n even), each of whole antithetic pairs."""
    if n <= 0 or n % 2:
        raise ValueError("the antithetic EVPI needs a positive, even sample count")
    return _blocks(_regret_block, model, 1, n, stream, unit=2)


def _fold_regrets(model: DecisionModel, results) -> Estimate:
    """The EVPI of :func:`_regret_block` results, folded in block order:
    the mean regret of the decision best on average, which equals
    mean(max_d f_d) - max_d mean(f_d), with standard error sqrt(var / (n/2))
    over the pair-averaged regrets."""
    regrets = [MomentAccumulator() for _ in range(model.decision_count)]
    for block in results:
        for acc, part in zip(regrets, block):
            acc.merge(part)
    best = min(regrets, key=lambda acc: acc.mean)
    std_error = math.sqrt(best.variance() / best.n) if best.n > 1 else math.nan
    return Estimate(value=best.mean, std_error=std_error, n=2 * best.n)


@contextmanager
def _evpi_ahead(
    model: DecisionModel,
    n: int | None,
    stream: RandomStream,
    pool: Executor | None = None,
    epsilon: float | None = None,
):
    """Start the plain-MC EVPI of n joint draws in n/2 antithetic pairs,
    each a draw and its reflection (see :func:`_regret_block`, n even); the
    call the ``with`` block gets finishes it (see :func:`_fold_regrets`).

    With n None, n is sized from ``epsilon`` by a pilot: block 0, of the
    first block's size B. With v the pilot's variance of the pair-averaged
    regret of its best decision, n = max(B, 2 ceil(4 v / eps^2)), so the
    standard error comes to about eps/2. The blocks are then those of n
    draws, whose block 0 is the pilot, so the estimate is the one n given
    outright yields.

    The blocks split into a prefix and a suffix. With a pool, one task on
    it draws the pilot, if any, and then the blocks in block order, so the
    EVPI runs beside whatever else the pool is given; what it has drawn is
    always a prefix. The finishing call stops it, takes its prefix (waiting
    at most for the block it holds), maps the suffix over the pool through
    the one block map, and folds prefix and suffix in block order. The
    EVPI's blocks never run on the caller's thread then. Without a pool
    nothing starts: the finishing call draws the pilot, if any, and then
    the suffix on the caller's thread. The fold is the same either way, so
    the estimate is too. Leaving the ``with`` block, by an error say, stops
    the task too; it ends after the block it holds, and no other is drawn."""
    planned = None if n is None else _evpi_blocks(model, n, stream)
    stop = threading.Event()

    def draw_prefix():
        if planned is None:
            first = _block_size(model, 1, unit=2)
            drawn = [_run_block(_evpi_blocks(model, first, stream)[0])]
            v = min(drawn[0], key=lambda acc: acc.mean).variance()
            blocks = _evpi_blocks(model, max(first, 2 * math.ceil(4.0 * v / epsilon**2)), stream)
        else:
            blocks, drawn = planned, []
        for block in blocks[len(drawn) :]:
            if stop.is_set():
                break
            drawn.append(_run_block(block))
        return blocks, drawn

    task = None if pool is None else pool.submit(draw_prefix)

    def finish() -> Estimate:
        stop.set()
        blocks, drawn = draw_prefix() if task is None else task.result()
        suffix = _map_blocks(blocks[len(drawn) :], pool)
        return _fold_regrets(model, itertools.chain(drawn, suffix))

    try:
        yield finish
    finally:
        stop.set()
