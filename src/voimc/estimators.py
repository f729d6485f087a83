"""Monte Carlo estimators for value-of-information quantities.

The target is the gap EVPI - EVPPI = E[max_d f_d(X,Y)] - E[max_d E[f_d|X]].
Its level-l approximation replaces the exact conditional expectation by an
average over 2^l inner draws:

    P_l = mean_i max_d f_d(X, Y_i)  -  max_d mean_i f_d(X, Y_i),

with P_0 = 0 by construction. Level 0's correction is the gap itself,
Z_0 = P_0 = 0; at level l >= 1 it is the antithetic difference

    Z_l = 1/2 (max_d fbar_a_d + max_d fbar_b_d) - max_d fbar_d,

where fbar_a / fbar_b average the first / second half of the 2^l inner draws
(in stream order) and fbar averages all of them. Per decision the half
averages recombine exactly to the full average, so Z_l vanishes identically
whenever the three argmax decisions agree; the sum of E[Z_l] over l >= 0
telescopes to the target.

The kernels keep two bitwise invariants, not just approximate ones:

* P_l >= 0 and p_fine >= 0 for every draw. The pathwise best payoff is
  stored as an extra decision plane of the chunk buffer before the
  inner-axis reduction, so every plane is summed by the identical reduction
  tree and floating-point monotonicity carries the ordering through to the
  averages.
* Z_l == 0.0 whenever the three argmax decisions agree, because the half
  averages are formed from half sums and recombined by exact power-of-two
  scalings.

A block is walked in chunks (_inner_sums): one sample_outer call, then
one sample_inner call on each consecutive slice of c outer draws, each chunk
paid off into a view of one (m, D+1, c) buffer reused across the block:
inner draw, decision plane, outer draw. The models write their payoffs
straight into the first D planes of that view, and each chunk is reduced
where it is made. A chunk whose payoff planes outgrow _CHUNK_VALUE_BUDGET
values is paid off and reduced in power-of-two tiles of its inner axis, so
the model gets a strided inner-axis view of the chunk's draws; a one-draw
block too wide for the block budget has each tile draw its own inner slice.
So at every level a worker holds at most about _CHUNK_VALUE_BUDGET payoff
values of a block at a time, and one chunk's inner draws, never the whole
block. The inner axis is always reduced as the outermost axis of the
buffer, so numpy adds whole (D+1, c) rows one inner draw at a time and every
sum runs in draw order, for any c; a tile carries each sum on from the tile
before in a spare leading row, still one inner draw at a time. So the
chunking and the tiling never change a bit. Never reduce a contiguous
last axis, and never an (m, 1) array or the middle axis of a (D+1, m, 1)
one: numpy sums those pairwise, which breaks the bitwise identities at
c = 1 (deep levels, and the ragged last chunk of a block) and changes the
output bits.

The EVPI, E[max_d f_d] - max_d E[f_d], is plain Monte Carlo over joint
draws (m = 1) in antithetic pairs, whatever the layout of a model's draws:
a block draws half its draws fresh and replays the same calls reflected
(_regret_block). The estimate is the least mean regret (_fold_regrets),
and its blocks run like every other: one at a time in a driver's passes,
and the rest through the block map at the end (_Evpi).

Batch routines split work into fixed-size blocks, one substream per block,
and merge per-block results in block order: output is bit-identical for any
worker count, and a batch of more than _SAMPLE_BUDGET inner samples is
refused before any block is listed. Every batch routine takes one
concurrency parameter, ``pool=``: with None every block runs on the
caller's thread, and with a pool the blocks run on its workers.
:func:`worker_pool` opens that pool, and a whole command shares it.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .models import DecisionModel
from .moments import MomentAccumulator
from .streams import RandomStream, VariateSource, _Reflecting, _Replay

# Block sizing: roughly this many payoff values per block keeps peak memory
# modest while amortizing vectorization overhead. Block boundaries depend only
# on the model's dimensions and the inner count, never on worker count.
_BLOCK_VALUE_BUDGET = 1 << 20

# Chunk sizing: a block is walked in chunks, and a wide chunk in tiles, of at
# most about this many payoff values, so a worker's working set stays the same
# at every level and for any block size, and the output bits do not depend on it.
_CHUNK_VALUE_BUDGET = 1 << 16

# ...but an outer chunk keeps at least this many draws while its block holds
# more: the inner-axis sums add rows of (D+1) values per draw, and much
# shorter rows leave them bound by the cost of each row.
_CHUNK_MIN_DRAWS = 64

# The most inner samples one batch (a level's draws in a pass, a sweep's level,
# an EVPI) may ask for: days of sampling, so a larger batch is a target too small.
_SAMPLE_BUDGET = 1 << 40


@dataclass(frozen=True)
class Estimate:
    """A plain Monte Carlo estimate with its standard error, from n draws."""

    value: float
    std_error: float
    n: int


def _width(model: DecisionModel) -> int:
    """Values a block holds per inner draw of one outer draw: the D+1
    payoff planes and the inner vector."""
    return model.decision_count + 1 + max(model.inner_dim, 1)


def _fill_best(
    model: DecisionModel, outer: np.ndarray, inner: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Fill the (k, D+1, c) chunk ``g`` of k inner draws of c outer draws:
    the model writes its payoffs straight into the first D planes, and the
    last plane gets the pathwise best payoff."""
    d = model.decision_count
    model.payoffs(outer, inner, out=g[:, :d, :].transpose(2, 0, 1))
    best = g[:, d, :]
    if d == 1:
        best[...] = g[:, 0, :]
    else:
        np.maximum(g[:, 0, :], g[:, 1, :], out=best)
    for k in range(2, d):
        np.maximum(best, g[:, k, :], out=best)
    return g


def _tile(m: int, values: int) -> int:
    """Inner draws per tile of m inner draws of ``values`` values each: all
    m when they fit in _CHUNK_VALUE_BUDGET, else the largest power of two
    that does (at least one)."""
    if m * values <= _CHUNK_VALUE_BUDGET:
        return m
    return 1 << (max(1, _CHUNK_VALUE_BUDGET // values).bit_length() - 1)


def _inner_sums(model: DecisionModel, m: int, n: int, stream: VariateSource, parts: int):
    """Walk one block of n outer draws with m inner draws each in stream
    order, and yield ``(cols, sums)`` per chunk of outer draws ``cols``:
    ``sums[k]`` is the (D+1, c) sum of their payoff planes over the k-th of
    ``parts`` equal runs of the inner axis, added one inner draw at a time.

    The block makes one ``sample_outer`` call, then one ``sample_inner``
    call per chunk, on consecutive slices of the outer draws: at least
    _CHUNK_MIN_DRAWS of them, or about _CHUNK_VALUE_BUDGET values. A chunk
    whose (m, D+1, c) payoff planes fit in _CHUNK_VALUE_BUDGET values is
    paid off whole; a wider one is paid off and reduced in power-of-two
    tiles of its inner axis that fit, none crossing a run, the last of a
    run perhaps ragged. A one-draw block wider than _BLOCK_VALUE_BUDGET has
    each tile draw its own inner slice instead. Each tile after the first of
    its run follows the run's sum in a spare leading row of the tile
    buffer, so the sum goes on row by row from where it was."""
    x = model.sample_outer(stream, n)
    d = model.decision_count
    run = m // parts
    one_draw = m * _width(model) > _BLOCK_VALUE_BUDGET
    rows = 1 if one_draw else max(_CHUNK_MIN_DRAWS, _CHUNK_VALUE_BUDGET // (m * _width(model)))
    # values per inner draw and outer draw of a tile: a one-draw tile holds its inner slice too
    w = _width(model) if one_draw else d + 1
    steps = {c: _tile(m, w * c) for c in (min(rows, n), (n - 1) % rows + 1)}  # first, last chunk
    flat = np.empty(max((step + (step < m)) * (d + 1) * c for c, step in steps.items()))
    for start in range(0, n, rows):
        cols = slice(start, min(start + rows, n))
        xs = x[cols]
        step = steps[len(xs)]
        spare = int(step < m)  # the leading row a tiled chunk carries its sums in
        y = None if one_draw else model.sample_inner(xs, stream, m)
        sums, lo = [], 0
        while lo < m:
            k = m if step == m else min(step, run - lo % run)
            tile = flat[: (k + spare) * (d + 1) * len(xs)].reshape(k + spare, d + 1, len(xs))
            g = _fill_best(
                model, xs, model.sample_inner(xs, stream, k) if y is None else y[:, lo : lo + k],
                tile[spare:],
            )
            if lo % run:
                tile[0] = sums[-1]
                sums[-1] = tile.sum(axis=0)
            else:
                sums += [g[a : a + run].sum(axis=0) for a in range(0, k, run)]
            lo += k
        del y  # the chunk's draws are not held while its sums are read
        yield cols, sums


def _decision_max(sums: np.ndarray) -> np.ndarray:
    """Best decision of (D+1, n) sums: the max over the D decision rows."""
    return np.maximum.reduce(sums[:-1], axis=0)


def _level_block(model: DecisionModel, m: int, n: int, stream: RandomStream):
    """One block of level draws with m = 2^level inner samples: returns
    (z, p_fine) arrays of length n. At level 0 (m = 1) both are the gap
    draws of :func:`_p_block`, exact zeros: Z_0 = P_0."""
    if m == 1:
        p = _p_block(model, 1, n, stream)
        return p, p
    half = m // 2
    z, p = np.empty(n), np.empty(n)
    for cols, (ga, gb) in _inner_sums(model, m, n, stream, 2):
        sums = ga + gb
        full_best = _decision_max(sums) / m
        z[cols] = 0.5 * (_decision_max(ga) / half + _decision_max(gb) / half) - full_best
        p[cols] = sums[-1] / m - full_best
    return z, p


def _p_block(model: DecisionModel, m: int, n: int, stream: RandomStream) -> np.ndarray:
    """One block of gap draws over m inner samples; m = 1 gives exact zeros."""
    p = np.empty(n)
    for cols, (sums,) in _inner_sums(model, m, n, stream, 1):
        p[cols] = sums[-1] / m - _decision_max(sums) / m
    return p


def _regret_block(model: DecisionModel, m: int, n: int, stream: RandomStream):
    """One block of n joint draws (m = 1) in n/2 antithetic pairs, reduced
    where it runs: per decision d, the moments of the pair-averaged regret
    max_d' f_d' - f_d. The model draws n/2 fresh joint draws through a
    :class:`_Reflecting` stream, and makes the same calls on a
    :class:`_Replay` of their reflections, chunk by chunk in step: partner
    j reflects draw j."""
    fresh = _Reflecting(stream)
    replay = _Replay(fresh.reflections)
    pairs = np.empty((model.decision_count, n // 2))
    for (cols, (g,)), (_, (partner,)) in zip(
        _inner_sums(model, m, n // 2, fresh, 1), _inner_sums(model, m, n // 2, replay, 1)
    ):
        regret = np.subtract(g[-1], g[:-1], out=pairs[:, cols])
        regret += np.subtract(partner[-1], partner[:-1], out=partner[:-1])
    replay.close()
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
    return max(unit, _BLOCK_VALUE_BUDGET // (m * _width(model)) // unit * unit)


def _blocks(
    kernel, model: DecisionModel, m: int, n: int, stream: RandomStream, first_block=0, unit=1
) -> list[tuple]:
    """The blocks of n outer draws with m inner draws each, as the calls
    :func:`_run_block` makes: ``kernel(model, m, size, stream.split(index))``.
    Full blocks of :func:`_block_size`, then a ragged last one; block
    indices count up from ``first_block``. More than _SAMPLE_BUDGET inner
    samples in all raise :class:`ConfigError` before any block is listed."""
    if m * n > _SAMPLE_BUDGET:
        raise ConfigError(f"2^{math.log2(m * n):.1f} inner samples exceed the budget of "
                          "2^40 a batch: the target is too small or the count too large")
    size = _block_size(model, m, unit)
    return [
        (kernel, model, m, min(size, n - start), stream, first_block + i)
        for i, start in enumerate(range(0, n, size))
    ]


def _level_blocks(
    model: DecisionModel, level: int, n: int, stream: RandomStream, first_block: int = 0
) -> list[tuple]:
    """The blocks of n level-l draws at any level l >= 0 (a negative one
    raises ValueError), the layout :func:`accumulate_level` folds; the
    driver lists a whole pass of them with this too."""
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
    """Fold n fresh level-l draws into the accumulators, Z_0 = P_0 = 0 into
    both at level 0; returns the next free block index. Substreams are
    ``stream.split(block_index)``, so a later top-up that continues from
    the returned index extends the same deterministic sequence. The blocks
    run on ``pool``, or on the caller's thread when it is None."""
    blocks = _level_blocks(model, level, n, stream, first_block)
    for z, p in _map_blocks(blocks, pool):
        acc_z.add_block(z)
        acc_p.add_block(p)
    return first_block + len(blocks)


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


class _Evpi:
    """The plain-MC EVPI of n joint draws in n/2 antithetic pairs (n even;
    see :func:`_regret_block`), drawn a block at a time by whoever carries
    its blocks. With n None, block 0 is a pilot of the first block's size
    B: with v its variance of the pair-averaged regret of its best
    decision, n = max(B, 2 ceil(4 v / eps^2)), for a standard error of
    about eps/2. Block 0 of n draws is the pilot, so the estimate is the
    one that n given outright yields.

    A carrier, such as a pass of the driver, maps the next block from
    :meth:`carry` with its own and appends the results to ``results``;
    :meth:`finish` maps the rest and folds all in block order."""

    def __init__(self, model: DecisionModel, n: int | None, stream: RandomStream, epsilon=None):
        self.model, self.stream, self.epsilon, self.sized = model, stream, epsilon, n is not None
        self.blocks = _evpi_blocks(model, _block_size(model, 1, unit=2) if n is None else n, stream)
        self.results = []  # the results of each carried block, in block order

    def _left(self) -> list[tuple]:
        """The blocks not carried yet, sized first on a carried pilot's result."""
        if not self.sized and self.results:
            pilot = next(self.results[0])
            v = min(pilot, key=lambda acc: acc.mean).variance()
            # eps * eps is inf for a huge eps, where eps**2 raises OverflowError; an n
            # past the budget (inf for a tiny eps) is capped there, and refused below
            n = 2 * math.ceil(min(4.0 * v / (self.epsilon * self.epsilon), _SAMPLE_BUDGET))
            n = max(_block_size(self.model, 1, unit=2), n)
            self.blocks, self.sized = _evpi_blocks(self.model, n, self.stream), True
            self.results = [[pilot]]
        return self.blocks[len(self.results) :]

    def carry(self) -> list[tuple]:
        """The next block in order, as a list of one; empty once all are carried."""
        return self._left()[:1]

    def finish(self, pool: Executor | None = None) -> Estimate:
        """Map the blocks no one carried, then fold all in block order."""
        if not self.sized and not self.results:
            self.results.append(_map_blocks(self.carry(), pool))
        rest = _map_blocks(self._left(), pool)
        return _fold_regrets(self.model, itertools.chain(*self.results, rest))
