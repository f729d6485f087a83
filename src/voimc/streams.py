"""Splittable, reproducible random streams."""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np
from scipy.special import ndtri

# A raw uniform of exactly 0.0 (probability 2^-53 per draw) would map to -inf
# under the inverse normal CDF; clamping to 2^-54 keeps every variate finite
# and leaves all other draws untouched.
_MIN_UNIFORM = 2.0**-54

# The largest double below 1: the reflection 1 - u of the clamped 2^-54
# would round to 1.0, which the inverse normal CDF maps to +inf.
_MAX_UNIFORM = 1.0 - 2.0**-53

_SEED_MASK = (1 << 64) - 1


def _shape(shape: int | tuple[int, ...]) -> tuple[int, ...]:
    if isinstance(shape, (int, np.integer)):
        return (int(shape),)
    return tuple(int(s) for s in shape)


class RandomStream:
    """Deterministic variate stream, splittable into independent substreams.

    The draw sequence is a pure function of ``(seed, path)``: rebuilding a
    stream with the same identity reproduces identical variates regardless of
    platform, thread count, or what any sibling stream has drawn. ``split``
    derives a child without consuming state from the parent, so work can be
    fanned out over substreams and merged in a fixed order.

    Gaussian variates are produced by the inverse CDF applied to the uniform
    stream, so a given stream position always maps to the same variate.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed) & _SEED_MASK
        self.path = tuple(int(p) for p in path)
        if any(p < 0 for p in self.path):
            raise ValueError("split indices must be non-negative")
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=self.path))
        )

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, path={self.path})"

    def split(self, index: int) -> RandomStream:
        """Child stream at ``path + (index,)``, independent of this one."""
        if index < 0:
            raise ValueError("split indices must be non-negative")
        return RandomStream(self.seed, self.path + (int(index),))

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniforms on (0, 1), bounded away from 0."""
        if n < 0:
            raise ValueError("draw count must be non-negative")
        u = self._gen.random(int(n))
        return np.maximum(u, _MIN_UNIFORM, out=u)

    def normals(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard normals via the inverse CDF of ``uniforms``, row-major
        order. The inverse CDF overwrites the uniforms in place, so a draw
        allocates one array."""
        shape = _shape(shape)
        u = self.uniforms(math.prod(shape))
        return ndtri(u, out=u).reshape(shape)


class VariateSource(Protocol):
    """What a model's ``sample_outer`` and ``sample_inner`` receive: a
    :class:`RandomStream`, or the EVPI's antithetic stand-in for one
    (``_ReflectedStream``). A model draws only through these two members,
    with the leading axis of every ``normals`` shape, and the count of every
    ``uniforms`` call, running over outer rows."""

    def uniforms(self, n: int) -> np.ndarray: ...

    def normals(self, shape: int | tuple[int, ...]) -> np.ndarray: ...


class _ReflectedStream:
    """Stand-in for a block's stream that draws in antithetic pairs.

    A call for k leading rows draws k/2 fresh rows through the wrapped
    stream's public ``normals`` or ``uniforms`` and returns them followed by
    their reflection: the exact negation z -> -z of each normal, and
    u -> 1 - u of each uniform. Row j + k/2 of every call is then the
    reflection of row j, so for a model that draws its outer and its inner
    variates through these calls, joint draw j + k/2 is the antithetic
    partner of draw j. Each member of a pair has the stream's law. The
    leading count must be even.
    """

    __slots__ = ("_stream",)

    def __init__(self, stream: RandomStream):
        self._stream = stream

    def uniforms(self, n: int) -> np.ndarray:
        def reflect(u, out):
            np.subtract(1.0, u, out=out)
            np.minimum(out, _MAX_UNIFORM, out=out)

        return _pairs((int(n),), self._stream.uniforms, reflect)

    def normals(self, shape: int | tuple[int, ...]) -> np.ndarray:
        shape = _shape(shape)
        return _pairs(shape, lambda rows: self._stream.normals((rows, *shape[1:])), np.negative)


# Fresh rows are drawn in chunks of about this many values. A stream draws
# the same values in chunks as in one call, and the chunk is the only array
# besides the result: a half-block temporary raised the peak memory of a
# two-worker EVPPI report by about a tenth.
_PAIR_CHUNK_VALUES = 1 << 15


def _pairs(shape: tuple[int, ...], draw, reflect) -> np.ndarray:
    """An array of ``shape`` whose first half of rows is ``draw(rows)``,
    called in chunks, and whose second half is ``reflect`` of the first."""
    if not shape or shape[0] % 2:
        raise ValueError("antithetic pairs need an even leading count")
    half = shape[0] // 2
    out = np.empty(shape)
    step = max(1, _PAIR_CHUNK_VALUES // max(1, math.prod(shape[1:])))
    for start in range(0, half, step):
        stop = min(half, start + step)
        out[start:stop] = draw(stop - start)
    reflect(out[:half], out=out[half:])
    return out
