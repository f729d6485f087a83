"""Splittable, reproducible random streams, and the EVPI's reflect-and-replay stand-ins."""

from __future__ import annotations

import math
from collections import deque
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

# About 8.29: no normal of the stream, nor its reflection, is larger in magnitude.
_MAX_NORMAL = -float(ndtri(_MIN_UNIFORM))

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
    :class:`RandomStream`, or one of the EVPI's stand-ins for one
    (``_Reflecting``, ``_Replay``). A model draws only through these two
    members, and makes the same calls for the same n and m."""

    def uniforms(self, n: int) -> np.ndarray: ...

    def normals(self, shape: int | tuple[int, ...]) -> np.ndarray: ...


class _Reflecting:
    """Stand-in for a block's stream that passes each draw through and keeps
    its reflection, in call order: the exact negation z -> -z of normals,
    and u -> min(1 - u, _MAX_UNIFORM) of uniforms. The reflection is taken
    at the call, before the model may change the draw in place. A
    :class:`_Replay` of ``reflections`` then hands the model its draws'
    antithetic partners; each member of a pair has the stream's law. The
    replay takes each reflection off the queue as it answers, so calls may
    alternate: a reflection is kept only until its partner call."""

    __slots__ = ("_stream", "reflections")

    def __init__(self, stream: RandomStream):
        self._stream = stream
        self.reflections: deque[tuple[str, np.ndarray]] = deque()

    def uniforms(self, n: int) -> np.ndarray:
        u = self._stream.uniforms(n)
        self.reflections.append(("uniforms", np.minimum(1.0 - u, _MAX_UNIFORM)))
        return u

    def normals(self, shape: int | tuple[int, ...]) -> np.ndarray:
        z = self._stream.normals(shape)
        self.reflections.append(("normals", -z))
        return z


class _Replay:
    """Stand-in that answers each call with the oldest kept reflection, and
    drops it from ``reflections``. A call that differs from the recorded
    one, or comes after the last, raises ``ValueError``, as does
    :meth:`close` while recorded calls are left."""

    __slots__ = ("_kept",)

    def __init__(self, reflections: deque[tuple[str, np.ndarray]]):
        self._kept = reflections

    def _next(self, kind: str, shape: tuple[int, ...]) -> np.ndarray:
        if not self._kept or self._kept[0][0] != kind or self._kept[0][1].shape != shape:
            raise ValueError(f"a replayed {kind}{shape} call differs from the recorded draws")
        return self._kept.popleft()[1]

    def uniforms(self, n: int) -> np.ndarray:
        return self._next("uniforms", (int(n),))

    def normals(self, shape: int | tuple[int, ...]) -> np.ndarray:
        return self._next("normals", _shape(shape))

    def close(self) -> None:
        if self._kept:
            raise ValueError("the replayed draws stopped before the recorded ones")
