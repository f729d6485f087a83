"""Splittable, reproducible random streams."""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

# A raw uniform of exactly 0.0 (probability 2^-53 per draw) would map to -inf
# under the inverse normal CDF; clamping to 2^-54 keeps every variate finite
# and leaves all other draws untouched.
_MIN_UNIFORM = 2.0**-54

_SEED_MASK = (1 << 64) - 1


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
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        count = 1
        for s in shape:
            count *= int(s)
        u = self.uniforms(count)
        return ndtri(u, out=u).reshape(shape)
