"""Streaming moment accumulation for level samples."""

from __future__ import annotations

import math

import numpy as np


class MomentAccumulator:
    """Running central moments (through the fourth) of a scalar sample.

    Blocks enter as arrays and are reduced with the pairwise update of Chan,
    Golub and LeVeque; tracking central moments directly is what keeps small
    level corrections from cancelling away inside a long running sum. The
    merge is exact-arithmetic associative; callers fold blocks in a fixed
    order so results stay bit-identical across worker counts.
    """

    __slots__ = ("n", "mean", "m2", "m3", "m4")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.m3 = 0.0
        self.m4 = 0.0

    def add_block(self, values: np.ndarray) -> None:
        """Fold a block of raw values into the running moments."""
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            return
        block = MomentAccumulator()
        block.n = int(v.size)
        block.mean = float(v.mean())
        d = v - block.mean
        d2 = d * d
        block.m2 = float(d2.sum())
        block.m3 = float((d2 * d).sum())
        block.m4 = float((d2 * d2).sum())
        self.merge(block)

    def merge(self, other: "MomentAccumulator") -> None:
        """Fold another accumulator into this one."""
        n1, n2 = self.n, other.n
        if n2 == 0:
            return
        if n1 == 0:
            self.n, self.mean = other.n, other.mean
            self.m2, self.m3, self.m4 = other.m2, other.m3, other.m4
            return
        n = n1 + n2
        delta = other.mean - self.mean
        d_n = delta / n
        self.m4 = (
            self.m4
            + other.m4
            + delta * d_n**3 * n1 * n2 * (n1 * n1 - n1 * n2 + n2 * n2)
            + 6.0 * d_n**2 * (n1 * n1 * other.m2 + n2 * n2 * self.m2)
            + 4.0 * d_n * (n1 * other.m3 - n2 * self.m3)
        )
        self.m3 = (
            self.m3
            + other.m3
            + delta * d_n**2 * n1 * n2 * (n1 - n2)
            + 3.0 * d_n * (n1 * other.m2 - n2 * self.m2)
        )
        self.m2 = self.m2 + other.m2 + delta * d_n * n1 * n2
        self.mean = self.mean + d_n * n2
        self.n = n

    def variance(self) -> float:
        """Unbiased sample variance; NaN below two samples."""
        if self.n < 2:
            return math.nan
        return max(self.m2, 0.0) / (self.n - 1)

    def kurtosis(self) -> float:
        """Moment-ratio kurtosis m4/m2^2 (biased central moments).

        NaN when the sample variance vanishes; otherwise >= 1 by the Pearson
        inequality.
        """
        if self.n == 0 or self.m2 <= 0.0:
            return math.nan
        return self.n * self.m4 / (self.m2 * self.m2)

