"""Decision models under uncertainty.

A decision model exposes a partition of its random inputs into an outer part
X (the quantities one could learn before deciding) and an inner part Y (the
residual uncertainty), together with one payoff function per decision. All
sampling goes through :class:`~voimc.streams.VariateSource`, and batch
methods are vectorized: ``n`` outer draws at a time, ``m`` inner draws per
outer draw.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from pathlib import Path

import numpy as np

from .errors import CapabilityError, ConfigError
from .streams import _MAX_NORMAL, VariateSource


class DecisionModel(ABC):
    """Interface shared by all decision models.

    Attributes set by concrete models:

    * ``name``: registry name used by the CLI.
    * ``decision_count``: number of decisions D (payoff functions).
    * ``outer_dim`` / ``inner_dim``: width of the X and Y vectors.

    A model whose E[f_d | X] is known in closed form also overrides
    :meth:`conditional_means`.

    ``sample_outer`` and ``sample_inner`` draw only through the
    ``normals`` and ``uniforms`` of the stream they receive, and make the
    same calls for the same n and m. The EVPI replays a block's calls to
    draw their reflections, and raises ``ValueError`` if they differ. A
    block calls ``sample_outer`` once and ``sample_inner`` on consecutive
    row slices of its outer draws, or, for a one-draw block at a deep
    level, on consecutive slices of its inner axis, in stream order.
    """

    name: str
    decision_count: int
    outer_dim: int
    inner_dim: int

    @abstractmethod
    def sample_outer(self, stream: VariateSource, n: int) -> np.ndarray:
        """Draw ``n`` outer samples; shape (n, outer_dim)."""

    @abstractmethod
    def sample_inner(self, outer: np.ndarray, stream: VariateSource, m: int) -> np.ndarray:
        """Draw ``m`` inner samples per outer row from Y | X; shape (n, m, inner_dim)."""

    @abstractmethod
    def payoffs(
        self, outer: np.ndarray, inner: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Payoff of every decision at each (X_i, Y_ij); shape (n, m, decision_count).

        The result is stored as decision planes: each ``out[:, :, d].T`` is
        one C-contiguous (m, n) plane, inner draw first. When ``out`` is None
        a fresh ``np.empty((m, decision_count, n)).transpose(2, 0, 1)`` is
        filled; otherwise ``out`` must be a view of that kind, and it is
        filled and returned. The estimators pass a view of the first planes
        of one chunk of a block: the n outer draws of a slice of the block's
        draws, with the m draws of a slice of its inner axis when the chunk
        is too wide to pay off at once. ``inner`` may then be a strided view,
        ``y[:, lo:lo + m]`` of a chunk's draws ``y``, and the payoff of each
        (X_i, Y_ij) must not depend on which slice it is paid off in.
        """

    def conditional_means(self, outer: np.ndarray) -> np.ndarray:
        """E[f_d(X, Y) | X] for each outer row and decision; shape (n, decision_count)."""
        raise CapabilityError(f"model {self.name!r} has no analytic conditional mean")


def _decision_planes(outer: np.ndarray, inner: np.ndarray, d: int, out: np.ndarray | None):
    """The payoff array ``payoffs`` fills, and its (m, n) decision planes."""
    if out is None:
        out = np.empty((inner.shape[1], d, outer.shape[0])).transpose(2, 0, 1)
    return out, [out[:, :, k].T for k in range(d)]


# ---------------------------------------------------------------------------
# Synthetic scalar models
# ---------------------------------------------------------------------------


class SyntheticModel(DecisionModel):
    """Scalar family f_d(x, y) = shift_d(x) + noise_d * y with X, Y ~ N(0,1).

    X and Y are independent, so E[f_d | X] = shift_d(X) and
    Var[f_d | X] = noise_d^2.
    """

    outer_dim = 1
    inner_dim = 1

    def __init__(
        self,
        name: str,
        shifts: Sequence[Callable[[np.ndarray], np.ndarray]],
        noise: Sequence[float],
    ):
        if len(shifts) != len(noise) or not shifts:
            raise ValueError("one shift and one noise coefficient per decision")
        self.name = name
        self.decision_count = len(shifts)
        self._shifts = tuple(shifts)
        self._noise = tuple(float(c) for c in noise)

    def sample_outer(self, stream: VariateSource, n: int) -> np.ndarray:
        return stream.normals((int(n), 1))

    def sample_inner(self, outer: np.ndarray, stream: VariateSource, m: int) -> np.ndarray:
        return stream.normals((outer.shape[0], int(m), 1))

    def payoffs(
        self, outer: np.ndarray, inner: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        f, planes = _decision_planes(outer, inner, self.decision_count, out)
        x = outer[:, 0]
        yt = inner[:, :, 0].T
        for plane, shift, c in zip(planes, self._shifts, self._noise):
            if c != 0.0:
                np.multiply(yt, c, out=plane)
                plane += shift(x)
            else:
                plane[...] = shift(x)
        return f

    def conditional_means(self, outer: np.ndarray) -> np.ndarray:
        x = np.asarray(outer, dtype=np.float64)[:, 0]
        return np.stack([np.broadcast_to(shift(x), x.shape) for shift in self._shifts], axis=1)


def _zero(x: np.ndarray) -> np.ndarray:
    return np.zeros_like(x)


def _soft_shrink(x: np.ndarray) -> np.ndarray:
    # x+1 below -1, 0 on [-1, 1], x-1 above 1: a flat stretch of decisions that tie.
    return np.where(x < -1.0, x + 1.0, np.where(x > 1.0, x - 1.0, 0.0))


def synthetic1() -> SyntheticModel:
    """f_1 = 0, f_2 = X + Y. Smooth conditional mean, well-behaved tails."""
    return SyntheticModel("synthetic1", (_zero, lambda x: x), (0.0, 1.0))


def synthetic2() -> SyntheticModel:
    """f_1 = 0, f_2 = X^3 + Y. Cubic conditional mean with unbounded growth."""
    return SyntheticModel("synthetic2", (_zero, lambda x: x**3), (0.0, 1.0))


def synthetic3() -> SyntheticModel:
    """f_1 = 0, f_2 piecewise linear in X plus noise; the two decisions tie on
    the whole interval |X| <= 1."""
    return SyntheticModel("synthetic3", (_zero, _soft_shrink), (0.0, 1.0))


# ---------------------------------------------------------------------------
# Correlated-Gaussian treatment model (the "bkoc" case study)
# ---------------------------------------------------------------------------

_N_VARS = 19

BKOC_MEANS = (
    1000.0, 0.1, 5.2, 400.0, 0.7, 0.3, 3.0, 0.25, -0.1, 0.5,
    1500.0, 0.08, 6.1, 0.8, 0.3, 3.0, 0.2, -0.1, 0.5,
)
BKOC_STD_DEVS = (
    1.0, 0.02, 1.0, 200.0, 0.1, 0.1, 0.5, 0.1, 0.02, 0.2,
    1.0, 0.02, 1.0, 0.1, 0.05, 1.0, 0.05, 0.02, 0.2,
)
# Default reading of the case study's correlation structure: response
# probability paired with response duration within each treatment.
BKOC_CORRELATED_PAIRS = ((5, 7, 0.6), (14, 16, 0.6))
BKOC_LAMBDA = 1.0e4
BKOC_DEFAULT_OUTER = (5, 14)

# The largest payoff magnitude a spec may allow: payoff differences, their
# fourth powers and sums over 2^64 draws stay finite, (2e64)^4 * 2^64 ~ 3e276.
_PAYOFF_CAP = 1e64


def _index(value, field: str) -> int:
    """A 1-based variable index; booleans, floats and strings are refused
    rather than truncated or split into digits."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{field} must hold integer indices, not {value!r}")
    return int(value)


def _number(value, field: str) -> float:
    """A real parameter value; booleans and strings are refused rather than
    read as 1.0 or parsed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{field} must hold numbers, not {value!r}")
    return float(value)


@dataclasses.dataclass(frozen=True)
class GaussianModelSpec:
    """Parameters of the 19-variable two-treatment net-benefit model.

    ``correlated_pairs`` lists 1-based index pairs with their correlation;
    pairs are normally disjoint, but any list is accepted as long as the
    implied correlation matrix is positive definite, so denser readings of
    the correlation structure stay expressible. ``outer_indices`` is the
    partition: which variables count as learnable (outer) for EVPPI.
    """

    means: tuple[float, ...] = BKOC_MEANS
    std_devs: tuple[float, ...] = BKOC_STD_DEVS
    correlated_pairs: tuple[tuple[int, int, float], ...] = BKOC_CORRELATED_PAIRS
    lam: float = BKOC_LAMBDA
    outer_indices: tuple[int, ...] = BKOC_DEFAULT_OUTER
    name: str = "bkoc"

    def __post_init__(self):
        object.__setattr__(self, "means", tuple(_number(v, "means") for v in self.means))
        object.__setattr__(
            self, "std_devs", tuple(_number(v, "std_devs") for v in self.std_devs)
        )
        object.__setattr__(
            self,
            "correlated_pairs",
            tuple(
                (
                    _index(i, "correlated_pairs"),
                    _index(j, "correlated_pairs"),
                    _number(r, "correlated_pairs"),
                )
                for i, j, r in self.correlated_pairs
            ),
        )
        object.__setattr__(
            self, "outer_indices", tuple(_index(i, "outer_indices") for i in self.outer_indices)
        )
        object.__setattr__(self, "lam", _number(self.lam, "lambda"))
        if len(self.means) != _N_VARS or len(self.std_devs) != _N_VARS:
            raise ConfigError(f"means and std_devs must each have {_N_VARS} entries")
        # a mean, spread or lambda that is not finite fails the payoff cap below; a
        # spread whose square underflows (refused for eps too) spoils the covariance
        if not all(sd > 0.0 and sd * sd >= sys.float_info.min for sd in self.std_devs):
            raise ConfigError("std_devs must be positive, with squares that do not underflow")
        if not self.lam > 0.0:
            raise ConfigError("lambda must be positive")
        seen = set()
        for i, j, r in self.correlated_pairs:
            if not (1 <= i <= _N_VARS and 1 <= j <= _N_VARS) or i == j:
                raise ConfigError(f"correlated pair ({i}, {j}) out of range")
            if (min(i, j), max(i, j)) in seen:
                raise ConfigError(f"correlated pair ({i}, {j}) listed twice")
            seen.add((min(i, j), max(i, j)))
            if not (np.isfinite(r) and abs(r) < 1.0):
                raise ConfigError(f"correlation {r} for pair ({i}, {j}) outside (-1, 1)")
        if not self.outer_indices:
            raise ConfigError("outer_indices must name at least one variable")
        if len(set(self.outer_indices)) != len(self.outer_indices):
            raise ConfigError("outer_indices contains duplicates")
        if not all(1 <= i <= _N_VARS for i in self.outer_indices):
            raise ConfigError(f"outer_indices must lie in 1..{_N_VARS}")
        try:
            np.linalg.cholesky(self.correlation_matrix())
        except np.linalg.LinAlgError:
            raise ConfigError("correlated_pairs imply a non-positive-definite correlation matrix")
        # Each variable, outer or conditional, is its mean plus a row of the
        # joint Cholesky factor, of norm sigma_i, times at most 19 normals.
        spread = _N_VARS**0.5 * _MAX_NORMAL
        reach = [abs(mu) + spread * sd for mu, sd in zip(self.means, self.std_devs)]
        for terms in _BKOC_TERMS_RAW:
            bound = sum(
                (self.lam if c == "lam" else abs(c)) * math.prod(reach[i] for i in idx)
                for c, idx in terms
            )
            if not bound <= _PAYOFF_CAP:
                raise ConfigError(f"payoffs could reach {bound:.3g}, above the cap {_PAYOFF_CAP:g}")

    def correlation_matrix(self) -> np.ndarray:
        corr = np.eye(_N_VARS)
        for i, j, r in self.correlated_pairs:
            corr[i - 1, j - 1] = corr[j - 1, i - 1] = r
        return corr

    def covariance_matrix(self) -> np.ndarray:
        sd = np.asarray(self.std_devs)
        return self.correlation_matrix() * np.outer(sd, sd)


# Net benefit per treatment: lam * (efficacy products) - (fixed cost + cost product).
# Terms are (scale, 0-based variable indices); scale "lam" resolved at build time.
_BKOC_TERMS_RAW = (
    (("lam", (4, 5, 6)), ("lam", (7, 8, 9)), (-1.0, (0,)), (-1.0, (1, 2, 3))),
    (("lam", (13, 14, 15)), ("lam", (16, 17, 18)), (-1.0, (10,)), (-1.0, (11, 12, 3))),
)


class BkocModel(DecisionModel):
    """Two-treatment net-benefit model over 19 correlated Gaussian inputs.

    The outer/inner split is a runtime parameter (``spec.outer_indices``);
    conditional sampling and conditional means use the exact Gaussian
    conditional law of the inner block given the outer block, so any
    partition and any positive-definite pair list is handled.
    """

    decision_count = 2

    def __init__(self, spec: GaussianModelSpec | None = None):
        self.spec = spec if spec is not None else GaussianModelSpec()
        self.name = self.spec.name
        mu = np.asarray(self.spec.means)
        cov = self.spec.covariance_matrix()

        outer0 = np.array([i - 1 for i in self.spec.outer_indices], dtype=np.intp)
        inner0 = np.array(
            [i for i in range(_N_VARS) if i not in set(outer0.tolist())], dtype=np.intp
        )
        self.outer_dim = int(outer0.size)
        self.inner_dim = int(inner0.size)
        self._mu_outer = mu[outer0]
        self._chol_outer = np.linalg.cholesky(cov[np.ix_(outer0, outer0)])

        # Conditional law of the inner block given the outer block.
        cov_oo = cov[np.ix_(outer0, outer0)]
        cov_io = cov[np.ix_(inner0, outer0)]
        gain = np.linalg.solve(cov_oo, cov_io.T).T  # (inner_dim, outer_dim)
        self._cond_gain = gain
        self._cond_offset = mu[inner0] - gain @ self._mu_outer
        self._cond_cov = cov[np.ix_(inner0, inner0)] - gain @ cov_io.T
        self._chol_cond = (
            np.linalg.cholesky(self._cond_cov) if self.inner_dim else np.zeros((0, 0))
        )
        # The factor's diagonal when it has one nonzero per row (the inner
        # variables are conditionally independent), else None.
        diag = np.diag(self._chol_cond)
        self._chol_cond_diag = (
            diag.copy() if np.count_nonzero(self._chol_cond) == diag.size else None
        )

        # Per decision and term: the coefficient, and per factor in product
        # order (outer position, None) or (None, inner position).
        outer_pos = {int(g): p for p, g in enumerate(outer0)}
        inner_pos = {int(g): p for p, g in enumerate(inner0)}
        self._factor_columns = tuple(
            tuple(
                (
                    self.spec.lam if scale == "lam" else float(scale),
                    tuple((outer_pos.get(g), inner_pos.get(g)) for g in idx),
                )
                for scale, idx in terms
            )
            for terms in _BKOC_TERMS_RAW
        )

    def sample_outer(self, stream: VariateSource, n: int) -> np.ndarray:
        z = stream.normals((int(n), self.outer_dim))
        return self._mu_outer + z @ self._chol_outer.T

    def sample_inner(self, outer: np.ndarray, stream: VariateSource, m: int) -> np.ndarray:
        """Conditional draws ``mean + z @ L.T``, L the Cholesky factor of the
        conditional covariance. When L is diagonal the normals are scaled by
        it and shifted by the mean in place: the same bits, since each
        product then has one nonzero term, with no BLAS call per outer draw
        and no new array. Any other L keeps the matmul, whose summation order
        the raw-kernel digests pin."""
        n = outer.shape[0]
        z = stream.normals((n, int(m), self.inner_dim))
        mean = self.inner_conditional_means(outer)
        if self._chol_cond_diag is None:
            return mean[:, None, :] + z @ self._chol_cond.T
        z *= self._chol_cond_diag
        z += mean[:, None, :]
        return z

    def inner_conditional_means(self, outer: np.ndarray) -> np.ndarray:
        """Conditional mean of each inner variable given the outer values; (n, inner_dim)."""
        means = np.asarray(outer) @ self._cond_gain.T
        means += self._cond_offset
        return means

    def payoffs(
        self, outer: np.ndarray, inner: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        outer = np.asarray(outer)
        f, planes = _decision_planes(outer, inner, self.decision_count, out)

        # One transposing copy turns every inner factor into a contiguous
        # (m, n) plane, so the products below stream like the output planes.
        yt = inner.transpose(1, 2, 0).copy()

        def column(p, q):
            return outer[:, p] if q is None else yt[:, q, :]

        prod = np.empty(planes[0].shape)
        for total, terms in zip(planes, self._factor_columns):
            total.fill(0.0)
            for coef, factors in terms:
                prod[...] = column(*factors[0])
                for p, q in factors[1:]:
                    prod *= column(p, q)
                prod *= coef
                total += prod
        return f

    def conditional_means(self, outer: np.ndarray) -> np.ndarray:
        """Exact E[f_d | X]: Gaussian product moments on the conditional law.

        For a product of up to three jointly Gaussian factors,
        E[ABC] = m_a m_b m_c + m_a S_bc + m_b S_ac + m_c S_ab (third central
        moment vanishes); factors fixed by the outer values enter as
        constants. With disjoint pairs and the shipped partitions all the
        cross terms S_ab are zero and this reduces to substituting each inner
        variable by its conditional mean.
        """
        x = np.asarray(outer, dtype=np.float64)
        n = x.shape[0]
        m = self.inner_conditional_means(x)
        s = self._cond_cov
        out = np.empty((n, 2))
        for d, terms in enumerate(self._factor_columns):
            total = np.zeros(n)
            for coef, factors in terms:
                prod = np.full(n, coef)
                for p, q in factors:
                    if q is None:
                        prod = prod * x[:, p]
                upos = [q for _, q in factors if q is not None]
                if len(upos) == 1:
                    prod = prod * m[:, upos[0]]
                elif len(upos) == 2:
                    a, b = upos
                    prod = prod * (m[:, a] * m[:, b] + s[a, b])
                elif len(upos) == 3:
                    a, b, c = upos
                    prod = prod * (
                        m[:, a] * m[:, b] * m[:, c]
                        + m[:, a] * s[b, c]
                        + m[:, b] * s[a, c]
                        + m[:, c] * s[a, b]
                    )
                total += prod
            out[:, d] = total
        return out


# ---------------------------------------------------------------------------
# Registry and configuration files
# ---------------------------------------------------------------------------

_SYNTHETIC_FACTORIES = {
    "synthetic1": synthetic1,
    "synthetic2": synthetic2,
    "synthetic3": synthetic3,
}

MODEL_NAMES = tuple(_SYNTHETIC_FACTORIES) + ("bkoc",)

_CONFIG_KEYS = {"means", "std_devs", "correlated_pairs", "lambda", "outer_indices", "name"}


def load_model_config(path: str | Path) -> GaussianModelSpec:
    """Read a Gaussian model spec from a JSON file.

    Any subset of the fields may appear; missing fields keep the built-in
    default values. ``correlated_pairs`` entries are ``[i, j, rho]`` with
    1-based indices.
    """
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if not isinstance(data.get("name", ""), str):
        raise ConfigError("config field 'name' must be a string")
    kwargs = {("lam" if key == "lambda" else key): value for key, value in data.items()}
    try:
        return GaussianModelSpec(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc


def make_model(
    name: str | None = None,
    config: str | Path | None = None,
    outer: Sequence[int] | None = None,
) -> DecisionModel:
    """Build a model from a registry name or a config file.

    ``outer`` overrides the outer/inner partition and is only meaningful for
    the Gaussian model; synthetic models have a fixed scalar partition.
    """
    if (name is None) == (config is None):
        raise ConfigError("give exactly one of a model name or a config file")
    if config is not None:
        spec = load_model_config(config)
    elif name == "bkoc":
        spec = GaussianModelSpec()
    elif name in _SYNTHETIC_FACTORIES:
        if outer is not None:
            raise ConfigError(f"model {name!r} has a fixed partition; --outer does not apply")
        return _SYNTHETIC_FACTORIES[name]()
    else:
        raise ConfigError(f"unknown model {name!r}; expected one of {', '.join(MODEL_NAMES)}")
    if outer is not None:
        spec = dataclasses.replace(spec, outer_indices=outer)
    try:
        return BkocModel(spec)
    except np.linalg.LinAlgError as exc:  # a correlation so near 1 it rounds to singular
        raise ConfigError(f"the covariance of this spec is numerically singular: {exc}") from exc
