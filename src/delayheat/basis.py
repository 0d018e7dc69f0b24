"""Dirichlet sine eigenbasis on an interval, spectral fields and Sobolev-scale norms.

Everything in this module is diagonal in the basis ``e_k(x) = sqrt(2/L) sin(k pi x / L)``
with eigenvalues ``lambda_k = (k pi / L)^2`` of the negative Dirichlet Laplacian.
A function is represented by its first K coefficients; the heat semigroup acts as
``c_k -> c_k * exp(-lambda_k t)`` and the H^s-scale norm is
``sqrt(sum c_k^2 lambda_k^s)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "EigenBasis",
    "SpectralField",
    "project",
    "semigroup_apply",
    "hs_norm",
    "dirac_coeffs",
]


@dataclass(frozen=True)
class EigenBasis:
    """First K Dirichlet sine modes on the interval (0, L)."""

    L: float = 1.0
    K: int = 60

    def __post_init__(self):
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise InvalidArgumentError(f"domain length must be positive, got {self.L}")
        if self.K < 1:
            raise InvalidArgumentError(f"mode count must be >= 1, got {self.K}")

    def eigenvalues(self) -> np.ndarray:
        """lambda_k = (k pi / L)^2 for k = 1..K, strictly increasing."""
        k = np.arange(1, self.K + 1, dtype=float)
        return (k * math.pi / self.L) ** 2

    def eval_matrix(self, xs: np.ndarray) -> np.ndarray:
        """Matrix E with E[i, k-1] = e_k(xs[i]), shape (len(xs), K)."""
        xs = np.asarray(xs, dtype=float)
        k = np.arange(1, self.K + 1, dtype=float)
        return math.sqrt(2.0 / self.L) * np.sin(np.outer(xs, k) * math.pi / self.L)

    def mesh(self, nx: int) -> np.ndarray:
        """Uniform mesh with nx intervals, including both endpoints."""
        if nx < 1:
            raise InvalidArgumentError(f"a mesh needs at least 1 interval, got nx = {nx}")
        return np.linspace(0.0, self.L, nx + 1)


@dataclass(frozen=True)
class SpectralField:
    """A function on (0, L) stored as coefficients against the sine eigenbasis."""

    basis: EigenBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.basis.K,):
            raise InvalidArgumentError(
                f"coefficient length {c.shape} does not match basis K={self.basis.K}"
            )
        if not np.all(np.isfinite(c)):
            raise InvalidArgumentError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_basis(other)
        return SpectralField(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_basis(other)
        return SpectralField(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.basis, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check_same_basis(self, other: "SpectralField"):
        if other.basis != self.basis:
            raise InvalidArgumentError("fields must share one basis")

    @classmethod
    def zero(cls, basis: EigenBasis) -> "SpectralField":
        return cls(basis, np.zeros(basis.K))

    @classmethod
    def from_modes(cls, basis: EigenBasis, entries: dict[int, float] | Sequence[float]) -> "SpectralField":
        """Build from a {mode: coeff} mapping (1-based) or a leading-coefficient list."""
        c = np.zeros(basis.K)
        if isinstance(entries, dict):
            for k, v in entries.items():
                if not 1 <= k <= basis.K:
                    raise InvalidArgumentError(f"mode {k} outside 1..{basis.K}")
                c[k - 1] = v
        else:
            vals = np.asarray(list(entries), dtype=float)
            if len(vals) > basis.K:
                raise InvalidArgumentError("more coefficients than retained modes")
            c[: len(vals)] = vals
        return cls(basis, c)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per n."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


def _gauss_panels(edges: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the panels between consecutive edges of each row."""
    xg, wg = _gauss_legendre(nodes)
    half, mid = np.diff(edges) / 2.0, (edges[..., :-1] + edges[..., 1:]) / 2.0
    x, w = mid[..., None] + half[..., None] * xg, half[..., None] * wg
    return x.reshape(edges.shape[:-1] + (-1,)), w.reshape(edges.shape[:-1] + (-1,))


def project(f: Callable[[np.ndarray], np.ndarray], basis: EigenBasis) -> SpectralField:
    """Coefficients c_k = integral of f * e_k over (0, L) by composite Gauss-Legendre quadrature,
    8 nodes on each of 64 panels per unit length.

    For smooth f, project followed by eval_matrix reproduces f to quadrature accuracy.
    """
    x, w = _gauss_panels(np.linspace(0.0, basis.L, math.ceil(64 * basis.L) + 1), 8)
    fx = np.asarray(f(x), dtype=float)
    coeffs = basis.eval_matrix(x).T @ (w * fx)
    return SpectralField(basis, coeffs)


def semigroup_apply(fld: SpectralField, t: float) -> SpectralField:
    """Heat-semigroup action: c_k -> c_k exp(-lambda_k t), t >= 0."""
    if t < 0.0:
        raise InvalidArgumentError(f"semigroup time must be >= 0, got {t}")
    return SpectralField(fld.basis, fld.coeffs * np.exp(-fld.basis.eigenvalues() * t))


def _decay_scan(x: np.ndarray, q) -> np.ndarray:
    """Run x_i <- q x_{i-1} + x_i down axis 0 in place and return x.

    The semigroup step recurrence, for a decay factor |q| <= 1 per column
    (for example exp(-lambda h)).  A work-efficient inclusive scan (Brent and
    Kung, IEEE Trans. Computers C-31, 1982) over strided row views, about 2n
    row updates for n rows.  The up-sweep with stride d = 1, 2, 4, ... adds
    q^d x_{i-d} to the rows i = 2d - 1, 4d - 1, ..., which then hold the sum
    over their last 2d terms; the down-sweep, strides in reverse, adds
    q^d x_{i-d} to the rows i = 3d - 1, 5d - 1, ..., completing each from the
    full prefix d rows above.
    Elementwise per column, so a column of a K-column scan equals its
    one-column scan bit for bit; since |q| <= 1 the powers of q can only
    underflow to 0.
    """
    d, powers = 1, [q]
    while 2 * d <= len(x):
        dst = x[2 * d - 1::2 * d]
        dst += powers[-1] * x[d - 1::2 * d][:len(dst)]
        powers.append(powers[-1] * powers[-1])
        d *= 2
    for p in powers[-2::-1]:
        d //= 2
        dst = x[3 * d - 1::2 * d]
        dst += p * x[2 * d - 1::2 * d][:len(dst)]
    return x


GRID_RTOL = 1e-9    # a step k h within GRID_RTOL max(1, |t|) of t is at t; k h is rounded


def _grid_index(grid: np.ndarray, wanted, what: str, solver: str) -> list[int]:
    """Index of the grid step nearest each requested instant t, the one rule for requested times;
    InvalidArgumentError names a t that is not finite, and names t, the step h and that grid value
    when it is farther than GRID_RTOL max(1, |t|) from t."""
    idx = [int(np.argmin(np.abs(grid - t))) for t in wanted]
    for t, near in zip(wanted, grid[idx].tolist()):
        if not math.isfinite(t):        # +-inf would pass the test below, at the t = 0 row
            raise InvalidArgumentError(f"{what}: t = {float(t)!r} is not a finite instant")
        if not abs(near - t) <= GRID_RTOL * max(1.0, abs(t)):
            raise InvalidArgumentError(f"{what}: t = {float(t)!r} is off the {solver} grid of step "
                                       f"h = {grid[1].item()!r}; its nearest sample is {near!r}")
    return idx


def _step_count(tau: float, dt: float, T: float, min_sub: int = 1) -> tuple[int, int]:
    """The stepping solvers' n_sub = round(tau / dt) steps per delay and their step count up to
    the first step k h, h = tau / n_sub, within 1e-9 h of T or past it, at least one; no array is
    made.  InvalidArgumentError if dt is not a positive finite number or n_sub < min_sub."""
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidArgumentError(f"grid step {dt} must be positive and finite")
    n_sub = round(tau / dt)
    if n_sub < min_sub:
        raise InvalidArgumentError(
            f"grid step {dt} too coarse: need at least {min_sub} points per delay interval"
        )
    return n_sub, max(1, math.ceil(T / (tau / n_sub) - 1e-9))


def _step_grid(tau: float, dt: float, T: float, min_sub: int = 1) -> tuple[int, np.ndarray]:
    """n_sub and the grid k h, k = 0..n_steps, of `_step_count`."""
    n_sub, n_steps = _step_count(tau, dt, T, min_sub)
    return n_sub, np.arange(n_steps + 1) * (tau / n_sub)


def hs_norm(fld: SpectralField, s: float) -> float:
    """Spectral Sobolev-scale norm sqrt(sum c_k^2 lambda_k^s)."""
    lam = fld.basis.eigenvalues()
    return math.sqrt(float(np.sum(fld.coeffs**2 * lam**float(s))))


def dirac_coeffs(x0: float, basis: EigenBasis) -> SpectralField:
    """Coefficient sequence c_k = e_k(x0) of the point mass at an interior x0.

    The point mass is represented directly in coefficients; it is never sampled
    pointwise.
    """
    if not 0.0 < x0 < basis.L:
        raise InvalidArgumentError(f"point-mass location must lie strictly inside (0, {basis.L})")
    return SpectralField(basis, basis.eval_matrix(np.array([x0]))[0])
