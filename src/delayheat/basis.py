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
    "QuadratureRule",
    "eigenpair",
    "project",
    "evaluate",
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
        return np.linspace(0.0, self.L, nx + 1)


def eigenpair(k: int, L: float) -> tuple[float, Callable[[np.ndarray], np.ndarray]]:
    """Eigenvalue (k pi / L)^2 and the L^2-normalized eigenfunction evaluator.

    Raises InvalidArgumentError for k < 1 or L <= 0.
    """
    if k < 1:
        raise InvalidArgumentError(f"mode index must be >= 1, got {k}")
    if not L > 0.0:
        raise InvalidArgumentError(f"domain length must be positive, got {L}")
    lam = (k * math.pi / L) ** 2
    amp = math.sqrt(2.0 / L)

    def efun(x):
        return amp * np.sin(k * math.pi * np.asarray(x, dtype=float) / L)

    return lam, efun


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


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule: `panels_per_unit` panels per unit length, `nodes` per panel."""

    panels_per_unit: int = 64
    nodes: int = 8

    def __post_init__(self):
        if self.nodes < 2:
            raise InvalidArgumentError(f"quadrature node count must be >= 2, got {self.nodes}")
        if self.panels_per_unit < 1:
            raise InvalidArgumentError("panels_per_unit must be >= 1")

    def points_weights(self, a: float, b: float, breakpoints: Sequence[float] = ()) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights on [a, b], with panel edges forced at the given breakpoints.

        Breakpoints outside (a, b) are ignored; the integrand is assumed smooth
        between consecutive edges.
        """
        if not b > a:
            return np.empty(0), np.empty(0)
        edges = [a, b]
        for p in breakpoints:
            if a < p < b:
                edges.append(p)
        edges = sorted(set(edges))
        xg, wg = _gauss_legendre(self.nodes)
        pts, wts = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            n_panels = max(1, math.ceil((hi - lo) * self.panels_per_unit))
            sub = np.linspace(lo, hi, n_panels + 1)
            half = np.diff(sub) / 2.0
            mid = (sub[:-1] + sub[1:]) / 2.0
            pts.append((mid[:, None] + half[:, None] * xg[None, :]).ravel())
            wts.append((half[:, None] * wg[None, :]).ravel())
        return np.concatenate(pts), np.concatenate(wts)

    def integrate(self, f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  breakpoints: Sequence[float] = ()):
        """Integrate a vectorized callable over [a, b]."""
        x, w = self.points_weights(a, b, breakpoints)
        if len(x) == 0:
            return 0.0
        return w @ np.asarray(f(x))


def project(f: Callable[[np.ndarray], np.ndarray], basis: EigenBasis,
            quad: QuadratureRule | None = None) -> SpectralField:
    """Coefficients c_k = integral of f * e_k over (0, L) by composite quadrature.

    For smooth f, project followed by evaluate reproduces f to quadrature accuracy.
    """
    quad = quad or QuadratureRule()
    x, w = quad.points_weights(0.0, basis.L)
    fx = np.asarray(f(x), dtype=float)
    coeffs = basis.eval_matrix(x).T @ (w * fx)
    return SpectralField(basis, coeffs)


def evaluate(fld: SpectralField, x) -> np.ndarray | float:
    """Pointwise value sum_k c_k e_k(x); x may be a scalar or an array in [0, L]."""
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0) or np.any(xs > fld.basis.L):
        raise InvalidArgumentError(f"evaluation point outside [0, {fld.basis.L}]")
    vals = fld.basis.eval_matrix(np.atleast_1d(xs)) @ fld.coeffs
    return float(vals[0]) if np.isscalar(x) or xs.ndim == 0 else vals


def semigroup_apply(fld: SpectralField, t: float) -> SpectralField:
    """Heat-semigroup action: c_k -> c_k exp(-lambda_k t), t >= 0."""
    if t < 0.0:
        raise InvalidArgumentError(f"semigroup time must be >= 0, got {t}")
    return SpectralField(fld.basis, fld.coeffs * np.exp(-fld.basis.eigenvalues() * t))


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
