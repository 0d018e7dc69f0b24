"""Dirichlet sine eigenbasis on an interval and spectral fields.

Everything in this module is diagonal in the basis ``e_k(x) = sqrt(2/L) sin(k pi x / L)``
with eigenvalues ``lambda_k = (k pi / L)^2`` of the negative Dirichlet Laplacian.
A function is represented by its first K coefficients; the heat semigroup acts as
``c_k -> c_k * exp(-lambda_k t)``.  On the uniform mesh the nodal values of K coefficients are
one DST-I (discrete sine transform of type I) away: `EigenBasis.on_mesh`, the one place grid
values are made, folds them onto the mesh's sine bins (`_sine_bins`) and takes one real FFT
per block of rows (`_sine`); the hybrid oracle of `refsolvers` steps those bins unscaled.
`_method_of_steps` carries a delayed mode across its delay windows with a product rule in
Hermite form: rk4-modes (`refsolvers`) brings its quadratic rule, Picard (`flow`) its fitted one.
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
    "dirac_coeffs",
]

_BLOCK = 64         # rows per block of a sine transform, which bounds its buffers


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

    def on_mesh(self, coeffs: np.ndarray, nx: int) -> np.ndarray:
        """Values of the (n, K) coefficient rows on `mesh(nx)`, shape (n, nx + 1).

        The interior nodes come from one DST-I per block of rows (`_sine`), modes k >= nx
        folded onto their bins (`_sine_bins`); both end cells are exactly 0.  The coefficients
        are scaled by sqrt(2/L)/2 before the fold, so the transform's intermediates stay about the
        size of the values, not nx times larger.  A value past the float range is left as inf or nan
        for the caller's finiteness check.
        """
        if nx < 1:
            raise InvalidArgumentError(f"a mesh needs at least 1 interval, got nx = {nx}")
        coeffs = np.asarray(coeffs, dtype=float)
        out = np.zeros((len(coeffs), nx + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            for b in range(0, len(coeffs), _BLOCK):
                block = coeffs[b:b + _BLOCK] * (math.sqrt(2.0 / self.L) / 2.0)
                bins = _sine_bins(block, nx, np.zeros((len(block), nx - 1)))
                out[b:b + _BLOCK, 1:-1] = _sine(bins)
        return out


def _sine(v: np.ndarray) -> np.ndarray:
    """2 sum_m v_m sin(pi j m / n) for j, m < n = v.shape[-1] + 1 (twice the DST-I of each row),
    by one real FFT of the odd extension; applied twice it is 2n times the identity."""
    n = v.shape[-1] + 1
    odd = np.zeros(v.shape[:-1] + (2 * n,))
    odd[..., 1:n], odd[..., n + 1:] = v, -v[..., ::-1]
    return 0.0 - np.fft.rfft(odd)[..., 1:n].imag      # 0 - x: a zero row comes back +0


def _sine_bins(c: np.ndarray, nx: int, out: np.ndarray) -> np.ndarray:
    """Add to `out` (..., nx - 1 or fewer), zero on entry, the bins whose `_sine` is
    2 sum_k c_k sin(k pi m / nx) at the interior nodes m, c (..., K): mode k < nx lands in bin k;
    a mode k >= nx folds onto bin r = k mod 2nx, or onto 2nx - r with a minus sign when r > nx;
    r = 0 and nx vanish."""
    for k0 in range(0, c.shape[-1], 2 * nx):        # modes k0 + 1 .. k0 + 2nx
        up, down = c[..., k0:k0 + nx - 1], c[..., k0 + nx:k0 + 2 * nx - 1]
        out[..., :up.shape[-1]] += up
        out[..., nx - 1 - down.shape[-1]:] -= down[..., ::-1]
    return out


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
        if other.basis != self.basis:
            raise InvalidArgumentError("fields must share one basis")
        return SpectralField(self.basis, self.coeffs + other.coeffs)

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
    8 nodes on each of P = ceil(64 L) panels.

    On a panel of width H = L / P the 8-node rule misses the integral of g by
    H^17 (8!)^4 / (17 (16!)^3) g^(16)(xi) for some xi in the panel (Abramowitz & Stegun 25.4.30).
    For g = f e_k with f slow next to the sine, |g^(16)| <= (k pi / L)^16 sqrt(2 / L) max|f|, so
    over the P panels c_k is off by at most c_8 (k pi / P)^16 sqrt(2 L) max|f|, where
    c_8 = (8!)^4 / (17 (16!)^3) = 1.7e-23.  The rule resolves the K with c_8 (K pi / P)^16 <= 1e-6,
    K <= 3.556 P (227 at L = 1); a larger K raises InvalidArgumentError naming that limit, where
    the coefficients would alias (1.13 off in relative L2 for x (1 - x) at K = 1000, L = 1).
    For smooth f, project followed by eval_matrix reproduces f to quadrature accuracy.
    """
    panels = math.ceil(64 * basis.L)
    c8 = math.factorial(8) ** 4 / (17 * math.factorial(16) ** 3)
    k_max = math.floor(panels / math.pi * (1e-6 / c8) ** (1 / 16))
    if basis.K > k_max:
        raise InvalidArgumentError(
            f"project resolves at most {k_max} modes on L = {basis.L:g} (8 Gauss nodes on each of "
            f"{panels} panels), not K = {basis.K}")
    x, w = _gauss_panels(np.linspace(0.0, basis.L, panels + 1), 8)
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


def _method_of_steps(u: np.ndarray, n_sub: int, decay, lam, a, weights, hist: np.ndarray,
                     v: np.ndarray, w: np.ndarray, start: int = 1) -> np.ndarray:
    """Step u' = -lam u + a v(t - tau) in place over the delay windows start, start + 1, ...
    of the grid t_i = i h, tau = n_sub h, and return u: the method of steps (Bellen and
    Zennaro, Numerical Methods for Delay Differential Equations, 2003, ch. 3), step i being

        u_{i+1} = decay u_i + A0 v_m + A1 v_{m+1} + B0 v'_m + B1 v'_{m+1},    m = i - n_sub,

    `weights` = (A0, A1, B0, B1), v' = -lam v + a w(t - tau): w is the signal v delays and below
    tau `hist` = phi(t_m - tau), m = 0..n_sub, so the left slope at tau reads phi(0^-), the right
    one w(0).  When v is u the windows go one at a time, else as one block: its forcing is formed
    in the rows it steps into and run by one `_decay_scan`; slopes and scratch take two blocks.
    """
    A0, A1, B0, B1 = weights
    n_steps = len(u) - 1
    width = n_sub if v is u else n_steps
    slopes, scratch = np.empty((2, max(0, min(width, n_steps - start * n_sub)) + 1) + u.shape[1:])
    for i0 in range(start * n_sub, n_steps, width):
        i1 = min(i0 + width, n_steps)
        m0, m1 = i0 - n_sub, i1 - n_sub
        k = min(max(n_sub - m0, 0), m1 + 1 - m0)    # slope rows m0 .. m0 + k - 1 read phi
        s, t = slopes[:m1 - m0 + 1], scratch[:m1 - m0 + 1]
        np.multiply(-lam, v[m0:m1 + 1], out=s)
        np.multiply(a, hist[m0:m0 + k], out=t[:k])
        np.multiply(a, w[m0 + k - n_sub:m1 + 1 - n_sub], out=t[k:])
        s += t
        new, t = u[i0 + 1:i1 + 1], t[:-1]
        np.multiply(A0, v[m0:m1], out=new)
        for c, x in ((A1, v[m0 + 1:m1 + 1]), (B0, s[:-1]), (B1, s[1:])):
            new += np.multiply(c, x, out=t)
        if m0 < n_sub <= m1:                         # the left slope at tau reads phi(0^-)
            new[n_sub - 1 - m0] += B1 * a * (hist[n_sub] - w[0])
        _decay_scan(u[i0:i1 + 1], decay)
    return u


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


def dirac_coeffs(x0: float, basis: EigenBasis) -> SpectralField:
    """Coefficient sequence c_k = e_k(x0) of the point mass at an interior x0.

    The point mass is represented directly in coefficients; it is never sampled
    pointwise.
    """
    if not 0.0 < x0 < basis.L:
        raise InvalidArgumentError(f"point-mass location must lie strictly inside (0, {basis.L})")
    return SpectralField(basis, basis.eval_matrix(np.array([x0]))[0])
