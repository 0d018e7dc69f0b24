"""Closed-form solution machinery for u_t = u_xx + a u(t - tau) with Dirichlet ends.

Per sine mode with decay rate lambda, the zero-history flow is the delayed
exponential

    E(lambda, t) = sum_{j=0..floor(t/tau)} (a^j / j!) (t - j tau)^j exp(-lambda (t - j tau)),

a finite sum at every fixed t because terms switch on only for t >= j tau.
The full solution with history phi on (-tau, 0) adds the convolution

    a * integral_{-tau}^{min(t - tau, 0)} E(lambda, t - tau - gamma) phi_k(gamma) dgamma.

The map t -> E(lambda, t) is piecewise analytic with kinks exactly on the delay
lattice {j tau}: the jump of its j-th time derivative at t = j tau equals a^j.
This module evaluates the series, its one-sided time derivatives of any order
(products of polynomials and exponentials, differentiated exactly), the history
convolution with quadrature panels split at the lattice kinks, and a Picard
iteration of the equivalent Volterra integral equation whose error contracts
factorially in the iteration count.  One private kernel evaluates the series and
its derivatives on a whole (times x modes) grid.

History protocol: `phi.coeffs(gamma, order=0)` returns the K mode coefficients
of the order-th time derivative at a scalar gamma, and one row per entry,
shape (n, K), for a 1-D array of n gammas; the quadratures pass all nodes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .basis import EigenBasis, QuadratureRule, SpectralField
from .errors import InvalidArgumentError, TruncationExceededError

__all__ = [
    "FlowParams",
    "ZeroHistory",
    "ExpModeHistory",
    "GridHistory",
    "SolutionTrace",
    "delayed_exp",
    "flow_apply",
    "history_convolution",
    "solve",
    "solve_trace",
    "right_limit_derivative",
    "flow_derivative_factors",
    "derivative_jump",
    "picard_solve",
    "characteristic_root",
    "compatible_history",
]

# Floating guard so times that are lattice points up to rounding are treated as such.
_LATTICE_EPS = 1e-12


@dataclass(frozen=True)
class FlowParams:
    """Delay tau, zero-order coupling a, and a guard on the series length.

    The series at time t has exactly floor(t/tau) + 1 terms; j_max is a guard
    against runaway evaluation times, never a silent truncation.
    """

    a: float = 1.0
    tau: float = 1.0
    j_max: int = 128

    def __post_init__(self):
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise InvalidArgumentError(f"delay must be positive, got {self.tau}")
        if not math.isfinite(self.a):
            raise InvalidArgumentError("coupling must be finite")
        if self.j_max < 0:
            raise InvalidArgumentError("j_max must be >= 0")

    def series_index(self, t: float) -> int:
        """floor(t / tau), tolerant to rounding just below a lattice point."""
        j = int(math.floor(t / self.tau + _LATTICE_EPS))
        if j > self.j_max:
            raise TruncationExceededError(
                f"t={t} needs {j} delay periods, above the j_max={self.j_max} guard"
            )
        return j


def _delayed_exp_grid(lams, ts, params: FlowParams, order: int = 0,
                      side: str = "right") -> np.ndarray:
    """One-sided order-`order` time derivative of E(lambda, t) on the (len(ts), len(lams)) grid.

    Differentiating each polynomial-times-exponential term exactly gives

        sum_j a^j sum_{l=0}^{min(order, j)} C(order, l)
              (t - j tau)^{j-l} / (j-l)!  (-lambda)^{order-l}  exp(-lambda (t - j tau)),

    with 0^0 = 1; order 0 is E itself.  `side` selects which terms are active at
    a lattice point: "right" includes j = t/tau, "left" does not.  Coefficients
    are formed per time in scalar float arithmetic (in log space past j = 20,
    where factorials and powers overflow), so every row equals the same time
    evaluated alone, bit for bit.
    """
    a, tau = params.a, params.tau
    lams = np.asarray(lams, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if ts.size:
        params.series_index(float(ts.max()))            # the j_max guard, at the latest time
    tops = np.floor(ts / tau + _LATTICE_EPS)            # series_index per time
    if side == "left":
        tops -= np.abs(ts - tops * tau) <= _LATTICE_EPS * np.maximum(1.0, np.abs(ts))
    n_terms = int(tops.max(initial=-1.0)) + 1
    out = np.zeros((len(ts), len(lams)))
    for j in range(min(n_terms, 1) if a == 0.0 else n_terms):
        dts = np.maximum(ts - j * tau, 0.0)
        decay = np.exp(-lams * dts[:, None])
        for l in range(min(order, j) + 1):
            p = j - l
            live = (tops >= j) & ((dts > 0.0) | (p == 0))
            if j <= 20:
                c = a**j * np.array([d**p for d in dts[live].tolist()]) / math.factorial(p)
            else:
                sign = -1.0 if (a < 0 and j % 2 == 1) else 1.0
                ja, lg = j * math.log(abs(a)), math.lgamma(p + 1)
                c = sign * np.array([math.exp(ja + (p * math.log(d) if p > 0 else 0.0) - lg)
                                     for d in dts[live].tolist()])
            coef = np.zeros(len(ts))
            coef[live] = c * math.comb(order, l)
            out += coef[:, None] * np.power(-lams, order - l) * decay
    return out


def _delayed_exp_vec(lams: np.ndarray, t: float, params: FlowParams) -> np.ndarray:
    """Delayed-exponential values for an array of decay rates at one time."""
    return _delayed_exp_grid(lams, [t], params)[0]


def delayed_exp(lam: float, t: float, params: FlowParams) -> float:
    """Per-mode flow value sum_{j<=t/tau} (a^j/j!) (t-j tau)^j exp(-lam (t-j tau)).

    Requires t >= 0 and lam >= 0; raises TruncationExceededError when
    floor(t/tau) exceeds the params guard.
    """
    if t < 0.0:
        raise InvalidArgumentError(f"time must be >= 0, got {t}")
    if lam < 0.0:
        raise InvalidArgumentError(f"decay rate must be >= 0, got {lam}")
    return float(_delayed_exp_vec(np.array([float(lam)]), t, params)[0])


def flow_apply(y0: SpectralField, t: float, params: FlowParams) -> SpectralField:
    """Zero-history evolution of a field: c_k -> E(lambda_k, t) c_k."""
    if t < 0.0:
        raise InvalidArgumentError(f"time must be >= 0, got {t}")
    mult = _delayed_exp_vec(y0.basis.eigenvalues(), t, params)
    return SpectralField(y0.basis, mult * y0.coeffs)


def flow_derivative_factors(lams: np.ndarray, t: float, order: int, params: FlowParams,
                            side: str = "right") -> np.ndarray:
    """One-sided time derivative of order `order` of t -> E(lambda, t), per lambda.

    The series and the meaning of `side` are those of `_delayed_exp_grid`; off
    the lattice both sides agree.
    """
    if t < 0.0:
        raise InvalidArgumentError(f"time must be >= 0, got {t}")
    if order < 0:
        raise InvalidArgumentError("derivative order must be >= 0")
    if side not in ("right", "left"):
        raise InvalidArgumentError(f"side must be 'right' or 'left', got {side!r}")
    return _delayed_exp_grid(lams, [t], params, order, side)[0]


def right_limit_derivative(y0: SpectralField, t: float, params: FlowParams) -> SpectralField:
    """Right limit at time t of the floor(t/tau)-th time derivative of the zero-history solution.

    Stated for zero history; at lattice times this is the derivative order that
    jumps, and between lattice times it is an ordinary derivative.
    """
    if t < 0.0:
        raise InvalidArgumentError(f"time must be >= 0, got {t}")
    order = params.series_index(t)
    factors = flow_derivative_factors(y0.basis.eigenvalues(), t, order, params, side="right")
    return SpectralField(y0.basis, factors * y0.coeffs)


def derivative_jump(y0: SpectralField, j: int, params: FlowParams,
                    method: str = "limit",
                    eps: tuple[float, float] = (1e-3, 5e-4)) -> tuple[SpectralField, SpectralField]:
    """Predicted and measured jump of the j-th time derivative at t = j tau (zero history).

    predicted = a^j * y0 per mode.  The default measured value takes the exact
    one-sided limits of the analytic j-th derivative at the lattice point
    (shared smooth terms cancel identically, so this is the eps -> 0 limit in
    closed form).  method="richardson" instead evaluates at j tau +/- eps and
    extrapolates linearly in eps; its residual grows like (lambda*eps)^2, so it
    only serves as a coarse cross-check on the low modes.
    """
    if j < 0:
        raise InvalidArgumentError("lattice index must be >= 0")
    if j > params.j_max:
        raise TruncationExceededError(f"lattice index {j} above the j_max={params.j_max} guard")
    lams = y0.basis.eigenvalues()
    t0 = j * params.tau
    predicted = SpectralField(y0.basis, (params.a**j) * y0.coeffs)
    if method == "limit":
        right = flow_derivative_factors(lams, t0, j, params, side="right")
        left = flow_derivative_factors(lams, t0, j, params, side="left")
        measured = (right - left) * y0.coeffs
    elif method == "richardson":
        e1, e2 = eps
        if not (e1 > e2 > 0.0):
            raise InvalidArgumentError("eps pair must be positive and decreasing")

        def gap(e):
            hi = flow_derivative_factors(lams, t0 + e, j, params)
            lo = (flow_derivative_factors(lams, t0 - e, j, params)
                  if t0 - e >= 0.0 else np.zeros_like(lams))
            return hi - lo

        g1, g2 = gap(e1), gap(e2)
        # one elimination step of the leading O(eps) term, exact for e1 = 2 e2
        measured = (g2 + (g2 - g1) * (e2 / (e1 - e2))) * y0.coeffs
    else:
        raise InvalidArgumentError(f"unknown jump method {method!r}")
    return predicted, SpectralField(y0.basis, measured)


# ---------------------------------------------------------------------------
# History representations


class ZeroHistory:
    """phi identically zero on (-tau, 0)."""

    breakpoints: tuple[float, ...] = ()
    max_derivative_order: int | None = None

    def __init__(self, basis: EigenBasis):
        self.basis = basis

    def coeffs(self, gamma, order: int = 0) -> np.ndarray:
        return np.zeros(np.shape(gamma) + (self.basis.K,))


class ExpModeHistory:
    """Separable-in-time history phi_k(gamma) = c_k exp(rate_k * gamma).

    `rates` may be a scalar (one profile for every mode; 0 gives a constant-in-time
    history) or a per-mode array.  Time derivatives of every order are exact.
    """

    breakpoints: tuple[float, ...] = ()
    max_derivative_order: int | None = None

    def __init__(self, fld: SpectralField, rates: float | np.ndarray = 0.0):
        self.basis = fld.basis
        self.field = fld
        self.rates = np.broadcast_to(np.asarray(rates, dtype=float), (fld.basis.K,)).copy()
        if not np.all(np.isfinite(self.rates)):
            raise InvalidArgumentError("history rates must be finite")

    def coeffs(self, gamma, order: int = 0) -> np.ndarray:
        return self.field.coeffs * self.rates**order * np.exp(np.multiply.outer(gamma, self.rates))


class GridHistory:
    """History given as fields on a uniform time grid over [-tau, 0].

    interp_order 1 is piecewise linear (values only); interp_order 3 is a cubic
    spline with time derivatives available up to order 2.
    """

    def __init__(self, times: np.ndarray, coeff_rows: np.ndarray, basis: EigenBasis,
                 interp_order: int = 1):
        times = np.asarray(times, dtype=float)
        coeff_rows = np.asarray(coeff_rows, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise InvalidArgumentError("grid history needs at least 2 samples")
        if np.any(np.diff(times) <= 0):
            raise InvalidArgumentError("grid history times must be strictly increasing")
        if coeff_rows.shape != (len(times), basis.K):
            raise InvalidArgumentError("grid history rows must be (n_samples, K)")
        if interp_order not in (1, 3):
            raise InvalidArgumentError(f"interpolation order must be 1 or 3, got {interp_order}")
        self.basis = basis
        self.times = times
        self.rows = coeff_rows
        self.interp_order = interp_order
        self.breakpoints = tuple(times[1:-1])
        self.max_derivative_order = 0 if interp_order == 1 else 2
        self._spline = CubicSpline(times, coeff_rows, axis=0) if interp_order == 3 else None

    def coeffs(self, gamma, order: int = 0) -> np.ndarray:
        if order > (self.max_derivative_order or 0):
            raise InvalidArgumentError(
                f"grid history (order-{self.interp_order} interpolation) has no derivative {order}"
            )
        g = np.clip(gamma, self.times[0], self.times[-1])
        if self._spline is not None:
            row = self._spline(g) if order == 0 else self._spline.derivative(order)(g)
            return np.asarray(row, dtype=float)
        i = np.clip(np.searchsorted(self.times, g, side="right") - 1, 0, len(self.times) - 2)
        w = np.expand_dims((g - self.times[i]) / (self.times[i + 1] - self.times[i]), -1)
        return (1.0 - w) * self.rows[i] + w * self.rows[i + 1]


History = ZeroHistory | ExpModeHistory | GridHistory


# ---------------------------------------------------------------------------
# Variation-of-constants solution


def history_convolution_profile(lams: np.ndarray, profile: Callable[[np.ndarray], np.ndarray],
                                t: float, params: FlowParams,
                                quad: QuadratureRule | None = None,
                                profile_breakpoints: Sequence[float] = ()) -> np.ndarray:
    """a * integral_{-tau}^{min(t-tau, 0)} E(lam, t - tau - gamma) profile(gamma) dgamma.

    `profile(gammas)` maps the node array to one row per node and one value per
    lambda, shape (len(gammas), len(lams)).  Quadrature panels are split
    wherever the flow argument t - tau - gamma crosses a lattice point (the
    integrand has kinks there) and at any breakpoints of the profile itself.
    """
    if t < 0.0:
        raise InvalidArgumentError(f"time must be >= 0, got {t}")
    quad = quad or QuadratureRule()
    lams = np.asarray(lams, dtype=float)
    upper = min(t - params.tau, 0.0)
    if upper <= -params.tau:
        return np.zeros_like(lams)
    # lattice crossings of the flow argument, t - tau - gamma = j tau; the rule
    # drops the ones outside the interval
    kinks = [*profile_breakpoints,
             *(t - m * params.tau for m in range(1, math.floor(t / params.tau) + 2))]
    gammas, weights = quad.points_weights(-params.tau, upper, kinks)
    E = _delayed_exp_grid(lams, (t - params.tau) - gammas, params)
    # numpy sums axis 0 of a C-ordered (nodes, K >= 2) array row by row, as a node loop would
    return params.a * np.sum(weights[:, None] * E * profile(gammas), axis=0)


def history_convolution(phi: History, t: float, params: FlowParams,
                        quad: QuadratureRule | None = None) -> SpectralField:
    """Field-valued history convolution of the variation-of-constants formula."""
    if isinstance(phi, ZeroHistory):
        if t < 0.0:
            raise InvalidArgumentError(f"time must be >= 0, got {t}")
        return SpectralField.zero(phi.basis)
    coeffs = history_convolution_profile(
        phi.basis.eigenvalues(), phi.coeffs, t, params, quad, phi.breakpoints
    )
    return SpectralField(phi.basis, coeffs)


def solve(y0: SpectralField, phi: History | None, t: float, params: FlowParams,
          quad: QuadratureRule | None = None) -> SpectralField:
    """Solution at time t: zero-history flow of y0 plus the history convolution."""
    out = flow_apply(y0, t, params)
    if phi is not None and not isinstance(phi, ZeroHistory):
        out = out + history_convolution(phi, t, params, quad)
    return out


@dataclass(frozen=True)
class SolutionTrace:
    """Solution samples at strictly increasing times, one coefficient row per time."""

    times: np.ndarray
    coeffs: np.ndarray
    basis: EigenBasis
    params: FlowParams
    provenance: str

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise InvalidArgumentError("trace times must be strictly increasing")
        if coeffs.shape != (len(times), self.basis.K):
            raise InvalidArgumentError("trace needs one coefficient row per time")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coeffs", coeffs)

    def field_at(self, i: int) -> SpectralField:
        return SpectralField(self.basis, self.coeffs[i])

    def values_on_mesh(self, nx: int) -> tuple[np.ndarray, np.ndarray]:
        """Physical-space samples on a uniform mesh: (x, values[time, x])."""
        xs = self.basis.mesh(nx)
        return xs, self.coeffs @ self.basis.eval_matrix(xs).T


def solve_trace(y0: SpectralField, phi: History | None, times, params: FlowParams,
                quad: QuadratureRule | None = None) -> SolutionTrace:
    """Closed-form solution sampled at the given times."""
    times = np.asarray(times, dtype=float)
    rows = np.stack([solve(y0, phi, float(t), params, quad).coeffs for t in times])
    return SolutionTrace(times, rows, y0.basis, params, "closed-form")


# ---------------------------------------------------------------------------
# Picard iteration of the Volterra integral equation


def picard_solve(y0: SpectralField, phi: History | None, T: float, n_iter: int,
                 dt: float, params: FlowParams,
                 quad: QuadratureRule | None = None) -> SolutionTrace:
    """Iterate y <- F + G y on a uniform grid, starting from y = F.

    F(t) is the heat evolution of y0 plus the history forcing
    a * integral_0^{min(t, tau)} exp(-lambda (t - sigma)) phi(sigma - tau) dsigma,
    and (G f)(t) = a * integral_tau^t exp(-lambda (t - sigma)) f(sigma - tau) dsigma
    is evaluated per mode by trapezoid quadrature on the grid.  The delay must be
    resolved: dt is snapped to tau / round(tau / dt) and rejected when coarser
    than tau / 4.  After n iterations the distance to the exact solution decays
    like (|a| T)^(n+1) / (n+1)! down to the trapezoid floor.
    """
    if T <= 0.0:
        raise InvalidArgumentError(f"horizon must be positive, got {T}")
    if n_iter < 1:
        raise InvalidArgumentError("need at least one iteration")
    n_sub = round(params.tau / dt)
    if n_sub < 4:
        raise InvalidArgumentError(
            f"grid step {dt} too coarse: need at least 4 points per delay interval"
        )
    h = params.tau / n_sub
    n_steps = math.ceil(T / h - 1e-9)
    times = np.arange(n_steps + 1) * h
    lams = y0.basis.eigenvalues()
    quad = quad or QuadratureRule()

    decay = np.exp(-np.outer(times, lams))          # (n_times, K)
    F = decay * y0.coeffs[None, :]
    if phi is not None and not isinstance(phi, ZeroHistory):
        for i, t in enumerate(times):
            hi = min(float(t), params.tau)
            if hi <= 0.0:
                continue
            x, w = quad.points_weights(0.0, hi, [b + params.tau for b in phi.breakpoints])
            rows = np.exp(-lams * (t - x)[:, None]) * phi.coeffs(x - params.tau)
            F[i] += params.a * (w @ rows)

    # decay[m] = exp(-lam * m h); the convolution kernel only needs these powers
    def apply_G(rows: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rows)
        if params.a == 0.0:
            return out
        for i in range(n_sub + 1, n_steps + 1):
            m = i - n_sub + 1                       # sigma nodes tau..t_i
            w = np.full(m, h)
            w[0] = w[-1] = h / 2.0
            kern = decay[i - n_sub::-1]             # exp(-lam (t_i - sigma))
            out[i] = params.a * np.einsum("s,sk,sk->k", w, kern, rows[:m])
        return out

    y = F.copy()
    for _ in range(n_iter):
        y = F + apply_G(y)
    return SolutionTrace(times, y, y0.basis, params, "picard")


# ---------------------------------------------------------------------------
# Compatible histories from per-mode characteristic roots


def characteristic_root(lam: float, a: float, tau: float) -> float:
    """Real root of rho = -lam + a exp(-rho tau), the exponential-solution rate of one mode.

    For a > 0 the root exists and is unique; for a < 0 it may not exist, in
    which case an InvalidArgumentError is raised.
    """
    if a == 0.0:
        return -lam

    def f(rho):
        # capped exponent keeps the bracketing search finite; the root itself
        # always sits where the exponent is moderate
        return a * math.exp(min(-rho * tau, 700.0)) - lam - rho

    hi = abs(a) + 1.0
    candidates = [0.0, -1.0]
    if a < 0:
        candidates.append(math.log(-a * tau) / tau)
    x = -2.0
    while x > -1e6:
        candidates.append(x)
        x *= 2.0
    lo = next((c for c in candidates if f(c) > 0.0), None)
    if lo is None or f(hi) >= 0.0:
        raise InvalidArgumentError(f"no real characteristic root for lam={lam}, a={a}, tau={tau}")
    return float(brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16))


def compatible_history(y0: SpectralField, params: FlowParams) -> ExpModeHistory:
    """Per-mode exponential history that continues smoothly through t = 0.

    Mode k gets phi_k(gamma) = c_k exp(rho_k gamma) with rho_k the characteristic
    root of that mode, so the solution is c_k exp(rho_k t) for all t and every
    endpoint matching condition holds at every order.
    """
    rates = np.array([characteristic_root(lam, params.a, params.tau)
                      for lam in y0.basis.eigenvalues()])
    return ExpModeHistory(y0, rates)
