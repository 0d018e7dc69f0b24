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
convolution in closed form, and a Picard iteration of the equivalent Volterra
integral equation whose error contracts factorially in the iteration count; its
history forcing is the same history convolution.  One private kernel evaluates
the series and its derivatives on a whole (times x modes) grid.  `solve_trace`
is the closed-form entry point: one kernel call for the flow of y0 at all
times, plus one history convolution.  Picard's G, a product rule exact on 1, x,
exp(-lambda x) and x exp(-lambda x), is stepped by `basis._method_of_steps` as rk4-modes'
own rule is; sweep n steps only windows n..W, still O(W^2) window steps in all.

History protocol: `phi.coeffs(gamma, order=0)` returns the K mode coefficients
of the order-th time derivative at a scalar gamma, and one row per entry,
shape (n, K), for a 1-D array of n gammas.  `phi.pieces(tau)` returns
(lo, hi, anchor, poly, rates): pieces [lo_p, hi_p] that tile [-tau, 0], on each
of which phi_k(gamma) = exp(rates_k gamma) sum_d poly[p, d, k] (gamma - anchor_p)^d.
Against the series term (a^j / j!) v^j exp(-lam v) every piece integrates
exactly to incomplete gamma functions of integer order, which is how
`history_convolution(lams, phi, ts, params)` sums it: (K,) for a scalar t,
(n, K) for n times.  `phi=None` is the zero history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import EigenBasis, SpectralField, _method_of_steps, _step_grid
from .errors import InvalidArgumentError, TruncationExceededError

__all__ = [
    "FlowParams",
    "ExpModeHistory",
    "GridHistory",
    "SolutionTrace",
    "delayed_exp",
    "history_convolution",
    "solve_trace",
    "flow_derivative_factors",
    "picard_solve",
    "characteristic_root",
    "compatible_history",
]

# Floating guard so times that are lattice points up to rounding are treated as such.
_LATTICE_EPS = 1e-12
_LOG_MAX = math.log(np.finfo(float).max)    # math.exp overflows past this
CANCELLATION_LIMIT = 1e-10      # a closed-form value whose series cancels past this is refused


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


def _series_coeffs(couplings: list[float], j: int, p: int, d: np.ndarray) -> np.ndarray:
    """a^j d^p / p! per coupling a (rows) and entry d >= 0 (columns); 0^0 = 1, +-inf on overflow.

    Formed per entry in scalar float arithmetic, d^p once for every coupling; in log space past
    j = 20, where powers and factorials overflow, and wherever a^j or d^p overflows a float.
    """
    if j <= 20:
        try:
            dp = np.array([x**p for x in d.tolist()]) if p else np.ones(len(d))
            return np.array([[a**j] for a in couplings], dtype=float) * dp / math.factorial(p)
        except OverflowError:
            if len(couplings) > 1:      # each coupling as its own call
                return np.vstack([_series_coeffs([a], j, p, d) for a in couplings])
    cols, lg = [], math.lgamma(p + 1)
    for a in couplings:
        sign, ja = -1.0 if (a < 0 and j % 2 == 1) else 1.0, j * math.log(abs(a)) if a else -math.inf
        logs = [ja + (p * math.log(x) if p > 0 else 0.0) - lg if x > 0.0 or p == 0 else -math.inf
                for x in d.tolist()]
        cols.append(sign * np.array([math.exp(e) if e <= _LOG_MAX else math.inf for e in logs]))
    return np.array(cols)


def _delayed_exp_grid(lams, ts, params: FlowParams, order: int = 0,
                      side: str = "right", a=None) -> np.ndarray:
    """One-sided order-`order` time derivative of E(lambda, t) on the (len(ts), len(lams)) grid.

    Differentiating each polynomial-times-exponential term exactly gives

        sum_j a^j sum_{l=0}^{min(order, j)} C(order, l)
              (t - j tau)^{j-l} / (j-l)!  (-lambda)^{order-l}  exp(-lambda (t - j tau)),

    with 0^0 = 1; order 0 is E itself.  `side` selects which terms are active at
    a lattice point: "right" includes j = t/tau, "left" does not.  Coefficients
    come from `_series_coeffs`, so every row equals the same time evaluated
    alone, bit for bit.  Couplings `a` of shape (C, 1, 1) replace `params.a`: one grid each,
    (C, len(ts), len(lams)), bit for bit its scalar call where finite (a = 0 adds zeros).
    """
    couplings, tau = [params.a] if a is None else np.ravel(a).astype(float).tolist(), params.tau
    if a is not None and np.shape(a)[-2:] != (1, 1):
        raise InvalidArgumentError(f"couplings must have shape (C, 1, 1), got {np.shape(a)}")
    lams, ts = np.asarray(lams, dtype=float), np.asarray(ts, dtype=float)
    if ts.size:
        params.series_index(float(ts.max()))            # the j_max guard, at the latest time
    tops = np.floor(ts / tau + _LATTICE_EPS)            # series_index per time
    if side == "left":
        tops -= np.abs(ts - tops * tau) <= _LATTICE_EPS * np.maximum(1.0, np.abs(ts))
    n_terms = int(tops.max(initial=-1.0)) + 1
    out = np.zeros((len(couplings), len(ts), len(lams)))
    for j in range(n_terms if any(couplings) else min(n_terms, 1)):
        dts = np.maximum(ts - j * tau, 0.0)
        decay = np.exp(-lams * dts[:, None])
        for l in range(min(order, j) + 1):
            p = j - l
            live = tops >= j
            coef = np.zeros((len(couplings), len(ts)))
            coef[:, live] = _series_coeffs(couplings, j, p, dts[live]) * math.comb(order, l)
            out += coef[:, :, None] * (1.0 if l == order else np.power(-lams, order - l)) * decay
    return out[0] if a is None else out.reshape(np.shape(a)[:-2] + out.shape[1:])


def series_cancellation(lams, ts, params: FlowParams) -> np.ndarray:
    """eps E(lambda, t; |a|) / |E(lambda, t; a)| on the (len(ts), len(lams)) grid, nan where both
    sums underflow to 0.  Every factor of a series term but a^j is positive, so the sum at |a| is
    sum |terms|, and this is the relative rounding the sum at a can carry (Higham 2002, §4.2):
    eps for a >= 0; for a < 0, at t = 40, 2.2e-13 for L = 1, a = -1 and 5.1e-3 for L = 10, a = -2.
    """
    couplings = np.reshape([params.a, abs(params.a)], (2, 1, 1))
    signed, total = _delayed_exp_grid(lams, ts, params, a=couplings)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.finfo(float).eps * total / np.abs(signed)


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


# ---------------------------------------------------------------------------
# History representations


class ExpModeHistory:
    """Separable-in-time history phi_k(gamma) = c_k exp(rate_k * gamma).

    `rates` may be a scalar (one profile for every mode; 0 gives a constant-in-time
    history) or a per-mode array.  Time derivatives of every order are exact.
    """

    max_derivative_order: int | None = None

    def __init__(self, fld: SpectralField, rates: float | np.ndarray = 0.0):
        self.basis = fld.basis
        self.field = fld
        self.rates = np.broadcast_to(np.asarray(rates, dtype=float), (fld.basis.K,)).copy()
        if not np.all(np.isfinite(self.rates)):
            raise InvalidArgumentError("history rates must be finite")

    def coeffs(self, gamma, order: int = 0) -> np.ndarray:
        return self.field.coeffs * self.rates**order * np.exp(np.multiply.outer(gamma, self.rates))

    def pieces(self, tau: float):
        """One degree-0 piece on [-tau, 0] with the history's rates (see the module docstring)."""
        return (np.array([-tau]), np.array([0.0]), np.array([-tau]),
                self.field.coeffs[None, None, :], self.rates)


def _not_a_knot_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline (de Boor 1978) from the (P, 1) interval
    widths h and (P, K) secant slopes m: one tridiagonal elimination for all K columns, no
    pivoting (pivots h_1, h_0 + h_1, then diagonally dominant rows)."""
    if len(h) < 3:          # the end conditions coincide: the line or parabola through the samples
        d = (m[-1] - m[0]) / (h[0] + h[-1])
        return np.concatenate([m[:1] - d * h[0], m + d * h])
    h, d0, d1 = h[:, 0], h[0, 0] + h[1, 0], h[-2, 0] + h[-1, 0]
    lower, upper = np.r_[0.0, h[1:], d1], np.r_[d0, h[:-1], 0.0]
    diag = np.r_[h[1], 2.0 * (h[:-1] + h[1:]), h[-2]]
    rhs = np.vstack([((h[0] + 2.0 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0,
                     3.0 * (h[1:, None] * m[:-1] + h[:-1, None] * m[1:]),
                     (h[-1] ** 2 * m[-2] + (2.0 * d1 + h[-1]) * h[-2] * m[-1]) / d1])
    for i in range(1, len(diag)):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    rhs[-1] /= diag[-1]
    for i in range(len(diag) - 2, -1, -1):
        rhs[i] = (rhs[i] - upper[i] * rhs[i + 1]) / diag[i]
    return rhs


class GridHistory:
    """History given as fields on a time grid that spans [-tau, 0].

    interp_order 1 is piecewise linear (values only); interp_order 3 is the not-a-knot
    cubic spline, with time derivatives up to order 2.  Both are built once as
    `poly[i, d, k]`, the coefficient of (gamma - times[i])^d on sample interval i, read by
    `pieces` and by `coeffs` (Horner), which rejects a gamma outside the samples.
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
        self.max_derivative_order = interp_order - 1
        h = np.diff(times)[:, None]
        m = np.diff(coeff_rows, axis=0) / h
        poly = [coeff_rows[:-1], m]
        if interp_order == 3:       # the cubic Hermite form with the spline's node slopes s
            s = _not_a_knot_slopes(h, m)
            c3 = (s[:-1] + s[1:] - 2.0 * m) / h
            poly = [coeff_rows[:-1], s[:-1], (m - s[:-1]) / h - c3, c3 / h]
        self.poly = np.stack(poly, axis=1)

    def coeffs(self, gamma, order: int = 0) -> np.ndarray:
        if order > self.max_derivative_order:
            raise InvalidArgumentError(
                f"grid history (order-{self.interp_order} interpolation) has no derivative {order}"
            )
        g, lo, hi = np.asarray(gamma, dtype=float), self.times[0], self.times[-1]
        off = np.abs(g - np.clip(g, lo, hi)) > _LATTICE_EPS * np.maximum(1.0, np.abs(g))
        if np.any(off):
            raise InvalidArgumentError(f"gamma = {g[off][0]!r} is outside the grid history "
                                       f"samples [{lo!r}, {hi!r}]")
        i = np.clip(np.searchsorted(self.times, g, side="right") - 1, 0, len(self.times) - 2)
        x, out = np.expand_dims(g - self.times[i], -1), 0.0
        for d in range(self.poly.shape[-2] - 1, order - 1, -1):     # one degree's rows at a time
            out = out * x + math.perm(d, order) * self.poly[i, d]
        return out

    def pieces(self, tau: float):
        """The sample intervals cut to [-tau, 0], each with its interpolating polynomial.

        Raises InvalidArgumentError when the samples do not reach both -tau and
        0 (up to rounding): the history is never extended past its samples.
        """
        lo, hi = float(self.times[0]), float(self.times[-1])
        tol = _LATTICE_EPS * max(1.0, tau)
        if lo > -tau + tol or hi < -tol:
            raise InvalidArgumentError(
                f"grid history samples cover [{lo:g}, {hi:g}], not all of [-tau, 0] for tau = {tau:g}"
            )
        edges = np.clip(self.times, -tau, 0.0)
        edges[0], edges[-1] = -tau, 0.0
        return edges[:-1], edges[1:], self.times[:-1], self.poly, np.zeros(self.basis.K)


History = ExpModeHistory | GridHistory


# ---------------------------------------------------------------------------
# Variation-of-constants solution


def _gammaincc_int(x, n: int) -> np.ndarray:
    """Q(i + 1, x) = exp(-x) sum_{l<=i} x^l / l! for i = 0..n, along a new last axis.

    The regularized upper incomplete gamma function of integer order (DLMF
    8.4.10); the same finite sum continues it to x < 0.  Each Poisson term is
    the previous one times x / l, so nothing overflows for x >= 0.
    """
    x = np.asarray(x, dtype=float)
    steps = np.empty(x.shape + (n + 1,))
    steps[..., 0] = np.exp(-x)
    steps[..., 1:] = x[..., None] / np.arange(1, n + 1)
    return steps.cumprod(axis=-1).cumsum(axis=-1)


def _exp_moments(mu: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """M[..., i] = integral_0^w (s^i / i!) exp(-mu s) ds for i = 0..n and w >= 0.

    With x = mu w this is w^(i+1) exp(-x) phi_{i+1}(x), phi_k(x) = sum_m x^m / (m + k)!.
    Where |x| > i + 1 it is taken as (1 - Q(i + 1, x)) / mu^(i+1), a difference
    that does not cancel there.  Elsewhere the Taylor series of phi_{i+1} is
    summed until its terms, positive for x >= 0 and alternating with
    decreasing size for x < 0, no longer change the sum, so every entry is
    the same whatever else is in the batch.
    """
    mu, w = np.broadcast_arrays(np.asarray(mu, dtype=float), np.asarray(w, dtype=float))
    i = np.arange(n + 1)
    x = mu * w
    inv_mu = 1.0 / np.where(np.abs(x) > 1.0, mu, 1.0)    # only entries with |x| > 1 use it
    out = (1.0 - _gammaincc_int(x, n)) * np.cumprod(np.repeat(inv_mu[..., None], n + 1, -1), -1)
    near = np.abs(x[..., None]) <= i + 1
    xn = np.broadcast_to(x[..., None], near.shape)[near]
    k = np.broadcast_to(i + 1.0, near.shape)[near]
    term = np.ones(len(xn))
    total = term.copy()
    m = 0
    while True:
        m += 1
        term *= xn / (k + m)
        total += term
        if not np.any(np.abs(term) > 2.0**-54 * total):
            break
    scale = np.cumprod(w[..., None] / np.arange(1, n + 2), axis=-1)      # w^(i+1) / (i+1)!
    out[near] = scale[near] * np.exp(-xn) * total
    return out


def history_convolution(lams: np.ndarray, phi: History, ts, params: FlowParams) -> np.ndarray:
    """a * integral_{-tau}^{min(t-tau, 0)} E(lam, t - tau - gamma) phi(gamma) dgamma, exactly.

    `ts` is a scalar time, giving shape (len(lams),), or a 1-D array of n
    times, giving one row per time, shape (n, len(lams)), the convention of
    `phi.coeffs`.  Series term j sees gamma in [-tau, min(0, t - (j+1) tau)].
    On each piece of `phi.pieces(tau)` cut to that range write
    v = t - (j+1) tau - gamma = v_a + s, s in [0, w], anchored at the piece's
    small-v end; then (v_a + s)^j / j! times the piece polynomial expands into
    powers of s with no cancelling terms, and each power integrates against
    exp(-(lam + rate) s) to an `_exp_moments` entry.  Raises
    InvalidArgumentError for a negative time or a grid history that does not
    span [-tau, 0].  A sum that overflows is left as inf or nan for the
    caller's finiteness check.
    """
    lams = np.asarray(lams, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0.0):
        raise InvalidArgumentError(f"time must be >= 0, got {ts.min()}")
    a, tau = params.a, params.tau
    lo, hi, anchor, poly, rates = phi.pieces(tau)
    t = ts.ravel()
    out = np.zeros((t.size, len(lams)))
    n_terms = params.series_index(float(t.max())) + 1 if t.size and a != 0.0 else 0
    mu, deg = lams + rates, poly.shape[1] - 1
    terms = []          # (j, u, gb, live) of each term whose range meets a piece
    for j in range(n_terms):
        u = t - (j + 1) * tau
        gb = np.minimum(hi, u[:, None])             # (times, pieces): small-v end of each cut piece
        live = gb > lo
        if live.any():
            terms.append((j, u, gb, live))
    if not terms:
        return out.reshape(ts.shape + lams.shape)
    # one moment table for every term: an entry depends on its width and order alone
    widths = [gb[live] - lo[np.nonzero(live)[1]] for _, _, gb, live in terms]
    table, which = np.unique(np.concatenate(widths), return_inverse=True)
    moments = _exp_moments(mu, table[:, None], terms[-1][0] + deg)
    splits = np.cumsum([len(w) for w in widths])[:-1]
    for (j, u, gb, live), rows in zip(terms, np.split(which, splits)):
        ti, pi = np.nonzero(live)
        gb = gb[live]
        va, delta = u[ti] - gb, gb - anchor[pi]
        # piece polynomial in powers of s: q_m = (-1)^m sum_k C(k, m) poly_k delta^(k - m)
        dpow = [np.ones_like(delta)]
        for _ in range(deg):
            dpow.append(dpow[-1] * delta)
        coef = poly[pi]
        q = [(-1) ** m * sum(math.comb(k, m) * coef[:, k] * dpow[k - m][:, None]
                             for k in range(m, deg + 1)) for m in range(deg + 1)]
        # a^(j+1) (v_a + s)^j / j! = sum_i a^(j+1) v_a^(j-i) / (j-i)! * s^i / i!
        c = [_series_coeffs([a], j + 1, j - i, va)[0] for i in range(j + 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            acc = np.zeros((len(gb), len(lams)))
            # s^i / i! * s^m = (i+m)! / i! * s^(i+m) / (i+m)!, whose integral is moment i+m
            for m in range(deg + 1):
                inner = sum(c[i][:, None] * (math.factorial(i + m) // math.factorial(i))
                            * moments[rows, :, i + m] for i in range(j + 1))
                acc += q[m] * inner
            acc *= np.exp(np.multiply.outer(gb, rates) - np.multiply.outer(va, lams))
            full = np.zeros(live.shape + (len(lams),))
            full[live] = acc
            out += full.sum(axis=1)
    return out.reshape(ts.shape + lams.shape)


@dataclass(frozen=True)
class SolutionTrace:
    """Solution samples at strictly increasing times, one coefficient row per time.

    `residuals` is set by `picard_solve`: for each sweep, max over time of
    the L2 norm over modes of y_{n+1} - y_n.
    """

    times: np.ndarray
    coeffs: np.ndarray
    basis: EigenBasis
    residuals: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise InvalidArgumentError("trace times must be strictly increasing")
        if coeffs.shape != (len(times), self.basis.K):
            raise InvalidArgumentError("trace needs one coefficient row per time")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coeffs", coeffs)


def solve_trace(y0: SpectralField, phi: History | None, times,
                params: FlowParams) -> SolutionTrace:
    """Closed-form solution at strictly increasing times >= 0.

    The one closed-form evaluation: the flow of y0 plus the history
    convolution, each one call over all times.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise InvalidArgumentError(f"time must be >= 0, got {times.min()}")
    lams = y0.basis.eigenvalues()
    with np.errstate(over="ignore", invalid="ignore"):     # callers check rows are finite
        rows = _delayed_exp_grid(lams, times, params) * y0.coeffs
        if phi is not None:
            rows = rows + history_convolution(lams, phi, times, params)
    return SolutionTrace(times, rows, y0.basis)


# ---------------------------------------------------------------------------
# Picard iteration of the Volterra integral equation


def picard_solve(y0: SpectralField, phi: History | None, T: float, dt: float,
                 params: FlowParams) -> SolutionTrace:
    """Iterate y <- F + G y on a uniform grid, starting from y = F, to its fixed point.

    F(t) is the heat evolution of y0 plus the history forcing
    a * integral_0^{min(t, tau)} exp(-lambda (t - sigma)) phi(sigma - tau) dsigma
    (none for phi=None), and (G f)(t) = a * integral_tau^t exp(-lambda (t - sigma))
    f(sigma - tau) dsigma is evaluated per mode and grid step by an exponentially
    fitted Hermite product rule (`_picard_weights`), exact where f is a combination
    of 1, s, exp(-lambda s) and s exp(-lambda s) on the step, with the slopes of f
    from the equation itself.  It converges at fourth order; at the CLI's defaults
    (K = 60, dt = 1/64) the point mass is within 1e-6 of the closed form.  Up to
    tau the forcing is the history convolution of `solve_trace`, so there the
    iterate equals `solve_trace`; past tau it is its value at tau times
    exp(-lambda (t - tau)).  The delay must be resolved: dt is snapped to
    tau / round(tau / dt) and rejected when coarser than tau / 4.  G shifts by
    tau, so on a grid of W delay windows (W = ceil(T / tau) up to the grid's
    rounding) G^W = 0: this is the method of steps, and its W sweeps of
    `_picard_iterates` reach the fixed point, whose distance to the exact
    solution is the product rule's error.  The trace carries the W per-sweep
    residuals max_t ||y_{n+1}(t) - y_n(t)||, which contract like
    (|a| T)^(n+1) / (n+1)! and end in exactly 0 (all 0 for a = 0).
    """
    residuals = []
    for times, y, residual in _picard_iterates(y0, phi, T, dt, params):
        residuals.append(residual)
    return SolutionTrace(times, y, y0.basis, np.array(residuals))


def _picard_iterates(y0: SpectralField, phi: History | None, T: float, dt: float,
                     params: FlowParams):
    """Set up `picard_solve`'s grid, forcing F and G once, then yield (times, y_n, residual_n)
    for n = 1..W, W = ceil(n_steps / n_sub), one G sweep each.

    Iterate n is F + g, g = G y_{n-1}: 0 up to tau, then g' = -lam g + a y_{n-1}(t - tau), with
    y_{n-1}' = -lam y_{n-1} + a D, D(s) = phi(s - tau) below tau and y_{n-2}(s - tau) from tau on
    (y_{-1} = 0, y_0 = F).  Iterates n - 1 and n differ only on rows past n n_sub, where G^n F
    starts, so sweep n steps g from window n on and, from n = 2 (y_0 = F is not F + g), forms
    F + g and the residual there alone: above, y_n copies y_{n-1}, whose x - x is 0, or nan
    once such a row holds inf or nan.  Sweep W steps nothing, its residual is 0."""
    if T <= 0.0:
        raise InvalidArgumentError(f"horizon must be positive, got {T}")
    n_sub, times = _step_grid(params.tau, dt, T, min_sub=4)
    h, n_steps = times[1], len(times) - 1
    lams = y0.basis.eigenvalues()

    decay = np.exp(-np.outer(times, lams))          # (n_times, K)
    F = decay * y0.coeffs[None, :]
    if phi is not None:
        m = min(n_sub, n_steps) + 1                 # grid times in [0, tau]
        H = history_convolution(lams, phi, times[:m], params)
        F[:m] += H
        F[m:] += decay[1:len(times) - m + 1] * H[-1]

    ah = params.a * h
    C0, C1, D0, D1 = _picard_weights(lams * h)
    weights = (ah * C0, ah * C1, ah * h * D0, ah * h * D1)
    hist = (np.zeros((n_sub + 1, len(lams))) if phi is None
            else phi.coeffs(np.arange(n_sub + 1) * h - params.tau))     # phi(t_m - tau), m <= n_sub
    g, y, prev = np.zeros_like(F), F, np.zeros_like(F)
    lo, same = 0, 0.0           # the first row sweep n changes, the residual of those above
    for n in range(1, math.ceil(n_steps / n_sub) + 1):
        _method_of_steps(g, n_sub, decay[1], lams, params.a, weights, hist, y, prev, start=n)
        if n > 1:
            lo, top = min(n * n_sub + 1, len(F)), lo
            same = same if np.all(np.isfinite(y[top:lo])) else np.nan
        new = y.copy()
        np.add(F[lo:], g[lo:], out=new[lo:])
        y, prev = new, y
        yield times, y, np.max(np.linalg.norm(y[lo:] - prev[lo:], axis=1), initial=same)


def _fitted_weights(z):
    """The closed forms of `_picard_weights`, with E = exp(-z) scaled out so nothing overflows."""
    E, u = np.exp(-z), -np.expm1(-z)
    den = z * (z * z * E - u * u)
    return (E * (u * u + z * u - 0.5 * z * z * (1.0 + 3.0 * E)) / den,
            (0.5 * z * z * E * (3.0 + E) - z * E * u - u * u) / den,
            E * (4.0 * z * u - 2.0 * u * u - z * z * (z * E + 1.0 + E)) / (2.0 * z * den),
            (2.0 * u * u - 4.0 * z * E * u - z * z * E * (z - 1.0 - E)) / (2.0 * z * den))


_FIT_SWITCH = 2.0       # below it the closed forms cancel; their circle mean takes over
_RING_BLOCK = 16        # modes per block of circle points, which bounds their temporaries


def _picard_weights(z) -> np.ndarray:
    """(C0, C1, D0, D1), shape (4, len(z)), of the product rule for z = lam h >= 0,
    integral_0^h exp(-lam (h - x)) f(x) dx ~ h (C0 f(0) + C1 f(h)) + h^2 (D0 f'(0) + D1 f'(h)),
    exact on f in span{1, x, exp(-lam x), x exp(-lam x)} (exponential fitting, Ixaru and
    Vanden Berghe 2004); z = 0 gives the cubic Hermite weights 1/2, 1/2, 1/12, -1/12.

    The closed forms lose digits like 1e-16 / z^5 as z -> 0.  Below `_FIT_SWITCH` each weight
    is their mean over 64 points on the circle of radius 4 about z (Cauchy's mean value
    theorem, as Kassam and Trefethen 2005 evaluate the phi-functions of ETDRK4): the nearest
    poles lie at |z| = 9.55 and every point stays 2 away from 0; `_RING_BLOCK` modes at a time.
    Both sides are within 2e-15 of an exact solve; C0 and D0 carry a factor exp(-z) and
    underflow past z = 745.
    """
    z = np.asarray(z, dtype=float)
    small = np.flatnonzero(z < _FIT_SWITCH)
    w = np.array(_fitted_weights(np.maximum(z, _FIT_SWITCH)))
    ring = 4.0 * np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    for cols in np.split(small, np.arange(_RING_BLOCK, len(small), _RING_BLOCK)):
        w[:, cols] = np.array(_fitted_weights(z[cols, None] + ring)).real.mean(axis=-1)
    return w


# ---------------------------------------------------------------------------
# Compatible histories from per-mode characteristic roots


def characteristic_root(lam, a: float, tau: float):
    """Real root rho of rho = -lam + a exp(-rho tau), the exponential-solution rate of a mode.

    A float for a scalar `lam`, an array of roots for an array.  With
    w = (rho + lam) tau, w = W(a tau exp(lam tau)) on Lambert W's principal
    branch: for a < 0 the larger real root, and InvalidArgumentError when
    L = log(|a| tau) + lam tau > -1 leaves none.  Newton's method starts at
    w = L - log L (L > 1) or a tau exp(lam tau) and runs on rho (w / tau - lam
    cancels for stiff modes) in the log form log(s (rho + lam)) + tau rho =
    log|a|, s = sign(a), which is concave and monotone: after the first step
    it approaches the root from one side, inside the domain.
    """
    lams = np.asarray(lam, dtype=float)
    rho = -lams
    if a != 0.0:
        s, log_a = math.copysign(1.0, a), math.log(abs(a))
        L = log_a + math.log(tau) + lams * tau
        if a < 0.0 and np.any(L > -1.0):
            raise InvalidArgumentError(f"no real characteristic root for lam={lams.max()}, a={a}, tau={tau}")
        rho += np.where(L > 1.0, L - np.log(np.maximum(L, 1.0)), s * np.exp(np.minimum(L, 1.0))) / tau
        for _ in range(100):            # a guard: a handful of steps reach 2 ulp
            d = s * (rho + lams)        # > 0 in the domain; 0 where the root rounds to -lam
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(d > 0.0, (np.log(d) + tau * rho - log_a) * d / (s + tau * d), 0.0)
            rho = rho - step
            if np.all(np.abs(step) <= 2.0 * np.spacing(np.maximum(np.abs(rho), 1.0 / tau))):
                break
    return float(rho) if rho.ndim == 0 else rho


def compatible_history(y0: SpectralField, params: FlowParams) -> ExpModeHistory:
    """Per-mode exponential history that continues smoothly through t = 0.

    Mode k gets phi_k(gamma) = c_k exp(rho_k gamma) with rho_k the characteristic
    root of that mode, so the solution is c_k exp(rho_k t) for all t and every
    endpoint matching condition holds at every order.
    """
    return ExpModeHistory(y0, characteristic_root(y0.basis.eigenvalues(), params.a, params.tau))
