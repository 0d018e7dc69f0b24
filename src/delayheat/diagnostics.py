"""Computable regularity diagnostics for the delayed heat flow.

Four instruments:

* ``_mode_time_integral`` integrates, for all modes at once but with one
  independent time quadrature per mode, the energy identity of weighted heat
  orbits: the time integral of ||d^alpha/dt^alpha (t^beta e^{t Lap} y0)||^2 in
  the index-(s + 2(beta - alpha) + 1) norm is ``weight_factor`` (the same
  integral for decay rate 1) times the squared index-s norm of y0.

* ``regularity_scan`` estimates a Sobolev order from coefficient decay, fitting
  |c_k| ~ k^{-q} and reporting q - 1/2 (the standard 1-D embedding offset).
  Oscillatory sequences are fit on block envelopes.

* ``lattice_jump_report`` tabulates the predicted jump a^j y0 of the j-th time
  derivative at t = j tau against the measured one-sided derivative gap, and
  ``off_lattice_probe`` checks that the gap vanishes away from the lattice.

* ``compatibility_check`` builds the endpoint matching fields
  g_0 = y0, g_k = a * (d/dt)^{k-1} phi(-tau) + Lap g_{k-1} and compares them
  with the time derivatives of phi at 0; agreement at orders <= r is exactly
  what removes the derivative jumps of the solution at t = 0 and t = tau,
  which ``endpoint_jump_scan`` measures independently by one-sided stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SpectralField, _gauss_panels, hs_norm
from .errors import InvalidArgumentError, UndefinedEstimateError
from .flow import (FlowParams, History, _gammaincc_int, derivative_jump, flow_derivative_factors,
                   solve_trace)

__all__ = [
    "weight_factor",
    "RegularityEstimate",
    "regularity_scan",
    "JumpRow",
    "lattice_jump_report",
    "off_lattice_probe",
    "CompatibilityReport",
    "compatibility_check",
    "EndpointJumpRow",
    "endpoint_jump_scan",
]


# ---------------------------------------------------------------------------
# Weighted-orbit energy identity


def _weighted_derivative_values(t: np.ndarray, lam, alpha: int, beta: int) -> np.ndarray:
    """Exact values of d^alpha/dt^alpha (t^beta e^{-lam t}) by the product rule, lam broadcast."""
    out = np.zeros_like(t)
    for l in range(min(alpha, beta) + 1):
        c = math.comb(alpha, l) * math.factorial(beta) / math.factorial(beta - l)
        out += c * t ** (beta - l) * (-lam) ** (alpha - l)
    return out * np.exp(-lam * t)


def _exact_tail(lam, alpha: int, beta: int, t_cut):
    """Integral over t > t_cut of |d^alpha (t^beta e^{-lam t})|^2, in closed form, per entry of lam.

    Each cross term of the product rule integrates to an upper incomplete
    gamma function of integer order, Q(m + 1, 2 lam t_cut).
    """
    tail = 0.0
    q = _gammaincc_int(2.0 * lam * t_cut, 2 * beta)
    for l in range(min(alpha, beta) + 1):
        for lp in range(min(alpha, beta) + 1):
            c = (math.comb(alpha, l) * math.comb(alpha, lp)
                 * math.factorial(beta) / math.factorial(beta - l)
                 * math.factorial(beta) / math.factorial(beta - lp)
                 * (-lam) ** (2 * alpha - l - lp))
            m = 2 * beta - l - lp
            tail += (c * math.factorial(m) / (2.0 * lam) ** (m + 1)
                     * q[..., m])
    return tail


def weight_factor(alpha: int, beta: int) -> float:
    """Closed form of the universal scalar: integral over t > 0 of |d^alpha (t^beta e^-t)|^2."""
    return float(_exact_tail(1.0, alpha, beta, 0.0))


def _mode_rules(lams: np.ndarray, beta: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T_cut = (60 + 20 beta) / (2 lam) and each mode's time rule as a padded (K, P * 10) row.

    Row k holds, bit for bit, the nodes and weights of QuadratureRule(panels_per_unit=
    max(1, ceil(48 / T_cut)), nodes=10).points_weights(0, T_cut) for lam_k, then
    padding panels of weight exactly 0 up to the largest panel count P.
    """
    t_cut = (60.0 + 20.0 * beta) / (2.0 * lams)
    n_panels = np.maximum(1.0, np.ceil(t_cut * np.maximum(1.0, np.ceil(48 / t_cut))))
    # np.linspace(0, t_cut, n + 1) per row: k (t_cut / n), with the last edge set to t_cut
    edges = np.arange(n_panels.max() + 1) * (t_cut / n_panels)[:, None]
    edges[np.arange(len(lams)), n_panels.astype(int)] = t_cut
    x, w = _gauss_panels(edges, 10)
    live = np.arange(w.shape[1]) < 10 * n_panels[:, None]
    return t_cut, x, np.where(live, w, 0.0)


def _mode_time_integral(lams: np.ndarray, alpha: int, beta: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature of |d^alpha (t^beta e^{-lam t})|^2 on [0, T_cut] plus the exact tail, per lam.

    T_cut scales like 1/lam and leaves the truncated mass below 1e-16 of the
    total; the remainder beyond T_cut is added in closed form as a certified
    tail.  Every mode keeps its own rule (`_mode_rules`), so the quadrature
    stays independent of the scaling law it checks.
    """
    t_cut, x, w = _mode_rules(lams, beta)
    vals = _weighted_derivative_values(x, lams[:, None], alpha, beta)
    return np.sum(w * vals**2, axis=1), _exact_tail(lams, alpha, beta, t_cut)


# ---------------------------------------------------------------------------
# Spectral decay / regularity estimate

_ORDER_CAP = 50.0


@dataclass(frozen=True)
class RegularityEstimate:
    decay_exponent: float
    estimated_order: float
    fit_lo: int
    fit_hi: int
    residual: float
    n_points: int


def regularity_scan(fld: SpectralField, window: tuple[int, int] | None = None,
                    envelope_block: int = 0) -> RegularityEstimate:
    """Fit |c_k| ~ k^{-q} over a mode window and report q - 1/2.

    Zero coefficients are skipped; at least 8 nonzero modes are required.  With
    envelope_block > 1 the fit runs on running maxima over blocks of that many
    modes, which is the right thing for sign-oscillating sequences whose raw
    magnitudes have near-zeros.  Super-polynomial decay caps at q > 50 and is
    reported with an infinite estimated order.
    """
    k_lo, k_hi = window or (1, fld.basis.K)
    if not (1 <= k_lo < k_hi <= fld.basis.K):
        raise InvalidArgumentError(f"window {window} outside 1..{fld.basis.K}")
    ks = np.arange(k_lo, k_hi + 1)
    cs = np.abs(fld.coeffs[k_lo - 1: k_hi])
    keep = cs > 1e-300
    ks, cs = ks[keep], cs[keep]
    if len(ks) == 0:
        raise UndefinedEstimateError("all coefficients in the window vanish")
    if len(ks) < 8:
        raise InvalidArgumentError(f"window has only {len(ks)} nonzero modes, need >= 8")
    if envelope_block > 1:
        bk, bc = [], []
        for start in range(0, len(ks), envelope_block):
            block = slice(start, start + envelope_block)
            i = int(np.argmax(cs[block]))
            bk.append(ks[block][i])
            bc.append(cs[block][i])
        ks, cs = np.asarray(bk), np.asarray(bc)
    logk, logc = np.log(ks.astype(float)), np.log(cs)
    slope, intercept = np.polyfit(logk, logc, 1)
    q = -float(slope)
    resid = float(np.sqrt(np.mean((logc - (slope * logk + intercept)) ** 2)))
    order = math.inf if q > _ORDER_CAP else q - 0.5
    return RegularityEstimate(q, order, int(k_lo), int(k_hi), resid, len(ks))


# ---------------------------------------------------------------------------
# Lattice jump report


@dataclass(frozen=True)
class JumpRow:
    j: int
    predicted_norm: float
    measured_norm: float
    rel_error: float


def lattice_jump_report(y0: SpectralField, params: FlowParams, j_max: int) -> list[JumpRow]:
    """Rows j = 0..j_max of predicted (a^j y0) vs measured derivative jumps at j tau.

    Stated for zero history; a smooth history adds a globally smooth part and
    leaves every lattice jump unchanged.  The relative error is taken mode by
    mode over the modes where the prediction is nonzero.
    """
    rows = []
    for j in range(j_max + 1):
        predicted, measured = derivative_jump(y0, j, params)
        p, m = predicted.coeffs, measured.coeffs
        nz = np.abs(p) > 0.0
        rel = float(np.max(np.abs(m[nz] - p[nz]) / np.abs(p[nz]))) if np.any(nz) else 0.0
        rows.append(JumpRow(j, hs_norm(predicted, 0.0), hs_norm(measured, 0.0), rel))
    return rows


def off_lattice_probe(y0: SpectralField, params: FlowParams, t: float, order: int) -> float:
    """Max per-mode gap between left and right flow derivatives at an off-lattice t.

    Both one-sided evaluations share the same active terms away from the
    lattice, so any nonzero gap is a spurious jump.
    """
    lams = y0.basis.eigenvalues()
    right = flow_derivative_factors(lams, t, order, params, side="right")
    left = flow_derivative_factors(lams, t, order, params, side="left")
    return float(np.max(np.abs((right - left) * y0.coeffs)))


# ---------------------------------------------------------------------------
# Endpoint compatibility


@dataclass(frozen=True)
class CompatibilityReport:
    r: int
    g_fields: list[SpectralField]
    endpoint_derivs: list[SpectralField]
    violations: np.ndarray
    flag_endpoint_regularity: bool   # finite, tail-bounded endpoint derivatives
    flag_g_regularity: bool          # g_k tail-bounded at index 1
    flag_matching: bool              # endpoint derivatives equal g_k within tol
    tol: float

    @property
    def passed(self) -> bool:
        return self.flag_endpoint_regularity and self.flag_g_regularity and self.flag_matching


def _tail_bounded(fld: SpectralField, s: float) -> bool:
    # finite-K surrogate for membership at index s: the top half of the spectrum
    # must not outweigh the bottom half
    K = fld.basis.K
    lam = fld.basis.eigenvalues()
    w = fld.coeffs**2 * lam**s
    head = math.sqrt(float(np.sum(w[: K // 2])))
    tail = math.sqrt(float(np.sum(w[K // 2:])))
    return bool(np.isfinite(head) and np.isfinite(tail) and tail <= head + 1e-300)


def compatibility_check(y0: SpectralField, phi: History | None, params: FlowParams, r: int,
                        tol: float = 1e-9) -> CompatibilityReport:
    """Build g_0..g_r in spectral coordinates and compare with phi's derivatives at 0.

    g_0 = y0 and g_k = a * (d/dt)^{k-1} phi(-tau) + Lap g_{k-1}, the Laplacian
    acting as c -> -lambda c per mode.  The reported violations are the raw
    index-0 norms of (d/dt)^k phi(0) - g_k; the matching flag compares them
    against tol scaled by the larger index-0 norm of the two terms that form
    g_k, a (d/dt)^{k-1} phi(-tau) and lambda g_{k-1} (of y0 for k = 0),
    floored at 1.  g_k grows like lambda^k, and its rounding is relative to
    those terms, which can be far larger than g_k when they cancel, as for a
    compatible history in stiff modes.  The two regularity flags are
    finite-truncation surrogates (spectral-tail boundedness at index 0 for
    phi's endpoint derivatives, index 1 for g_k) and are heuristic by nature.
    phi=None is the zero history.
    """
    if r < 0:
        raise InvalidArgumentError("order r must be >= 0")
    max_order = getattr(phi, "max_derivative_order", None)
    if max_order is not None and r > max_order:
        raise InvalidArgumentError(
            f"history provides time derivatives up to order {max_order}, cannot check r={r}"
        )
    basis = y0.basis
    lam = basis.eigenvalues()
    hist = (lambda g, order: np.zeros(basis.K)) if phi is None else phi.coeffs
    g_fields, scales = [y0], [max(1.0, hs_norm(y0, 0.0))]
    for k in range(1, r + 1):
        delayed, decayed = params.a * hist(-params.tau, order=k - 1), lam * g_fields[-1].coeffs
        g_fields.append(SpectralField(basis, delayed - decayed))
        scales.append(max(1.0, float(np.linalg.norm(delayed)), float(np.linalg.norm(decayed))))
    endpoint = [SpectralField(basis, hist(0.0, order=k)) for k in range(r + 1)]
    violations = np.array([
        hs_norm(endpoint[k] - g_fields[k], 0.0) for k in range(r + 1)
    ])
    flag3 = bool(np.all(violations <= tol * np.array(scales)))
    flag2 = all(_tail_bounded(g, 1.0) for g in g_fields)
    minus_tau = [SpectralField(basis, hist(-params.tau, order=k)) for k in range(r + 1)]
    flag1 = (all(_tail_bounded(f, 0.0) for f in minus_tau)
             and all(_tail_bounded(f, 0.0) for f in endpoint))
    return CompatibilityReport(r, g_fields, endpoint, violations, flag1, flag2, flag3, tol)


# ---------------------------------------------------------------------------
# Measured endpoint jumps of the actual solution


@dataclass(frozen=True)
class EndpointJumpRow:
    t_label: str
    order: int
    mode: int
    left: float
    right: float
    gap: float
    rel_gap: float


def _one_sided_weights(order: int, n: int) -> np.ndarray:
    """Stencil weights c with sum_i c_i f(t0 + s*i*h) = f^(order)(t0) * (s*h)^order."""
    offs = np.arange(n, dtype=float)
    A = np.vander(offs, n, increasing=True).T          # A[p, i] = i^p
    b = np.zeros(n)
    b[order] = math.factorial(order)
    return np.linalg.solve(A, b)


def endpoint_jump_scan(y0: SpectralField, phi: History | None, params: FlowParams, r: int,
                       modes: tuple[int, ...] = (1, 2)) -> list[EndpointJumpRow]:
    """Measure one-sided derivative gaps of the solution at t = 0 and t = tau.

    For each order k <= r and each requested mode, the left and right k-th
    derivatives are estimated from solution samples (history samples on the
    left of 0; phi=None is the zero history) by one-sided stencils on k + 5
    points, and the gap is reported relative to the larger one-sided
    magnitude.  Every solution sample comes from one ``solve_trace`` call.
    This is an independent check on ``compatibility_check``: matching
    endpoint data must drive every gap to the stencil noise floor.
    """
    if r < 0:
        raise InvalidArgumentError("order r must be >= 0")
    accuracy = 5
    lams = y0.basis.eigenvalues()
    lam_max = max(lams[m - 1] for m in modes)
    h = min(params.tau / (4.0 * (r + accuracy)), 0.08 / max(lam_max, 1.0))
    n = r + accuracy
    times_needed = sorted({round(side * i * h + t0, 15)
                           for t0 in (0.0, params.tau)
                           for side in (+1, -1)
                           for i in range(n)
                           if side * i * h + t0 >= 0.0})
    cache = dict(zip(times_needed, solve_trace(y0, phi, times_needed, params).coeffs))
    rows = []
    for t0, label in ((0.0, "0"), (params.tau, "tau")):
        for k in range(r + 1):
            c = _one_sided_weights(k, k + accuracy)
            m_pts = len(c)
            for mode in modes:
                def sample(side, i):
                    t = side * i * h + t0
                    # left of t = 0 the trajectory IS the history, including its
                    # one-sided limit at 0
                    if side < 0 and t0 == 0.0:
                        return 0.0 if phi is None else float(phi.coeffs(t, order=0)[mode - 1])
                    return float(cache[round(t, 15)][mode - 1])

                d_right = sum(c[i] * sample(+1, i) for i in range(m_pts)) / h**k
                d_left = sum(c[i] * sample(-1, i) for i in range(m_pts)) / (-h) ** k
                gap = d_right - d_left
                scale = max(abs(d_right), abs(d_left), 1e-300)
                rows.append(EndpointJumpRow(label, k, mode, d_left, d_right, gap, abs(gap) / scale))
    return rows
