"""Computable regularity diagnostics for the delayed heat flow.

Three instruments:

* ``_mode_time_integral`` integrates, for all modes and several alphas of one
  beta at once but with one independent time quadrature per mode, the energy
  identity of weighted heat orbits: the time integral of
  ||d^alpha/dt^alpha (t^beta e^{t Lap} y0)||^2 in the index-(s + 2(beta - alpha) + 1) norm
  is ``weight_factor`` (the same integral for decay rate 1) times the squared index-s norm
  of y0.

* ``lattice_jump_report`` tabulates the predicted jump a^j y0 of the j-th time
  derivative at t = j tau against the measured one-sided derivative gap.  Off
  the lattice both one-sided series sum the same terms, so the gap there is 0
  by construction and needs no instrument.

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
from .errors import InvalidArgumentError, NonFiniteOutputError, TruncationExceededError
from .flow import FlowParams, History, _gammaincc_int, flow_derivative_factors, solve_trace

__all__ = [
    "weight_factor",
    "JumpRow",
    "lattice_jump_report",
    "CompatibilityReport",
    "compatibility_check",
    "EndpointJumpRow",
    "endpoint_jump_scan",
]


# ---------------------------------------------------------------------------
# Weighted-orbit energy identity


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

    Row k holds, bit for bit, the nodes and weights of `_gauss_panels(np.linspace(0, T_cut, n + 1),
    10)` for lam_k, n = max(1, ceil(T_cut max(1, ceil(48 / T_cut)))) panels, then padding panels
    of weight exactly 0 up to the largest panel count P.
    """
    t_cut = (60.0 + 20.0 * beta) / (2.0 * lams)
    n_panels = np.maximum(1.0, np.ceil(t_cut * np.maximum(1.0, np.ceil(48 / t_cut))))
    # np.linspace(0, t_cut, n + 1) per row: k (t_cut / n), with the last edge set to t_cut
    edges = np.arange(n_panels.max() + 1) * (t_cut / n_panels)[:, None]
    edges[np.arange(len(lams)), n_panels.astype(int)] = t_cut
    x, w = _gauss_panels(edges, 10)
    live = np.arange(w.shape[1]) < 10 * n_panels[:, None]
    return t_cut, x, np.where(live, w, 0.0)


def _mode_time_integral(lams: np.ndarray, alphas, beta: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature of |d^alpha (t^beta e^{-lam t})|^2 on [0, T_cut], and the exact tail, per lam
    and per alpha in `alphas`: two (len(alphas), K) arrays, row i for alphas[i].

    T_cut scales like 1/lam and leaves the truncated mass below 1e-16 of the
    total; the remainder beyond T_cut is added in closed form as a certified
    tail.  Every mode keeps its own rule (`_mode_rules`), so the quadrature
    stays independent of the scaling law it checks.  The rule, e^{-lam t} and
    the powers of t depend on beta alone and are built once for every alpha;
    the derivative is the product rule's sum, in the order of its terms.
    """
    t_cut, x, w = _mode_rules(lams, beta)
    lam = lams[:, None]
    decay, powers = np.exp(-lam * x), [x ** k for k in range(beta + 1)]
    bulk, tail = [], []
    for alpha in alphas:
        vals = np.zeros_like(x)
        for l in range(min(alpha, beta) + 1):
            c = math.comb(alpha, l) * math.factorial(beta) / math.factorial(beta - l)
            vals += c * powers[beta - l] * (-lam) ** (alpha - l)
        vals *= decay
        bulk.append(np.sum(w * vals**2, axis=1))
        tail.append(_exact_tail(lams, alpha, beta, t_cut))
    return np.array(bulk), np.array(tail)


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

    The measured jump is the right limit minus the left limit of the exact
    j-th derivative at the lattice point: the shared smooth terms cancel
    identically, so this is the eps -> 0 limit of the one-sided gap in closed
    form.  Stated for zero history; a smooth history adds a globally smooth
    part and leaves every lattice jump unchanged.  The relative error is taken
    mode by mode over the modes where the prediction is nonzero.
    """
    if j_max > params.j_max:
        raise TruncationExceededError(f"lattice index {j_max} above the j_max={params.j_max} guard")
    lams = y0.basis.eigenvalues()
    rows = []
    for j in range(j_max + 1):
        right, left = (flow_derivative_factors(lams, j * params.tau, j, params, side=side)
                       for side in ("right", "left"))
        predicted = SpectralField(y0.basis, params.a**j * y0.coeffs)
        measured = SpectralField(y0.basis, (right - left) * y0.coeffs)
        p, m = predicted.coeffs, measured.coeffs
        nz = np.abs(p) > 0.0
        rel = float(np.max(np.abs(m[nz] - p[nz]) / np.abs(p[nz]))) if np.any(nz) else 0.0
        rows.append(JumpRow(j, hs_norm(predicted, 0.0), hs_norm(measured, 0.0), rel))
    return rows


# ---------------------------------------------------------------------------
# Endpoint compatibility


@dataclass(frozen=True)
class CompatibilityReport:
    r: int
    g_fields: list[SpectralField]
    violations: np.ndarray
    flag_endpoint_regularity: bool   # finite, tail-bounded endpoint derivatives
    flag_g_regularity: bool          # g_k tail-bounded at index 1
    flag_matching: bool              # endpoint derivatives equal g_k within tol
    tol: float


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
    phi=None is the zero history.  NonFiniteOutputError names the first order
    whose field or violation is not finite, which for the zero history and
    K = 60 is order 34, where the squares of lambda_60^34 overflow.
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
    g_fields, endpoint, minus_tau, violations, scales = [], [], [], [], []
    with np.errstate(over="ignore", invalid="ignore"):      # a non-finite order raises below
        for k in range(r + 1):
            if k == 0:
                g, scale = y0.coeffs, max(1.0, hs_norm(y0, 0.0))
            else:
                delayed, decayed = params.a * minus_tau[-1].coeffs, lam * g_fields[-1].coeffs
                g = delayed - decayed
                scale = max(1.0, float(np.linalg.norm(delayed)), float(np.linalg.norm(decayed)))
            end, before = hist(0.0, order=k), hist(-params.tau, order=k)
            violation = math.sqrt(float(np.sum((end - g) ** 2)))     # hs_norm(end - g, 0)
            if not (math.isfinite(violation) and np.all(np.isfinite(before))):
                raise NonFiniteOutputError(
                    f"compatibility order {k} of r = {r} is not finite: g_{k}, violation_{k} or "
                    f"a history derivative overflows (g_k grows like lambda_K^k, lambda_K = "
                    f"{lam[-1]:.3g})")
            g_fields.append(SpectralField(basis, g))
            endpoint.append(SpectralField(basis, end))
            minus_tau.append(SpectralField(basis, before))
            violations.append(violation)
            scales.append(scale)
        violations = np.array(violations)
        flag3 = bool(np.all(violations <= tol * np.array(scales)))
        flag2 = all(_tail_bounded(g, 1.0) for g in g_fields)
        flag1 = (all(_tail_bounded(f, 0.0) for f in minus_tau)
                 and all(_tail_bounded(f, 0.0) for f in endpoint))
    return CompatibilityReport(r, g_fields, violations, flag1, flag2, flag3, tol)


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
