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
  by construction and needs no instrument.  A jump whose derivative factors
  overflow (j = 65 at K = 60) raises NonFiniteOutputError.

* ``compatibility_check`` builds the endpoint matching fields
  g_0 = y0, g_k = a * (d/dt)^{k-1} phi(-tau) + Lap g_{k-1}, one row per order of
  one array, and compares them with the time derivatives of phi at 0; agreement
  at orders <= r is exactly what removes the derivative jumps of the solution at
  t = 0 and t = tau, which ``endpoint_jump_scan`` measures independently by
  one-sided stencils over one table of solution and history samples.  Every
  norm is a row norm scaled before squaring, so an order is reported while its
  field is a finite float.
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
        with np.errstate(over="ignore", invalid="ignore"):      # a non-finite jump raises below
            right, left = (flow_derivative_factors(lams, j * params.tau, j, params, side=side)
                           for side in ("right", "left"))
            jump = (right - left) * y0.coeffs
        if not np.all(np.isfinite(jump)):
            raise NonFiniteOutputError(
                f"lattice jump j = {j} of j_max = {j_max} is not finite: the order-{j} "
                f"derivative factors overflow (they grow like lambda_K^j, lambda_K = "
                f"{lams[-1]:.3g})")
        predicted = SpectralField(y0.basis, params.a**j * y0.coeffs)
        measured = SpectralField(y0.basis, jump)
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


def _norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row (the last axis), its entries divided by the row's largest
    magnitude before squaring (Higham 2002, §27.5): it overflows only where the norm does, and
    is NaN for a row that holds inf or NaN."""
    top = np.max(np.abs(rows), axis=-1, keepdims=True, initial=0.0)
    return top[..., 0] * np.sqrt(np.sum((rows / np.where(top > 0.0, top, 1.0)) ** 2, axis=-1))


def _tail_bounded(rows: np.ndarray, lam: np.ndarray, s: float) -> bool:
    # finite-K surrogate for membership at index s: in every row the top half of the
    # spectrum must not outweigh the bottom half
    weighted, half = rows * lam ** (s / 2.0), rows.shape[-1] // 2
    head, tail = _norms(weighted[:, :half]), _norms(weighted[:, half:])
    return bool(np.all(np.isfinite(head) & np.isfinite(tail) & (tail <= head + 1e-300)))


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
    K = 60 is order 68, where lambda_60^68 itself overflows: the norms divide
    each row by its largest entry before squaring, so orders to 67 report.
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
    with np.errstate(over="ignore", invalid="ignore"):      # a non-finite order raises below
        # row k of `end` and `before`: (d/dt)^k phi at 0 and at -tau
        end, before = np.zeros((2, r + 1, basis.K)) if phi is None else np.stack(
            [phi.coeffs(np.array([0.0, -params.tau]), order=k) for k in range(r + 1)], axis=1)
        delayed = params.a * before         # row k - 1 forms g_k
        g = np.empty_like(end)
        g[0] = y0.coeffs
        for k in range(1, r + 1):
            g[k] = delayed[k - 1] - lam * g[k - 1]
        violations = _norms(end - g)
        bad = ~(np.isfinite(violations) & np.all(np.isfinite(before), axis=1))
        if bad.any():
            k = int(np.argmax(bad))
            raise NonFiniteOutputError(
                f"compatibility order {k} of r = {r} is not finite: g_{k}, violation_{k} or "
                f"a history derivative overflows (g_k grows like lambda_K^k, lambda_K = "
                f"{lam[-1]:.3g})")
        scales = np.maximum(1.0, np.r_[_norms(g[:1]), np.maximum(_norms(delayed[:-1]),
                                                                   _norms(lam * g[:-1]))])
        flag3 = bool(np.all(violations <= tol * scales))
        flag2 = _tail_bounded(g, lam, 1.0)
        flag1 = _tail_bounded(np.vstack([before, end]), lam, 0.0)
    return CompatibilityReport(r, [SpectralField(basis, row) for row in g], violations,
                               flag1, flag2, flag3, tol)


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
    endpoint data must drive every gap to the stencil noise floor.  A mode
    outside 1..K raises InvalidArgumentError.
    """
    if r < 0:
        raise InvalidArgumentError("order r must be >= 0")
    bad = [k for k in modes if not 1 <= k <= y0.basis.K]
    if bad:
        raise InvalidArgumentError(f"mode {bad[0]} is outside 1..{y0.basis.K}")
    accuracy = 5
    n, cols = r + accuracy, np.array(modes) - 1
    h = min(params.tau / (4.0 * n), 0.08 / max(y0.basis.eigenvalues()[cols].max(), 1.0))
    # sample i of a side at t0 is the solution at t0 + side * i * h, rounded to 15 digits
    when = [round(side * i * h + t0, 15)
            for t0, side in ((0.0, 1), (params.tau, -1), (params.tau, 1)) for i in range(n)]
    times, at = np.unique(when, return_inverse=True)
    solution = solve_trace(y0, phi, times, params).coeffs[at.reshape(3, n)][..., cols]
    # left of t = 0 the trajectory IS the history, including its one-sided limit at 0
    history = (np.zeros((n, len(modes))) if phi is None
               else phi.coeffs(-np.arange(n) * h, order=0)[:, cols])
    table = np.stack([history, *solution])     # left and right of 0, left and right of tau
    weights = [_one_sided_weights(k, k + accuracy) for k in range(r + 1)]
    # d[k, side]: `sum` adds each stencil's terms in order, sample 0 first
    d = np.array([sum(c_i * samples for c_i, samples in zip(c, table.swapaxes(0, 1)))
                  / np.array([(-h) ** k, h ** k] * 2)[:, None] for k, c in enumerate(weights)])
    left, right = d[:, 0::2], d[:, 1::2]        # [order, point (0 or tau), mode]
    gap = right - left
    rel = np.abs(gap) / np.maximum(np.maximum(np.abs(right), np.abs(left)), 1e-300)
    return [EndpointJumpRow(label, k, mode, left[k, p, j], right[k, p, j], gap[k, p, j],
                            rel[k, p, j])
            for p, label in enumerate(("0", "tau")) for k in range(r + 1)
            for j, mode in enumerate(modes)]
