"""Computable regularity diagnostics for the delayed heat flow.

Three instruments:

* ``_mode_time_integral`` integrates, for all modes and several (alpha, beta)
  at once, from one table of time moments per mode on that mode's own
  quadrature rule, the energy identity of weighted heat orbits: the time integral of
  ||d^alpha/dt^alpha (t^beta e^{t Lap} y0)||^2 in the index-(s + 2(beta - alpha) + 1) norm
  is ``weight_factor`` (the same integral for decay rate 1) times the squared index-s norm
  of y0.

* ``compatibility_check`` builds the endpoint matching fields
  g_0 = y0, g_k = a * (d/dt)^{k-1} phi(-tau) + Lap g_{k-1}, row k of one (r + 1, K)
  array, and compares them with the time derivatives of phi at 0; agreement
  at orders <= r is exactly what removes the derivative jumps of the solution at
  t = 0 and t = tau, which ``endpoint_jump_scan`` measures independently by
  one-sided stencils over one table of solution and history samples, as
  [order, instant, mode] arrays.  Every norm is a row norm scaled before
  squaring, so an order is reported while its field is a finite float.

* ``lattice_jump_report`` runs the same scan at t = 0, tau, ..., j_max tau and
  returns the measured order-j gap at j tau, the predicted jump a^j (y0 - phi(0^-))
  (the initial jump, carried one order per period) and their relative error as
  [j, mode] arrays.  The CLI forms its CSV rows from the arrays as it writes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SpectralField, _gauss_panels
from .errors import InvalidArgumentError, NonFiniteOutputError
from .flow import FlowParams, History, _gammaincc_int, solve_trace

__all__ = [
    "weight_factor",
    "CompatibilityReport",
    "compatibility_check",
    "endpoint_jump_scan",
    "lattice_jump_report",
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


def _mode_time_integral(lams: np.ndarray, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature of |d^alpha (t^beta e^{-lam t})|^2 on [0, T_cut], and the exact tail, per lam
    and per (alpha, beta) in `pairs`: two (len(pairs), K) arrays, row i for pairs[i].

    The derivative is e^{-lam t} times the product rule's polynomial, C(alpha, l) beta! /
    (beta - l)! (-lam)^(alpha - l) at t^(beta - l); its square (by convolution) is dotted with
    each mode's moments sum w t^m e^{-2 lam t}, m = 0..6, and their closed-form tails
    m! / (2 lam)^(m + 1) Q(m + 1, 2 lam T_cut).  One table serves every pair: each mode's own
    rule for beta = 3 (`_mode_rules`), whose T_cut truncates below 1e-16 for every beta <= 3,
    so the quadrature stays independent of the scaling law it checks; the coefficients are
    coded apart from `_exact_tail`'s cross terms, which `weight_factor` sums.
    """
    t_cut, x, w = _mode_rules(lams, 3)
    term, bulk_m, m = w * np.exp(-2.0 * lams[:, None] * x), np.empty((len(lams), 7)), np.arange(7)
    for k in m:
        bulk_m[:, k], term = np.sum(term, axis=1), term * x
    tail_m = (_gammaincc_int(2.0 * lams * t_cut, 6) * np.cumprod(np.r_[1.0, m[1:]])
              / (2.0 * lams[:, None]) ** (m + 1))
    bulk, tail = [], []
    for alpha, beta in pairs:
        poly = np.zeros((len(lams), beta + 1))      # column i: the coefficient of t^i
        for l in range(min(alpha, beta) + 1):
            poly[:, beta - l] = (math.comb(alpha, l) * math.factorial(beta)
                                 / math.factorial(beta - l) * (-lams) ** (alpha - l))
        square = np.zeros((len(lams), 2 * beta + 1))
        for i in range(beta + 1):
            square[:, i:i + beta + 1] += poly[:, i:i + 1] * poly
        bulk.append(np.sum(square * bulk_m[:, :2 * beta + 1], axis=1))
        tail.append(np.sum(square * tail_m[:, :2 * beta + 1], axis=1))
    return np.array(bulk), np.array(tail)


# ---------------------------------------------------------------------------
# Endpoint compatibility


@dataclass(frozen=True)
class CompatibilityReport:
    r: int
    g: np.ndarray                    # (r + 1, K): row k holds g_k
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
    return CompatibilityReport(r, g, violations, flag1, flag2, flag3, tol)


# ---------------------------------------------------------------------------
# Measured jumps of the actual solution: at the endpoints, and the lattice jump law


def _one_sided_weights(order: int, n: int) -> np.ndarray:
    """Stencil weights c with sum_i c_i f(t0 + s*i*h) = f^(order)(t0) * (s*h)^order: the
    moment equations sum_i c_i i^p = p! [p = order], p < n."""
    A = np.vander(np.arange(n, dtype=float), n, increasing=True).T     # A[p, i] = i^p
    return np.linalg.solve(A, math.factorial(order) * np.eye(n)[order])


def endpoint_jump_scan(y0: SpectralField, phi: History | None, params: FlowParams, r: int,
                       modes: tuple[int, ...] = (1, 2), lattice: tuple[int, ...] = (0, 1),
                       coarsen: int = 1) -> tuple[np.ndarray, ...]:
    """One-sided derivative gaps of the solution at the instants j tau, j in `lattice`:
    left, right, gap = right - left and rel_gap, each an [order, instant, mode] array.

    For each order k <= r and mode, the left and right k-th derivatives are estimated by
    one-sided stencils on k + 5 points over solution samples, all from one ``solve_trace``
    call (history samples left of 0; phi=None is the zero history), and rel_gap is |gap|
    relative to the larger one-sided magnitude.  At 0 and tau this checks
    ``compatibility_check`` independently: matching endpoint data drive every gap to the
    stencil noise floor.  `coarsen` multiplies the step h, so a second scan at 2 h gives the
    stencils' error by Richardson extrapolation.  A mode outside 1..K raises
    InvalidArgumentError.
    """
    if r < 0:
        raise InvalidArgumentError("order r must be >= 0")
    bad = [k for k in modes if not 1 <= k <= y0.basis.K]
    if bad:
        raise InvalidArgumentError(f"mode {bad[0]} is outside 1..{y0.basis.K}")
    accuracy = 5
    n, cols = r + accuracy, np.array(modes) - 1
    h = coarsen * min(params.tau / (4.0 * n), 0.08 / max(y0.basis.eigenvalues()[cols].max(), 1.0))
    # the sides sampled from the solution: right of 0, and both sides of every later j tau
    t0, side = np.array([(j * params.tau, side) for j in lattice for side in (-1, 1)
                         if j or side > 0]).T
    # sample i of a side at t0 is the solution at t0 + side * i * h, rounded to 15 digits
    times, at = np.unique(np.round(np.outer(side, np.arange(n)) * h + t0[:, None], 15),
                          return_inverse=True)
    solution = iter(solve_trace(y0, phi, times, params).coeffs[at.reshape(len(t0), n)][..., cols])
    # left of t = 0 the trajectory IS the history, including its one-sided limit at 0
    history = (np.zeros((n, len(modes))) if phi is None
               else phi.coeffs(-np.arange(n) * h, order=0)[:, cols])
    table = np.stack([history if j == 0 and s < 0 else next(solution)
                      for j in lattice for s in (-1, 1)])    # left and right of each instant
    weights = [_one_sided_weights(k, k + accuracy) for k in range(r + 1)]
    # d[k, side]: `sum` adds each stencil's terms in order, sample 0 first
    d = np.array([sum(c_i * samples for c_i, samples in zip(c, table.swapaxes(0, 1)))
                  / np.array([(-h) ** k, h ** k] * len(lattice))[:, None]
                  for k, c in enumerate(weights)])
    left, right = d[:, 0::2], d[:, 1::2]
    gap = right - left
    return left, right, gap, np.abs(gap) / np.maximum(np.maximum(np.abs(right), np.abs(left)),
                                                      1e-300)


def lattice_jump_report(y0: SpectralField, phi: History | None, params: FlowParams,
                        j_max: int = 4, modes: tuple[int, ...] = (1, 2, 3)
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """predicted, measured and rel_error, each a [j, mode] array for j = 0..j_max.

    Mode k's order-j time derivative jumps at j tau by a^j (y0_k - phi_k(0^-)) (phi=None is
    the zero history); the measured jump is the order-j gap at j tau from one scan at
    t = 0, tau, ..., j_max tau.  rel_error is |measured - predicted| / |predicted|, or the
    scan's rel_gap where the prediction is exactly 0 (a compatible history, a = 0).  The
    k + 5 point stencils resolve the law to about 1e-3 at j = 4 and lose it past there.
    """
    js = np.arange(j_max + 1)
    _, _, gap, rel_gap = (x[js, js] for x in endpoint_jump_scan(y0, phi, params, j_max, modes, js))
    jump0 = y0.coeffs - (0.0 if phi is None else phi.coeffs(np.zeros(1), order=0)[0])
    predicted = params.a ** js[:, None] * jump0[np.array(modes) - 1]
    with np.errstate(divide="ignore", invalid="ignore"):    # where predicted is 0, rel_gap
        rel = np.where(predicted == 0.0, rel_gap, np.abs(gap - predicted) / np.abs(predicted))
    return predicted, gap, rel
