"""Named verification suites over the solvers and diagnostics.

Each suite runs a set of quantitative checks (closed form vs independent
oracles, identity ratios, jump laws, convergence orders) and returns one row
per check.  The CLI ``validate`` subcommand prints these rows; the acceptance
tests assert on them.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import diagnostics as diag
from .basis import EigenBasis, SpectralField, dirac_coeffs, semigroup_apply
from .errors import InvalidArgumentError
from .flow import (ExpModeHistory, FlowParams, _delayed_exp_grid, _picard_iterates,
                   compatible_history, delayed_exp, flow_derivative_factors, picard_solve,
                   solve_trace)
from .refsolvers import MeshParams, ModeDDEConfig, hybrid_simulate, rk4_dde_mode

__all__ = ["CheckRow", "SuiteResult", "SUITE_NAMES", "run_suite", "figure_panels", "figure_checks"]

_SEED = 20250809


@dataclass(frozen=True)
class CheckRow:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    rows: list[CheckRow]
    seconds: float = 0.0        # wall time of the suite, set by run_suite

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _random_field(basis: EigenBasis, rng: np.random.Generator) -> SpectralField:
    return SpectralField(basis, rng.standard_normal(basis.K))


# ---------------------------------------------------------------------------
# per-mode: closed form vs the method-of-steps mode stepper, plus hand-computable spot values


def suite_per_mode() -> SuiteResult:
    """Delayed exponential vs the mode stepper on u' = -lam u + a u(t - tau),
    zero history, u(0) = 1."""
    rows = []
    for t, expect in ((0.5, 1.0), (1.5, 1.5), (2.5, 2.625)):
        got = delayed_exp(0.0, t, FlowParams(a=1.0, tau=1.0))
        err = abs(got - expect)
        rows.append(CheckRow(f"spot u({t})={expect}", err <= 1e-14, err, 1e-14))
    lams, couplings = np.array([0.0, math.pi**2, 4 * math.pi**2, 100.0]), np.array([-1.0, 1.0, 2.0])
    rel = {}
    for tau in (0.5, 1.0):
        # every coupling and rate in one call; entry (c, k) equals the one-mode run
        trace = rk4_dde_mode(ModeDDEConfig(lam=lams, a=couplings[:, None], tau=tau,
                                           dt=tau / 1000), 3.0 * tau)
        refs = _delayed_exp_grid(lams, trace.times, FlowParams(tau=tau), a=couplings[:, None, None])
        for a, values, exact in zip(couplings.tolist(), trace.values.transpose(1, 0, 2), refs):
            # relative to the trajectory scale; pointwise relative error is
            # meaningless once the solution decays below rounding
            errs = np.max(np.abs(values - exact), axis=0) / np.max(np.abs(exact), axis=0)
            rel.update({(lam, a, tau): float(e) for lam, e in zip(lams.tolist(), errs)})
    for (lam, a, tau), err in sorted(rel.items()):         # rows ordered by lam, a, tau
        rows.append(CheckRow(f"rk4 lam={lam:g} a={a:g} tau={tau:g}", err <= 1e-6, err, 1e-6))
    return SuiteResult("per-mode", rows)


# ---------------------------------------------------------------------------
# identity: weighted-orbit energy identity over random fields


def suite_identity() -> SuiteResult:
    n_fields, K = 20, 60
    rng = np.random.default_rng(_SEED)
    lams = EigenBasis(1.0, K).eigenvalues()
    sq = rng.standard_normal((n_fields, K)) ** 2        # one field per row
    svals = np.array([-1.0, 0.0, 2.0])
    norms = sq @ lams[:, None] ** svals                 # (n_fields, s): squared index-s norms
    pairs = list(itertools.product(range(4), range(4)))
    rows = []
    for (alpha, beta), integral in zip(pairs, np.add(*diag._mode_time_integral(lams, pairs))):
        idx = svals + 2.0 * (beta - alpha) + 1.0
        lhs = sq @ (integral[:, None] * lams[:, None] ** idx)
        worst = np.max(np.abs(lhs / (diag.weight_factor(alpha, beta) * norms) - 1.0), axis=0)
        for s, w in zip(svals.tolist(), worst.tolist()):
            rows.append(CheckRow(f"identity a={alpha} b={beta} s={s:g}", w <= 1e-6, w, 1e-6))
    return SuiteResult("identity", rows)


# ---------------------------------------------------------------------------
# jumps: lattice jump law, measured by one-sided stencils

# per j, a few times the worst relative error measured over modes 1-3: 0, 2.7e-6 ... 1.2e-3
_JUMP_BOUNDS = (1e-12, 1e-5, 1e-4, 1e-3, 5e-3)


def suite_jumps() -> SuiteResult:
    rng = np.random.default_rng(_SEED + 1)
    basis = EigenBasis(1.0, 60)
    y0 = _random_field(basis, rng)
    rows = []
    for a in (-1.0, 1.0, 2.0):
        worst = [0.0] * len(_JUMP_BOUNDS)
        for j, _, _, _, rel in diag.lattice_jump_report(y0, None, FlowParams(a=a, tau=1.0)):
            worst[j] = max(worst[j], rel)
        rows.extend(CheckRow(f"jump a={a:g} j={j}", w <= bound, w, bound)
                    for j, (w, bound) in enumerate(zip(worst, _JUMP_BOUNDS)))
    return SuiteResult("jumps", rows)


# ---------------------------------------------------------------------------
# picard: factorial contraction of the integral-equation iteration


def suite_picard() -> SuiteResult:
    # tau = T/12 keeps 12 series terms alive on [0, T]; with tau = T the series
    # terminates after a couple of terms and there is nothing to contract
    T, K, n_sub = 3.0, 8, 64
    basis = EigenBasis(1.0, K)
    params = FlowParams(a=1.0, tau=0.25)
    y0 = SpectralField(basis, 1.0 / np.arange(1, K + 1))
    # the run's 12 iterates, one per delay window; iterate n is the n-iteration result
    run = list(_picard_iterates(y0, None, T, params.tau / n_sub, params))
    exact = solve_trace(y0, None, run[0][0], params).coeffs
    errors = {n: float(np.max(np.linalg.norm(y - exact, axis=1)))
              for n, (_, y, _) in enumerate(run, start=1)}

    def bound(n):
        return (abs(params.a) * T) ** (n + 1) / math.factorial(n + 1)

    C = max(errors[n] / bound(n) for n in (1, 2, 3))
    floor = 2.0 * min(errors.values())
    rows = []
    worst_excess = 0.0
    for n, e in errors.items():
        worst_excess = max(worst_excess, e / (C * bound(n) + floor))
    rows.append(CheckRow("picard factorial envelope", worst_excess <= 1.0, worst_excess, 1.0,
                         detail=f"floor={floor:.3g} C={C:.3g}"))
    last = errors[len(run)]
    rows.append(CheckRow("picard reaches grid floor", last <= 10.0 * floor, last, 10.0 * floor))
    rows.append(CheckRow("picard envelope spans decades", errors[1] >= 100.0 * floor,
                         errors[1] / max(floor, 1e-300), 100.0))
    # a = 0 converges in a single iteration, exactly
    params0 = FlowParams(a=0.0, tau=1.0)
    tr0 = picard_solve(y0, None, 1.0, dt=1.0 / 16, params=params0)
    ref0 = np.stack([semigroup_apply(y0, float(t)).coeffs for t in tr0.times])
    gap0 = float(np.max(np.abs(tr0.coeffs - ref0)))
    rows.append(CheckRow("picard a=0 one-shot", gap0 == 0.0, gap0, 0.0))
    return SuiteResult("picard", rows)


# ---------------------------------------------------------------------------
# hybrid: state-space simulator converges to the closed form


def _hybrid_error_at(n: int, t_end: float, params: FlowParams, basis: EigenBasis,
                     y0: SpectralField, phi=None) -> float:
    mesh = MeshParams(nx=n, ns=2 * n)      # time step tau / (2n)
    trace = hybrid_simulate(y0.coeffs, None if phi is None else phi.coeffs, mesh, t_end, params.a,
                            params.tau, basis.L, sample_times=(t_end,))
    exact = (solve_trace(y0, None, [t_end], params).coeffs[0] if phi is None
             else y0.coeffs * np.exp(phi.rates * t_end))
    return float(np.linalg.norm(trace.coeffs[-1] - exact))     # Parseval: K < n modes


def suite_hybrid() -> SuiteResult:
    params = FlowParams(a=1.0, tau=1.0)
    basis = EigenBasis(1.0, 8)
    y0 = SpectralField.from_modes(basis, {1: 1.0 / math.sqrt(2.0)})  # sin(pi x)
    # the order test needs genuinely smooth transported data: a history that
    # matches y0 at the inflow corner, so the delayed source does not jump at
    # t = tau.
    phi = compatible_history(y0, params)
    errs = [_hybrid_error_at(n, 2.0 * params.tau, params, basis, y0, phi)
            for n in (100, 200, 400)]
    slope = float(np.polyfit(np.log2([100, 200, 400]), np.log2(errs), 1)[0])
    order = -slope
    err_zero_hist = _hybrid_error_at(400, 2.0 * params.tau, params, basis, y0)
    rows = [
        CheckRow("hybrid L2 error (finest, smooth history)", errs[-1] <= 1e-3, errs[-1], 1e-3,
                 detail=f"errors={['%.3g' % e for e in errs]}"),
        CheckRow("hybrid convergence order", 1.8 <= order <= 2.2, order, 2.2,
                 detail="expected in [1.8, 2.2]"),
        CheckRow("hybrid L2 error (finest, zero history)", err_zero_hist <= 1e-3,
                 err_zero_hist, 1e-3),
    ]
    return SuiteResult("hybrid", rows)


# ---------------------------------------------------------------------------
# compatibility: endpoint matching and measured endpoint smoothness


def suite_compatibility() -> SuiteResult:
    basis = EigenBasis(1.0, 16)
    params = FlowParams(a=1.0, tau=1.0)
    y0 = SpectralField.from_modes(basis, {1: 1.0, 2: 0.3})
    phi = compatible_history(y0, params)
    report = diag.compatibility_check(y0, phi, params, r=2, tol=1e-9)
    worst = float(np.max(report.violations))
    rows = [CheckRow("compatible history: violations", report.flag_matching, worst, 1e-9)]
    scan = diag.endpoint_jump_scan(y0, phi, params, r=2, modes=(1, 2))
    worst_gap = max(row.rel_gap for row in scan)
    rows.append(CheckRow("compatible history: measured endpoint jumps", worst_gap <= 1e-3,
                         worst_gap, 1e-3))
    perturbed = ExpModeHistory(y0 + SpectralField.from_modes(basis, {3: 1.0}), phi.rates)
    report_p = diag.compatibility_check(y0, perturbed, params, r=0, tol=1e-9)
    v0 = float(report_p.violations[0])
    rows.append(CheckRow("unit perturbation of phi(0): violation norm", abs(v0 - 1.0) <= 1e-9,
                         v0, 1.0, detail="expected 1.00"))
    return SuiteResult("compatibility", rows)


# ---------------------------------------------------------------------------
# figure experiment: lattice-time spikes of the derivative profiles


def figure_panels(times=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5), x0: float = 0.3, K: int = 60,
                  nx: int = 300, L: float = 1.0,
                  params: FlowParams | None = None) -> tuple[np.ndarray, dict[float, np.ndarray]]:
    """Profiles of the floor(t/tau)-th right derivative for point-mass data.

    Returns the mesh and one value row per requested instant, by
    `EigenBasis.on_mesh`.  At lattice instants the profile reproduces the spike
    of the initial point mass at x0; between lattice instants it is smooth.  A
    derivative that overflows is left as inf or nan for the caller's finiteness
    check.
    """
    params = params or FlowParams(a=1.0, tau=1.0)
    basis = EigenBasis(L, K)
    y0 = dirac_coeffs(x0, basis)
    lams, xs, times = basis.eigenvalues(), basis.mesh(nx), [float(t) for t in times]
    coeffs = np.empty((len(times), K))
    with np.errstate(over="ignore", invalid="ignore"):     # callers check values are finite
        for row, t in zip(coeffs, times):
            row[:] = flow_derivative_factors(lams, t, params.series_index(t), params) * y0.coeffs
    return xs, dict(zip(times, basis.on_mesh(coeffs, nx)))


def figure_checks() -> SuiteResult:
    """Spike-location and smoothness checks on the default panels."""
    nx = 300
    xs, panels = figure_panels(nx=nx)
    rows = []

    def ratio(vals):
        mags = np.abs(vals)
        return float(np.max(mags) / np.median(mags))

    ref_ratio = ratio(panels[1.0])
    for t in (1.0, 2.0):
        vals = panels[t]
        x_peak = float(xs[int(np.argmax(np.abs(vals)))])
        ok = abs(x_peak - 0.3) <= 1.0 / nx + 1e-12
        rows.append(CheckRow(f"panel t={t:g}: peak at x=0.3", ok, x_peak, 1.0 / nx,
                             detail=f"peak at x={x_peak:.6f}"))
    threshold = 0.1 * ref_ratio
    for t in (0.5, 1.5, 2.5):
        r = ratio(panels[t])
        rows.append(CheckRow(f"panel t={t:g}: smooth (max/median below spike threshold)",
                             r < threshold, r, threshold))
    return SuiteResult("figure", rows)


# ---------------------------------------------------------------------------

_SUITES = {
    "per-mode": suite_per_mode,
    "picard": suite_picard,
    "hybrid": suite_hybrid,
    "identity": suite_identity,
    "jumps": suite_jumps,
    "compatibility": suite_compatibility,
    "figure": figure_checks,
}

SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str) -> list[SuiteResult]:
    """Run one suite, or every suite for "all", recording each one's wall time."""
    if name != "all" and name not in _SUITES:
        raise InvalidArgumentError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    results = []
    for key in (_SUITES if name == "all" else (name,)):
        t0 = time.perf_counter()
        res = _SUITES[key]()
        results.append(replace(res, seconds=time.perf_counter() - t0))
    return results
