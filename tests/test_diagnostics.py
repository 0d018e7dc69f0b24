import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from delayheat import (EigenBasis, ExpModeHistory, FlowParams, GridHistory, InvalidArgumentError,
                       NonFiniteOutputError, SpectralField, compatible_history, compatibility_check,
                       dirac_coeffs, endpoint_jump_scan, hs_norm, lattice_jump_report, solve_trace)
from delayheat.basis import _gauss_panels
from delayheat.diagnostics import (_exact_tail, _mode_rules, _mode_time_integral,
                                   _one_sided_weights, weight_factor)
from delayheat.validate import _JUMP_BOUNDS, suite_jumps

PI2 = math.pi**2


# ---------------------------------------------------------------------------
# weighted-orbit identity


@pytest.mark.parametrize("alpha,beta,expected", [(0, 0, 0.5), (1, 0, 0.5), (0, 1, 0.25)])
def test_weight_factor_closed_forms(alpha, beta, expected):
    assert_allclose(weight_factor(alpha, beta), expected, rtol=1e-15)


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
@pytest.mark.parametrize("beta", [0, 1, 2, 3])
def test_weight_factor_against_adaptive_quadrature(alpha, beta):
    # independent oracle: differentiate t^beta e^-t symbolically via the product
    # rule and integrate its square adaptively
    def deriv(t):
        out = 0.0
        for l in range(min(alpha, beta) + 1):
            out += (math.comb(alpha, l) * math.factorial(beta) / math.factorial(beta - l)
                    * t ** (beta - l) * (-1.0) ** (alpha - l))
        return out * math.exp(-t)

    ref, _ = quad(lambda t: deriv(t) ** 2, 0.0, 60.0, limit=400)
    assert_allclose(weight_factor(alpha, beta), ref, rtol=1e-9)


def _identity_ratio(y0, s, alpha, beta):
    # lhs assembled mode by mode from the independent time quadrature, rhs from the closed form
    lams = y0.basis.eigenvalues()
    bulk, tail = _mode_time_integral(lams, [(alpha, beta)])
    lhs = np.sum((bulk[0] + tail[0]) * y0.coeffs**2 * lams ** (s + 2.0 * (beta - alpha) + 1.0))
    return lhs / (weight_factor(alpha, beta) * hs_norm(y0, s) ** 2)


def test_identity_simple_cases():
    basis = EigenBasis(1.0, 60)
    rng = np.random.default_rng(7)
    y0 = SpectralField(basis, rng.standard_normal(60))
    for alpha, beta in ((0, 0), (1, 0), (0, 1)):
        assert abs(_identity_ratio(y0, 0.0, alpha, beta) - 1.0) <= 1e-6


@pytest.mark.parametrize("s", [-1.0, 0.0, 2.0])
def test_identity_high_orders(s):
    basis = EigenBasis(1.0, 60)
    rng = np.random.default_rng(8)
    y0 = SpectralField(basis, rng.standard_normal(60))
    for alpha, beta in ((2, 3), (3, 3), (3, 1)):
        ratio = _identity_ratio(y0, s, alpha, beta)
        assert abs(ratio - 1.0) <= 1e-6, (alpha, beta, s, ratio)


@pytest.mark.parametrize("beta", [0, 1, 2, 3])
def test_mode_rules_are_each_modes_quadrature_rule(beta):
    # the padded rows hold every mode's own composite rule bit for bit, then weight-0 padding
    lams = EigenBasis(1.0, 60).eigenvalues()
    t_cut, x, w = _mode_rules(lams, beta)
    for k, lam in enumerate(lams.tolist()):
        tc = (60.0 + 20.0 * beta) / (2.0 * lam)
        n = max(1, math.ceil(tc * max(1, math.ceil(48 / tc))))
        xr, wr = _gauss_panels(np.linspace(0.0, tc, n + 1), 10)
        assert t_cut[k] == tc
        assert np.array_equal(x[k, :len(xr)], xr) and np.array_equal(w[k, :len(wr)], wr), k
        assert np.all(w[k, len(wr):] == 0.0), k


def test_mode_time_integral_is_the_scaling_law():
    # u = lam t turns the weighted-orbit integral of mode lam into
    # lam^(2 alpha - 2 beta - 1) times the rate-1 integral, for every mode
    lams = EigenBasis(1.0, 60).eigenvalues()
    pairs = [(alpha, beta) for beta in range(4) for alpha in range(4)]
    bulk, tail = _mode_time_integral(lams, pairs)
    for (alpha, beta), integral in zip(pairs, bulk + tail):
        expected = lams ** (2 * alpha - 2 * beta - 1) * weight_factor(alpha, beta)
        assert_allclose(integral, expected, rtol=1e-6, err_msg=f"{alpha} {beta}")


def _pointwise_integral(lams, alpha, beta):
    """The quadrature the moment table replaces: on the same rule of each mode, the product
    rule's terms in order at every node, squared there, then the exact tail."""
    t_cut, x, w = _mode_rules(lams, 3)
    lam, vals = lams[:, None], np.zeros_like(x)
    for l in range(min(alpha, beta) + 1):
        c = math.comb(alpha, l) * math.factorial(beta) / math.factorial(beta - l)
        vals += c * x ** (beta - l) * (-lam) ** (alpha - l)
    vals = vals * np.exp(-lam * x)
    return np.sum(w * vals**2, axis=1), _exact_tail(lams, alpha, beta, t_cut)


def test_mode_time_integral_from_moments_equals_the_pointwise_quadrature():
    # the squared polynomial dotted with each mode's moments is the pointwise quadrature to
    # rounding (1.5e-14 relative at worst, alpha = 2, beta = 3), and its tail the closed form's
    lams = EigenBasis(1.0, 60).eigenvalues()
    pairs = [(alpha, beta) for alpha in range(4) for beta in range(4)]
    bulk, tail = _mode_time_integral(lams, pairs)
    for i, (alpha, beta) in enumerate(pairs):
        ref_bulk, ref_tail = _pointwise_integral(lams, alpha, beta)
        assert_allclose(bulk[i], ref_bulk, rtol=1e-13, atol=0.0, err_msg=f"{alpha} {beta}")
        assert_allclose(tail[i], ref_tail, rtol=1e-13, atol=0.0, err_msg=f"{alpha} {beta}")


@pytest.mark.parametrize("beta", [0, 1, 2, 3])
def test_mode_time_integral_over_several_alphas_equals_each_alpha_alone(beta):
    # the shared moment table changes no bit of any pair's row, in any order of the pairs,
    # these alphas among every other pair
    lams = EigenBasis(1.0, 60).eigenvalues()
    alphas = (3, 0, 2, 1)
    pairs = [(alpha, beta) for alpha in alphas] + [(a, b) for b in range(4) if b != beta
                                                   for a in (1, 3, 0, 2)]
    bulk, tail = _mode_time_integral(lams, pairs)
    assert bulk.shape == tail.shape == (16, 60)
    for i, alpha in enumerate(alphas):
        ref_bulk, ref_tail = _mode_time_integral(lams, [(alpha, beta)])
        assert bulk[i].tobytes() == ref_bulk[0].tobytes(), alpha
        assert tail[i].tobytes() == ref_tail[0].tobytes(), alpha


# ---------------------------------------------------------------------------
# jump law


def test_lattice_jump_rows():
    # the order-j gap at j tau, measured by stencils, follows a^j y0 for the zero history
    basis = EigenBasis(1.0, 24)
    rng = np.random.default_rng(9)
    y0 = SpectralField(basis, rng.standard_normal(24))
    for a in (-1.0, 1.0, 2.0):
        rows = lattice_jump_report(y0, None, FlowParams(a=a, tau=1.0))
        assert [(j, mode) for j, mode, *_ in rows] == [(j, m) for j in range(5) for m in (1, 2, 3)]
        for j, mode, predicted, measured, rel in rows:
            assert predicted == a**j * y0.coeffs[mode - 1]
            assert rel == abs(measured - predicted) / abs(predicted)
            assert rel <= _JUMP_BOUNDS[j], (a, j, mode)


def test_predicted_jump_scaling_spot():
    basis = EigenBasis(1.0, 4)
    y0 = SpectralField.from_modes(basis, [1.0, 2.0])
    rows = lattice_jump_report(y0, None, FlowParams(a=2.0, tau=0.5), j_max=3, modes=(1, 2))
    assert [row[:3] for row in rows[-2:]] == [(3, 1, 8.0), (3, 2, 16.0)]


def test_lattice_jumps_of_a_compatible_history_are_predicted_zero_and_finite():
    # the solution c_k e^{rho_k t} has no jump at any order: rel_error falls back to the
    # gap relative to the larger one-sided derivative, which is about lam_3^j times y0
    basis = EigenBasis(1.0, 60)
    y0 = SpectralField(basis, np.random.default_rng(5).standard_normal(60))
    p = FlowParams(a=1.0, tau=1.0)
    rows = lattice_jump_report(y0, compatible_history(y0, p), p)
    assert len(rows) == 15 and all(predicted == 0.0 for _, _, predicted, _, _ in rows)
    assert all(math.isfinite(x) for row in rows for x in row)
    assert max(abs(measured) for _, _, _, measured, _ in rows) <= 1e-3
    assert max(rel for *_, rel in rows) <= 0.1


def test_lattice_jumps_carry_the_initial_jump_of_an_exp_history():
    # phi(0^-) != y0: the order-j derivative jumps at j tau by a^j (y0 - phi(0^-))
    basis = EigenBasis(1.0, 60)
    rng = np.random.default_rng(6)
    y0, c = (SpectralField(basis, rng.standard_normal(60)) for _ in range(2))
    for a in (-1.0, 2.0):
        p = FlowParams(a=a, tau=1.0)
        rows = lattice_jump_report(y0, ExpModeHistory(c, -1.0), p)
        for j, mode, predicted, measured, rel in rows:
            assert predicted == a**j * (y0.coeffs[mode - 1] - c.coeffs[mode - 1])
            assert rel <= _JUMP_BOUNDS[j], (a, j, mode, rel)


def test_jumps_suite_catches_a_coupling_taken_by_magnitude(monkeypatch):
    # mutant: the series kernel forms |a|^j in place of a^j, which only a < 0 reveals
    import delayheat.flow as fl
    series = fl._series_coeffs
    monkeypatch.setattr(fl, "_series_coeffs",
                        lambda couplings, j, p, d: series([abs(a) for a in couplings], j, p, d))
    failed = [row.name for row in suite_jumps().rows if not row.passed]
    assert failed == [f"jump a=-1 j={j}" for j in (1, 3)]


# ---------------------------------------------------------------------------
# compatibility


def test_compat_order_zero_match_and_mismatch():
    basis = EigenBasis(1.0, 8)
    p = FlowParams(a=1.0, tau=1.0)
    y0 = SpectralField.from_modes(basis, {1: 1.0, 4: -2.0})
    phi = ExpModeHistory(y0, 0.0)  # constant in time, equals y0 at 0
    rep = compatibility_check(y0, phi, p, r=0)
    assert rep.flag_matching
    assert rep.violations[0] == 0.0

    bumped = ExpModeHistory(y0 + SpectralField.from_modes(basis, {2: 1.0}), 0.0)
    rep2 = compatibility_check(y0, bumped, p, r=0)
    assert not rep2.flag_matching
    assert_allclose(rep2.violations[0], 1.0, rtol=1e-15)


def test_compat_exponential_profile_first_order_violation():
    # phi(g) = e^g y0 with y0 = first mode: the first-order mismatch norm is
    # |1 - e^-1 + pi^2| (endpoint slope y0 vs (e^-1 - pi^2) y0)
    basis = EigenBasis(1.0, 6)
    p = FlowParams(a=1.0, tau=1.0)
    y0 = SpectralField.from_modes(basis, {1: 1.0})
    phi = ExpModeHistory(y0, 1.0)
    rep = compatibility_check(y0, phi, p, r=1)
    assert rep.violations[0] == 0.0
    want = abs(1.0 - math.exp(-1.0) + PI2)
    assert_allclose(rep.violations[1], want, rtol=1e-12)
    assert_allclose(rep.violations[1], 10.5017, rtol=1e-5)
    assert not rep.flag_matching


def test_compat_compatible_history_all_orders():
    basis = EigenBasis(1.0, 10)
    p = FlowParams(a=1.0, tau=1.0)
    y0 = SpectralField.from_modes(basis, {1: 1.0, 2: 0.4, 7: -0.2})
    phi = compatible_history(y0, p)
    rep = compatibility_check(y0, phi, p, r=3, tol=1e-9)
    assert rep.flag_matching
    # raw norms carry rounding at the scale of g_k ~ lam^k
    from delayheat import hs_norm
    for k, g in enumerate(rep.g_fields):
        assert rep.violations[k] <= 1e-9 * max(1.0, hs_norm(g, 0.0))


def test_compat_compatible_history_all_modes_of_a_point_mass():
    # K = 60: g_k is a difference of terms of size lam_60^k |c|, whose rounding
    # is far above tol * |g_k|; the history still matches at every order
    basis = EigenBasis(1.0, 60)
    p = FlowParams(a=1.0, tau=1.0)
    y0 = dirac_coeffs(0.3, basis)
    phi = compatible_history(y0, p)
    rep = compatibility_check(y0, phi, p, r=2, tol=1e-9)
    assert rep.flag_matching
    assert rep.violations[2] > 1e-9 * max(1.0, np.linalg.norm(rep.g_fields[2].coeffs))
    # phi(0) moved by one unit in mode 3 still fails, with violation 1, and so
    # does a move of 1e-6, far above the rounding of |y0| ~ 8
    for eps in (1.0, 1e-6):
        perturbed = ExpModeHistory(y0 + SpectralField.from_modes(basis, {3: eps}), phi.rates)
        for r in (0, 2):
            rep_p = compatibility_check(y0, perturbed, p, r=r, tol=1e-9)
            assert not rep_p.flag_matching
            assert_allclose(rep_p.violations[0], eps, rtol=1e-9)


def test_compat_rejects_unavailable_derivatives():
    basis = EigenBasis(1.0, 4)
    p = FlowParams(a=1.0, tau=1.0)
    y0 = SpectralField.from_modes(basis, [1.0])
    from delayheat import GridHistory
    times = np.linspace(-1.0, 0.0, 4)
    phi = GridHistory(times, np.zeros((4, 4)), basis, interp_order=1)
    with pytest.raises(InvalidArgumentError):
        compatibility_check(y0, phi, p, r=2)


def test_endpoint_jump_scan_compatible_vs_incompatible():
    basis = EigenBasis(1.0, 8)
    p = FlowParams(a=1.0, tau=1.0)
    y0 = SpectralField.from_modes(basis, {1: 1.0, 2: 0.3})
    good = compatible_history(y0, p)
    rows = endpoint_jump_scan(y0, good, p, r=2, modes=(1, 2))
    assert max(r.rel_gap for r in rows) <= 1e-3

    # constant history mismatching the first derivative: a visible gap at t=0
    bad = ExpModeHistory(y0, 0.0)
    rows_bad = endpoint_jump_scan(y0, bad, p, r=1, modes=(1,))
    gap_order1 = [r for r in rows_bad if r.t_label == "0" and r.order == 1][0]
    assert gap_order1.rel_gap > 0.1


def test_endpoint_jump_scan_rejects_a_mode_outside_the_basis():
    # mode 0 would read mode K through index -1, mode K + 1 past the end
    basis = EigenBasis(1.0, 2)
    p = FlowParams(a=1.0, tau=1.0)
    y0 = SpectralField.from_modes(basis, [1.0, 0.5])
    for modes in ((0,), (3,)):
        with pytest.raises(InvalidArgumentError, match=f"mode {modes[0]} is outside 1..2"):
            endpoint_jump_scan(y0, ExpModeHistory(y0, -1.0), p, r=1, modes=modes)
    # a negative lattice index samples times before 0, which solve_trace rejects
    with pytest.raises(InvalidArgumentError, match="time must be >= 0"):
        endpoint_jump_scan(y0, ExpModeHistory(y0, -1.0), p, r=1, lattice=(0, -1))


def test_endpoint_jump_scan_zero_history():
    # phi=None is the zero history: every left sample at t = 0 is 0, so the
    # order-0 gap there is the jump from 0 to y0
    basis = EigenBasis(1.0, 4)
    p = FlowParams(a=1.0, tau=1.0)
    y0 = SpectralField.from_modes(basis, [1.0, 0.5])
    rows = endpoint_jump_scan(y0, None, p, r=1)
    assert len(rows) == 2 * 2 * 2          # {0, tau} x orders 0..1 x modes (1, 2)
    at0 = [r for r in rows if r.t_label == "0"]
    assert all(r.left == 0.0 for r in at0)
    for r in at0:
        if r.order == 0:
            assert_allclose(r.right, y0.coeffs[r.mode - 1], rtol=1e-12)


# ---------------------------------------------------------------------------
# the array programs against the scalar loops they replaced

_P = FlowParams(a=1.3, tau=0.8)
_B = EigenBasis(1.0, 8)
_Y0 = SpectralField(_B, np.random.default_rng(11).standard_normal(8) * 0.05 ** np.arange(8))


def _history(kind):
    if kind == "zero":
        return None
    if kind in ("exp+1", "exp-1"):
        return ExpModeHistory(SpectralField(_B, np.linspace(1.0, -0.5, 8)), float(kind[3:]))
    if kind == "compatible":
        return compatible_history(_Y0, _P)
    rows = np.random.default_rng(12).standard_normal((9, 8))
    return GridHistory(np.linspace(-_P.tau, 0.0, 9), rows, _B, interp_order=int(kind[-1]))


# (history, r) up to order 4, the spline to order 2 and the linear grid, in compatibility_check,
# to its one order
_SCAN_CASES = [(kind, r) for kind in ("zero", "exp+1", "exp-1", "compatible", "grid1", "grid3")
               for r in range(3 if kind == "grid3" else 5)]
_COMPAT_CASES = [(kind, r) for kind, r in _SCAN_CASES if kind != "grid1" or r == 0]


def _scalar_compatibility(y0, phi, params, r, tol=1e-9):
    """The per-order loop: g rows, violations and (endpoint, g, matching) flags."""
    lam = y0.basis.eigenvalues()
    hist = (lambda g, order: np.zeros(y0.basis.K)) if phi is None else phi.coeffs

    def tail_bounded(c, s):
        w = c**2 * lam**s
        head = math.sqrt(float(np.sum(w[: len(c) // 2])))
        tail = math.sqrt(float(np.sum(w[len(c) // 2:])))
        return bool(np.isfinite(head) and np.isfinite(tail) and tail <= head + 1e-300)

    gs, ends, befores, violations, scales = [], [], [], [], []
    for k in range(r + 1):
        if k == 0:
            g, scale = y0.coeffs, max(1.0, hs_norm(y0, 0.0))
        else:
            delayed, decayed = params.a * befores[-1], lam * gs[-1]
            g = delayed - decayed
            scale = max(1.0, float(np.linalg.norm(delayed)), float(np.linalg.norm(decayed)))
        ends.append(hist(0.0, order=k))
        befores.append(hist(-params.tau, order=k))
        violations.append(math.sqrt(float(np.sum((ends[-1] - g) ** 2))))
        gs.append(g)
        scales.append(scale)
    flags = (all(tail_bounded(f, 0.0) for f in befores + ends),
             all(tail_bounded(g, 1.0) for g in gs),
             all(v <= tol * s for v, s in zip(violations, scales)))
    return np.array(gs), np.array(violations), flags


def _scalar_endpoint_scan(y0, phi, params, r, modes, lattice=(0, 1)):
    """The per-(point, order, mode) stencil sums over scalar samples."""
    accuracy = 5
    lams = y0.basis.eigenvalues()
    h = min(params.tau / (4.0 * (r + accuracy)), 0.08 / max(max(lams[m - 1] for m in modes), 1.0))
    n = r + accuracy
    points = [(j * params.tau, "0" if j == 0 else "tau" if j == 1 else f"{j}tau") for j in lattice]
    times = sorted({round(side * i * h + t0, 15) for t0, _ in points
                    for side in (+1, -1) for i in range(n) if side * i * h + t0 >= 0.0})
    cache = dict(zip(times, solve_trace(y0, phi, times, params).coeffs))
    rows = []
    for t0, label in points:
        for k in range(r + 1):
            c = _one_sided_weights(k, k + accuracy)
            for mode in modes:
                def sample(side, i):
                    t = side * i * h + t0
                    if side < 0 and t0 == 0.0:
                        return 0.0 if phi is None else float(phi.coeffs(t, order=0)[mode - 1])
                    return float(cache[round(t, 15)][mode - 1])

                d_right = sum(c[i] * sample(+1, i) for i in range(len(c))) / h**k
                d_left = sum(c[i] * sample(-1, i) for i in range(len(c))) / (-h) ** k
                gap = d_right - d_left
                scale = max(abs(d_right), abs(d_left), 1e-300)
                rows.append((label, k, mode, d_left, d_right, gap, abs(gap) / scale))
    return rows


@pytest.mark.parametrize("kind, r", _COMPAT_CASES)
def test_compatibility_check_equals_the_per_order_loop(kind, r):
    phi = _history(kind)
    rep = compatibility_check(_Y0, phi, _P, r)
    g, violations, flags = _scalar_compatibility(_Y0, phi, _P, r)
    assert np.array([f.coeffs for f in rep.g_fields]).tobytes() == g.tobytes()
    assert (rep.flag_endpoint_regularity, rep.flag_g_regularity, rep.flag_matching) == flags
    assert_allclose(rep.violations, violations, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("kind, r", _SCAN_CASES)
def test_endpoint_jump_scan_equals_the_per_sample_stencils(kind, r):
    phi = _history(kind)
    for modes, lattice in (((1,), (0, 1)), ((1, 2), (0, 1)), ((3, 7), (0, 1)), ((1, 2), (2, 0, 3))):
        rows = endpoint_jump_scan(_Y0, phi, _P, r, modes=modes, lattice=lattice)
        ref = _scalar_endpoint_scan(_Y0, phi, _P, r, modes, lattice)
        assert [(row.t_label, row.order, row.mode) for row in rows] == [x[:3] for x in ref]
        got = np.array([(row.left, row.right, row.gap, row.rel_gap) for row in rows])
        assert got.tobytes() == np.array([x[3:] for x in ref]).tobytes(), (modes, lattice)


def test_compatibility_reports_every_order_whose_field_is_a_float():
    # zero history, K = 60 point mass: the scaled norms report to order 67, whose g_67 is
    # near 1e305 (its squares overflow from order 34 on), and g_68 overflows itself
    y0, p = dirac_coeffs(0.3, EigenBasis(1.0, 60)), FlowParams(a=1.0, tau=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = compatibility_check(y0, None, p, r=67)
    assert np.all(np.isfinite(rep.violations)) and rep.violations[67] > 1e300
    # the violation of the zero history is |g_k|, and the scaled norm is |g_k| to rounding
    assert_allclose(rep.violations[:30], [np.linalg.norm(g.coeffs) for g in rep.g_fields[:30]],
                    rtol=1e-15)
    with pytest.raises(NonFiniteOutputError, match="compatibility order 68 of r = 68"):
        compatibility_check(y0, None, p, r=68)
