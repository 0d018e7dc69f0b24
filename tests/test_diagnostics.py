import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from delayheat import (EigenBasis, ExpModeHistory, FlowParams, InvalidArgumentError,
                       QuadratureRule, SpectralField, UndefinedEstimateError,
                       compatible_history, compatibility_check, dirac_coeffs,
                       endpoint_jump_scan, hs_norm, lattice_jump_report, off_lattice_probe,
                       regularity_scan, semigroup_apply)
from delayheat.diagnostics import _mode_rules, _mode_time_integral, weight_factor

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
    bulk, tail = _mode_time_integral(lams, alpha, beta)
    lhs = np.sum((bulk + tail) * y0.coeffs**2 * lams ** (s + 2.0 * (beta - alpha) + 1.0))
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
        rule = QuadratureRule(panels_per_unit=max(1, math.ceil(48 / tc)), nodes=10)
        xr, wr = rule.points_weights(0.0, tc)
        assert t_cut[k] == tc
        assert np.array_equal(x[k, :len(xr)], xr) and np.array_equal(w[k, :len(wr)], wr), k
        assert np.all(w[k, len(wr):] == 0.0), k


def test_mode_time_integral_is_the_scaling_law():
    # u = lam t turns the weighted-orbit integral of mode lam into
    # lam^(2 alpha - 2 beta - 1) times the rate-1 integral, for every mode
    lams = EigenBasis(1.0, 60).eigenvalues()
    for alpha in range(4):
        for beta in range(4):
            bulk, tail = _mode_time_integral(lams, alpha, beta)
            expected = lams ** (2 * alpha - 2 * beta - 1) * weight_factor(alpha, beta)
            assert_allclose(bulk + tail, expected, rtol=1e-6, err_msg=f"{alpha} {beta}")


# ---------------------------------------------------------------------------
# regularity scan


def test_regularity_exact_power_law():
    basis = EigenBasis(1.0, 60)
    f = SpectralField(basis, 1.0 / np.arange(1, 61, dtype=float) ** 2)
    est = regularity_scan(f)
    assert_allclose(est.decay_exponent, 2.0, atol=1e-6)
    assert_allclose(est.estimated_order, 1.5, atol=1e-6)
    assert est.residual <= 1e-10


def test_regularity_dirac_envelope():
    basis = EigenBasis(1.0, 60)
    d = dirac_coeffs(0.3, basis)
    est = regularity_scan(d, envelope_block=5)
    assert abs(est.estimated_order - (-0.5)) <= 0.1


def test_regularity_heat_smoothed_hits_cap():
    basis = EigenBasis(1.0, 60)
    d = semigroup_apply(dirac_coeffs(0.3, basis), 0.1)
    est = regularity_scan(d, envelope_block=5)
    assert est.estimated_order == math.inf
    assert est.decay_exponent > 50.0


def test_regularity_errors():
    basis = EigenBasis(1.0, 60)
    with pytest.raises(UndefinedEstimateError):
        regularity_scan(SpectralField.zero(basis))
    sparse = SpectralField.from_modes(basis, {1: 1.0, 2: 1.0, 3: 1.0})
    with pytest.raises(InvalidArgumentError):
        regularity_scan(sparse)
    f = SpectralField(basis, np.ones(60))
    with pytest.raises(InvalidArgumentError):
        regularity_scan(f, window=(50, 70))


# ---------------------------------------------------------------------------
# jump law


def test_lattice_jump_rows():
    basis = EigenBasis(1.0, 24)
    rng = np.random.default_rng(9)
    y0 = SpectralField(basis, rng.standard_normal(24))
    for a in (1.0, 2.0):
        rows = lattice_jump_report(y0, FlowParams(a=a, tau=1.0), j_max=4)
        for r in rows:
            assert r.rel_error <= 1e-6, (a, r)
        # predicted norms scale like |a|^j
        norms = [r.predicted_norm for r in rows]
        for j in range(1, 5):
            assert_allclose(norms[j] / norms[0], abs(a) ** j, rtol=1e-12)


def test_predicted_jump_scaling_spot():
    basis = EigenBasis(1.0, 4)
    y0 = SpectralField.from_modes(basis, [1.0, 2.0])
    rows = lattice_jump_report(y0, FlowParams(a=2.0, tau=0.5), j_max=3)
    assert_allclose(rows[3].predicted_norm, 8.0 * math.sqrt(5.0), rtol=1e-12)


def test_off_lattice_probe_is_zero():
    basis = EigenBasis(1.0, 24)
    rng = np.random.default_rng(10)
    y0 = SpectralField(basis, rng.standard_normal(24))
    p = FlowParams(a=1.0, tau=1.0)
    for j in range(4):
        for order in range(1, 5):
            assert off_lattice_probe(y0, p, (j + 0.5) * p.tau, order) <= 1e-8


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
