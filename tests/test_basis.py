import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from delayheat import (EigenBasis, InvalidArgumentError, QuadratureRule, SpectralField,
                       dirac_coeffs, hs_norm, project, semigroup_apply)


def _mode(k, L=1.0):
    """x -> e_k(x) for a scalar or an array x, through EigenBasis.eval_matrix."""
    basis = EigenBasis(L, k)
    return lambda x: basis.eval_matrix(np.atleast_1d(x))[:, k - 1].reshape(np.shape(x))


def test_eigenbasis_unit_interval():
    basis = EigenBasis(1.0, 2)
    assert_allclose(basis.eigenvalues()[0], math.pi**2, rtol=1e-15)
    emat = basis.eval_matrix(np.array([0.5, 0.25]))
    assert_allclose(emat[0, 0], math.sqrt(2.0), rtol=1e-15)
    assert_allclose(emat[1, 1], math.sqrt(2.0), rtol=1e-14)


def test_eigenbasis_rejects_bad_args():
    with pytest.raises(InvalidArgumentError):
        EigenBasis(1.0, 0)
    with pytest.raises(InvalidArgumentError):
        EigenBasis(-2.0, 1)


def test_eigenvalues_increasing_and_normalized():
    basis = EigenBasis(2.5, 12)
    lam = basis.eigenvalues()
    assert np.all(np.diff(lam) > 0)
    for k in (1, 5, 12):
        ek = _mode(k, 2.5)
        norm2, _ = quad(lambda x: ek(x) ** 2, 0.0, 2.5, limit=200)
        assert_allclose(norm2, 1.0, atol=1e-10)


def test_project_orthonormality_roundtrip():
    basis = EigenBasis(1.0, 6)
    c = project(_mode(1), basis).coeffs
    assert_allclose(c[0], 1.0, atol=1e-12)
    assert_allclose(c[1:], 0.0, atol=1e-12)

    e2, e5 = _mode(2), _mode(5)
    c = project(lambda x: 3.0 * e2(x) + 0.5 * e5(x), basis).coeffs
    assert_allclose(c[1], 3.0, atol=1e-12)
    assert_allclose(c[4], 0.5, atol=1e-12)
    assert_allclose(np.delete(c, [1, 4]), 0.0, atol=1e-12)


def test_project_parabola_matches_hand_integral():
    # For f(x) = x (1 - x): int x sin(k pi x) = 1/(k pi) * (-1)^(k+1) and
    # int x^2 sin(k pi x) leave c_k = 4 sqrt(2) / (k pi)^3 for odd k, 0 for even
    # (hand integral, cross-checked below by adaptive quadrature)
    basis = EigenBasis(1.0, 3)
    c = project(lambda x: x * (1.0 - x), basis).coeffs
    expected = [4.0 * math.sqrt(2.0) / (k * math.pi) ** 3 * (k % 2) for k in (1, 2, 3)]
    assert_allclose(expected[0], 0.1824422, rtol=1e-6)
    assert_allclose(c, expected, atol=1e-12)
    for k in (1, 2, 3):
        ek = _mode(k)
        ref, _ = quad(lambda x: x * (1.0 - x) * ek(x), 0.0, 1.0, limit=200)
        assert_allclose(c[k - 1], ref, atol=1e-12)


def test_quadrature_rule_rejects_single_node():
    with pytest.raises(InvalidArgumentError):
        QuadratureRule(nodes=1)


def test_eval_matrix_values_and_boundary():
    basis = EigenBasis(1.0, 2)
    emat = basis.eval_matrix(np.array([0.5, 0.25, 0.0, 1.0]))
    assert_allclose(emat @ [1.0, 0.0], [math.sqrt(2.0), 1.0, 0.0, 0.0], atol=1e-15)
    g = emat @ [1.0, 1.0]
    assert_allclose(g[1], math.sqrt(2.0) * (math.sin(math.pi / 4) + 1.0), rtol=1e-14)
    assert g[2] == 0.0
    assert_allclose(g[3], 0.0, atol=1e-15)


def test_field_invariants():
    basis = EigenBasis(1.0, 3)
    with pytest.raises(InvalidArgumentError):
        SpectralField(basis, np.array([1.0, 2.0]))
    with pytest.raises(InvalidArgumentError):
        SpectralField(basis, np.array([1.0, np.nan, 0.0]))


def test_semigroup_identity_and_decay():
    basis = EigenBasis(1.0, 4)
    f = SpectralField(basis, np.array([1.0, -0.5, 0.25, 2.0]))
    assert_allclose(semigroup_apply(f, 0.0).coeffs, f.coeffs, rtol=0)
    g = semigroup_apply(SpectralField.from_modes(basis, [1.0]), 0.1)
    assert_allclose(g.coeffs[0], math.exp(-0.1 * math.pi**2), rtol=1e-15)
    with pytest.raises(InvalidArgumentError):
        semigroup_apply(f, -1e-9)


def test_semigroup_law_exact_in_coeffs():
    basis = EigenBasis(1.3, 8)
    rng = np.random.default_rng(0)
    f = SpectralField(basis, rng.standard_normal(8))
    lhs = semigroup_apply(semigroup_apply(f, 0.2), 0.5).coeffs
    rhs = semigroup_apply(f, 0.7).coeffs
    # rounding of exp grows with the exponent magnitude (lam_8 * t ~ 265)
    assert_allclose(lhs, rhs, rtol=1e-13, atol=0)


def test_hs_norm_values():
    basis = EigenBasis(1.0, 3)
    e1 = SpectralField.from_modes(basis, [1.0])
    assert_allclose(hs_norm(e1, 0.0), 1.0, rtol=0)
    assert_allclose(hs_norm(e1, 2.0), math.pi**2, rtol=1e-15)
    zero = SpectralField.zero(basis)
    assert hs_norm(zero, -3.0) == 0.0
    assert hs_norm(zero, 7.0) == 0.0


def test_parseval_against_quadrature():
    basis = EigenBasis(1.0, 10)
    rng = np.random.default_rng(1)
    f = SpectralField(basis, rng.standard_normal(10))
    l2sq, _ = quad(lambda x: float(basis.eval_matrix([x])[0] @ f.coeffs) ** 2, 0.0, 1.0, limit=300)
    assert_allclose(hs_norm(f, 0.0) ** 2, l2sq, rtol=1e-9)


def test_smoothing_keeps_norms_finite():
    basis = EigenBasis(1.0, 60)
    f = dirac_coeffs(0.3, basis)
    for s in (0.0, 2.0, 6.0):
        assert math.isfinite(hs_norm(semigroup_apply(f, 0.01), s))


def test_dirac_coeffs():
    basis = EigenBasis(1.0, 10)
    d = dirac_coeffs(0.3, basis)
    assert_allclose(d.coeffs[0], math.sqrt(2.0) * math.sin(0.3 * math.pi), rtol=1e-15)
    assert_allclose(d.coeffs[0], 1.14412, rtol=1e-5)
    assert_allclose(d.coeffs[9], 0.0, atol=1e-12)  # sin(3 pi)
    mid = dirac_coeffs(0.5, basis)
    assert_allclose(mid.coeffs[1::2], 0.0, atol=1e-12)
    with pytest.raises(InvalidArgumentError):
        dirac_coeffs(0.0, basis)
    with pytest.raises(InvalidArgumentError):
        dirac_coeffs(1.0, basis)


def test_orthonormality_matrix():
    basis = EigenBasis(1.0, 8)
    rule = QuadratureRule()
    x, w = rule.points_weights(0.0, 1.0)
    emat = basis.eval_matrix(x)
    gram = emat.T @ (w[:, None] * emat)
    assert_allclose(gram, np.eye(8), atol=1e-12)
