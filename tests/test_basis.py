import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from delayheat import (EigenBasis, InvalidArgumentError, SpectralField, dirac_coeffs,
                       project, semigroup_apply)
from delayheat.basis import _decay_scan, _gauss_panels, _step_grid


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
    with pytest.raises(InvalidArgumentError):
        EigenBasis(1.0, 2).on_mesh(np.ones((1, 2)), 0)


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


@pytest.mark.parametrize("L, k_max", [(0.5, 113), (1.0, 227), (2.5, 568)])
def test_project_refuses_the_modes_its_rule_does_not_resolve(L, k_max):
    # x (L - x) has c_k = 4 sqrt(2 / L) L^3 / (k pi)^3 for odd k; up to k_max the rule's
    # coefficients are the same bits as before the limit existed and meet the docstring's
    # remainder bound, 1e-6 sqrt(2 L) max|f|; at K = 1000 L they were 1.13 off in relative L2
    def f(x):
        return x * (L - x)

    basis = EigenBasis(L, k_max)
    x, w = _gauss_panels(np.linspace(0.0, L, math.ceil(64 * L) + 1), 8)
    c = project(f, basis).coeffs
    assert c.tobytes() == (basis.eval_matrix(x).T @ (w * f(x))).tobytes()
    k = np.arange(1, k_max + 1)
    exact = 4.0 * math.sqrt(2.0 / L) * L**3 / (k * math.pi) ** 3 * (k % 2)
    assert np.max(np.abs(c - exact)) <= 1e-6 * math.sqrt(2.0 * L) * L**2 / 4.0
    for K in (k_max + 1, round(1000 * L)):
        with pytest.raises(InvalidArgumentError, match=f"at most {k_max} modes on L = {L:g} "
                                                       rf"\(8 Gauss nodes on each of "
                                                       rf"{math.ceil(64 * L)} panels\), "
                                                       f"not K = {K}$"):
            project(f, EigenBasis(L, K))


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


def test_parseval_against_quadrature():
    basis = EigenBasis(1.0, 10)
    rng = np.random.default_rng(1)
    f = SpectralField(basis, rng.standard_normal(10))
    l2sq, _ = quad(lambda x: float(basis.eval_matrix([x])[0] @ f.coeffs) ** 2, 0.0, 1.0, limit=300)
    assert_allclose(float(np.sum(f.coeffs**2)), l2sq, rtol=1e-9)


def test_smoothing_keeps_norms_finite():
    basis = EigenBasis(1.0, 60)
    f = dirac_coeffs(0.3, basis)
    c, lam = semigroup_apply(f, 0.01).coeffs, basis.eigenvalues()
    for s in (0.0, 2.0, 6.0):
        assert math.isfinite(math.sqrt(float(np.sum(c**2 * lam**s))))


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
    x, w = _gauss_panels(np.linspace(0.0, 1.0, 65), 8)      # project's rule
    emat = basis.eval_matrix(x)
    gram = emat.T @ (w[:, None] * emat)
    assert_allclose(gram, np.eye(8), atol=1e-12)


def _serial_scan(x, q):
    """x_i <- q x_{i-1} + x_i one row at a time: the recurrence `_decay_scan` computes."""
    out = x.copy()
    for i in range(1, len(out)):
        out[i] = q * out[i - 1] + out[i]
    return out


@settings(max_examples=100, deadline=None)
@given(n=st.one_of(st.integers(0, 70), st.sampled_from([97, 705, 1001, 1024])),
       cols=st.sampled_from([1, 4, 60]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_decay_scan_matches_serial_recurrence(n, cols, seed, data):
    # within a few eps n of the sum of |terms| q^(i-j) x_j, and every column is its
    # one-column scan bit for bit
    q = np.array(data.draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                                              st.floats(-1.0, 1.0)),
                                    min_size=cols, max_size=cols)))
    x = np.random.default_rng(seed).standard_normal((n, cols))
    got = _decay_scan(x.copy(), q)
    terms = _serial_scan(np.abs(x), np.abs(q))
    assert np.all(np.abs(got - _serial_scan(x, q)) <= 4.0 * np.finfo(float).eps * max(n, 1) * terms)
    for k in range(cols):
        assert _decay_scan(x[:, k].copy(), q[k]).tobytes() == got[:, k].tobytes()


def test_step_grid_holds_at_least_one_step():
    # a horizon within 1e-9 h of 0 gave the one-point grid [0], and the stepping solvers,
    # which read h = times[1], raised IndexError
    from delayheat import FlowParams, ModeDDEConfig, picard_solve, rk4_dde_mode
    assert _step_grid(1.0, 0.25, 1e-13)[1].tolist() == [0.0, 0.25]
    assert _step_grid(1.0, 0.25, 0.5 + 1e-12)[1].tolist() == [0.0, 0.25, 0.5]
    y0 = SpectralField(EigenBasis(1.0, 4), np.ones(4))
    pic = picard_solve(y0, None, 1e-13, 0.25, FlowParams())
    assert pic.times.tolist() == [0.0, 0.25] and pic.residuals.tolist() == [0.0]
    rk4 = rk4_dde_mode(ModeDDEConfig(lam=1.0, a=1.0, tau=1.0, dt=0.1), 1e-13)
    assert rk4.times.tolist() == [0.0, 0.1]


def _on_mesh_rows(basis, rng):
    """A point mass, random coefficients with no decay in k, and random ones decaying like k^-2."""
    noise = rng.standard_normal((2, basis.K))
    return np.stack([dirac_coeffs(0.3 * basis.L, basis).coeffs, noise[0],
                     noise[1] / np.arange(1, basis.K + 1) ** 2])


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double")
@pytest.mark.parametrize("L", [1.0, 3.0])
@pytest.mark.parametrize("K, nx", [(60, 300), (240, 1200), (60, 20), (8, 1)])
def test_on_mesh_equals_the_nodal_sums_in_extended_precision(K, nx, L):
    # sum_k c_k e_k(m L / nx) in long double, the angle k m pi / nx reduced exactly mod 2 pi
    basis = EigenBasis(L, K)
    rows = _on_mesh_rows(basis, np.random.default_rng(K + nx))
    got = basis.on_mesh(rows, nx)
    assert got.shape == (3, nx + 1)
    assert np.all(got[:, [0, -1]] == 0.0)
    km = np.multiply.outer(np.arange(1, K + 1), np.arange(1, nx)) % (2 * nx)
    sines = np.sin(km.astype(np.longdouble) * (np.arccos(np.longdouble(-1.0)) / nx))
    exact = (rows.astype(np.longdouble) @ sines) * np.sqrt(np.longdouble(2.0) / np.longdouble(L))
    scale = np.max(np.abs(exact), axis=1, initial=0.0).astype(float)[:, None]
    assert np.all(np.abs(got[:, 1:-1] - exact.astype(float)) <= 1e-15 * scale)
    # within 2e-14 of the evaluation-matrix product it replaces, off the product's end cells,
    # which hold the rounding of sin(k pi); for the undecaying random row at K = 240 the product
    # itself is 4e-14 off the sums, so that row is left out here
    ref = rows[[0, 2]] @ basis.eval_matrix(basis.mesh(nx)).T
    assert np.all(np.abs(got[[0, 2]] - ref)[:, 1:-1]
                  <= 2e-14 * np.max(np.abs(ref), axis=1)[:, None])


def test_on_mesh_builds_no_sine_matrix():
    # K = 240 modes on nx = 1200 intervals: a (nx + 1, K) table of sines is 2.3 MB, and its
    # product with the rows took 4.6 MB; one transform per block of rows takes about 0.46 MB
    import tracemalloc
    basis = EigenBasis(1.0, 240)
    rows = _on_mesh_rows(basis, np.random.default_rng(6))[[0, 1, 2, 0, 1, 2]]
    basis.on_mesh(rows, 1200)           # numpy's FFT sets up its plan on the first call
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        basis.on_mesh(rows, 1200)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.6e6

