import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import delayheat.flow as fl
from delayheat import (EigenBasis, ExpModeHistory, FlowParams, GridHistory,
                       InvalidArgumentError, SpectralField, TruncationExceededError,
                       ZeroHistory, characteristic_root, compatible_history, delayed_exp,
                       derivative_jump, dirac_coeffs, flow_apply, history_convolution,
                       picard_solve, right_limit_derivative, semigroup_apply, solve,
                       solve_trace)
from delayheat.refsolvers import ModeDDEConfig, rk4_dde_mode

PI2 = math.pi**2


@pytest.fixture
def basis():
    return EigenBasis(1.0, 6)


def test_flow_params_validation():
    with pytest.raises(InvalidArgumentError):
        FlowParams(a=1.0, tau=0.0)
    with pytest.raises(InvalidArgumentError):
        FlowParams(a=math.inf, tau=1.0)
    FlowParams(a=0.0, tau=1.0)  # degenerate coupling is allowed


def test_delayed_exp_polynomial_spots():
    p = FlowParams(a=1.0, tau=1.0)
    assert delayed_exp(0.0, 0.5, p) == 1.0
    assert delayed_exp(0.0, 1.5, p) == 1.5
    assert delayed_exp(0.0, 2.5, p) == 2.625  # 1 + 1.5 + 0.5^2/2


def test_delayed_exp_reduces_to_heat_for_zero_coupling():
    p = FlowParams(a=0.0, tau=0.7)
    for lam in (0.0, PI2, 123.4):
        for t in (0.0, 0.3, 2.9):
            assert_allclose(delayed_exp(lam, t, p), math.exp(-lam * t), rtol=1e-15)


def test_delayed_exp_guards():
    p = FlowParams(a=1.0, tau=1.0, j_max=3)
    with pytest.raises(InvalidArgumentError):
        delayed_exp(1.0, -0.1, p)
    with pytest.raises(InvalidArgumentError):
        delayed_exp(-1.0, 0.1, p)
    with pytest.raises(TruncationExceededError):
        delayed_exp(1.0, 4.5, p)
    assert delayed_exp(0.0, 3.0, p) > 0  # boundary index 3 is within the guard


def test_delayed_exp_log_space_path_consistent():
    # same value through the direct product and the log-magnitude branch
    p = FlowParams(a=1.2, tau=0.04, j_max=100)
    t = 1.0  # 25 active terms
    val = delayed_exp(0.0, t, p)
    direct = sum(1.2**j * (t - j * 0.04) ** j / math.factorial(j) for j in range(26))
    assert_allclose(val, direct, rtol=1e-12)


def test_delayed_exp_vs_rk4_oracle():
    for lam, a, tau in ((0.0, 1.0, 1.0), (PI2, 1.0, 1.0), (PI2, -1.0, 0.5), (50.0, 2.0, 0.5)):
        p = FlowParams(a=a, tau=tau)
        cfg = ModeDDEConfig(lam=lam, a=a, tau=tau, dt=tau / 1000)
        tr = rk4_dde_mode(cfg, 3.0 * tau)
        exact = np.array([delayed_exp(lam, float(t), p) for t in tr.times])
        rel = np.max(np.abs(tr.values - exact)) / np.max(np.abs(exact))
        assert rel <= 1e-6, (lam, a, tau, rel)


def test_flow_apply_identity_and_heat_reduction(basis):
    p = FlowParams(a=1.0, tau=1.0)
    rng = np.random.default_rng(2)
    f = SpectralField(basis, rng.standard_normal(basis.K))
    assert_allclose(flow_apply(f, 0.0, p).coeffs, f.coeffs, rtol=0)
    for t in (0.25, 0.999):
        assert_allclose(flow_apply(f, t, p).coeffs, semigroup_apply(f, t).coeffs, rtol=1e-15)


def test_flow_apply_dirac_spot_value(basis):
    p = FlowParams(a=1.0, tau=1.0)
    d = dirac_coeffs(0.3, basis)
    got = flow_apply(d, 1.5, p).coeffs[0]
    want = d.coeffs[0] * (math.exp(-1.5 * PI2) + 0.5 * math.exp(-0.5 * PI2))
    assert_allclose(got, want, rtol=1e-15)
    assert_allclose(got, 4.11e-3, rtol=2e-3)


def test_history_convolution_zero_history(basis):
    p = FlowParams(a=1.0, tau=1.0)
    z = history_convolution(ZeroHistory(basis), 1.7, p)
    assert_allclose(z.coeffs, 0.0, atol=0)
    with pytest.raises(InvalidArgumentError):
        history_convolution(ZeroHistory(basis), -0.5, p)


def test_history_convolution_constant_profile_lambda_zero():
    # per-rate helper with lam = 0, constant unit profile: value t on [0, tau)
    p = FlowParams(a=1.0, tau=1.0)
    lams = np.array([0.0])
    for t in (0.0, 0.3, 0.95):
        val = fl.history_convolution_profile(lams, lambda g: np.array([1.0]), t, p)[0]
        assert_allclose(val, t, atol=1e-13)


def test_history_convolution_upper_limit_saturates():
    # for t >= tau the window is fixed at (-tau, 0); only the flow factor moves.
    # With lam = 0 the integrals are polynomial and computable by hand:
    # t=1: int 1 = 1; t=2: int (1 - g) = 3/2; t=3: int (2 - g) + g^2/2 = 8/3
    p = FlowParams(a=1.0, tau=1.0)
    lams = np.array([0.0])
    vals = [fl.history_convolution_profile(lams, lambda g: np.array([1.0]), t, p)[0]
            for t in (1.0, 2.0, 3.0)]
    assert_allclose(vals, [1.0, 1.5, 1.0 + 1.5 + 1.0 / 6.0], atol=1e-12)


def test_solve_spot_value_single_mode_constant_history(basis):
    # y0 = 0, unit first-mode constant history: (1 - exp(-pi^2/2)) / pi^2 at t = 1/2
    p = FlowParams(a=1.0, tau=1.0)
    y0 = SpectralField.zero(basis)
    phi = ExpModeHistory(SpectralField.from_modes(basis, {1: 1.0}), 0.0)
    got = solve(y0, phi, 0.5, p).coeffs
    want1 = (1.0 - math.exp(-0.5 * PI2)) / PI2
    assert_allclose(got[0], want1, rtol=1e-12)
    assert_allclose(got[0], 0.1005925, rtol=1e-6)
    assert_allclose(got[1:], 0.0, atol=1e-15)


def test_solve_reductions(basis):
    rng = np.random.default_rng(3)
    y0 = SpectralField(basis, rng.standard_normal(basis.K))
    p0 = FlowParams(a=0.0, tau=1.0)
    phi = ExpModeHistory(SpectralField.from_modes(basis, {2: 1.0}), -0.3)
    for t in (0.4, 1.9):
        # zero history: solve equals the bare flow
        assert_allclose(solve(y0, None, t, FlowParams(a=1.0, tau=1.0)).coeffs,
                        flow_apply(y0, t, FlowParams(a=1.0, tau=1.0)).coeffs, rtol=0)
        # zero coupling: solve equals the heat semigroup exactly
        assert_allclose(solve(y0, phi, t, p0).coeffs, semigroup_apply(y0, t).coeffs,
                        rtol=0, atol=0)


def test_characteristic_root_and_smooth_continuation(basis):
    p = FlowParams(a=1.0, tau=1.0)
    rho = characteristic_root(PI2, 1.0, 1.0)
    assert_allclose(math.exp(-rho) - PI2, rho, atol=1e-12)
    y0 = SpectralField.from_modes(basis, {1: 1.0, 2: 0.3, 5: -0.7})
    phi = compatible_history(y0, p)
    # the solution continues the per-mode exponentials exactly; this exercises
    # flow_apply and history_convolution jointly against an analytic solution
    for t in (0.3, 1.0, 1.7, 2.9):
        got = solve(y0, phi, t, p).coeffs
        want = y0.coeffs * np.exp(phi.rates * t)
        assert_allclose(got, want, atol=1e-12)


def test_characteristic_root_no_real_root():
    with pytest.raises(InvalidArgumentError):
        characteristic_root(5.0, -50.0, 1.0)


def test_right_limit_derivative_before_first_lattice(basis):
    p = FlowParams(a=1.0, tau=1.0)
    d = dirac_coeffs(0.3, basis)
    for t in (0.2, 0.8):
        assert_allclose(right_limit_derivative(d, t, p).coeffs,
                        semigroup_apply(d, t).coeffs, rtol=1e-15)


def test_right_limit_derivative_matches_one_sided_difference(basis):
    # first-derivative check at t = 1.3 against a one-sided second-order stencil
    p = FlowParams(a=1.0, tau=1.0)
    d = dirac_coeffs(0.3, basis)
    t, h = 1.3, 1e-4
    got = right_limit_derivative(d, t, p).coeffs
    f0 = flow_apply(d, t, p).coeffs
    f1 = flow_apply(d, t + h, p).coeffs
    f2 = flow_apply(d, t + 2 * h, p).coeffs
    fd = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
    scale = np.maximum(np.abs(got), np.abs(fd))
    mask = scale > 1e-280
    assert np.all(np.abs(got - fd)[mask] / scale[mask] <= 1e-3)


def test_one_sided_differences_agree_between_lattice_points(basis):
    # real-analytic between lattice points: second-order one-sided stencils
    # from the left and from the right converge to the same derivative
    p = FlowParams(a=1.0, tau=1.0)
    d = dirac_coeffs(0.3, basis)
    t, h = 1.3, 1e-4
    f = {m: flow_apply(d, t + m * h, p).coeffs for m in (-2, -1, 0, 1, 2)}
    fd_right = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    fd_left = (3.0 * f[0] - 4.0 * f[-1] + f[-2]) / (2.0 * h)
    scale = np.maximum(np.abs(fd_right), np.abs(fd_left))
    mask = scale > 1e-280
    assert np.all(np.abs(fd_right - fd_left)[mask] / scale[mask] <= 1e-4)


def test_right_limit_derivative_lattice_value(basis):
    # right minus left limit of the j-th derivative at j tau is a^j per mode
    d = dirac_coeffs(0.3, basis)
    for a in (1.0, 2.0):
        p = FlowParams(a=a, tau=1.0)
        lams = basis.eigenvalues()
        for j in (1, 2, 3):
            right = fl.flow_derivative_factors(lams, j * p.tau, j, p, side="right")
            left = fl.flow_derivative_factors(lams, j * p.tau, j, p, side="left")
            assert_allclose(right - left, a**j, rtol=1e-12)


def test_derivative_jump_limit_method(basis):
    rng = np.random.default_rng(4)
    y0 = SpectralField(basis, rng.standard_normal(basis.K))
    p = FlowParams(a=2.0, tau=0.5)
    pred, meas = derivative_jump(y0, 0, p)
    assert_allclose(pred.coeffs, y0.coeffs, rtol=0)
    assert_allclose(meas.coeffs, y0.coeffs, rtol=1e-12)
    pred, meas = derivative_jump(y0, 3, p)
    assert_allclose(pred.coeffs, 8.0 * y0.coeffs, rtol=0)
    assert_allclose(meas.coeffs, pred.coeffs, rtol=1e-9)
    with pytest.raises(TruncationExceededError):
        derivative_jump(y0, 200, p)


def test_derivative_jump_richardson_cross_check():
    # the +/- eps route has O((lam eps)^2) residue; usable on the first mode only
    basis = EigenBasis(1.0, 1)
    y0 = SpectralField.from_modes(basis, [1.0])
    p = FlowParams(a=1.0, tau=1.0)
    pred, meas = derivative_jump(y0, 1, p, method="richardson")
    assert_allclose(meas.coeffs[0], pred.coeffs[0], rtol=5e-4)


def test_grid_history_linear_and_cubic(basis):
    times = np.linspace(-1.0, 0.0, 5)
    rows = np.outer(np.exp(times), np.arange(1, basis.K + 1, dtype=float))
    lin = GridHistory(times, rows, basis, interp_order=1)
    assert_allclose(lin.coeffs(times[2]), rows[2], rtol=0)
    mid = 0.5 * (times[1] + times[2])
    assert_allclose(lin.coeffs(mid), 0.5 * (rows[1] + rows[2]), rtol=1e-15)
    cub = GridHistory(times, rows, basis, interp_order=3)
    assert_allclose(cub.coeffs(mid), np.exp(mid) * np.arange(1, basis.K + 1), rtol=1e-3)
    with pytest.raises(InvalidArgumentError):
        lin.coeffs(mid, order=1)
    with pytest.raises(InvalidArgumentError):
        GridHistory(times[:1], rows[:1], basis)
    with pytest.raises(InvalidArgumentError):
        GridHistory(times, rows, basis, interp_order=2)


def test_history_coeffs_array_gamma_equals_stacked_scalar_calls(basis):
    rng = np.random.default_rng(5)
    times = np.linspace(-1.0, 0.0, 9)
    rows = rng.standard_normal((len(times), basis.K))
    # on the samples, at both ends, between samples, and past the ends (clamped)
    gammas = np.concatenate([times, rng.uniform(-1.0, 0.0, 15), [-1.0, 0.0, -1.25, 0.5]])
    fld = SpectralField(basis, rng.standard_normal(basis.K))
    cases = [(ZeroHistory(basis), 0), (GridHistory(times, rows, basis, interp_order=1), 0)]
    cases += [(ExpModeHistory(fld, rng.uniform(-3.0, 1.0, basis.K)), order) for order in range(4)]
    cases += [(GridHistory(times, rows, basis, interp_order=3), order) for order in range(3)]
    for phi, order in cases:
        batch = phi.coeffs(gammas, order=order)
        assert batch.shape == (len(gammas), basis.K)
        stacked = np.stack([phi.coeffs(g, order=order) for g in gammas.tolist()])
        assert np.array_equal(batch, stacked), (type(phi).__name__, order)
        assert phi.coeffs(float(gammas[3]), order=order).shape == (basis.K,)


def test_grid_history_two_samples_runs(basis):
    p = FlowParams(a=1.0, tau=1.0)
    times = np.array([-1.0, 0.0])
    rows = np.zeros((2, basis.K))
    rows[:, 0] = [0.5, 1.5]
    phi = GridHistory(times, rows, basis, interp_order=1)
    y0 = SpectralField.zero(basis)
    out = solve(y0, phi, 0.75, p)
    assert np.all(np.isfinite(out.coeffs))
    # the interpolated profile is 0.5 + (g + 1); compare the first mode against
    # an independent adaptive quadrature of the same convolution
    lam = basis.eigenvalues()[0]
    t = 0.75
    from scipy.integrate import quad
    ref, _ = quad(lambda g: math.exp(-lam * (t - 1.0 - g)) * (0.5 + (g + 1.0)),
                  -1.0, t - 1.0)
    assert_allclose(out.coeffs[0], ref, rtol=1e-10)


def test_picard_matches_closed_form(basis):
    p = FlowParams(a=1.0, tau=0.5)
    rng = np.random.default_rng(5)
    y0 = SpectralField(basis, rng.standard_normal(basis.K))
    errs = []
    for n_sub in (64, 128):
        trace = picard_solve(y0, None, 2.0, n_iter=14, dt=p.tau / n_sub, params=p)
        ref = solve_trace(y0, None, trace.times, p)
        errs.append(np.max(np.abs(trace.coeffs - ref.coeffs)))
    assert errs[0] <= 1e-6
    # trapezoid floor drops at second order
    assert errs[0] / errs[1] > 3.0


def test_picard_with_history_matches_closed_form(basis):
    p = FlowParams(a=1.0, tau=0.5)
    y0 = SpectralField.from_modes(basis, {1: 1.0})
    phi = ExpModeHistory(SpectralField.from_modes(basis, {1: 0.8, 2: 0.1}), -1.0)
    trace = picard_solve(y0, phi, 1.6, n_iter=12, dt=p.tau / 128, params=p)
    ref = solve_trace(y0, phi, trace.times, p)
    err = np.max(np.abs(trace.coeffs - ref.coeffs))
    assert err <= 5e-5


def test_picard_guards(basis):
    y0 = SpectralField.zero(basis)
    p = FlowParams(a=1.0, tau=1.0)
    with pytest.raises(InvalidArgumentError):
        picard_solve(y0, None, 1.0, n_iter=1, dt=0.5, params=p)  # coarser than tau/4
    with pytest.raises(InvalidArgumentError):
        picard_solve(y0, None, -1.0, n_iter=1, dt=0.1, params=p)
    with pytest.raises(InvalidArgumentError):
        picard_solve(y0, None, 1.0, n_iter=0, dt=0.1, params=p)


def test_picard_inactive_delay_equals_forcing_term(basis):
    # horizons below the delay never engage the feedback term
    p = FlowParams(a=3.0, tau=1.0)
    y0 = SpectralField.from_modes(basis, {1: 1.0})
    phi = ExpModeHistory(SpectralField.from_modes(basis, {1: 1.0}), 0.0)
    one = picard_solve(y0, phi, 0.75, n_iter=1, dt=p.tau / 16, params=p)
    many = picard_solve(y0, phi, 0.75, n_iter=7, dt=p.tau / 16, params=p)
    assert_allclose(one.coeffs, many.coeffs, rtol=0, atol=0)


def test_trace_invariants(basis):
    p = FlowParams(a=1.0, tau=1.0)
    with pytest.raises(InvalidArgumentError):
        fl.SolutionTrace(np.array([0.0, 0.0]), np.zeros((2, basis.K)), basis, p, "x")
