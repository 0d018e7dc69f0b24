import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import delayheat.flow as fl
from delayheat import (EigenBasis, ExpModeHistory, FlowParams, GridHistory,
                       InvalidArgumentError, SpectralField,
                       TruncationExceededError, characteristic_root, compatible_history,
                       delayed_exp, dirac_coeffs, flow_derivative_factors, picard_solve,
                       semigroup_apply, solve_trace)
from delayheat.refsolvers import ModeDDEConfig, rk4_dde_mode

PI2 = math.pi**2


def _solve(y0, phi, t, p):
    """The closed-form solution at one time."""
    return solve_trace(y0, phi, [t], p).coeffs[0]


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


@pytest.mark.parametrize("a", [-2.0, -1.0, 0.5, 1.0])
def test_series_cancellation_is_eps_times_the_sum_of_term_magnitudes(a):
    # every factor of a term but a^j is positive, so the kernel at |a| is sum |terms|: the figure
    # is eps E(|a|) / |E(a)| from the two kernel calls, bit for bit, eps itself for a > 0, and
    # nan only where both sums underflow to 0
    lams, ts = EigenBasis(10.0, 60).eigenvalues(), np.array([0.0, 0.5, 5.0, 20.0, 40.0])
    p = FlowParams(a=a, tau=1.0)
    signed = fl._delayed_exp_grid(lams, ts, p)
    total = fl._delayed_exp_grid(lams, ts, FlowParams(a=abs(a), tau=1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = np.finfo(float).eps * total / np.abs(signed)
    figure = fl.series_cancellation(lams, ts, p)
    assert figure.shape == (5, 60) and figure.tobytes() == expected.tobytes()
    assert np.array_equal(np.isnan(figure), (signed == 0.0) & (total == 0.0))
    if a > 0:
        assert np.all(figure[~np.isnan(figure)] == np.finfo(float).eps)
    else:       # the first mode at t = 20 and 40: 1.9e-10 and 5.1e-3 for a = -2 at L = 10
        assert np.nanmin(figure) >= np.finfo(float).eps * (1.0 - 1e-12)
        assert figure[3, 0] < figure[4, 0] and figure[4, 0] > 1e-5


def test_flow_apply_identity_and_heat_reduction(basis):
    p = FlowParams(a=1.0, tau=1.0)
    rng = np.random.default_rng(2)
    f = SpectralField(basis, rng.standard_normal(basis.K))
    assert_allclose(_solve(f, None, 0.0, p), f.coeffs, rtol=0)
    for t in (0.25, 0.999):
        assert_allclose(_solve(f, None, t, p), semigroup_apply(f, t).coeffs, rtol=1e-15)


def test_flow_apply_dirac_spot_value(basis):
    p = FlowParams(a=1.0, tau=1.0)
    d = dirac_coeffs(0.3, basis)
    got = _solve(d, None, 1.5, p)[0]
    want = d.coeffs[0] * (math.exp(-1.5 * PI2) + 0.5 * math.exp(-0.5 * PI2))
    assert_allclose(got, want, rtol=1e-15)
    assert_allclose(got, 4.11e-3, rtol=2e-3)


def test_solve_zero_history_is_flow_apply(basis):
    p = FlowParams(a=1.0, tau=1.0)
    y0 = SpectralField(basis, np.random.default_rng(4).standard_normal(basis.K))
    for t in (0.0, 0.6, 1.0, 1.7):
        flow = fl._delayed_exp_vec(basis.eigenvalues(), t, p) * y0.coeffs
        assert np.array_equal(_solve(y0, None, t, p), flow)
    with pytest.raises(InvalidArgumentError):
        _solve(y0, None, -0.5, p)


def _unit_history(rate):
    """One-mode history exp(rate * gamma)."""
    return ExpModeHistory(SpectralField(EigenBasis(1.0, 1), np.array([1.0])), rate)


def test_history_convolution_constant_profile_lambda_zero():
    # lam = 0, constant unit profile: value t on [0, tau)
    p = FlowParams(a=1.0, tau=1.0)
    lams = np.array([0.0])
    for t in (0.0, 0.3, 0.95):
        val = fl.history_convolution(lams, _unit_history(0.0), t, p)[0]
        assert_allclose(val, t, atol=1e-13)


def test_history_convolution_upper_limit_saturates():
    # for t >= tau the window is fixed at (-tau, 0); only the flow factor moves.
    # With lam = 0 the integrals are polynomial and computable by hand:
    # t=1: int 1 = 1; t=2: int (1 - g) = 3/2; t=3: int (2 - g) + g^2/2 = 8/3
    p = FlowParams(a=1.0, tau=1.0)
    lams = np.array([0.0])
    vals = [fl.history_convolution(lams, _unit_history(0.0), t, p)[0]
            for t in (1.0, 2.0, 3.0)]
    assert_allclose(vals, [1.0, 1.5, 1.0 + 1.5 + 1.0 / 6.0], atol=1e-12)


def test_solve_spot_value_single_mode_constant_history(basis):
    # y0 = 0, unit first-mode constant history: (1 - exp(-pi^2/2)) / pi^2 at t = 1/2
    p = FlowParams(a=1.0, tau=1.0)
    y0 = SpectralField.zero(basis)
    phi = ExpModeHistory(SpectralField.from_modes(basis, {1: 1.0}), 0.0)
    got = _solve(y0, phi, 0.5, p)
    want1 = (1.0 - math.exp(-0.5 * PI2)) / PI2
    assert_allclose(got[0], want1, rtol=1e-12)
    assert_allclose(got[0], 0.1005925, rtol=1e-6)
    assert_allclose(got[1:], 0.0, atol=1e-15)


def test_solve_reductions(basis):
    rng = np.random.default_rng(3)
    y0 = SpectralField(basis, rng.standard_normal(basis.K))
    p0 = FlowParams(a=0.0, tau=1.0)
    phi = ExpModeHistory(SpectralField.from_modes(basis, {2: 1.0}), -0.3)
    p = FlowParams(a=1.0, tau=1.0)
    for t in (0.4, 1.9):
        # zero history: the solution is the bare flow
        assert_allclose(_solve(y0, None, t, p),
                        fl._delayed_exp_vec(basis.eigenvalues(), t, p) * y0.coeffs, rtol=0)
        # zero coupling: the solution is the heat semigroup exactly
        assert_allclose(_solve(y0, phi, t, p0), semigroup_apply(y0, t).coeffs,
                        rtol=0, atol=0)


def test_characteristic_root_and_smooth_continuation(basis):
    p = FlowParams(a=1.0, tau=1.0)
    rho = characteristic_root(PI2, 1.0, 1.0)
    assert_allclose(math.exp(-rho) - PI2, rho, atol=1e-12)
    y0 = SpectralField.from_modes(basis, {1: 1.0, 2: 0.3, 5: -0.7})
    phi = compatible_history(y0, p)
    # the solution continues the per-mode exponentials exactly; this exercises
    # the flow and history_convolution jointly against an analytic solution
    for t in (0.3, 1.0, 1.7, 2.9):
        got = _solve(y0, phi, t, p)
        want = y0.coeffs * np.exp(phi.rates * t)
        assert_allclose(got, want, atol=1e-12)


def test_characteristic_root_no_real_root():
    with pytest.raises(InvalidArgumentError):
        characteristic_root(5.0, -50.0, 1.0)
    # a < 0 has a real root only while L = log(|a| tau) + lam tau <= -1
    lam, tau = 0.3, 0.5
    a_edge = -math.exp(-1.0 - lam * tau) / tau
    characteristic_root(lam, a_edge * (1.0 - 1e-9), tau)
    with pytest.raises(InvalidArgumentError, match="no real characteristic root"):
        characteristic_root(lam, a_edge * (1.0 + 1e-9), tau)
    with pytest.raises(InvalidArgumentError, match="lam=0.3"):
        characteristic_root(np.array([0.0, lam]), a_edge * (1.0 + 1e-9), tau)


def _brentq_root(lam, a, tau):
    """The larger real root of rho + lam = a exp(-rho tau) by scipy's brentq."""
    from scipy.optimize import brentq

    def f(rho):     # the capped exponent only matters far left of the root
        return a * math.exp(min(-rho * tau, 700.0)) - lam - rho
    if a > 0.0:     # f decreases; f(-lam) > 0, and the root is at most max(0, a - lam)
        lo, hi = -lam, max(0.0, a - lam)
    else:           # f is concave, peaks at log(-a tau) / tau, and f(-lam) < 0
        lo, hi = math.log(-a * tau) / tau, -lam
    return brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)


@pytest.mark.parametrize("K", [60, 240])
@pytest.mark.parametrize("a", [0.1, 1.0, 5.0])
@pytest.mark.parametrize("tau", [0.05, 1.0])
def test_characteristic_root_array_matches_brentq(K, a, tau):
    lams = (np.arange(1, K + 1) * math.pi) ** 2
    got = characteristic_root(lams, a, tau)
    assert got.shape == (K,)
    want = np.array([_brentq_root(lam, a, tau) for lam in lams])
    assert np.all(np.abs(got - want) <= 2.0 * (1e-15 + 8.9e-16 * np.abs(want)))
    # the residual of rho + lam = a exp(-rho tau) is at rounding level: that of lam, plus an
    # ulp of rho times the residual's slope 1 + tau (rho + lam)
    resid = got + lams - a * np.exp(-got * tau)
    ulp_rho = np.spacing(np.maximum(np.abs(got), 1.0 / tau))
    assert np.all(np.abs(resid) <= 4.0 * (np.spacing(lams) + (1.0 + tau * (got + lams)) * ulp_rho))


@pytest.mark.parametrize("tau", [0.05, 1.0])
@pytest.mark.parametrize("a", [-0.01, -0.1, -0.3])
def test_characteristic_root_negative_coupling_matches_brentq(a, tau):
    lams = np.array([0.0, 0.01, 0.1, 0.2])
    got = characteristic_root(lams, a, tau)
    want = np.array([_brentq_root(lam, a, tau) for lam in lams])
    assert np.all(np.abs(got - want) <= 2.0 * (1e-15 + 8.9e-16 * np.abs(want)))
    assert np.all(got + lams < 0.0) and np.all((got + lams) * tau > -1.0)    # principal branch
    assert_allclose(got + lams - a * np.exp(-got * tau), 0.0, atol=4e-16)


def test_characteristic_root_scalar_in_float_out():
    for a in (0.0, 1.0, -0.1):
        rho = characteristic_root(PI2 if a >= 0 else 0.05, a, 1.0)
        assert type(rho) is float
    assert characteristic_root(PI2, 0.0, 1.0) == -PI2
    assert_allclose(characteristic_root(np.array([PI2, 4 * PI2]), 0.0, 1.0), [-PI2, -4 * PI2])


def test_right_limit_derivative_before_first_lattice(basis):
    p = FlowParams(a=1.0, tau=1.0)
    d = dirac_coeffs(0.3, basis)
    for t in (0.2, 0.8):     # floor(t / tau) = 0: the right limit of the flow itself
        assert_allclose(flow_derivative_factors(basis.eigenvalues(), t, 0, p) * d.coeffs,
                        semigroup_apply(d, t).coeffs, rtol=1e-15)


def test_right_limit_derivative_matches_one_sided_difference(basis):
    # first-derivative check at t = 1.3 against a one-sided second-order stencil
    p = FlowParams(a=1.0, tau=1.0)
    d = dirac_coeffs(0.3, basis)
    t, h = 1.3, 1e-4
    got = flow_derivative_factors(basis.eigenvalues(), t, 1, p) * d.coeffs
    f0, f1, f2 = solve_trace(d, None, [t, t + h, t + 2 * h], p).coeffs
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
    f = {m: _solve(d, None, t + m * h, p) for m in (-2, -1, 0, 1, 2)}
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
    # on the samples, at both ends, and between samples
    gammas = np.concatenate([times, rng.uniform(-1.0, 0.0, 15), [-1.0, 0.0]])
    fld = SpectralField(basis, rng.standard_normal(basis.K))
    cases = [(GridHistory(times, rows, basis, interp_order=1), 0)]
    cases += [(ExpModeHistory(fld, rng.uniform(-3.0, 1.0, basis.K)), order) for order in range(4)]
    cases += [(GridHistory(times, rows, basis, interp_order=3), order) for order in range(3)]
    for phi, order in cases:
        batch = phi.coeffs(gammas, order=order)
        assert batch.shape == (len(gammas), basis.K)
        stacked = np.stack([phi.coeffs(g, order=order) for g in gammas.tolist()])
        assert np.array_equal(batch, stacked), (type(phi).__name__, order)
        assert phi.coeffs(float(gammas[3]), order=order).shape == (basis.K,)


@pytest.mark.parametrize("interp_order", [1, 3])
def test_grid_history_reads_one_degree_of_rows_at_a_time(interp_order):
    # Horner over poly[i, d] equals bit for bit the Horner over the gather poly[i] of every
    # degree it replaced, and peaks at 3.0 (n, K) arrays for 3001 gammas at K = 240 where the
    # gather took 5.0 (linear) and 7.0 (cubic)
    import tracemalloc

    k = np.arange(1, 241)
    times, gammas = np.linspace(-1.0, 0.0, 9), np.linspace(-1.0, 0.0, 3001)
    phi = GridHistory(times, np.cos(np.multiply.outer(times, k)) / k, EigenBasis(1.0, 240),
                      interp_order)
    i = np.clip(np.searchsorted(times, gammas, side="right") - 1, 0, len(times) - 2)
    for order in range(interp_order):
        x, poly, want = np.expand_dims(gammas - times[i], -1), phi.poly[i], 0.0
        for d in range(poly.shape[-2] - 1, order - 1, -1):
            want = want * x + math.perm(d, order) * poly[..., d, :]
        tracemalloc.start()
        try:
            got = phi.coeffs(gammas, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes(), order
        assert peak < 3.5 * got.nbytes, (order, peak / got.nbytes)


@pytest.mark.parametrize("interp_order", [1, 3])
def test_grid_history_coeffs_rejects_gamma_outside_the_samples(basis, interp_order):
    # -1.25 and 0.5 were clamped to the end samples without a word
    times = np.linspace(-1.0, 0.0, 9)
    phi = GridHistory(times, np.ones((len(times), basis.K)), basis, interp_order)
    for gamma in (-1.25, 0.5, np.array([-0.5, 0.5])):
        with pytest.raises(InvalidArgumentError, match="outside the grid history samples"):
            phi.coeffs(gamma)
    # rounding past an end is not outside: within 1e-12 max(1, |gamma|)
    edge = phi.coeffs(np.array([-1.0 - 5e-13, 5e-13]))
    assert_allclose(edge, np.ones((2, basis.K)), rtol=1e-12)


def _spline_grids():
    """The bench's 33-sample input, 2- and 3-sample grids, and random grids whose
    neighbouring intervals differ by at most a factor 10, each with its samples."""
    rng = np.random.default_rng(7)
    K = 60
    k = np.arange(1, K + 1)
    g33 = np.linspace(-1.0, 0.0, 33)
    grids = [(g33, (rng.standard_normal(K) / k**2) * np.cos(
        np.outer(g33, rng.uniform(0.5, 4.0, K)) + rng.uniform(0.0, 2.0 * np.pi, K)))]
    for n in [2] * 5 + [3] * 20 + list(rng.integers(4, 60, 40)):
        widths = np.exp(rng.uniform(0.0, math.log(10.0), n - 1))
        times = np.concatenate([[0.0], np.cumsum(widths)])
        grids.append((times / times[-1] - 1.0, rng.standard_normal((n, 7))))
    return grids


def test_grid_history_cubic_equals_scipy_cubic_spline():
    CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline
    rng = np.random.default_rng(8)
    for times, rows in _spline_grids():
        phi = GridHistory(times, rows, EigenBasis(1.0, rows.shape[1]), interp_order=3)
        ref = CubicSpline(times, rows, axis=0)
        gammas = np.concatenate([times, rng.uniform(times[0], times[-1], 100)])
        for order in range(3):
            want = ref(gammas, nu=order)
            err = np.max(np.abs(phi.coeffs(gammas, order) - want))
            assert err <= 1e-14 * np.max(np.abs(want)), (len(times), order, err)


def test_grid_history_two_samples_runs(basis):
    p = FlowParams(a=1.0, tau=1.0)
    times = np.array([-1.0, 0.0])
    rows = np.zeros((2, basis.K))
    rows[:, 0] = [0.5, 1.5]
    phi = GridHistory(times, rows, basis, interp_order=1)
    y0 = SpectralField.zero(basis)
    out = _solve(y0, phi, 0.75, p)
    assert np.all(np.isfinite(out))
    # the interpolated profile is 0.5 + (g + 1); compare the first mode against
    # an independent adaptive quadrature of the same convolution
    lam = basis.eigenvalues()[0]
    t = 0.75
    from scipy.integrate import quad
    ref, _ = quad(lambda g: math.exp(-lam * (t - 1.0 - g)) * (0.5 + (g + 1.0)),
                  -1.0, t - 1.0)
    assert_allclose(out[0], ref, rtol=1e-10)


def test_picard_matches_closed_form(basis):
    p = FlowParams(a=1.0, tau=0.5)
    rng = np.random.default_rng(5)
    y0 = SpectralField(basis, rng.standard_normal(basis.K))
    errs = []
    for n_sub in (64, 128):
        trace = picard_solve(y0, None, 2.0, dt=p.tau / n_sub, params=p)
        ref = solve_trace(y0, None, trace.times, p)
        errs.append(np.max(np.abs(trace.coeffs - ref.coeffs)))
    assert errs[0] <= 1e-6
    # trapezoid floor drops at second order
    assert errs[0] / errs[1] > 3.0


def test_picard_with_history_matches_closed_form(basis):
    p = FlowParams(a=1.0, tau=0.5)
    y0 = SpectralField.from_modes(basis, {1: 1.0})
    phi = ExpModeHistory(SpectralField.from_modes(basis, {1: 0.8, 2: 0.1}), -1.0)
    trace = picard_solve(y0, phi, 1.6, dt=p.tau / 128, params=p)
    ref = solve_trace(y0, phi, trace.times, p)
    err = np.max(np.abs(trace.coeffs - ref.coeffs))
    assert err <= 5e-5


def test_picard_guards(basis):
    y0 = SpectralField.zero(basis)
    p = FlowParams(a=1.0, tau=1.0)
    with pytest.raises(InvalidArgumentError):
        picard_solve(y0, None, 1.0, dt=0.5, params=p)  # coarser than tau/4
    with pytest.raises(InvalidArgumentError):
        picard_solve(y0, None, -1.0, dt=0.1, params=p)


def test_picard_inactive_delay_equals_forcing_term(basis):
    # horizons below the delay never engage the feedback term: one sweep, which moves nothing,
    # and the forcing is the closed form there
    p = FlowParams(a=3.0, tau=1.0)
    y0 = SpectralField.from_modes(basis, {1: 1.0})
    phi = ExpModeHistory(SpectralField.from_modes(basis, {1: 1.0}), 0.0)
    trace = picard_solve(y0, phi, 0.75, dt=p.tau / 16, params=p)
    assert trace.residuals.tolist() == [0.0]
    assert_allclose(trace.coeffs, solve_trace(y0, phi, trace.times, p).coeffs, rtol=0, atol=0)


def test_trace_invariants(basis):
    with pytest.raises(InvalidArgumentError):
        fl.SolutionTrace(np.array([0.0, 0.0]), np.zeros((2, basis.K)), basis)


def _picard_step_integrals(f, g, phi, lams, h, n_sub, n_g, params):
    """The step integrals I_m = h (C0 f_m + C1 f_{m+1}) + h^2 (D0 f'(s_m+) + D1 f'(s_{m+1}-)),
    m = 0..n_g - 1, one row at a time.  The slopes are f' = -lam f + a D with D(s) the history
    phi(s - tau) below tau, phi(0-) as its left limit at tau, and g(s - tau) from tau on."""
    C0, C1, D0, D1 = fl._picard_weights(lams * h)

    def delayed(m, side):
        if m < n_sub or (m == n_sub and side == "left"):
            return np.zeros(len(lams)) if phi is None else phi.coeffs(m * h - params.tau)
        return g[m - n_sub]

    rows = []
    for m in range(n_g):
        right = -lams * f[m] + params.a * delayed(m, "right")
        left = -lams * f[m + 1] + params.a * delayed(m + 1, "left")
        rows.append(h * (C0 * f[m] + C1 * f[m + 1]) + h * h * (D0 * right + D1 * left))
    return np.array(rows).reshape(n_g, len(lams))


def _picard_einsum_reference(y0, T, n_iter, dt, params):
    """Picard iteration (zero history) with G applied as the O(N^2) sum
    a sum_{m<M} exp(-lam (M - 1 - m) h) I_m of the step integrals."""
    n_sub = round(params.tau / dt)
    h = params.tau / n_sub
    n_steps = math.ceil(T / h - 1e-9)
    times = np.arange(n_steps + 1) * h
    lams = y0.basis.eigenvalues()
    decay = np.exp(-np.outer(times, lams))
    F = decay * y0.coeffs[None, :]

    def apply_G(f, g):
        out = np.zeros_like(f)
        steps = _picard_step_integrals(f, g, None, lams, h, n_sub, n_steps - n_sub, params)
        for i in range(n_sub + 1, n_steps + 1):
            M = i - n_sub
            out[i] = params.a * np.einsum("sk,sk->k", decay[M - 1::-1], steps[:M])
        return out

    y, before = F.copy(), np.zeros_like(F)
    for _ in range(n_iter):
        y, before = F + apply_G(y, before), y
    return times, y


@pytest.mark.parametrize("a", [-1.0, 2.0])
def test_picard_recurrence_matches_einsum_reference(a):
    basis60 = EigenBasis(1.0, 60)
    p = FlowParams(a=a, tau=1.0)
    y0 = dirac_coeffs(0.3, basis60)
    trace = picard_solve(y0, None, 3.0, dt=1.0 / 64, params=p)
    # 3 sweeps reach the fixed point; the reference makes 9 more
    times, ref = _picard_einsum_reference(y0, 3.0, 12, 1.0 / 64, p)
    assert np.array_equal(trace.times, times)
    assert np.max(np.abs(trace.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))


def _picard_serial_reference(y0, phi, T, n_iter, dt, params):
    """Picard iteration with G's recurrence S_M = q S_{M-1} + I_{M-1} run one row at a
    time: the serial recurrence the decay scan of `picard_solve` replaced, kept as its
    reference."""
    n_sub = round(params.tau / dt)
    h = params.tau / n_sub
    n_steps = math.ceil(T / h - 1e-9)
    times = np.arange(n_steps + 1) * h
    lams = y0.basis.eigenvalues()
    decay = np.exp(-np.outer(times, lams))
    F = decay * y0.coeffs[None, :]
    if phi is not None:
        m = min(n_sub, n_steps) + 1
        H = fl.history_convolution(lams, phi, times[:m], params)
        F[:m] += H
        F[m:] += decay[1:len(times) - m + 1] * H[-1]
    q, n_g = decay[1], n_steps - n_sub

    def apply_G(f, g):
        out = np.zeros_like(f)
        if params.a == 0.0 or n_g < 1:
            return out
        steps = _picard_step_integrals(f, g, phi, lams, h, n_sub, n_g, params)
        S = np.zeros(len(lams))
        for M in range(1, n_g + 1):
            S = q * S + steps[M - 1]
            out[n_sub + M] = params.a * S
        return out

    y, before = F.copy(), np.zeros_like(F)
    for _ in range(n_iter):
        y, before = F + apply_G(y, before), y
    return times, y


@pytest.mark.parametrize("a", [-2.0, -1.0, 1.0, 2.0])
@pytest.mark.parametrize("n_sub", [4, 16, 37])
@pytest.mark.parametrize("history", [False, True])
@pytest.mark.parametrize("T_over_tau", [0.55, 1.0, 2.0, 2.3])
def test_picard_scan_matches_serial_reference(a, n_sub, history, T_over_tau):
    # K = 60 spans lam from 9.87 (mode 1) and 88.8 (mode 3) to 3.55e4 (mode 60)
    basis60 = EigenBasis(1.0, 60)
    p = FlowParams(a=a, tau=0.7)
    y0 = dirac_coeffs(0.3, basis60)
    phi = (ExpModeHistory(SpectralField.from_modes(basis60, [0.9, -0.4, 0.2, 0.1]), -1.3)
           if history else None)
    T = T_over_tau * p.tau
    trace = picard_solve(y0, phi, T, dt=p.tau / n_sub, params=p)      # at most 3 windows
    times, ref = _picard_serial_reference(y0, phi, T, 4, p.tau / n_sub, p)
    assert np.array_equal(trace.times, times)
    scale = np.max(np.abs(ref), axis=0)       # per mode
    assert np.all(np.max(np.abs(trace.coeffs - ref), axis=0) <= 1e-13 * scale)


def test_picard_residuals_contract_factorially():
    # the setting of `validate --suite picard`: the residual of iteration n is
    # max_t ||G^{n+1} F||, below C (|a| T)^{n+1} / (n+1)! and exactly 0 once
    # (n + 1) tau >= T, where the method of steps has run out of windows
    K, T = 8, 3.0
    basis8 = EigenBasis(1.0, K)
    p = FlowParams(a=1.0, tau=0.25)
    y0 = SpectralField(basis8, 1.0 / np.arange(1, K + 1))
    trace = picard_solve(y0, None, T, dt=p.tau / 64, params=p)
    res = trace.residuals
    assert res.shape == (12,)       # one sweep per delay window
    bound = np.array([T ** (n + 1) / math.factorial(n + 1) for n in range(12)])
    C = res[0] / bound[0]
    assert np.all(res <= C * bound)
    assert np.all(res[1:11] < 0.1 * res[:10])
    assert res[0] / res[9] > 1e9
    assert res[11] == 0.0
    # each residual is the distance between consecutive iterates
    run = [y for _, y, _ in fl._picard_iterates(y0, None, T, p.tau / 64, p)]
    for n in (1, 4):
        assert res[n] == np.max(np.linalg.norm(run[n] - run[n - 1], axis=1))
    # a = 0: G = 0, so the first iterate is already the fixed point
    p0 = FlowParams(a=0.0, tau=0.25)
    for phi in (None, compatible_history(y0, p)):
        assert np.all(picard_solve(y0, phi, T, dt=p.tau / 64, params=p0).residuals == 0.0)


def test_picard_turns_negative_zero_data_into_positive_zeros(monkeypatch):
    # y0 = -0.0: F is -0.0 throughout and F + G F turns every -0.0 into +0.0; the
    # 3 delay windows of T = 2.5 take 3 sweeps, each with residual 0
    sweeps, sweep = [], fl._method_of_steps
    monkeypatch.setattr(fl, "_method_of_steps",
                        lambda *args, **kw: sweeps.append(kw["start"]) or sweep(*args, **kw))
    y0 = SpectralField(EigenBasis(1.0, 8), np.full(8, -0.0))
    trace = picard_solve(y0, None, 2.5, dt=1.0 / 16, params=FlowParams())
    assert len(sweeps) == 3
    assert trace.residuals.tolist() == [0.0] * 3 and not np.signbit(trace.coeffs).any()


def _short_delay_histories(a):
    # L = 10 and tau = 0.25 keep log(|a| tau) + lam tau below -1 for the 3 modes,
    # so the compatible history exists for a = -1 as well
    basis3 = EigenBasis(10.0, 3)
    p = FlowParams(a=a, tau=0.25)
    y0 = SpectralField(basis3, np.array([1.0, -0.5, 0.25]))
    return p, y0, {"zero": None, "compatible": compatible_history(y0, p)}


@pytest.mark.parametrize("a", [1.0, -1.0, 1e100])
def test_picard_residuals_are_the_full_length_differences(a):
    # sweep n >= 2 forms F + g and its residual past row n n_sub alone and copies the rows above
    # from iterate n - 1: each iterate and residual is what the full-length sums give, nan
    # included once a copied row holds inf or nan (a = 1e100 overflows, and a residual over the
    # formed rows alone read 0 last where the full-length difference is nan)
    basis12 = EigenBasis(1.0, 12)
    p, y0 = FlowParams(a=a, tau=0.5), dirac_coeffs(0.3, basis12)
    with np.errstate(over="ignore", invalid="ignore"):
        run = list(fl._picard_iterates(y0, None, 2.5, p.tau / 8, p))
        times = run[0][0]
        iterates = [np.exp(-np.outer(times, basis12.eigenvalues())) * y0.coeffs]    # y_0 = F
        iterates += [y for _, y, _ in run]
        full = [np.max(np.linalg.norm(y - prev, axis=1))
                for prev, y in zip(iterates, iterates[1:])]
    assert len(run) == 5        # one sweep per delay window
    np.testing.assert_array_equal([r for _, _, r in run], full)
    for n, (prev, y) in enumerate(zip(iterates[1:], iterates[2:]), start=2):
        assert np.array_equal(y[:n * 8 + 1], prev[:n * 8 + 1], equal_nan=True), n


@pytest.mark.parametrize("a", [1.0, -1.0])
def test_picard_solve_is_a_prefix_of_picard_iterates(a):
    # picard_solve is the whole run of _picard_iterates, one item per delay window: its
    # residuals are the run's and its coefficients the last iterate, bit for bit
    p, y0, histories = _short_delay_histories(a)
    for name, phi in histories.items():
        run = list(fl._picard_iterates(y0, phi, 2.0, p.tau / 16, p))
        assert len(run) == 8, name
        trace = picard_solve(y0, phi, 2.0, dt=p.tau / 16, params=p)
        times, y, _ = run[-1]
        assert np.array_equal(trace.times, times), name
        assert np.array_equal(trace.coeffs, y), name
        assert np.array_equal(trace.residuals, [r for _, _, r in run]), name


@pytest.mark.parametrize("a", [1.0, -1.0])
def test_picard_iterates_count_from_one(a):
    # iterate n is n applications of y <- F + G y to y = F; the horizon of 8 delays keeps
    # iterates 1..6 apart, where the method of steps has not yet reached a fixed point
    p, y0, histories = _short_delay_histories(a)
    for name, phi in histories.items():
        run = itertools.islice(fl._picard_iterates(y0, phi, 8 * p.tau, p.tau / 16, p), 6)
        for n, (times, y, _) in enumerate(run, start=1):
            ref_times, ref = _picard_serial_reference(y0, phi, 8 * p.tau, n, p.tau / 16, p)
            assert np.array_equal(times, ref_times)
            assert np.max(np.abs(y - ref)) <= 1e-13 * np.max(np.abs(ref)), (name, n)


def _k60_histories(y0, params):
    """Seeded exp, grid-linear and grid-cubic histories on 60 modes, plus the
    compatible one where the characteristic roots exist (a > 0)."""
    basis = y0.basis
    rng = np.random.default_rng(11)
    k = np.arange(1, basis.K + 1)
    gammas = np.linspace(-params.tau, 0.0, 33)
    rows = (rng.standard_normal(basis.K) / k**2) * np.cos(
        np.outer(gammas, rng.uniform(0.5, 4.0, basis.K)) + rng.uniform(0.0, 2.0 * np.pi, basis.K))
    out = {
        "exp": ExpModeHistory(SpectralField.from_modes(basis, [0.9, -0.4, 0.2, 0.1]), -1.3),
        "grid-linear": GridHistory(gammas, rows, basis, interp_order=1),
        "grid-cubic": GridHistory(gammas, rows, basis, interp_order=3),
    }
    if params.a > 0:
        out["compatible"] = compatible_history(y0, params)
    return out


@pytest.mark.parametrize("a", [1.0, -1.0, 2.0])
def test_picard_equals_solve_trace_up_to_tau(a):
    p = FlowParams(a=a, tau=1.0)
    y0 = dirac_coeffs(0.3, EigenBasis(1.0, 60))
    for name, phi in _k60_histories(y0, p).items():
        for T in (0.75, 2.5):      # a horizon inside the first delay window, and past it
            trace = picard_solve(y0, phi, T, dt=1.0 / 64, params=p)
            upto = trace.times <= p.tau
            ref = solve_trace(y0, phi, trace.times[upto], p)
            assert np.array_equal(trace.coeffs[upto], ref.coeffs), (name, T)


def _exact_picard_weights(z, mp):
    """(C0, C1, D0, D1) at h = 1 from the four exactness conditions on 1, x, exp(-z x) and
    x exp(-z x), solved in enough digits to survive their near-singularity as z -> 0 and
    the exp(-z) scale of C0 and D0."""
    if z == 0.0:
        return [mp.mpf(1) / 2, mp.mpf(1) / 2, mp.mpf(1) / 12, -mp.mpf(1) / 12]
    with mp.workdps(40 + int(z / 2) + 4 * max(0, int(-math.log10(z)))):
        z = mp.mpf(z)
        E = mp.exp(-z)
        A = mp.matrix([[1, 1, 0, 0], [0, 1, 1, 1], [1, E, -z, -z * E], [0, E, 1, (1 - z) * E]])
        b = mp.matrix([(1 - E) / z, 1 / z - (1 - E) / z ** 2, E, E / 2])
        return [+w for w in mp.lu_solve(A, b)]


def test_picard_weights_match_an_exact_solve():
    mp = pytest.importorskip("mpmath")
    switch = fl._FIT_SWITCH
    zs = sorted({0.0, 1e-12, 1e-6, 1e-3, 0.1, 1.0, math.nextafter(switch, 0.0), switch, 2.0,
                 10.0, 354.0, 555.0, 2e3})
    got = fl._picard_weights(np.array(zs))
    assert got.shape == (4, len(zs))
    for j, z in enumerate(zs):
        for i, exact in enumerate(_exact_picard_weights(z, mp)):
            if abs(exact) >= np.finfo(float).tiny:
                assert abs(got[i, j] - exact) <= 1e-14 * abs(exact), (z, i)
            else:       # C0 and D0 past z = 745
                assert abs(got[i, j]) <= 1e-300, (z, i)


@pytest.mark.parametrize("a", [-1.0, 1.0, 2.0])
def test_picard_error_and_its_order_on_60_modes(a):
    # the point mass on K = 60 modes, at a horizon past the windows where the rule is exact
    # (e^{lam s} f linear): 3e-6 at dt = 1/64, and each halving of dt divides the error by
    # at least 12 (zero history) or 6 (compatible history)
    p = FlowParams(a=a, tau=1.0)
    y0 = dirac_coeffs(0.3, EigenBasis(1.0, 60))
    histories = {"zero": (None, 12.0)}
    if a > 0:
        histories["compatible"] = (compatible_history(y0, p), 6.0)
    for name, (phi, gain) in histories.items():
        for T in (5.0, 7.5):
            exact = solve_trace(y0, phi, [T], p).coeffs[0]
            errs = [np.linalg.norm(picard_solve(y0, phi, T, dt, p).coeffs[-1] - exact)
                    / np.linalg.norm(exact) for dt in (1 / 64, 1 / 128, 1 / 256)]
            assert errs[0] <= 3e-6, (name, T, errs)
            assert errs[0] >= gain * errs[1] and errs[1] >= gain * errs[2], (name, T, errs)


@pytest.mark.parametrize("a", [1.0, -1.0])
def test_solve_trace_equals_per_time_reference(a):
    # the batched closed form equals the closed form one time at a time, bit for bit
    p = FlowParams(a=a, tau=1.0)
    y0 = dirac_coeffs(0.3, EigenBasis(1.0, 60))
    times = [0.0, 0.3, 1.0, 1.5, 2.0, 2.75]        # 0 and the lattice points 1, 2 included
    for name, phi in {"zero": None, **_k60_histories(y0, p)}.items():
        trace = solve_trace(y0, phi, times, p)
        for i, t in enumerate(times):
            assert np.array_equal(_solve(y0, phi, t, p), trace.coeffs[i]), (name, t)


@pytest.mark.parametrize("tau", [0.25, 1.0])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_solve_trace_compatible_history_exact_per_mode(a, tau):
    # the compatible history continues as c_k exp(rho_k t) in every one of the
    # K = 60 modes, stiff ones included, out to 30 delay windows
    p = FlowParams(a=a, tau=tau)
    y0 = dirac_coeffs(0.3, EigenBasis(1.0, 60))
    phi = compatible_history(y0, p)
    times = np.unique(np.concatenate([[0.05], np.arange(1, 31) * tau,
                                      (np.arange(30) + 0.37) * tau]))
    got = solve_trace(y0, phi, times, p).coeffs
    want = y0.coeffs * np.exp(np.outer(times, phi.rates))
    rel = np.abs(got - want) / np.abs(want)
    assert np.max(rel) <= 1e-12, (float(np.max(rel)), np.unravel_index(np.argmax(rel), rel.shape))


def _delayed_exp_reference(lam, v, a, tau):
    """The delayed exponential summed term by term in plain floats."""
    return sum(a**j / math.factorial(j) * (v - j * tau) ** j * math.exp(-lam * (v - j * tau))
               for j in range(int(math.floor(v / tau + 1e-12)) + 1) if v - j * tau >= 0.0)


@pytest.mark.parametrize("interp_order", [1, 3])
def test_history_convolution_grid_matches_adaptive_quadrature(interp_order):
    from scipy.integrate import quad
    from scipy.interpolate import CubicSpline

    p = FlowParams(a=1.0, tau=1.0)
    y0 = dirac_coeffs(0.3, EigenBasis(1.0, 60))
    phi = _k60_histories(y0, p)[f"grid-{'linear' if interp_order == 1 else 'cubic'}"]
    lams = y0.basis.eigenvalues()
    times = [0.3, 1.0, 1.5, 2.0, 2.75]
    got = fl.history_convolution(lams, phi, times, p)
    for mode in (1, 10, 30, 60):
        col = phi.rows[:, mode - 1]
        profile = ((lambda g: float(np.interp(g, phi.times, col))) if interp_order == 1
                   else CubicSpline(phi.times, col))
        ref = []
        for t in times:
            upper = min(t - p.tau, 0.0)
            # the integrand has kinks at the samples and where t - tau - gamma
            # crosses the lattice; the panels resolve exp(-lam v) near each
            kinks = sorted(g for g in {*phi.times.tolist(), *(t - m * p.tau for m in range(1, 4))}
                           if -p.tau < g < upper)
            val, _ = quad(lambda g: _delayed_exp_reference(lams[mode - 1], t - p.tau - g, p.a, p.tau)
                          * float(profile(g)), -p.tau, upper, points=kinks or None,
                          limit=500, epsabs=0.0, epsrel=1e-13)
            ref.append(p.a * val)
        ref = np.array(ref)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got[:, mode - 1] - ref)) <= 1e-10 * scale, mode


@pytest.mark.parametrize("mu_tau", [-50.0, -1.0, -1e-9, 0.0, 1e-9, 1.0, 50.0])
def test_history_convolution_exp_first_window_closed_form(mu_tau):
    # in the first window only the j = 0 term is active:
    # a c exp(r (t - tau)) (1 - exp(-mu t)) / mu with mu = lam + r, and a c exp(r (t - tau)) t at mu = 0
    tau, lam, a, c = 0.5, math.pi**2, 1.5, 0.7
    p = FlowParams(a=a, tau=tau)
    mu = mu_tau / tau
    r = mu - lam
    phi = ExpModeHistory(SpectralField(EigenBasis(1.0, 1), np.array([c])), r)
    for t in (0.01, 0.2, 0.37, 0.5):
        got = fl.history_convolution(np.array([lam]), phi, t, p)[0]
        want = a * c * math.exp(r * (t - tau)) * (-math.expm1(-mu * t) / mu if mu != 0.0 else t)
        assert_allclose(got, want, rtol=1e-13, err_msg=f"mu tau={mu_tau}, t={t}")


def test_history_convolution_rejects_grid_not_spanning_the_delay(basis):
    p = FlowParams(a=1.0, tau=1.0)
    rows = np.ones((3, basis.K))
    for times in ([-0.5, -0.25, 0.0], [-1.0, -0.6, -0.2]):
        phi = GridHistory(np.array(times), rows, basis)
        with pytest.raises(InvalidArgumentError, match="tau = 1"):
            fl.history_convolution(basis.eigenvalues(), phi, [0.5, 1.5], p)
    # samples past either end are fine: the pieces are cut to [-tau, 0]
    wide = GridHistory(np.array([-1.5, -1.0, -0.5, 0.0, 0.5]), np.ones((5, basis.K)), basis)
    exact = GridHistory(np.array([-1.0, 0.0]), np.ones((2, basis.K)), basis)
    assert_allclose(fl.history_convolution(basis.eigenvalues(), wide, [0.5, 1.5], p),
                    fl.history_convolution(basis.eigenvalues(), exact, [0.5, 1.5], p),
                    rtol=1e-14)


def _history_convolution_per_term(lams, phi, ts, params):
    """`history_convolution` with one `_exp_moments` table per series term, each to that
    term's order over that term's widths."""
    a, tau = params.a, params.tau
    lo, hi, anchor, poly, rates = phi.pieces(tau)
    t = np.asarray(ts, dtype=float).ravel()
    out = np.zeros((t.size, len(lams)))
    n_terms = params.series_index(float(t.max())) + 1 if t.size and a != 0.0 else 0
    mu, deg = lams + rates, poly.shape[1] - 1
    for j in range(n_terms):
        u = t - (j + 1) * tau
        gb = np.minimum(hi, u[:, None])
        live = gb > lo
        if not live.any():
            continue
        ti, pi = np.nonzero(live)
        gb = gb[live]
        va, delta = u[ti] - gb, gb - anchor[pi]
        widths, which = np.unique(gb - lo[pi], return_inverse=True)
        moments = fl._exp_moments(mu, widths[:, None], j + deg)
        dpow = [np.ones_like(delta)]
        for _ in range(deg):
            dpow.append(dpow[-1] * delta)
        coef = poly[pi]
        q = [(-1) ** m * sum(math.comb(k, m) * coef[:, k] * dpow[k - m][:, None]
                             for k in range(m, deg + 1)) for m in range(deg + 1)]
        c = [fl._series_coeffs([a], j + 1, j - i, va)[0] for i in range(j + 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            acc = np.zeros((len(gb), len(lams)))
            for m in range(deg + 1):
                inner = sum(c[i][:, None] * (math.factorial(i + m) // math.factorial(i))
                            * moments[which, :, i + m] for i in range(j + 1))
                acc += q[m] * inner
            acc *= np.exp(np.multiply.outer(gb, rates) - np.multiply.outer(va, lams))
            full = np.zeros(live.shape + (len(lams),))
            full[live] = acc
            out += full.sum(axis=1)
    return out


@pytest.mark.parametrize("a", [-2.0, -1.0, 1.0, 2.0])
def test_history_convolution_equals_one_moment_table_per_term(a):
    # one `_exp_moments` table over every term's widths gives each entry the bits of the
    # per-term tables: an entry depends on its width and order alone
    basis = EigenBasis(1.0, 8)
    p = FlowParams(a=a, tau=1.0)
    y0 = SpectralField.from_modes(basis, [1.0, -0.5, 0.25])
    gammas = np.linspace(-1.0, 0.0, 9)
    rows = np.cos(np.multiply.outer(gammas, np.arange(1.0, 9.0))) / np.arange(1.0, 9.0) ** 2
    histories = {
        "zero": ExpModeHistory(SpectralField.zero(basis), -1.0),
        "exp": ExpModeHistory(SpectralField.from_modes(basis, [0.9, -0.4, 0.2, 0.1]), -1.3),
        "linear grid": GridHistory(gammas, rows, basis, interp_order=1),
        "cubic grid": GridHistory(gammas, rows, basis, interp_order=3),
    }
    if a > 0.0:     # for a <= -1 no mode has the real characteristic root it is built from
        histories["compatible"] = compatible_history(y0, p)
    ts = np.concatenate([np.linspace(0.0, 10.0, 41), [0.3, 1.7, 6.05, 9.95]])
    for name, phi in histories.items():
        got = fl.history_convolution(basis.eigenvalues(), phi, ts, p)
        want = _history_convolution_per_term(basis.eigenvalues(), phi, ts, p)
        assert got.tobytes() == want.tobytes(), name


def test_solve_trace_guards(basis):
    y0 = SpectralField.from_modes(basis, [1.0])
    phi = ExpModeHistory(y0, -1.0)
    for hist in (None, phi):
        with pytest.raises(InvalidArgumentError):
            solve_trace(y0, hist, [-0.5, 0.5], FlowParams(a=1.0, tau=1.0))
        with pytest.raises(TruncationExceededError):
            solve_trace(y0, hist, [0.5, 4.5], FlowParams(a=1.0, tau=1.0, j_max=3))
