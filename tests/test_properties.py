import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import delayheat.flow as fl
from delayheat import (EigenBasis, ExpModeHistory, FlowParams, GridHistory, InvalidArgumentError,
                       ModeDDEConfig, SpectralField, TruncationExceededError, compatible_history,
                       delayed_exp, hs_norm, picard_solve, project, rk4_dde_mode, semigroup_apply,
                       solve_trace)

finite_coeff = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(st.lists(finite_coeff, min_size=4, max_size=4),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_semigroup_law(coeffs, t1, t2):
    basis = EigenBasis(1.0, 4)
    f = SpectralField(basis, np.array(coeffs))
    lhs = semigroup_apply(semigroup_apply(f, t1), t2).coeffs
    rhs = semigroup_apply(f, t1 + t2).coeffs
    assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-280)


@settings(max_examples=30, deadline=None)
@given(st.lists(finite_coeff, min_size=6, max_size=6))
def test_norm_zero_index_is_euclidean(coeffs):
    basis = EigenBasis(1.0, 6)
    f = SpectralField(basis, np.array(coeffs))
    assert_allclose(hs_norm(f, 0.0), float(np.linalg.norm(coeffs)), rtol=1e-13)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.1, max_value=3.0), st.floats(min_value=-1.5, max_value=1.5))
def test_projection_roundtrip_smooth(freq, amp):
    basis = EigenBasis(1.0, 40)
    f = lambda x: amp * np.sin(freq * x) * x * (1.0 - x)
    fld = project(f, basis)
    xs = np.linspace(0.05, 0.95, 19)
    assert_allclose(basis.eval_matrix(xs) @ fld.coeffs, f(xs), atol=5e-4 * max(1.0, abs(amp)))


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.0, max_value=60.0),
       st.sampled_from([-1.0, 0.5, 1.0, 2.0]),
       st.sampled_from([0.5, 1.0]))
def test_delayed_exp_matches_rk4(lam, a, tau):
    params = FlowParams(a=a, tau=tau)
    cfg = ModeDDEConfig(lam=lam, a=a, tau=tau, dt=tau / 400)
    trace = rk4_dde_mode(cfg, 2.0 * tau)
    exact = np.array([delayed_exp(lam, float(t), params) for t in trace.times])
    rel = np.max(np.abs(trace.values - exact)) / np.max(np.abs(exact))
    assert rel <= 1e-5


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.0, max_value=5.0), st.integers(min_value=0, max_value=4),
       st.sampled_from([0.5, 1.0]), st.sampled_from([-1.0, 1.0, 2.0]))
def test_derivative_gap_off_lattice_is_zero(t_frac, j, tau, a):
    # left and right derivative evaluations agree strictly between lattice points
    params = FlowParams(a=a, tau=tau)
    t = (j + 0.25 + 0.5 * t_frac / 5.0) * tau
    lams = np.array([0.0, math.pi**2, 50.0])
    for order in (1, 2, 3):
        right = fl.flow_derivative_factors(lams, t, order, params, side="right")
        left = fl.flow_derivative_factors(lams, t, order, params, side="left")
        assert np.array_equal(right, left)


@settings(max_examples=25, deadline=None)
@given(st.lists(finite_coeff, min_size=5, max_size=5), st.floats(min_value=0.0, max_value=2.5))
def test_flow_linearity(coeffs, t):
    basis = EigenBasis(1.0, 5)
    params = FlowParams(a=1.0, tau=1.0)
    f = SpectralField(basis, np.array(coeffs))
    two = solve_trace(f * 2.0, None, [t], params).coeffs
    one = solve_trace(f, None, [t], params).coeffs
    assert_allclose(two, 2.0 * one, rtol=1e-13, atol=1e-280)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0),
       st.sampled_from(["exp", "grid-linear", "grid-cubic"]), st.sampled_from([-1.0, 0.5, 2.0]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_solve_trace_jointly_linear_in_initial_data_and_history(alpha, beta, kind, a, seed):
    # exp histories share their rates, grid histories their samples, so the
    # combination of two histories is a history of the same kind
    basis = EigenBasis(1.0, 8)
    params = FlowParams(a=a, tau=0.5)
    rng = np.random.default_rng(seed)
    y1, y2 = (SpectralField(basis, rng.standard_normal(8)) for _ in range(2))
    if kind == "exp":
        rates = rng.uniform(-3.0, 1.0, 8)
        h1, h2 = rng.standard_normal((2, 8))
        make = lambda c: ExpModeHistory(SpectralField(basis, c), rates)
    else:
        gammas = np.linspace(-0.5, 0.0, 9)
        h1, h2 = rng.standard_normal((2, 9, 8))
        make = lambda rows: GridHistory(gammas, rows, basis, 1 if kind == "grid-linear" else 3)
    times = [0.0, 0.2, 0.5, 0.8, 1.0, 1.7]
    s1 = solve_trace(y1, make(h1), times, params).coeffs
    s2 = solve_trace(y2, make(h2), times, params).coeffs
    both = solve_trace(y1 * alpha + y2 * beta, make(alpha * h1 + beta * h2), times, params).coeffs
    scale = np.max(np.abs(alpha * s1) + np.abs(beta * s2), axis=0)
    assert np.all(np.abs(both - (alpha * s1 + beta * s2)) <= 1e-12 * scale + 1e-300)


def _series_one_time(lams, t, order, params, side):
    """The derivative series at one time, term by term in scalar arithmetic."""
    j_top = params.series_index(t)
    if side == "left" and abs(t - j_top * params.tau) <= 1e-12 * max(1.0, abs(t)):
        j_top -= 1
    out = np.zeros_like(lams)
    for j in range(j_top + 1):
        if j > 0 and params.a == 0.0:
            break
        dt_j = max(t - j * params.tau, 0.0)
        decay = np.exp(-lams * dt_j)
        for l in range(min(order, j) + 1):
            p = j - l
            if dt_j == 0.0 and p > 0:
                continue
            if j <= 20:
                coef = (params.a**j) * dt_j**p / math.factorial(p)
            else:
                sign = -1.0 if (params.a < 0 and j % 2 == 1) else 1.0
                coef = sign * math.exp(j * math.log(abs(params.a))
                                       + (p * math.log(dt_j) if p > 0 else 0.0)
                                       - math.lgamma(p + 1))
            out += coef * math.comb(order, l) * np.power(-lams, order - l) * decay
    return out


_KERNEL_LAMS = np.concatenate([[0.0], EigenBasis(1.0, 12).eigenvalues()])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0.0, -0.4, -1.0, -2.5, 0.7, 1.0, 3.0]),
       st.sampled_from([0.05, 0.3, 1.0]),
       st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=6),
       st.lists(st.integers(min_value=0, max_value=40), max_size=3),
       st.integers(min_value=0, max_value=4),
       st.sampled_from(["left", "right"]))
def test_batched_kernel_equals_one_time_at_a_time(a, tau, off, lattice, order, side):
    # tau = 0.05 puts up to 40 terms alive on [0, 2], past the j > 20 log-space branch
    params = FlowParams(a=a, tau=tau)
    times = np.array(off + [k * tau for k in lattice if k * tau <= 2.0])
    batch = fl._delayed_exp_grid(_KERNEL_LAMS, times, params, order, side)
    assert batch.shape == (len(times), len(_KERNEL_LAMS))
    for t, row in zip(times.tolist(), batch):
        alone = fl._delayed_exp_grid(_KERNEL_LAMS, [t], params, order, side)[0]
        assert np.array_equal(row, alone)
        assert np.array_equal(row, _series_one_time(_KERNEL_LAMS, t, order, params, side))


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_kernel_coupling_array_equals_one_call_per_coupling(order, side):
    # times at 0, on the lattice and between; 22 tau and 22.5 tau reach the j > 20 log-space
    # branch, where a = 0 has no logarithm
    couplings, tau = (-2.0, -1.0, 0.0, 1.0, 2.0), 0.5
    times = np.array([0.0, 0.2, 0.5, 1.0, 1.25, 1.5, 2.0, 3.1, 11.0, 11.25])
    grids = fl._delayed_exp_grid(_KERNEL_LAMS, times, FlowParams(tau=tau), order, side,
                                 a=np.array(couplings)[:, None, None])
    assert grids.shape == (len(couplings), len(times), len(_KERNEL_LAMS))
    for a, grid in zip(couplings, grids):
        alone = fl._delayed_exp_grid(_KERNEL_LAMS, times, FlowParams(a=a, tau=tau), order, side)
        assert np.all(np.isfinite(alone))
        assert grid.tobytes() == alone.tobytes(), a


@pytest.mark.parametrize("shape", [(3,), (3, 1), (1, 3, 1)])
def test_kernel_rejects_couplings_that_are_not_one_per_grid(shape):
    with pytest.raises(InvalidArgumentError, match=re.escape(f"got {shape}")):
        fl._delayed_exp_grid(_KERNEL_LAMS, [1.0], FlowParams(), a=np.ones(shape))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=3.9), max_size=5),
       st.floats(min_value=4.0, max_value=9.0), st.integers(min_value=0, max_value=5))
def test_batched_kernel_rejects_any_time_past_j_max(ok_times, late, where):
    params = FlowParams(a=1.0, tau=1.0, j_max=3)
    times = list(ok_times)
    times.insert(min(where, len(times)), late)
    with pytest.raises(TruncationExceededError):
        fl._delayed_exp_grid(_KERNEL_LAMS, times, params)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0), st.floats(min_value=0.1, max_value=2.0),
       st.integers(min_value=10, max_value=60), st.floats(min_value=0.05, max_value=3.5),
       st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
def test_zero_coupling_reduces_to_heat_semigroup(L, tau, n_sub, T_over_tau, with_history, seed):
    # a = 0: the closed form, the mode stepper (all modes at once) and Picard
    # all give e^{-lam t} y0, whatever the history; horizons cover partial windows
    basis = EigenBasis(L, 6)
    params = FlowParams(a=0.0, tau=tau)
    rng = np.random.default_rng(seed)
    y0 = SpectralField(basis, rng.standard_normal(6))
    phi = (ExpModeHistory(SpectralField(basis, rng.standard_normal(6)), rng.uniform(-2.0, 1.0, 6))
           if with_history else None)
    T = T_over_tau * tau

    def check(times, rows):
        ref = np.stack([semigroup_apply(y0, float(t)).coeffs for t in times])
        assert np.all(np.abs(rows - ref) <= 1e-12 * np.abs(ref) + 1e-300)

    times = np.sort(rng.uniform(0.0, T, 5))
    check(times, solve_trace(y0, phi, times, params).coeffs)
    cfg = ModeDDEConfig(lam=basis.eigenvalues(), a=0.0, tau=tau, dt=tau / n_sub, y0=y0.coeffs,
                        history=None if phi is None else phi.coeffs)
    trace = rk4_dde_mode(cfg, T)
    check(trace.times, trace.values)
    pic = picard_solve(y0, phi, T, dt=tau / n_sub, params=params)
    check(pic.times, pic.coeffs)
    assert np.all(pic.residuals == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-3.0, max_value=5.0), st.sampled_from([0.25, 0.3, 0.5, 1.0]),
       st.floats(min_value=0.0, max_value=8.0, exclude_min=True),
       st.integers(min_value=4, max_value=24),
       st.sampled_from(["zero", "exp", "grid", "compatible"]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_picard_reaches_its_fixed_point_in_one_sweep_per_delay_window(a, tau, T, n_sub,
                                                                      history, seed):
    # G shifts by tau, so on a grid of W = ceil(n_steps / n_sub) delay windows G^W = 0:
    # sweep W moves nothing, and its iterate equals the one before it
    basis = EigenBasis(1.0, 4)
    params = FlowParams(a=a, tau=tau)
    rng = np.random.default_rng(seed)
    y0 = SpectralField(basis, rng.standard_normal(4))
    if history == "compatible":
        try:
            phi = compatible_history(y0, params)
        except InvalidArgumentError:        # no real characteristic root (a < 0)
            assume(False)
    elif history == "exp":
        phi = ExpModeHistory(SpectralField(basis, rng.standard_normal(4)), rng.uniform(-2.0, 1.0))
    elif history == "grid":
        gammas = np.linspace(-tau, 0.0, 9)
        phi = GridHistory(gammas, rng.standard_normal((9, 4)), basis)
    else:
        phi = None
    run = list(fl._picard_iterates(y0, phi, T, tau / n_sub, params))
    trace = picard_solve(y0, phi, T, tau / n_sub, params)
    n_steps = len(trace.times) - 1
    assert len(trace.residuals) == len(run) == math.ceil(n_steps / n_sub)
    assert trace.residuals[-1] == 0.0
    if len(run) > 1:
        assert np.array_equal(run[-1][1], run[-2][1])
