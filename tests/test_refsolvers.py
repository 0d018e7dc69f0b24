import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import solve_banded

import delayheat.flow as fl
import delayheat.refsolvers as rs
from delayheat import (EigenBasis, ExpModeHistory, FlowParams, InvalidArgumentError, MeshParams,
                       ModeDDEConfig,
                       SpectralField, compatible_history, delayed_exp, dirac_coeffs,
                       hybrid_simulate,
                       rk4_dde_mode, semigroup_apply, solve_trace)
from delayheat.basis import _grid_index, _step_grid
from delayheat.refsolvers import _phi123

PI2 = math.pi**2


@pytest.mark.parametrize("a", [math.nan, math.inf, np.array([[1.0], [-math.inf]])],
                         ids=["nan", "inf", "array-with-inf"])
def test_mode_config_rejects_a_non_finite_coupling(a):
    # a = nan ran to the horizon and returned NaN values without an error
    with pytest.raises(InvalidArgumentError, match="coupling must be finite"):
        ModeDDEConfig(lam=[1.0, 4.0], a=a, tau=1.0, dt=0.1)


def test_mode_config_validation():
    with pytest.raises(InvalidArgumentError):
        ModeDDEConfig(lam=-1.0, a=1.0, tau=1.0, dt=0.01)
    with pytest.raises(InvalidArgumentError):
        ModeDDEConfig(lam=1.0, a=1.0, tau=1.0, dt=0.2)  # coarser than tau/10
    with pytest.raises(InvalidArgumentError):
        ModeDDEConfig(lam=1.0, a=1.0, tau=-1.0, dt=0.01)


def test_exponential_step_exact_without_coupling():
    # a = 0: the step is u_{i+1} = e^{-lam h} u_i, exact up to rounding at any lam*h
    for lam in (0.0, 5.0, 3.55e4):
        tr = rk4_dde_mode(ModeDDEConfig(lam=lam, a=0.0, tau=1.0, dt=0.1), 3.0)
        assert_allclose(tr.values, np.exp(-lam * tr.times), rtol=1e-14, atol=1e-300)


def test_exponential_step_order_four():
    # a != 0: the quadratic interpolant of the delayed term and its Hermite
    # midpoint both carry O(h^4), so halving dt gains ~16x
    p = FlowParams(a=1.0, tau=1.0)
    errs = []
    for dt in (2e-2, 1e-2):
        tr = rk4_dde_mode(ModeDDEConfig(lam=5.0, a=1.0, tau=1.0, dt=dt), 3.0)
        exact = fl._delayed_exp_grid(np.array([5.0]), tr.times, p)[:, 0]
        errs.append(np.max(np.abs(tr.values - exact)) / np.max(np.abs(exact)))
    assert errs[1] <= 2e-9
    assert errs[0] / errs[1] > 12.0


def test_rk4_zero_history_polynomial_value():
    cfg = ModeDDEConfig(lam=0.0, a=1.0, tau=1.0, dt=1e-3)
    tr = rk4_dde_mode(cfg, 2.5)
    assert abs(tr.values[-1] - 2.625) <= 1e-8


def test_rk4_constant_history_value():
    # u' = u(t-1), u = 1 on [-1, 0]: piecewise polynomial, u(2.5) = 223/48
    cfg = ModeDDEConfig(lam=0.0, a=1.0, tau=1.0, dt=1e-3, history=np.ones_like)
    tr = rk4_dde_mode(cfg, 2.5)
    assert abs(tr.values[-1] - 223.0 / 48.0) <= 1e-8
    # same value through the closed-form convolution route
    p = FlowParams(a=1.0, tau=1.0)
    unit = ExpModeHistory(SpectralField(EigenBasis(1.0, 1), np.array([1.0])), 0.0)
    closed = delayed_exp(0.0, 2.5, p) + fl.history_convolution(np.array([0.0]), unit, 2.5, p)[0]
    assert_allclose(closed, 223.0 / 48.0, atol=1e-12)


def test_rk4_agrees_with_closed_form_stiff_mode():
    p = FlowParams(a=1.0, tau=1.0)
    cfg = ModeDDEConfig(lam=PI2, a=1.0, tau=1.0, dt=1e-3)
    tr = rk4_dde_mode(cfg, 3.0)
    exact = np.array([delayed_exp(PI2, float(t), p) for t in tr.times])
    assert np.max(np.abs(tr.values - exact)) / np.max(np.abs(exact)) <= 1e-6


def test_rk4_exponential_history_nontrivial():
    # history e^g seeds a genuinely time-dependent forcing on the first window
    p = FlowParams(a=-1.0, tau=0.5)
    cfg = ModeDDEConfig(lam=2.0, a=-1.0, tau=0.5, dt=0.5 / 2000, y0=1.0,
                        history=np.exp)
    tr = rk4_dde_mode(cfg, 1.5)
    # the closed form at lam = 2: one kernel call for the flow, and one
    # convolution of the one-mode history exp(g) at all the trace times
    lam = np.array([2.0])
    flow_part = fl._delayed_exp_grid(lam, tr.times, p)[:, 0]
    unit = ExpModeHistory(SpectralField(EigenBasis(1.0, 1), np.array([1.0])), 1.0)
    conv_part = fl.history_convolution(lam, unit, tr.times, p)[:, 0]
    exact = flow_part + conv_part
    assert np.max(np.abs(tr.values - exact)) / np.max(np.abs(exact)) <= 1e-6


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=3000.0), min_size=1, max_size=5),
       st.sampled_from([-1.5, 0.0, 1.0, 2.0]), st.sampled_from([0.5, 1.0]),
       st.sampled_from(["zero", "constant", "exp"]), st.sampled_from([20, 100]))
@example([0.0, PI2, 2500.0], -1.5, 1.0, "exp", 20)        # lam*h = 125: stays finite
def test_rk4_modes_array_equals_stacked_scalar_runs(lams, a, tau, history, n_sub):
    lams = np.array(lams)
    K = len(lams)
    y0, c = np.linspace(1.0, -0.5, K) + 0.1, np.linspace(0.3, 1.2, K)
    rate = {"zero": None, "constant": 0.0, "exp": 1.7}[history]
    hist = None if rate is None else (lambda g: np.multiply.outer(np.exp(rate * g), c))
    dt, T = tau / n_sub, 2.5 * tau
    vec = rk4_dde_mode(ModeDDEConfig(lam=lams, a=a, tau=tau, dt=dt, y0=y0, history=hist), T)
    cols = []
    for k in range(K):
        hist_k = None if hist is None else (lambda g, k=k: hist(g)[..., k])
        cfg = ModeDDEConfig(lam=float(lams[k]), a=a, tau=tau, dt=dt, y0=float(y0[k]),
                            history=hist_k)
        cols.append(rk4_dde_mode(cfg, T).values)
    assert vec.values.shape == (len(vec.times), K)
    assert np.all(np.isfinite(vec.values))
    assert np.array_equal(vec.values, np.stack(cols, axis=1))


@pytest.mark.parametrize("history", [False, True], ids=["zero", "exp"])
def test_rk4_modes_array_coupling_equals_one_run_per_coupling(history):
    # couplings (C, 1) against rates (K,) step as one (C, K) trace; entry (c, k) is the run at
    # coupling c alone, bit for bit, over three delay windows and a partial fourth
    lams, couplings = np.array([0.0, PI2, 4 * PI2, 100.0]), np.array([-1.0, 0.5, 1.0, 2.0])
    y0, c = np.array([1.0, -0.6, 0.3, 0.8]), np.array([0.4, 1.1, -0.7, 0.9])
    hist = (lambda g: np.multiply.outer(np.exp(1.7 * g), c)) if history else None
    rows = None if hist is None else (lambda g: hist(g)[..., None, :])  # (1, K) history rows
    trace = rk4_dde_mode(ModeDDEConfig(lam=lams, a=couplings[:, None], tau=0.5, dt=0.5 / 40,
                                       y0=y0, history=rows), 1.8)
    assert trace.values.shape == (len(trace.times), 4, 4)
    for i, a in enumerate(couplings.tolist()):
        one = rk4_dde_mode(ModeDDEConfig(lam=lams, a=a, tau=0.5, dt=0.5 / 40, y0=y0,
                                         history=hist), 1.8)
        assert np.ascontiguousarray(trace.values[:, i]).tobytes() == one.values.tobytes(), a


def _rk4_dde_mode_stepwise(cfg, T):
    """The mode stepper as one Python step at a time: the per-step loop that
    the windowed scan of `rk4_dde_mode` replaced, kept as its reference."""
    n_sub = max(10, round(cfg.tau / cfg.dt))
    h = cfg.tau / n_sub
    n_steps = math.ceil(T / h - 1e-9)
    hist = cfg.history or (lambda g: 0.0)         # called with one scalar gamma at a time
    lam, a = np.asarray(cfg.lam, dtype=float), cfg.a
    p1, p2, p3 = _phi123(-lam * h)
    decay, ah = np.exp(-lam * h), a * h
    w0, wm, w1 = ah * (p1 - 3.0 * p2 + 4.0 * p3), ah * (4.0 * p2 - 8.0 * p3), ah * (4.0 * p3 - p2)
    shape = (n_steps + 1,) + np.broadcast_shapes(lam.shape, np.shape(cfg.y0))
    u, f_right, f_left = np.empty(shape), np.empty(shape), np.empty(shape)
    u[0] = cfg.y0
    f_right[0] = a * hist(-cfg.tau) - lam * u[0]
    for i in range(n_steps):
        m = i - n_sub
        if m < 0:
            v0, vm, v1 = hist(m * h), hist((m + 0.5) * h), hist((m + 1) * h)
        else:
            v0, v1 = u[m], u[m + 1]
            vm = 0.5 * (v0 + v1) + 0.125 * h * (f_right[m] - f_left[m + 1])
        u[i + 1] = decay * u[i] + w0 * v0 + wm * vm + w1 * v1
        f_left[i + 1] = a * v1 - lam * u[i + 1]
        f_right[i + 1] = a * u[0] - lam * u[i + 1] if m == -1 else f_left[i + 1]
    return np.arange(n_steps + 1) * h, u


@pytest.mark.parametrize("a", [-2.0, -1.0, 1.0, 2.0])
@pytest.mark.parametrize("n_sub", [10, 16, 37])
@pytest.mark.parametrize("history", [False, True])
@pytest.mark.parametrize("T_over_tau", [0.55, 1.0, 2.0, 2.3])
def test_rk4_windowed_scan_matches_stepwise_reference(a, n_sub, history, T_over_tau):
    # horizons inside the first window, at one and two window edges, and with a
    # partial last window; K modes and each mode alone
    lams, tau = np.array([0.0, 9.87, 100.0, 3.55e4]), 0.7
    y0, c = np.array([1.0, -0.6, 0.3, 0.8]), np.array([0.4, 1.1, -0.7, 0.9])
    hist = ((lambda g: np.multiply.outer(np.exp(-1.3 * g), c) + 0.2 * np.expand_dims(g, -1))
            if history else None)
    cfg = ModeDDEConfig(lam=lams, a=a, tau=tau, dt=tau / n_sub, y0=y0, history=hist)
    T = T_over_tau * tau
    tr = rk4_dde_mode(cfg, T)
    times, ref = _rk4_dde_mode_stepwise(cfg, T)
    assert np.array_equal(tr.times, times)
    scale = np.max(np.abs(ref), axis=0)       # per mode
    assert np.all(np.max(np.abs(tr.values - ref), axis=0) <= 1e-13 * scale)
    k = 2
    one = ModeDDEConfig(lam=lams[k], a=a, tau=tau, dt=tau / n_sub, y0=y0[k],
                        history=None if hist is None else (lambda g: hist(g)[..., k]))
    assert np.array_equal(rk4_dde_mode(one, T).values, tr.values[:, k])


def test_oracles_read_the_history_once_per_set_of_gammas():
    # the mode stepper reads window 0's nodes and midpoints, and the hybrid its
    # delay line phi(-tau), ..., phi(0^-), each in one array call
    calls = []

    def history(width):
        def phi(gammas):
            calls.append(np.shape(gammas))
            return np.multiply.outer(np.cos(gammas), np.ones(width))
        return phi

    rk4_dde_mode(ModeDDEConfig(lam=np.ones(3), a=1.0, tau=1.0, dt=0.01, y0=np.ones(3),
                               history=history(3)), 2.5)
    assert calls == [(101,), (100,)]
    calls.clear()
    hybrid_simulate(np.zeros(17), history(17), MeshParams(nx=16, ns=8), 2.0, 1.0, 1.0,
                    sample_times=())
    assert calls == [(9,)]


# ---------------------------------------------------------------------------
# hybrid simulator


def _basis_grid(basis, n):
    xs = np.linspace(0.0, basis.L, n + 1)
    return xs, basis.eval_matrix(xs)


def _coords(nodal):
    """The K = nx - 1 sine coefficients on (0, 1) whose nodal samples are the rows `nodal`
    (ends zero), its exact DST-I coordinates."""
    nx = np.shape(nodal)[-1] - 1
    return rs._sine(np.asarray(nodal, dtype=float)[..., 1:-1]) / (nx * math.sqrt(2.0))


@pytest.mark.parametrize("y0", [np.zeros((2, 17)), np.float64(1.0), np.array([0.0, math.nan]),
                                np.array([math.inf, 0.0])], ids=["2-d", "scalar", "nan", "inf"])
def test_hybrid_rejects_initial_data_that_is_not_finite_coefficients(y0):
    with pytest.raises(InvalidArgumentError, match=re.escape(
            f"y0 must be finite coefficients of shape (K,), got {np.shape(y0)}")):
        hybrid_simulate(y0, None, MeshParams(nx=16, ns=8), 1.0, 1.0, 1.0, sample_times=())


@pytest.mark.parametrize("rows", [
    lambda g: np.ones((len(g), 1)),         # one column: spread over every node, ends included
    lambda g: 1.0,                          # a scalar, likewise
    lambda g: np.ones((len(g), 4)),         # one mode too many: a raw numpy ValueError
    lambda g: np.ones((len(g) - 1, 3)),
    lambda g: np.ones(len(g)),
], ids=["column", "scalar", "wide", "short", "1-d"])
def test_hybrid_rejects_history_rows_that_are_not_n_by_k(rows):
    shape = np.shape(rows(np.zeros(9)))
    with pytest.raises(InvalidArgumentError, match=re.escape(
            f"history rows are {shape}, need (9, 3)")):
        hybrid_simulate(np.ones(3), rows, MeshParams(nx=16, ns=8), 1.0, 1.0, 1.0,
                        sample_times=(), z_sample_times=(0.5,))


def test_hybrid_mesh_validation():
    with pytest.raises(InvalidArgumentError):
        MeshParams(nx=1, ns=10)
    with pytest.raises(InvalidArgumentError):
        MeshParams(nx=10, ns=1)
    with pytest.raises(InvalidArgumentError):
        hybrid_simulate(np.zeros(17), None, MeshParams(nx=16, ns=8), 0.0, 1.0, 1.0, sample_times=())
    with pytest.raises(TypeError, match="sample_times"):       # required: () would be no rows
        hybrid_simulate(np.zeros(17), None, MeshParams(nx=16, ns=8), 1.0, 1.0, 1.0)


_OUTSIDE = ((2.5, 2.0), (-1.0, 0.0))     # (t, its nearest step on [0, 2])
_NON_FINITE = ((math.nan, None), (math.inf, None), (-math.inf, None))  # no step is nearest


@pytest.mark.parametrize("kind, t_snap, near", [
    *(pytest.param("z_sample_times", t, near, id=f"{t}") for t, near in _OUTSIDE + _NON_FINITE),
    *(pytest.param("sample_times", t, near, id=f"sample-{t}")
      for t, near in _OUTSIDE + _NON_FINITE),
])
def test_hybrid_rejects_snapshot_time_outside_horizon(kind, t_snap, near):
    # a snapshot past T or before 0 was dropped or clamped to t = 0 without a word; +-inf
    # returned the t = 0 row, and nan named a nearest sample 0.0 that does not exist
    with pytest.raises(InvalidArgumentError, match=re.escape(
            f"{kind}: t = {t_snap!r} is not a finite instant" if near is None else
            f"{kind}: t = {t_snap!r} is off the hybrid grid of step h = 0.125; its nearest "
            f"sample is {near!r}")):
        hybrid_simulate(np.zeros(17), None, MeshParams(nx=16, ns=8), 2.0, 1.0, 1.0,
                        **{"sample_times": (), kind: (0.5, t_snap)})
    tr = hybrid_simulate(np.zeros(17), None, MeshParams(nx=16, ns=8), 2.0, 1.0, 1.0,
                         sample_times=(0.0, 2.0), z_sample_times=(0.0, 2.0))
    assert set(tr.z_snapshots) == {0.0, 2.0}
    assert tr.coeffs.shape == (2, 17)


@pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
def test_hybrid_rejects_a_non_finite_coupling(a):
    # a = inf returned NaN rows with only a RuntimeWarning
    with pytest.raises(InvalidArgumentError, match="coupling must be finite"):
        hybrid_simulate(np.zeros(17), None, MeshParams(nx=16, ns=8), 2.0, a, 1.0,
                        sample_times=(2.0,))


def test_hybrid_takes_times_within_rounding_of_the_horizon_as_its_ends():
    # 3 (1 / 10) rounds to 0.30000000000000004 > T = 0.3, and a caller that snaps its
    # times to that grid passes that step; it was rejected as outside [0, T]
    y0, hist = _hybrid_inputs()
    mesh = MeshParams(nx=16, ns=10)
    ref = hybrid_simulate(y0, hist, mesh, 0.3, 1.0, 1.0, sample_times=(0.0, 0.3),
                          z_sample_times=(0.3,))
    assert ref.times[-1] > 0.3
    ends = (-1e-10, float(ref.times[-1]))
    tr = hybrid_simulate(y0, hist, mesh, 0.3, 1.0, 1.0, sample_times=ends,
                         z_sample_times=ends[1:])
    assert np.array_equal(tr.coeffs, ref.coeffs)
    assert np.array_equal(tr.z_snapshots[ends[1]], ref.z_snapshots[0.3])
    assert len(hybrid_simulate(y0, hist, mesh, 0.3, 1.0, 1.0,
                               sample_times=tuple(ref.times)).coeffs) == 4
    # the slack is GRID_RTOL max(1, |t|), not more
    for t, near in ((-2e-9, 0.0), (0.3 + 2e-9, ends[1])):
        with pytest.raises(InvalidArgumentError, match=re.escape(
                f"sample_times: t = {t!r} is off the hybrid grid of step h = 0.1; its nearest "
                f"sample is {near!r}")):
            hybrid_simulate(y0, hist, mesh, 0.3, 1.0, 1.0, sample_times=(t,))


@pytest.mark.parametrize("kind", ["sample_times", "z_sample_times"])
def test_hybrid_rejects_a_time_between_steps(kind):
    # t = 0.3 on the grid of step 1/8 was taken at 0.375, the first step after it, without a word
    with pytest.raises(InvalidArgumentError, match=re.escape(
            f"{kind}: t = 0.3 is off the hybrid grid of step h = 0.125; its nearest sample is 0.25")):
        hybrid_simulate(np.zeros(21), None, MeshParams(20, 8), 1.0, 1.0, 1.0,
                        **{"sample_times": (), kind: (0.3,)})


def test_hybrid_zero_coupling_is_pure_heat():
    basis = EigenBasis(1.0, 4)
    y0 = SpectralField.from_modes(basis, {1: 1.0, 3: 0.2})
    n = 160
    xs, emat = _basis_grid(basis, n)
    mesh = MeshParams(nx=n, ns=80)             # time step 1/80
    tr = hybrid_simulate(y0.coeffs, None, mesh, 0.5, 0.0, 1.0, sample_times=(0.5,))
    ref = emat @ semigroup_apply(y0, 0.5).coeffs
    err = math.sqrt((1.0 / n) * np.sum((basis.on_mesh(tr.coeffs, n)[-1] - ref) ** 2))
    assert err <= 5e-5


def test_hybrid_before_delay_arrival_matches_pure_heat():
    # zero history: the delayed source is zero until t = tau, so the
    # temperature follows the pure heat flow on [0, tau)
    basis = EigenBasis(1.0, 4)
    y0 = SpectralField.from_modes(basis, {1: 1.0})
    n = 200
    xs, emat = _basis_grid(basis, n)
    mesh = MeshParams(nx=n, ns=2 * n)
    tr = hybrid_simulate(y0.coeffs, None, mesh, 0.8, 1.0, 1.0, sample_times=(0.8,))
    ref = emat @ semigroup_apply(y0, 0.8).coeffs
    err = np.max(np.abs(basis.on_mesh(tr.coeffs, n)[-1] - ref))
    assert err <= 1e-6


def _hybrid_inputs():
    basis = EigenBasis(1.0, 4)
    y0 = SpectralField.from_modes(basis, {1: 1.0 / math.sqrt(2.0)})
    return y0.coeffs, compatible_history(y0, FlowParams(a=1.0, tau=1.0)).coeffs


def _every_step(T, tau, ns):
    # the step grid as sample times, its last step at T or up to a step past it
    return tuple(_step_grid(tau, tau / ns, T)[1].tolist())


def test_hybrid_transport_is_exact_shift_of_history():
    # z(t, s) = y(t - s) for s <= t, bit for bit the s = 0 row of the snapshot at t - s, and
    # phi(t - s) for s > t, the nodal samples of the rows of the one call phi(-tau), ...,
    # phi(0^-) the simulator makes, up to the rounding of their sine transform
    y0, hist = _hybrid_inputs()
    mesh = MeshParams(nx=40, ns=20)
    steps = _every_step(2.0, 1.0, 20)
    tr = hybrid_simulate(y0, hist, mesh, 2.0, 1.0, 1.0, sample_times=(), z_sample_times=steps)
    phi_rows = hist(-tr.s[::-1]) @ _basis_grid(EigenBasis(1.0, 4), 40)[1].T
    for n in (6, 40):                           # t = 0.3 and 2.0
        z = tr.z_snapshots[steps[n]]
        assert z.shape == (mesh.ns + 1, mesh.nx + 1)
        for j in range(mesh.ns + 1):
            if j > n:
                assert_allclose(z[j], phi_rows[mesh.ns - (j - n)], rtol=0.0, atol=1e-14)
            else:
                assert np.array_equal(z[j], tr.z_snapshots[steps[n - j]][0])


def test_hybrid_delay_loop_returns_previous_temperature():
    # the delay line's outflow z(t, tau) is the stored temperature at t - tau
    y0, hist = _hybrid_inputs()
    mesh = MeshParams(nx=50, ns=40)
    times = (1.0, 1.5, 2.0)
    tr = hybrid_simulate(y0, hist, mesh, 2.0, 1.0, 1.0, sample_times=(),
                         z_sample_times=(0.0, 0.5, *times))
    for t_snap in times:
        assert np.array_equal(tr.z_snapshots[t_snap][-1], tr.z_snapshots[t_snap - 1.0][0])


@pytest.mark.parametrize("history", [False, True], ids=["zero", "history"])
def test_hybrid_transforms_only_the_history_and_the_sampled_rows(monkeypatch, history):
    # the state stays in sine coordinates over 3 delay windows: y0 and the history's
    # ns + 1 rows fold into them with no transform, and the sampled row comes back as
    # coefficients with none either (a stepper that stores grid rows transforms about 2 rows
    # per step, 240 here)
    y0 = _coords(np.sin(math.pi * np.linspace(0.0, 1.0, 33)))
    hist = (lambda g: np.multiply.outer(np.cos(g), y0)) if history else None
    counted, sine = [], rs._sine
    monkeypatch.setattr(rs, "_sine", lambda v: counted.append(math.prod(v.shape[:-1])) or sine(v))
    tr = hybrid_simulate(y0, hist, MeshParams(nx=32, ns=40), 3.0, 1.0, 1.0, sample_times=(3.0,))
    assert tr.coeffs.shape == (1, 31) and len(tr.times) == 121
    assert sum(counted) == 0


def test_hybrid_sampled_rows_equal_the_full_grid_rows():
    y0, hist = _hybrid_inputs()
    mesh = MeshParams(nx=40, ns=20)
    full = hybrid_simulate(y0, hist, mesh, 2.0, 1.0, 1.0, sample_times=_every_step(2.0, 1.0, 20))
    some = hybrid_simulate(y0, hist, mesh, 2.0, 1.0, 1.0, sample_times=(0.35, 1.0, 2.0))
    assert np.array_equal(some.coeffs, full.coeffs[[7, 20, 40]])
    # y(0) is y0, up to the rounding of its scaling into the bins and back
    assert_allclose(full.coeffs[0], y0, rtol=0.0, atol=1e-15)


def test_hybrid_cross_validates_closed_form():
    basis = EigenBasis(1.0, 4)
    params = FlowParams(a=1.0, tau=1.0)
    y0 = SpectralField.from_modes(basis, {1: 1.0 / math.sqrt(2.0)})
    n = 200
    xs, emat = _basis_grid(basis, n)
    mesh = MeshParams(nx=n, ns=2 * n)
    tr = hybrid_simulate(y0.coeffs, None, mesh, 2.0, 1.0, 1.0, sample_times=(2.0,))
    ref = emat @ solve_trace(y0, None, [2.0], params).coeffs[0]
    err = math.sqrt((1.0 / n) * np.sum((basis.on_mesh(tr.coeffs, n)[-1] - ref) ** 2))
    assert err <= 1e-3


def _hybrid_out_of_place(y0_grid, history_grid, mesh, T, a, tau, z_time, L=1.0):
    """Reference loop: the delay line as an (ns + 1)-row array shifted out of
    place each step, a banded solve per step."""
    ns, dt, dx = mesh.ns, tau / mesh.ns, L / mesh.nx
    r = dt / dx**2
    s = np.linspace(0.0, tau, ns + 1)
    n_steps = math.ceil(T / dt - 1e-9)
    y = np.array(y0_grid, dtype=float)
    y[0] = y[-1] = 0.0
    z = np.zeros((ns + 1, mesh.nx + 1))
    for j in range(1, ns + 1):
        z[j] = history_grid(-s[j])
    z[0] = y
    ab = np.zeros((3, mesh.nx - 1))
    ab[0, 1:] = -r / 2.0
    ab[1, :] = 1.0 + r
    ab[2, :-1] = -r / 2.0
    values, z_early = [y], None
    for n in range(n_steps):
        # z[-1] = y(t_n - tau); the step ending at t = tau reads phi(0^-), not y(0)
        z_end_new = history_grid(0.0) if n + 1 == ns else z[-2]
        source = a * 0.5 * (z[-1] + z_end_new)
        rhs = y[1:-1] + (r / 2.0) * (y[:-2] - 2.0 * y[1:-1] + y[2:]) + dt * source[1:-1]
        y = np.zeros_like(y)
        y[1:-1] = solve_banded((1, 1), ab, rhs)
        z = np.vstack([y, z[:-1]])
        values.append(y)
        if z_early is None and (n + 1) * dt >= z_time - 1e-12:
            z_early = z
    return np.array(values), z_early, z


@pytest.mark.parametrize("nx, ns, z_time", [(2, 2, 0.1), (40, 300, 0.003), (400, 3, 0.2),
                                            (2000, 50, 0.02)])
def test_hybrid_equals_out_of_place_reference(nx, ns, z_time):
    xs = np.linspace(0.0, 1.0, nx + 1)
    y0 = np.sin(math.pi * xs) + xs * (1.0 - xs)
    hist = lambda g: np.multiply.outer(np.cos(3.0 * g), y0)
    c0 = _coords(y0)        # the simulator takes the same data as sine coefficients
    T = 1.3
    # the reference's rows: every step, the first step at or after z_time and the last step,
    # which lies past T unless 1.3 is a step
    steps = _every_step(T, 1.0, ns)
    z_step, end = steps[int(np.searchsorted(steps, z_time - 1e-12))], steps[-1]
    tr = hybrid_simulate(c0, lambda g: np.multiply.outer(np.cos(3.0 * g), c0), MeshParams(nx, ns),
                         T, -1.3, 1.0, sample_times=steps, z_sample_times=(z_step, end))
    ref_values, ref_z_early, ref_z = _hybrid_out_of_place(y0, hist, MeshParams(nx, ns), T, -1.3,
                                                          1.0, z_time)
    # the sine-transform steps round differently from the banded solve
    # (at most 2e-13 of max|value| measured on these meshes)
    scale = np.max(np.abs(ref_values))
    values = EigenBasis(1.0, nx - 1).on_mesh(tr.coeffs, nx)
    assert np.max(np.abs(values - ref_values)) <= 1e-12 * scale
    assert np.max(np.abs(tr.z_snapshots[z_step] - ref_z_early)) <= 1e-12 * scale
    assert np.max(np.abs(tr.z_snapshots[end] - ref_z)) <= 1e-12 * scale


def _hybrid_two_window_buffers(y0, history, mesh, T, a, tau, L=1.0, *, sample_times,
                               z_sample_times=(), to_sine=None, serial=False):
    """Reference loop: the delay line in two (ns + 1)-row window buffers that trade places
    each window, `prev` the window read and `cur` the rows stepped into, with the history's
    sine coordinates kept apart; the same per-element operations in the same order as the
    one in-place buffer of `hybrid_simulate`, whose window rows take the same blocked decay
    scan; `serial` steps them one row at a time instead, as the loop that scan replaced.
    `to_sine` maps (..., K) coefficient rows to their (..., nx - 1) sine coordinates, by
    default as the simulator does.  It steps every bin; the sampled rows come back by the
    simulator's rule, bin k / (nx sqrt(2/L)) as mode k < nx and 0 for k >= nx."""
    nx, ns, dt = mesh.nx, mesh.ns, tau / mesh.ns
    to_sine = to_sine or (lambda c: rs._sine_bins(c, nx, nx * math.sqrt(2.0 / L),
                                                 np.zeros(c.shape[:-1] + (nx - 1,))))
    s, times = np.linspace(0.0, tau, ns + 1), _step_grid(tau, dt, T)[1]
    n_steps = len(times) - 1
    samples = _grid_index(times, sample_times, "sample_times", "hybrid")
    snaps = _grid_index(times, z_sample_times, "z_sample_times", "hybrid")
    need = np.array(sorted({*samples, *(k for n in snaps for k in range(n - ns, n + 1))}), int)
    prev = np.zeros((ns + 1, nx - 1))
    if history is not None:
        prev[:] = to_sine(history(-s[::-1]))
    hist_spec = prev.copy()         # step k < 0 is row ns + k
    half_rmu = dt / (L / nx) ** 2 * 2.0 * np.sin(np.arange(1, nx) * (math.pi / (2 * nx))) ** 2
    q, g = (1.0 - half_rmu) / (1.0 + half_rmu), a * dt / (2.0 * (1.0 + half_rmu))
    cur, spec, y = np.empty_like(prev), np.zeros((len(need), nx - 1)), to_sine(np.asarray(y0))
    spec[need < 0] = hist_spec[ns + need[need < 0]]
    for n0 in range(0, n_steps, ns):
        m = min(ns, n_steps - n0)
        cur[0] = y
        np.add(prev[:m], prev[1:m + 1], out=cur[1:m + 1])
        cur[1:m + 1] *= g
        if serial:
            for j in range(m):
                cur[j + 1] += q * cur[j]
        else:
            for r in range(0, m, rs._SCAN_ROWS - 1):
                rs._decay_scan(cur[r:min(r + rs._SCAN_ROWS, m + 1)], q)
        lo, hi = np.searchsorted(need, (n0, n0 + m + 1))
        spec[lo:hi] = cur[need[lo:hi] - n0]
        y, prev, cur = cur[m], cur, prev
    rows = np.zeros((len(need), nx + 1))
    for b in range(0, len(need), rs._BLOCK):
        rows[b:b + rs._BLOCK, 1:-1] = rs._sine(spec[b:b + rs._BLOCK]) / (2 * nx)
    at = lambda n: np.searchsorted(need, n)
    z_snapshots = {t: rows[at(n - ns):at(n) + 1][::-1] for t, n in zip(z_sample_times, snaps)}
    K = np.shape(y0)[-1]
    coeffs, nb = np.zeros((len(samples), K)), min(K, nx - 1)
    coeffs[:, :nb] = spec[at(samples), :nb] / (nx * math.sqrt(2.0 / L))
    return coeffs, z_snapshots


@pytest.mark.parametrize("nx, ns, T, dumps", [
    (16, 8, 2.0, (0.25, 1.5, 2.0)),         # ns = 8: dumps into the history, past it, at T
    (16, 8, 2.3, (0.0, 0.875, 2.375)),      # a partial last window; its last step past T
    (32, 40, 7.25, (0.5, 3.0, 7.25)),       # 7 full windows and a quarter of one
    (2, 2, 3.0, (0.5, 1.0, 3.0)),           # one interior node
    (8, 600, 2.75, (0.25, 1.5, 2.75)),      # 600 rows a window: scan blocks meet at 255, 510
])
@pytest.mark.parametrize("history", [False, True], ids=["zero", "compatible"])
def test_hybrid_equals_two_window_buffer_reference(nx, ns, T, dumps, history):
    # the one in-place delay line steps, samples and dumps every value bit for bit
    y0, hist = _hybrid_inputs()
    hist = hist if history else None
    steps = _every_step(T, 1.0, ns)
    tr = hybrid_simulate(y0, hist, MeshParams(nx, ns), T, -1.3, 1.0, sample_times=steps,
                         z_sample_times=dumps)
    values, z_snapshots = _hybrid_two_window_buffers(y0, hist, MeshParams(nx, ns), T, -1.3,
                                                     1.0, sample_times=steps, z_sample_times=dumps)
    assert np.all(np.isfinite(values))
    assert tr.coeffs.tobytes() == values.tobytes()
    assert tr.z_snapshots.keys() == z_snapshots.keys()
    for t in dumps:
        assert tr.z_snapshots[t].tobytes() == z_snapshots[t].tobytes(), t


@pytest.mark.parametrize("K", [5, 7, 20], ids=["K<nx-1", "K=nx-1", "K>2nx"])
@pytest.mark.parametrize("kind", ["zero", "exp", "compatible"])
@pytest.mark.parametrize("a", [-1.3, 1.0])
def test_hybrid_coefficient_input_equals_the_grid_path(K, kind, a):
    # y0 and the history fold straight into sine coordinates; the grid path they replace
    # sampled the modes on the nodes and transformed them.  nx = 8: modes 9 .. 15 fold onto
    # bins 7 .. 1 with a minus sign, k = 8 and k = 16 vanish on the nodes, 17 .. 20 wrap.
    nx, ns, T, dumps = 8, 6, 2.5, (0.5, 2.5)
    basis = EigenBasis(1.0, K)
    y0 = SpectralField(basis, np.random.default_rng(K).standard_normal(K))
    # a < 0 has no real characteristic root here, so both runs take a = 1's compatible history
    hist = {"zero": None, "exp": ExpModeHistory(y0 * 0.5, np.linspace(-2.0, 1.0, K)).coeffs,
            "compatible": compatible_history(y0, FlowParams()).coeffs}[kind]
    emat = _basis_grid(basis, nx)[1]
    steps = _every_step(T, 1.0, ns)
    tr = hybrid_simulate(y0.coeffs, hist, MeshParams(nx, ns), T, a, 1.0, sample_times=steps,
                         z_sample_times=dumps)
    values, z_snapshots = _hybrid_two_window_buffers(
        y0.coeffs, hist, MeshParams(nx, ns), T, a, 1.0, sample_times=steps, z_sample_times=dumps,
        to_sine=lambda c: rs._sine((c @ emat.T)[..., 1:-1]))
    scale = np.max(np.abs(values))
    assert scale > 0.1
    assert np.max(np.abs(tr.coeffs - values)) <= 1e-12 * scale
    for t in dumps:
        assert np.max(np.abs(tr.z_snapshots[t] - z_snapshots[t])) <= 1e-12 * scale, t


@pytest.mark.parametrize("K, nx, ns, T, history", [
    (60, 400, 800, 2.5, False),             # the CLI defaults: a point mass at 0.3, no history
    (8, 100, 200, 2.0, True),               # validate's meshes, sin(pi x) and its compatible
    (8, 200, 400, 2.0, True),               # history, and the zero history at the finest
    (8, 400, 800, 2.0, True),
    (8, 400, 800, 2.0, False),
])
def test_hybrid_scan_equals_the_serial_loop_to_rounding(K, nx, ns, T, history):
    # the blocked decay scan rounds apart from the row-by-row loop it replaced: 1.4e-14 of the
    # row maximum at the defaults, 4e-15 on validate's meshes
    basis = EigenBasis(1.0, K)
    y0 = (dirac_coeffs(0.3, basis) if K == 60
          else SpectralField.from_modes(basis, {1: 1.0 / math.sqrt(2.0)}))
    hist = compatible_history(y0, FlowParams()).coeffs if history else None
    steps = _every_step(T, 1.0, ns)
    tr = hybrid_simulate(y0.coeffs, hist, MeshParams(nx, ns), T, 1.0, 1.0, sample_times=steps)
    ref = _hybrid_two_window_buffers(y0.coeffs, hist, MeshParams(nx, ns), T, 1.0, 1.0,
                                     sample_times=steps, serial=True)[0]
    gap = np.max(np.abs(tr.coeffs - ref), axis=1) / np.max(np.abs(ref), axis=1)
    assert np.all(gap <= 2e-14), gap.max()


def test_hybrid_default_mesh_holds_one_delay_line():
    # the CLI's default mesh to T = 2.5 keeps one (3 + ns + 1)-row buffer of sine coefficients
    # (2.57 MB) where two window buffers took 5.1 MB
    y0 = _coords(np.sin(math.pi * np.linspace(0.0, 1.0, 401)))
    tracemalloc.start()
    try:
        hybrid_simulate(y0, None, MeshParams(400, 800), 2.5, 1.0, 1.0, sample_times=(0.0, 2.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6, peak


@pytest.mark.parametrize("K, nx, bound", [(60, 400, 2e-14), (60, 100, 2e-14), (240, 400, 3e-14)])
def test_hybrid_coefficients_equal_the_trapezoid_projection_of_its_grid_rows(K, nx, bound):
    # for K < nx the coefficient rows read from the bins are the projection the CLI used to
    # make: the grid rows (here each sample's snapshot row at s = 0) against the first K modes
    # by the trapezoid rule, which is exact for them on the mesh (discrete orthogonality); the
    # gap is the rounding of that (nx + 1)-term sum, 2.1e-14 of the row maximum at K = 240
    basis = EigenBasis(1.0, K)
    y0 = dirac_coeffs(0.3, basis)
    times = (0.0, 0.5, 1.0, 2.5)
    tr = hybrid_simulate(y0.coeffs, compatible_history(y0, FlowParams()).coeffs,
                         MeshParams(nx, 40), 2.5, 1.0, 1.0, sample_times=times,
                         z_sample_times=times)
    xs = basis.mesh(nx)
    grid = np.stack([tr.z_snapshots[t][0] for t in times])
    ref = grid @ ((xs[1] - xs[0]) * basis.eval_matrix(xs))
    gap = np.max(np.abs(tr.coeffs - ref), axis=1) / np.max(np.abs(ref), axis=1)
    assert np.all(gap <= bound), gap


@pytest.mark.parametrize("K, nx", [(60, 20), (240, 200), (21, 20), (20, 20)])
def test_hybrid_writes_the_modes_its_mesh_cannot_resolve_as_zero(K, nx):
    # modes k >= nx are 0, so the coefficient rows on the hybrid's own mesh are its grid rows;
    # the trapezoid projection wrote aliases there, 2.0 times the row maximum off at (60, 20)
    basis = EigenBasis(1.0, K)
    y0 = dirac_coeffs(0.3, basis)
    times = (0.0, 0.5, 1.5)
    tr = hybrid_simulate(y0.coeffs, compatible_history(y0, FlowParams()).coeffs,
                         MeshParams(nx, 2 * nx), 1.5, 1.0, 1.0, sample_times=times,
                         z_sample_times=times)
    assert np.all(tr.coeffs[:, nx - 1:] == 0.0)
    grid = np.stack([tr.z_snapshots[t][0] for t in times])
    gap = np.max(np.abs(basis.on_mesh(tr.coeffs, nx) - grid), axis=1)
    assert np.all(gap <= 1e-15 * np.max(np.abs(grid), axis=1)), gap


def test_hybrid_default_mesh_steps_only_the_bins_the_data_reach():
    # K = 60 modes on nx = 400: the delay line holds 60 bins per row, not 399 (0.58 MB peak
    # where the full line took 2.8 MB)
    y0 = dirac_coeffs(0.3, EigenBasis(1.0, 60)).coeffs
    tracemalloc.start()
    try:
        hybrid_simulate(y0, None, MeshParams(400, 800), 2.5, 1.0, 1.0, sample_times=(0.0, 2.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
