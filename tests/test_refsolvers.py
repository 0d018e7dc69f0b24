import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import solve_banded

import delayheat.flow as fl
from delayheat import (EigenBasis, ExpModeHistory, FlowParams, InvalidArgumentError, MeshParams,
                       ModeDDEConfig,
                       SpectralField, compatible_history, delayed_exp, flow_apply,
                       hybrid_simulate, rk4_dde_mode, semigroup_apply)
from delayheat.basis import _step_grid
from delayheat.refsolvers import _phi123

PI2 = math.pi**2


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


def test_hybrid_mesh_validation():
    with pytest.raises(InvalidArgumentError):
        MeshParams(nx=1, ns=10)
    with pytest.raises(InvalidArgumentError):
        MeshParams(nx=10, ns=1)
    with pytest.raises(InvalidArgumentError):
        hybrid_simulate(np.zeros(17), None, MeshParams(nx=16, ns=8), 0.0, 1.0, 1.0, sample_times=())
    with pytest.raises(InvalidArgumentError):
        hybrid_simulate(np.zeros(16), None, MeshParams(nx=16, ns=8), 1.0, 1.0, 1.0, sample_times=())
    with pytest.raises(TypeError, match="sample_times"):       # required: () would be no rows
        hybrid_simulate(np.zeros(17), None, MeshParams(nx=16, ns=8), 1.0, 1.0, 1.0)


@pytest.mark.parametrize("kind, t_snap", [
    *(pytest.param("z_sample_times", t, id=f"{t}") for t in (2.5, -1.0, math.nan)),
    *(pytest.param("sample_times", t, id=f"sample-{t}") for t in (2.5, -1.0, math.nan)),
])
def test_hybrid_rejects_snapshot_time_outside_horizon(kind, t_snap):
    # a snapshot past T or before 0 was dropped or clamped to t = 0 without a word
    with pytest.raises(InvalidArgumentError, match=r"outside \[0, T = 2\]"):
        hybrid_simulate(np.zeros(17), None, MeshParams(nx=16, ns=8), 2.0, 1.0, 1.0,
                        **{"sample_times": (), kind: (0.5, t_snap)})
    tr = hybrid_simulate(np.zeros(17), None, MeshParams(nx=16, ns=8), 2.0, 1.0, 1.0,
                         sample_times=(0.0, 2.0), z_sample_times=(0.0, 2.0))
    assert set(tr.z_snapshots) == {0.0, 2.0}
    assert tr.values.shape == (2, 17)


def test_hybrid_takes_times_within_rounding_of_the_horizon_as_its_ends():
    # 3 (1 / 10) rounds to 0.30000000000000004 > T = 0.3, and a caller that snaps its
    # times to that grid passes that step; it was rejected as outside [0, T]
    y0_grid, hist = _hybrid_inputs(16)
    mesh = MeshParams(nx=16, ns=10)
    ref = hybrid_simulate(y0_grid, hist, mesh, 0.3, 1.0, 1.0, sample_times=(0.0, 0.3),
                          z_sample_times=(0.3,))
    assert ref.times[-1] > 0.3
    ends = (-1e-10, float(ref.times[-1]))
    tr = hybrid_simulate(y0_grid, hist, mesh, 0.3, 1.0, 1.0, sample_times=ends,
                         z_sample_times=ends[1:])
    assert np.array_equal(tr.values, ref.values)
    assert np.array_equal(tr.z_snapshots[ends[1]], ref.z_snapshots[0.3])
    assert len(hybrid_simulate(y0_grid, hist, mesh, 0.3, 1.0, 1.0,
                               sample_times=tuple(ref.times)).values) == 4
    # the slack is GRID_RTOL max(1, |t|), not more
    for t in (-2e-9, 0.3 + 2e-9):
        with pytest.raises(InvalidArgumentError, match=r"outside \[0, T = 0.3\]"):
            hybrid_simulate(y0_grid, hist, mesh, 0.3, 1.0, 1.0, sample_times=(t,))


def test_hybrid_zero_coupling_is_pure_heat():
    basis = EigenBasis(1.0, 4)
    y0 = SpectralField.from_modes(basis, {1: 1.0, 3: 0.2})
    n = 160
    xs, emat = _basis_grid(basis, n)
    mesh = MeshParams(nx=n, ns=80)             # time step 1/80
    tr = hybrid_simulate(emat @ y0.coeffs, None, mesh, 0.5, 0.0, 1.0, sample_times=(0.5,))
    ref = emat @ semigroup_apply(y0, 0.5).coeffs
    err = math.sqrt((1.0 / n) * np.sum((tr.values[-1] - ref) ** 2))
    assert err <= 5e-5


def test_hybrid_before_delay_arrival_matches_pure_heat():
    # zero history: the delayed source is zero until t = tau, so the
    # temperature follows the pure heat flow on [0, tau)
    basis = EigenBasis(1.0, 4)
    y0 = SpectralField.from_modes(basis, {1: 1.0})
    n = 200
    xs, emat = _basis_grid(basis, n)
    mesh = MeshParams(nx=n, ns=2 * n)
    tr = hybrid_simulate(emat @ y0.coeffs, None, mesh, 0.8, 1.0, 1.0, sample_times=(0.8,))
    ref = emat @ semigroup_apply(y0, 0.8).coeffs
    err = np.max(np.abs(tr.values[-1] - ref))
    assert err <= 1e-6


def _hybrid_inputs(n):
    basis = EigenBasis(1.0, 4)
    y0 = SpectralField.from_modes(basis, {1: 1.0 / math.sqrt(2.0)})
    phi = compatible_history(y0, FlowParams(a=1.0, tau=1.0))
    xs, emat = _basis_grid(basis, n)
    return emat @ y0.coeffs, (lambda g: phi.coeffs(g) @ emat.T)


def _every_step(T, tau, ns):
    # the step grid as sample times; its last step, at T or up to a step past it, is sampled as T
    return tuple(np.minimum(_step_grid(tau, tau / ns, T)[1], T))


def test_hybrid_transport_is_exact_shift_of_history():
    # z(t, s) = phi(t - s) for s > t and y(t - s) for s <= t, bit for bit; the
    # history rows come from the one call phi(-tau), ..., phi(0^-) the simulator makes
    y0_grid, hist = _hybrid_inputs(40)
    mesh = MeshParams(nx=40, ns=20)
    tr = hybrid_simulate(y0_grid, hist, mesh, 2.0, 1.0, 1.0, sample_times=_every_step(2.0, 1.0, 20),
                         z_sample_times=(0.3, 2.0))
    phi_rows = hist(-tr.s[::-1])
    for t_snap in (0.3, 2.0):
        n = int(round(t_snap * mesh.ns))
        z = tr.z_snapshots[t_snap]
        assert z.shape == (mesh.ns + 1, mesh.nx + 1)
        for j in range(mesh.ns + 1):
            want = phi_rows[mesh.ns - (j - n)] if j > n else tr.values[n - j]
            assert np.array_equal(z[j], want)


def test_hybrid_delay_loop_returns_previous_temperature():
    # the delay line's outflow z(t, tau) is the stored temperature at t - tau
    y0_grid, hist = _hybrid_inputs(50)
    mesh = MeshParams(nx=50, ns=40)
    times = (1.0, 1.5, 2.0)
    tr = hybrid_simulate(y0_grid, hist, mesh, 2.0, 1.0, 1.0, sample_times=(0.0, 0.5, 1.0),
                         z_sample_times=times)
    for i, t_snap in enumerate(times):
        assert np.array_equal(tr.z_snapshots[t_snap][-1], tr.values[i])


@pytest.mark.parametrize("history, most", [(False, 2), (True, 40 + 3)], ids=["zero", "history"])
def test_hybrid_transforms_only_the_history_and_the_sampled_rows(monkeypatch, history, most):
    # the state stays in sine coordinates over 3 delay windows: y0 and the history's
    # ns + 1 rows go forward once and only the sampled row comes back (a stepper that
    # stores grid rows transforms about 2 rows per step, 240 here)
    import delayheat.refsolvers as rs
    counted, sine = [], rs._sine
    monkeypatch.setattr(rs, "_sine", lambda v: counted.append(math.prod(v.shape[:-1])) or sine(v))
    xs = np.linspace(0.0, 1.0, 33)
    y0 = np.sin(math.pi * xs)
    hist = (lambda g: np.multiply.outer(np.cos(g), y0)) if history else None
    tr = hybrid_simulate(y0, hist, MeshParams(nx=32, ns=40), 3.0, 1.0, 1.0, sample_times=(3.0,))
    assert tr.values.shape == (1, 33) and len(tr.times) == 121
    assert sum(counted) <= most


def test_hybrid_sampled_rows_equal_the_full_grid_rows():
    y0_grid, hist = _hybrid_inputs(40)
    mesh = MeshParams(nx=40, ns=20)
    full = hybrid_simulate(y0_grid, hist, mesh, 2.0, 1.0, 1.0,
                           sample_times=_every_step(2.0, 1.0, 20))
    some = hybrid_simulate(y0_grid, hist, mesh, 2.0, 1.0, 1.0, sample_times=(0.35, 1.0, 2.0))
    assert np.array_equal(some.values, full.values[[7, 20, 40]])
    assert np.array_equal(full.values[0, 1:-1], y0_grid[1:-1])      # y(0) is the data itself


def test_hybrid_cross_validates_closed_form():
    basis = EigenBasis(1.0, 4)
    params = FlowParams(a=1.0, tau=1.0)
    y0 = SpectralField.from_modes(basis, {1: 1.0 / math.sqrt(2.0)})
    n = 200
    xs, emat = _basis_grid(basis, n)
    mesh = MeshParams(nx=n, ns=2 * n)
    tr = hybrid_simulate(emat @ y0.coeffs, None, mesh, 2.0, 1.0, 1.0, sample_times=(2.0,))
    ref = emat @ flow_apply(y0, 2.0, params).coeffs
    err = math.sqrt((1.0 / n) * np.sum((tr.values[-1] - ref) ** 2))
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
    T = 1.3
    tr = hybrid_simulate(y0, hist, MeshParams(nx, ns), T, -1.3, 1.0,
                         sample_times=_every_step(T, 1.0, ns), z_sample_times=(z_time, T))
    ref_values, ref_z_early, ref_z = _hybrid_out_of_place(y0, hist, MeshParams(nx, ns), T, -1.3,
                                                          1.0, z_time)
    # the sine-transform steps round differently from the banded solve
    # (at most 2e-13 of max|value| measured on these meshes)
    scale = np.max(np.abs(ref_values))
    assert np.max(np.abs(tr.values - ref_values)) <= 1e-12 * scale
    assert np.max(np.abs(tr.z_snapshots[z_time] - ref_z_early)) <= 1e-12 * scale
    assert np.max(np.abs(tr.z_snapshots[T] - ref_z)) <= 1e-12 * scale
