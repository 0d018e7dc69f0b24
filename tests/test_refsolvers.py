import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import delayheat.flow as fl
from delayheat import (EigenBasis, FlowParams, InvalidArgumentError, MeshParams, ModeDDEConfig,
                       SpectralField, compatible_history, delayed_exp, flow_apply,
                       hybrid_simulate, rk4_dde_mode, semigroup_apply)

PI2 = math.pi**2


def test_mode_config_validation():
    with pytest.raises(InvalidArgumentError):
        ModeDDEConfig(lam=-1.0, a=1.0, tau=1.0, dt=0.01)
    with pytest.raises(InvalidArgumentError):
        ModeDDEConfig(lam=1.0, a=1.0, tau=1.0, dt=0.2)  # coarser than tau/10
    with pytest.raises(InvalidArgumentError):
        ModeDDEConfig(lam=1.0, a=1.0, tau=-1.0, dt=0.01)


def test_rk4_pure_decay_order_four():
    errs = []
    for dt in (2e-2, 1e-2):
        cfg = ModeDDEConfig(lam=5.0, a=0.0, tau=1.0, dt=dt)
        tr = rk4_dde_mode(cfg, 2.0)
        errs.append(np.max(np.abs(tr.values - np.exp(-5.0 * tr.times))))
    assert errs[1] <= 1e-7
    assert errs[0] / errs[1] > 12.0  # fourth order: halving dt gains ~16x


def test_rk4_zero_history_polynomial_value():
    cfg = ModeDDEConfig(lam=0.0, a=1.0, tau=1.0, dt=1e-3)
    tr = rk4_dde_mode(cfg, 2.5)
    assert abs(tr.values[-1] - 2.625) <= 1e-8


def test_rk4_constant_history_value():
    # u' = u(t-1), u = 1 on [-1, 0]: piecewise polynomial, u(2.5) = 223/48
    cfg = ModeDDEConfig(lam=0.0, a=1.0, tau=1.0, dt=1e-3, history=lambda g: 1.0)
    tr = rk4_dde_mode(cfg, 2.5)
    assert abs(tr.values[-1] - 223.0 / 48.0) <= 1e-8
    # same value through the closed-form convolution route
    p = FlowParams(a=1.0, tau=1.0)
    closed = (delayed_exp(0.0, 2.5, p)
              + fl.history_convolution_profile(np.array([0.0]), lambda g: np.array([1.0]),
                                               2.5, p)[0])
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
                        history=lambda g: math.exp(g))
    tr = rk4_dde_mode(cfg, 1.5)
    # the closed form at lam = 2: one kernel call for the flow, and the
    # convolution with the whole node array handed to the profile at once
    lam = np.array([2.0])
    flow_part = fl._delayed_exp_grid(lam, tr.times, p)[:, 0]
    conv_part = np.array([fl.history_convolution_profile(
        lam, lambda g: np.exp(g)[:, None], float(t), p)[0] for t in tr.times])
    exact = flow_part + conv_part
    assert np.max(np.abs(tr.values - exact)) / np.max(np.abs(exact)) <= 1e-6


# ---------------------------------------------------------------------------
# hybrid simulator


def _basis_grid(basis, n):
    xs = np.linspace(0.0, basis.L, n + 1)
    return xs, basis.eval_matrix(xs)


def test_hybrid_mesh_validation():
    with pytest.raises(InvalidArgumentError):
        MeshParams(nx=1, ns=10, dt=0.01)
    with pytest.raises(InvalidArgumentError):
        MeshParams(nx=10, ns=10, dt=-0.01)
    mesh = MeshParams(nx=16, ns=8, dt=0.5)   # ds = tau/8 = 0.125 < dt
    with pytest.raises(InvalidArgumentError):
        hybrid_simulate(np.zeros(17), None, mesh, 1.0, 1.0, 1.0)


def test_hybrid_zero_coupling_is_pure_heat():
    basis = EigenBasis(1.0, 4)
    y0 = SpectralField.from_modes(basis, {1: 1.0, 3: 0.2})
    n = 160
    xs, emat = _basis_grid(basis, n)
    mesh = MeshParams(nx=n, ns=40, dt=1.0 / 80)
    tr = hybrid_simulate(emat @ y0.coeffs, None, mesh, 0.5, 0.0, 1.0)
    ref = emat @ semigroup_apply(y0, 0.5).coeffs
    err = math.sqrt((1.0 / n) * np.sum((tr.values[-1] - ref) ** 2))
    assert err <= 5e-5


def test_hybrid_before_delay_arrival_matches_pure_heat():
    # zero history: the delay line is empty until t = tau, so the temperature
    # follows the pure heat flow on [0, tau) up to the smeared front tail
    basis = EigenBasis(1.0, 4)
    y0 = SpectralField.from_modes(basis, {1: 1.0})
    n = 200
    xs, emat = _basis_grid(basis, n)
    mesh = MeshParams(nx=n, ns=n, dt=1.0 / (2 * n))
    tr = hybrid_simulate(emat @ y0.coeffs, None, mesh, 0.8, 1.0, 1.0)
    ref = emat @ semigroup_apply(y0, 0.8).coeffs
    err = np.max(np.abs(tr.values[-1] - ref))
    assert err <= 1e-6


def test_hybrid_transport_is_exact_shift_of_history():
    # a = 0 and zero temperature: the delay line just transports the history
    basis = EigenBasis(1.0, 2)
    profile = lambda gamma: math.sin(math.pi * (gamma + 1.0))  # smooth in time
    sup_errs = []
    for n in (50, 100, 200):
        mesh = MeshParams(nx=8, ns=n, dt=1.0 / (2 * n))
        xs = np.linspace(0.0, 1.0, 9)
        shape = np.sin(math.pi * xs)
        hist = lambda g: profile(g) * shape
        tr = hybrid_simulate(np.zeros(9), hist, mesh, 0.5, 0.0, 1.0,
                             z_sample_times=(0.5,))
        z = tr.z_snapshots[0.5]
        s = tr.s
        # z(t, s) = history(t - s) for s > t; stay clear of the corner kink,
        # whose smearing zone is O(sqrt(ds t)) wide and only order-1/2 accurate
        errs = []
        for i, si in enumerate(s):
            if si > 0.5 + 0.15:
                errs.append(np.max(np.abs(z[i] - profile(0.5 - si) * shape)))
        sup_errs.append(max(errs))
    # first-order decay in ds
    assert sup_errs[0] / sup_errs[1] > 1.5
    assert sup_errs[1] / sup_errs[2] > 1.5


def test_hybrid_delay_loop_returns_previous_temperature():
    # z(t, tau) approximates y(t - tau); the discrepancy drops at first order
    basis = EigenBasis(1.0, 4)
    y0 = SpectralField.from_modes(basis, {1: 1.0 / math.sqrt(2.0)})
    params = FlowParams(a=1.0, tau=1.0)
    phi = compatible_history(y0, params)
    gaps = []
    for n in (100, 200):
        xs = np.linspace(0.0, 1.0, n + 1)
        emat = basis.eval_matrix(xs)
        mesh = MeshParams(nx=n, ns=n, dt=1.0 / (2 * n))
        hist = lambda g: emat @ phi.coeffs(g)
        tr = hybrid_simulate(emat @ y0.coeffs, hist, mesh, 2.0, 1.0, 1.0,
                             z_sample_times=(2.0,))
        z_end = tr.z_snapshots[2.0][-1]
        i_prev = int(round(1.0 / mesh.dt))
        gaps.append(np.max(np.abs(z_end - tr.values[i_prev])))
    assert gaps[0] / gaps[1] > 1.5
    assert gaps[1] <= 2e-3


def test_hybrid_cross_validates_closed_form():
    basis = EigenBasis(1.0, 4)
    params = FlowParams(a=1.0, tau=1.0)
    y0 = SpectralField.from_modes(basis, {1: 1.0 / math.sqrt(2.0)})
    n = 200
    xs, emat = _basis_grid(basis, n)
    mesh = MeshParams(nx=n, ns=n, dt=1.0 / (2 * n))
    tr = hybrid_simulate(emat @ y0.coeffs, None, mesh, 2.0, 1.0, 1.0)
    ref = emat @ flow_apply(y0, 2.0, params).coeffs
    err = math.sqrt((1.0 / n) * np.sum((tr.values[-1] - ref) ** 2))
    assert err <= 1e-3
