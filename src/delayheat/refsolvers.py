"""Independent numerical oracles for the delayed heat dynamics.

Two routes that share nothing with the closed-form series:

* ``rk4_dde_mode`` integrates delayed modes, u' = -lam u + a u(t - tau), by
  classical RK4 with the method of steps.  The delayed value is read from the
  history for negative arguments and from a cubic-Hermite dense trace
  afterwards.  Steps are aligned with the delay lattice so the kinks of u sit on
  grid nodes.  Array form: with ``lam`` and ``y0`` of shape (K,) and a history
  returning (K,) values, one step loop advances all K modes and returns an
  (n_steps + 1, K) trace whose columns equal the K one-mode runs bit for bit;
  scalar ``lam`` and ``y0`` give an (n_steps + 1,) trace.

* ``hybrid_simulate`` advances the equivalent state-space system: a heat
  equation coupled to a transport equation on (0, tau) that carries the delayed
  state.  Diffusion is Crank-Nicolson on the 3-point Laplacian (second order,
  unconditionally stable); transport is first-order upwind with inflow equal to
  the current temperature, so the overall order is upwind-limited.  The delay
  line is shifted in place, block by block, in the same roundings as the
  out-of-place update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import InvalidArgumentError

__all__ = ["ModeDDEConfig", "ModeTrace", "rk4_dde_mode", "MeshParams", "HybridTrace", "hybrid_simulate"]


@dataclass(frozen=True)
class ModeDDEConfig:
    """Delayed modes u' = -lam u + a u(t - tau): scalar `lam`, `y0` and history
    values for one mode, (K,) arrays for K modes; history covers [-tau, 0]."""

    lam: float | np.ndarray
    a: float
    tau: float
    dt: float
    y0: float | np.ndarray = 1.0
    history: Callable[[float], float | np.ndarray] | None = None

    def __post_init__(self):
        if np.any(np.asarray(self.lam) < 0.0):
            raise InvalidArgumentError(f"decay rate must be >= 0, got {self.lam}")
        if self.tau <= 0.0:
            raise InvalidArgumentError(f"delay must be positive, got {self.tau}")
        if not 0.0 < self.dt <= self.tau / 10.0:
            raise InvalidArgumentError(
                f"step {self.dt} must satisfy 0 < dt <= tau/10 = {self.tau / 10.0}"
            )


@dataclass(frozen=True)
class ModeTrace:
    times: np.ndarray
    values: np.ndarray      # (n,) for a scalar config, (n, K) for K modes


def rk4_dde_mode(cfg: ModeDDEConfig, T: float) -> ModeTrace:
    """Method-of-steps RK4 over [0, T]; returns samples at multiples of the step.

    The step is snapped to tau / round(tau / dt) so that every delay-lattice
    point is a grid node; steps then never straddle a kink and the scheme keeps
    its design order.  Stage values of the delayed term use the stored dense
    trace through a cubic Hermite interpolant (or the history for t - tau < 0).
    Unstable modes (lam * h past RK4's real stability limit 2.785) overflow to
    inf/nan silently; callers check the result.
    """
    if T <= 0.0:
        raise InvalidArgumentError(f"horizon must be positive, got {T}")
    n_sub = max(10, round(cfg.tau / cfg.dt))
    h = cfg.tau / n_sub
    n_steps = math.ceil(T / h - 1e-9)
    times = np.arange(n_steps + 1) * h

    hist = cfg.history or (lambda g: 0.0)
    lam, a = np.asarray(cfg.lam, dtype=float), cfg.a
    neg_lam = -lam if lam.ndim else -float(lam)
    shape = (n_steps + 1,) + np.broadcast_shapes(lam.shape, np.shape(cfg.y0))
    u = np.empty(shape)
    f_right = np.empty(shape)  # derivative entering interval [t_i, t_{i+1}]
    f_left = np.empty(shape)   # derivative ending interval [t_{i-1}, t_i]
    u[0] = cfg.y0

    def dense_value(theta: float, upto: int):
        """Trace value at theta in [0, t_upto] via per-interval cubic Hermite."""
        m = int(math.floor(theta / h + 1e-12))
        m = min(max(m, 0), upto - 1)
        xi = (theta - times[m]) / h
        if xi < 1e-14:
            return u[m]
        h00 = (1 + 2 * xi) * (1 - xi) ** 2
        h10 = xi * (1 - xi) ** 2
        h01 = xi**2 * (3 - 2 * xi)
        h11 = xi**2 * (xi - 1)
        return h00 * u[m] + h * h10 * f_right[m] + h01 * u[m + 1] + h * h11 * f_left[m + 1]

    def delayed(theta: float, piece: int, upto: int):
        # within the first delay period every delayed argument reads the
        # history, including its one-sided limit at 0
        if piece == 0:
            return hist(min(theta, 0.0))
        return dense_value(theta, upto)

    def rhs(u_val, v_delayed):
        return neg_lam * u_val + a * v_delayed

    with np.errstate(over="ignore", invalid="ignore"):
        f_right[0] = rhs(u[0], hist(-cfg.tau))
        for i in range(n_steps):
            t = times[i]
            piece = int(math.floor((t + 0.5 * h) / cfg.tau))
            v0 = delayed(t - cfg.tau, piece, i)
            vm = delayed(t + 0.5 * h - cfg.tau, piece, i)
            v1 = delayed(t + h - cfg.tau, piece, i)
            k1 = rhs(u[i], v0)
            k2 = rhs(u[i] + 0.5 * h * k1, vm)
            k3 = rhs(u[i] + 0.5 * h * k2, vm)
            k4 = rhs(u[i] + h * k3, v1)
            u[i + 1] = u[i] + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            # one-sided derivatives at the new node; they differ only where the
            # delayed argument hits 0 (history limit vs initial value)
            f_left[i + 1] = rhs(u[i + 1], delayed(times[i + 1] - cfg.tau, piece, i + 1))
            piece_next = int(math.floor((times[i + 1] + 0.5 * h) / cfg.tau))
            f_right[i + 1] = (f_left[i + 1] if piece_next == piece else
                              rhs(u[i + 1], delayed(times[i + 1] - cfg.tau, piece_next, i + 1)))
    return ModeTrace(times, u)


# ---------------------------------------------------------------------------
# Hybrid heat-plus-transport simulator


@dataclass(frozen=True)
class MeshParams:
    """Spatial intervals, delay-line intervals on (0, tau), and time step."""

    nx: int
    ns: int
    dt: float

    def __post_init__(self):
        if self.nx < 2 or self.ns < 2:
            raise InvalidArgumentError("need at least 2 intervals in x and s")
        if self.dt <= 0.0:
            raise InvalidArgumentError("time step must be positive")


@dataclass(frozen=True)
class HybridTrace:
    times: np.ndarray
    x: np.ndarray
    values: np.ndarray                       # shape (n_times, nx + 1)
    s: np.ndarray
    z_snapshots: dict[float, np.ndarray]     # time -> z array of shape (ns + 1, nx + 1)


def hybrid_simulate(y0_grid: np.ndarray, history_grid: Callable[[float], np.ndarray] | None,
                    mesh: MeshParams, T: float, a: float, tau: float, L: float = 1.0,
                    z_sample_times: tuple[float, ...] = ()) -> HybridTrace:
    """Advance the coupled system to time T and return the temperature trace.

    y0_grid holds nodal values on the uniform x-mesh (Dirichlet ends forced to
    zero).  history_grid(gamma) must return nodal values for gamma in [-tau, 0];
    it seeds the transport component as z(0, s) = history(-s).  The temperature
    is stepped by Crank-Nicolson with the source a z(t, s=tau) taken as the
    average of the old and new delay-line endpoint; the delay line is stepped by
    first-order upwind with inflow z(t, 0) = y(t).  Requires the transport CFL
    condition dt <= tau / ns.
    """
    ds = tau / mesh.ns
    nu = mesh.dt / ds
    if nu > 1.0 + 1e-12:
        raise InvalidArgumentError(
            f"transport CFL violated: dt={mesh.dt} > ds={ds} (tau/ns)"
        )
    if T <= 0.0:
        raise InvalidArgumentError("horizon must be positive")

    dx = L / mesh.nx
    x = np.linspace(0.0, L, mesh.nx + 1)
    s = np.linspace(0.0, tau, mesh.ns + 1)
    n_steps = math.ceil(T / mesh.dt - 1e-9)

    y = np.asarray(y0_grid, dtype=float).copy()
    if y.shape != (mesh.nx + 1,):
        raise InvalidArgumentError(f"initial grid data must have {mesh.nx + 1} nodes")
    y[0] = y[-1] = 0.0

    z = np.zeros((mesh.ns + 1, mesh.nx + 1))
    if history_grid is not None:
        for j in range(1, mesh.ns + 1):
            z[j] = history_grid(-s[j])
    z[0] = y

    # Crank-Nicolson tridiagonal system for the interior nodes
    n_int = mesh.nx - 1
    r = mesh.dt / dx**2
    # LAPACK's tridiagonal solve, the routine solve_banded((1, 1), ...) calls,
    # without its per-call argument checks; its wrapper wants at least one
    # off-diagonal entry even for a single unknown.  The matrix is strictly
    # diagonally dominant, so no pivot is ever zero.
    off, diag = np.full(max(n_int - 1, 1), -r / 2.0), np.full(n_int, 1.0 + r)
    gtsv, = get_lapack_funcs(("gtsv",), (diag,))

    def explicit_half(v: np.ndarray) -> np.ndarray:
        return v[1:-1] + (r / 2.0) * (v[:-2] - 2.0 * v[1:-1] + v[2:])

    values = np.empty((n_steps + 1, mesh.nx + 1))
    values[0] = y
    times = np.arange(n_steps + 1) * mesh.dt
    z_snapshots: dict[float, np.ndarray] = {}
    sample_left = sorted(z_sample_times)

    def maybe_snapshot(t_now: float):
        while sample_left and t_now >= sample_left[0] - 1e-12:
            z_snapshots[sample_left.pop(0)] = z.copy()

    # The upwind shift z[1:] -= nu * (z[1:] - z[:-1]) runs in place, with the
    # same three roundings as the out-of-place form, over blocks of rows that
    # fit in cache; going from the outflow end down, each block still reads the
    # old row below it.
    block = max(1, 32768 // (mesh.nx + 1))
    shift = np.empty((min(block, mesh.ns), mesh.nx + 1))
    z_end_old = np.empty(mesh.nx + 1)
    maybe_snapshot(0.0)
    for n in range(n_steps):
        z_end_old[:] = z[-1]
        for hi in range(mesh.ns + 1, 1, -block):
            lo = max(1, hi - block)
            buf = shift[:hi - lo]
            np.subtract(z[lo:hi], z[lo - 1:hi - 1], out=buf)
            buf *= nu
            z[lo:hi] -= buf
        source = a * 0.5 * (z_end_old + z[-1])
        rhs = explicit_half(y) + mesh.dt * source[1:-1]
        y_new = np.zeros_like(y)
        y_new[1:-1] = gtsv(off, diag, off, rhs)[3]
        y = y_new
        z[0] = y
        values[n + 1] = y
        maybe_snapshot(times[n + 1])
    return HybridTrace(times, x, values, s, z_snapshots)
