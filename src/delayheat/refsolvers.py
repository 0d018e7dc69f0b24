"""Independent numerical oracles for the delayed heat dynamics.

Two routes that share nothing with the closed-form series.  Both step on the
delay lattice, so every delayed value they read is one they already store:

* ``rk4_dde_mode`` integrates delayed modes, u' = -lam u + a u(t - tau), by the
  method of steps with an exponential step, reading the delayed term from the
  history or from its stored trace.  With ``lam`` and ``y0`` of shape (K,) and
  a history returning (K,) values, one decay scan per delay window advances
  all K modes and returns an (n_steps + 1, K) trace whose columns equal the K
  one-mode runs bit for bit; scalar ``lam`` and ``y0`` give an (n_steps + 1,)
  trace.

* ``hybrid_simulate`` advances the equivalent state-space system: a heat
  equation coupled to a transport equation on (0, tau) that carries the delayed
  state, z(t, s) = y(t - s).  Diffusion is Crank-Nicolson on the 3-point
  Laplacian (second order, unconditionally stable); the time step equals the
  delay-line spacing, so transport is exact and the delay line is the stored
  temperature rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import _decay_scan
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


def _phi123(z: np.ndarray) -> list[np.ndarray]:
    """phi_k(z) = sum_i z^i / (i + k)! for k = 1, 2, 3, elementwise.

    Taylor series below |z| = 1, where the recurrence cancels; above it the
    recurrence phi_{k+1} = (phi_k - 1/k!) / z from phi_0 = e^z.
    """
    small = np.abs(z) < 1.0
    zs, zb = np.where(small, z, 0.0), np.where(small, 1.0, z)
    rec, out = np.exp(zb), []
    for k in (1, 2, 3):
        rec = (rec - 1.0 / math.factorial(k - 1)) / zb
        taylor = np.zeros_like(z)
        for i in range(18, -1, -1):
            taylor = taylor * zs + 1.0 / math.factorial(k + i)
        out.append(np.where(small, taylor, rec))
    return out


def rk4_dde_mode(cfg: ModeDDEConfig, T: float) -> ModeTrace:
    """Method of steps with an exponential integrator over [0, T]; returns
    samples at multiples of the step.  (The name is kept from the RK4 step
    this one replaced.)

    The step is snapped to h = tau / round(tau / dt) so that every delay-lattice
    point is a grid node and steps never straddle a kink.  Over a step the
    delayed term v is known, so u' = -lam u + a v is solved as

        u_{i+1} = e^{-lam h} u_i + w0 v0 + wm vm + w1 v1,

    with v0, vm, v1 the delayed values at the step's start, midpoint and end
    and w the exact integrals of a e^{-lam (h - sigma)} against the quadratic
    Lagrange basis on (0, h/2, h), in phi-functions at z = -lam h.  Fourth
    order, stable for every lam*h and exact for a = 0.  Delayed values come
    from the history for t - tau < 0; after that v0 and v1 are stored nodes
    and vm is the cubic Hermite midpoint between them.

    Every delayed value a delay window [j tau, (j + 1) tau] reads is known when
    the window starts, so the window is one array expression for the forcing
    and one decay scan of the recurrence above; the last window may be partial.
    """
    if T <= 0.0:
        raise InvalidArgumentError(f"horizon must be positive, got {T}")
    n_sub = max(10, round(cfg.tau / cfg.dt))
    h = cfg.tau / n_sub
    n_steps = math.ceil(T / h - 1e-9)

    hist = cfg.history or (lambda g: 0.0)
    lam, a = np.asarray(cfg.lam, dtype=float), cfg.a
    p1, p2, p3 = _phi123(-lam * h)
    decay, ah = np.exp(-lam * h), a * h
    w0, wm, w1 = ah * (p1 - 3.0 * p2 + 4.0 * p3), ah * (4.0 * p2 - 8.0 * p3), ah * (4.0 * p3 - p2)
    shape = (n_steps + 1,) + np.broadcast_shapes(lam.shape, np.shape(cfg.y0))
    u = np.empty(shape)
    f_right = np.empty(shape)  # derivative entering interval [t_i, t_{i+1}]
    f_left = np.empty(shape)   # derivative ending interval [t_{i-1}, t_i]
    u[0] = cfg.y0
    f_right[0] = a * hist(-cfg.tau) - lam * u[0]
    for i0 in range(0, n_steps, n_sub):     # the window of steps i0 .. i1 - 1
        i1 = min(i0 + n_sub, n_steps)
        n, m0 = i1 - i0, i0 - n_sub         # t_i - tau = t_{i - n_sub}
        if m0 < 0:                          # the history, up to its left limit at 0
            nodes, mids = np.empty((n + 1,) + shape[1:]), np.empty((n,) + shape[1:])
            for m in range(n + 1):
                nodes[m] = hist((m - n_sub) * h)
            for m in range(n):
                mids[m] = hist((m - n_sub + 0.5) * h)
            v0, vm, v1 = nodes[:-1], mids, nodes[1:]
        else:                               # stored nodes, and their cubic Hermite midpoint
            v0, v1 = u[m0:m0 + n], u[m0 + 1:m0 + n + 1]
            vm = 0.5 * (v0 + v1) + 0.125 * h * (f_right[m0:m0 + n] - f_left[m0 + 1:m0 + n + 1])
        u[i0 + 1:i1 + 1] = w0 * v0 + wm * vm + w1 * v1
        _decay_scan(u[i0:i1 + 1], decay)
        f_left[i0 + 1:i1 + 1] = a * v1 - lam * u[i0 + 1:i1 + 1]
        f_right[i0 + 1:i1 + 1] = f_left[i0 + 1:i1 + 1]
        # u' is continuous except at t = tau, where the delayed value jumps
        # from phi(0^-) to y(0)
        if i1 == n_sub:
            f_right[i1] = a * u[0] - lam * u[i1]
    return ModeTrace(np.arange(n_steps + 1) * h, u)


# ---------------------------------------------------------------------------
# Hybrid heat-plus-transport simulator


@dataclass(frozen=True)
class MeshParams:
    """Spatial intervals, and delay-line intervals on (0, tau); the time step is tau / ns."""

    nx: int
    ns: int

    def __post_init__(self):
        if self.nx < 2 or self.ns < 2:
            raise InvalidArgumentError("need at least 2 intervals in x and s")


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
    zero).  history_grid(gamma) must return nodal values for gamma in [-tau, 0].
    The step is dt = tau / ns, the delay-line spacing, so z(t_n, s_j) =
    y(t_{n-j}) is a stored row: the rows hold the history samples phi(-s_j),
    s_j > 0, in front of the temperature trace.  The temperature is stepped by
    Crank-Nicolson with the source a y(t - tau) averaged over the rows at the
    two ends of the step; the step that ends at t = tau reads the history's
    left limit phi(0^-), not y(0).  A transport snapshot requested at time t is
    z at the first step at or after t; a time outside [0, T] raises
    InvalidArgumentError.
    """
    if T <= 0.0:
        raise InvalidArgumentError("horizon must be positive")
    outside = [t for t in z_sample_times if not 0.0 <= t <= T]
    if outside:
        raise InvalidArgumentError(f"transport snapshot time {outside[0]:g} outside [0, T = {T:g}]")
    ns, dt = mesh.ns, tau / mesh.ns
    s = np.linspace(0.0, tau, ns + 1)
    n_steps = math.ceil(T / dt - 1e-9)

    y0 = np.asarray(y0_grid, dtype=float)
    if y0.shape != (mesh.nx + 1,):
        raise InvalidArgumentError(f"initial grid data must have {mesh.nx + 1} nodes")
    # rows[j] = phi(-s[ns - j]) for j < ns, rows[ns + n] = y(t_n)
    rows = np.zeros((ns + n_steps + 1, mesh.nx + 1))
    hist_end = np.zeros(mesh.nx + 1)        # phi(0^-)
    if history_grid is not None:
        for j in range(ns):
            rows[j] = history_grid(-s[ns - j])
        hist_end = history_grid(0.0)
    rows[ns, 1:-1] = y0[1:-1]

    # Crank-Nicolson for the interior nodes through LAPACK's tridiagonal
    # solve, the routine solve_banded((1, 1), ...) calls, without its per-call
    # argument checks; its wrapper wants at least one off-diagonal entry even
    # for a single unknown.  The matrix is strictly diagonally dominant, so no
    # pivot is ever zero.
    from scipy.linalg import get_lapack_funcs       # the one scipy use in this module
    r = dt / (L / mesh.nx) ** 2
    off, diag = np.full(max(mesh.nx - 2, 1), -r / 2.0), np.full(mesh.nx - 1, 1.0 + r)
    gtsv, = get_lapack_funcs(("gtsv",), (diag,))

    for n in range(n_steps):
        y = rows[ns + n]
        source = a * 0.5 * (rows[n] + (hist_end if n + 1 == ns else rows[n + 1]))
        rhs = y[1:-1] + (r / 2.0) * (y[:-2] - 2.0 * y[1:-1] + y[2:]) + dt * source[1:-1]
        rows[ns + n + 1, 1:-1] = gtsv(off, diag, off, rhs)[3]

    times = np.arange(n_steps + 1) * dt
    z_snapshots = {}
    for t_snap in z_sample_times:
        n = min(int(np.searchsorted(times, t_snap - 1e-12)), n_steps)
        z_snapshots[t_snap] = rows[n:n + ns + 1][::-1]
    return HybridTrace(times, np.linspace(0.0, L, mesh.nx + 1), rows[ns:], s, z_snapshots)
