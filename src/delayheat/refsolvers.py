"""Independent numerical oracles for the delayed heat dynamics.

Two routes that share nothing with the closed-form series.  Both step on the
delay lattice, so every delayed value they read is one they already store.
Both call their history as `phi.coeffs`: a 1-D array of gammas in, one row each out.

* ``rk4_dde_mode`` integrates delayed modes, u' = -lam u + a u(t - tau), by the
  method of steps with an exponential step, reading the delayed term from the
  history or from its stored trace.  With ``lam`` and ``y0`` of shape (K,) and
  a history returning (K,) rows, one decay scan per delay window advances
  all K modes and returns an (n_steps + 1, K) trace whose columns equal the K
  one-mode runs bit for bit; scalar ``lam`` and ``y0`` give an (n_steps + 1,)
  trace.

* ``hybrid_simulate`` advances the equivalent state-space system: a heat equation coupled
  to a transport equation on (0, tau) that carries the delayed state, z(t, s) = y(t - s).
  Diffusion is Crank-Nicolson on the 3-point Laplacian (second order, unconditionally
  stable); the time step equals the delay-line spacing, so transport is exact and the delay
  line is the previous delay window's temperature rows, kept in DST-I coordinates in two
  window buffers.  Only the rows at ``sample_times`` and under transport snapshots go back
  to the grid; ``times`` is every step.  Its modes mu_j / dx^2 are finite-difference
  eigenvalues, not the lam_k of the sine basis, and it reads nothing from `flow`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import _decay_scan, _step_grid
from .errors import InvalidArgumentError

__all__ = ["ModeDDEConfig", "ModeTrace", "rk4_dde_mode", "MeshParams", "HybridTrace", "hybrid_simulate"]

GRID_RTOL = 1e-9    # a step k h within GRID_RTOL max(1, |t|) of t is at t; k h is rounded
_BLOCK = 64         # rows per block of the hybrid's sine transforms, which bounds their buffers


@dataclass(frozen=True)
class ModeDDEConfig:
    """Delayed modes u' = -lam u + a u(t - tau): scalar `lam`, `y0` and history
    values for one mode, (K,) arrays for K modes; history covers [-tau, 0]."""

    lam: float | np.ndarray
    a: float
    tau: float
    dt: float
    y0: float | np.ndarray = 1.0
    history: Callable[[np.ndarray], np.ndarray] | None = None

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
    from the history for t - tau < 0 (one call for the nodes, one for the
    midpoints); after that v0 and v1 are stored nodes and vm is the cubic
    Hermite midpoint between them.

    Every delayed value a delay window [j tau, (j + 1) tau] reads is known when
    the window starts, so the window is one array expression for the forcing
    and one decay scan of the recurrence above; the last window may be partial.
    """
    if T <= 0.0:
        raise InvalidArgumentError(f"horizon must be positive, got {T}")
    n_sub, times = _step_grid(cfg.tau, cfg.dt, T, min_sub=10)   # dt <= tau / 10 always passes
    h, n_steps = times[1], len(times) - 1

    lam, a = np.asarray(cfg.lam, dtype=float), cfg.a
    shape = (n_steps + 1,) + np.broadcast_shapes(lam.shape, np.shape(cfg.y0))
    hist = cfg.history or (lambda g: np.zeros(g.shape + shape[1:]))
    p1, p2, p3 = _phi123(-lam * h)
    decay, ah = np.exp(-lam * h), a * h
    w0, wm, w1 = ah * (p1 - 3.0 * p2 + 4.0 * p3), ah * (4.0 * p2 - 8.0 * p3), ah * (4.0 * p3 - p2)
    u = np.empty(shape)
    f_right = np.empty(shape)  # derivative entering interval [t_i, t_{i+1}]
    f_left = np.empty(shape)   # derivative ending interval [t_{i-1}, t_i]
    u[0] = cfg.y0
    for i0 in range(0, n_steps, n_sub):     # the window of steps i0 .. i1 - 1
        i1 = min(i0 + n_sub, n_steps)
        n, m0 = i1 - i0, i0 - n_sub         # t_i - tau = t_{i - n_sub}
        if m0 < 0:                          # the history, up to its left limit at 0
            nodes = hist(np.arange(-n_sub, n - n_sub + 1) * h)
            v0, vm, v1 = nodes[:-1], hist((np.arange(n) - n_sub + 0.5) * h), nodes[1:]
            f_right[0] = a * nodes[0] - lam * u[0]
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
    return ModeTrace(times, u)


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
    times: np.ndarray                        # every step n tau / ns, to the first at or past T
    x: np.ndarray
    values: np.ndarray                       # shape (len(sample_times), nx + 1)
    s: np.ndarray
    z_snapshots: dict[float, np.ndarray]     # time -> z array of shape (ns + 1, nx + 1)


def _sine(v: np.ndarray) -> np.ndarray:
    """2 sum_m v_m sin(pi j m / n) for j, m < n = v.shape[-1] + 1 (twice the DST-I of each row),
    by one real FFT of the odd extension; applied twice it is 2n times the identity."""
    n = v.shape[-1] + 1
    odd = np.zeros(v.shape[:-1] + (2 * n,))
    odd[..., 1:n], odd[..., n + 1:] = v, -v[..., ::-1]
    return -np.fft.rfft(odd)[..., 1:n].imag


def _in_horizon(t: float, T: float) -> bool:    # [0, T] widened by GRID_RTOL max(1, |t|)
    return -GRID_RTOL * max(1.0, abs(t)) <= t <= T + GRID_RTOL * max(1.0, abs(t))


def hybrid_simulate(y0_grid: np.ndarray, history_grid: Callable[[np.ndarray], np.ndarray] | None,
                    mesh: MeshParams, T: float, a: float, tau: float, L: float = 1.0, *,
                    sample_times: tuple[float, ...], z_sample_times: tuple[float, ...] = ()
                    ) -> HybridTrace:
    """Advance the coupled system to time T; return the temperature at `sample_times`.

    y0_grid holds nodal values on the uniform x-mesh (Dirichlet ends forced to zero).
    history_grid(gammas) must return nodal values, one row per gamma in [-tau, 0]; it is called
    once.  The step is dt = tau / ns, the delay-line spacing, so z(t_n, s_j) = y(t_{n-j}) is a
    stored row, the history's phi(-s_j) for j > n.  Crank-Nicolson steps the temperature with the
    source a y(t - tau) averaged over the rows at the two ends of the step; the step that ends at
    t = tau reads the history's left limit phi(0^-), not y(0).  A sample or snapshot time t is
    taken at the first step at or after t - GRID_RTOL max(1, |t|); one outside [0, T] by more than
    that raises InvalidArgumentError.  `times` is every step (the bench tracer counts them),
    `values` one row per sample time, bit for bit the row a snapshot shows there; snapshot rows
    before t = 0 are the history's.

    DST-I diagonalises the second difference, eigenvalues -mu_j = -4 sin^2(j pi / (2 nx)) (Strang,
    SIAM Review 41, 1999): there a step is Y_{n+1} = q Y_n + g (Z_n + Z_{n+1}), Z the source rows,
    q = (1 - r mu / 2) / (1 + r mu / 2), g = a dt / (2 (1 + r mu / 2)).  The state stays in sine
    coordinates in two (ns + 1)-row buffers: `prev` holds the window the current one reads (for
    window 0 the history, transformed once, ending in phi(0^-)), and `cur` the rows Y_{n0} ..
    Y_{n0 + ns} it steps into.  Only the rows the samples and snapshots need go back to the grid.
    """
    if T <= 0.0:
        raise InvalidArgumentError("horizon must be positive")
    for what, ts in (("sample", sample_times), ("transport snapshot", z_sample_times)):
        outside = [t for t in ts if not _in_horizon(t, T)]
        if outside:
            raise InvalidArgumentError(f"{what} time {outside[0]:g} outside [0, T = {T:g}]")
    nx, ns, dt = mesh.nx, mesh.ns, tau / mesh.ns
    s, times = np.linspace(0.0, tau, ns + 1), _step_grid(tau, dt, T)[1]
    n_steps = len(times) - 1
    step = lambda t: min(int(np.searchsorted(times, t - GRID_RTOL * max(1.0, abs(t)))), n_steps)
    samples, snaps = [step(t) for t in sample_times], [step(t) for t in z_sample_times]
    # the steps whose rows go back to the grid: the samples and each snapshot's delay line
    need = np.array(sorted({*samples, *(k for n in snaps for k in range(max(0, n - ns), n + 1))}), int)

    y0 = np.asarray(y0_grid, dtype=float)
    if y0.shape != (nx + 1,):
        raise InvalidArgumentError(f"initial grid data must have {nx + 1} nodes")
    # hist[j] = phi(-s[ns - j]), hist[ns] = phi(0^-); prev = their transforms, window 0's source
    hist, prev = np.zeros((ns + 1, nx + 1)), np.zeros((ns + 1, nx - 1))
    if history_grid is not None:
        hist[:] = history_grid(-s[::-1])
        for b in range(0, ns + 1, _BLOCK):
            prev[b:b + _BLOCK] = _sine(hist[b:b + _BLOCK, 1:-1])

    half_rmu = dt / (L / nx) ** 2 * 2.0 * np.sin(np.arange(1, nx) * (math.pi / (2 * nx))) ** 2
    q, g = (1.0 - half_rmu) / (1.0 + half_rmu), a * dt / (2.0 * (1.0 + half_rmu))
    cur, spec, y = np.empty_like(prev), np.empty((len(need), nx - 1)), _sine(y0[1:-1])
    for n0 in range(0, n_steps, ns):        # the window of steps n0 .. n0 + m - 1
        m = min(ns, n_steps - n0)
        cur[0] = y
        np.add(prev[:m], prev[1:m + 1], out=cur[1:m + 1])
        cur[1:m + 1] *= g
        for i in range(1, m + 1):
            cur[i] += q * cur[i - 1]
        lo, hi = np.searchsorted(need, (n0, n0 + m + 1))
        spec[lo:hi] = cur[need[lo:hi] - n0]
        y, prev, cur = cur[m], cur, prev

    rows = np.zeros((len(need), nx + 1))
    for b in range(0, len(need), _BLOCK):
        rows[b:b + _BLOCK, 1:-1] = _sine(spec[b:b + _BLOCK]) / (2 * nx)
    rows[need == 0, 1:-1] = y0[1:-1]        # y(0) is the data itself, not its round trip
    at = lambda n: np.searchsorted(need, n)
    z_snapshots = {t: np.concatenate([rows[at(max(0, n - ns)):at(n) + 1][::-1], hist[n:ns][::-1]])
                   for t, n in zip(z_sample_times, snaps)}
    return HybridTrace(times, np.linspace(0.0, L, nx + 1), rows[at(samples)], s, z_snapshots)
