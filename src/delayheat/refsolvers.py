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
  line is the previous delay window's temperature rows, kept in DST-I coordinates in one
  buffer that each window steps in place by the decay scan; y0 and the history enter as
  sine coefficients.
  The transform and the fold of sine coefficients into its bins are `basis._sine` and
  `basis._sine_bins`, which `EigenBasis.on_mesh` also uses.
  ``sample_times`` get coefficient rows from the bins; only snapshot rows go back to the grid.
  ``times`` is every step.  Its modes mu_j / dx^2 are finite-difference eigenvalues, not the
  lam_k of the sine basis, and it reads nothing from `flow`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import _BLOCK, _decay_scan, _grid_index, _sine, _sine_bins, _step_grid
from .errors import InvalidArgumentError

__all__ = ["ModeDDEConfig", "ModeTrace", "rk4_dde_mode", "MeshParams", "HybridTrace", "hybrid_simulate"]

_SCAN_ROWS = 256    # rows per block of the hybrid's decay scan, which bounds its temporaries


@dataclass(frozen=True)
class ModeDDEConfig:
    """Delayed modes u' = -lam u + a u(t - tau): scalar `lam`, `a`, `y0` and history
    values for one mode, (K,) arrays for K modes; history covers [-tau, 0].  An array `a`
    that broadcasts with `lam` and `y0`, say (C, 1) against (K,), runs every coupling in
    one call, each (C, K) entry equal to its scalar-`a` run bit for bit; history rows then
    need as many axes as that, (1, K) here."""

    lam: float | np.ndarray
    a: float | np.ndarray
    tau: float
    dt: float
    y0: float | np.ndarray = 1.0
    history: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if np.any(np.asarray(self.lam) < 0.0):
            raise InvalidArgumentError(f"decay rate must be >= 0, got {self.lam}")
        if not np.all(np.isfinite(self.a)):
            raise InvalidArgumentError(f"coupling must be finite, got {self.a}")
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
    the window starts, so the window is one array pass for the forcing and one
    decay scan of the recurrence above; the last window may be partial.  The
    midpoints and the forcing are formed in the trace rows they step into, and
    the derivatives a v1 - lam u the next window's midpoints read in a buffer
    of one window's rows, with one more of scratch: in place, in the operation
    order of the array expressions, so the values are theirs bit for bit.
    """
    if T <= 0.0:
        raise InvalidArgumentError(f"horizon must be positive, got {T}")
    n_sub, times = _step_grid(cfg.tau, cfg.dt, T, min_sub=10)   # dt <= tau / 10 always passes
    h, n_steps = times[1], len(times) - 1

    lam, a = np.asarray(cfg.lam, dtype=float), np.asarray(cfg.a, dtype=float)
    shape = (n_steps + 1,) + np.broadcast_shapes(lam.shape, a.shape, np.shape(cfg.y0))
    hist = cfg.history or (lambda g: np.broadcast_to(0.0, g.shape + shape[1:]))    # read-only
    p1, p2, p3 = _phi123(-lam * h)
    decay, ah = np.exp(-lam * h), a * h
    w0, wm, w1 = ah * (p1 - 3.0 * p2 + 4.0 * p3), ah * (4.0 * p2 - 8.0 * p3), ah * (4.0 * p3 - p2)
    u = np.empty(shape)
    # f: the derivatives of the window last stepped, f[0] entering its first step and f[j]
    # ending its step j; rest: one window's scratch rows
    f, rest_buf = np.empty((n_sub + 1,) + shape[1:]), np.empty((n_sub,) + shape[1:])
    u[0] = cfg.y0
    for i0 in range(0, n_steps, n_sub):     # the window of steps i0 .. i1 - 1
        i1 = min(i0 + n_sub, n_steps)
        n, m0 = i1 - i0, i0 - n_sub         # t_i - tau = t_{i - n_sub}
        new, rest = u[i0 + 1:i1 + 1], rest_buf[:n]
        if m0 < 0:                          # the history, up to its left limit at 0
            nodes = hist(np.arange(-n_sub, n - n_sub + 1) * h)
            v0, v1 = nodes[:-1], nodes[1:]
            new[...] = hist((np.arange(n) - n_sub + 0.5) * h)
        else:                               # stored nodes, and their cubic Hermite midpoint
            v0, v1 = u[m0:m0 + n], u[m0 + 1:m0 + n + 1]
            np.add(v0, v1, out=new)         # vm = 0.5 (v0 + v1) + h/8 (f_right - f_left)
            new *= 0.5
            np.subtract(f[:n], f[1:n + 1], out=rest)
            rest *= 0.125 * h
            new += rest
        new *= wm                           # the forcing w0 v0 + wm vm + w1 v1, in `new`
        np.multiply(w0, v0, out=rest)
        rest += new
        np.multiply(w1, v1, out=new)
        new += rest
        _decay_scan(u[i0:i1 + 1], decay)
        # u' is continuous except at t = tau, where the delayed value jumps from phi(0^-)
        # to y(0): f[0] is the derivative entering step i0, the last window's f[n_sub] else
        if m0 < 0:
            f[0] = a * nodes[0] - lam * u[0]
        elif i0 == n_sub:
            f[0] = a * u[0] - lam * u[i0]
        else:
            f[0] = f[n_sub]
        np.multiply(lam, new, out=rest)     # f = a v1 - lam u
        np.multiply(a, v1, out=f[1:n + 1])
        f[1:n + 1] -= rest
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
    coeffs: np.ndarray                       # shape (len(sample_times), K)
    s: np.ndarray
    z_snapshots: dict[float, np.ndarray]     # time -> z array of shape (ns + 1, nx + 1)


def hybrid_simulate(y0: np.ndarray, history: Callable[[np.ndarray], np.ndarray] | None,
                    mesh: MeshParams, T: float, a: float, tau: float, L: float = 1.0, *,
                    sample_times: tuple[float, ...], z_sample_times: tuple[float, ...] = ()
                    ) -> HybridTrace:
    """Advance the coupled system to time T; return the temperature's modes at `sample_times`.

    y0 holds the K sine coefficients of the initial temperature, a finite (K,) array, and
    history(gammas) follows `phi.coeffs`, (n, K) rows for n gammas in [-tau, 0], called once;
    other shapes raise InvalidArgumentError.  Both fold straight into the mesh's sine
    coordinates (`_sine_bins`).  The step is dt = tau / ns, the delay-line spacing, so
    z(t_n, s_j) = y(t_{n-j}) is a stored row, the history's phi(-s_j) for j > n.  Crank-Nicolson
    steps the temperature with the source a y(t - tau) averaged over the rows at the two ends of
    the step; the step that ends at t = tau reads the history's left limit phi(0^-), not y(0).  A
    sample or snapshot time t is taken at its nearest step (`basis._grid_index`); one farther than
    GRID_RTOL max(1, |t|) from every step raises InvalidArgumentError.  `times` is every step (the
    bench tracer counts them), `coeffs` one (K,) row per sample time: mode k < nx is bin k over
    nx sqrt(2/L), and the modes k >= nx, which the mesh cannot resolve, are 0.

    DST-I diagonalises the second difference, eigenvalues -mu_j = -4 sin^2(j pi / (2 nx)) (Strang,
    SIAM Review 41, 1999): there a step is Y_{n+1} = q Y_n + g (Z_n + Z_{n+1}), Z the source rows,
    q = (1 - r mu / 2) / (1 + r mu / 2), g = a dt / (2 (1 + r mu / 2)).  One delay window of
    stored rows is the whole state of the method of steps (Bellen and Zennaro, Numerical Methods
    for Delay Differential Equations, 2003, ch. 3), so the state stays in sine coordinates in one
    delay line of W + ns + 1 rows of min(K, nx - 1) bins (the rest stay 0), W = ceil(n_steps / ns)
    windows.  Window w finds its source Z_0 .. Z_ns in rows b .. b + ns, b = W - w (for window 0
    the history, ending in phi(0^-)), puts Y_{n0} in row b - 1 and steps in place: row b + k
    becomes g (Z_k + Z_{k+1}), then Y_{n0 + k + 1} by `basis._decay_scan` down rows
    b - 1 .. b - 1 + ns, in blocks of _SCAN_ROWS rows that each start at the row the last one
    ended with, so rows b - 1 .. b - 1 + ns are the next window's source.  Only the snapshots'
    rows go back to the grid, the history's among them.
    """
    if T <= 0.0:
        raise InvalidArgumentError("horizon must be positive")
    if not math.isfinite(a):
        raise InvalidArgumentError(f"coupling must be finite, got {a}")
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1 or not np.all(np.isfinite(y0)):
        raise InvalidArgumentError(f"y0 must be finite coefficients of shape (K,), got {y0.shape}")
    nx, ns, dt, nb = mesh.nx, mesh.ns, tau / mesh.ns, min(len(y0), mesh.nx - 1)
    s, times = np.linspace(0.0, tau, ns + 1), _step_grid(tau, dt, T)[1]
    n_steps = len(times) - 1
    samples = _grid_index(times, sample_times, "sample_times", "hybrid")
    snaps = _grid_index(times, z_sample_times, "z_sample_times", "hybrid")
    # the steps whose bins are kept: the samples, then each snapshot's delay line
    need = np.array([*samples, *(k for n in snaps for k in range(n - ns, n + 1))], int)

    # window 0's source: row n_win + ns + k holds step k = -ns .. 0, phi(0^-) at k = 0
    n_win = -(-n_steps // ns)
    buf, spec = np.zeros((n_win + ns + 1, nb)), np.zeros((len(need), nx - 1))
    if history is not None:
        hist = np.asarray(history(-s[::-1]), dtype=float)
        if hist.shape != (ns + 1, len(y0)):
            raise InvalidArgumentError(f"history rows are {hist.shape}, need {(ns + 1, len(y0))}")
        _sine_bins(hist, nx, nx * math.sqrt(2.0 / L), buf[n_win:])
        spec[need < 0, :nb] = buf[n_win + ns + need[need < 0]]

    half_rmu = dt / (L / nx) ** 2 * 2.0 * np.sin(np.arange(1, nb + 1) * (math.pi / (2 * nx))) ** 2
    q, g = (1.0 - half_rmu) / (1.0 + half_rmu), a * dt / (2.0 * (1.0 + half_rmu))
    y = _sine_bins(y0, nx, nx * math.sqrt(2.0 / L), np.zeros(nb))
    for w, n0 in enumerate(range(0, n_steps, ns)):      # the window of steps n0 .. n0 + m - 1
        m, b = min(ns, n_steps - n0), n_win - w         # its source Z_0 .. Z_ns: rows b .. b + ns
        buf[b - 1] = y
        src = buf[b:b + m]      # forward in place: row b + k + 1 is read before it is written
        np.add(src, buf[b + 1:b + m + 1], out=src)
        src *= g
        for r in range(b - 1, b + m - 1, _SCAN_ROWS - 1):    # rows b - 1 .. b - 1 + m, each
            _decay_scan(buf[r:min(r + _SCAN_ROWS, b + m)], q)    # block from the last one's end
        kept = (n0 <= need) & (need <= n0 + m)
        spec[kept, :nb] = buf[need[kept] - n0 + b - 1]
        y = buf[b + m - 1]

    dumped, rows = spec[len(samples):], np.zeros((len(need) - len(samples), nx + 1))
    for b in range(0, len(rows), _BLOCK):
        rows[b:b + _BLOCK, 1:-1] = _sine(dumped[b:b + _BLOCK]) / (2 * nx)
    coeffs = np.zeros((len(samples), len(y0)))              # modes k >= nx stay 0
    coeffs[:, :nb] = spec[:len(samples), :nb] / (nx * math.sqrt(2.0 / L))
    z_snapshots = dict(zip(z_sample_times, rows.reshape(-1, ns + 1, nx + 1)[:, ::-1]))
    return HybridTrace(times, coeffs, s, z_snapshots)
