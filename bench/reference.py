"""Exact per-mode references for the benchmark, computed without delayheat.

Two closed forms are available for point-mass initial data
c_k = sqrt(2/L) sin(k pi x0 / L):

* zero history: c_k E(lam_k, t), with the delayed-exponential series
  E(lam, t) = sum_{j <= t/tau} a^j (t - j tau)^j / j! exp(-lam (t - j tau))
  summed in extended precision, so the alternating series for a < 0 loses
  no digits;
* compatible history phi_k(gamma) = c_k exp(rho_k gamma): the solution is
  c_k exp(rho_k t) for all t, where rho_k is the real root of
  rho = -lam_k + a exp(-rho tau), taken here from the Lambert W function
  (rho = W(a tau exp(lam tau)) / tau - lam) rather than by bracketing.

Everything runs in mpmath and is converted to float only at the end.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 50

# E(0, t) for a = tau = 1, by hand: 1; 1 + 0.5; 1 + 1.5 + 0.5^2 / 2.
HAND_VALUES = ((0.5, 1.0), (1.5, 1.5), (2.5, 2.625))


def eigenvalues(K: int, L: float) -> list:
    return [(k * mp.pi / L) ** 2 for k in range(1, K + 1)]


def dirac_coeffs(x0: float, K: int, L: float) -> list:
    amp = mp.sqrt(mp.mpf(2) / L)
    return [amp * mp.sin(k * mp.pi * mp.mpf(x0) / L) for k in range(1, K + 1)]


def delayed_exp(lam, t: float, a: float, tau: float):
    t = mp.mpf(t)
    a, tau = mp.mpf(a), mp.mpf(tau)
    total = mp.mpf(0)
    j = 0
    while j * tau <= t:
        s = t - j * tau
        total += a**j * s**j / mp.factorial(j) * mp.exp(-lam * s)
        j += 1
    return total


def characteristic_root(lam, a: float, tau: float):
    if a == 0.0:
        return -lam
    tau = mp.mpf(tau)
    w = mp.lambertw(mp.mpf(a) * tau * mp.exp(lam * tau))
    if abs(mp.im(w)) > 0:
        raise ValueError(f"no real characteristic root for lam={lam}, a={a}")
    return mp.re(w) / tau - lam


class PointMassReference:
    """Exact coefficient rows for point-mass data under zero or compatible history."""

    def __init__(self, history: str, x0: float, K: int, L: float, a: float, tau: float):
        if history not in ("zero", "compatible"):
            raise ValueError(f"no exact reference for {history!r} history")
        self.history = history
        self.a, self.tau = a, tau
        self.lams = eigenvalues(K, L)
        self.c = dirac_coeffs(x0, K, L)
        if history == "compatible":
            self.rho = [characteristic_root(lam, a, tau) for lam in self.lams]

    def row(self, t: float) -> list:
        """Exact coefficients at time t >= 0, as mpmath numbers."""
        if self.history == "zero":
            return [c * delayed_exp(lam, t, self.a, self.tau) for c, lam in zip(self.c, self.lams)]
        return [c * mp.exp(r * mp.mpf(t)) for c, r in zip(self.c, self.rho)]


def rel_l2_error(got: list[float], exact: list) -> float:
    """||got - exact||_2 / ||exact||_2, formed in extended precision."""
    num = mp.sqrt(mp.fsum((mp.mpf(g) - e) ** 2 for g, e in zip(got, exact)))
    den = mp.sqrt(mp.fsum(e**2 for e in exact))
    if den == 0:
        raise ValueError("exact row is zero; relative error undefined")
    return float(num / den)


def self_check() -> list[str]:
    """Problems found in the reference itself; empty when it is sound."""
    problems = []
    for t, want in HAND_VALUES:
        got = delayed_exp(mp.mpf(0), t, 1.0, 1.0)
        if abs(got - want) > mp.mpf(10) ** -40:
            problems.append(f"E(0, {t}) = {mp.nstr(got, 20)}, expected {want}")
    for lam in eigenvalues(240, 1.0)[::60]:
        rho = characteristic_root(lam, 1.0, 1.0)
        residual = rho + lam - mp.exp(-rho)
        if abs(residual) > mp.mpf(10) ** -40 * (1 + abs(lam)):
            problems.append(f"characteristic root residual {mp.nstr(residual, 5)} at lam={lam}")
    return problems
