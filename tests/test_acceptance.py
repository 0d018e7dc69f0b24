"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion; each line states the measured value against its pinned tolerance.
"""

import math

import numpy as np

import delayheat.validate as dv
from delayheat import FlowParams, delayed_exp


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_per_mode_oracle_equivalence():
    suite = dv.suite_per_mode(dt_frac=1000)
    rk4_rows = [r for r in suite.rows if r.name.startswith("rk4")]
    assert len(rk4_rows) == 24  # 4 rates x 3 couplings x 2 delays
    worst = max(r.value for r in rk4_rows)
    _report("criterion 1: per-mode closed form vs RK4",
            all(r.passed for r in rk4_rows),
            f"max relative error {worst:.3e} over 24 (rate, coupling, delay) combos, "
            f"tolerance 1e-6 at dt = tau/1000")


def test_criterion_2_scalar_spot_values():
    p = FlowParams(a=1.0, tau=1.0)
    values = {t: delayed_exp(0.0, t, p) for t in (0.5, 1.5, 2.5)}
    expected = {0.5: 1.0, 1.5: 1.5, 2.5: 2.625}
    worst = max(abs(values[t] - expected[t]) for t in values)
    _report("criterion 2: hand-computed polynomial spot values",
            worst <= 1e-15,
            f"u(0.5)={values[0.5]}, u(1.5)={values[1.5]}, u(2.5)={values[2.5]} "
            f"(max |error| {worst:.1e}, tolerance rounding)")


def test_criterion_3_weighted_identity():
    suite = dv.suite_identity(n_fields=20, K=60)
    worst = max(r.value for r in suite.rows)
    _report("criterion 3: weighted-orbit identity ratios",
            suite.passed,
            f"max |ratio - 1| = {worst:.3e} over alpha,beta in 0..3, s in {{-1,0,2}}, "
            f"20 random fields, K=60, tolerance 1e-6")


def test_criterion_4_jump_law():
    suite = dv.suite_jumps(K=60)
    jump_rows = [r for r in suite.rows if r.name.startswith("jump")]
    probe_rows = [r for r in suite.rows if "probe" in r.name]
    worst_jump = max(r.value for r in jump_rows)
    worst_probe = max(r.value for r in probe_rows)
    _report("criterion 4: lattice jump law",
            suite.passed,
            f"max relative jump error {worst_jump:.3e} (tol 1e-6, j<=4, a in {{1,2}}); "
            f"max off-lattice one-sided gap {worst_probe:.3e} (tol 1e-8)")


def test_criterion_5_figure_panels():
    suite = dv.figure_checks(nx=300)
    peaks = [r for r in suite.rows if "peak" in r.name]
    smooth = [r for r in suite.rows if "smooth" in r.name]
    _report("criterion 5: point-mass derivative panels (K=60, mesh 1/300)",
            suite.passed,
            f"peaks at x = {[f'{r.value:.4f}' for r in peaks]} (wanted 0.3 +- 1/300); "
            f"smooth-panel max/median ratios {[f'{r.value:.2f}' for r in smooth]} "
            f"all below threshold {smooth[0].threshold:.2f}")


def test_criterion_6_picard_contraction():
    suite = dv.suite_picard(T=3.0)
    env = [r for r in suite.rows if "envelope" in r.name][0]
    floor = [r for r in suite.rows if "floor" in r.name][0]
    _report("criterion 6: integral-iteration factorial contraction",
            suite.passed,
            f"errors stay below C (T)^(n+1)/(n+1)! down to the grid floor "
            f"({env.detail}); final error {floor.value:.2e}")


def test_criterion_7_hybrid_cross_validation():
    suite = dv.suite_hybrid()
    order = [r for r in suite.rows if "order" in r.name][0]
    finest = [r for r in suite.rows if "smooth history" in r.name][0]
    zero_hist = [r for r in suite.rows if "zero history" in r.name][0]
    _report("criterion 7: state-space simulator cross-validation",
            suite.passed,
            f"L2 convergence order {order.value:.3f} in [1.8, 2.2]; finest-mesh "
            f"(nx=400, ns=800, dt=tau/800) errors {finest.value:.2e} (smooth history) and "
            f"{zero_hist.value:.2e} (zero history), tolerance 1e-3")


def test_criterion_8_compatibility_diagnostics():
    suite = dv.suite_compatibility()
    viol = [r for r in suite.rows if "violations" in r.name][0]
    jumps = [r for r in suite.rows if "measured endpoint" in r.name][0]
    pert = [r for r in suite.rows if "perturbation" in r.name][0]
    _report("criterion 8: endpoint compatibility",
            suite.passed,
            f"compatible history: max violation {viol.value:.2e} (tol 1e-9), max "
            f"measured endpoint jump {jumps.value:.2e} (tol 1e-3); unit perturbation "
            f"violation norm {pert.value:.12f} (wanted 1.00 +- 1e-9)")
