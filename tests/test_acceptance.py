"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion; each line states the measured value against its pinned tolerance.
"""

import math
from pathlib import Path

import numpy as np

import delayheat.validate as dv
from delayheat import FlowParams, delayed_exp


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_per_mode_oracle_equivalence():
    suite = dv.suite_per_mode()
    rk4_rows = [r for r in suite.rows if r.name.startswith("rk4")]
    assert len(rk4_rows) == 24  # 4 rates x 3 couplings x 2 delays
    worst = max(r.value for r in rk4_rows)
    _report("criterion 1: per-mode closed form vs RK4",
            all(r.passed for r in rk4_rows),
            f"max relative error {worst:.3e} over 24 (rate, coupling, delay) combos, "
            f"each bounded by 2 x its Richardson estimate + 64 eps at dt = tau/1000")


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
    suite = dv.suite_identity()
    worst = max(r.value for r in suite.rows)
    _report("criterion 3: weighted-orbit identity ratios",
            suite.passed,
            f"max |ratio - 1| = {worst:.3e} over alpha,beta in 0..3, s in {{-1,0,2}}, "
            f"20 deterministic test fields, K=60, each row within its rounding bound "
            f"4 eps (kappa + 2), at most {max(r.threshold for r in suite.rows):.3g}")


def test_criterion_4_jump_law():
    suite = dv.suite_jumps()
    jump_rows = [r for r in suite.rows if r.name.startswith("jump")]
    assert len(jump_rows) == len(suite.rows) == 15     # j = 0..4 for a in {-1, 1, 2}
    worst_jump = max(r.value for r in jump_rows)
    _report("criterion 4: lattice jump law, measured by one-sided stencils",
            suite.passed,
            f"max relative jump error {worst_jump:.3e} (tol per j up to 5e-3, j<=4, "
            f"modes 1-3, a in {{-1,1,2}})")


def test_criterion_5_figure_panels():
    suite = dv.figure_checks()
    peaks = [r for r in suite.rows if "peak" in r.name]
    smooth = [r for r in suite.rows if "smooth" in r.name]
    _report("criterion 5: point-mass derivative panels (K=60, mesh 1/300)",
            suite.passed,
            f"peak offsets from x = 0.3 {[f'{r.value:.2g}' for r in peaks]} (wanted at most "
            f"half a cell, 1/600); "
            f"smooth-panel max/median ratios {[f'{r.value:.2f}' for r in smooth]} "
            f"all below threshold {smooth[0].threshold:.2f}")


def test_criterion_6_picard_contraction():
    suite = dv.suite_picard()
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
            f"measured endpoint jump {jumps.value:.2e} (bound {jumps.threshold:.2e}: "
            f"{jumps.detail}); unit perturbation "
            f"violation norm {pert.value:.12f} (wanted 1.00 +- 1e-9)")


def test_readme_library_example_runs():
    # the README's example runs as written, so it cannot drift from the API
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert np.all(np.isfinite(namespace["state"])) and np.any(namespace["panel"] != 0.0)
