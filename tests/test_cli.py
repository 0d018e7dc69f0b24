import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from delayheat import EigenBasis, FlowParams, SpectralField, semigroup_apply
from delayheat.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(path, text):
    path.write_text(text)
    return str(path)


BASE_CONFIG = """
[model]
length = 1.0
modes = 8
tau = 1.0
coupling = 1.0

[initial]
kind = modes
modes = 1.0 0.5

[history]
kind = zero

[run]
solver = closed-form
times = 0.0 0.4 1.2
nx = 40
out_dir = {out}
"""


def test_simulate_writes_traces_and_manifest(tmp_path):
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=tmp_path / "out"))
    assert main(["simulate", "--config", cfg]) == 0
    out = tmp_path / "out"
    rows = read_csv(out / "trace_coeffs.csv")
    assert len(rows) == 3 * 8
    grid_rows = read_csv(out / "trace_grid.csv")
    assert len(grid_rows) == 3 * 41
    manifest = json.loads((out / "manifest.json").read_text())
    by_name = {o["file"]: o["rows"] for o in manifest["outputs"]}
    assert by_name["trace_coeffs.csv"] == len(rows)
    assert by_name["trace_grid.csv"] == len(grid_rows)
    for entry in manifest["outputs"]:
        assert (out / entry["file"]).stat().st_size > 0


def test_simulate_manifest_records_phase_times(tmp_path):
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=tmp_path / "out"))
    assert main(["simulate", "--config", cfg]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    phases = manifest["phases"]
    assert set(phases) == {"build_s", "solve_s", "write_s"}
    assert all(v >= 0.0 for v in phases.values())
    assert sum(phases.values()) <= manifest["wall_seconds"] + 1e-5


def test_simulate_deterministic_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = write_config(tmp_path / "c1.ini", BASE_CONFIG.format(out=out1))
    cfg2 = write_config(tmp_path / "c2.ini", BASE_CONFIG.format(out=out2))
    assert main(["simulate", "--config", cfg1]) == 0
    assert main(["simulate", "--config", cfg2]) == 0
    assert (out1 / "trace_coeffs.csv").read_bytes() == (out2 / "trace_coeffs.csv").read_bytes()
    assert (out1 / "trace_grid.csv").read_bytes() == (out2 / "trace_grid.csv").read_bytes()


def test_simulate_zero_coupling_matches_semigroup(tmp_path):
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=tmp_path / "out"))
    assert main(["simulate", "--config", cfg, "--model.coupling", "0.0"]) == 0
    rows = read_csv(tmp_path / "out" / "trace_coeffs.csv")
    basis = EigenBasis(1.0, 8)
    y0 = SpectralField.from_modes(basis, [1.0, 0.5])
    for row in rows:
        t, k, c = float(row["t"]), int(row["k"]), float(row["coeff"])
        assert_allclose(c, semigroup_apply(y0, t).coeffs[k - 1], rtol=1e-13, atol=1e-300)


def test_simulate_env_var_overrides_out_dir(tmp_path, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("DELAY_HEAT_OUT", str(env_out))
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=tmp_path / "ignored"))
    assert main(["simulate", "--config", cfg]) == 0
    assert (env_out / "trace_coeffs.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_simulate_grid_history_two_samples(tmp_path):
    hist = tmp_path / "hist.csv"
    with open(hist, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gamma", "k", "coeff"])
        w.writerow(["-1.0", "1", "0.3"])
        w.writerow(["0.0", "1", "1.0"])
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=tmp_path / "out"))
    code = main(["simulate", "--config", cfg, "--history.kind", "grid",
                 "--history.file", str(hist)])
    assert code == 0
    assert (tmp_path / "out" / "trace_coeffs.csv").exists()


def test_simulate_solver_agreement_across_backends(tmp_path):
    # the same tiny problem through three solvers lands on the same trace;
    # requested instants sit on every solver grid
    times = ["--run.times", "0.0 0.5 1.25"]
    results = {}
    for solver, extra in (("closed-form", []),
                          ("picard", ["--picard.n_iter", "12", "--picard.dt", "0.03125"]),
                          ("rk4-modes", ["--rk4.dt", "0.005"])):
        out = tmp_path / solver
        cfg = write_config(tmp_path / f"{solver}.ini", BASE_CONFIG.format(out=out))
        assert main(["simulate", "--config", cfg, "--run.solver", solver] + times + extra) == 0
        rows = read_csv(out / "trace_coeffs.csv")
        results[solver] = {(round(float(row["t"]), 9), row["k"]): float(row["coeff"])
                           for row in rows}
    for key, ref in results["closed-form"].items():
        assert abs(results["picard"][key] - ref) <= 2e-4
        assert abs(results["rk4-modes"][key] - ref) <= 1e-6


def test_simulate_hybrid_solver_runs(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    code = main(["simulate", "--config", cfg, "--run.solver", "hybrid",
                 "--initial.kind", "modes", "--initial.modes", "0.70710678118654752",
                 "--hybrid.nx", "100", "--hybrid.ns", "100", "--hybrid.dt", "0.005"])
    assert code == 0
    rows = read_csv(out / "trace_coeffs.csv")
    basis = EigenBasis(1.0, 8)
    y0 = SpectralField.from_modes(basis, [1.0 / math.sqrt(2.0)])
    from delayheat import flow_apply
    ref = flow_apply(y0, 1.2, FlowParams(a=1.0, tau=1.0)).coeffs[0]
    got = [float(r["coeff"]) for r in rows if r["k"] == "1" and abs(float(r["t"]) - 1.2) < 1e-9]
    assert got and abs(got[0] - ref) <= 1e-3


def test_simulate_rejects_bad_config(tmp_path):
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=tmp_path / "out"))
    assert main(["simulate", "--config", cfg, "--run.solver", "nonsense"]) == 2
    assert main(["simulate", "--config", cfg, "--model.tau", "-1.0"]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.ini")]) == 2
    assert main(["simulate", "--config", cfg, "--model.modes", "not_an_int"]) == 2


def test_figure6_defaults_and_rejections(tmp_path):
    out = tmp_path / "fig"
    cfg = write_config(tmp_path / "fig.ini", f"""
[model]
modes = 60
[initial]
kind = dirac
x0 = 0.3
[run]
times = 0.5 1.0
nx = 300
out_dir = {out}
""")
    assert main(["figure6", "--config", cfg]) == 0
    rows = read_csv(out / "figure6_data.csv")
    assert len(rows) == 2 * 301
    assert (out / "plot_figure6.py").exists()
    by_t = {}
    for row in rows:
        by_t.setdefault(float(row["t"]), []).append((float(row["x"]), float(row["value"])))
    xs, vals = zip(*sorted(by_t[1.0]))
    peak_x = xs[int(np.argmax(np.abs(vals)))]
    assert abs(peak_x - 0.3) <= 1.0 / 300 + 1e-12
    # nonzero history is not a supported figure configuration
    assert main(["figure6", "--config", cfg, "--history.kind", "constant"]) == 2
    assert main(["figure6", "--config", cfg, "--initial.kind", "modes"]) == 2


def test_validate_exit_codes(tmp_path):
    monkey_out = ["--run.out_dir", str(tmp_path / "v")]
    assert main(["validate", "--suite", "no-such-suite"] + monkey_out) == 2
    assert main(["validate", "--suite", "jumps"] + monkey_out) == 0
    table = read_csv(tmp_path / "v" / "validate_results.csv")
    assert all(row["status"] == "PASS" for row in table)


def test_diagnose_writes_reports(tmp_path):
    out = tmp_path / "diag"
    cfg = write_config(tmp_path / "d.ini", f"""
[model]
modes = 8
[initial]
kind = modes
modes = 1.0 0.3
[history]
kind = compatible
[run]
out_dir = {out}
""")
    assert main(["diagnose", "--config", cfg, "--order", "2"]) == 0
    text = (out / "compatibility.txt").read_text()
    assert "flag_matching = True" in text
    jump_rows = read_csv(out / "jump_table.csv")
    assert len(jump_rows) == 5
    assert float(jump_rows[2]["rel_error"]) <= 1e-6
    assert (out / "endpoint_jumps.csv").exists()


def test_diagnose_rejects_excess_order(tmp_path):
    out = tmp_path / "diag2"
    hist = tmp_path / "h.csv"
    with open(hist, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gamma", "k", "coeff"])
        w.writerow(["-1.0", "1", "0.0"])
        w.writerow(["0.0", "1", "1.0"])
    cfg = write_config(tmp_path / "d.ini", f"""
[model]
modes = 4
[initial]
kind = modes
modes = 1.0
[history]
kind = grid
file = {hist}
interp_order = 1
[run]
out_dir = {out}
""")
    assert main(["diagnose", "--config", cfg, "--order", "2"]) == 2
