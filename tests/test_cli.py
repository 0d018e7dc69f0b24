import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import delayheat
from delayheat import (EigenBasis, ExpModeHistory, FlowParams, InvalidArgumentError,
                       SpectralField, dirac_coeffs, picard_solve, semigroup_apply, solve_trace)
from delayheat.cli import _SOLVERS, main


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
    assert manifest["versions"]["delayheat"] == delayheat.__version__
    by_name = {o["file"]: o["rows"] for o in manifest["outputs"]}
    assert by_name["trace_coeffs.csv"] == len(rows)
    assert by_name["trace_grid.csv"] == len(grid_rows)
    for entry in manifest["outputs"]:
        assert (out / entry["file"]).stat().st_size > 0
    # the exp kind at rate 0 is the history constant in time, written exactly
    assert main(["simulate", "--config", cfg, "--history.kind", "exp", "--history.rate", "0",
                 "--history.profile", "0.3 -0.1"]) == 0
    basis = EigenBasis(1.0, 8)
    phi = ExpModeHistory(SpectralField.from_modes(basis, [0.3, -0.1]), 0.0)
    want = solve_trace(SpectralField.from_modes(basis, [1.0, 0.5]), phi, [0.0, 0.4, 1.2],
                       FlowParams(a=1.0, tau=1.0)).coeffs
    got = [float(r["coeff"]) for r in read_csv(out / "trace_coeffs.csv")]
    assert np.array_equal(np.reshape(got, (3, 8)), want)


def test_simulate_rejects_the_constant_history_kind(tmp_path, capsys):
    # `exp` at history.rate 0 is the same history; `constant` was a second name for it
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    assert main(["simulate", "--config", cfg, "--history.kind", "constant"]) == 2
    assert capsys.readouterr().err == "configuration error: unknown history kind 'constant'\n"
    assert not out.exists()


def test_simulate_manifest_records_phase_times(tmp_path):
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=tmp_path / "out"))
    assert main(["simulate", "--config", cfg]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    phases = manifest["phases"]
    assert set(phases) == {"import_s", "build_s", "solve_s", "write_s"}
    assert all(v >= 0.0 for v in phases.values())
    # the import happened before the command started, so wall_seconds does not hold it
    assert phases["import_s"] > 0.0
    run = [phases[k] for k in ("build_s", "solve_s", "write_s")]
    assert sum(run) <= manifest["wall_seconds"] + 1e-5


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


def test_simulate_rejects_grid_history_short_of_the_delay(tmp_path, capsys):
    # samples on [-0.5, 0] for tau = 1 would leave [-1, -0.5) to be made up
    hist = tmp_path / "hist.csv"
    hist.write_text("gamma,k,coeff\n-0.5,1,0.3\n0.0,1,1.0\n")
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=tmp_path / "out"))
    for solver in ("closed-form", "rk4-modes"):
        code = main(["simulate", "--config", cfg, "--history.kind", "grid",
                     "--history.file", str(hist), "--run.solver", solver])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "[-0.5, 0]" in err and "tau = 1" in err
    assert not (tmp_path / "out" / "trace_coeffs.csv").exists()


def test_simulate_solver_agreement_across_backends(tmp_path):
    # the same tiny problem through three solvers lands on the same trace;
    # requested instants sit on every solver grid
    times = ["--run.times", "0.0 0.5 1.25"]
    results = {}
    for solver, extra in (("closed-form", []),
                          ("picard", ["--picard.dt", "0.03125"]),
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


@pytest.mark.parametrize("solver, bound", [("rk4-modes", 1e-9), ("hybrid", 1e-4)])
def test_simulate_oracle_defaults_match_closed_form(tmp_path, monkeypatch, solver, bound):
    # K = 60 point mass at the default times; the arrival at t = tau included
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    coeffs = []
    for name in (solver, "closed-form"):
        out = tmp_path / name
        assert main(["simulate", "--run.solver", name, "--run.out_dir", str(out)]) == 0
        table = read_csv(out / "trace_coeffs.csv")
        coeffs.append(np.array([float(r["coeff"]) for r in table]).reshape(-1, 60))
    got, ref = coeffs
    assert got.shape == (6, 60)
    assert np.max(np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)) <= bound


def test_simulate_closed_form_overflow_exits_1(tmp_path, monkeypatch, capsys):
    # the history convolution overflows to inf: a numerical failure, not a bad config
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["simulate", "--model.coupling", "1e308", "--history.kind", "exp",
                   "--history.rate", "0", "--history.profile", "1e10", "--run.times", "0.5",
                   "--run.out_dir", str(out)])
    assert rc == 1
    assert not (out / "trace_coeffs.csv").exists()
    assert not (out / "trace_grid.csv").exists()
    assert "numerical failure" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == []
    assert "non-finite" in manifest["error"]


@pytest.mark.parametrize("solver, extra", [
    ("closed-form", []),
    ("picard", ["--picard.dt", "0.03125", "--run.times", "0 0.375 1.1875"]),
    ("rk4-modes", ["--rk4.dt", "0.005"]),
    ("hybrid", ["--hybrid.nx", "40", "--hybrid.ns", "50"]),
])
def test_trace_grid_is_the_coefficient_rows_on_the_mesh(tmp_path, solver, extra):
    # every solver's grid rows are `on_mesh` of its coefficient rows, with exact zeros at x = 0
    # and x = L (the sine-matrix product left rounding residue of sin(k pi) at x = L)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    assert main(["simulate", "--config", cfg, "--run.solver", solver, *extra]) == 0
    coeffs = np.reshape([float(r["coeff"]) for r in read_csv(out / "trace_coeffs.csv")], (3, 8))
    table = read_csv(out / "trace_grid.csv")
    values = np.reshape([float(r["value"]) for r in table], (3, 41))
    assert np.array_equal(values, EigenBasis(1.0, 8).on_mesh(coeffs, 40))
    assert [r["value"] for r in table if r["x"] in ("0", "1")] == ["0"] * 6


def test_simulate_non_finite_grid_values_exit_1(tmp_path, monkeypatch, capsys):
    # finite coefficients whose grid values overflow: 235 of the 301 cells were written as inf
    # or nan with exit 0, after numpy RuntimeWarnings
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--initial.kind", "modes", "--initial.modes", "1.7e308 1.7e308",
                   "--run.times", "0", "--run.out_dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: closed-form produced ")
    assert "non-finite grid values, the first at t=0, x=" in err
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert "non-finite grid values" in manifest["error"] and manifest["outputs"] == []


def test_simulate_grid_near_the_float_limit_stays_finite(tmp_path, monkeypatch):
    # sqrt(2) 1e308 sin(pi x) peaks at 1.4142135623730951e308 at x = 1/2; scaled by
    # nx sqrt(2/L) before the transform, as the hybrid's fold is, 299 of the 301 cells overflow
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--initial.kind", "modes", "--initial.modes", "1e308",
                     "--run.times", "0", "--run.out_dir", str(out)]) == 0
    values = [float(r["value"]) for r in read_csv(out / "trace_grid.csv")]
    assert len(values) == 301 and all(map(math.isfinite, values))
    assert abs(max(values) - 1.4142135623730951e308) <= 1e-15 * 1.4142135623730951e308


@pytest.mark.parametrize("solver, extra, keys", [
    ("closed-form", [], {"cancellation"}),
    ("picard", ["--picard.dt", "0.03125", "--run.times", "0 0.375 1.1875"],
     {"h", "residuals"}),
    ("rk4-modes", ["--rk4.dt", "0.005"], {"h"}),
    ("hybrid", ["--hybrid.nx", "40", "--hybrid.ns", "50"], {"h", "r", "unresolved_modes"}),
])
def test_simulate_manifest_records_solver_health(tmp_path, solver, extra, keys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    assert main(["simulate", "--config", cfg, "--run.solver", solver] + extra) == 0
    health = json.loads((out / "manifest.json").read_text())["health"]
    assert set(health) == keys | {"snap_max_offset"}
    residuals = health.pop("residuals", [])
    cancellation = health.pop("cancellation", {})
    assert all(math.isfinite(v) for v in list(health.values()) + residuals)
    if solver == "closed-form":
        assert health["snap_max_offset"] == 0.0
        # a > 0: every series term is positive, so each figure is eps; one per instant
        assert cancellation == {"t": [0.0, 0.4, 1.2], "mode": [1] * 3,
                                "figure": [2.220446049250313e-16] * 3}
    if solver == "picard":
        # 0, 0.375 and 1.1875 are samples of the 1/32 grid
        assert health == {"h": 0.03125, "snap_max_offset": 0.0}
        # one residual per sweep, one sweep per delay window; at t <= 1.1875 < 2 tau only
        # G F is nonzero, so the first sweep moves the iterate and the second does not
        assert len(residuals) == 2 and residuals[0] > 0.0 and residuals[1] == 0.0
    if solver == "rk4-modes":
        assert_allclose(health["h"], 0.005, rtol=1e-12)
    if solver == "hybrid":
        assert_allclose([health["h"], health["r"]], [0.02, 32.0], rtol=1e-12)
        assert health["unresolved_modes"] == 0       # K = 8 modes on nx = 40


@pytest.mark.parametrize("solver, extra, t, near", [
    ("picard", [], 0.3, 0.296875),
    ("rk4-modes", ["--rk4.dt", "0.005"], 0.4012, 0.4),
    ("hybrid", ["--hybrid.nx", "40", "--hybrid.ns", "50"], 0.405, 0.4),
])
def test_simulate_rejects_times_off_the_solver_grid(tmp_path, capsys, solver, extra, t, near):
    # the instant was replaced by its nearest grid sample with no word but health.snap_max_offset
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    code = main(["simulate", "--config", cfg, "--run.solver", solver, "--run.times", f"0 {t!r}"]
                + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert f"run.times: t = {t!r} is off the {solver} grid of step h = " in err
    assert f"; its nearest sample is {near!r}" in err
    assert not out.exists()
    # an instant within 1e-9 max(1, |t|) of a sample is that sample
    assert main(["simulate", "--config", cfg, "--run.solver", solver,
                 "--run.times", f"0 {near + 1e-10!r}"] + extra) == 0
    assert float(read_csv(out / "trace_coeffs.csv")[-1]["t"]) == near
    assert json.loads((out / "manifest.json").read_text())["health"]["snap_max_offset"] < 2e-10


def test_simulate_hybrid_takes_a_last_time_just_below_its_sample(tmp_path):
    # T = 1.9999999999 is the largest requested time and its sample 2.0 lies past it;
    # the run exited 2 with "sample time 2 outside [0, T = 2]", and a dump time just
    # past T was rejected the same way
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    assert main(["simulate", "--config", cfg, "--run.solver", "hybrid", "--hybrid.nx", "40",
                 "--hybrid.ns", "50", "--run.times", "0 1.9999999999",
                 "--hybrid.z_dump_times", "2.0000000001"]) == 0
    assert float(read_csv(out / "trace_coeffs.csv")[-1]["t"]) == 2.0
    assert (out / "transport_t2.csv").exists()
    assert json.loads((out / "manifest.json").read_text())["health"]["snap_max_offset"] < 2e-10


@pytest.mark.parametrize("solver, extra, message", [
    ("picard", ["--run.times", "0 0.3"],
     "run.times: t = 0.3 is off the picard grid of step h = 0.015625; its nearest sample is "
     "0.296875"),
    ("rk4-modes", ["--rk4.dt", "0.005", "--run.times", "0 0.4012"],
     "run.times: t = 0.4012 is off the rk4-modes grid of step h = 0.005; its nearest sample "
     "is 0.4"),
    ("hybrid", ["--hybrid.nx", "40", "--hybrid.ns", "50", "--run.times", "0 0.405"],
     "run.times: t = 0.405 is off the hybrid grid of step h = 0.02; its nearest sample is 0.4"),
    ("hybrid", ["--hybrid.nx", "40", "--hybrid.ns", "50", "--hybrid.z_dump_times", "1 1.0000001"],
     "hybrid.z_dump_times: t = 1.0000001 is off the hybrid grid of step h = 0.02; its nearest "
     "sample is 1.0"),
    ("hybrid", ["--hybrid.nx", "40", "--hybrid.ns", "50", "--hybrid.z_dump_times",
                "0.5 0.5000000001"],
     "hybrid.z_dump_times: t = 0.5 and t = 0.5000000001 would both be written to "
     "transport_t0.5.csv"),
], ids=["picard", "rk4-modes", "hybrid", "hybrid-dump", "hybrid-dump-name"])
def test_simulate_rejects_off_grid_times_before_the_solve(tmp_path, capsys, monkeypatch, solver,
                                                         extra, message):
    # the grid is known from the config, so no solver runs for a time that is off it
    import delayheat.cli as cli
    import delayheat.refsolvers as refsolvers

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli, "picard_solve", no_solve)
    for name in ("rk4_dde_mode", "hybrid_simulate"):    # cli reads the oracles off refsolvers
        monkeypatch.setattr(refsolvers, name, no_solve)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    assert main(["simulate", "--config", cfg, "--run.solver", solver] + extra) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("solver", ["picard", "hybrid"])
def test_simulate_rejects_two_instants_on_one_sample_before_the_solve(tmp_path, capsys,
                                                                      monkeypatch, solver):
    # the message named neither instant nor the sample they share
    import delayheat.cli as cli
    import delayheat.refsolvers as refsolvers

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli, "picard_solve", no_solve)
    monkeypatch.setattr(refsolvers, "hybrid_simulate", no_solve)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    assert main(["simulate", "--config", cfg, "--run.solver", solver,
                 "--run.times", "0.5 0.5000000001"]) == 2
    assert capsys.readouterr().err == (f"configuration error: run.times: t = 0.5 and "
                                       f"t = 0.5000000001 both fall on the {solver} sample 0.5\n")
    assert not out.exists()


def _library_rows(solver, y0, phi, params, times):
    """(sample times, coefficient rows) of the library call behind `solver` at its defaults."""
    import delayheat.refsolvers as rs

    def nearest(grid):
        return [int(np.argmin(np.abs(grid - t))) for t in times]

    T = max(max(times), params.tau)
    if solver == "closed-form":
        trace = solve_trace(y0, phi, times, params)
        return trace.times, trace.coeffs
    if solver == "picard":
        trace = picard_solve(y0, phi, T, 0.015625, params)
        return trace.times[nearest(trace.times)], trace.coeffs[nearest(trace.times)]
    if solver == "rk4-modes":
        trace = rs.rk4_dde_mode(rs.ModeDDEConfig(lam=y0.basis.eigenvalues(), a=params.a,
                                                 tau=params.tau, dt=0.001, y0=y0.coeffs,
                                                 history=phi.coeffs), T)
        return trace.times[nearest(trace.times)], trace.values[nearest(trace.times)]
    trace = rs.hybrid_simulate(y0.coeffs, phi.coeffs, rs.MeshParams(400, 800), T, params.a,
                               params.tau, y0.basis.L, sample_times=tuple(times))
    return trace.times[nearest(trace.times)], trace.coeffs


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_simulate_writes_exactly_the_library_rows(tmp_path, solver):
    # the CLI adds nothing to a solver's rows: each is read back bit for bit
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    assert main(["simulate", "--config", cfg, "--run.solver", solver, "--run.times", "0 0.5 1.25",
                 "--history.kind", "exp", "--history.profile", "0.3 0 -0.2",
                 "--history.rate", "-0.5"]) == 0
    basis = EigenBasis(1.0, 8)
    y0 = SpectralField.from_modes(basis, [1.0, 0.5])
    phi = ExpModeHistory(SpectralField.from_modes(basis, [0.3, 0.0, -0.2]), -0.5)
    want_t, want = _library_rows(solver, y0, phi, FlowParams(a=1.0, tau=1.0), [0.0, 0.5, 1.25])
    table = read_csv(out / "trace_coeffs.csv")
    assert [int(r["k"]) for r in table] == list(range(1, 9)) * 3
    assert np.array_equal(np.reshape([float(r["t"]) for r in table], (3, 8))[:, 0], want_t)
    assert np.array_equal(np.reshape([float(r["coeff"]) for r in table], (3, 8)), want)


def test_simulate_unknown_solver_exits_2_before_the_history_is_read(tmp_path, capsys):
    # the history file was read first, so a missing one exited 1 and hid the solver name
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    assert main(["simulate", "--config", cfg, "--run.solver", "nonsense", "--history.kind",
                 "grid", "--history.file", str(tmp_path / "missing.csv")]) == 2
    assert capsys.readouterr().err == "configuration error: unknown solver 'nonsense'\n"
    assert not out.exists()


def test_simulate_rejects_a_mesh_below_one_cell_before_the_output_dir(tmp_path, capsys):
    # run.nx = -3 exited 2 only after trace_coeffs.csv was written
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    assert main(["simulate", "--config", cfg, "--run.nx", "-3"]) == 2
    assert "nx = -3" in capsys.readouterr().err
    assert not out.exists()


def test_validate_prints_suite_wall_time(tmp_path, capsys):
    assert main(["validate", "--suite", "jumps", "--run.out_dir", str(tmp_path / "v")]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("suite jumps:")]
    assert len(lines) == 1 and lines[0].endswith(" s")
    with open(tmp_path / "v" / "validate_results.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["suite", "check", "status", "value", "threshold", "detail"]
    # the printed wall time is the one the manifest records
    phases = json.loads((tmp_path / "v" / "manifest.json").read_text())["phases"]
    assert list(phases) == ["import_s", "jumps_s", "write_s"] and phases["jumps_s"] > 0.0
    assert lines[0].startswith("suite jumps: 15 checks in ")
    assert abs(float(lines[0].split()[-2]) - phases["jumps_s"]) <= 5e-4 + 1e-9


def test_a_failed_validate_check_writes_its_table_and_exits_1(tmp_path, monkeypatch, capsys):
    import delayheat.validate as dv

    def failing():
        return dv.SuiteResult("jumps", [dv.CheckRow("planted", False, 2.5, 1.5, "made to fail")])

    monkeypatch.setitem(dv._SUITES, "jumps", failing)
    out = tmp_path / "v"
    assert main(["validate", "--suite", "jumps", "--run.out_dir", str(out)]) == 1
    assert "some checks FAILED" in capsys.readouterr().out.splitlines()
    assert read_csv(out / "validate_results.csv") == [
        {"suite": "jumps", "check": "planted", "status": "FAIL", "value": "2.5",
         "threshold": "1.5", "detail": "made to fail"}]
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert outputs == [{"file": "validate_results.csv", "rows": 1}]


@pytest.mark.parametrize("argv", [["simulate"], ["figure6"], ["diagnose"],
                                  ["validate", "--suite", "all"]])
def test_every_manifest_times_its_work(tmp_path, monkeypatch, argv):
    import delayheat.validate as dv
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    out = tmp_path / "out"
    assert main([*argv, "--run.out_dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    work = {k: v for k, v in manifest["phases"].items() if k != "import_s"}
    if argv[0] == "validate":
        assert set(work) == {f"{suite}_s" for suite in dv._SUITES} | {"write_s"}
    else:
        assert set(work) == {"build_s", "solve_s", "write_s"}
    # the wall clock covers every phase of the run (each figure is rounded to 1e-6 s)
    assert sum(work.values()) <= manifest["wall_seconds"] + len(work) * 1e-6


def test_simulate_hybrid_solver_runs(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    code = main(["simulate", "--config", cfg, "--run.solver", "hybrid",
                 "--initial.kind", "modes", "--initial.modes", "0.70710678118654752",
                 "--hybrid.nx", "100", "--hybrid.ns", "200"])
    assert code == 0
    rows = read_csv(out / "trace_coeffs.csv")
    basis = EigenBasis(1.0, 8)
    y0 = SpectralField.from_modes(basis, [1.0 / math.sqrt(2.0)])
    ref = solve_trace(y0, None, [1.2], FlowParams(a=1.0, tau=1.0)).coeffs[0, 0]
    got = [float(r["coeff"]) for r in rows if r["k"] == "1" and abs(float(r["t"]) - 1.2) < 1e-9]
    assert got and abs(got[0] - ref) <= 1e-3


def test_simulate_rejects_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=tmp_path / "out"))
    assert main(["simulate", "--config", cfg, "--run.solver", "nonsense"]) == 2
    assert main(["simulate", "--config", cfg, "--model.tau", "-1.0"]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.ini")]) == 2
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--model.modes", "not_an_int"]) == 2
    assert capsys.readouterr().err == ("configuration error: model.modes: invalid literal for "
                                       "int() with base 10: 'not_an_int'\n")
    # values that numpy or configparser reject with a bare ValueError stay configuration errors
    for argv, name in ((["--run.times", "0 nan"], "non-finite"), (["--model.tau", "1%"], "model.tau"),
                       (["--run.nx", "-3"], "nx = -3"), (["--run.nx", "0"], "nx = 0")):
        assert main(["simulate", "--config", cfg, *argv]) == 2
        assert name in capsys.readouterr().err
    assert main(["figure6", "--run.times", "", "--run.out_dir", str(tmp_path / "fig")]) == 2
    assert "run.times" in capsys.readouterr().err


def test_solver_value_error_exits_1(tmp_path, capsys, monkeypatch):
    # a ValueError from inside a solve is a failure of the run, not of the configuration
    import delayheat.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "solve_trace", broken)
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=tmp_path / "out"))
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: operands could not be broadcast together\n"


def test_load_config_rejects_unknown_keys(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    bad = write_config(tmp_path / "bad.ini", BASE_CONFIG.format(out=out) + "[rk4]\nsteps = 10\n")
    for argv, name in ((["--config", cfg, "--hybrid.dt", "0.005"], "hybrid.dt"),  # retired
                       (["--config", cfg, "--run.solvr", "hybrid"], "run.solvr"),
                       (["--config", cfg, "--histroy.kind", "zero"], "[histroy]"),
                       (["--config", bad], "rk4.steps")):
        assert main(["simulate"] + argv) == 2
        assert name in capsys.readouterr().err
    assert not out.exists()


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
    assert main(["figure6", "--config", cfg, "--history.kind", "exp", "--history.rate", "0"]) == 2
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
    # the compatible history has no jump at any order: every prediction is 0, every cell finite
    jump_rows = read_csv(out / "jump_table.csv")
    assert list(jump_rows[0]) == ["j", "mode", "predicted", "measured", "rel_error"]
    assert [(row["j"], row["mode"]) for row in jump_rows] == [
        (str(j), str(m)) for j in range(5) for m in (1, 2, 3)]
    assert all(float(row["predicted"]) == 0.0 for row in jump_rows)
    assert all(math.isfinite(float(v)) for row in jump_rows for v in row.values())
    assert (out / "endpoint_jumps.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["phases"]) == ["build_s", "import_s", "solve_s", "write_s"]
    assert "orders past 4 are not tabulated" in manifest["jump_table"]


def test_diagnose_tabulates_jumps_up_to_a_small_j_max(tmp_path):
    # model.j_max = 2 caps the series at two delay periods, so the table stops at j = 2
    out = tmp_path / "out"
    assert main(["diagnose", "--model.j_max", "2", "--run.out_dir", str(out)]) == 0
    rows = read_csv(out / "jump_table.csv")
    assert [(row["j"], row["mode"]) for row in rows] == [
        (str(j), str(m)) for j in range(3) for m in (1, 2, 3)]


def test_diagnose_scans_the_one_mode_of_a_one_mode_basis(tmp_path, monkeypatch):
    out = tmp_path / "diag1"
    monkeypatch.setenv("DELAY_HEAT_OUT", str(out))
    assert main(["diagnose", "--model.modes", "1", "--history.kind", "exp"]) == 0
    rows = read_csv(out / "endpoint_jumps.csv")
    assert len(rows) == 2 * 2 and {row["mode"] for row in rows} == {"1"}   # {0, tau} x r = 0, 1


def test_diagnose_zero_history(tmp_path):
    out = tmp_path / "diag0"
    cfg = write_config(tmp_path / "d.ini", f"""
[model]
modes = 8
[initial]
kind = modes
modes = 1.0 0.3
[history]
kind = zero
[run]
out_dir = {out}
""")
    assert main(["diagnose", "--config", cfg, "--order", "2"]) == 0
    assert (out / "compatibility.txt").exists() and (out / "jump_table.csv").exists()
    assert not (out / "endpoint_jumps.csv").exists()
    kv = dict(line.split(" = ") for line in (out / "compatibility.txt").read_text().splitlines())
    # phi(0) = 0 misses g_0 = y0 by all of y0
    assert_allclose(float(kv["violation_0"]), math.hypot(1.0, 0.3), rtol=1e-15)


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
    assert not out.exists()


@pytest.mark.parametrize("argv, code, reason", [
    (["figure6", "--run.times", "-0.5"], 2, "time must be >= 0"),
    (["figure6", "--run.times", "200"], 1, "above the j_max=128 guard"),
    (["figure6", "--run.times", "1 1"], 2, "trace times must be strictly increasing"),
    (["figure6", "--run.times", "3 120"], 1, "non-finite values, the first at t=120"),
    (["diagnose", "--order", "-1"], 2, "order r must be >= 0"),
    # the endpoint scan samples the solution past tau, which model.j_max = 0 forbids
    (["diagnose", "--history.kind", "exp", "--model.j_max", "0"], 1, "above the j_max=0 guard"),
    # g_k grows like lambda_60^k and reports to order 67; g_68 is the first field to overflow
    (["diagnose", "--order", "70"], 1, "compatibility order 68 of r = 70 is not finite"),
    (["diagnose", "--order", "68"], 1, "compatibility order 68 of r = 68 is not finite"),
])
def test_failed_figure6_and_diagnose_leave_no_output_dir(tmp_path, capsys, argv, code, reason):
    out = tmp_path / "out"
    assert main([*argv, "--run.out_dir", str(out)]) == code
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_picard_runs_to_its_fixed_point_over_20_delays(tmp_path, monkeypatch):
    # T = 20 tau takes 20 sweeps, one per delay window; the last residual is exactly 0
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    out = tmp_path / "out"
    assert main(["simulate", "--run.solver", "picard", "--run.times", "0 10 20",
                 "--run.out_dir", str(out)]) == 0
    residuals = json.loads((out / "manifest.json").read_text())["health"]["residuals"]
    assert len(residuals) == 20 and residuals[-2] > 0.0 and residuals[-1] == 0.0


def test_picard_n_iter_is_an_unknown_key(tmp_path, capsys):
    # the sweep count follows from T / tau, so there is no option to set it
    out = tmp_path / "out"
    assert main(["simulate", "--run.solver", "picard", "--picard.n_iter", "4",
                 "--run.out_dir", str(out)]) == 2
    assert "unknown config key picard.n_iter" in capsys.readouterr().err
    assert not out.exists()


def test_picard_cli_default_stops_sweeping_at_its_fixed_point(tmp_path, monkeypatch):
    # T = 2.5 tau: 3 delay windows, so 3 G sweeps, the last with residual 0
    import delayheat.flow as fl
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    sweeps, sweep = [], fl._method_of_steps
    monkeypatch.setattr(fl, "_method_of_steps",
                        lambda *args, **kw: sweeps.append(kw["start"]) or sweep(*args, **kw))
    out = tmp_path / "out"
    assert main(["simulate", "--run.solver", "picard", "--run.out_dir", str(out)]) == 0
    assert len(sweeps) == 3
    ref = picard_solve(dirac_coeffs(0.3, EigenBasis(1.0, 60)), None, 2.5, dt=1.0 / 64,
                       params=FlowParams())
    health = json.loads((out / "manifest.json").read_text())["health"]
    assert health["residuals"] == ref.residuals.tolist()
    assert len(health["residuals"]) == 3 and health["residuals"][-1] == 0.0
    rows = np.array([float(r["coeff"]) for r in read_csv(out / "trace_coeffs.csv")])
    idx = np.searchsorted(ref.times, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    assert rows.tobytes() == ref.coeffs[idx].tobytes()


def test_figure_panels_rejects_negative_time():
    from delayheat.validate import figure_panels
    with pytest.raises(InvalidArgumentError, match="time must be >= 0"):
        figure_panels(times=(0.5, -0.5), K=8, nx=10)


@pytest.mark.parametrize("dt", ["0", "nan", "-1"])
def test_picard_step_not_positive_and_finite_exits_2(tmp_path, monkeypatch, capsys, dt):
    monkeypatch.setenv("DELAY_HEAT_OUT", str(tmp_path / "o"))
    assert main(["simulate", "--run.solver", "picard", "--picard.dt", dt]) == 2
    assert f"grid step {float(dt)} must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("solver, key, n_bytes", [
    # 160 steps of 1/64 to T = 2.5, K = 60: 8 arrays of 161 rows, 2 windows of 65 and 1536 per
    # mode of a 16-mode block of circles
    ("picard", "picard.dt", 8 * (60 * (8 * 161 + 2 * 65) + 1536 * 16)),
    # the zero history: 2501 steps, 64 rows of per-mode arrays and 4 windows of 1001 rows
    ("rk4-modes", "rk4.dt", 8 * 61 * (2501 + 64 + 4 * 1001)),
    # 804 delay-line rows of 60 bins and two 256-row scan blocks, 2001 step times and 6
    # coefficient rows kept
    ("hybrid", "hybrid.nx, hybrid.ns", 8 * ((804 + 512) * 60 + 2001 + 6 * 60)),
])
def test_a_stepping_grid_that_does_not_fit_in_memory_exits_2_before_it_is_made(
        tmp_path, monkeypatch, capsys, solver, key, n_bytes):
    from delayheat import cli
    monkeypatch.setattr(cli, "_physical_memory", lambda: 1e5)
    monkeypatch.setattr(cli, "_step_grid", None)        # never reached
    monkeypatch.setenv("DELAY_HEAT_OUT", str(tmp_path / "o"))
    assert main(["simulate", "--run.solver", solver]) == 2
    assert (f"{key}: the arrays need {n_bytes:.4g} bytes, more than the 1e+05 bytes of "
            f"physical memory") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, key, n_bytes", [
    (["simulate", "--run.nx", "1000000000000"], "run.nx", 8 * 7 * (10**12 + 1)),
    (["figure6", "--run.nx", "1000000000000"], "run.nx", 8 * 7 * (10**12 + 1)),
    (["simulate", "--model.modes", "1000000000000"], "model.modes", 8 * 10**12),
    (["simulate", "--run.solver", "rk4-modes", "--model.modes", "1000000000000"], "model.modes",
     8 * 10**12),
    (["figure6", "--model.modes", "1000000000000"], "model.modes", 8 * 10**12),
    (["diagnose", "--model.modes", "1000000000000"], "model.modes", 8 * 10**12),
], ids=["simulate-nx", "figure6-nx", "simulate-modes", "rk4-modes", "figure6-modes",
        "diagnose-modes"])
def test_a_size_past_physical_memory_exits_2_before_anything_is_allocated(
        tmp_path, monkeypatch, capsys, argv, key, n_bytes):
    # these took main's catch-all as "error: Unable to allocate 7.28 TiB ..." with exit 1; the
    # figure checked is a lower bound of what the command allocates, so no run that fits is refused
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    out = tmp_path / "out"
    assert main([*argv, "--run.out_dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: {key}: the arrays need {n_bytes:.4g} bytes, more than the ")
    assert not out.exists()


def test_successive_main_calls_share_no_parser_state(tmp_path, monkeypatch):
    # the parser is built once per process; an option given to one call is not a default
    # of the next
    monkeypatch.setenv("DELAY_HEAT_OUT", str(tmp_path / "o"))
    argv = ["diagnose", "--model.modes", "8", "--history.kind", "compatible"]
    orders = []
    for extra in (["--order", "3"], []):
        assert main(argv + extra) == 0
        text = (tmp_path / "o" / "compatibility.txt").read_text()
        orders.append(dict(line.split(" = ") for line in text.splitlines())["r"])
    assert orders == ["3", "1"]


def test_simulate_closed_form_overflow_prints_no_numpy_warning(tmp_path, monkeypatch, capsys):
    # with warnings as errors, a numpy overflow warning on the way would turn
    # into a generic error instead of the numerical-failure report; with zero
    # history it is the series coefficient a^j itself that overflows a float
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    for i, extra in enumerate((["--history.kind", "exp", "--history.rate", "0",
                                "--history.profile", "1e10", "--run.times", "0.5"],
                               ["--run.times", "0.5 2.5"])):
        out = tmp_path / f"out{i}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", "--model.coupling", "1e308", *extra, "--run.out_dir", str(out)])
        assert rc == 1
        assert "numerical failure" in capsys.readouterr().err
        assert "non-finite" in json.loads((out / "manifest.json").read_text())["error"]


@pytest.mark.parametrize("extra", [["--model.coupling", "1e300"],
                                   ["--history.kind", "exp", "--history.rate", "-800"]])
@pytest.mark.parametrize("solver", ["picard", "rk4-modes", "hybrid"])
def test_stepping_solver_overflow_exits_1_as_a_numerical_failure(tmp_path, monkeypatch, capsys,
                                                                 solver, extra):
    # the stepping solvers overflowed with numpy RuntimeWarnings on the way to the finiteness
    # check; as errors, those took main's catch-all ("error: overflow encountered in ...")
    # and left no manifest
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    out = tmp_path / "out"
    assert main(["simulate", "--run.solver", solver, *extra, "--run.out_dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"numerical failure: {solver} produced ")
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert "non-finite coefficients" in manifest["error"] and manifest["outputs"] == []


def test_a_non_finite_transport_dump_exits_1_and_leaves_only_its_manifest(tmp_path, monkeypatch,
                                                                         capsys):
    # the dumps never reached the finiteness check: this run wrote 319,200 nan and inf cells
    # into transport_t1.csv and exited 0; its coefficient and grid rows at t = 0 are finite
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    out = tmp_path / "out"
    assert main(["simulate", "--run.solver", "hybrid", "--history.kind", "exp",
                 "--history.rate", "-800", "--run.times", "0", "--hybrid.z_dump_times", "1",
                 "--run.out_dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("numerical failure: hybrid produced 319200 "
                                              "non-finite transport_t1.csv values, the first at ")
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert "transport_t1.csv" in manifest["error"] and manifest["outputs"] == []


def _python_env():
    """The environment of a child python that imports delayheat from this source tree."""
    env = dict(os.environ)
    env.pop("DELAY_HEAT_OUT", None)
    src = str(Path(delayheat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_default_picard_run_leaves_refsolvers_unloaded(tmp_path):
    # the grid check reads its rounding rule from basis, so Picard loads no oracle
    script = ("import sys, delayheat.cli as cli\n"
              "rc = cli.main(['simulate', '--run.solver', 'picard',\n"
              "               '--run.out_dir', sys.argv[1]])\n"
              "print(rc, 'delayheat.refsolvers' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")], env=_python_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_cold_path_loads_no_scipy(tmp_path):
    # the import and every subcommand, solver and history kind run on numpy alone; the
    # import loads only the modules every subcommand uses, and no importlib.metadata
    hist = tmp_path / "hist.csv"
    hist.write_text("gamma,k,coeff\n-1,1,0.5\n-0.5,1,0.8\n-0.25,1,0.9\n0,1,1\n")
    grid = ["--history.kind", "grid", "--history.file", str(hist)]
    runs = [["simulate", "--run.solver", solver]
            for solver in ("closed-form", "picard", "rk4-modes", "hybrid")]
    runs += [["simulate", *grid, "--history.interp_order", order] for order in ("1", "3")]
    runs += [["simulate", "--run.solver", "hybrid", *grid, "--history.interp_order", "3",
              "--hybrid.z_dump_times", "0.5 2.5"],
             ["diagnose", "--order", "2", "--history.kind", "compatible"], ["figure6"],
             ["validate", "--suite", "hybrid"]]
    script = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
def deferred():
    return sorted(m[len("delayheat."):] for m in sys.modules if m.startswith("delayheat.")
                  and m not in ("delayheat.basis", "delayheat.flow", "delayheat.io",
                                "delayheat.errors", "delayheat.cli"))
def state():
    return f"{loaded()} {deferred()} {'importlib.metadata' in sys.modules}"
import delayheat.cli as cli
print("loaded: import", state(), sorted(m for m in sys.modules if m.startswith("delayheat")))
out = sys.argv[1]
for i, argv in enumerate(json.loads(sys.argv[2])):
    rc = cli.main(argv + ["--run.out_dir", f"{out}/{i}"])
    print("loaded:", " ".join(argv), rc, state())
"""
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), json.dumps(runs)],
                          env=_python_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [ln[len("loaded: "):] for ln in proc.stdout.splitlines() if ln.startswith("loaded: ")]
    eager = ["delayheat", "delayheat.basis", "delayheat.cli", "delayheat.errors",
             "delayheat.flow", "delayheat.io"]
    # one process runs them all, so what a run loads stays loaded for the next ones:
    # closed-form and picard load nothing deferred, rk4-modes and hybrid refsolvers only,
    # diagnose adds diagnostics, and figure6 adds validate
    deferred = ([[]] * 2 + [["refsolvers"]] * 5 + [["diagnostics", "refsolvers"]]
                + [["diagnostics", "refsolvers", "validate"]] * 2)
    assert lines == [f"import [] [] False {eager}"] + [
        f"{' '.join(argv)} 0 [] {mods} False" for argv, mods in zip(runs, deferred)]
    assert sorted(p.name for p in (tmp_path / "6").glob("transport_t*.csv")) == [
        "transport_t0.5.csv", "transport_t2.5.csv"]
    # every command records the one import time of its process
    manifests = [json.loads((tmp_path / str(i) / "manifest.json").read_text())
                 for i in range(len(runs))]
    assert {m["command"] for m in manifests} == {"simulate", "diagnose", "figure6", "validate"}
    import_s = {m["phases"]["import_s"] for m in manifests}
    assert len(import_s) == 1 and 0.0 < import_s.pop() < 60.0


def test_no_command_loads_numpy_random_or_numpy_ma(tmp_path):
    # validate draws its test fields from a deterministic sequence and the figure suite's median
    # is a partition, so no command pays for importing numpy.random or numpy.ma
    runs = [["simulate", "--run.solver", solver] for solver in sorted(_SOLVERS)]
    runs += [["diagnose"], ["figure6"], ["validate", "--suite", "all"]]
    script = """
import json, sys
import delayheat.cli as cli
out = sys.argv[1]
for i, argv in enumerate(json.loads(sys.argv[2])):
    rc = cli.main(argv + ["--run.out_dir", f"{out}/{i}"])
    print("loaded:", rc, sorted({"numpy.random", "numpy.ma"} & set(sys.modules)))
"""
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), json.dumps(runs)],
                          env=_python_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("loaded: ")]
    assert lines == ["loaded: 0 []"] * len(runs)


def test_every_public_name_resolves_and_is_listed():
    # the oracles and diagnostics are bound on first access (PEP 562)
    import delayheat.refsolvers as refsolvers
    listed = dir(delayheat)
    for name in delayheat.__all__:
        assert getattr(delayheat, name) is not None
        assert name in listed
    assert delayheat.rk4_dde_mode is refsolvers.rk4_dde_mode
    with pytest.raises(AttributeError, match="no_such_name"):
        delayheat.no_such_name


def test_simulate_hybrid_rejects_dump_times_outside_horizon(tmp_path, capsys):
    # the horizon is 1.2; t = 5 was dropped and t = -1 written as the t = 0 snapshot
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    for dumps, bad, near in (("0.5 5", 5.0, 1.2), ("0.5 -1", -1.0, 0.0)):
        code = main(["simulate", "--config", cfg, "--run.solver", "hybrid", "--hybrid.nx", "40",
                     "--hybrid.ns", "50", "--hybrid.z_dump_times", dumps])
        assert code == 2
        assert (f"hybrid.z_dump_times: t = {bad!r} is off the hybrid grid of step h = 0.02; its "
                f"nearest sample is {near!r}") in capsys.readouterr().err
        assert not out.exists()
    code = main(["simulate", "--config", cfg, "--run.solver", "hybrid", "--hybrid.nx", "40",
                 "--hybrid.ns", "50", "--hybrid.z_dump_times", "0.5 1.2"])
    assert code == 0
    assert sorted(p.name for p in out.glob("transport_t*.csv")) == ["transport_t0.5.csv",
                                                                    "transport_t1.2.csv"]


@pytest.mark.parametrize("dumps, message", [
    # one file, transport_t1.csv, was written and listed twice in the manifest
    ("1 1.0000001", "hybrid.z_dump_times: t = 1.0000001 is off the hybrid grid of step "
                    "h = 0.02; its nearest sample is 1.0"),
    ("0.5 0.5000000001", "hybrid.z_dump_times: t = 0.5 and t = 0.5000000001 would both be "
                         "written to transport_t0.5.csv"),
], ids=["off-grid", "same-name"])
def test_simulate_hybrid_rejects_dump_times_off_grid_or_colliding(tmp_path, capsys, dumps,
                                                                  message):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    code = main(["simulate", "--config", cfg, "--run.solver", "hybrid", "--hybrid.nx", "40",
                 "--hybrid.ns", "50", "--hybrid.z_dump_times", dumps])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_hybrid_dump_holds_the_step_time(tmp_path):
    # a dump requested within 1e-9 of a step is that step, in its name and its t column
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    assert main(["simulate", "--config", cfg, "--run.solver", "hybrid", "--hybrid.nx", "40",
                 "--hybrid.ns", "50", "--hybrid.z_dump_times", "0.5000000001 1"]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert [o["file"] for o in outputs[:2]] == ["transport_t0.5.csv", "transport_t1.csv"]
    rows = read_csv(out / "transport_t0.5.csv")
    assert len(rows) == 51 * 41 and {r["t"] for r in rows} == {"0.5"}


@pytest.mark.parametrize("line", ["-0.5,1", "-0.5,1,nan"])
def test_simulate_rejects_malformed_grid_history(tmp_path, capsys, line):
    # a short row ended in IndexError and a nan in a non-finite closed form, both exit 1
    hist = tmp_path / "hist.csv"
    hist.write_text(f"gamma,k,coeff\n-1.0,1,0.3\n{line}\n0.0,1,1.0\n")
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=tmp_path / "out"))
    code = main(["simulate", "--config", cfg, "--history.kind", "grid",
                 "--history.file", str(hist)])
    assert code == 2
    assert f"{hist}, line 3" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace_coeffs.csv").exists()


@pytest.mark.parametrize("rows, pair", [
    ("-1.0,1,0.3\n-1.0,2,0.1\n0.0,1,1.0\n", "(0.0, 2)"),
    ("-1.0,1,0.3\n0.0,1,1.0\n0.0,1,1.0\n", "(0.0, 1)"),
])
def test_simulate_rejects_non_rectangular_grid_history(tmp_path, capsys, rows, pair):
    # a pair missing at one sample time used to read as 0, and a second row overwrote the first
    hist = tmp_path / "hist.csv"
    hist.write_text("gamma,k,coeff\n" + rows)
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=tmp_path / "out"))
    code = main(["simulate", "--config", cfg, "--history.kind", "grid",
                 "--history.file", str(hist)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(hist) in err and f"(gamma, k) = {pair}" in err
    assert not (tmp_path / "out" / "trace_coeffs.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "diagnose"])
@pytest.mark.parametrize("kind, reason", [("missing", "No such file or directory"),
                                          ("directory", "Is a directory"),
                                          ("binary", "codec can't decode byte 0xff")])
def test_unreadable_grid_history_file_is_a_configuration_error(tmp_path, capsys, command, kind,
                                                               reason):
    # open() and the decoder raised straight to main, which exited 1 with "error: ..."
    path = tmp_path / "hist.csv"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"\xff\xfe\x00gamma,k,coeff\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", BASE_CONFIG.format(out=out))
    assert main([command, "--config", cfg, "--history.kind", "grid",
                 "--history.file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: history.file: cannot read {path}: ")
    assert reason in err and "Errno" not in err
    assert not out.exists()


@pytest.mark.parametrize("order", [40, 64])
def test_diagnose_reports_every_order_below_the_float_range(tmp_path, order):
    # the compatibility norms scale each row before squaring; the jump table stops at j = 4
    out = tmp_path / "out"
    assert main(["diagnose", "--order", str(order), "--run.out_dir", str(out)]) == 0
    kv = dict(line.split(" = ") for line in (out / "compatibility.txt").read_text().splitlines())
    assert all(math.isfinite(float(kv[f"violation_{k}"])) for k in range(order + 1))
    table = read_csv(out / "jump_table.csv")
    assert len(table) == 5 * 3      # j = 0..4, modes 1..3
    assert all(math.isfinite(float(v)) for row in table for v in row.values())


def _fail_if_called(*args, **kwargs):
    raise AssertionError("called before the output directory was checked")


@pytest.mark.parametrize("command", ["simulate", "figure6", "validate", "diagnose"])
@pytest.mark.parametrize("below", [False, True])
def test_an_output_dir_that_cannot_be_made_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                                   command, below):
    # run.out_dir naming an existing file, or a path below one: mkdir raised Errno 17 or 20
    # (exit 1) once the work was done
    import delayheat.diagnostics
    import delayheat.validate
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    for module, name in ((delayheat.cli, "build_model"), (delayheat.cli, "solve_trace"),
                         (delayheat.validate, "run_suite"), (delayheat.validate, "figure_panels"),
                         (delayheat.diagnostics, "compatibility_check")):
        monkeypatch.setattr(module, name, _fail_if_called)
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"not a directory\n")
    out = blocker / "sub" if below else blocker
    assert main([command, "--run.out_dir", str(out)]) == 2
    assert capsys.readouterr().err == (f"configuration error: run.out_dir: cannot make {out}: "
                                       f"{blocker} is not a directory\n")
    assert blocker.read_bytes() == b"not a directory\n"


def test_an_output_dir_in_a_read_only_directory_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    out = tmp_path / "out"
    assert main(["simulate", "--run.out_dir", str(out)]) == 2
    assert capsys.readouterr().err == (f"configuration error: run.out_dir: cannot make {out}: "
                                       f"{tmp_path} is not writable\n")
    assert not out.exists()


def test_a_series_past_its_guard_exits_1_as_a_truncation_limit(tmp_path, capsys):
    # tau = 0.01 needs 250 delay periods at t = 2.5; the error went through main's catch-all
    # as "error: ...", the route a bug would take
    out = tmp_path / "out"
    assert main(["simulate", "--model.tau", "0.01", "--run.out_dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "truncation limit: t=2.5 needs 250 delay periods, above the j_max=128 guard\n")
    assert not out.exists()


@pytest.mark.parametrize("times", ["0 20 40 60", "0 40"])
def test_a_series_that_cancels_past_its_limit_exits_1_naming_t_mode_and_figure(tmp_path, capsys,
                                                                                 times):
    # L = 10, a = -2: the closed form was off rk4-modes by 3.7e-4 and 1.6e2 at t = 40 and 60
    # and exited 0; the first instant past the limit is named
    out = tmp_path / "out"
    assert main(["simulate", "--model.length", "10", "--model.coupling", "-2", "--run.times",
                 times, "--run.out_dir", str(out)]) == 1
    t, figure = ("20", "1.93e-10") if times.startswith("0 20") else ("40", "0.00507")
    assert capsys.readouterr().err == (
        f"truncation limit: the closed form at t={t} cancels in mode 1: its series loses eps "
        f"sum|terms| / |sum| = {figure} of the value, past the limit 1e-10\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, reason", [
    (["--model.coupling", "1e80"], "9 non-finite jump table cells, the first at t=4, mode=1"),
    (["--model.coupling", "1e200"], "27 non-finite jump table cells, the first at t=2, mode=1"),
    (["--history.kind", "exp", "--history.profile", "1e290", "--order", "10"],
     "8 non-finite endpoint scan cells, the first at t=0, mode=1"),
])
def test_diagnose_with_non_finite_cells_exits_1_and_leaves_only_its_manifest(tmp_path, capsys,
                                                                            argv, reason):
    # a^j overflows for j <= 4 once |a| > 1.2e77, and a huge history overflows the order-10
    # stencils: diagnose wrote inf and nan cells with exit 0, after RuntimeWarnings
    out = tmp_path / "out"
    assert main(["diagnose", *argv, "--run.out_dir", str(out)]) == 1
    assert capsys.readouterr().err == f"numerical failure: diagnose produced {reason}\n"
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == f"diagnose produced {reason}" and manifest["outputs"] == []


def test_hybrid_on_a_mesh_coarser_than_the_modes_writes_its_own_grid(tmp_path):
    # K = 60 modes on hybrid.nx = 20: modes 20 .. 60 are written as 0, and health says so; the
    # trapezoid projection wrote their aliases, so trace_grid.csv on the hybrid's own nodes was
    # 2.0 times its maximum off the hybrid's grid row
    out = tmp_path / "out"
    assert main(["simulate", "--run.solver", "hybrid", "--hybrid.nx", "20", "--hybrid.ns",
                 "40", "--run.nx", "20", "--run.times", "0.5", "--hybrid.z_dump_times", "0.5",
                 "--run.out_dir", str(out)]) == 0
    grid = [float(r["value"]) for r in read_csv(out / "trace_grid.csv")]
    dump = [float(r["value"]) for r in read_csv(out / "transport_t0.5.csv") if r["s"] == "0"]
    assert len(grid) == len(dump) == 21
    assert np.max(np.abs(np.subtract(grid, dump))) <= 1e-12 * np.max(np.abs(dump))
    coeffs = [float(r["coeff"]) for r in read_csv(out / "trace_coeffs.csv")]
    assert coeffs[19:] == [0.0] * 41
    assert json.loads((out / "manifest.json").read_text())["health"]["unresolved_modes"] == 41


def test_trace_grid_is_the_dump_row_at_s_0_bit_for_bit(tmp_path, monkeypatch):
    # both grids are the same coefficient row put on the hybrid's mesh by `on_mesh`; the dumps
    # had their own back-transform, and the two rows agreed only to rounding
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    out = tmp_path / "out"
    assert main(["simulate", "--run.solver", "hybrid", "--hybrid.nx", "20", "--hybrid.ns", "40",
                 "--run.nx", "20", "--run.times", "0.5", "--hybrid.z_dump_times", "0.5",
                 "--run.out_dir", str(out)]) == 0
    grid = [(r["x"], r["value"]) for r in read_csv(out / "trace_grid.csv")]
    dump = [(r["x"], r["value"]) for r in read_csv(out / "transport_t0.5.csv") if r["s"] == "0"]
    assert len(grid) == 21 and grid == dump


def _estimate_and_traced_peak(tmp_path, monkeypatch, solver, K, argv):
    """The byte estimate `_fits_in_memory` checks and the tracemalloc peak of the solve, for
    `simulate --run.solver <solver>` with argv and a K-mode grid history file at hand.  For the
    hybrid the span runs on through the grids of its transport dumps, up to the grid of
    `trace_grid.csv`, which `cmd_simulate` forms after them from the trace's coefficient rows."""
    import tracemalloc

    import delayheat.cli as cli
    import delayheat.refsolvers as rs
    module, name = {"hybrid": (rs, "hybrid_simulate"), "rk4-modes": (rs, "rk4_dde_mode"),
                    "picard": (cli, "picard_solve")}[solver]
    seen, fits, solve = {"grids": 0}, cli._fits_in_memory, getattr(module, name)
    on_mesh = EigenBasis.on_mesh
    monkeypatch.setattr(cli, "_fits_in_memory", lambda key, n: seen.update(estimate=n) or fits(key, n))

    def stop():
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    def traced(*args, **kwargs):
        tracemalloc.start()
        trace = solve(*args, **kwargs)
        if solver == "hybrid":
            seen["rows"] = trace.coeffs     # the span ends at their grid
        else:
            stop()
        return trace

    def grid(self, coeffs, nx):
        if tracemalloc.is_tracing():
            if coeffs is seen["rows"]:
                stop()
            else:
                seen["grids"] += 1
        return on_mesh(self, coeffs, nx)

    monkeypatch.setattr(module, name, traced)
    monkeypatch.setattr(EigenBasis, "on_mesh", grid)
    hist = tmp_path / "hist.csv"
    hist.write_text("gamma,k,coeff\n" + "".join(f"{g},{k},{math.cos(g * k) / k!r}\n"
                                                 for g in np.linspace(-1.0, 0.0, 9).tolist()
                                                 for k in range(1, K + 1)))
    try:
        assert main(["simulate", "--run.solver", solver, "--history.file", str(hist), *argv,
                     "--run.out_dir", str(tmp_path / "out")]) == 0
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    dumps = argv[argv.index("--hybrid.z_dump_times") + 1].split() if solver == "hybrid" and (
        "--hybrid.z_dump_times" in argv) else []
    assert seen["grids"] == len(dumps)      # every dump's grid was made inside the span
    return seen["estimate"], seen["peak"]


@pytest.mark.parametrize("extra", [
    [],
    ["--hybrid.z_dump_times", "0.5 2.5"],
    ["--hybrid.nx", "20", "--hybrid.ns", "40", "--history.kind", "compatible",
     "--hybrid.z_dump_times", "0.5"],
    ["--hybrid.nx", "1000", "--hybrid.ns", "4", "--history.kind", "exp",
     "--history.profile", "1 2 3", "--hybrid.z_dump_times", "0.5"],
    ["--hybrid.nx", "50", "--hybrid.ns", "1500", "--model.modes", "240",
     "--history.kind", "compatible"],
    ["--hybrid.nx", "50", "--hybrid.ns", "1500", "--model.modes", "240", "--history.kind",
     "grid", "--history.interp_order", "3"],
    ["--model.modes", "399"],
    ["--model.modes", "399", "--hybrid.ns", "300", "--run.times", "0 10 20"],
], ids=["default", "dumps", "coarse", "fine-x", "wide-K", "cubic-grid", "all-bins",
        "all-bins-20-windows"])
def test_the_hybrid_memory_estimate_bounds_what_the_run_allocates(tmp_path, monkeypatch, extra):
    # the estimate _fits_in_memory checks is an upper bound of the traced peak of the solve,
    # history reads, the scan's blocks and the grids of the transport dumps included; the
    # estimate before the blocked scan was under it over 20 windows of all 399 bins (1.18 MB
    # against a 1.20 MB peak)
    estimate, peak = _estimate_and_traced_peak(tmp_path, monkeypatch, "hybrid", 240, extra)
    assert peak <= estimate, (peak, estimate)


@pytest.mark.parametrize("dt", ["0.001", "0.01"])
@pytest.mark.parametrize("K", [60, 240])
@pytest.mark.parametrize("extra", [
    [],
    ["--history.kind", "compatible"],
    ["--history.kind", "exp", "--history.profile", "1 2 3"],
    ["--history.kind", "grid"],
    ["--history.kind", "grid", "--history.interp_order", "3"],
], ids=["zero", "compatible", "exp", "grid-linear", "grid-cubic"])
def test_the_rk4_memory_estimate_bounds_what_the_run_allocates(tmp_path, monkeypatch, extra, K,
                                                               dt):
    # the estimate _fits_in_memory checks is an upper bound of the traced peak of the solve,
    # window 0's history reads included; the one it replaced was under it with every history
    # (2.69 MB against 3.70 MB for the compatible history at K = 60)
    estimate, peak = _estimate_and_traced_peak(tmp_path, monkeypatch, "rk4-modes", K, [
        "--model.modes", str(K), "--rk4.dt", dt, *extra])
    assert peak <= estimate, (peak, estimate)


_PICARD_HISTORIES = {"zero": [], "compatible": ["--history.kind", "compatible"],
                     "exp": ["--history.kind", "exp", "--history.profile", "1 2 3"]}
_PICARD_TIMES = {"T2.5": "0 0.5 1 1.5 2 2.5", "T20": "0 10 20"}


@pytest.mark.parametrize("extra, K, dt, times", [
    pytest.param(extra, K, dt, times, id=f"{name}-{K}-{dt}-{span}")
    for name, extra in _PICARD_HISTORIES.items() for K in (60, 240)
    for dt in ("0.015625", "0.0625") for span, times in _PICARD_TIMES.items()
] + [
    # L = 1000: every one of the 1000 modes is on the circles of _picard_weights
    pytest.param(["--model.length", "1000"], 1000, "0.125", _PICARD_TIMES["T2.5"],
                 id="zero-L1000-1000-0.125-T2.5"),
])
def test_the_picard_memory_estimate_bounds_what_the_run_allocates(tmp_path, monkeypatch, extra, K,
                                                                  dt, times):
    # the estimate _fits_in_memory checks is an upper bound of the traced peak of the solve; the
    # one before it, 10 (N, K) arrays, left out the circles of _picard_weights and was under it
    # at K = 60, T = 20, dt = 1/16 (1.66 MB against 1.54 MB); the circles, formed for every mode
    # at once, peaked at 10.3 MB of the L = 1000 case's 10.6 MB, which is now under 3 MB
    estimate, peak = _estimate_and_traced_peak(tmp_path, monkeypatch, "picard", K, [
        "--model.modes", str(K), "--picard.dt", dt, "--run.times", times, *extra])
    assert peak <= estimate, (peak, estimate)
    assert K < 1000 or peak <= 3e6, peak
