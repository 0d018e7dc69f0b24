"""Commands run end to end: one table row per command, checked by exit code, files and contents.

Each row runs `cli.main` in-process with `--run.out_dir` and checks the exit code, the exact set
of files the command leaves (None: no output directory at all) and, per file, a check that reads
it.  pytest turns every RuntimeWarning into an error (pyproject.toml), so a row also fails when
its command raises one.  To add a check, add a row; a check is a function of the file's path.
"""

import csv
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import pytest

from delayheat.cli import main

# a cubic grid history of three samples over [-tau, 0], written to hist.csv next to the output
HISTORY = "gamma,k,coeff\n-1,1,0.5\n-0.5,1,0.8\n0,1,1\n"
SIMULATE = ["manifest.json", "trace_coeffs.csv", "trace_grid.csv"]
VALIDATE = ["manifest.json", "validate_results.csv"]


def _cells(path):
    """The distinct cells of a CSV below its header row (no cell holds a comma or a quote)."""
    return set(",".join(path.read_text().splitlines()[1:]).split(","))


def _column(path, name):
    with open(path, newline="") as fh:
        return {row["check"]: float(row[name]) for row in csv.DictReader(fh)}


def _trace(path):
    """{t: the coefficient row at t} of a trace_coeffs.csv."""
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["t"], []).append(float(row["coeff"]))
    return rows


def finite(path):
    cells = _cells(path)
    assert cells and all(math.isfinite(float(cell)) for cell in cells)


def exact_17g(path):
    # each number is written as "%.17g" of its value, so it reads back to the same float
    assert {cell for cell in _cells(path) if cell != "%.17g" % float(cell)} == set()


def no_nan_or_inf(path):
    assert not re.search(r"\b(nan|inf|infinity)\b", path.read_text(), re.IGNORECASE)


def identity_rows_within_1e13(path):
    values = _column(path, "value")
    assert len(values) == 48 and max(values.values()) <= 1e-13, values


def hybrid_order_2(path):
    order = _column(path, "value")["hybrid convergence order"]
    assert 1.99 <= order <= 2.01, order


def failed_non_finite(path):
    manifest = json.loads(path.read_text())
    assert "non-finite" in manifest["error"] and manifest["outputs"] == [], manifest


def zero_at_both_ends(path):
    ends = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if float(row["x"]) in (0.0, 1.0):
                ends.setdefault(row["t"], []).append(float(row["value"]))
    assert len(ends) == 6 and all(v == [0.0, 0.0] for v in ends.values()), ends


def near_closed_form(*argv):
    """A check that each coefficient row is within 1e-6 relative L2 of the closed form's."""
    def check(path):
        ref = path.parent.parent / "closed-form"
        assert main(["simulate", *argv, "--run.out_dir", str(ref)]) == 0
        got, exact = _trace(path), _trace(ref / path.name)
        assert got.keys() == exact.keys()
        for t, row in exact.items():
            assert math.dist(got[t], row) / math.hypot(*row) <= 1e-6, t
    return check


def _rows(path, *columns):
    with open(path, newline="") as fh:
        return [tuple(row[c] for c in columns) for row in csv.DictReader(fh)]


def jump_table_layout(path):
    # one row per j = 0..4 and mode 1..3, j the outer loop
    assert _rows(path, "j", "mode") == [(str(j), str(k)) for j in range(5) for k in (1, 2, 3)]


def exp_jump_law(path):
    # the default exp history phi(gamma) = e^-gamma e_1 under the default point mass at 0.3 and
    # a = 1: the predicted jump at j tau is a^j (y0 - phi(0^-)), written as "%.17g" writes it
    jump_table_layout(path)
    from delayheat import EigenBasis, dirac_coeffs
    y0, phi0, a = dirac_coeffs(0.3, EigenBasis(1.0, 60)).coeffs, [1.0, 0.0, 0.0], 1.0
    assert [cell for (cell,) in _rows(path, "predicted")] == [
        "%.17g" % (a**j * (y0[k] - phi0[k])) for j in range(5) for k in range(3)]


def endpoint_layout(order):
    def check(path):
        # one row per instant "0", "tau", then order 0..r, then mode 1..2
        assert _rows(path, "t", "order", "mode") == [
            (t, str(k), str(mode)) for t in ("0", "tau") for k in range(order + 1)
            for mode in (1, 2)]
    return check


def cancellation_in_health(path):
    # the bench's negative-coupling op: the worst mode's figure at each instant, at most 2.2e-13
    figures = json.loads(path.read_text())["health"]["cancellation"]
    assert figures["t"] == [0.0, 5.0, 10.0, 20.0, 40.0, 60.0] and figures["mode"] == [1] * 6
    assert all(2.2e-16 <= f <= 2.3e-13 for f in figures["figure"]), figures


DENSE_TIMES = " ".join(str(i / 40) for i in range(101))

ROWS = [
    # id, argv, exit code, files left (None: no output directory), {file: check}
    ("identity-rows", ["validate", "--suite", "identity"], 0, VALIDATE,
     {"validate_results.csv": identity_rows_within_1e13}),
    ("hybrid-order", ["validate", "--suite", "hybrid"], 0, VALIDATE,
     {"validate_results.csv": hybrid_order_2}),
    # all 399 bins of the default mesh: several scan blocks per window
    ("hybrid-399-bins", ["simulate", "--run.solver", "hybrid", "--model.modes", "399"], 0,
     SIMULATE, {"trace_coeffs.csv": finite, "trace_grid.csv": finite}),
    ("closed-form-30-windows", ["simulate", "--history.kind", "compatible",
                                "--run.times", "0 0.5 1 2.5 30"], 0, SIMULATE, {}),
    ("cubic-grid-history", ["simulate", "--history.kind", "grid", "--history.interp_order", "3",
                            "--history.file", "{tmp}/hist.csv"], 0, SIMULATE, {}),
    ("picard-compatible", ["simulate", "--run.solver", "picard", "--history.kind", "compatible"],
     0, SIMULATE, {"trace_coeffs.csv": near_closed_form("--history.kind", "compatible")}),
    ("picard-3-windows", ["simulate", "--run.solver", "picard", "--run.times", "0 2.5 5 7.5"], 0,
     SIMULATE, {"trace_coeffs.csv": near_closed_form("--run.times", "0 2.5 5 7.5")}),
    ("rk4-60-windows-negative-a", ["simulate", "--run.solver", "rk4-modes", "--model.coupling",
                                   "-1", "--run.times", "0 20 40 60"], 0, SIMULATE, {}),
    ("hybrid-dumps", ["simulate", "--run.solver", "hybrid", "--hybrid.z_dump_times", "0.5 2.5"],
     0, [*SIMULATE, "transport_t0.5.csv", "transport_t2.5.csv"],
     {name: exact_17g for name in ("trace_coeffs.csv", "trace_grid.csv", "transport_t0.5.csv",
                                   "transport_t2.5.csv")}),
    # 0.25 reaches into the compatible history and 1.5 past it
    ("hybrid-dumps-compatible", ["simulate", "--run.solver", "hybrid", "--history.kind",
                                 "compatible", "--hybrid.z_dump_times", "0.25 1.5"], 0,
     [*SIMULATE, "transport_t0.25.csv", "transport_t1.5.csv"], {}),
    # K = 60 folds onto nx = 20
    ("hybrid-coarse-mesh", ["simulate", "--run.solver", "hybrid", "--hybrid.nx", "20",
                            "--hybrid.ns", "40", "--history.kind", "compatible",
                            "--hybrid.z_dump_times", "0.5"], 0,
     [*SIMULATE, "transport_t0.5.csv"], {}),
    # the delay line's base row walks 20 rows
    ("hybrid-20-windows", ["simulate", "--run.solver", "hybrid", "--history.kind", "compatible",
                           "--run.times", "0 10 20", "--hybrid.z_dump_times", "0.25 19.5"], 0,
     [*SIMULATE, "transport_t0.25.csv", "transport_t19.5.csv"], {}),
    ("dense-trace", ["simulate", "--model.modes", "240", "--run.nx", "1200",
                     "--run.times", DENSE_TIMES], 0, SIMULATE,
     {"trace_coeffs.csv": exact_17g, "trace_grid.csv": exact_17g}),
    ("grid-240-modes", ["simulate", "--model.modes", "240", "--run.nx", "1200"], 0, SIMULATE,
     {"trace_grid.csv": zero_at_both_ends}),
    ("diagnose-compatible", ["diagnose", "--order", "2", "--history.kind", "compatible"], 0,
     ["compatibility.txt", "endpoint_jumps.csv", "jump_table.csv", "manifest.json"],
     {name: no_nan_or_inf for name in ("compatibility.txt", "endpoint_jumps.csv",
                                       "jump_table.csv", "manifest.json")}),
    ("diagnose-order-64", ["diagnose", "--order", "64"], 0,
     ["compatibility.txt", "jump_table.csv", "manifest.json"],
     {name: no_nan_or_inf for name in ("compatibility.txt", "jump_table.csv", "manifest.json")}),
    # the CSV rows are formed from the diagnostics' arrays as they are written
    ("diagnose-zero", ["diagnose"], 0, ["compatibility.txt", "jump_table.csv", "manifest.json"],
     {"jump_table.csv": jump_table_layout}),
    ("diagnose-exp", ["diagnose", "--order", "1", "--history.kind", "exp"], 0,
     ["compatibility.txt", "endpoint_jumps.csv", "jump_table.csv", "manifest.json"],
     {"jump_table.csv": exp_jump_law, "endpoint_jumps.csv": endpoint_layout(1)}),
    ("closed-form-negative-coupling", ["simulate", "--model.coupling", "-1",
                                       "--run.times", "0 5 10 20 40 60"], 0, SIMULATE,
     {"manifest.json": cancellation_in_health}),
    # the series cancels to 1.9e-10 at t = 20 and 5.1e-3 at t = 40: refused, no CSV
    ("closed-form-cancels", ["simulate", "--model.length", "10", "--model.coupling", "-2",
                             "--run.times", "0 20 40 60"], 1, None, {}),
    # the quadrature of `project` resolves 227 modes on L = 1: K = 1000 wrote a t = 0 row 0.566
    # off a field whose maximum is 0.25
    ("polynomial-past-its-quadrature", ["simulate", "--initial.kind", "polynomial",
                                        "--model.modes", "1000", "--run.times", "0"], 2, None, {}),
    ("closed-form-overflow", ["simulate", "--model.coupling", "1e300"], 1, ["manifest.json"],
     {"manifest.json": failed_non_finite}),
    ("hybrid-dump-off-grid", ["simulate", "--run.solver", "hybrid",
                              "--hybrid.z_dump_times", "0.5001"], 2, None, {}),
    ("hybrid-dump-past-horizon", ["simulate", "--run.solver", "hybrid",
                                  "--hybrid.z_dump_times", "0.5 5"], 2, None, {}),
    ("rk4-time-off-grid", ["simulate", "--run.solver", "rk4-modes", "--run.times", "0.3004"], 2,
     None, {}),
    ("hybrid-time-off-grid", ["simulate", "--run.solver", "hybrid", "--run.times", "0.3001"], 2,
     None, {}),
]


@pytest.mark.parametrize("argv, code, files, checks", [pytest.param(*row, id=name)
                                                       for name, *row in ROWS])
def test_command(tmp_path, monkeypatch, argv, code, files, checks):
    monkeypatch.delenv("DELAY_HEAT_OUT", raising=False)
    (tmp_path / "hist.csv").write_text(HISTORY)
    out = tmp_path / "out"
    assert main([arg.format(tmp=tmp_path) for arg in argv] + ["--run.out_dir", str(out)]) == code
    if files is None:
        assert not out.exists()
        return
    assert sorted(p.name for p in out.iterdir()) == sorted(files)
    for name, check in checks.items():
        check(out / name)


def test_the_bench_tracer_patches_every_target_and_restores_it(monkeypatch):
    # `bench/run.py --trace 1` replaces each function `tracer.targets()` names by a timing
    # wrapper; a name the package renamed or removed would stop every traced run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)     # bench/ is read, never written
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr, _, _ in tracer.targets()]
    patches = tracer.Tracer()
    try:
        patches.install()
        assert [attr for owner, attr, fn in originals if getattr(owner, attr) is fn] == []
    finally:
        patches.uninstall()
    assert [attr for owner, attr, fn in originals if getattr(owner, attr) is not fn] == []
