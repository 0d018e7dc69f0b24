"""Experiment runner: config-driven subcommands writing CSV traces and reports.

Subcommands
    simulate   solve with the chosen solver and dump coefficient + grid traces
    figure6    lattice-derivative panels for point-mass data, plus a plot script
    validate   run a named verification suite, exit 0 only if every check passes
    diagnose   endpoint compatibility report and lattice jump table

`simulate` looks `run.solver` up in `_SOLVERS` before it builds anything.  Each entry takes
(cfg, basis, params, y0, phi, times, T) and returns the sample times, their coefficient rows,
the manifest's `health` figures and {transport file: `write_transport_dump_csv` arguments}.
The closed form is evaluated at the requested instants themselves; each stepping solver first
checks that its arrays, whose size the config fixes, fit in physical memory, then checks the
instants against its grid, so the checks are timed in the `solve_s` phase and a grid too large or
a rejected instant exits 2 before any grid is made or the output directory exists.

Configuration is a flat "key = value" file with sections; every option can be
overridden on the command line as ``--section.key value``; a section or key
that DEFAULT_CONFIG does not name is rejected.  The environment
variable DELAY_HEAT_OUT overrides the output directory.  Every command checks that
directory before it builds anything (a path that is or lies below a file exits 2)
and makes it only once its computation has finished.  Exit codes: 0 success,
1 numerical failure or any error a solver raises, 2 configuration error.

Importing this module loads only numpy, `basis`, `flow`, `io` and `errors`; the
rk4-modes and hybrid solvers load `refsolvers`, `diagnose` loads `diagnostics`, and
`validate` and `figure6` load `validate`.  The manifest's phases.import_s, the seconds from
the start of `import delayheat` to the end of this import, is one value per process.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, _import_started, io as dio
from .basis import (EigenBasis, SpectralField, _grid_index, _step_count, _step_grid, dirac_coeffs,
                    project)
from .errors import InvalidArgumentError, NonFiniteOutputError
from .flow import (ExpModeHistory, FlowParams, GridHistory, compatible_history, picard_solve,
                   solve_trace)

DEFAULT_CONFIG = {
    "model": {"length": "1.0", "modes": "60", "tau": "1.0", "coupling": "1.0", "j_max": "128"},
    "initial": {"kind": "dirac", "x0": "0.3", "modes": "1.0", "poly": "0.0 1.0 -1.0"},
    "history": {"kind": "zero", "rate": "-1.0", "profile": "1.0", "file": "", "interp_order": "1"},
    "run": {"solver": "closed-form", "times": "0.0 0.5 1.0 1.5 2.0 2.5",
            "out_dir": "out", "nx": "300"},
    "picard": {"dt": "0.015625"},
    "hybrid": {"nx": "400", "ns": "800", "z_dump_times": ""},
    "rk4": {"dt": "0.001"},
}


def load_config(path: str | None, overrides: list[tuple[str, str]]) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    cfg.read_dict(DEFAULT_CONFIG)
    if path:
        if not Path(path).is_file():
            raise InvalidArgumentError(f"config file not found: {path}")
        cfg.read(path)
    for key, value in overrides:
        if "." not in key:
            raise InvalidArgumentError(f"override {key!r} must look like section.key")
        section, option = key.split(".", 1)
        if not cfg.has_section(section):
            cfg.add_section(section)
        try:
            cfg.set(section, option, value)
        except ValueError as exc:       # the interpolation rejects a stray '%'
            raise InvalidArgumentError(f"{key}: {exc}") from None
    for section in cfg.sections():
        if section not in DEFAULT_CONFIG:
            raise InvalidArgumentError(f"unknown config section [{section}]")
        unknown = sorted(set(cfg[section]) - set(DEFAULT_CONFIG[section]))
        if unknown:
            raise InvalidArgumentError(f"unknown config key {section}.{unknown[0]}")
    return cfg


def _floats(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse float list from {text!r}") from exc
    if not np.isfinite(values).all():
        raise InvalidArgumentError(f"non-finite value in float list {text!r}")
    return values


def _num(cfg, key: str, kind=float):
    """The config value "section.key" as `kind`; text that does not parse raises naming the key."""
    try:
        return kind(cfg.get(*key.split(".")))
    except ValueError as exc:
        raise InvalidArgumentError(f"{key}: {exc}") from None


def build_model(cfg) -> tuple[EigenBasis, FlowParams]:
    basis = EigenBasis(_num(cfg, "model.length"), _num(cfg, "model.modes", int))
    params = FlowParams(a=_num(cfg, "model.coupling"), tau=_num(cfg, "model.tau"),
                        j_max=_num(cfg, "model.j_max", int))
    return basis, params


def build_initial(cfg, basis: EigenBasis) -> SpectralField:
    sec = cfg["initial"]
    kind = sec.get("kind")
    if kind == "dirac":
        return dirac_coeffs(_num(cfg, "initial.x0"), basis)
    if kind == "modes":
        return SpectralField.from_modes(basis, _floats(sec.get("modes")))
    if kind == "polynomial":
        coefs = _floats(sec.get("poly"))

        def poly(x):
            return sum(c * x**p for p, c in enumerate(coefs))

        return project(poly, basis)
    raise InvalidArgumentError(f"unknown initial kind {kind!r}")


def build_history(cfg, basis: EigenBasis, params: FlowParams, y0: SpectralField):
    sec = cfg["history"]
    kind = sec.get("kind")
    if kind == "zero":
        return None
    if kind == "exp":
        return ExpModeHistory(SpectralField.from_modes(basis, _floats(sec.get("profile"))),
                              _num(cfg, "history.rate"))
    if kind == "compatible":
        return compatible_history(y0, params)
    if kind == "grid":
        path = sec.get("file")
        if not path:
            raise InvalidArgumentError("history kind 'grid' needs history.file")
        try:
            times, rows = dio.read_grid_history_csv(path, basis)
        except (OSError, UnicodeDecodeError) as exc:    # missing, a directory, not text
            raise InvalidArgumentError(f"history.file: cannot read {path}: "
                                       f"{getattr(exc, 'strerror', None) or exc}") from None
        phi = GridHistory(times, rows, basis, _num(cfg, "history.interp_order", int))
        phi.pieces(params.tau)      # rejects samples that do not span [-tau, 0]
        return phi
    raise InvalidArgumentError(f"unknown history kind {kind!r}")


def _run_times(cfg) -> list[float]:
    """The run.times instants in increasing order; none, or one named twice, raises."""
    times = sorted(_floats(cfg["run"].get("times")))
    if not times:
        raise InvalidArgumentError("run.times must name at least one instant")
    if len(set(times)) < len(times):
        raise InvalidArgumentError("run.times names an instant twice: trace times must be "
                                   "strictly increasing")
    return times


class Manifest:
    def __init__(self, command: str, cfg):
        self.data = {
            "command": command,
            "config": {s: dict(cfg[s]) for s in cfg.sections()},
            "versions": {"delayheat": __version__, "python": platform.python_version(),
                         "numpy": np.__version__},
            "outputs": [],
            "phases": {"import_s": _IMPORT_S},
        }
        self._t0 = self._mark = time.perf_counter()

    def phase(self, name: str):
        """Record the seconds since the previous mark as phases[name + "_s"]."""
        now = time.perf_counter()
        self.data["phases"][f"{name}_s"] = round(now - self._mark, 6)
        self._mark = now

    def add(self, path: Path, rows: int):
        self.data["outputs"].append({"file": path.name, "rows": rows})

    def write(self, out_dir: Path) -> Path:
        self.data["wall_seconds"] = round(time.perf_counter() - self._t0, 6)
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n")
        return path


def _out_dir(cfg) -> Path:
    """The output directory, checked before any work; each command makes it only on success."""
    path = Path(os.environ.get("DELAY_HEAT_OUT") or cfg["run"].get("out_dir"))
    existing = next(p for p in (path, *path.parents) if p.exists())    # "." or "/" at the latest
    if not existing.is_dir():
        raise InvalidArgumentError(
            f"run.out_dir: cannot make {path}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise InvalidArgumentError(f"run.out_dir: cannot make {path}: {existing} is not writable")
    return path


# ---------------------------------------------------------------------------
# subcommands


def _samples(grid: np.ndarray, times: list[float], solver: str) -> list[int]:
    """`_grid_index` of each requested instant; two instants on one grid sample raise."""
    idx = _grid_index(grid, times, "run.times", solver)
    for t0, t1, i0, i1 in zip(times, times[1:], idx, idx[1:]):
        if i0 == i1:
            raise InvalidArgumentError(f"run.times: t = {t0!r} and t = {t1!r} both fall on the "
                                       f"{solver} sample {grid[i0].item()!r}")
    return idx


def _physical_memory() -> float:
    """Bytes of physical memory, from os.sysconf; inf where the platform does not report it."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return float("inf")


def _fits_in_memory(key: str, n_bytes: int) -> None:
    """InvalidArgumentError naming `key` when a stepping solver's arrays would not fit."""
    available = _physical_memory()
    if n_bytes > available:
        raise InvalidArgumentError(f"{key}: the stepping grid needs {n_bytes:.4g} bytes of arrays, "
                                   f"more than the {available:.4g} bytes of physical memory")


def _closed_form(cfg, basis, params, y0, phi, times, T):
    trace = solve_trace(y0, phi, times, params)
    return trace.times, trace.coeffs, {}, {}


def _picard(cfg, basis, params, y0, phi, times, T):
    dt = _num(cfg, "picard.dt")
    n_steps = _step_count(params.tau, dt, T, min_sub=4)[1]
    _fits_in_memory("picard.dt", 8 * 10 * (n_steps + 1) * basis.K)  # about 10 (N, K) arrays live
    idx = _samples(_step_grid(params.tau, dt, T, min_sub=4)[1], times, "picard")
    trace = picard_solve(y0, phi, T, dt, params)
    health = {"h": float(trace.times[1]), "residuals": trace.residuals.tolist()}
    return trace.times[idx], trace.coeffs[idx], health, {}


def _rk4_modes(cfg, basis, params, y0, phi, times, T):
    from . import refsolvers as rs
    mode_cfg = rs.ModeDDEConfig(lam=basis.eigenvalues(), a=params.a, tau=params.tau,
                                dt=_num(cfg, "rk4.dt"), y0=y0.coeffs,
                                history=None if phi is None else phi.coeffs)
    n_sub, n_steps = _step_count(mode_cfg.tau, mode_cfg.dt, T)
    # the trace and the times, a window of slopes, one of scratch and one of history nodes
    _fits_in_memory("rk4.dt", 8 * (basis.K + 1) * (n_steps + 1 + 3 * (n_sub + 1)))
    idx = _samples(_step_grid(mode_cfg.tau, mode_cfg.dt, T)[1], times, "rk4-modes")
    trace = rs.rk4_dde_mode(mode_cfg, T)
    return trace.times[idx], trace.values[idx], {"h": float(trace.times[1])}, {}


def _hybrid(cfg, basis, params, y0, phi, times, T):
    from . import refsolvers as rs
    mesh = rs.MeshParams(_num(cfg, "hybrid.nx", int), _num(cfg, "hybrid.ns", int))
    z_times = sorted(_floats(cfg["hybrid"].get("z_dump_times")))
    n_steps = _step_count(params.tau, params.tau / mesh.ns, T)[1]
    # the delay line, and the spectral and grid rows of every sample and dumped delay line
    rows = -(-n_steps // mesh.ns) + mesh.ns + 1 + 2 * (len(times) + len(z_times) * (mesh.ns + 1))
    _fits_in_memory("hybrid.nx, hybrid.ns", 8 * ((mesh.nx + 1) * rows + n_steps + 1))
    grid = _step_grid(params.tau, params.tau / mesh.ns, T)[1]
    out_times, h = grid[_samples(grid, times, "hybrid")], float(grid[1])
    dumps = {}      # transport file name -> (requested t, grid index)
    for t, i in zip(z_times, _grid_index(grid, z_times, "hybrid.z_dump_times", "hybrid")):
        name = f"transport_t{grid[i]:g}.csv"
        if name in dumps:
            raise InvalidArgumentError(f"hybrid.z_dump_times: t = {dumps[name][0]!r} and "
                                       f"t = {t!r} would both be written to {name}")
        dumps[name] = (t, i)
    xs = np.linspace(0.0, basis.L, mesh.nx + 1)
    trace = rs.hybrid_simulate(y0.coeffs, None if phi is None else phi.coeffs, mesh, T,
                               params.a, params.tau, basis.L, sample_times=tuple(out_times),
                               z_sample_times=tuple(z_times))
    rows = trace.values @ ((xs[1] - xs[0]) * basis.eval_matrix(xs))  # trapezoid; 0 at both ends
    dumps = {name: (float(trace.times[i]), trace.s, xs, trace.z_snapshots[t])
             for name, (t, i) in dumps.items()}
    return out_times, rows, {"h": h, "r": h / (basis.L / mesh.nx) ** 2}, dumps


_SOLVERS = {"closed-form": _closed_form, "picard": _picard, "rk4-modes": _rk4_modes,
            "hybrid": _hybrid}


def cmd_simulate(cfg, args) -> int:
    manifest = Manifest("simulate", cfg)
    solver = cfg["run"].get("solver")
    if solver not in _SOLVERS:      # before any history file is read
        raise InvalidArgumentError(f"unknown solver {solver!r}")
    out = _out_dir(cfg)
    basis, params = build_model(cfg)
    y0 = build_initial(cfg, basis)
    phi = build_history(cfg, basis, params, y0)
    times = _run_times(cfg)
    nx = _num(cfg, "run.nx", int)
    xs = basis.mesh(nx)         # rejects nx < 1 before the output directory exists
    T = max(max(times), params.tau)     # the stepping solvers' horizon
    manifest.phase("build")

    out_times, rows, health, dumps = _SOLVERS[solver](cfg, basis, params, y0, phi, times, T)
    health["snap_max_offset"] = float(np.max(np.abs(out_times - np.asarray(times))))
    manifest.data["health"] = health
    manifest.phase("solve")
    out.mkdir(parents=True, exist_ok=True)      # only once every requested instant is accepted
    bad = ~np.isfinite(rows)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        msg = (f"{solver} produced {int(bad.sum())} non-finite coefficients, the first at "
               f"t={out_times[i]:g}, k={k + 1}")
        manifest.data["error"] = msg
        manifest.write(out)
        raise NonFiniteOutputError(msg)
    for name, dump in dumps.items():
        manifest.add(out / name, dio.write_transport_dump_csv(*dump, out / name))
    coeff_path = out / "trace_coeffs.csv"
    manifest.add(coeff_path, dio.write_coeff_trace_csv(out_times, rows, coeff_path))
    grid_vals = rows @ basis.eval_matrix(xs).T
    grid_path = out / "trace_grid.csv"
    manifest.add(grid_path, dio.write_grid_trace_csv(out_times, xs, grid_vals, grid_path))
    manifest.phase("write")
    manifest.write(out)
    print(f"wrote {coeff_path} and {grid_path}")
    return 0


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render the derivative panels from figure6_data.csv (one subplot per instant).\"\"\"
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

panels = defaultdict(list)
with open("figure6_data.csv", newline="") as fh:
    for row in csv.DictReader(fh):
        panels[float(row["t"])].append((float(row["x"]), float(row["value"])))

times = sorted(panels)
fig, axes = plt.subplots(2, (len(times) + 1) // 2, figsize=(4 * ((len(times) + 1) // 2), 6))
for ax, t in zip(axes.ravel(), times):
    xy = sorted(panels[t])
    ax.plot([p[0] for p in xy], [p[1] for p in xy], color="tab:blue")
    ax.set_title(f"t = {t:g}")
    ax.set_xlabel("x")
fig.tight_layout()
fig.savefig("figure6.png", dpi=150)
print("wrote figure6.png")
"""


def cmd_figure6(cfg, args) -> int:
    from .validate import figure_panels
    out = _out_dir(cfg)
    basis, params = build_model(cfg)
    if cfg["initial"].get("kind") != "dirac":
        raise InvalidArgumentError("figure6 needs point-mass initial data (initial.kind = dirac)")
    if cfg["history"].get("kind") != "zero":
        raise InvalidArgumentError("figure6 is defined for zero history only")
    times = _run_times(cfg)
    manifest = Manifest("figure6", cfg)
    xs, panels = figure_panels(times, _num(cfg, "initial.x0"), basis.K, _num(cfg, "run.nx", int),
                               basis.L, params)
    values = np.stack([panels[t] for t in times])
    bad = ~np.isfinite(values)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise NonFiniteOutputError(f"figure6 produced {int(bad.sum())} non-finite values, the "
                                   f"first at t={times[i]:g}, x={xs[k]:g}")
    out.mkdir(parents=True, exist_ok=True)      # only once every panel is computed and finite
    data_path = out / "figure6_data.csv"
    manifest.add(data_path, dio.write_grid_trace_csv(np.asarray(times), xs, values, data_path))
    script_path = out / "plot_figure6.py"
    script_path.write_text(_PLOT_SCRIPT)
    manifest.add(script_path, len(_PLOT_SCRIPT.splitlines()))
    manifest.write(out)
    print(f"wrote {data_path} and {script_path}")
    return 0


def cmd_validate(cfg, args) -> int:
    from .validate import run_suite
    out = _out_dir(cfg)
    results = run_suite(args.suite)     # an unknown suite raises InvalidArgumentError: exit 2
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest("validate", cfg)
    manifest.data["phases"].update((f"{res.suite}_s", round(res.seconds, 6)) for res in results)
    lines = []
    for res in results:
        for row in res.rows:
            status = "PASS" if row.passed else "FAIL"
            print(f"[{status}] {res.suite} :: {row.name} (value={row.value:.6g}, "
                  f"threshold={row.threshold:.6g}) {row.detail}")
            lines.append((res.suite, row.name, status, row.value, row.threshold, row.detail))
        print(f"suite {res.suite}: {len(res.rows)} checks in {res.seconds:.3f} s")
    table_path = out / "validate_results.csv"
    manifest.add(table_path, dio._write_rows(
        table_path, ["suite", "check", "status", "value", "threshold", "detail"], lines))
    manifest.write(out)
    ok = all(res.passed for res in results)
    print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


def cmd_diagnose(cfg, args) -> int:
    from .diagnostics import compatibility_check, endpoint_jump_scan, lattice_jump_report
    out = _out_dir(cfg)
    basis, params = build_model(cfg)
    y0 = build_initial(cfg, basis)
    phi = build_history(cfg, basis, params, y0)
    manifest = Manifest("diagnose", cfg)
    report = compatibility_check(y0, phi, params, r=args.order)
    rows = lattice_jump_report(y0, params, j_max=max(4, args.order))
    scan = None if phi is None else endpoint_jump_scan(
        y0, phi, params, r=args.order, modes=tuple(range(1, min(2, basis.K) + 1)))
    out.mkdir(parents=True, exist_ok=True)      # only once every report is computed
    kv = {
        "r": report.r,
        "flag_endpoint_regularity": report.flag_endpoint_regularity,
        "flag_g_regularity": report.flag_g_regularity,
        "flag_matching": report.flag_matching,
        "tol": report.tol,
    }
    for k, v in enumerate(report.violations):
        kv[f"violation_{k}"] = float(v)
    compat_path = out / "compatibility.txt"
    manifest.add(compat_path, dio.write_keyvalue(kv, compat_path))
    jump_path = out / "jump_table.csv"
    manifest.add(jump_path, dio._write_rows(
        jump_path, ["j", "predicted_norm", "measured_norm", "rel_error"],
        ((str(r.j), r.predicted_norm, r.measured_norm, r.rel_error) for r in rows)))
    if scan is not None:
        scan_path = out / "endpoint_jumps.csv"
        manifest.add(scan_path, dio._write_rows(
            scan_path, ["t", "order", "mode", "left", "right", "gap", "rel_gap"],
            ((r.t_label, str(r.order), str(r.mode), r.left, r.right, r.gap, r.rel_gap)
             for r in scan)))
    manifest.write(out)
    print(f"wrote {compat_path} and {jump_path}")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="delay-heat",
        description="Delayed heat equation: solvers, experiments and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "figure6", "diagnose", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value config file with sections")
        if name == "diagnose":
            p.add_argument("--order", type=int, default=1, help="compatibility order r")
        if name == "validate":
            p.add_argument("--suite", default="all", help="a suite, or all; an unknown name lists them")
    return parser


def _parse(argv):
    args, extra = _parser().parse_known_args(argv)
    overrides = []
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--") or i + 1 >= len(extra):
            raise InvalidArgumentError(f"cannot parse override {tok!r}; use --section.key value")
        overrides.append((tok[2:], extra[i + 1]))
        i += 2
    return args, overrides


_COMMANDS = {
    "simulate": cmd_simulate,
    "figure6": cmd_figure6,
    "validate": cmd_validate,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    try:
        args, overrides = _parse(argv if argv is not None else sys.argv[1:])
        cfg = load_config(args.config, overrides)
        return _COMMANDS[args.command](cfg, args)
    except NonFiniteOutputError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (InvalidArgumentError, configparser.Error) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse exits with 2 on bad usage
        return int(exc.code) if exc.code is not None else 2
    except Exception as exc:  # noqa: BLE001 - numerical failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


_IMPORT_S = round(time.perf_counter() - _import_started, 6)    # this module's import ends here

if __name__ == "__main__":
    entry()
