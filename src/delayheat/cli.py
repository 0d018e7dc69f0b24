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
a rejected instant exits 2 before any grid is made or the output directory exists.  The rows of
`trace_grid.csv` are the coefficient rows on the mesh by `EigenBasis.on_mesh`, for every solver,
formed and checked finite within `solve_s`: a non-finite coefficient or grid value exits 1.

Configuration is a flat "key = value" file with sections; every option can be
overridden on the command line as ``--section.key value``; a section or key
that DEFAULT_CONFIG does not name is rejected.  The environment
variable DELAY_HEAT_OUT overrides the output directory.  Exit codes: 0 success,
1 numerical failure or any error a solver raises, 2 configuration error.

`main` makes the `Manifest` and checks the output directory (a path that is or lies below a
file, or sits in a directory it cannot write, exits 2) before `cmd_<name>(cfg, args, manifest)`
builds, solves and checks, records its phases and returns ({file name: writer(path) -> rows},
exit status).  Then `main` makes the directory, calls each writer, records `write_s`, writes
`manifest.json` and prints one `wrote` line.  A command that raises leaves no directory, unless
it recorded a `NonFiniteOutputError` under the manifest's `error`: that manifest is kept alone.

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
from .basis import (_BLOCK, EigenBasis, SpectralField, _grid_index, _step_count, _step_grid,
                    dirac_coeffs, project)
from .errors import InvalidArgumentError, NonFiniteOutputError, TruncationExceededError
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

    def phase(self, name: str, seconds: float | None = None):
        """Record `seconds`, by default those since the last mark, as phases[name + "_s"]."""
        now = time.perf_counter()
        seconds = now - self._mark if seconds is None else seconds
        self.data["phases"][f"{name}_s"] = round(seconds, 6)
        self._mark = now

    def write(self, out_dir: Path) -> Path:
        self.data["wall_seconds"] = round(time.perf_counter() - self._t0, 6)
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n")
        return path


def _out_dir(cfg) -> Path:
    """The output directory, checked before any work; `main` makes it only after the command."""
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


def _finite(values, source: str, noun: str, times, key: str, labels, manifest=None) -> None:
    """NonFiniteOutputError naming the count of non-finite `values` and the (t, key) of the
    first; the message also goes under the `error` of `manifest`, if one is given."""
    bad = ~np.isfinite(values)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        msg = (f"{source} produced {int(bad.sum())} non-finite {noun}, the first at "
               f"t={times[i]:g}, {key}={labels[k]:g}")
        if manifest is not None:
            manifest.data["error"] = msg
        raise NonFiniteOutputError(msg)


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
    # the trace and the times, 64 rows of per-mode arrays and iterator buffers, a window of
    # slopes, one of scratch and two of scan temporaries; with a history, window 0's reads
    # instead: the nodes, the midpoints and up to 3 temporaries of a read
    _fits_in_memory("rk4.dt", 8 * (basis.K + 1) * (
        n_steps + 65 + (4 + 3 * (phi is not None)) * (n_sub + 1)))
    idx = _samples(_step_grid(mode_cfg.tau, mode_cfg.dt, T)[1], times, "rk4-modes")
    trace = rs.rk4_dde_mode(mode_cfg, T)
    return trace.times[idx], trace.values[idx], {"h": float(trace.times[1])}, {}


def _hybrid(cfg, basis, params, y0, phi, times, T):
    from . import refsolvers as rs
    mesh = rs.MeshParams(_num(cfg, "hybrid.nx", int), _num(cfg, "hybrid.ns", int))
    z_times = sorted(_floats(cfg["hybrid"].get("z_dump_times")))
    n_steps = _step_count(params.tau, params.tau / mesh.ns, T)[1]
    rows, dumped = -(-n_steps // mesh.ns) + mesh.ns + 1, len(z_times) * (mesh.ns + 1)
    # the step times; min(K, nx - 1) bins wide, the delay line and twice the rows of a scan
    # block for its temporaries and iterator buffers; K wide, the coefficient rows and 8 per
    # history row read; nx + 1 wide, the bins and grid rows kept and a block of transform buffers
    _fits_in_memory("hybrid.nx, hybrid.ns", 8 * (
        n_steps + 1 + (rows + 2 * rs._SCAN_ROWS) * min(basis.K, mesh.nx - 1)
        + (8 * (mesh.ns + 1) * (phi is not None) + len(times)) * basis.K
        + (2 * (len(times) + dumped) + 8 * min(dumped, _BLOCK)) * (mesh.nx + 1)))
    grid = _step_grid(params.tau, params.tau / mesh.ns, T)[1]
    out_times, h = grid[_samples(grid, times, "hybrid")], float(grid[1])
    dumps = {}      # transport file name -> (requested t, grid index)
    for t, i in zip(z_times, _grid_index(grid, z_times, "hybrid.z_dump_times", "hybrid")):
        name = f"transport_t{grid[i]:g}.csv"
        if name in dumps:
            raise InvalidArgumentError(f"hybrid.z_dump_times: t = {dumps[name][0]!r} and "
                                       f"t = {t!r} would both be written to {name}")
        dumps[name] = (t, i)
    trace = rs.hybrid_simulate(y0.coeffs, None if phi is None else phi.coeffs, mesh, T,
                               params.a, params.tau, basis.L, sample_times=tuple(out_times),
                               z_sample_times=tuple(z_times))
    dumps = {name: (float(trace.times[i]), trace.s, basis.mesh(mesh.nx), trace.z_snapshots[t])
             for name, (t, i) in dumps.items()}
    health = {"h": h, "r": h / (basis.L / mesh.nx) ** 2,
              "unresolved_modes": max(0, basis.K - mesh.nx + 1)}     # written as 0
    return out_times, trace.coeffs, health, dumps


_SOLVERS = {"closed-form": _closed_form, "picard": _picard, "rk4-modes": _rk4_modes,
            "hybrid": _hybrid}


def cmd_simulate(cfg, args, manifest: Manifest) -> tuple[dict, int]:
    solver = cfg["run"].get("solver")
    if solver not in _SOLVERS:      # before any history file is read
        raise InvalidArgumentError(f"unknown solver {solver!r}")
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
    grid = basis.on_mesh(rows, nx)
    manifest.phase("solve")
    _finite(rows, solver, "coefficients", out_times, "k", range(1, basis.K + 1), manifest)
    _finite(grid, solver, "grid values", out_times, "x", xs, manifest)
    files = {name: lambda path, dump=dump: dio.write_transport_dump_csv(*dump, path)
             for name, dump in dumps.items()}
    files["trace_coeffs.csv"] = lambda path: dio.write_coeff_trace_csv(out_times, rows, path)
    files["trace_grid.csv"] = lambda path: dio.write_grid_trace_csv(out_times, xs, grid, path)
    return files, 0


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


def _write_plot_script(path: Path) -> int:
    path.write_text(_PLOT_SCRIPT)
    return len(_PLOT_SCRIPT.splitlines())


def cmd_figure6(cfg, args, manifest: Manifest) -> tuple[dict, int]:
    from .validate import figure_panels
    basis, params = build_model(cfg)
    if cfg["initial"].get("kind") != "dirac":
        raise InvalidArgumentError("figure6 needs point-mass initial data (initial.kind = dirac)")
    if cfg["history"].get("kind") != "zero":
        raise InvalidArgumentError("figure6 is defined for zero history only")
    times = _run_times(cfg)
    manifest.phase("build")
    xs, panels = figure_panels(times, _num(cfg, "initial.x0"), basis.K, _num(cfg, "run.nx", int),
                               basis.L, params)
    values = np.stack([panels[t] for t in times])
    manifest.phase("solve")
    _finite(values, "figure6", "values", times, "x", xs)
    return {"figure6_data.csv": lambda path: dio.write_grid_trace_csv(
        np.asarray(times), xs, values, path), "plot_figure6.py": _write_plot_script}, 0


def cmd_validate(cfg, args, manifest: Manifest) -> tuple[dict, int]:
    from .validate import run_suite
    results = run_suite(args.suite)     # an unknown suite raises InvalidArgumentError: exit 2
    lines = []
    for res in results:
        manifest.phase(res.suite, res.seconds)
        for row in res.rows:
            status = "PASS" if row.passed else "FAIL"
            print(f"[{status}] {res.suite} :: {row.name} (value={row.value:.6g}, "
                  f"threshold={row.threshold:.6g}) {row.detail}")
            lines.append((res.suite, row.name, status, row.value, row.threshold, row.detail))
        print(f"suite {res.suite}: {len(res.rows)} checks in {res.seconds:.3f} s")
    ok = all(res.passed for res in results)
    print("all checks passed" if ok else "some checks FAILED")
    return {"validate_results.csv": lambda path: dio._write_rows(
        path, ["suite", "check", "status", "value", "threshold", "detail"], lines)}, 0 if ok else 1


def cmd_diagnose(cfg, args, manifest: Manifest) -> tuple[dict, int]:
    from .diagnostics import compatibility_check, endpoint_jump_scan, lattice_jump_report
    basis, params = build_model(cfg)
    y0 = build_initial(cfg, basis)
    phi = build_history(cfg, basis, params, y0)
    manifest.phase("build")
    report = compatibility_check(y0, phi, params, r=args.order)
    modes = tuple(range(1, min(3, basis.K) + 1))
    with np.errstate(over="ignore", invalid="ignore"):      # checked finite below
        jumps = lattice_jump_report(y0, phi, params, j_max=min(4, params.j_max), modes=modes)
        scan = None if phi is None else endpoint_jump_scan(y0, phi, params, r=args.order,
                                                           modes=modes[:2])
    manifest.phase("solve")
    # one row per instant j tau: per mode (predicted, measured, rel_error), and per order and
    # mode (left, right, gap, rel_gap)
    _finite(np.reshape([row[2:] for row in jumps], (-1, 3 * len(modes))), "diagnose",
            "jump table cells", params.tau * np.arange(len(jumps) // len(modes)), "mode",
            np.repeat(modes, 3), manifest)
    if scan is not None:
        _finite(np.reshape([(r.left, r.right, r.gap, r.rel_gap) for r in scan], (2, -1)),
                "diagnose", "endpoint scan cells", (0.0, params.tau), "mode",
                np.tile(np.repeat(modes[:2], 4), args.order + 1), manifest)
    manifest.data["jump_table"] = ("j <= min(4, model.j_max): orders past 4 are not tabulated, "
                                   "because the k + 5 point stencils lose the jump law there")
    kv = {name: getattr(report, name) for name in ("r", "flag_endpoint_regularity",
                                                   "flag_g_regularity", "flag_matching", "tol")}
    kv.update((f"violation_{k}", float(v)) for k, v in enumerate(report.violations))
    files = {
        "compatibility.txt": lambda path: dio.write_keyvalue(kv, path),
        "jump_table.csv": lambda path: dio._write_rows(
            path, ["j", "mode", "predicted", "measured", "rel_error"],
            ((str(j), str(mode), *values) for j, mode, *values in jumps)),
    }
    if scan is not None:
        files["endpoint_jumps.csv"] = lambda path: dio._write_rows(
            path, ["t", "order", "mode", "left", "right", "gap", "rel_gap"],
            ((r.t_label, str(r.order), str(r.mode), r.left, r.right, r.gap, r.rel_gap)
             for r in scan))
    return files, 0


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
        manifest = Manifest(args.command, cfg)
        out = _out_dir(cfg)
        try:
            files, status = _COMMANDS[args.command](cfg, args, manifest)
        except NonFiniteOutputError:
            if "error" in manifest.data:    # the manifest that explains the failure is kept
                out.mkdir(parents=True, exist_ok=True)
                manifest.write(out)
            raise
        out.mkdir(parents=True, exist_ok=True)
        for name, write in files.items():
            manifest.data["outputs"].append({"file": name, "rows": write(out / name)})
        manifest.phase("write")
        manifest.write(out)
        *head, last = (str(out / name) for name in files)
        print(f"wrote {', '.join(head)} and {last}" if head else f"wrote {last}")
        return status
    except NonFiniteOutputError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except TruncationExceededError as exc:      # a limit of the series, not a bug
        print(f"truncation limit: {exc}", file=sys.stderr)
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
