"""End-to-end and per-layer benchmark of the delay-heat CLI.

Run from the repository root:

    python3 bench/run.py --workload closed-form --seed 1 --seconds 25 --trace 0

Workloads: closed-form, oracles, validate (see workloads.py).  With --trace 0
it prints the end-to-end metrics; with --trace 1 the per-layer metrics from
traced passes.  Either way the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}, and a full run record
(inputs, machine, versions, per-op errors and output sha256) is written to
.bench_out/<workload>/.

The package is imported from ./src; a worker process runs the operations one
at a time with BLAS limited to one thread.  Exact references come from
reference.py (mpmath, no delayheat) and are computed outside the timed passes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

import reference
from workloads import LENGTH, TAU, WHY, WORKLOADS, X0, make_inputs, operations

DEADLINE_S = 170.0
SETUP_RUNS = 5
EXACT_TOL = 1e-10     # closed form with zero history is exact up to rounding
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "max_rel_err": "1", "ok_ratio": "1", "peak_rss_mb": "MB",
}
SUITES = ("per-mode", "picard", "hybrid", "identity", "jumps", "compatibility")
PER_LAYER = {
    "cli.import_s": "s", "cli.build_s": "s", "cli.self_s": "s", "cli.snapped_times": "count",
    "flow.solve_trace.calls": "count", "flow.solve_trace.self_s": "s",
    "flow.history_convolution.calls": "count", "flow.history_convolution.self_s": "s",
    "flow.history_evals": "count", "flow.series_terms": "count",
    "flow.picard_solve.calls": "count", "flow.picard_solve.self_s": "s",
    "flow.delayed_exp.calls": "count", "flow.delayed_exp.self_s": "s",
    "flow.flow_derivative_factors.calls": "count", "flow.flow_derivative_factors.self_s": "s",
    "flow.compatible_history.self_s": "s",
    "refsolvers.rk4_dde_mode.calls": "count", "refsolvers.rk4_dde_mode.self_s": "s",
    "refsolvers.rk4_dde_mode.steps": "count", "refsolvers.rk4_dde_mode.steps_per_s": "1/s",
    "refsolvers.rk4_dde_mode.nonfinite": "count",
    "refsolvers.hybrid_simulate.self_s": "s", "refsolvers.hybrid_simulate.steps": "count",
    "refsolvers.hybrid_simulate.cell_updates_per_s": "1/s",
    "refsolvers.hybrid_simulate.bytes_computed": "B",
    "diagnostics.compatibility_check.self_s": "s",
    "diagnostics.endpoint_jump_scan.self_s": "s",
    "diagnostics.lattice_jump_report.self_s": "s",
    **{f"validate.{s}.self_s": "s" for s in SUITES},
    "validate.checks": "count", "validate.checks_failed": "count",
    "io.write.calls": "count", "io.write.self_s": "s", "io.write.rows": "count",
    "io.write.bytes": "B", "io.read_grid_history_csv.self_s": "s",
    "basis.eval_matrix.calls": "count", "basis.eval_matrix.self_s": "s",
    "basis.project.self_s": "s",
    "trace.wall_s": "s", "trace.self_sum_s": "s", "trace.remainder_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("DELAY_HEAT_OUT", None)
    return env


def remaining(t0: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - t0)
    if left <= 5.0:
        raise BenchError("out of time")
    return left


def measure_setup(env: dict, t0: float) -> list[float]:
    """Cold `import delayheat.cli` in fresh interpreters, one at a time."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import delayheat.cli; print(repr(time.perf_counter() - t))")
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=min(60.0, remaining(t0)))
        if proc.returncode != 0:
            raise BenchError(f"cold import failed: {proc.stderr.strip()[-300:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(plan: dict, plan_path: Path, env: dict, t0: float) -> dict:
    plan_path.write_text(json.dumps(plan))
    log_path = plan_path.with_suffix(".log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("worker.py")),
                                 str(plan_path)], env=env, stdout=log, stderr=log)
        try:
            rc = proc.wait(timeout=remaining(t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker ran past the deadline") from None
    if rc != 0:
        raise BenchError(f"worker exited {rc}: {log_path.read_text()[-500:]}")
    return json.loads(Path(plan["result_file"]).read_text())


# ---------------------------------------------------------------------------
# output checks


def count_nonfinite(path: Path) -> int:
    """Cells of a CSV (or key = value file) that parse as nan or inf."""
    bad = 0
    with open(path, newline="") as fh:
        for row in csv.reader(fh, delimiter="," if path.suffix == ".csv" else "="):
            for cell in row:
                try:
                    bad += not math.isfinite(float(cell))
                except ValueError:
                    pass
    return bad


def read_trace(path: Path) -> dict[str, list[float]] | None:
    """Coefficient rows keyed by the t column as written; None if the header is wrong."""
    rows: dict[str, list[float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["t", "k", "coeff"]:
            return None
        for t, _k, c in reader:
            rows.setdefault(t, []).append(float(c))
    return rows


def check_op(op, out_dir: Path, refs: dict) -> dict:
    """Errors, structure, failures and snapping for one op's written files."""
    missing = [f for f in op.files if not (out_dir / f).is_file()]
    info = {"rel_err": None, "note": op.no_reference, "problems": [], "nonfinite": 0,
            "snapped_times": 0, "rows": None, "missing": missing}
    if missing:
        info["problems"].append(f"missing {missing}")
        return info
    info["nonfinite_by_file"] = {f: count_nonfinite(out_dir / f) for f in op.files
                                 if f.endswith((".csv", ".txt"))}
    info["nonfinite"] = sum(info["nonfinite_by_file"].values())
    if op.command == "validate":
        with open(out_dir / "validate_results.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        if not rows or not {"suite", "check", "status", "value"} <= set(reader.fieldnames):
            info["problems"].append("no check rows")
            return info
        info["rows"] = len(rows)
        info["check_rows"] = rows
        return info
    if op.command != "simulate":
        return info
    trace = read_trace(out_dir / "trace_coeffs.csv")
    if trace is None:
        info["problems"].append("trace_coeffs.csv header is not t,k,coeff")
        return info
    info["rows"] = sum(len(v) for v in trace.values())
    wanted = sorted(op.times)
    if len(trace) != len(wanted) or any(len(v) != op.modes for v in trace.values()):
        info["problems"].append(f"trace shape {len(trace)} x {[len(v) for v in trace.values()][:1]}")
        return info
    with open(out_dir / "trace_grid.csv") as fh:
        grid_rows = sum(1 for _ in fh) - 1
    if grid_rows != len(wanted) * (op.nx + 1):
        info["problems"].append(f"trace_grid has {grid_rows} rows")
    written = [float(t) for t in trace]
    info["snapped_times"] = sum(w != r for w, r in zip(written, wanted))
    if op.reference is None:
        return info
    if info["nonfinite"]:
        info["note"] = "non-finite output, no error formed"
        return info
    key = (op.reference, op.modes, op.coupling)
    if key not in refs:
        refs[key] = reference.PointMassReference(op.reference, X0, op.modes, LENGTH,
                                                 op.coupling, TAU)
    errs = {t: reference.rel_l2_error(v, refs[key].row(float(t))) for t, v in trace.items()}
    worst = max(errs, key=errs.get)
    info.update(rel_err=errs[worst], worst_t=float(worst), note="")
    if op.solver == "closed-form" and op.reference == "zero" and errs[worst] > EXACT_TOL:
        info["problems"].append(f"zero-history closed form off by {errs[worst]:.3g}")
    return info


def op_failures(op, info: dict, rc) -> tuple[int, int]:
    """(attempted, failed) for one op in one pass."""
    if op.command == "validate":
        if rc not in (0, 1) or info["rows"] is None:
            return 1, 1
        bad = sum(r["status"] != "PASS" or not math.isfinite(float(r["value"]))
                  for r in info["check_rows"])
        return info["rows"], bad
    return 1, int(rc != 0 or info["nonfinite"] > 0 or bool(info["missing"]))


# ---------------------------------------------------------------------------
# run record


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "platform": platform.platform()}


def source_identity(root: Path) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    lines = {}
    for path in sorted((root / "src" / "delayheat").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.stem] = data.count(b"\n")
    return {"git_commit": commit or "unavailable (not a git checkout)",
            "src_sha256": digest.hexdigest(), "src_lines": lines,
            "src_lines_total": sum(lines.values())}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_metrics(rec: dict, import_s: float, snapped: int) -> dict:
    spans, counters = rec["layers"], rec["counters"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    m = {"cli.import_s": import_s, "cli.build_s": self_s("cli.build"),
         "cli.self_s": self_s("cli.main"), "cli.snapped_times": snapped}
    for name in ("flow.solve_trace", "flow.history_convolution", "flow.picard_solve",
                 "flow.delayed_exp", "flow.flow_derivative_factors", "refsolvers.rk4_dde_mode",
                 "io.write", "basis.eval_matrix"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("flow.compatible_history", "refsolvers.hybrid_simulate",
                 "diagnostics.compatibility_check", "diagnostics.endpoint_jump_scan",
                 "diagnostics.lattice_jump_report", "io.read_grid_history_csv", "basis.project",
                 *(f"validate.{s}" for s in SUITES)):
        m[f"{name}.self_s"] = self_s(name)
    for name in ("flow.history_evals", "flow.series_terms", "refsolvers.rk4_dde_mode.steps",
                 "refsolvers.rk4_dde_mode.nonfinite", "refsolvers.hybrid_simulate.steps",
                 "refsolvers.hybrid_simulate.bytes_computed", "validate.checks",
                 "validate.checks_failed", "io.write.rows", "io.write.bytes"):
        m[name] = counters.get(name, 0)
    rk4_s, hyb_s = m["refsolvers.rk4_dde_mode.self_s"], m["refsolvers.hybrid_simulate.self_s"]
    m["refsolvers.rk4_dde_mode.steps_per_s"] = (
        m["refsolvers.rk4_dde_mode.steps"] / rk4_s if rk4_s > 0 else 0.0)
    m["refsolvers.hybrid_simulate.cell_updates_per_s"] = (
        counters.get("refsolvers.hybrid_simulate.cell_updates", 0) / hyb_s if hyb_s > 0 else 0.0)
    self_sum = sum(s["self_s"] for s in spans.values())
    m["trace.wall_s"] = rec["wall_s"]
    m["trace.self_sum_s"] = self_sum
    m["trace.remainder_s"] = rec["wall_s"] - self_sum
    return m


# ---------------------------------------------------------------------------


def bench(args, root: Path, t0: float) -> tuple[dict, dict]:
    out = Path(".bench_out") / args.workload
    out.mkdir(parents=True, exist_ok=True)
    inputs = make_inputs(args.seed, out / "inputs")
    ops = operations(args.workload, inputs)
    env = child_env()
    setup = None if args.trace else measure_setup(env, t0)

    tag = f"seed{args.seed}-trace{args.trace}"
    plan = {
        "seconds": args.seconds, "trace": bool(args.trace),
        "ops": [{"argv": list(op.argv), "out_dir": str(out / "ops" / op.name)} for op in ops],
        "result_file": str(out / f"worker-{tag}.json"),
        "spans_file": str(out / f"spans-{tag}.csv.gz"),
    }
    res = run_worker(plan, out / f"plan-{tag}.json", env, t0)
    passes = res["passes"]

    # --- correctness and accuracy, from the files of the last pass --------
    problems = reference.self_check()
    refs: dict = {}
    infos = [check_op(op, out / "ops" / op.name, refs) for op in ops]
    for i, op in enumerate(ops):
        prints = {json.dumps(p["files"][i], sort_keys=True) for p in passes}
        if len(prints) != 1:
            problems.append(f"{op.name}: outputs differ between passes")
        rcs = {p["ops"][i]["rc"] for p in passes}
        if rcs == {0} and infos[i]["problems"]:
            problems += [f"{op.name}: {msg}" for msg in infos[i]["problems"]]

    attempted = failed = 0
    for p in passes:
        for op, info, r in zip(ops, infos, p["ops"]):
            a, f = op_failures(op, info, r["rc"])
            attempted += a
            failed += f

    if args.workload == "validate":
        rows = infos[0].get("check_rows") or []
        rk4 = [float(r["value"]) for r in rows
               if r["suite"] == "per-mode" and r["check"].startswith("rk4")]
        max_rel_err = max(rk4) if rk4 else None
    else:
        errs = [i["rel_err"] for i in infos if i["rel_err"] is not None]
        max_rel_err = max(errs) if errs else None
    if max_rel_err is None or not math.isfinite(max_rel_err):
        raise BenchError("no relative error could be formed")

    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    traced = [p["wall_s"] for p in passes if p["traced"]]
    q1, wall, q3 = quartiles(untraced)
    snapped = sum(i["snapped_times"] for i in infos)
    metrics = {}
    if args.trace:
        per_pass = [layer_metrics(p, res["import_s"], snapped) for p in passes if p["traced"]]
        for name in PER_LAYER:
            if name != "trace.overhead_s":
                metrics[name] = statistics.median(m[name] for m in per_pass)
        metrics["trace.overhead_s"] = statistics.median(traced) - wall
    else:
        metrics = {"setup_s": statistics.median(setup), "wall_s": wall,
                   "max_rel_err": max_rel_err, "ok_ratio": (attempted - failed) / attempted,
                   "peak_rss_mb": res["peak_rss_mb"]}
    units = PER_LAYER if args.trace else END_TO_END

    record = {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "inputs": inputs,
        "machine": machine(),
        "versions": {**res["versions"], "mpmath": mpmath.__version__},
        "blas": res["blas"], "source": source_identity(root),
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "setup_samples_s": setup, "worker_import_s": res["import_s"],
        "warmup_s": res["warmup_s"],
        "wall_s": {"median": wall, "q1": q1, "q3": q3, "passes": len(untraced),
                   "samples": untraced},
        "traced_wall_s": traced,
        "tracing_overhead_s": (statistics.median(traced) - wall) if traced
        else "measured by the --trace 1 run",
        "max_rel_err_source": ("largest closed-form vs RK4 relative error in the per-mode "
                               "suite's rows (reported by the program)"
                               if args.workload == "validate" else
                               "benchmark's exact reference at the t values the CSV reports"),
        "ops": [{"name": op.name, "argv": list(op.argv),
                 "median_s": statistics.median(p["ops"][i]["seconds"] for p in passes
                                               if not p["traced"]),
                 "rc": sorted({str(p["ops"][i]["rc"]) for p in passes}),
                 "stderr": passes[-1]["ops"][i]["stderr"],
                 "files_sha256": passes[-1]["files"][i],
                 **{k: v for k, v in infos[i].items() if k != "check_rows"}}
                for i, op in enumerate(ops)],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (out / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record, {"correct": not problems, "attempted": attempted, "failed": failed,
                    "metrics": record["metrics"]}


def report(record: dict):
    w = record["wall_s"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{w['passes']} untraced + {len(record['traced_wall_s'])} traced timed passes "
          f"after one warm-up ({record['warmup_s']:.3f} s)")
    for name, m in record["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.8g} {m['unit']}")
    print(f"  wall_s quartiles: q1 {w['q1']:.4f} s, median {w['median']:.4f} s, "
          f"q3 {w['q3']:.4f} s over {w['passes']} passes")
    print(f"  fail_ratio {record['fail_ratio']:.6g} ({record['failed']} of {record['attempted']} "
          f"operations failed)")
    for op in record["ops"]:
        err = f"{op['rel_err']:.3e}" if op["rel_err"] is not None else f"n/a ({op['note']})"
        print(f"    {op['name']:<20} {op['median_s']:8.4f} s  rc={','.join(op['rc'])}  "
              f"nonfinite={op['nonfinite']}  rel_err={err}")
    for msg in record["problems"]:
        print(f"  PROBLEM: {msg}")


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "delayheat" / "__init__.py").is_file():
        print("error: run from the repository root; src/delayheat is missing", file=sys.stderr)
        return 2
    try:
        record, result = bench(args, root, t0)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(record)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
