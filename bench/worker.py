"""Run one workload's operations through ``delayheat.cli.main`` in this process.

Started by run.py as ``python3 bench/worker.py <plan.json>``.  Imports
delayheat from ``src/`` of the current directory, runs one untimed warm-up pass,
then timed passes until the next one would overrun the measuring time.  With
tracing on, untraced and traced passes alternate, so the run also yields the
tracing overhead.  Writes a JSON result file named in the plan.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": os.path.basename(lib), "threads": fn()}
    return None


def fingerprints(out_dir: Path) -> dict:
    """sha256 of every file an operation wrote, except the manifest (it holds wall time)."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file() and p.name != "manifest.json"}


def run_pass(cli, ops) -> tuple[float, list]:
    for op in ops:
        shutil.rmtree(op["out_dir"], ignore_errors=True)
    results = []
    sink = io.StringIO()
    t_pass = time.perf_counter()
    for op in ops:
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(op["argv"])
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                rc, err = None, io.StringIO(f"raised {type(exc).__name__}: {exc}")
        results.append({"rc": rc, "seconds": time.perf_counter() - t0,
                        "stderr": err.getvalue()[-500:]})
        sink.seek(0)
        sink.truncate()
    return time.perf_counter() - t_pass, results


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    os.environ.pop("DELAY_HEAT_OUT", None)   # it would override every op's out_dir

    t0 = time.perf_counter()
    import delayheat.cli as cli
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"delayheat was imported from {cli.__file__}, not from {src}")

    import numpy
    import scipy

    ops = plan["ops"]
    for op in ops:
        op["argv"] = list(op["argv"]) + ["--run.out_dir", op["out_dir"]]

    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()

    warm_s, _ = run_pass(cli, ops)
    passes = []
    pass_bounds = []
    min_passes = 1 if tracer is None else 2          # with tracing: one of each kind
    last = {False: warm_s, True: warm_s}             # latest untraced / traced pass time
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            first = len(tracer.spans)
        try:
            wall, results = run_pass(cli, ops)
        finally:
            if traced:
                tracer.uninstall()
        record = {"traced": traced, "wall_s": wall, "ops": results,
                  "files": [fingerprints(Path(op["out_dir"])) if Path(op["out_dir"]).is_dir()
                            else {} for op in ops]}
        if traced:
            record["layers"] = tracer.summarize(first, len(tracer.spans))
            record["counters"] = dict(tracer.counters)
            tracer.counters.clear()
            pass_bounds.append((len(passes), first, len(tracer.spans)))
        passes.append(record)
        last[traced] = wall
        next_traced = tracer is not None and len(passes) % 2 == 1
        elapsed = time.perf_counter() - t_start
        if len(passes) >= min_passes and elapsed + last[next_traced] > plan["seconds"]:
            break

    if tracer is not None:
        tracer.write_spans(plan["spans_file"], pass_bounds)
    result = {
        "import_s": import_s,
        "warmup_s": warm_s,
        "measure_s": time.perf_counter() - t_start,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "blas": blas_threads(),
    }
    Path(plan["result_file"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
