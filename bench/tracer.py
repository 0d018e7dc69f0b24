"""Spans and counters around delayheat's public functions, installed from outside.

Each target function is replaced by a wrapper everywhere a caller looks it up:
the defining module, every ``delayheat`` module that bound the name with
``from .x import name``, and module-level dicts that hold it (the suite table
in ``delayheat.validate``).  A span records (name, start, end, parent); a
layer's self time is its span time minus the time of its child spans.  Spans
stay in memory until the run ends.  ``uninstall`` restores every original, so
untraced passes run the unmodified code.
"""

from __future__ import annotations

import gzip
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# --- hooks: counters derived from a call's arguments and result -------------

def _series_terms(params_index):
    """Count floor(t/tau) + 1 series terms per kernel call, from its (lams, t, ...) arguments."""
    def hook(counters, args, kwargs):
        t, params = _arg(args, kwargs, 1, "t"), _arg(args, kwargs, params_index, "params")
        counters["flow.series_terms"] += math.floor(t / params.tau + 1e-12) + 1
    return hook


def _history_eval(counters, args, kwargs):
    counters["flow.history_evals"] += 1


def _rk4_done(counters, args, kwargs, trace):
    counters["refsolvers.rk4_dde_mode.steps"] += len(trace.times) - 1
    counters["refsolvers.rk4_dde_mode.nonfinite"] += int(np.count_nonzero(~np.isfinite(trace.values)))


def _hybrid_done(counters, args, kwargs, trace):
    mesh = _arg(args, kwargs, 2, "mesh")
    steps = len(trace.times) - 1
    delay_cells = mesh.ns * (mesh.nx + 1)
    counters["refsolvers.hybrid_simulate.steps"] += steps
    counters["refsolvers.hybrid_simulate.cell_updates"] += steps * (delay_cells + mesh.nx - 1)
    # computed from array sizes, not measured: per step one read and one write
    # of the delay-line block and one written trace row, 8 bytes per value
    counters["refsolvers.hybrid_simulate.bytes_computed"] += steps * 8 * (2 * delay_cells + mesh.nx + 1)


def _rows_written(path_index, path_name):
    def hook(counters, args, kwargs, rows):
        counters["io.write.rows"] += rows
        counters["io.write.bytes"] += os.path.getsize(_arg(args, kwargs, path_index, path_name))
    return hook


def _suite_done(counters, args, kwargs, result):
    counters["validate.checks"] += len(result.rows)
    counters["validate.checks_failed"] += sum(not row.passed for row in result.rows)


# (span name or None for count-only, module, attribute, call hook, return hook)
def targets():
    import delayheat.basis as basis
    import delayheat.cli as cli
    import delayheat.diagnostics as diagnostics
    import delayheat.flow as flow
    import delayheat.io as dio
    import delayheat.refsolvers as refsolvers
    import delayheat.validate as validate

    out = [
        ("cli.main", cli, "main", None, None),
        ("cli.build", cli, "build_model", None, None),
        ("cli.build", cli, "build_initial", None, None),
        ("cli.build", cli, "build_history", None, None),
        ("flow.solve_trace", flow, "solve_trace", None, None),
        ("flow.history_convolution", flow, "history_convolution", None, None),
        ("flow.picard_solve", flow, "picard_solve", None, None),
        ("flow.delayed_exp", flow, "delayed_exp", None, None),
        ("flow.flow_derivative_factors", flow, "flow_derivative_factors",
         _series_terms(3), None),
        ("flow.compatible_history", flow, "compatible_history", None, None),
        (None, flow, "_delayed_exp_vec", _series_terms(2), None),
        (None, flow.ExpModeHistory, "coeffs", _history_eval, None),
        (None, flow.GridHistory, "coeffs", _history_eval, None),
        ("refsolvers.rk4_dde_mode", refsolvers, "rk4_dde_mode", None, _rk4_done),
        ("refsolvers.hybrid_simulate", refsolvers, "hybrid_simulate", None, _hybrid_done),
        ("io.write", dio, "_write_rows", None, _rows_written(0, "path")),
        ("io.write", dio, "write_keyvalue", None, _rows_written(1, "path")),
        ("io.read_grid_history_csv", dio, "read_grid_history_csv", None, None),
        ("basis.eval_matrix", basis.EigenBasis, "eval_matrix", None, None),
        ("basis.project", basis, "project", None, None),
    ]
    for name in ("compatibility_check", "endpoint_jump_scan", "lattice_jump_report"):
        out.append((f"diagnostics.{name}", diagnostics, name, None, None))
    for suite, fn in validate._SUITES.items():
        out.append((f"validate.{suite}", validate, fn.__name__, None, _suite_done))
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index) per span
        self.stack: list[int] = []
        self.counters: defaultdict = defaultdict(int)
        self._patches: list = []       # (container, key, original, is_dict)

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, on_call, on_return):
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(counters, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if on_return is not None:
                on_return(counters, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, on_call):
        counters = self.counters

        def wrapper(*args, **kwargs):
            on_call(counters, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "delayheat" or n.startswith("delayheat.")) and m is not None]
        for name, owner, attr, on_call, on_return in targets():
            original = getattr(owner, attr)
            wrapper = (self._span(name, original, on_call, on_return) if name
                       else self._counter(original, on_call))
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                value[dkey] = wrapper
                                self._patches.append((value, dkey, original, True))

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original, False))

    def uninstall(self):
        for container, key, original, is_dict in reversed(self._patches):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------

    def summarize(self, start: int, end: int) -> dict:
        """Per span name: calls, total and self seconds, over spans[start:end]."""
        seg = self.spans[start:end]
        child = [0.0] * len(seg)
        for name, t0, t1, parent in seg:
            if parent >= start:
                child[parent - start] += t1 - t0
        out: dict = {}
        for (name, t0, t1, parent), c in zip(seg, child):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - c
        return out

    def write_spans(self, path, pass_bounds: list[tuple[int, int, int]]):
        """Gzipped CSV: pass, index, name, start_ns, end_ns, parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("pass,index,name,start_ns,end_ns,parent\n")
            for pass_no, start, end in pass_bounds:
                for i in range(start, end):
                    name, t0, t1, parent = self.spans[i]
                    fh.write(f"{pass_no},{i},{name},{int(t0 * 1e9)},{int(t1 * 1e9)},{parent}\n")
