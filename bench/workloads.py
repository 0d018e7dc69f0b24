"""The benchmark's workloads: operation lists for ``delayheat.cli.main`` and their seeded inputs.

Every operation is an argv list for the ``delay-heat`` CLI plus what the
benchmark knows about its answer.  The CLI defaults the references rely on are
a point mass at x0 = 0.3 on (0, 1), K = 60 modes and a = tau = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

X0, LENGTH, TAU = 0.3, 1.0, 1.0
DEFAULT_TIMES = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
DENSE_TIMES = tuple(round(0.05 * i, 10) for i in range(101))   # 101 instants on [0, 5]
GRID_SAMPLES = 33


@dataclass(frozen=True)
class Op:
    """One CLI call.  `reference` names the exact history model ("zero" or
    "compatible") when one exists; otherwise `no_reference` says why not."""

    name: str
    argv: tuple[str, ...]
    command: str                       # simulate | figure6 | diagnose | validate
    times: tuple[float, ...] = DEFAULT_TIMES
    modes: int = 60
    coupling: float = 1.0
    nx: int = 300
    solver: str = "closed-form"
    reference: str | None = None
    no_reference: str = ""
    files: tuple[str, ...] = ()


def _simulate(name, *flags, times=DEFAULT_TIMES, modes=60, coupling=1.0, nx=300,
              solver="closed-form", reference=None, no_reference=""):
    argv = ["simulate", *flags]
    if times != DEFAULT_TIMES:
        argv += ["--run.times", " ".join(repr(t) for t in times)]
    return Op(name, tuple(argv), "simulate", times, modes, coupling, nx, solver, reference,
              no_reference, ("trace_coeffs.csv", "trace_grid.csv"))


WHY = {
    "closed-form": "spectral path: series kernel, history convolution, basis and CSV writers, "
                   "no refsolvers; one short CLI call per op, so import cost matters most",
    "oracles": "independent solvers at CLI defaults: RK4 step loop, hybrid delay-line shift "
               "and Picard forcing dominate, the closed-form series barely runs",
    "validate": "validate --suite all: tens of thousands of scalar delayed_exp calls, small K, "
                "long Picard series and small hybrid meshes; shows per-call overhead",
}


def make_inputs(seed: int, in_dir: Path) -> dict:
    """Write the seeded input files and return the seeded values (for the record)."""
    rng = np.random.default_rng(seed)
    in_dir.mkdir(parents=True, exist_ok=True)
    K = 60
    k = np.arange(1, K + 1)
    # smooth in gamma, decaying like k^-2 across modes
    amp = rng.standard_normal(K) / k**2
    freq = rng.uniform(0.5, 4.0, K)
    phase = rng.uniform(0.0, 2.0 * np.pi, K)
    gammas = np.linspace(-TAU, 0.0, GRID_SAMPLES)
    grid_path = in_dir / "grid_history.csv"
    with open(grid_path, "w") as fh:
        fh.write("gamma,k,coeff\n")
        for g in gammas:
            for kk, c in zip(k, amp * np.cos(freq * g + phase)):
                fh.write(f"{float(g)!r},{kk},{float(c)!r}\n")
    profile = [float(v) for v in rng.standard_normal(8) / np.arange(1, 9)]
    rate = float(rng.uniform(-2.0, 0.5))
    return {"seed": seed, "grid_file": str(grid_path), "exp_profile": profile, "exp_rate": rate}


def operations(workload: str, inputs: dict) -> list[Op]:
    if workload == "closed-form":
        grid = ("--history.kind", "grid", "--history.file", inputs["grid_file"])
        no_ref = "no exact reference for a {} history"
        return [
            _simulate("zero", reference="zero"),
            _simulate("compatible", "--history.kind", "compatible", reference="compatible"),
            _simulate("exp", "--history.kind", "exp",
                      "--history.profile", " ".join(repr(v) for v in inputs["exp_profile"]),
                      "--history.rate", repr(inputs["exp_rate"]), no_reference=no_ref.format("exp")),
            _simulate("grid-linear", *grid, "--history.interp_order", "1",
                      no_reference=no_ref.format("grid")),
            _simulate("grid-cubic", *grid, "--history.interp_order", "3",
                      no_reference=no_ref.format("grid")),
            _simulate("dense-zero", times=DENSE_TIMES, reference="zero"),
            _simulate("dense-compatible", "--history.kind", "compatible", times=DENSE_TIMES,
                      reference="compatible"),
            _simulate("negative-coupling", "--model.coupling", "-1",
                      times=(0.0, 5.0, 10.0, 20.0, 40.0, 60.0), coupling=-1.0, reference="zero"),
            _simulate("modes-240", "--model.modes", "240", "--run.nx", "1200",
                      "--history.kind", "compatible", modes=240, nx=1200, reference="compatible"),
            Op("figure6", ("figure6",), "figure6", no_reference="writes no coefficient trace",
               files=("figure6_data.csv", "plot_figure6.py")),
            Op("diagnose", ("diagnose", "--order", "2", "--history.kind", "compatible"), "diagnose",
               no_reference="writes no coefficient trace",
               files=("compatibility.txt", "jump_table.csv", "endpoint_jumps.csv")),
        ]
    if workload == "oracles":
        return [
            _simulate("rk4-modes", "--run.solver", "rk4-modes", solver="rk4-modes",
                      reference="zero"),
            _simulate("hybrid", "--run.solver", "hybrid", solver="hybrid", reference="zero"),
            _simulate("picard-zero", "--run.solver", "picard", solver="picard", reference="zero"),
            _simulate("picard-compatible", "--run.solver", "picard",
                      "--history.kind", "compatible", solver="picard", reference="compatible"),
        ]
    if workload == "validate":
        return [Op("validate-all", ("validate", "--suite", "all"), "validate",
                   no_reference="checks carry their own thresholds",
                   files=("validate_results.csv",))]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = tuple(WHY)
