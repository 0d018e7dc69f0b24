"""Spectral solvers and diagnostics for the 1-D Dirichlet heat equation with a time delay."""

import time
from importlib import import_module

_import_started = time.perf_counter()       # cli records the seconds since as phases.import_s

from .basis import EigenBasis, SpectralField, dirac_coeffs, project, semigroup_apply
from .errors import InvalidArgumentError, NonFiniteOutputError, TruncationExceededError
from .flow import (ExpModeHistory, FlowParams, GridHistory, SolutionTrace, characteristic_root,
                   compatible_history, delayed_exp, flow_derivative_factors, history_convolution,
                   picard_solve, solve_trace)

__version__ = "0.1.0"

# public name -> its submodule, imported on first access so that the cold path skips both
_LAZY = (dict.fromkeys(("ModeDDEConfig", "ModeTrace", "rk4_dde_mode", "MeshParams", "HybridTrace",
                        "hybrid_simulate"), "refsolvers")
         | dict.fromkeys(("lattice_jump_report", "CompatibilityReport", "compatibility_check",
                          "endpoint_jump_scan"), "diagnostics"))

__all__ = [
    "EigenBasis", "SpectralField", "project", "semigroup_apply", "dirac_coeffs",
    "FlowParams", "ExpModeHistory", "GridHistory", "SolutionTrace",
    "delayed_exp", "flow_derivative_factors", "history_convolution", "solve_trace",
    "picard_solve", "characteristic_root", "compatible_history",
    *_LAZY,
    "InvalidArgumentError", "TruncationExceededError", "NonFiniteOutputError",
]


def __getattr__(name):  # PEP 562: only names not yet in this module's namespace get here
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(f".{_LAZY[name]}", __name__), name))


def __dir__():
    return sorted({*globals(), *_LAZY})
