"""Spectral solvers and diagnostics for the 1-D Dirichlet heat equation with a time delay."""

import time
from importlib import import_module

_import_started = time.perf_counter()       # cli records the seconds since as phases.import_s

from .basis import (EigenBasis, QuadratureRule, SpectralField, dirac_coeffs, hs_norm, project,
                    semigroup_apply)
from .errors import (InvalidArgumentError, NonFiniteOutputError, TruncationExceededError,
                     UndefinedEstimateError, UnsupportedConfigurationError)
from .flow import (ExpModeHistory, FlowParams, GridHistory, SolutionTrace,
                   characteristic_root, compatible_history, delayed_exp, derivative_jump,
                   flow_apply, history_convolution, picard_solve, right_limit_derivative,
                   solve, solve_trace)

__version__ = "0.1.0"

# public name -> its submodule, imported on first access so that the cold path skips both
_LAZY = (dict.fromkeys(("ModeDDEConfig", "ModeTrace", "rk4_dde_mode", "MeshParams", "HybridTrace",
                        "hybrid_simulate"), "refsolvers")
         | dict.fromkeys(("RegularityEstimate", "regularity_scan", "lattice_jump_report",
                          "off_lattice_probe", "CompatibilityReport", "compatibility_check",
                          "endpoint_jump_scan"), "diagnostics"))

__all__ = [
    "EigenBasis", "SpectralField", "QuadratureRule", "project", "semigroup_apply", "hs_norm",
    "dirac_coeffs",
    "FlowParams", "ExpModeHistory", "GridHistory", "SolutionTrace",
    "delayed_exp", "flow_apply", "history_convolution", "solve", "solve_trace",
    "right_limit_derivative", "derivative_jump", "picard_solve", "characteristic_root",
    "compatible_history",
    *_LAZY,
    "InvalidArgumentError", "TruncationExceededError", "UndefinedEstimateError",
    "UnsupportedConfigurationError", "NonFiniteOutputError",
]


def __getattr__(name):  # PEP 562: only names not yet in this module's namespace get here
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(f".{_LAZY[name]}", __name__), name))


def __dir__():
    return sorted({*globals(), *_LAZY})
