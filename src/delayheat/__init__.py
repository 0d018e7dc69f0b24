"""Spectral solvers and diagnostics for the 1-D Dirichlet heat equation with a time delay."""

from .basis import (EigenBasis, QuadratureRule, SpectralField, dirac_coeffs, hs_norm, project,
                    semigroup_apply)
from .diagnostics import (CompatibilityReport, RegularityEstimate, compatibility_check,
                          endpoint_jump_scan, lattice_jump_report, off_lattice_probe,
                          regularity_scan)
from .errors import (InvalidArgumentError, NonFiniteOutputError, TruncationExceededError,
                     UndefinedEstimateError, UnsupportedConfigurationError)
from .flow import (ExpModeHistory, FlowParams, GridHistory, SolutionTrace,
                   characteristic_root, compatible_history, delayed_exp, derivative_jump,
                   flow_apply, history_convolution, picard_solve, right_limit_derivative,
                   solve, solve_trace)
from .refsolvers import (HybridTrace, MeshParams, ModeDDEConfig, ModeTrace, hybrid_simulate,
                         rk4_dde_mode)

__version__ = "0.1.0"

__all__ = [
    "EigenBasis", "SpectralField", "QuadratureRule", "project", "semigroup_apply", "hs_norm",
    "dirac_coeffs",
    "FlowParams", "ExpModeHistory", "GridHistory", "SolutionTrace",
    "delayed_exp", "flow_apply", "history_convolution", "solve", "solve_trace",
    "right_limit_derivative", "derivative_jump", "picard_solve", "characteristic_root",
    "compatible_history",
    "ModeDDEConfig", "ModeTrace", "rk4_dde_mode", "MeshParams", "HybridTrace",
    "hybrid_simulate",
    "RegularityEstimate", "regularity_scan",
    "lattice_jump_report", "off_lattice_probe", "CompatibilityReport", "compatibility_check",
    "endpoint_jump_scan",
    "InvalidArgumentError", "TruncationExceededError", "UndefinedEstimateError",
    "UnsupportedConfigurationError", "NonFiniteOutputError",
]
