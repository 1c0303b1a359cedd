"""Explicit transport schemes on an interval with extrapolation outflow.

The package solves ``u_t + a u_x = 0`` (``a > 0``) with explicit two-level
stencils, homogeneous Dirichlet inflow, and order-``k_b`` extrapolation
outflow closures, and ships the analysis tools that justify them: moment and
symbol diagnostics, the summation-by-parts energy split, transition-matrix
spectra, and refinement studies.
"""
from .boundary import (BoundarySpec, backward_difference, fill_inflow_ghosts,
                       fill_outflow_ghosts)
from .energy import (BoundaryForm, QuadDecomposition, SymmetricForm,
                     amplification_expression, build_amplification_form,
                     decompose_zero_sum_form, dissipation_and_boundary_form,
                     verify_energy_balance)
from .rng import Xoshiro256StarStar
from .scheme import (BUILTIN_SCHEMES, ConsistencyReport, SchemeStencil,
                     StabilityResult, check_l2_stability, consistency_order,
                     format_stencil, make_builtin, parse_stencil, symbol)
from .solver import (CallableDatum, ConvergenceRow, ErrorReport,
                     FunctionalRatio, GridSpec, HalflineResult,
                     PowerPlusDatum, RunResult, consistency_error_field,
                     convergence_study, error_metrics, exact_solution,
                     initial_state, n_steps, reference_values,
                     run_halfline_outflow, run_interval,
                     stability_functional_ratio, step)
from .state import FieldState
from .spectral import (ConvergenceError, PseudospectrumGrid, SpectralReport,
                       TransitionMatrix, assemble_transition_matrix,
                       build_report, eigenvalue_path, eigenvalues,
                       operator_norm_l2,
                       power_norm_envelope, pseudospectrum_grid,
                       smallest_singular_value, spectral_radius)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_SCHEMES",
    "BoundaryForm",
    "BoundarySpec",
    "CallableDatum",
    "ConsistencyReport",
    "ConvergenceError",
    "ConvergenceRow",
    "ErrorReport",
    "FieldState",
    "FunctionalRatio",
    "GridSpec",
    "HalflineResult",
    "PowerPlusDatum",
    "PseudospectrumGrid",
    "QuadDecomposition",
    "RunResult",
    "SchemeStencil",
    "SpectralReport",
    "StabilityResult",
    "SymmetricForm",
    "TransitionMatrix",
    "Xoshiro256StarStar",
    "amplification_expression",
    "assemble_transition_matrix",
    "backward_difference",
    "build_amplification_form",
    "build_report",
    "check_l2_stability",
    "consistency_error_field",
    "consistency_order",
    "convergence_study",
    "decompose_zero_sum_form",
    "dissipation_and_boundary_form",
    "eigenvalue_path",
    "eigenvalues",
    "error_metrics",
    "exact_solution",
    "fill_inflow_ghosts",
    "fill_outflow_ghosts",
    "format_stencil",
    "initial_state",
    "make_builtin",
    "n_steps",
    "operator_norm_l2",
    "parse_stencil",
    "power_norm_envelope",
    "pseudospectrum_grid",
    "reference_values",
    "run_halfline_outflow",
    "run_interval",
    "smallest_singular_value",
    "spectral_radius",
    "stability_functional_ratio",
    "step",
    "symbol",
    "verify_energy_balance",
]
