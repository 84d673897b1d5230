"""Escape dynamics of gradient methods near strict saddle points.

Submodules:
    spectral  eigen-decomposition, gap grouping, sphere projections
    problems  test objectives and constant estimation
    simulate  exact gradient-descent radial runs
    perturb   directional Hessian derivatives and spectral response rates
    approx    first-order coefficient trajectories and interval families
    bounds    exit-step estimates and their qualifying conditions
    cli       experiment driver (`saddlesim` console script)
"""

from .approx import (
    CoefficientIntervals,
    CoefficientSet,
    FamilyResult,
    coefficient_intervals,
    coefficients_at,
    eps_trajectory,
    reference_coefficients,
    sample_family,
)
from .bounds import (
    CrudeBoundParams,
    ExitBound,
    PsiConstants,
    boundary_condition_check,
    crude_bound,
    exit_time_bound,
    k_iota_from_psi,
    lambert_w,
    psi,
    psi_constants,
)
from .perturb import (
    PerturbationData,
    directional_hessian_derivative,
    eps_validity_bounds,
    fd_step,
    hessian_first_order,
    rs_corrections,
)
from .problems import (
    ProblemConstants,
    SaddleProblem,
    cubic_test,
    estimate_constants,
    phase_retrieval,
    quadratic_saddle,
    validate_assumptions,
)
from .simulate import (
    RadialTrajectory,
    default_k_max,
    exit_time,
    gd_run,
    monotonicity_profile,
)
from .spectral import (
    Projections,
    Spectrum,
    decompose,
    group_eigenvalues,
    project,
    theta_full,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientIntervals",
    "CoefficientSet",
    "CrudeBoundParams",
    "ExitBound",
    "FamilyResult",
    "PerturbationData",
    "ProblemConstants",
    "Projections",
    "PsiConstants",
    "RadialTrajectory",
    "SaddleProblem",
    "Spectrum",
    "boundary_condition_check",
    "coefficient_intervals",
    "coefficients_at",
    "crude_bound",
    "cubic_test",
    "decompose",
    "default_k_max",
    "directional_hessian_derivative",
    "eps_trajectory",
    "eps_validity_bounds",
    "estimate_constants",
    "exit_time",
    "exit_time_bound",
    "fd_step",
    "gd_run",
    "group_eigenvalues",
    "hessian_first_order",
    "k_iota_from_psi",
    "lambert_w",
    "monotonicity_profile",
    "phase_retrieval",
    "project",
    "psi",
    "psi_constants",
    "quadratic_saddle",
    "reference_coefficients",
    "rs_corrections",
    "sample_family",
    "theta_full",
    "validate_assumptions",
]
