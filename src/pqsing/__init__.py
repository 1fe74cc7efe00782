"""Multiplicity toolkit for the singular (p,q)-Laplacian on a ball.

Pipeline: pq_core (the scalar operator algebra), nonlinearity (reaction
assumptions and derived truncations), parameter_window (the admissible load
interval), radial_solver (the comparison profile), barrier (the boundary
collar supersolution), discrete_solver (finite differences, the four
sub/supersolutions, the monotone iteration, shooting for the third
solution), cli (the JSON-config command line).
"""

from .pq_core import (
    Params,
    lpq_scalar,
    lpq_derivative,
    lpq_inverse,
    simon_constant,
    simon_gap,
    simon_gap_sum,
)
from .grid import GridFunction, CertificateReport, same_grid
from .nonlinearity import (
    NonlinearitySpec,
    DerivedReactions,
    ValidationReport,
    validate,
    build_fhat,
    build_h,
    choose_Theta_lambda,
    choose_khat,
)
from .parameter_window import WindowReport, capacity_constant, F_of, compute_window
from .radial_solver import (
    RadialProfile,
    cutoff,
    cutoff_prime,
    solve_radial,
    certify_radial_claim,
)
from .barrier import (
    BarrierProfile,
    ScalingReport,
    solve_barrier,
    blowdown_radius,
    xi_max,
    conservation_residual,
    check_scaling,
    certify_smallest_exponent,
    certify_barrier_supersolution,
    minimal_M,
)
from .discrete_solver import (
    DiscreteOperator,
    IterationTrace,
    PairsResult,
    solve_eta_problem,
    build_first_pair,
    build_second_pair,
    construct_pairs,
    that_map,
    amann_iterate,
    certify,
    original_residual,
    march,
    search_third_solution,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Params", "lpq_scalar", "lpq_derivative", "lpq_inverse",
    "simon_constant", "simon_gap", "simon_gap_sum",
    "GridFunction", "CertificateReport", "same_grid",
    "NonlinearitySpec", "DerivedReactions", "ValidationReport", "validate",
    "build_fhat", "build_h", "choose_Theta_lambda", "choose_khat",
    "WindowReport", "capacity_constant", "F_of", "compute_window",
    "RadialProfile", "cutoff", "cutoff_prime",
    "solve_radial", "certify_radial_claim",
    "BarrierProfile", "ScalingReport", "solve_barrier", "blowdown_radius",
    "xi_max", "conservation_residual",
    "check_scaling", "certify_smallest_exponent", "certify_barrier_supersolution",
    "minimal_M",
    "DiscreteOperator", "IterationTrace", "PairsResult",
    "solve_eta_problem", "build_first_pair",
    "build_second_pair", "construct_pairs", "that_map", "amann_iterate",
    "certify", "original_residual", "march", "search_third_solution",
    "errors",
]
