"""Multiplicity toolkit for the singular (p,q)-Laplacian on a ball.

Pipeline: records (the problem's constants and its reaction), pq_core (the
scalar operator algebra), nonlinearity (reaction assumptions and derived
truncations), parameter_window (the admissible load interval),
radial_solver (the comparison profile), barrier (the boundary collar
supersolution), discrete_solver (finite differences, the four
sub/supersolutions, the monotone iteration, shooting for the third
solution), cli (the JSON-config command line).

The package imports no module up front but errors: each public name is
imported from its home module on first access (PEP 562), so a caller,
and each CLI command, loads only the modules it runs.
"""

from . import errors

__version__ = "0.1.0"

# home module -> the public names it exports through the package
_EXPORTS = {
    "records": ("Params", "NonlinearitySpec"),
    "pq_core": ("lpq_scalar", "lpq_derivative", "lpq_inverse",
                "simon_constant", "simon_gap", "simon_gap_sum"),
    "grid": ("GridFunction", "CertificateReport", "same_grid"),
    "nonlinearity": ("DerivedReactions", "validate",
                     "build_fhat", "build_h", "choose_Theta_lambda", "choose_khat"),
    "parameter_window": ("WindowReport", "capacity_constant", "F_of", "compute_window"),
    "radial_solver": ("RadialProfile", "cutoff", "cutoff_prime",
                      "solve_radial", "certify_radial_claim"),
    "barrier": ("BarrierProfile", "ScalingReport", "solve_barrier", "blowdown_radius",
                "xi_max", "conservation_residual", "check_scaling",
                "certify_smallest_exponent", "certify_barrier_supersolution", "minimal_M"),
    "discrete_solver": ("DiscreteOperator", "IterationTrace", "PairsResult",
                        "build_first_pair", "build_second_pair", "construct_pairs",
                        "that_map", "amann_iterate", "certify", "original_residual",
                        "march", "search_third_solution"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "errors"]


def __getattr__(name):
    # a submodule name is no export, so `from pqsing import barrier` falls
    # through to the import system, which loads the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value
