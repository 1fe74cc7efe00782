"""Exception and warning types shared across the toolkit.

Exceptions signal states a caller must handle; warning categories flag
conditions under which a computation still returns a usable (but
qualified) result.
"""


class ConvergenceFailure(RuntimeError):
    """A root finder or nonlinear solve exhausted its iteration budget."""


class DegenerateInput(ValueError):
    """The requested quantity is undefined on the given input.

    Main case: the sub-quadratic monotonicity gap at u = v = 0, where the
    right-hand side 0/0 is only fixed by the convention 0 >= 0.
    """


class BridgeNotMonotone(RuntimeError):
    """No nondecreasing truncated reaction exists for the supplied thresholds."""


class ConfigurationError(ValueError):
    """A configuration value or derived constant left its admissible range."""


class InfeasibleGeometry(ValueError):
    """Ball radius violates R <= 1 + N/(q-1), so the radial construction breaks."""


class EmptyThetaRange(ValueError):
    """theta1 >= min(theta2, F(theta2)): no admissible comparison level exists."""


class SearchExhausted(RuntimeError):
    """A geometric or bisection parameter search ended without a feasible value."""


class PositivityLoss(RuntimeError):
    """An iterate or input is nonpositive where the singular term needs u > 0."""


class FailedAssumptions(RuntimeError):
    """The nonlinearity fails one of the assumptions (f0)-(f4) the pairs need."""


class CollarTooWide(ValueError):
    """The boundary collar fails the barrier curvature condition (or outruns the profile)."""


class WindowViolation(RuntimeWarning):
    """lambda lies outside [lambda_*, lambda^*]; solves proceed, certificates may be void."""


class MonotonicityViolation(RuntimeWarning):
    """A monotone iteration step moved the wrong way (discretization artifact)."""


class BlowDown(RuntimeWarning):
    """The barrier slope hit zero inside the requested range; profile truncated."""
