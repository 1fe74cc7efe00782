"""Closed-form window constants and the load interval [lambda_*, lambda^*].

Everything here is explicit arithmetic: the capacity-type constant
C(N,q), the threshold map F(theta), the collar split eps = NR/(N+q-1),
and the two load thresholds whose interval hosts both sub/supersolution
pairs.  Above theta1 the truncated reaction h is the curve f(t)/(2 t^gamma)
itself, so the window reads h(theta) and checks that the curve does not
drop on [theta1, theta2] over its closed-form monotone pieces, with `math`
alone: this module imports no numpy.
"""
from __future__ import annotations

import dataclasses
import math
import warnings

from .errors import BridgeNotMonotone, ConfigurationError, EmptyThetaRange, WindowViolation
from .records import NonlinearitySpec, Params

__all__ = ["WindowReport", "capacity_constant", "F_of", "compute_window"]


def __getattr__(name):
    """pq_core's lpq_scalar on first lookup (perfbench wraps it here); the window uses math."""
    if name != "lpq_scalar":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .pq_core import lpq_scalar

    return globals().setdefault(name, lpq_scalar)


def capacity_constant(N: int, q: float) -> float:
    """C(N,q) = ((N+q-1)^{N+q-1} / N^N)^{1/(q-1)}, evaluated in log form."""
    if N < 1 or int(N) != N:
        raise ValueError(f"need integer N >= 1, got {N}")
    if q <= 1.0:
        raise ValueError(f"need q > 1, got {q}")
    m = N + q - 1.0
    return math.exp((m * math.log(m) - N * math.log(N)) / (q - 1.0))


def F_of(theta: float, params: Params) -> float:
    """F(theta) = y * min(1, y^{(q-p)/(p-1)}) with y = q*theta / (2 C(N,q))."""
    if theta <= 0.0:
        raise ValueError(f"need theta > 0, got {theta}")
    C = capacity_constant(params.dim, params.q)
    y = params.q * theta / (2.0 * C)
    # the minimum is 1 from y = 1 on, where the power overflows for p near 1
    return y if y >= 1.0 else y * y ** ((params.q - params.p) / (params.p - 1.0))


def _finite(name: str, compute) -> float:
    """compute(), or a ConfigurationError naming it if it overflows or is not finite."""
    try:
        value = float(compute())
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} = {value} is not finite")
    return value


@dataclasses.dataclass(frozen=True)
class WindowReport:
    """The numbers behind one admissible comparison level theta.

    `nonempty` is recomputed from the two thresholds on access rather
    than cached, so the flag can never drift from the numbers.
    """

    capacity: float
    F_theta2: float
    epsilon: float
    theta: float
    theta2: float
    h_theta: float
    lambda_star: float
    lambda_upper: float
    chi: float
    kappa: float
    cutoff_margin: float

    @property
    def nonempty(self) -> bool:
        return self.lambda_star < self.lambda_upper

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lambda_star + self.lambda_upper)

    def warn_outside(self, lam: float) -> None:
        """Warn (WindowViolation) when lam lies outside [lambda_*, lambda^*]
        beyond a relative 1e-12; the warning is filed under the caller's line."""
        if lam < self.lambda_star * (1.0 - 1e-12) or lam > self.lambda_upper * (1.0 + 1e-12):
            warnings.warn(f"lambda={lam} outside [{self.lambda_star}, {self.lambda_upper}]",
                          WindowViolation, stacklevel=2)

    def as_dict(self) -> dict:
        out = {f.name: float(getattr(self, f.name)) for f in dataclasses.fields(self)}
        out["nonempty"] = self.nonempty
        out["midpoint"] = self.midpoint
        return out


def compute_window(spec: NonlinearitySpec, params: Params, chi: float = 1.01,
                   kappa: float = 1.01, theta: float | None = None) -> WindowReport:
    """Check h above theta1, choose theta, evaluate both load thresholds,
    and sanity-check the cutoff bound.

    theta defaults to the midpoint of (theta1, min(theta2, F(theta2))).
    chi and kappa are the cutoff shape exponents, "just above 1" by
    default; params.lam is not read.  h(theta) = f(theta)/(2 theta^gamma)
    must be finite and positive.
    """
    p, q, N, R = params.p, params.q, params.dim, params.radius
    drop = spec.drop(params.gamma, spec.theta1, spec.theta2)
    if drop > 0.0:
        raise BridgeNotMonotone(f"truncated reaction decreases by {drop:.3e} on "
                                "[theta1, theta2]; thresholds are inadmissible")
    if chi <= 1.0 or kappa <= 1.0:
        raise ConfigurationError(f"need chi, kappa > 1, got chi={chi}, kappa={kappa}")

    C = capacity_constant(N, q)
    F2 = _finite("F(theta2)", lambda: F_of(spec.theta2, params))
    cap = min(spec.theta2, F2)
    if spec.theta1 >= cap:
        raise EmptyThetaRange(
            f"theta1={spec.theta1} >= min(theta2, F(theta2))={cap}: no admissible theta"
        )
    if theta is None:
        theta = spec.theta1 + 0.5 * (cap - spec.theta1)
    if not (spec.theta1 < theta < cap):
        raise ConfigurationError(
            f"theta={theta} outside the admissible interval ({spec.theta1}, {cap})"
        )

    h_theta = spec.curve(theta, params.gamma)
    if not math.isfinite(h_theta):
        raise ConfigurationError(f"h(theta) = {h_theta} is not finite at theta={theta}")
    if h_theta <= 0.0:
        raise ConfigurationError(f"h(theta) = {h_theta} must be positive")
    eps = N * R / (N + q - 1.0)

    lam_star = _finite("lambda_*", lambda: max(theta ** (p - 1.0), theta ** (q - 1.0))
                       * 2.0 * R ** (N - 1) * N / ((R - eps) ** (q - 1.0) * eps ** N * h_theta))
    lam_upper = _finite("lambda^*", lambda: (spec.theta2 * q / (q - 1.0)) ** (q - 1.0) * N
                        / (h_theta * R ** q))

    # amplitude bound used in the lambda_* derivation:
    #   (1/eps^N) L_{p,q}(chi*kappa/(R-eps)) <= 2 (chi*kappa)^{q-1} / ((R-eps)^{q-1} eps^N),
    # equivalent to chi*kappa >= R-eps; Params' radius guard R <= 1 + N/(q-1)
    # gives R-eps = R(q-1)/(N+q-1) <= 1 < chi*kappa, so the margin is positive.
    x = chi * kappa / (R - eps)
    cutoff_margin = 2.0 * (chi * kappa) ** (q - 1.0) / ((R - eps) ** (q - 1.0) * eps ** N) - (
        (x ** (p - 1.0) + x ** (q - 1.0)) / eps ** N
    )
    if cutoff_margin < 0.0:
        raise ConfigurationError(
            f"cutoff amplitude bound failed (margin {cutoff_margin:.3e}); "
            "chi*kappa sits below R - eps"
        )

    return WindowReport(
        capacity=C,
        F_theta2=F2,
        epsilon=eps,
        theta=float(theta),
        theta2=float(spec.theta2),
        h_theta=h_theta,
        lambda_star=float(lam_star),
        lambda_upper=float(lam_upper),
        chi=float(chi),
        kappa=float(kappa),
        cutoff_margin=float(cutoff_margin),
    )
