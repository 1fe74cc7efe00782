"""Closed-form window constants and the load interval [lambda_*, lambda^*].

Everything here is explicit arithmetic: the capacity-type constant
C(N,q), the threshold map F(theta), the collar split eps = NR/(N+q-1),
and the two load thresholds whose interval hosts both sub/supersolution
pairs.  The truncated reaction h is taken from `nonlinearity` and never
re-derived here.
"""
from __future__ import annotations

import dataclasses
import math
import warnings

from .errors import ConfigurationError, EmptyThetaRange, WindowViolation
from .pq_core import Params, lpq_scalar

__all__ = ["WindowReport", "capacity_constant", "F_of", "compute_window"]


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
    return y * min(1.0, y ** ((params.q - params.p) / (params.p - 1.0)))


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


def compute_window(reactions, chi: float = 1.01, kappa: float = 1.01,
                   theta: float | None = None) -> WindowReport:
    """Choose theta, evaluate both load thresholds, and sanity-check the cutoff bound.

    theta defaults to the midpoint of (theta1, min(theta2, F(theta2))).
    chi and kappa are the cutoff shape exponents, "just above 1" by
    default.  `reactions` supplies h, the thresholds and the geometry.
    """
    params, spec = reactions.params, reactions.spec
    p, q, N, R = params.p, params.q, params.dim, params.radius
    if chi <= 1.0 or kappa <= 1.0:
        raise ConfigurationError(f"need chi, kappa > 1, got chi={chi}, kappa={kappa}")

    C = capacity_constant(N, q)
    F2 = F_of(spec.theta2, params)
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

    h_theta = float(reactions.h(theta))
    if h_theta <= 0.0:
        raise ConfigurationError(f"h(theta) = {h_theta} must be positive")
    eps = N * R / (N + q - 1.0)

    lam_star = (
        max(theta ** (p - 1.0), theta ** (q - 1.0))
        * 2.0 * R ** (N - 1) * N
        / ((R - eps) ** (q - 1.0) * eps ** N * h_theta)
    )
    lam_upper = (spec.theta2 * q / (q - 1.0)) ** (q - 1.0) * N / (h_theta * R ** q)

    # amplitude bound used in the lambda_* derivation:
    #   (1/eps^N) L_{p,q}(chi*kappa/(R-eps)) <= 2 (chi*kappa)^{q-1} / ((R-eps)^{q-1} eps^N),
    # equivalent to chi*kappa >= R-eps; Params' radius guard R <= 1 + N/(q-1)
    # gives R-eps = R(q-1)/(N+q-1) <= 1 < chi*kappa, so the margin is positive.
    x = chi * kappa / (R - eps)
    cutoff_margin = 2.0 * (chi * kappa) ** (q - 1.0) / ((R - eps) ** (q - 1.0) * eps ** N) - (
        lpq_scalar(x, params) / eps ** N
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
