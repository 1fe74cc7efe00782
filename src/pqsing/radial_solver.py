"""Radial comparison profile and quadrature solver.

On the ball the symmetric problem collapses to nested one-dimensional
integrals: with I(r) = lam r^{1-N} int_0^r t^{N-1} load(t) dt the
decreasing solution satisfies -Phi'(r) = Linv(I(r)) and
Phi(r) = int_r^R Linv(I(s)) ds.  This module builds the plateau cutoff
Upsilon, the comparison profile v = theta * Upsilon, the quadrature
solution Phi, and the pointwise certificate that Phi dominates v without
overshooting theta2.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .grid import CertificateReport, GridFunction
from .parameter_window import WindowReport
from .pq_core import Params, lpq_inverse

__all__ = [
    "RadialProfile",
    "cutoff",
    "cutoff_prime",
    "solve_radial",
    "certify_radial_claim",
]


def cutoff(r, params: Params, chi: float, kappa: float, epsilon: float):
    """Plateau cutoff: 1 on [0, eps], 1 - (1 - ((R-r)/(R-eps))^kappa)^chi beyond.

    Continuous, nonincreasing, 0 at r = R.  chi = kappa = 1 collapses it
    to the linear ramp (R-r)/(R-eps).
    """
    R = params.radius
    r_arr = np.asarray(r, dtype=float)
    s = np.clip((R - r_arr) / (R - epsilon), 0.0, 1.0)
    out = np.where(r_arr <= epsilon, 1.0, 1.0 - (1.0 - s ** kappa) ** chi)
    return float(out) if r_arr.ndim == 0 else out


def cutoff_prime(r, params: Params, chi: float, kappa: float, epsilon: float):
    """Analytic derivative of the cutoff; 0 on the plateau and at both ends
    (for chi, kappa > 1)."""
    R = params.radius
    r_arr = np.asarray(r, dtype=float)
    s = np.clip((R - r_arr) / (R - epsilon), 0.0, 1.0)
    with np.errstate(invalid="ignore"):
        inner = np.where(s > 0.0, s ** (kappa - 1.0), 0.0 if kappa > 1.0 else 1.0)
        outer = (1.0 - s ** kappa)
        outer = np.where(outer > 0.0, outer ** (chi - 1.0), 0.0 if chi > 1.0 else 1.0)
    d = -chi * kappa * inner * outer / (R - epsilon)
    out = np.where(r_arr <= epsilon, 0.0, d)
    return float(out) if r_arr.ndim == 0 else out


@dataclasses.dataclass(frozen=True)
class RadialProfile:
    """Phi and the comparison profile v on one uniform grid.

    Invariants: Phi(R) = 0, Phi'(0) = 0, Phi nonincreasing.
    """

    phi: GridFunction
    phi_prime: GridFunction
    v: GridFunction
    v_prime: GridFunction


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0 (scipy's
    cumulative_trapezoid(y, x, initial=0.0), same formula and bits)."""
    out = np.zeros(len(y))
    out[1:] = np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)
    return out


def _nested_integral(nodes: np.ndarray, load: np.ndarray, lam: float, N: int) -> np.ndarray:
    """I(r) = lam r^{1-N} int_0^r t^{N-1} load(t) dt by cumulative trapezoid.

    I(0) = 0 (the integrand vanishes like lam*load(0)*r/N there)."""
    integrand = nodes ** (N - 1) * load
    inner = _cumulative_trapezoid(integrand, nodes)
    I = np.zeros_like(inner)
    I[1:] = lam * inner[1:] / nodes[1:] ** (N - 1)
    return I


def _outer_integral(nodes: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Phi(r_i) = int_{r_i}^R slope(s) ds via the same trapezoid weights."""
    full = _cumulative_trapezoid(slope, nodes)
    return full[-1] - full


def solve_radial(reactions, window: WindowReport, nodes: np.ndarray) -> RadialProfile:
    """Quadrature solution Phi of the truncated problem with load lam*h(v),
    at the radial nodes (DiscreteOperator.from_params lays them out); lam
    and the exponents are those of reactions.params.

    lam outside [lambda_*, lambda^*] only warns (WindowViolation): the
    solve is still well defined, the comparison certificate just loses
    its meaning.
    """
    params, lam = reactions.params, reactions.params.lam
    window.warn_outside(lam)
    v_vals = window.theta * cutoff(nodes, params, window.chi, window.kappa, window.epsilon)
    vp_vals = window.theta * cutoff_prime(nodes, params, window.chi, window.kappa, window.epsilon)
    load = np.asarray(reactions.h(v_vals), dtype=float)
    I = _nested_integral(nodes, load, lam, params.dim)
    minus_phip = lpq_inverse(I, params)
    phi_vals = _outer_integral(nodes, minus_phip)
    return RadialProfile(
        phi=GridFunction(nodes, phi_vals),
        phi_prime=GridFunction(nodes, -minus_phip),
        v=GridFunction(nodes, v_vals),
        v_prime=GridFunction(nodes, vp_vals),
    )


def certify_radial_claim(profile: RadialProfile, params: Params,
                         window: WindowReport) -> CertificateReport:
    """Pointwise certificate of the comparison claim.

    Three checks on the computed profile: Phi >= v, max Phi <= theta2, and
    Phi' <= v' on the collar [eps, R].  Dominance is checked at nodes
    0..n-1 and scaled by the boundary distance (R - r)/R, as the ordering
    certificates are: at r = R both vanish, so its margin is 0 by
    construction.  The tolerance is 1e-8 * theta2 (scale-aware absolute).
    """
    tol = 1e-8 * window.theta2
    nodes = profile.phi.nodes
    R = params.radius
    dominance = (profile.phi.values - profile.v.values)[:-1] / ((R - nodes[:-1]) / R)
    headroom = window.theta2 - profile.phi.values
    collar = nodes >= window.epsilon - 1e-14
    slope_gap = profile.v_prime.values[collar] - profile.phi_prime.values[collar]
    margins = np.concatenate([dominance, headroom, slope_gap])
    ok_dom = bool(np.min(dominance) >= -tol)
    ok_head = bool(np.min(headroom) >= -tol)
    ok_slope = bool(np.min(slope_gap) >= -tol)
    return CertificateReport(
        kind="radial_claim",
        margins=margins,
        passed=ok_dom and ok_head and ok_slope,
        tolerance=float(tol),
        detail={
            "min_phi_minus_v": float(np.min(dominance)),
            "distance_scaled": True,
            "max_phi": float(np.max(profile.phi.values)),
            "theta2": float(window.theta2),
            "min_slope_gap": float(np.min(slope_gap)),
            "dominance_ok": ok_dom,
            "headroom_ok": ok_head,
            "slope_ok": ok_slope,
            "lam": float(params.lam),
        },
    )
