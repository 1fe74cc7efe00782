"""Reaction-term machinery.

A reaction f enters the theory through four derived objects: the
admissibility check of (f4), the one assumption that needs the load, the
truncated reaction h(t) <= f(t)/(2 t^gamma) that drives the auxiliary
nonsingular problem, the desingularized reaction
fhat(t) = lam (f(t) - f(0))/t^gamma with fhat(0) = 0, and the
monotonization constants Theta_lambda and khat.

Each assumption is checked once, where its inputs meet: (f0), (f1) and a
bounded f by NonlinearitySpec, (f3) by compute_window, (f4) by validate,
once per load (by construct_pairs, and by the radial command).  h, its
argmin theta_star and its floor fbar are read exactly off the monotone
pieces of f(t)/t^gamma (records' `pieces`).  (f4), Theta_lambda and khat
are still sampled on grids; Theta_lambda is derived by the inner pair
alone, the one stage that reads it.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .pq_core import lpq_scalar
from .records import NonlinearitySpec, Params  # re-exported: their home is records

__all__ = ["NonlinearitySpec", "DerivedReactions", "AssumptionCheck", "validate",
           "build_fhat", "build_h", "choose_Theta_lambda", "choose_khat"]

_THETA_CAP = 1e8         # a larger Theta_lambda signals a misconfigured reaction


@dataclasses.dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    witness: dict


def _monotone_deficit(values: np.ndarray) -> float:
    """Largest decrease between consecutive samples (0 if nondecreasing,
    inf if a difference is not finite, as those next to a sample that is
    not finite are)."""
    d = np.diff(values)
    if not np.all(np.isfinite(d)):
        return math.inf
    return float(max(0.0, -np.min(d))) if d.size else 0.0


def validate(reactions: DerivedReactions) -> AssumptionCheck:
    """Check (f4) at the reactions' load: their fhat(t) + khat*t finite
    and nondecreasing on a grid of [0, 2 theta2]; a failure is reported,
    not raised.  (f0), (f1) and a bounded f (so (f2)/(f2')) hold for every spec,
    and compute_window checks (f3): (f4) is the one assumption that needs
    the load.
    """
    spec = reactions.spec
    ggrid = np.linspace(0.0, 2.0 * spec.theta2, 10001)
    gv = reactions.fhat(ggrid) + spec.khat * ggrid
    gdef = _monotone_deficit(gv)
    gscale = max(1.0, float(np.max(np.abs(gv))))
    return AssumptionCheck("f4", math.isfinite(gdef) and gdef <= 1e-11 * gscale,
                           {"khat": float(spec.khat), "max_decrease": gdef})


def build_fhat(spec: NonlinearitySpec, params: Params) -> Callable:
    """fhat(t) = lam (f(t) - f(0)) / t^gamma for t > 0, and 0 for t <= 0.

    Continuous at 0: near the origin |fhat(t)| <= lam sup|f'| t^{1-gamma}.
    """
    lam, gamma, f0 = params.lam, params.gamma, spec.f0

    def fhat(t):
        t_arr = np.asarray(t, dtype=float)
        tt = np.atleast_1d(t_arr)  # numpy's array kernels for a scalar too: the same bits
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at t <= 0, discarded
            out = np.where(tt > 0.0, lam * (spec.f(tt) - f0) / tt ** gamma, 0.0)
        return float(out[0]) if t_arr.ndim == 0 else out

    return fhat


@dataclasses.dataclass(frozen=True)
class DerivedReactions:
    """Everything downstream solvers need about one reaction at one load.

    h is nondecreasing on [0, theta2], equals f(t)/(2 t^gamma) for
    t >= theta1, and is bounded by that curve everywhere; fhat carries
    the load lam inside it.  spec and params are the load's one copy of f,
    khat, lam and the exponents, which every later stage reads.
    """

    theta_star: float
    fbar: float
    h: Callable
    fhat: Callable
    spec: NonlinearitySpec
    params: Params

    def at_load(self, lam: float) -> DerivedReactions:
        """These reactions moved to load lam.  h, theta_star and fbar do not
        depend on the load and are kept; fhat is built at lam, bit for bit
        as build_h would at that load (at their own load the reactions are
        themselves, and nothing is built)."""
        if lam == self.params.lam:
            return self
        params = dataclasses.replace(self.params, lam=lam)
        return dataclasses.replace(self, fhat=build_fhat(self.spec, params), params=params)


def _curve(spec: NonlinearitySpec, gamma: float):
    def curve(t):
        t_arr = np.asarray(t, dtype=float)
        return spec.f(t_arr) / t_arr ** gamma / 2.0
    return curve


def build_h(spec: NonlinearitySpec, params: Params) -> DerivedReactions:
    """Construct the truncated reaction h, its constants and fhat at params.lam.

    With curve(t) = f(t)/(2 t^gamma):
      h(t) = inf over s in [t, theta1] of curve(s)   for t <= theta1,
      h(t) = curve(t)                                 for t >= theta1.
    This running future-minimum is the canonical monotone bridge: it is
    continuous, constant (= fbar, the minimum over (0, theta1]) up to its
    argmin theta_star, nondecreasing, and <= curve pointwise.  The
    curve's monotone pieces give it exactly: the infimum over [t, theta1]
    is the curve at t, at a local minimum in [t, theta1] or at theta1, so
    h(t) = min(curve(t), the suffix minimum of those points' values).
    Above theta1, h is the curve itself, which compute_window checks.
    Nothing here samples a grid: Theta_lambda and (f4) are left to the
    stages that read them.
    """
    gamma, theta1 = params.gamma, spec.theta1
    curve = _curve(spec, gamma)
    pieces = spec.pieces(gamma)
    # the local minima in (0, theta1), each the start of a rising piece, then theta1
    points = np.array([start for start, rising in pieces if rising and 0.0 < start < theta1]
                      + [theta1])
    values = curve(points)
    suffix = np.minimum.accumulate(values[::-1])[::-1]
    i = int(np.argmin(values))
    theta_star, fbar = float(points[i]), float(values[i])
    if not (np.all(np.isfinite(values)) and math.isfinite(fbar)):
        raise ConfigurationError("reaction curve not finite on (0, theta1]")

    def h(t):
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        tt = np.atleast_1d(t_arr)
        out = np.full_like(tt, fbar)
        mid = (tt > theta_star) & (tt <= theta1)
        if np.any(mid):
            tm = tt[mid]
            out[mid] = np.maximum(np.minimum(curve(tm), suffix[np.searchsorted(points, tm)]),
                                  fbar)
        tail = tt > theta1
        if np.any(tail):
            out[tail] = curve(tt[tail])
        return float(out[0]) if scalar else out.reshape(t_arr.shape)

    return DerivedReactions(theta_star=theta_star, fbar=fbar, h=h,
                            fhat=build_fhat(spec, params), spec=spec, params=params)


def choose_Theta_lambda(spec: NonlinearitySpec, params: Params, h: Callable) -> float:
    """Smallest Theta >= 0 making g(t) = lam h(t) + Theta L_{p,q}(t) grid-nondecreasing,
    for build_h's load-free bridge h: the shift of the inner pair's psi
    equation, which build_second_pair derives at its load.

    Sampled on 10^4 points of [0, 2 theta2].  Since L is strictly
    increasing, the grid-optimal value is read off directly as
    max(0, max(-lam dh / dL)); values beyond _THETA_CAP, or not finite,
    signal a misconfigured reaction.
    """
    grid = np.linspace(0.0, 2.0 * spec.theta2, 10001)
    hv = params.lam * np.asarray(h(grid), dtype=float)
    Lv = lpq_scalar(grid, params)
    dh = np.diff(hv)
    dL = np.diff(Lv)
    need = np.max(-dh / dL)
    Theta = 0.0 if need <= 0.0 else float(need) * (1.0 + 1e-9)
    if not math.isfinite(Theta):
        raise ConfigurationError(f"Theta_lambda = {Theta}: lam*h is not finite on [0, 2 theta2]")
    if Theta > _THETA_CAP:
        raise ConfigurationError(f"Theta_lambda = {Theta:.3e} exceeds cap {_THETA_CAP:.1e}")
    if _monotone_deficit(hv + Theta * Lv) > 1e-9 * max(1.0, float(np.max(np.abs(hv)))):
        raise ConfigurationError("monotonization of lam*h + Theta*L failed on the grid")
    return Theta


def choose_khat(spec: NonlinearitySpec, params: Params, t_max: float | None = None) -> float:
    """Smallest grid-adequate khat with fhat(t) + khat t nondecreasing on [0, t_max].

    t_max defaults to 2 theta2.  The value is the steepest sampled descent
    of fhat, so it adapts to the interval: on ranges where fhat still
    rises it is 0, far out on a saturating tail it grows like the tail
    slope.  Sampling mixes linear and geometric grids so both the origin
    and a wide tail are resolved.
    """
    if t_max is None:
        t_max = 2.0 * spec.theta2
    if t_max <= 0.0:
        return 0.0
    fhat = build_fhat(spec, params)
    grid = np.unique(np.concatenate((np.linspace(0.0, t_max, 20001),
                                     np.geomspace(max(t_max * 1e-12, 1e-12), t_max, 20001))))
    v = fhat(grid)
    slopes = np.diff(v) / np.diff(grid)
    worst = float(np.min(slopes))
    return 0.0 if worst >= 0.0 else -worst * (1.0 + 1e-9)
