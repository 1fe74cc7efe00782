"""Reaction-term machinery.

A reaction f enters the theory through four derived objects: the
admissibility report for the growth/monotonicity assumptions, the
truncated reaction h(t) <= f(t)/(2 t^gamma) that drives the auxiliary
nonsingular problem, the desingularized reaction
fhat(t) = lam (f(t) - f(0))/t^gamma with fhat(0) = 0, and the
monotonization constants Theta_lambda and khat.

Assumptions (f0)-(f3), h, its argmin theta_star and its floor fbar are
read exactly off the monotone pieces of f(t)/t^gamma (records'
`pieces`).  (f4), Theta_lambda and khat are still sampled on grids.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .parameter_window import F_of
from .pq_core import lpq_scalar
from .records import NonlinearitySpec, Params  # re-exported: their home is records

__all__ = ["NonlinearitySpec", "DerivedReactions", "AssumptionCheck",
           "ValidationReport", "validate", "build_fhat", "build_h",
           "choose_Theta_lambda", "choose_khat"]

_THETA_CAP = 1e8         # a larger Theta_lambda signals a misconfigured reaction


@dataclasses.dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    witness: dict


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def passed(self, name: str) -> bool:
        return self.check(name).passed


def _distinct(*parts: np.ndarray) -> np.ndarray:
    """The distinct values of the parts, ascending, as np.unique gives them:
    a sort and a neighbour mask, without the numpy.ma import np.unique makes
    on its first call."""
    grid = np.sort(np.concatenate(parts))
    return grid[np.concatenate(((True,), grid[1:] != grid[:-1]))]


def _monotone_deficit(values: np.ndarray) -> float:
    """Largest decrease between consecutive samples (0 if nondecreasing)."""
    d = np.diff(values)
    return float(max(0.0, -np.min(d))) if d.size else 0.0


def validate(spec: NonlinearitySpec, params: Params) -> ValidationReport:
    """Check the admissibility assumptions; failures are reported, not raised.

    f0: f(0) > 0.  f1: f nondecreasing, read off the table (the other
    families increase).  f2/f2': f(t)/t^e -> 0 for e = p-1+gamma and
    q-1+gamma, which holds iff sup f is finite or f = t^m with m < e.
    f3: the threshold window 0 < theta1 < min(theta2, F(theta2)), and
    f(t)/t^gamma nondecreasing on [theta1, theta2] (no drop over its
    monotone pieces, the window's own check).  These four are exact; f4,
    fhat(t) + khat*t nondecreasing, is checked on a grid of [0, 2 theta2].
    """
    checks: list[AssumptionCheck] = []
    f0 = spec.f0
    checks.append(AssumptionCheck("f0", f0 > 0.0, {"f_at_0": f0}))

    fs = spec.table_f or ()
    decrease = max([a - b for a, b in zip(fs, fs[1:])] + [0.0])
    checks.append(AssumptionCheck("f1", decrease == 0.0, {"max_decrease": decrease}))

    sup_f = spec.sup_f
    for name, exponent in (("f2", params.p - 1.0 + params.gamma),
                           ("f2prime", params.q - 1.0 + params.gamma)):
        ok = math.isfinite(sup_f) or (spec.kind == "power" and spec.m < exponent)
        checks.append(AssumptionCheck(name, ok, {"exponent": exponent, "sup_f": sup_f}))

    F2 = F_of(spec.theta2, params)
    cap = min(spec.theta2, F2)
    window_ok = 0.0 < spec.theta1 < cap
    drop = spec.drop(params.gamma, spec.theta1, spec.theta2)
    checks.append(AssumptionCheck(
        "f3", window_ok and drop == 0.0,
        {"F_theta2": float(F2), "theta_cap": float(cap), "window_ok": window_ok, "drop": drop},
    ))

    fhat = build_fhat(spec, params)
    ggrid = np.linspace(0.0, 2.0 * spec.theta2, 10001)
    gv = fhat(ggrid) + spec.khat * ggrid
    gdef = _monotone_deficit(gv)
    gscale = max(1.0, float(np.max(np.abs(gv))))
    checks.append(AssumptionCheck(
        "f4", gdef <= 1e-11 * gscale, {"khat": float(spec.khat), "max_decrease": gdef},
    ))

    return ValidationReport(tuple(checks))


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
    Theta_lambda: float
    spec: NonlinearitySpec
    params: Params

    def at_load(self, lam: float) -> DerivedReactions:
        """These reactions moved to load lam.  h, theta_star and fbar do not
        depend on the load and are kept; fhat and Theta_lambda are derived
        at lam, bit for bit as build_h would at that load (at their own load
        the reactions are themselves, and nothing is derived)."""
        if lam == self.params.lam:
            return self
        return _at_load(self.spec, dataclasses.replace(self.params, lam=lam),
                        self.theta_star, self.fbar, self.h)


def _at_load(spec: NonlinearitySpec, params: Params, theta_star: float, fbar: float,
             h: Callable) -> DerivedReactions:
    """The reactions at params.lam around the load-free bridge h: the one
    place that derives the load's fhat and Theta_lambda."""
    return DerivedReactions(
        theta_star=theta_star,
        fbar=fbar,
        h=h,
        fhat=build_fhat(spec, params),
        Theta_lambda=choose_Theta_lambda(spec, params, h=h),
        spec=spec,
        params=params,
    )


def _curve(spec: NonlinearitySpec, gamma: float):
    def curve(t):
        t_arr = np.asarray(t, dtype=float)
        return spec.f(t_arr) / t_arr ** gamma / 2.0
    return curve


def build_h(spec: NonlinearitySpec, params: Params) -> DerivedReactions:
    """Construct the truncated reaction h and the derived constants at params.lam.

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
    if pieces[0][1]:  # f(0) <= 0: the curve rises from its limit at 0+, 0 or -inf
        limit = 0.0 if spec.f0 == 0.0 else -math.inf
        if limit <= fbar:
            theta_star, fbar = 0.0, limit
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

    return _at_load(spec, params, theta_star, fbar, h)


def choose_Theta_lambda(spec: NonlinearitySpec, params: Params,
                        h: Callable | None = None) -> float:
    """Smallest Theta >= 0 making g(t) = lam h(t) + Theta L_{p,q}(t) grid-nondecreasing.

    Sampled on 10^4 points of [0, 2 theta2].  Since L is strictly
    increasing, the grid-optimal value is read off directly as
    max(0, max(-lam dh / dL)); values beyond _THETA_CAP, or not finite,
    signal a misconfigured reaction.
    """
    if h is None:
        h = build_h(spec, params).h
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
    grid = _distinct(np.linspace(0.0, t_max, 20001),
                     np.geomspace(max(t_max * 1e-12, 1e-12), t_max, 20001))
    v = fhat(grid)
    slopes = np.diff(v) / np.diff(grid)
    worst = float(np.min(slopes))
    return 0.0 if worst >= 0.0 else -worst * (1.0 + 1e-9)
