"""Reaction-term machinery.

A reaction f enters the theory through four derived objects: the
admissibility report for the growth/monotonicity assumptions, the
truncated reaction h(t) <= f(t)/(2 t^gamma) that drives the auxiliary
nonsingular problem, the desingularized reaction
fhat(t) = lam (f(t) - f(0))/t^gamma with fhat(0) = 0, and the
monotonization constants Theta_lambda and khat.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .errors import BridgeNotMonotone, ConfigurationError
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


def _tail_check(spec: NonlinearitySpec, exponent: float) -> AssumptionCheck:
    """Sublinearity against t^exponent, probed on a deep tail.

    The defining property is a limit, so any finite probe is heuristic:
    we ask that f(T)/T^exponent decreases strictly along
    T in {1e6, 1e8, 1e10, 1e12} and that the fitted log-log slope is
    clearly negative.  (Saturating reactions can still be rising at
    moderate T, so a shallow probe would misclassify them.)
    """
    T = np.array([1e6, 1e8, 1e10, 1e12])
    with np.errstate(over="ignore"):
        ratios = spec.f(T) / T ** exponent
    finite = np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)
    if finite:
        decreasing = bool(np.all(np.diff(ratios) < 0.0))
        slope = float((np.log(ratios[-1]) - np.log(ratios[0])) / (np.log(T[-1]) - np.log(T[0])))
        ok = decreasing and slope <= -0.05
    else:
        decreasing, slope, ok = False, float("nan"), False
    return AssumptionCheck(
        name="tail",  # renamed by the caller

        passed=ok,
        witness={
            "exponent": float(exponent),
            "ratios": tuple(float(r) for r in ratios),
            "loglog_slope": slope,
            "decreasing": decreasing,
        },
    )


def validate(spec: NonlinearitySpec, params: Params) -> ValidationReport:
    """Check the admissibility assumptions; failures are reported, not raised.

    f0: f(0) > 0.  f1: f nondecreasing on a dense grid.  f2/f2': deep-tail
    sublinearity against t^{p-1+gamma} and t^{q-1+gamma}.  f3: the threshold
    window 0 < theta1 < min(theta2, F(theta2)) plus monotonicity of
    f(t)/t^gamma on (theta1, theta2).  f4: fhat(t) + khat*t nondecreasing.
    """
    checks: list[AssumptionCheck] = []
    f0 = spec.f0
    checks.append(AssumptionCheck("f0", f0 > 0.0, {"f_at_0": f0}))

    grid = _distinct(np.linspace(0.0, 2.0 * spec.theta2, 2001), np.geomspace(1e-6, 1e6, 2001))
    fv = spec.f(grid)
    deficit = _monotone_deficit(fv)
    scale = max(1.0, float(np.max(np.abs(fv))))
    checks.append(AssumptionCheck("f1", deficit <= 1e-11 * scale, {"max_decrease": deficit}))

    c2 = _tail_check(spec, params.p - 1.0 + params.gamma)
    checks.append(dataclasses.replace(c2, name="f2"))
    c2p = _tail_check(spec, params.q - 1.0 + params.gamma)
    checks.append(dataclasses.replace(c2p, name="f2prime"))

    F2 = F_of(spec.theta2, params)
    cap = min(spec.theta2, F2)
    window_ok = 0.0 < spec.theta1 < cap
    tgrid = np.linspace(spec.theta1, spec.theta2, 10001)[1:-1]
    curve = spec.f(tgrid) / tgrid ** params.gamma
    cdef = _monotone_deficit(curve)
    cscale = max(1.0, float(np.max(np.abs(curve))))
    mono_ok = cdef <= 1e-11 * cscale
    checks.append(AssumptionCheck(
        "f3", window_ok and mono_ok,
        {"F_theta2": float(F2), "theta_cap": float(cap),
         "window_ok": window_ok, "max_decrease": cdef},
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
        at lam, bit for bit as build_h would at that load."""
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


def _fminbound(func: Callable, a: float, b: float, xatol: float) -> tuple[float, float]:
    """(argmin, min) of a scalar function on [a, b] by Brent's bounded search.

    A step-for-step reproduction of scipy.optimize.minimize_scalar with
    method="bounded" (scipy's _minimize_scalar_bounded, the Forsythe-Malcolm-
    Moler fmin): the same golden-section/parabolic steps in the same float
    order, so it returns the same bits without importing scipy.optimize.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:  # scipy's default maxiter
            break
    return xf, fx


def build_h(spec: NonlinearitySpec, params: Params) -> DerivedReactions:
    """Construct the truncated reaction h and the derived constants.

    With curve(t) = f(t)/(2 t^gamma):
      h(t) = inf over s in [t, theta1] of curve(s)   for t <= theta1,
      h(t) = curve(t)                                 for t >= theta1.
    This running future-minimum is the canonical monotone bridge: it is
    continuous, constant (= fbar, the global minimum over (0, theta1])
    up to its argmin theta_star, nondecreasing, and <= curve pointwise —
    a chord between the endpoint values can cut above the curve when the
    curve dips, so interpolation is not used.  The bridge is grid-checked
    for monotonicity on [0, theta1]; a violation raises BridgeNotMonotone.
    Above theta1, h is the curve itself, which compute_window checks.
    """
    gamma = params.gamma
    curve = _curve(spec, gamma)

    ts = np.geomspace(spec.theta1 * 1e-9, spec.theta1, 32768)
    cs = curve(ts)
    if not np.all(np.isfinite(cs)):
        raise ConfigurationError("reaction curve not finite on (0, theta1]")
    suffix = np.minimum.accumulate(cs[::-1])[::-1]

    i0 = int(np.argmin(cs))
    lo = ts[max(i0 - 1, 0)]
    hi = ts[min(i0 + 1, ts.size - 1)]
    if hi > lo:
        theta_star, fbar = _fminbound(lambda t: float(curve(t)), float(lo), float(hi),
                                      xatol=1e-13 * spec.theta1)
        if fbar > cs[i0]:  # refinement should never lose to the grid
            theta_star, fbar = float(ts[i0]), float(cs[i0])
    else:
        theta_star, fbar = float(ts[i0]), float(cs[i0])

    theta1 = spec.theta1

    def h(t):
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        tt = np.atleast_1d(t_arr)
        out = np.empty_like(tt)
        flat = tt <= theta_star
        out[flat] = fbar
        mid = (~flat) & (tt <= theta1)
        if np.any(mid):
            tm = tt[mid]
            out[mid] = np.maximum(np.minimum(np.interp(tm, ts, suffix), curve(tm)), fbar)
        tail = tt > theta1
        if np.any(tail):
            out[tail] = curve(tt[tail])
        return float(out[0]) if scalar else out.reshape(t_arr.shape)

    check = np.linspace(0.0, spec.theta2, 10001)
    hv = h(np.append(check[check < theta1], theta1))
    deficit = _monotone_deficit(hv)
    if deficit > 1e-9 * max(1.0, float(np.max(hv))):
        raise BridgeNotMonotone(
            f"truncated reaction decreases by {deficit:.3e} on [0, theta1]; "
            "thresholds are inadmissible"
        )

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
