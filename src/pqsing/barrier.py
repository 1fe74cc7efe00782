"""One-dimensional singular barrier profiles.

Xi solves the initial-value problem

    -(|Xi'|^{q-2} Xi')'  =  Xi^{-gamma},     Xi(0) = 0,  Xi'(0) = tau > 0,

rising concavely from zero until the flux z = (Xi')^{q-1} is exhausted at
the blow-down radius R_tau.  Composed with the boundary distance, M*Xi(R-r)
dominates the singular reaction on a collar near r = R; that comparison is
certified here.

Multiplying the equation by Xi' and integrating gives the energy identity

    (Xi')^q = tau^q - c * Xi^{1-gamma},      c = q / ((q-1)(1-gamma)),

so Xi_max = (tau^q/c)^{1/(1-gamma)} and the inverse profile is an incomplete
Beta integral:

    r(Xi) = Xi_max / ((1-gamma) tau) * B(1/(1-gamma), (q-1)/q)
            * I(1/(1-gamma), (q-1)/q; (Xi/Xi_max)^{1-gamma})

with I the regularized incomplete Beta.  The profile is this closed form
and nothing else: Xi at any radius below R_tau inverts r(Xi) by Newton's
method, Xi' follows from the energy identity, and R_tau = r(Xi_max)
exactly.  Both Beta functions are computed here in plain floating point:
B(a, b) from math.gamma (from math.lgamma and a Stirling difference once
Gamma(a+b) would overflow), and B * I by the continued fraction of DLMF
8.17.22, evaluated by the modified Lentz method (Thompson & Barnett,
J. Comput. Phys. 64, 1986), with the symmetry I_y(a, b) = 1 - I_{1-y}(b, a)
above y = (a+1)/(a+b+2), where the fraction converges fastest.  The
conservation audit, by contrast, never touches the energy identity: it
integrates Xi^{-gamma} cell by cell with a fitted power-law rule, so it is
an independent check on the profile.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .errors import BlowDown, CollarTooWide, ConfigurationError, ConvergenceFailure
from .grid import CertificateReport, GridFunction
from .pq_core import Params, lpq_scalar


def _check_exponents(tau: float, q: float, gamma: float) -> None:
    if not (tau > 0.0):
        raise ConfigurationError(f"tau must be positive, got {tau}")
    if not (q > 1.0):
        raise ConfigurationError(f"q must exceed 1, got {q}")
    if not (0.0 < gamma < 1.0):
        raise ConfigurationError(f"gamma must lie in (0,1), got {gamma}")


def energy_constant(q: float, gamma: float) -> float:
    return q / ((q - 1.0) * (1.0 - gamma))


def xi_max(tau: float, q: float, gamma: float) -> float:
    """Height at which the slope vanishes: (tau^q / c)^{1/(1-gamma)}."""
    return (tau ** q / energy_constant(q, gamma)) ** (1.0 / (1.0 - gamma))


def blowdown_radius(tau: float, q: float, gamma: float) -> float:
    """Exact R_tau from the Beta-integral form of r(Xi_max)."""
    _check_exponents(tau, q, gamma)
    a = 1.0 / (1.0 - gamma)
    b = (q - 1.0) / q
    return xi_max(tau, q, gamma) / ((1.0 - gamma) * tau) * _beta(a, b)


# Gamma(x) overflows a double above this argument (Cephes' MAXGAM)
_GAMMA_MAX = 171.62437695630272
# budget of the incomplete-Beta continued fraction: next to its switch point,
# where it converges slowest, it took at most 75 terms for a <= 1e6, b < 1
_CF_TERMS = 10_000
_CF_TINY = 1e-300


def _stirling_tail(x: float) -> float:
    """lgamma(x) - [(x - 1/2) log x - x + log(2 pi)/2], within 2e-17 for x >= 85."""
    x2 = x * x
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * x2)) / x2) / x


def _beta(a: float, b: float) -> float:
    """The Beta function B(a, b) for a, b > 0.

    Below the overflow of Gamma(a+b) it is the Gamma quotient, taken in
    Cephes' order.  Above it, B = exp(lgamma(b) + lgamma(a) - lgamma(a+b))
    with a >= b, where the last difference comes from the Stirling series:
    its terms are O(b log a), whereas lgamma(a) and lgamma(a+b) are
    O(a log a), so their difference would carry O(a log a) ulps of error
    (1e-12 relative at a = 1000).
    """
    if a < b:
        a, b = b, a
    s = a + b
    if s > _GAMMA_MAX:
        ratio = (b - (a - 0.5) * math.log1p(b / a) - b * math.log(s)
                 + _stirling_tail(a) - _stirling_tail(s))
        return math.exp(math.lgamma(b) + ratio)
    ga, gb, gs = math.gamma(a), math.gamma(b), math.gamma(s)
    if abs(ga - gs) > abs(gb - gs):
        return gb / gs * ga
    return ga / gs * gb


def _beta_fraction(a: float, b: float, y: np.ndarray) -> np.ndarray:
    """The continued fraction of I_y(a, b) (DLMF 8.17.22) by modified Lentz.

    Elementwise over y; each entry stops at its own last term.
    """
    def clamp(v):
        return np.where(np.abs(v) >= _CF_TINY, v, _CF_TINY)

    c = np.ones_like(y)
    d = 1.0 / clamp(1.0 - (a + b) * y / (a + 1.0))
    frac = d
    done = np.zeros(y.shape, dtype=bool)
    for m in range(1, _CF_TERMS + 1):
        # even term d_{2m}, then odd term d_{2m+1}
        num = m * (b - m) * y / ((a - 1.0 + 2 * m) * (a + 2 * m))
        d = 1.0 / clamp(1.0 + num * d)
        c = clamp(1.0 + num / c)
        even = d * c
        num = -(a + m) * (a + b + m) * y / ((a + 2 * m) * (a + 1.0 + 2 * m))
        d = 1.0 / clamp(1.0 + num * d)
        c = clamp(1.0 + num / c)
        step = d * c
        frac = np.where(done, frac, frac * even * step)
        done |= np.abs(step - 1.0) <= 2.0 ** -52
        if done.all():
            return frac
    raise ConvergenceFailure(
        f"incomplete Beta continued fraction did not converge in {_CF_TERMS} "
        f"terms at a={a:.17g}, b={b:.17g}, y={y[np.argmin(done)]:.17g}")


def _incomplete_beta(a: float, b: float, y: np.ndarray, beta_ab: float) -> np.ndarray:
    """B_y(a, b) = int_0^y t^(a-1) (1-t)^(b-1) dt, elementwise; beta_ab = B(a, b).

    The regularized I_y(a, b) is B_y(a, b) / B(a, b).  Below the switch
    point the fraction gives B_y directly, so no B enters; above it,
    B_y(a, b) = B(a, b) - B_{1-y}(b, a).
    """
    out = np.where(y <= 0.0, 0.0, beta_ab)
    inside = (y > 0.0) & (y < 1.0)
    below = inside & (y < (a + 1.0) / (a + b + 2.0))
    above = inside & ~below
    yb, ya = y[below], y[above]
    out[below] = yb ** a * (1.0 - yb) ** b / a * _beta_fraction(a, b, yb)
    out[above] = beta_ab - ya ** a * (1.0 - ya) ** b / b * _beta_fraction(b, a, 1.0 - ya)
    return out


# Newton's budget in the Beta inversion; it takes 4-5 steps
_NEWTON_STEPS = 50


def _beta_inverse(a: float, b: float, t: np.ndarray, beta_ab: float) -> np.ndarray:
    """y in [0, 1] with B_y(a, b) = t, elementwise for 0 <= t <= beta_ab = B(a, b).

    Here a > 1 > b, so y -> B_y(a, b) is increasing and convex, and both
    B_y >= y^a / a and B_y >= B(a, b) - (1-y)^b / b hold; as b B(a, b) < 1,
    the smaller of the points where these bounds reach t lies in [0, 1]
    and at or above the root.  Newton's steps, with dB_y/dy = y^(a-1)
    (1-y)^(b-1), fall monotonically from there onto the root.  They stop
    one step after every step is below 1e-13 relative: near y = 1 the value
    B - B_{1-y}(b, a) cancels, so its residual is no stopping test.
    """
    y = np.where(t >= beta_ab, 1.0, 0.0)
    inner = (t > 0.0) & (t < beta_ab)
    ti = t[inner]
    yi = np.minimum((a * ti) ** (1.0 / a), 1.0 - (b * (beta_ab - ti)) ** (1.0 / b))
    small = ti.size == 0
    for _ in range(_NEWTON_STEPS):
        with np.errstate(divide="ignore"):  # infinite slope at y = 1: no step
            step = (_incomplete_beta(a, b, yi, beta_ab) - ti) \
                / (yi ** (a - 1.0) * (1.0 - yi) ** (b - 1.0))
        yi = np.clip(yi - step, 0.0, 1.0)
        if small:
            break
        small = bool(np.all(np.abs(step) <= 1e-13 * yi))
    else:
        raise ConvergenceFailure(f"Beta inversion did not converge in {_NEWTON_STEPS} steps")
    y[inner] = yi
    return y


def _xi_of_radius(s, tau: float, q: float, gamma: float):
    """Xi at radii s >= 0 by inverting the closed-form r(Xi) (Xi_max from R_tau on).

    With a = 1/(1-gamma) and b = (q-1)/q, Xi = Xi_max y^a where
    B_y(a, b) = s (1-gamma) tau / Xi_max.
    """
    a, b = 1.0 / (1.0 - gamma), (q - 1.0) / q
    xm = xi_max(tau, q, gamma)
    s_arr = np.asarray(s, dtype=float)
    t = np.atleast_1d(s_arr) * ((1.0 - gamma) * tau / xm)
    out = xm * _beta_inverse(a, b, t, _beta(a, b)) ** a
    return float(out[0]) if s_arr.ndim == 0 else out


def _slope_from_xi(xi, tau: float, q: float, gamma: float):
    c = energy_constant(q, gamma)
    val = np.maximum(tau ** q - c * np.asarray(xi, dtype=float) ** (1.0 - gamma), 0.0)
    return val ** (1.0 / q)


@dataclasses.dataclass(frozen=True)
class BarrierProfile:
    """Computed barrier: values, slopes, and (if reached) the blow-down radius.

    Invariants: xi(0)=0, xi'(0)=tau, xi strictly increasing, xi' strictly
    decreasing on the retained nodes; all retained slopes are positive.
    """

    tau: float
    q: float
    gamma: float
    xi: GridFunction
    xi_prime: GridFunction
    R_tau: float | None

    def value(self, s):
        """Xi at boundary distances s, by the inversion that gives the nodes."""
        return _xi_of_radius(s, self.tau, self.q, self.gamma)


def solve_barrier(tau: float, q: float, gamma: float, r_max: float,
                  n: int = 10_000) -> BarrierProfile:
    """The barrier on the nodes of [0, r_max] with n uniform cells.

    Every node r < R_tau gets Xi(r) from the closed-form inverse r(Xi), in
    one vectorized Newton solve (see _beta_inverse), and Xi'(r) from the
    energy identity.  If the flux is exhausted before r_max, the profile is
    truncated at the last node with a positive slope, R_tau is reported
    (exactly: blowdown_radius) and a BlowDown warning is emitted.
    """
    _check_exponents(tau, q, gamma)
    if not (r_max > 0.0):
        raise ConfigurationError(f"r_max must be positive, got {r_max}")
    n = int(n)
    if n < 8:
        raise ConfigurationError(f"need at least 8 cells, got {n}")
    xm = xi_max(tau, q, gamma)
    if not (np.finfo(float).tiny <= xm < math.inf):
        raise ConfigurationError(f"Xi_max = {xm:.3e} is not a normal double")
    h = r_max / n
    R_exact = blowdown_radius(tau, q, gamma)
    if h >= 0.25 * R_exact:
        raise ConfigurationError(
            f"step {h:.3e} too coarse for blow-down radius {R_exact:.3e}; "
            "raise n or shrink r_max")

    nodes = np.linspace(0.0, r_max, n + 1)
    xi = _xi_of_radius(nodes[nodes < R_exact], tau, q, gamma)
    xi_prime = _slope_from_xi(xi, tau, q, gamma)
    kept = int(np.flatnonzero(xi_prime > 0.0)[-1]) + 1
    R_tau = None
    if kept < n + 1:
        R_tau = R_exact
        warnings.warn(
            f"flux exhausted at r ~ {R_tau:.6g} < r_max={r_max:.6g}; "
            "profile truncated", BlowDown)
    return BarrierProfile(
        tau=float(tau), q=float(q), gamma=float(gamma),
        xi=GridFunction(nodes[:kept], xi[:kept]),
        xi_prime=GridFunction(nodes[:kept], xi_prime[:kept]),
        R_tau=R_tau,
    )


def conservation_residual(profile: BarrierProfile) -> float:
    """Sup over nodes r >= h of |(Xi')^{q-1} + int_0^r Xi^{-gamma} - tau^{q-1}|.

    The integral is accumulated cell by cell from the node values alone.
    In the start region the substitution w = r^{1-gamma} is used, under
    which int Xi^{-gamma} dr = (1-gamma)^{-1} int (Xi/r)^{-gamma} dw exactly
    and Xi/r is analytic in w; a per-cell quadratic in w (anchored at the
    recorded initial slope for the zero cell) is integrated by
    Gauss-Legendre.  Away from the origin a fitted power-law rule is ample
    because the log-width of a cell is tiny.  Nothing is borrowed from the
    energy identity or the Beta inversion, so the audit checks the ODE's
    integrated form independently of how the profile was computed.
    The resolution of the zero cell degrades as gamma -> 1 (w compresses
    toward a point and most of the flux dies in the first cell); by
    gamma ~ 0.9 the audit, not the profile, is the accuracy floor.
    """
    q, gamma = profile.q, profile.gamma
    r = profile.xi.nodes
    x = profile.xi.values
    if len(r) < 4:
        raise ConfigurationError("profile too short to audit")
    e1 = 1.0 - gamma
    ncell = len(r) - 1
    cells = np.empty(ncell)

    w = r ** e1
    u = np.empty_like(x)
    u[0] = profile.xi_prime.values[0]          # u(0) = Xi'(0), recorded data
    u[1:] = x[1:] / r[1:]
    gl_x, gl_w = np.polynomial.legendre.leggauss(24)

    def gl_cell(w_lo, w_hi, coeffs, w_ref):
        # integrate P(w)^{-gamma} dw / e1 with P quadratic around w_ref
        mid = 0.5 * (w_lo + w_hi)
        half = 0.5 * (w_hi - w_lo)
        wm = mid + half * gl_x
        dp = wm - w_ref
        pv = coeffs[0] + coeffs[1] * dp + coeffs[2] * dp * dp
        if np.any(pv <= 0.0):
            return None
        return half * float(np.dot(gl_w, pv ** (-gamma))) / e1

    kspec = min(32, ncell - 1)
    done = 0
    for i in range(kspec):
        if i == 0:
            # quadratic through the initial slope and nodes 1, 2
            d1, d2 = u[1] - u[0], u[2] - u[0]
            cquad = (d2 / w[2] - d1 / w[1]) / (w[2] - w[1])
            blin = d1 / w[1] - cquad * w[1]
            val = gl_cell(0.0, w[1], (u[0], blin, cquad), 0.0)
        else:
            # Newton form through nodes i, i+1, i+2 (cell inside the span)
            dd1 = (u[i + 1] - u[i]) / (w[i + 1] - w[i])
            dd2 = ((u[i + 2] - u[i + 1]) / (w[i + 2] - w[i + 1]) - dd1) / (w[i + 2] - w[i])
            coeffs = (u[i], dd1 - dd2 * (w[i + 1] - w[i]), dd2)
            val = gl_cell(w[i], w[i + 1], coeffs, w[i])
        if val is None:
            break  # degenerate fit: leave this and later cells to power law
        cells[i] = val
        done = i + 1

    if done == 0:  # zero cell cannot use the power-law slice (r=0 endpoint)
        s0 = math.log(x[2] / x[1]) / math.log(r[2] / r[1])
        a0 = x[1] / r[1] ** s0
        cells[0] = a0 ** (-gamma) * r[1] ** (1.0 - gamma * s0) / (1.0 - gamma * s0)
        done = 1

    # power-law rule beyond the start region
    if done < ncell:
        r0, r1 = r[done:-1], r[done + 1:]
        x0, x1 = x[done:-1], x[done + 1:]
        sigma = np.log(x1 / x0) / np.log(r1 / r0)
        amp = x0 / r0 ** sigma
        expo = 1.0 - gamma * sigma
        safe = np.abs(expo) > 1e-8
        vals = np.empty(ncell - done)
        vals[safe] = amp[safe] ** (-gamma) * (
            r1[safe] ** expo[safe] - r0[safe] ** expo[safe]) / expo[safe]
        vals[~safe] = amp[~safe] ** (-gamma) * np.log(r1[~safe] / r0[~safe])
        cells[done:] = vals

    integral = np.concatenate([[0.0], np.cumsum(cells)])
    flux = profile.xi_prime.values ** (q - 1.0)
    resid = flux + integral - profile.tau ** (q - 1.0)
    return float(np.max(np.abs(resid[1:])))


def certify_smallest_exponent(profile: BarrierProfile, p: float) -> CertificateReport:
    """Check -d/dr (Xi')^{p-1} >= 0 at all cells, for a lower exponent p.

    Because Xi' is positive and decreasing, the p-flux inherits the sign of
    the q-flux derivative for every 1 < p <= q; the margins are the
    per-cell decrements of (Xi')^{p-1} divided by the step, held to
    -1e-12 max(1, tau^{p-1}).
    """
    if not (1.0 < p <= profile.q):
        raise ConfigurationError(f"need 1 < p <= q={profile.q}, got p={p}")
    tol = 1e-12 * max(1.0, profile.tau ** (p - 1.0))
    flux = profile.xi_prime.values ** (p - 1.0)
    margins = -np.diff(flux) / profile.xi.h
    passed = bool(np.min(margins) >= -tol)
    return CertificateReport(
        kind="smallest_exponent", margins=margins, passed=passed,
        tolerance=float(tol),
        detail={"p": float(p), "q": profile.q, "tau": profile.tau,
                "min_margin": float(np.min(margins))},
    )


@dataclasses.dataclass(frozen=True)
class ScalingReport:
    """Fitted vs candidate exponents for Xi_tau(r) = tau^a Xi_1(tau^b r).

    a_fit/b_fit come from the computed amplitudes and blow-down radii
    (least squares in log-log over the solved taus plus the tau=1
    baseline).  Two closed-form candidates ride along: (a_energy,
    b_energy) follows from the energy identity, and (a_alt, b_alt) is the
    reciprocal-sign variant that is easy to produce by hand when juggling
    the exponents.  The identity residuals say which one the data
    supports; nothing is asserted here.
    """

    tau1: float
    tau2: float
    q: float
    gamma: float
    a_fit: float
    b_fit: float
    a_energy: float
    b_energy: float
    a_alt: float
    b_alt: float
    residual_fit: float
    residual_energy: float
    residual_alt: float
    R_tau1: float
    R_tau2: float
    xi_max1: float
    xi_max2: float

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "tau1", "tau2", "q", "gamma", "a_fit", "b_fit",
            "a_energy", "b_energy", "a_alt", "b_alt",
            "residual_fit", "residual_energy", "residual_alt",
            "R_tau1", "R_tau2", "xi_max1", "xi_max2")}


def _solve_past_blowdown(tau: float, q: float, gamma: float) -> BarrierProfile:
    r_max = 1.02 * blowdown_radius(tau, q, gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BlowDown)
        return solve_barrier(tau, q, gamma, r_max, n=4096)


def _identity_residual(prof: BarrierProfile, base: BarrierProfile,
                       a: float, b: float) -> float:
    """sup |Xi_tau(r) - s^a Xi_base(s^b r)| / max Xi_tau over usable nodes."""
    s = prof.tau / base.tau
    mapped = s ** b * prof.xi.nodes
    keep = mapped <= base.xi.nodes[-1]
    if not np.any(keep):
        return float("inf")
    pred = s ** a * base.xi.interp(mapped[keep])
    return float(np.max(np.abs(prof.xi.values[keep] - pred))
                 / np.max(prof.xi.values))


def check_scaling(tau1: float, tau2: float, q: float, gamma: float) -> ScalingReport:
    """Fit (a, b) in Xi_tau(r) = tau^a Xi_1(tau^b r) from computed profiles.

    Solves each tau (and the tau=1 baseline) on 4096 cells just past
    blow-down, fits the amplitude exponent from log Xi_max and the argument
    exponent from log R_tau, and reports sup-norm identity residuals for the
    fitted pair and both closed-form candidates.
    """
    _check_exponents(tau1, q, gamma)
    _check_exponents(tau2, q, gamma)
    base = _solve_past_blowdown(1.0, q, gamma)
    profs = {1.0: base}
    for t in (tau1, tau2):
        if t not in profs:
            profs[t] = _solve_past_blowdown(t, q, gamma)
    p1, p2 = profs[tau1], profs[tau2]

    taus = np.array(sorted(profs))
    if len(taus) > 1:
        amps = np.array([np.max(profs[t].xi.values) for t in taus])
        rads = np.array([profs[t].R_tau for t in taus])
        a_fit = float(np.polyfit(np.log(taus), np.log(amps), 1)[0])
        b_fit = float(-np.polyfit(np.log(taus), np.log(rads), 1)[0])
    else:
        a_fit = b_fit = float("nan")

    a_energy = q / (1.0 - gamma)
    b_energy = -(q + gamma - 1.0) / (1.0 - gamma)
    a_alt = q / (gamma - 1.0)
    b_alt = -q / (q + gamma - 1.0)

    def worst(a, b):
        if math.isnan(a) or math.isnan(b):
            return float("nan")
        return max(_identity_residual(p1, base, a, b),
                   _identity_residual(p2, base, a, b))

    return ScalingReport(
        tau1=float(tau1), tau2=float(tau2), q=float(q), gamma=float(gamma),
        a_fit=a_fit, b_fit=b_fit,
        a_energy=a_energy, b_energy=b_energy, a_alt=a_alt, b_alt=b_alt,
        residual_fit=worst(a_fit, b_fit),
        residual_energy=worst(a_energy, b_energy),
        residual_alt=worst(a_alt, b_alt),
        R_tau1=float(p1.R_tau), R_tau2=float(p2.R_tau),
        xi_max1=float(np.max(p1.xi.values)), xi_max2=float(np.max(p2.xi.values)),
    )


def minimal_M(lam: float, q: float, gamma: float) -> float:
    """Smallest amplitude (floored at 1) with M^{q-1+gamma} >= lam."""
    if lam < 0.0:
        raise ConfigurationError(f"lam must be nonnegative, got {lam}")
    return max(1.0, lam ** (1.0 / (q - 1.0 + gamma)))


def certify_barrier_supersolution(profile: BarrierProfile, params: Params,
                                  M_lambda: float, nu: float | None = None) -> CertificateReport:
    """Certify -L w >= lam / w^gamma for w = M * Xi(R - r) on a collar.

    The collar is {R - nu < r < R}.  Admissibility of nu is the condition

        Xi(nu)^{-gamma} >= (1/2) * ||D|| * tau^{p-1} (tau^{q-p} + 1),

    with ||D|| = (N-1)/(R-nu) the worst boundary-distance Laplacian on the
    collar; otherwise CollarTooWide.  The operator value at each node uses
    the profile identities

        -L w = M^{q-1} [Xi^{-g} + (N-1) Xi'^{q-1}/r]
             + M^{p-1} [(p-1)/(q-1) Xi'^{p-q} Xi^{-g} + (N-1) Xi'^{p-1}/r]

    (all four terms nonnegative on the ball), where the only numerical
    input is the computed (Xi, Xi') pair -- honest to the profile's own
    conservation defect and immune to the O(h^{-gamma}) noise a divided
    difference would pick up against the singular edge.  A divided-
    difference cross-check is still run away from the edge (s >= 16h) and
    recorded in detail as ``fd_agreement``; it does not gate the pass.  A
    margin passes down to -1e-10 max(1, lam / w^gamma).
    """
    p, q, gamma, N, R, lam = (params.p, params.q, params.gamma,
                              params.dim, params.radius, params.lam)
    if abs(q - profile.q) > 1e-12 or abs(gamma - profile.gamma) > 1e-12:
        raise ConfigurationError(
            f"profile solved for (q={profile.q}, gamma={profile.gamma}) but "
            f"params carry (q={q}, gamma={gamma})")
    if M_lambda <= 0.0:
        raise ConfigurationError("M_lambda must be positive")
    tau = profile.tau
    s_nodes = profile.xi.nodes
    cover = s_nodes[-1] if profile.R_tau is None else min(s_nodes[-1], profile.R_tau)
    if nu is None:
        nu = min(0.5 * R, 0.95 * cover)
    if not (0.0 < nu < R):
        raise ConfigurationError(f"collar width nu={nu} must lie in (0, R)")
    if nu > cover * (1.0 + 1e-12):
        raise ConfigurationError(
            f"profile covers boundary distances up to {cover:.6g} < nu={nu:.6g}")

    norm_dd = (N - 1.0) / (R - nu)
    cond_lhs = float(profile.value(nu)) ** (-gamma)
    cond_rhs = 0.5 * norm_dd * tau ** (p - 1.0) * (tau ** (q - p) + 1.0)
    if cond_lhs < cond_rhs * (1.0 - 1e-12):
        raise CollarTooWide(
            f"1/Xi^gamma(nu) = {cond_lhs:.6g} < {cond_rhs:.6g} "
            f"= ||D|| tau^(p-1)(tau^(q-p)+1)/2 at nu={nu:.6g}")

    sel = (s_nodes > 0.0) & (s_nodes <= nu * (1.0 + 1e-12))
    s = s_nodes[sel]
    x = profile.xi.values[sel]
    xp = profile.xi_prime.values[sel]
    r = R - s
    Mq = M_lambda ** (q - 1.0)
    Mp = M_lambda ** (p - 1.0)
    op_val = (Mq * (x ** (-gamma) + (N - 1.0) * xp ** (q - 1.0) / r)
              + Mp * ((p - 1.0) / (q - 1.0) * xp ** (p - q) * x ** (-gamma)
                      + (N - 1.0) * xp ** (p - 1.0) / r))
    reaction = lam * (M_lambda * x) ** (-gamma)
    margins = op_val - reaction
    scale = np.maximum(1.0, reaction)
    tol = 1e-10
    passed = bool(np.all(margins >= -tol * scale))

    # divided-difference cross-check away from the singular edge
    h = profile.xi.h
    idx = np.nonzero(sel)[0]
    chk = idx[(s >= 16.0 * h) & (idx >= 1) & (idx + 1 < len(s_nodes))]
    fd_agreement = float("nan")
    if len(chk) > 0:
        w_all = M_lambda * profile.xi.values
        d_lo = (w_all[chk] - w_all[chk - 1]) / h       # gradient wrt s below node
        d_hi = (w_all[chk + 1] - w_all[chk]) / h       # above node
        r_at = R - s_nodes[chk]
        r_plus = r_at + 0.5 * h                        # half node toward origin-facing side
        r_minus = r_at - 0.5 * h
        F_plus = lpq_scalar(d_lo, params)   # flux at r+h/2 is -F(d_lo); signs folded below
        F_minus = lpq_scalar(d_hi, params)
        fd_val = (r_plus ** (N - 1.0) * F_plus - r_minus ** (N - 1.0) * F_minus) \
            / (h * r_at ** (N - 1.0))
        ana = np.interp(s_nodes[chk], s, op_val)
        fd_agreement = float(np.max(np.abs(fd_val - ana) / np.maximum(1.0, np.abs(ana))))

    return CertificateReport(
        kind="barrier_supersolution", margins=margins, passed=passed,
        tolerance=float(tol),
        detail={
            "nu": float(nu), "M_lambda": float(M_lambda),
            "lam": float(lam),
            "collar_condition_lhs": cond_lhs, "collar_condition_rhs": cond_rhs,
            "amplitude_ok": bool(M_lambda ** (q - 1.0 + gamma) >= lam * (1.0 - 1e-12)),
            "n_collar_nodes": int(len(s)),
            "min_margin": float(np.min(margins)),
            "fd_agreement": fd_agreement,
        },
    )
