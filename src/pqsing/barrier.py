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

with I the regularized incomplete Beta.  We use the closed form to start the
integrator off the r=0 singularity (where Xi^{-gamma} is not Lipschitz) and
as the oracle for R_tau = r(Xi_max).  The conservation audit, by contrast,
never touches the energy identity: it integrates Xi^{-gamma} cell by cell
with a fitted power-law rule, so it is an independent check on the profile.
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
    from scipy import special

    _check_exponents(tau, q, gamma)
    a = 1.0 / (1.0 - gamma)
    b = (q - 1.0) / q
    return xi_max(tau, q, gamma) / ((1.0 - gamma) * tau) * special.beta(a, b)


def _radius_of_xi(xi, tau: float, q: float, gamma: float):
    """r(Xi) on the rising branch, exact up to the Beta evaluation."""
    from scipy import special

    a = 1.0 / (1.0 - gamma)
    b = (q - 1.0) / q
    xm = xi_max(tau, q, gamma)
    y = np.clip((np.asarray(xi, dtype=float) / xm) ** (1.0 - gamma), 0.0, 1.0)
    return xm / ((1.0 - gamma) * tau) * special.beta(a, b) * special.betainc(a, b, y)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of f in the sign-changing bracket [xa, xb] by Brent's method.

    A step-for-step reproduction of scipy.optimize.brentq (scipy's C brentq:
    inverse quadratic interpolation, secant or bisection on the same
    tests in the same float order), so it returns the same bits without
    importing scipy.optimize.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ConfigurationError("f(a) and f(b) must have different signs")
    for _ in range(100):  # scipy's default maxiter
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # scipy's C code gets inf or nan: rejected below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise ConvergenceFailure("brentq did not converge in 100 iterations")


def _slope_from_xi(xi, tau: float, q: float, gamma: float):
    c = energy_constant(q, gamma)
    val = np.maximum(tau ** q - c * np.asarray(xi, dtype=float) ** (1.0 - gamma), 0.0)
    return val ** (1.0 / q)


@dataclasses.dataclass(frozen=True)
class BarrierProfile:
    """Computed barrier: values, slopes, and (if reached) the blow-down radius.

    Invariants: xi(0)=0, xi'(0)=tau, xi strictly increasing, xi' strictly
    decreasing on the retained nodes; all retained fluxes are positive.
    """

    tau: float
    q: float
    gamma: float
    xi: GridFunction
    xi_prime: GridFunction
    R_tau: float | None

    def value(self, s):
        return self.xi.interp(s)

    def slope(self, s):
        return self.xi_prime.interp(s)


def solve_barrier(tau: float, q: float, gamma: float, r_max: float,
                  n: int = 10_000) -> BarrierProfile:
    """Integrate the barrier IVP on [0, r_max] with n uniform cells.

    The first few nodes (up to 16, fewer if blow-down is close) come from
    inverting the exact r(Xi); from there a classical fourth-order step
    advances (Xi, z) with z = (Xi')^{q-1}, z' = -Xi^{-gamma}.  If z hits
    zero before r_max the profile is truncated at the last positive-flux
    node, R_tau is estimated by linear interpolation in z (z' tends to the
    constant -Xi_max^{-gamma} there, so z is locally linear), and a
    BlowDown warning is emitted.
    """
    _check_exponents(tau, q, gamma)
    if not (r_max > 0.0):
        raise ConfigurationError(f"r_max must be positive, got {r_max}")
    n = int(n)
    if n < 8:
        raise ConfigurationError(f"need at least 8 cells, got {n}")
    h = r_max / n
    R_exact = blowdown_radius(tau, q, gamma)
    if h >= 0.25 * R_exact:
        raise ConfigurationError(
            f"step {h:.3e} too coarse for blow-down radius {R_exact:.3e}; "
            "raise n or shrink r_max")

    nodes = np.linspace(0.0, r_max, n + 1)
    xm = xi_max(tau, q, gamma)
    inv_exp = 1.0 / (q - 1.0)

    xi = np.zeros(n + 1)
    z = np.zeros(n + 1)
    z[0] = tau ** (q - 1.0)

    # exact start: invert r(Xi) at the first K nodes
    K = min(16, n - 1, max(2, int(0.25 * R_exact / h)))
    for i in range(1, K + 1):
        ri = nodes[i]
        f = lambda x: _radius_of_xi(x, tau, q, gamma) - ri
        xi[i] = _brentq(f, 0.0, xm * (1.0 - 1e-15), xtol=1e-300, rtol=8.9e-16)
        z[i] = _slope_from_xi(xi[i], tau, q, gamma) ** (q - 1.0)

    def rhs(x, zz):
        dz = -max(x, 1e-300) ** (-gamma)
        dx = max(zz, 0.0) ** inv_exp
        return dx, dz

    truncate_at = None
    R_tau = None
    for i in range(K, n):
        x0, z0 = xi[i], z[i]
        k1x, k1z = rhs(x0, z0)
        k2x, k2z = rhs(x0 + 0.5 * h * k1x, z0 + 0.5 * h * k1z)
        k3x, k3z = rhs(x0 + 0.5 * h * k2x, z0 + 0.5 * h * k2z)
        k4x, k4z = rhs(x0 + h * k3x, z0 + h * k3z)
        x1 = x0 + h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        z1 = z0 + h / 6.0 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        if z1 <= 0.0:
            R_tau = nodes[i] + h * z0 / (z0 - z1)
            truncate_at = i
            break
        xi[i + 1], z[i + 1] = x1, z1

    if truncate_at is not None:
        warnings.warn(
            f"flux exhausted at r ~ {R_tau:.6g} < r_max={r_max:.6g}; "
            "profile truncated", BlowDown)
        nodes = nodes[: truncate_at + 1]
        xi = xi[: truncate_at + 1]
        z = z[: truncate_at + 1]

    xi_prime = z ** inv_exp
    return BarrierProfile(
        tau=float(tau), q=float(q), gamma=float(gamma),
        xi=GridFunction(nodes, xi),
        xi_prime=GridFunction(nodes, xi_prime),
        R_tau=R_tau,
    )


def conservation_residual(profile: BarrierProfile, q: float | None = None,
                          gamma: float | None = None) -> float:
    """Sup over nodes r >= h of |(Xi')^{q-1} + int_0^r Xi^{-gamma} - tau^{q-1}|.

    The integral is accumulated cell by cell from the node values alone.
    In the start region the substitution w = r^{1-gamma} is used, under
    which int Xi^{-gamma} dr = (1-gamma)^{-1} int (Xi/r)^{-gamma} dw exactly
    and Xi/r is analytic in w; a per-cell quadratic in w (anchored at the
    recorded initial slope for the zero cell) is integrated by
    Gauss-Legendre.  Away from the origin a fitted power-law rule is ample
    because the log-width of a cell is tiny.  Nothing is borrowed from the
    energy identity, so the audit is independent of the start-up scheme.
    The resolution of the zero cell degrades as gamma -> 1 (w compresses
    toward a point and most of the flux dies in the first cell); by
    gamma ~ 0.9 the audit, not the profile, is the accuracy floor.
    """
    q = profile.q if q is None else q
    gamma = profile.gamma if gamma is None else gamma
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


def certify_smallest_exponent(profile: BarrierProfile, p: float,
                              tol: float | None = None) -> CertificateReport:
    """Check -d/dr (Xi')^{p-1} >= 0 at all cells, for a lower exponent p.

    Because Xi' is positive and decreasing, the p-flux inherits the sign of
    the q-flux derivative for every 1 < p <= q; the margins are the
    per-cell decrements of (Xi')^{p-1} divided by the step.
    """
    if not (1.0 < p <= profile.q):
        raise ConfigurationError(f"need 1 < p <= q={profile.q}, got p={p}")
    if tol is None:
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


def _solve_past_blowdown(tau: float, q: float, gamma: float, n: int) -> BarrierProfile:
    r_max = 1.02 * blowdown_radius(tau, q, gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BlowDown)
        prof = solve_barrier(tau, q, gamma, r_max, n=n)
    if prof.R_tau is None:  # pragma: no cover - r_max sits beyond blow-down
        raise ConfigurationError("blow-down not reached past its exact radius")
    return prof


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


def check_scaling(tau1: float, tau2: float, q: float, gamma: float,
                  n: int = 4096) -> ScalingReport:
    """Fit (a, b) in Xi_tau(r) = tau^a Xi_1(tau^b r) from computed profiles.

    Solves each tau (and the tau=1 baseline) just past blow-down, fits the
    amplitude exponent from log Xi_max and the argument exponent from
    log R_tau, and reports sup-norm identity residuals for the fitted pair
    and both closed-form candidates.
    """
    _check_exponents(tau1, q, gamma)
    _check_exponents(tau2, q, gamma)
    base = _solve_past_blowdown(1.0, q, gamma, n)
    profs = {1.0: base}
    for t in (tau1, tau2):
        if t not in profs:
            profs[t] = _solve_past_blowdown(t, q, gamma, n)
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


def minimal_M(lam: float, beta: float, q: float, gamma: float) -> float:
    """Smallest amplitude (floored at 1) with beta * M^{q-1+gamma} >= lam."""
    if beta <= 0.0:
        raise ConfigurationError(f"beta must be positive, got {beta}")
    if lam < 0.0:
        raise ConfigurationError(f"lam must be nonnegative, got {lam}")
    return max(1.0, (lam / beta) ** (1.0 / (q - 1.0 + gamma)))


def certify_barrier_supersolution(profile: BarrierProfile, params: Params,
                                  M_lambda: float, alpha: float = 1.0,
                                  beta: float = 1.0, nu: float | None = None,
                                  tol: float = 1e-10) -> CertificateReport:
    """Certify -L^{alpha,beta} w >= lam / w^gamma for w = M * Xi(R - r) on a collar.

    The collar is {R - nu < r < R}.  Admissibility of nu is the condition

        Xi(nu)^{-gamma} >= (1/2) * ||D|| * tau^{p-1} (beta tau^{q-p} + alpha),

    with ||D|| = (N-1)/(R-nu) the worst boundary-distance Laplacian on the
    collar; otherwise CollarTooWide.  The operator value at each node uses
    the profile identities

        -L w = beta M^{q-1} [Xi^{-g} + (N-1) Xi'^{q-1}/r]
             + alpha M^{p-1} [(p-1)/(q-1) Xi'^{p-q} Xi^{-g} + (N-1) Xi'^{p-1}/r]

    (all four terms nonnegative on the ball), where the only numerical
    input is the computed (Xi, Xi') pair -- honest to the profile's own
    conservation defect and immune to the O(h^{-gamma}) noise a divided
    difference would pick up against the singular edge.  A divided-
    difference cross-check is still run away from the edge (s >= 16h) and
    recorded in detail as ``fd_agreement``; it does not gate the pass.
    """
    p, q, gamma, N, R, lam = (params.p, params.q, params.gamma,
                              params.dim, params.radius, params.lam)
    if abs(q - profile.q) > 1e-12 or abs(gamma - profile.gamma) > 1e-12:
        raise ConfigurationError(
            f"profile solved for (q={profile.q}, gamma={profile.gamma}) but "
            f"params carry (q={q}, gamma={gamma})")
    if M_lambda <= 0.0 or alpha <= 0.0 or beta <= 0.0:
        raise ConfigurationError("M_lambda, alpha, beta must all be positive")
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
    cond_rhs = 0.5 * norm_dd * tau ** (p - 1.0) * (beta * tau ** (q - p) + alpha)
    if cond_lhs < cond_rhs * (1.0 - 1e-12):
        raise CollarTooWide(
            f"1/Xi^gamma(nu) = {cond_lhs:.6g} < {cond_rhs:.6g} "
            f"= ||D|| tau^(p-1)(beta tau^(q-p)+alpha)/2 at nu={nu:.6g}")

    sel = (s_nodes > 0.0) & (s_nodes <= nu * (1.0 + 1e-12))
    s = s_nodes[sel]
    x = profile.xi.values[sel]
    xp = profile.xi_prime.values[sel]
    r = R - s
    Mq = M_lambda ** (q - 1.0)
    Mp = M_lambda ** (p - 1.0)
    op_val = (beta * Mq * (x ** (-gamma) + (N - 1.0) * xp ** (q - 1.0) / r)
              + alpha * Mp * ((p - 1.0) / (q - 1.0) * xp ** (p - q) * x ** (-gamma)
                              + (N - 1.0) * xp ** (p - 1.0) / r))
    reaction = lam * (M_lambda * x) ** (-gamma)
    margins = op_val - reaction
    scale = np.maximum(1.0, reaction)
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
        F_plus = lpq_scalar(d_lo, params, alpha, beta)   # flux at r+h/2 is -F(d_lo); signs folded below
        F_minus = lpq_scalar(d_hi, params, alpha, beta)
        fd_val = (r_plus ** (N - 1.0) * F_plus - r_minus ** (N - 1.0) * F_minus) \
            / (h * r_at ** (N - 1.0))
        ana = np.interp(s_nodes[chk], s, op_val)
        fd_agreement = float(np.max(np.abs(fd_val - ana) / np.maximum(1.0, np.abs(ana))))

    return CertificateReport(
        kind="barrier_supersolution", margins=margins, passed=passed,
        tolerance=float(tol),
        detail={
            "nu": float(nu), "M_lambda": float(M_lambda),
            "alpha": float(alpha), "beta": float(beta), "lam": float(lam),
            "collar_condition_lhs": cond_lhs, "collar_condition_rhs": cond_rhs,
            "amplitude_ok": bool(beta * M_lambda ** (q - 1.0 + gamma) >= lam * (1.0 - 1e-12)),
            "n_collar_nodes": int(len(s)),
            "min_margin": float(np.min(margins)),
            "fd_agreement": fd_agreement,
        },
    )
