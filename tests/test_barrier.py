"""Boundary-collar barrier: profile, conservation invariant, certificates."""
import warnings

import numpy as np
import pytest

from pqsing import (
    Params,
    blowdown_radius,
    certify_barrier_supersolution,
    certify_smallest_exponent,
    check_scaling,
    conservation_residual,
    minimal_M,
    solve_barrier,
    xi_max,
)
from pqsing import barrier
from pqsing.errors import BlowDown, CollarTooWide, ConfigurationError


def solve_quiet(tau, q, gamma, r_max, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BlowDown)
        return solve_barrier(tau, q, gamma, r_max, **kw)


# ---------------------------------------------------------------- profile

def test_profile_invariants_and_blowdown():
    prof = solve_quiet(1.0, 3.0, 0.5, r_max=1.0)
    assert prof.xi.values[0] == 0.0
    assert prof.xi_prime.values[0] == pytest.approx(1.0)
    assert np.all(np.diff(prof.xi.values) > 0.0)
    assert np.all(np.diff(prof.xi_prime.values) < 0.0)
    # q=3, gamma=0.5: flux exhausts at finite radius with value (q-1)(1-gamma)/... etc.
    assert blowdown_radius(1.0, 3.0, 0.5) == pytest.approx(0.2, rel=1e-12)
    assert xi_max(1.0, 3.0, 0.5) == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert prof.R_tau == pytest.approx(0.2, rel=1e-7)
    assert float(np.max(prof.xi.values)) == pytest.approx(1.0 / 9.0, rel=1e-4)


def test_blowdown_warns():
    with pytest.warns(BlowDown):
        solve_barrier(1.0, 3.0, 0.5, r_max=1.0)


def test_profile_interpolators():
    prof = solve_quiet(1.0, 3.0, 0.5, r_max=0.1)   # stops before blow-down
    assert prof.R_tau is None
    s = 0.05
    assert prof.value(s) == pytest.approx(float(prof.xi.interp(s)))
    assert prof.slope(s) < 1.0


def test_exponent_guards():
    with pytest.raises(ConfigurationError):
        solve_barrier(-1.0, 3.0, 0.5, r_max=1.0)
    with pytest.raises(ConfigurationError):
        solve_barrier(1.0, 3.0, 1.5, r_max=1.0)
    with pytest.raises(ConfigurationError):
        solve_barrier(1.0, 0.5, 0.5, r_max=1.0)


# ---------------------------------------------------------------- conservation

@pytest.mark.parametrize("tau,q,gamma,bound", [
    (1.0, 3.0, 0.5, 1e-6),
    (0.5, 3.0, 0.5, 1e-6),
    (2.0, 2.5, 0.3, 1e-6),
])
def test_conservation_invariant(tau, q, gamma, bound):
    prof = solve_quiet(tau, q, gamma, r_max=2.0 * blowdown_radius(tau, q, gamma))
    assert conservation_residual(prof) <= bound


def test_conservation_near_gamma_one_documented_floor():
    # the invariant's xi^{1-gamma} weight degenerates as gamma -> 1 and the
    # RK4 profile feels it; the residual floor sits around 1e-3 there
    prof = solve_quiet(1.0, 3.0, 0.9, r_max=2.0 * blowdown_radius(1.0, 3.0, 0.9))
    res = conservation_residual(prof)
    assert res <= 5e-3
    assert res > 1e-6        # genuinely worse than the smooth-gamma cases


# ---------------------------------------------------------------- certificates

@pytest.mark.parametrize("p", [1.5, 2.5])
def test_smallest_exponent_sign(p):
    prof = solve_quiet(1.0, 3.0, 0.5, r_max=1.0)
    cert = certify_smallest_exponent(prof, p)
    assert cert.passed
    assert cert.min_margin > 0.0


def test_smallest_exponent_needs_p_below_q():
    prof = solve_quiet(1.0, 3.0, 0.5, r_max=1.0)
    with pytest.raises(ConfigurationError):
        certify_smallest_exponent(prof, 3.5)


def test_scaling_report():
    rep = check_scaling(0.5, 2.0, 3.0, 0.5)
    # the energy-identity pair reproduces the data essentially exactly;
    # the sign-flipped variant does not
    assert rep.a_fit == pytest.approx(rep.a_energy, abs=1e-6)
    assert rep.b_fit == pytest.approx(rep.b_energy, abs=1e-6)
    assert rep.residual_energy <= 1e-10
    assert rep.residual_fit <= 1e-10
    assert rep.residual_alt > 1.0
    assert rep.a_energy == pytest.approx(6.0)        # q/(1-gamma)
    assert rep.b_energy == pytest.approx(-5.0)       # -(q+gamma-1)/(1-gamma)
    d = rep.as_dict()
    assert d["R_tau2"] == pytest.approx(rep.R_tau2)


def test_minimal_M():
    assert minimal_M(0.5, 1.0, 3.0, 0.5) == 1.0                 # floored
    assert minimal_M(32.0, 1.0, 3.0, 0.5) == pytest.approx(32.0 ** 0.4)
    with pytest.raises(ConfigurationError):
        minimal_M(1.0, 0.0, 3.0, 0.5)
    with pytest.raises(ConfigurationError):
        minimal_M(-1.0, 1.0, 3.0, 0.5)


def test_barrier_supersolution_certificate(cfg1):
    prof = solve_quiet(1.0, 3.0, 0.5, r_max=1.0)
    M = minimal_M(cfg1.params.lam, 1.0, 3.0, 0.5)
    assert M == 1.0
    cert = certify_barrier_supersolution(prof, cfg1.params, M)
    assert cert.passed
    assert cert.min_margin == pytest.approx(6.6176499596958545, rel=1e-6)
    assert cert.detail["amplitude_ok"]
    # the semi-analytic flux derivative agrees with its finite-difference probe
    assert cert.detail["fd_agreement"] <= 1e-3


def test_barrier_supersolution_collar_guard(cfg1):
    prof = solve_quiet(1.0, 3.0, 0.5, r_max=1.0)
    # a collar wider than the profile's solved reach is a usage error ...
    with pytest.raises(ConfigurationError):
        certify_barrier_supersolution(prof, cfg1.params, 1.0, nu=0.35)
    # ... whereas a covered collar that breaks the curvature condition is
    # the mathematical failure mode: steep slopes push the right-hand side
    # past 1/Xi^gamma well inside the ball
    steep = solve_quiet(6.0, 3.0, 0.5, r_max=1.0)
    with pytest.raises(CollarTooWide):
        certify_barrier_supersolution(steep, cfg1.params, 1.0, nu=0.5)


# ---------------------------------------------------------------- root finder

def test_brentq_matches_scipy_on_the_exact_start():
    # the exact-start inversion of solve_barrier, over tau x q x gamma and
    # 16 radii in (0, R_tau/4]: the port must return scipy's bits
    from scipy.optimize import brentq

    cases = 0
    for tau in (0.5, 1.0, 2.0, 3.7):
        for q in (1.5, 2.0, 3.0, 5.0):
            for gamma in (0.1, 0.5, 0.9):
                xm = xi_max(tau, q, gamma)
                for r in np.linspace(0.0, 0.25 * blowdown_radius(tau, q, gamma), 17)[1:]:
                    f = lambda x: barrier._radius_of_xi(x, tau, q, gamma) - r
                    args = (f, 0.0, xm * (1.0 - 1e-15))
                    want = brentq(*args, xtol=1e-300, rtol=8.9e-16)
                    assert barrier._brentq(*args, xtol=1e-300, rtol=8.9e-16) == want
                    cases += 1
    assert cases == 768


def test_brentq_guards():
    with pytest.raises(ConfigurationError):
        barrier._brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, rtol=8.9e-16)
    assert barrier._brentq(lambda x: x, 0.0, 1.0, xtol=1e-12, rtol=8.9e-16) == 0.0
