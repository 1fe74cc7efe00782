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
from pqsing.errors import BlowDown, CollarTooWide, ConfigurationError, ConvergenceFailure


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
    # value() is the inversion that gives the nodes
    np.testing.assert_allclose(prof.value(prof.xi.nodes), prof.xi.values, rtol=1e-14, atol=0.0)
    assert prof.xi_prime.interp(s) < 1.0   # the slope falls from tau = 1


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
    # the audit's zero cell degrades as gamma -> 1 (most of the flux dies
    # in it), so here the audit, not the profile, is the floor: it reads
    # 2.95e-4 on the exact inversion as it did on the former RK4 profile
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
    assert minimal_M(0.5, 3.0, 0.5) == 1.0                 # floored
    assert minimal_M(32.0, 3.0, 0.5) == pytest.approx(32.0 ** 0.4)
    with pytest.raises(ConfigurationError):
        minimal_M(-1.0, 3.0, 0.5)


def test_barrier_supersolution_certificate(cfg1):
    prof = solve_quiet(1.0, 3.0, 0.5, r_max=1.0)
    M = minimal_M(cfg1.params.lam, 3.0, 0.5)
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


# ---------------------------------------------------------------- Beta inversion

def test_nodes_match_betaincinv():
    # every retained node against scipy's inverse of the regularized
    # incomplete Beta, Xi = Xi_max y^a with I_y(a, b) = r (1-gamma) tau /
    # (Xi_max B(a, b)); gamma = 0.995 reaches the lgamma branch of _beta,
    # and there Xi_max underflows for all but the steepest tau and q
    from scipy import special

    compared = refused = 0
    for tau in (0.5, 1.0, 2.0):
        for q in (1.5, 2.5, 3.0, 5.0):
            for gamma in (0.1, 0.5, 0.9, 0.995):
                xm = xi_max(tau, q, gamma)
                if not xm >= np.finfo(float).tiny:
                    with pytest.raises(ConfigurationError, match="not a normal double"):
                        solve_barrier(tau, q, gamma, r_max=1.0)
                    refused += 1
                    continue
                R = blowdown_radius(tau, q, gamma)
                a, b = 1.0 / (1.0 - gamma), (q - 1.0) / q
                scale = (1.0 - gamma) * tau / (xm * barrier._beta(a, b))
                for r_max in (2.0 * R, 0.5 * R):
                    prof = solve_quiet(tau, q, gamma, r_max)
                    assert prof.R_tau == (R if r_max > R else None)
                    y = special.betaincinv(a, b, prof.xi.nodes * scale)
                    np.testing.assert_allclose(prof.xi.values, xm * y ** a, rtol=1e-13, atol=0.0)
                    assert np.all(np.diff(prof.xi.values) > 0.0)
                    assert np.all(np.diff(prof.xi_prime.values) < 0.0)
                    compared += 1
    assert (compared, refused) == (2 * 37, 11)


def test_beta_inverse_failure_is_a_convergence_failure(monkeypatch):
    monkeypatch.setattr(barrier, "_NEWTON_STEPS", 2)
    with pytest.raises(ConvergenceFailure, match="did not converge in 2 steps"):
        solve_barrier(1.0, 3.0, 0.5, r_max=0.1)


# ---------------------------------------------------------------- Beta functions

# the exponents of the barrier's inverse, a = 1/(1-gamma) and b = (q-1)/q; gamma =
# 0.995 and 0.999 put a + b past the overflow of Gamma (the lgamma branch)
BETA_GAMMAS = (*np.linspace(0.05, 0.95, 19), 0.99, 0.995, 0.999)
BETA_QS = (1.1, 1.5, 2.0, 3.0, 5.0, 10.0)


def test_beta_matches_scipy():
    from scipy import special

    lgamma_branch = 0
    for gamma in BETA_GAMMAS:
        for q in BETA_QS:
            a, b = 1.0 / (1.0 - gamma), (q - 1.0) / q
            got = barrier._beta(a, b)
            if a + b > barrier._GAMMA_MAX:
                # scipy's beta and betaln take lgamma(a) - lgamma(a+b) here and
                # lose about 1e-12 to the cancellation; compare the logarithm
                lgamma_branch += 1
                want = special.betaln(a, b)
                assert abs(np.log(got) - want) <= 1e-12 * abs(want)
            else:
                assert got == pytest.approx(special.beta(a, b), rel=1e-12, abs=0.0)
    assert lgamma_branch == 2 * len(BETA_QS)


def test_incomplete_beta_matches_scipy():
    # the regularized I_y = B_y / B against scipy.special.betainc, over 399
    # interior y and both sides of the symmetry switch
    from scipy import special

    ys = np.linspace(0.0, 1.0, 401)[1:-1]
    for gamma in BETA_GAMMAS:
        for q in BETA_QS:
            a, b = 1.0 / (1.0 - gamma), (q - 1.0) / q
            beta_ab = barrier._beta(a, b)
            got = barrier._incomplete_beta(a, b, ys, beta_ab)
            # subnormal values carry no relative precision: scipy flushes
            # some of them to zero at gamma = 0.995
            np.testing.assert_allclose(got / beta_ab, special.betainc(a, b, ys),
                                       rtol=1e-12, atol=np.finfo(float).tiny)
            ends = barrier._incomplete_beta(a, b, np.array([0.0, 1.0]), beta_ab)
            assert ends.tolist() == [0.0, beta_ab]


def test_incomplete_beta_failure_is_a_convergence_failure(monkeypatch):
    # y = 0.01 converges in two terms, 0.9 and 0.5 do not: the first is named
    monkeypatch.setattr(barrier, "_CF_TERMS", 2)
    with pytest.raises(ConvergenceFailure, match=r"did not converge in 2 terms at .*, y=0\.9000"):
        barrier._incomplete_beta(50.0, 0.5, np.array([0.01, 0.9, 0.5]), barrier._beta(50.0, 0.5))
