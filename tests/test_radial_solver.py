"""Cutoff geometry, the nested-quadrature solver, and the comparison claim."""
import os
import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from pqsing import (
    DiscreteOperator,
    Params,
    certify_radial_claim,
    construct_pairs,
    cutoff,
    cutoff_prime,
    solve_radial,
)
from pqsing import radial_solver
from pqsing.errors import WindowViolation
from quadrature_oracle import quadrature_solve


def radial_nodes(params, n):
    return DiscreteOperator.from_params(params, n).grid


# ---------------------------------------------------------------- cutoff

def test_cutoff_shape(cfg1):
    win = cfg1.window
    r = np.linspace(0.0, 1.0, 801)
    c = cutoff(r, cfg1.params, win.chi, win.kappa, win.epsilon)
    assert np.all(c[r <= win.epsilon] == 1.0)
    assert c[-1] == 0.0
    assert np.all(np.diff(c) <= 1e-15)
    assert np.all((c >= 0.0) & (c <= 1.0))


def test_cutoff_prime_matches_fd(cfg1):
    win = cfg1.window
    r = np.linspace(win.epsilon + 1e-3, 1.0 - 1e-3, 101)
    d = cutoff_prime(r, cfg1.params, win.chi, win.kappa, win.epsilon)
    step = 1e-7
    fd = (cutoff(r + step, cfg1.params, win.chi, win.kappa, win.epsilon)
          - cutoff(r - step, cfg1.params, win.chi, win.kappa, win.epsilon)) / (2 * step)
    assert np.allclose(d, fd, rtol=1e-5, atol=1e-7)
    # flat on the plateau, and (for chi, kappa > 1) zero at both junctions
    assert cutoff_prime(0.3, cfg1.params, win.chi, win.kappa, win.epsilon) == 0.0
    assert cutoff_prime(1.0, cfg1.params, win.chi, win.kappa, win.epsilon) == pytest.approx(0.0)


def test_cutoff_collapses_to_ramp(cfg1):
    win = cfg1.window
    r = np.linspace(win.epsilon, 1.0, 101)
    c = cutoff(r, cfg1.params, 1.0, 1.0, win.epsilon)
    ramp = (1.0 - r) / (1.0 - win.epsilon)
    assert np.allclose(c, ramp, atol=1e-14)


# ---------------------------------------------------------------- quadrature

@pytest.mark.parametrize("n", [1, 2, 5, 257, 4097])
def test_cumulative_trapezoid_matches_scipy(n):
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
    for x in (np.linspace(0.0, 1.0, n), np.sort(rng.uniform(0.0, 3.0, n))):
        assert np.array_equal(radial_solver._cumulative_trapezoid(y, x),
                              cumulative_trapezoid(y, x, initial=0.0))


def test_quadrature_solve_constant_load_closed_form():
    # p=2, q=3, load c: slope solves t + t^2 = c r / N, phi integrates it;
    # everything in closed form via the quadratic formula
    pr = Params(p=2.0, q=3.0, gamma=0.5, dim=2, radius=1.0, lam=0.0)
    c = 12.0
    g = quadrature_solve(pr, lambda u: c, n=4096)
    r = g.nodes
    a = 4.0 * c / pr.dim
    exact = -0.5 * (1.0 - r) + ((1.0 + a) ** 1.5 - (1.0 + a * r) ** 1.5) / (3.0 * a)
    assert np.max(np.abs(g.values - exact)) <= 2e-7


def test_quadrature_solve_fixed_point_iteration():
    # u-dependent load: the lagged sweeps must still settle
    pr = Params(p=2.0, q=3.0, gamma=0.5, dim=2, radius=1.0, lam=0.0)
    g = quadrature_solve(pr, lambda u: 1.0 + np.minimum(u, 1.0), n=512)
    load = 1.0 + np.minimum(g.values, 1.0)
    g2 = quadrature_solve(pr, lambda u: load, n=512)
    assert np.max(np.abs(g.values - g2.values)) <= 1e-9


# ---------------------------------------------------------------- solve_radial

def test_profile_invariants(cfg1):
    prof = cfg1.profile
    assert prof.phi.values[-1] == pytest.approx(0.0, abs=1e-14)
    assert prof.phi_prime.values[0] == pytest.approx(0.0, abs=1e-14)
    assert np.all(np.diff(prof.phi.values) <= 0.0)
    assert np.all(prof.phi_prime.values <= 1e-14)
    # v is the scaled cutoff
    assert prof.v.values[0] == pytest.approx(cfg1.window.theta)
    assert prof.v.values[-1] == 0.0


def test_reference_phi_center_value(cfg1):
    assert cfg1.profile.phi.values[0] == pytest.approx(109.03795488127061, rel=1e-9)


def test_radial_certificate(cfg1):
    cert = certify_radial_claim(cfg1.profile, cfg1.params, cfg1.window)
    assert cert.passed
    assert cert.detail["dominance_ok"]
    assert cert.detail["headroom_ok"]
    assert cert.detail["slope_ok"]
    assert cert.detail["max_phi"] <= cfg1.window.theta2
    # the slope comparison only applies on the collar
    assert cert.detail["min_slope_gap"] > 0.0
    # dominance is scaled by the boundary distance at nodes 0..n-1, where
    # phi - v > 0; at r = R both vanish and would pin the margin at 0
    assert cert.detail["distance_scaled"] is True
    nodes, R = cfg1.profile.phi.nodes, cfg1.params.radius
    gap = (cfg1.profile.phi.values - cfg1.profile.v.values)[:-1] / ((R - nodes[:-1]) / R)
    assert cert.detail["min_phi_minus_v"] == float(np.min(gap)) > 0.0
    assert cert.min_margin > 0.0


def test_solver_against_independent_quadrature(cfg1):
    # same nodes, same rule, but assembled from scratch with the p=2,q=3
    # closed-form inverse instead of the generic scalar root-finder
    prof = solve_radial(cfg1.reactions, cfg1.window, radial_nodes(cfg1.params, 1024))
    nodes = prof.phi.nodes
    load = cfg1.params.lam * np.asarray(cfg1.reactions.h(prof.v.values), dtype=float)
    inner = cumulative_trapezoid(nodes * load, nodes, initial=0.0)
    I = np.zeros_like(inner)
    I[1:] = inner[1:] / nodes[1:]
    slope = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * I))
    F = cumulative_trapezoid(slope, nodes, initial=0.0)
    phi_oracle = F[-1] - F
    assert np.max(np.abs(phi_oracle - prof.phi.values)) <= 1e-10


def test_out_of_window_load_warns(cfg1):
    rx = cfg1.reactions.at_load(10.0 * cfg1.window.lambda_upper)
    with pytest.warns(WindowViolation):
        solve_radial(rx, cfg1.window, radial_nodes(rx.params, 256))


def test_pairs_out_of_window_warn_once_per_load(gentle):
    # the radial solve checks the load against the window; the pairs built
    # on its profile do not check it again, so the one warning shown under
    # the default filter is the radial solve's
    rx = gentle.reactions.at_load(1.05 * gentle.window.lambda_upper)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        op = DiscreteOperator.from_params(rx.params, gentle.n)
        prof = solve_radial(rx, gentle.window, op.grid)
        construct_pairs(rx, prof, op)
    where = [os.path.basename(w.filename) for w in caught if w.category is WindowViolation]
    assert where == ["radial_solver.py"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gentle.window.warn_outside(gentle.window.lambda_upper * (1.0 + 1e-13))
        gentle.window.warn_outside(gentle.window.lambda_star * (1.0 - 1e-13))


def test_lambda_zero_gives_zero_profile(cfg1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WindowViolation)
        prof = solve_radial(cfg1.reactions.at_load(0.0), cfg1.window,
                            radial_nodes(cfg1.params, 256))
    assert prof.phi.sup_norm() == 0.0


def test_gentle_profile(gentle):
    assert gentle.profile.phi.values[0] == pytest.approx(577.1117840946803, rel=1e-9)
    assert certify_radial_claim(gentle.profile, gentle.params, gentle.window).passed
