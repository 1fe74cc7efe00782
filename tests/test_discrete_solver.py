"""Flux-form operator, certified pairs, the solve map, and the monotone iteration."""
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pqsing import (
    DiscreteOperator,
    GridFunction,
    NonlinearitySpec,
    Params,
    amann_iterate,
    build_first_pair,
    build_h,
    certify,
    choose_khat,
    construct_pairs,
    lpq_derivative,
    lpq_scalar,
    march,
    original_residual,
    search_third_solution,
    solve_radial,
    that_map,
)
from pqsing import discrete_solver
from pqsing.errors import (
    ConfigurationError,
    ConvergenceFailure,
    FailedAssumptions,
    PositivityLoss,
    SearchExhausted,
)
from conftest import _build_env
from quadrature_oracle import quadrature_solve


def make_params(p=2.0, q=3.0, gamma=0.5, dim=2, radius=1.0, lam=0.3):
    return Params(p=p, q=q, gamma=gamma, dim=dim, radius=radius, lam=lam)


def _unshifted_load(reactions):
    """The term list of the unshifted system A(u) = fhat(u) + lam f(0) u^{-gamma}."""
    pr = reactions.params
    return [discrete_solver._fhat_term(reactions),
            discrete_solver._singular(pr.lam * reactions.spec.f0, pr.gamma)]


def _unshifted_scaled_residual(env, uv):
    """Newton's rounding-aware scaled residual of the unshifted system at u."""
    return discrete_solver._scaled_err(*discrete_solver._residual_scale(
        env.op, uv, _unshifted_load(env.reactions))[:3])


# ---------------------------------------------------------------- operator

def apply(op, values):
    """The scheme's A(u) at nodes 0..n-1, and 0 in the Dirichlet slot."""
    return np.append(discrete_solver._apply_values(op, np.asarray(values, dtype=float)), 0.0)


def test_operator_construction_guards():
    pr = make_params()
    op = DiscreteOperator.from_params(pr, n=64)
    assert op.n == 64
    assert op.h == pytest.approx(1.0 / 64.0)
    with pytest.raises(ConfigurationError):
        DiscreteOperator(pr, np.linspace(0.0, 0.7, 65))     # must span [0, R]
    with pytest.raises(ConfigurationError):
        DiscreteOperator(pr, np.linspace(0.0, 1.0, 3))      # too coarse
    with pytest.raises(ConfigurationError):
        DiscreteOperator(pr, np.linspace(0.0, 1.0, 65) ** 2)  # not uniform
    # the plain L_{p,q} scheme: no weights to set
    assert [f.name for f in dataclasses.fields(DiscreteOperator)] == ["params", "grid"]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_operator_exact_on_affine(dim):
    # u = R - r has constant slope -1: flux divergence reduces to the
    # N-dependent geometric factor, reproduced exactly by the scheme
    pr = make_params(dim=dim)
    op = DiscreteOperator.from_params(pr, n=128)
    out = apply(op, pr.radius - op.grid)
    # -L(u) with |u'| = 1: flux F(-1) = -2; divergence of r^{N-1} F over
    # r^{N-1} gives (N-1)/r * 2
    interior = np.arange(1, op.n)
    expect = (dim - 1.0) / op.grid[interior] * 2.0
    assert np.max(np.abs(out[interior] - expect)) <= 1e-11
    assert out[-1] == 0.0                                    # boundary slot


def _p2_part(pr, n, u_of_grid):
    # the p = 2 part of the flux L_p + L_q is the gradient itself, so the
    # scheme's divergence of g is that part of -L
    assert pr.p == 2.0
    op = DiscreteOperator.from_params(pr, n=n)
    g = np.diff(u_of_grid(op.grid)) / op.h
    return np.append(discrete_solver._divergence(op, g), 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_operator_exact_on_paraboloid_low_dim(dim):
    # Laplacian part of -L(amp(1 - r^2)) is exactly 2 N amp for N <= 2:
    # the half-integer radii in the flux divergence telescope
    pr = make_params(dim=dim)
    amp = 0.7
    p2 = _p2_part(pr, 256, lambda g: amp * (1.0 - g ** 2))
    assert np.max(np.abs(p2[:-1] - 2.0 * dim * amp)) <= 1e-10


def test_operator_paraboloid_dim3_known_deviation():
    # N=3: the same divergence overshoots 2N by amp*h^2/(2 r^2), i.e.
    # exactly +amp/2 at the first interior node; the center cell is exact
    pr = make_params(dim=3)
    p2 = _p2_part(pr, 128, lambda g: 1.0 - g ** 2)
    dev = p2[1:-1] - 6.0
    assert dev[0] == pytest.approx(0.5, rel=1e-9)
    assert np.max(np.abs(dev)) <= 0.5 + 1e-9
    assert p2[0] == pytest.approx(6.0, rel=1e-12)


def test_stages_require_the_operator_grid(gentle):
    # every stage takes the load's one operator and refuses a grid function
    # that lives elsewhere, where it used to interpolate or rebuild
    env = gentle
    half = DiscreteOperator.from_params(env.params, env.n // 2)
    g = GridFunction(half.grid, np.ones(half.n + 1))
    with pytest.raises(ConfigurationError, match="operator grid"):
        construct_pairs(env.reactions, env.profile, half)
    with pytest.raises(ConfigurationError, match="operator grid"):
        build_first_pair(env.reactions, env.op, fit_under=g)
    with pytest.raises(ConfigurationError, match="operator grid"):
        amann_iterate(env.reactions, half, env.pairs.u0, env.pairs.v_up, "from_lower")
    with pytest.raises(ConfigurationError, match="operator grid"):
        search_third_solution(env.reactions, env.pairs.u0, env.pairs.v_up, env.pairs, half)


@pytest.mark.parametrize("change", [{"q": 4.0}, {"gamma": 0.3}, {"dim": 3}, {"radius": 0.9}],
                         ids=["q", "gamma", "dim", "radius"])
def test_stages_refuse_an_operator_of_other_params(gentle, change):
    # reactions carry the load's Params; an operator laid out for other
    # exponents or geometry is refused, one for another load is not
    env = gentle
    other = DiscreteOperator.from_params(dataclasses.replace(env.params, **change), env.n)
    u = GridFunction(other.grid, env.pairs.u0.values)
    calls = {
        "construct_pairs": lambda: construct_pairs(env.reactions, env.profile, other),
        "build_first_pair": lambda: build_first_pair(env.reactions, other),
        "certify": lambda: certify(env.reactions, u, "subsolution", op=other),
        "original_residual": lambda: original_residual(env.reactions, u, other),
        "that_map": lambda: that_map(env.reactions, u, other, env.spec.khat),
        "amann_iterate": lambda: amann_iterate(env.reactions, other, u, u, "from_lower"),
        "march": lambda: march(other, env.reactions, [20.0]),
        "search_third_solution":
            lambda: search_third_solution(env.reactions, u, u, env.pairs, other),
    }
    for name, call in calls.items():
        with pytest.raises(ConfigurationError, match="does not match the reactions"):
            call()
    at_zero = DiscreteOperator.from_params(dataclasses.replace(env.params, lam=0.0), env.n)
    w = that_map(env.reactions, env.pairs.u0, at_zero, env.spec.khat)
    assert np.array_equal(w.values,
                          that_map(env.reactions, env.pairs.u0, env.op, env.spec.khat).values)


# ---------------------------------------------------------------- basic solves

def test_eta_problem_against_quadrature():
    pr = make_params()
    errs = []
    for n in (256, 512, 1024):
        op = DiscreteOperator.from_params(pr, n=n)
        w = discrete_solver._load_solution(op, 0.5)
        oracle = quadrature_solve(pr, lambda u: 0.5, n)
        errs.append(float(np.max(np.abs(w - oracle.values))))
    assert errs[0] <= 2e-7
    # two independent discretizations of the same problem: agreement
    # tightens at roughly second order
    assert errs[2] <= errs[0] / 8.0


def _v_s(op, mu):
    """(v_s, Newton steps): the second pair's solve of A(v) = mu v^{-gamma}
    from the load solve of mu."""
    return discrete_solver._newton(op, [discrete_solver._singular(mu, op.params.gamma)],
                                   discrete_solver._load_solution(op, mu))[:2]


@pytest.mark.parametrize("pq", [(2.0, 3.0), (1.5, 4.0)], ids=["closed_form", "iterative"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_probe_norm_is_the_profile_max_bitwise(pq, dim):
    # each rung of the second pair's ladder probes sup v_s at its level: the
    # singular load is positive, so v_s falls from the axis and its value
    # at node 0 is the max, bit for bit.  v_s grows with the load (the
    # comparison the ladder's v0 <= v_s stop rests on).  Newton reaches it
    # from the load solve in 4-6 steps at p = 2 and 4-11 at p = 1.5, the
    # most at the smallest loads
    pr = make_params(p=pq[0], q=pq[1], dim=dim)
    op = DiscreteOperator.from_params(pr, n=256)
    below = np.zeros(op.n + 1)
    for mu in np.geomspace(1e-2, 1e2, 13):
        v, steps = _v_s(op, mu)
        assert float(v[0]) == float(np.max(v)) and steps <= 12
        assert np.all(v[:-1] > below[:-1])
        below = v


def test_shipped_v_up_is_the_accepted_probe(gentle, cfg1):
    # both shipped configs take the ladder's first rung, s = theta1: v_up is
    # that rung's v_s, bit for bit, and its sup is the reported v_up_sup <= s
    for env in (gentle, cfg1):
        second, theta1 = env.pairs.second_margins, env.spec.theta1
        assert second["v_up_level"] == theta1
        mu = env.params.lam * float(env.spec.f(theta1))
        assert np.array_equal(env.pairs.v_up.values, _v_s(env.op, mu)[0])
        assert second["v_up_sup"] == float(np.max(env.pairs.v_up.values)) <= theta1


def _count_banded(monkeypatch):
    calls = []
    real = discrete_solver.solve_banded
    monkeypatch.setattr(discrete_solver, "solve_banded",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def _backward_error(sub, diag, sup, rhs, x):
    """Componentwise (Oettli-Prager) backward error of x:
    max_i |rhs - A x|_i / (|A| |x| + |rhs|)_i."""
    res, mag = rhs - diag * x, np.abs(rhs) + np.abs(diag * x)
    res[1:] -= sub[1:] * x[:-1]
    mag[1:] += np.abs(sub[1:] * x[:-1])
    res[:-1] -= sup[:-1] * x[1:]
    mag[:-1] += np.abs(sup[:-1] * x[1:])
    return float(np.max(np.abs(res) / mag))


def _check_against_lapack(sub, diag, sup, rhs, fwd_tol):
    from scipy.linalg import solve_banded as lapack

    x = discrete_solver.solve_banded(sub, diag, sup, rhs)
    ab = np.zeros((3, diag.size))
    ab[0, 1:], ab[1], ab[2, :-1] = sup[:-1], diag, sub[1:]
    oracle = lapack((1, 1), ab, rhs)
    assert _backward_error(sub, diag, sup, rhs, x) <= 1e-14
    assert np.max(np.abs(x - oracle)) <= fwd_tol * np.max(np.abs(oracle))


# sizes around the dense block (32 rows) and its padding, and the mesh-ladder's
@pytest.mark.parametrize("n", [4, 5, 31, 32, 33, 34, 777, 1024, 16384])
@pytest.mark.parametrize("indefinite", [False, True], ids=["m_matrix", "indefinite"])
def test_solve_banded_against_lapack(n, indefinite):
    # Newton's Jacobians are diagonally dominant M-matrices; the signs of an
    # indefinite but dominant diagonal keep it well conditioned
    rng = np.random.default_rng(n)
    sub, sup = -rng.uniform(0.1, 2.0, n), -rng.uniform(0.1, 2.0, n)
    diag = np.abs(sub) + np.abs(sup) + rng.uniform(0.0, 1.0, n)
    if indefinite:
        diag *= rng.choice((-1.0, 1.0), n)
    sub[0] = sup[-1] = np.nan  # outside the matrix: never read
    _check_against_lapack(sub, diag, sup, rng.normal(size=n), 1e-13)


def test_solve_banded_on_the_third_solution_polish(gentle, monkeypatch):
    # the polish linearizes at the unstable u3: an indefinite Jacobian (one
    # negative eigenvalue), dominant in almost no row
    env = gentle
    lo, up = _legs(env)
    systems = []
    real = discrete_solver.solve_banded
    monkeypatch.setattr(discrete_solver, "solve_banded",
                        lambda *a: systems.append(a) or real(*a))
    search_third_solution(env.reactions, lo.limit, up.limit, env.pairs, op=env.op)
    sub, diag, sup, rhs = systems[0]
    assert np.mean(np.abs(diag) >= np.abs(sub) + np.abs(sup)) < 0.05
    # condition number ~4e4: the two solutions agree to its multiple of eps
    _check_against_lapack(sub, diag, sup, rhs, 1e-11)


def test_solve_banded_names_the_failing_row():
    n = 100
    sub, sup, diag = np.full(n, -1.0), np.full(n, -1.0), np.full(n, 3.0)
    rhs = np.ones(n)
    rhs[17] = np.nan
    with pytest.raises(ConvergenceFailure, match="not finite at row 17$"):
        discrete_solver.solve_banded(sub, diag, sup, rhs)
    sup[40] = np.inf
    with pytest.raises(ConvergenceFailure, match="not finite at row 17$"):
        discrete_solver.solve_banded(sub, diag, sup, rhs)
    rhs[17] = 1.0
    with pytest.raises(ConvergenceFailure, match="not finite at row 40$"):
        discrete_solver.solve_banded(sub, diag, sup, rhs)
    sup[40] = -1.0
    # a zero column: finite entries, no solution; elimination's zero pivot
    # names it, though NaN reaches every row of the reduction
    sub[61] = diag[60] = sup[59] = 0.0
    with pytest.raises(ConvergenceFailure,
                       match="singular: smallest pivot 0.000e[+]00 at row 60$"):
        discrete_solver.solve_banded(sub, diag, sup, rhs)


@pytest.mark.parametrize("n", [5, 1024])
def test_solve_banded_returns_a_new_array(n):
    # two calls in a row leave their inputs as they were, and the second
    # result does not write over the first (no result is a view shared
    # between calls)
    rng = np.random.default_rng(n)
    systems = []
    for _ in range(2):
        sub, sup = -rng.uniform(0.1, 2.0, n), -rng.uniform(0.1, 2.0, n)
        systems.append((sub, np.abs(sub) + np.abs(sup) + 1.0, sup, rng.normal(size=n)))
    copies = [[a.copy() for a in system] for system in systems]
    first = discrete_solver.solve_banded(*systems[0])
    kept = first.copy()
    second = discrete_solver.solve_banded(*systems[1])
    for system, copy in zip(systems, copies):
        assert all(np.array_equal(a, b) for a, b in zip(system, copy))
    assert np.array_equal(first, kept) and not np.shares_memory(first, second)
    assert first.shape == second.shape == (n,)
    assert _backward_error(*systems[0], first) <= 1e-14
    assert _backward_error(*systems[1], second) <= 1e-14


@pytest.mark.parametrize("dim, pq", [
    *(pytest.param(dim, (2.0, 3.0), id=f"{dim}") for dim in (1, 2, 3)),
    *(pytest.param(dim, (1.5, 2.5), id=f"{dim}-p1.5") for dim in (1, 2, 3)),
])
def test_load_solution_is_accepted_without_a_step(dim, pq, monkeypatch):
    # the flux-integrated seed solves the scheme itself, not the continuum
    # problem: Newton's 1e-12 rounding-aware check passes at once, for the
    # closed-form lpq_inverse (q = 2p - 1) and its iterative branch alike
    pr = make_params(p=pq[0], q=pq[1], dim=dim)
    op = DiscreteOperator.from_params(pr, n=256)
    calls = _count_banded(monkeypatch)
    for rhs in (np.full(op.n, 1.7), 1.0 + np.linspace(0.0, 2.0, op.n) ** 2):
        u0 = discrete_solver._load_solution(op, rhs)
        assert u0[-1] == 0.0 and np.all(np.diff(u0) < 0.0)
        u, steps, err = discrete_solver._newton(op, [discrete_solver._given(rhs)], u0)
        assert np.array_equal(u, u0) and steps == 0 and err <= 1e-12
    assert calls == []


def test_construct_pairs_banded_solves(gentle, monkeypatch):
    # the constant-load auxiliaries behind the outer pair start at their
    # answer; v0 (a Theta-shifted solve) takes Newton steps from the load
    # solve of its right-hand side, and v_up (the singular-load solve at
    # s = theta1) from the load solve of lam f(s): 4 steps each.  The flux
    # evaluations are the solves', the searches' and the certificates':
    # every reported margin is read from a certificate, none recomputed, and
    # the alpha_* search's accepted certificate of u_up is the pairs' own
    env = gentle
    assert env.pairs.second_margins["Theta_lambda"] > 0.0
    calls = _count_banded(monkeypatch)
    fluxes = []
    for name in ("lpq_scalar", "lpq_derivative"):
        real = getattr(discrete_solver, name)
        monkeypatch.setattr(discrete_solver, name,
                            lambda *a, real=real, **k: fluxes.append(1) or real(*a, **k))
    pairs = construct_pairs(env.reactions, env.profile, op=env.op)
    assert len(calls) <= 9
    assert len(fluxes) == 35
    assert pairs.all_passed


def test_psi_at_zero_shift_is_its_load_solve(cfg1, monkeypatch):
    # at Theta_lambda = 0 psi solves -L psi = lam h(phi), a given load: its
    # Newton starts at the load solve, which it accepts without a step.  The
    # pairs' only Newton steps are v_up's singular-load solve (4 of them)
    env = cfg1
    assert env.pairs.second_margins["Theta_lambda"] == 0.0
    zi = np.maximum(env.profile.phi.values[:-1], 0.0)
    rhs = env.params.lam * np.asarray(env.reactions.h(zi), dtype=float)
    assert np.array_equal(env.pairs.v0.values, discrete_solver._load_solution(env.op, rhs))
    steps, real = [], discrete_solver._newton

    def counted(*args, **kwargs):
        u, taken, err = real(*args, **kwargs)
        steps.append(taken)
        return u, taken, err

    monkeypatch.setattr(discrete_solver, "_newton", counted)
    calls = _count_banded(monkeypatch)
    construct_pairs(env.reactions, env.profile, op=env.op)
    assert len(steps) == 2 and steps[0] == 0 and 3 <= steps[1] <= 5
    assert len(calls) == steps[1]


def _plain_residual_scale(op, u, theta, khat, mu, rhs, singular, anchor=None):
    """(residual, scale, rounding floor) of _residual_scale as plain
    expressions, one new array per operation, written independently of the
    kernel: the reference it must match bit for bit."""
    pr, floor = op.params, discrete_solver._JAC_FLOOR
    slack = discrete_solver._RND_SLACK * np.finfo(float).eps
    ui = u[:-1]
    g = np.diff(u) / op.h
    F = lpq_scalar(g, pr)
    res = -(op.cplus * F - op.cminus * np.concatenate(((0.0,), F[:-1])))
    Fp = lpq_derivative(g, pr, floor=floor)
    out, inner = op.cplus * np.abs(F), op.cminus * np.concatenate(((0.0,), np.abs(F)[:-1]))
    dout, dinner = op.cplus * Fp, op.cminus * np.concatenate(((0.0,), Fp[:-1]))
    rnd = out + inner + (dout + dinner) / op.h * np.max(np.abs(u))
    rnd = rnd * slack
    res = res - rhs
    scale = 1.0 + np.abs(rhs)
    if theta != 0.0:
        Lu = lpq_scalar(ui, pr)
        res = res + theta * Lu
        scale = scale + np.abs(theta * Lu)
    if np.any(khat):
        res = res + khat * (ui - anchor)
        scale = scale + khat * np.abs(ui - anchor)
        rnd = rnd + slack * khat * np.maximum(np.abs(ui), np.abs(anchor))
    if singular:
        sing = mu * ui ** (-pr.gamma)
        res = res - sing
        scale = scale + np.abs(sing)
    return res, scale, rnd


def _fresh_bands(op, u, theta, khat, mu, singular):
    """The Jacobian bands formed from a fresh lpq_derivative at u (F'
    clipped at |g| = _JAC_FLOOR), one new array per operation."""
    pr, floor = op.params, discrete_solver._JAC_FLOOR
    Fp = lpq_derivative(np.diff(u) / op.h, pr, floor=floor)
    out, inner = op.cplus * Fp, op.cminus * np.concatenate(((0.0,), Fp[:-1]))
    diag = (out + inner) / op.h
    sub, sup = -inner / op.h, -out / op.h
    sup[-1] = 0.0
    if theta != 0.0:
        diag = diag + theta * lpq_derivative(u[:-1], pr, floor=floor)
    if np.any(khat):
        diag = diag + khat
    if singular:
        diag = diag + pr.gamma * mu * u[:-1] ** (-pr.gamma - 1.0)
    return sub, diag, sup


_TERMS = [(0.0, 0.0, False, False), (0.3, 0.0, False, False), (0.0, 2.0, False, True),
          (0.0, 2.0, True, True), (0.3, 2.0, True, True)]  # theta, khat, singular, anchor


def _term_list(op, theta, khat, mu, rhs, singular, anchor=None):
    """The load of the system that _plain_residual_scale and _fresh_bands
    spell out, A(u) + theta L(u) + khat (u - anchor) - mu u^{-gamma} = rhs,
    as the kernel's term list: the given rhs, then psi's shift, the map's
    anchored shift and the singular load, each where the case has it."""
    load = [discrete_solver._given(rhs)]
    if theta != 0.0:
        load.append(discrete_solver._theta_shift(theta, op.params))
    if np.any(khat):
        load.append(discrete_solver._anchored_shift(khat, anchor))
    if singular:
        load.append(discrete_solver._singular(mu, op.params.gamma))
    return load


def _reactions(pr):
    """The reference config's reaction at pr: a positive f(0), so the
    unshifted system carries the singular term next to fhat."""
    spec = NonlinearitySpec(kind="exp_saturating", theta1=1.0, theta2=176.0, k=100.0)
    return build_h(spec, pr)


@pytest.mark.parametrize("pq", [(2.0, 3.0), (1.5, 2.5)])
def test_jac_bands_from_kept_derivative_bitwise(pq):
    # the bands built from the flux terms the residual kept, less each
    # term's slope, equal bit for bit the bands formed from a fresh
    # lpq_derivative at the same u: on a flat core and on gradients below the
    # clip, with theta, the shift and the singular term each on and off.  The
    # unshifted system's diagonal takes its terms in its load's order: flux
    # - fhat' + singular'
    pr = make_params(p=pq[0], q=pq[1])
    op = DiscreteOperator.from_params(pr, n=64)
    u = 1.0 - op.grid ** 2
    u[:8] = u[0]                       # flat core: g = 0
    u[8:12] = u[0] - 1e-12 * np.arange(1, 5)  # gradients below the clip
    u[-1] = 0.0
    assert np.any(np.abs(np.diff(u) / op.h) < discrete_solver._JAC_FLOOR)
    mu = np.full(op.n, 0.7)
    for theta, khat, singular, anchored in _TERMS:
        anchor = 0.9 * u[:-1] if anchored else None
        load = _term_list(op, theta, khat, mu, np.ones(op.n), singular, anchor)
        got = discrete_solver._residual_scale(op, u, load)[3]()
        want = _fresh_bands(op, u, theta, khat, mu, singular)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    rx, ui = _reactions(pr), u[:-1]
    fhat = np.asarray(rx.fhat(ui), dtype=float)
    fhat_slope = (pr.lam * np.asarray(rx.spec.f_prime(ui), dtype=float) * ui ** (-pr.gamma)
                  - pr.gamma * fhat / ui)
    sub, flux, sup = _fresh_bands(op, u, 0.0, 0.0, 0.0, False)
    lam_f0 = pr.lam * rx.spec.f0
    want = (sub, flux - fhat_slope + pr.gamma * lam_f0 * ui ** (-pr.gamma - 1.0), sup)
    got = discrete_solver._residual_scale(op, u, _unshifted_load(rx))[3]()
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("pq", [(2.0, 3.0), (1.5, 2.5)])
def test_residual_scale_matches_plain_expressions_bitwise(pq):
    # the kernel's residual, scale and rounding floor against the plain
    # expressions, node-wise and scalar shift and load alike, and the
    # unshifted system's fhat against the same load given as its values:
    # the operation order is pinned, because the artifacts' bytes depend on it
    pr = make_params(p=pq[0], q=pq[1])
    op = DiscreteOperator.from_params(pr, n=64)
    rng = np.random.default_rng(7)
    u = (1.0 - op.grid ** 2) * (1.0 + 0.1 * rng.uniform(size=op.n + 1))
    u[:8] = u[0]
    u[-1] = 0.0
    mu = rng.uniform(0.0, 1.0, op.n)
    for rhs in (rng.uniform(-1.0, 2.0, op.n), 1.5):
        for theta, khat, singular, anchored in _TERMS + [(0.3, rng.uniform(0, 3, op.n),
                                                          True, True)]:
            anchor = 0.9 * u[:-1] if anchored else None
            load = _term_list(op, theta, khat, mu, rhs, singular, anchor)
            got = discrete_solver._residual_scale(op, u, load)[:3]
            want = _plain_residual_scale(op, u, theta, khat, mu, rhs, singular, anchor)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
    rx = _reactions(pr)
    lam_f0 = pr.lam * rx.spec.f0
    got = discrete_solver._residual_scale(op, u, _unshifted_load(rx))[:3]
    want = _plain_residual_scale(op, u, 0.0, 0.0, lam_f0,
                                 np.asarray(rx.fhat(u[:-1]), dtype=float), lam_f0 > 0.0)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("pq", [(2.0, 3.0), (1.5, 2.5)])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_jac_bands_are_the_residual_derivative(dim, pq):
    # central differences of the residual, column by column, against the
    # bands: every row, the axis row 0 and the row next to the Dirichlet node
    # included, with and without the theta, shift and singular terms, and
    # for the unshifted system's fhat(u) and lam f(0) u^{-gamma}
    pr = make_params(p=pq[0], q=pq[1], dim=dim)
    op = DiscreteOperator.from_params(pr, n=32)
    u = (1.0 - op.grid) * (1.5 + op.grid)   # |u'| >= 0.5: F is smooth at every half node
    rhs = np.linspace(1.0, 2.0, op.n)
    anchor = 0.9 * u[:-1]
    for load in (_term_list(op, 0.0, 0.0, 0.0, rhs, False),
                 _term_list(op, 0.3, 2.0, 0.7, rhs, True, anchor),
                 _unshifted_load(_reactions(pr))):

        def residual(v):
            return discrete_solver._residual_scale(op, v, load)

        sub, diag, sup = residual(u)[3]()
        J = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        fd = np.empty_like(J)
        for j in range(op.n):
            step = 1e-6 * u[j]
            up, down = u.copy(), u.copy()
            up[j] += step
            down[j] -= step
            fd[:, j] = (residual(up)[0] - residual(down)[0]) / (2.0 * step)
        assert np.max(np.abs(fd - J)) <= 1e-6 * np.max(np.abs(J))
        assert np.all(np.abs(fd - J) <= 1e-6 * np.abs(J) + 1e-9 * np.max(np.abs(J)))


def test_rounding_floor_finite_on_a_flat_core():
    # for p < 2 the unclipped F'(0) is infinite; the rounding floor must use
    # the clipped F' so that a flat core's residual still counts.  u solves
    # the scheme for a load that vanishes on nodes 0..7, so its gradient is
    # 0 there, and against the load 1e6 everywhere only the core is off
    pr = make_params(p=1.5, q=4.0)
    op = DiscreteOperator.from_params(pr, n=64)
    core = np.arange(op.n) < 8
    u = discrete_solver._load_solution(op, np.where(core, 0.0, 1e6))
    assert np.all(np.diff(u)[:8] == 0.0)
    res, scale, rnd, _ = discrete_solver._residual_scale(
        op, u, [discrete_solver._given(np.full(op.n, 1e6))])
    assert np.all(np.isfinite(rnd))
    assert np.all(res[core] == -1e6)
    scaled = (np.abs(res) - rnd) / scale
    assert np.all(scaled[core] > 0.999) and np.all(scaled[~core] < 1e-9)
    assert core[np.argmax(scaled)]
    assert discrete_solver._scaled_err(res, scale, rnd) > 0.999


def _weighted_inverse(s, pr, alpha, beta):
    # alpha t^{p-1} + beta t^{q-1} = s > 0: the quadratic in t^{p-1} for
    # q - 1 = 2(p - 1), else bisection between the half-load and the
    # full-load one-term inverses
    p1, q1 = pr.p - 1.0, pr.q - 1.0
    if q1 == 2.0 * p1:
        return (2.0 * s / (alpha + np.sqrt(alpha * alpha + 4.0 * beta * s))) ** (1.0 / p1)
    lo = np.minimum((s / (2.0 * alpha)) ** (1.0 / p1), (s / (2.0 * beta)) ** (1.0 / q1))
    hi = np.minimum((s / alpha) ** (1.0 / p1), (s / beta) ** (1.0 / q1))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = alpha * mid ** p1 + beta * mid ** q1 < s
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _weighted_unit_solve(op, alpha, beta):
    # the paper's auxiliary -L^{alpha,beta} u = 1 on the scheme, u_n = 0:
    # the unit load's fluxes through the weighted inverse
    s = -discrete_solver._load_flux(op, 1.0)    # every flux is negative
    g = _weighted_inverse(s, op.params, alpha, beta)
    u = np.zeros(op.n + 1)
    u[:-1] = op.h * np.cumsum(g[::-1])[::-1]
    return u


@pytest.mark.parametrize("pq", [(2.0, 3.0), (1.5, 4.0)], ids=["p2-q3", "p1.5-q4"])
def test_scaling_identities_through_the_closed_form(pq):
    # L(s t) = s^{q-1} (s^{p-q} L_p(t) + L_q(t)) = s^{p-1} (L_p(t) + s^{q-p} L_q(t)):
    # the plain load solves at m^{p-1} and alpha_*^{q-1} are m u_beta
    # (beta = m^{q-p}) and alpha_* u_alpha (alpha = alpha_*^{p-q}), the
    # paper's weighted solves; u_up relies on the second
    pr = make_params(p=pq[0], q=pq[1])
    op = DiscreteOperator.from_params(pr, n=256)
    load = discrete_solver._load_solution
    for scale in (3.0, 17.0, 0.2):
        pairs = ((scale * _weighted_unit_solve(op, 1.0, scale ** (pr.q - pr.p)),
                  load(op, scale ** (pr.p - 1.0))),
                 (scale * _weighted_unit_solve(op, scale ** (pr.p - pr.q), 1.0),
                  load(op, scale ** (pr.q - 1.0))))
        for paper, plain in pairs:
            assert np.max(np.abs(paper - plain)) <= 1e-12 * np.max(np.abs(plain))


def test_shipped_upper_functions_are_the_papers_scaled_solutions(gentle, cfg1):
    # the plain solve that ships as u_up is the paper's alpha_* u_alpha
    # (alpha = alpha_*^{p-q}); v_up is v_s, the scheme's solution of
    # A(v) = lam f(s) v^{-gamma} at its level s, to Newton's tolerance
    for env in (gentle, cfg1):
        pr, op = env.params, env.op
        assert (pr.p, pr.q) == (2.0, 3.0)
        a_star = env.pairs.first_margins["alpha_star"]
        paper = a_star * _weighted_unit_solve(op, a_star ** -1.0, 1.0)
        assert np.max(np.abs(env.pairs.u_up.values - paper)) <= 1e-12 * np.max(np.abs(paper))
        mu = pr.lam * float(env.spec.f(env.pairs.second_margins["v_up_level"]))
        res, scale, rnd, _ = discrete_solver._residual_scale(
            op, env.pairs.v_up.values, [discrete_solver._singular(mu, pr.gamma)])
        assert discrete_solver._scaled_err(res, scale, rnd) <= discrete_solver._SOLVE_TOL


@pytest.mark.parametrize("pair", ["second", "first"])
def test_pairs_check_the_auxiliary_solutions(gentle, cfg1, monkeypatch, pair):
    # second: with one Newton step allowed, psi on cfg_reference (Theta = 0,
    # no step) passes and v_up's singular-load solve runs out, naming its
    # level and worst node.  first: one node of every load solve off by
    # 1e-6 relative: the pairs still certify, and chi_low is u0's certified
    # margin, which sees the bump at that node where -L w_eta = eta, taken
    # as exact, would not
    if pair == "second":
        monkeypatch.setattr(discrete_solver, "_NEWTON_BUDGET", 1)
        with pytest.raises(ConvergenceFailure, match=(
                r"^second pair: v_up at level s = 1: Newton budget exhausted "
                r"\(scaled residual .*, worst node \d+\)$")):
            construct_pairs(cfg1.reactions, cfg1.profile, cfg1.op)
        return
    k = gentle.op.n // 2
    real = discrete_solver._load_solution

    def corrupted(op, arg):
        u = real(op, arg)
        u[k] *= 1.0 + 1e-6
        return u

    monkeypatch.setattr(discrete_solver, "_load_solution", corrupted)
    pairs = construct_pairs(gentle.reactions, gentle.profile, gentle.op)
    assert pairs.all_passed
    sub_u0 = pairs.certificates["sub_u0"]
    assert pairs.first_margins["chi_low"] == sub_u0.min_margin > 0.0
    exact = (discrete_solver._reaction_values(gentle.reactions, pairs.u0.values[:-1])
             - pairs.first_margins["eta"])
    bump = sub_u0.margins - exact
    assert int(np.argmin(bump)) == k and bump[k] < -1e-3


# ---------------------------------------------------------------- certify

def test_certify_kinds_and_guards(gentle):
    env = gentle
    u0, v0 = env.pairs.u0, env.pairs.v0
    with pytest.raises(ValueError):
        certify(env.reactions, u0, "everything", op=env.op)
    sub = certify(env.reactions, u0, "subsolution", op=env.op)
    assert sub.passed and sub.min_margin > 0.0
    # tail ratios u/(R-r) bracket the distance-growth constant from below
    assert 0.0 < sub.detail["cdelta_low"] <= sub.detail["cdelta_high"]
    # zero function is not a subsolution of a singular reaction
    zero = GridFunction(env.op.grid, np.zeros(env.op.n + 1))
    with pytest.raises(PositivityLoss):
        certify(env.reactions, zero, "subsolution", op=env.op)


def test_certify_ordering_scaled_margins(gentle):
    env = gentle
    lo, hi = env.pairs.u0, env.pairs.v_up
    cert = certify(env.reactions, lo, "ordering", other=hi, strict=True)
    assert cert.passed
    # margins are (hi-lo)/((R-r)/R): finite and positive up to the boundary
    assert np.all(np.isfinite(cert.margins))
    rev = certify(env.reactions, hi, "ordering", other=lo)
    assert not rev.passed


def test_certify_nonordering(gentle):
    env = gentle
    cert = certify(env.reactions, env.pairs.v0, "nonordering", other=env.pairs.v_up)
    assert cert.passed        # v0 exceeds v_up somewhere
    below = certify(env.reactions, env.pairs.u0, "nonordering", other=env.pairs.v_up)
    assert not below.passed   # u0 <= v_up everywhere, so no crossing


# ---------------------------------------------------------------- pairs

def test_first_pair_standalone(cfg1):
    u0, u_up, marg, super_u_up = build_first_pair(cfg1.reactions, op=cfg1.op)
    # without bracketing constraints the smallness condition admits a small
    # amplitude; the builder reports what it decides and the certificate of
    # u_up its search accepted, which is certify's, and the certified
    # margins stay positive
    assert list(marg) == ["eta", "alpha_star", "u_alpha_norm"]
    assert marg["alpha_star"] == pytest.approx(4.0)
    assert marg["eta"] == pytest.approx(0.5)
    assert certify(cfg1.reactions, u0, "subsolution", op=cfg1.op).min_margin > 0.0
    again = certify(cfg1.reactions, u_up, "supersolution", op=cfg1.op)
    assert super_u_up.summary() == again.summary() and super_u_up.min_margin > 0.0
    assert np.array_equal(super_u_up.margins, again.margins)
    assert float(u0.sup_norm()) == pytest.approx(0.10947570897613822, rel=1e-8)
    assert float(u_up.sup_norm()) == pytest.approx(1.4642768087202704, rel=1e-8)
    assert np.all(u0.values <= u_up.values)


def test_pairs_refuse_a_failed_f4_as_the_cli_does(gentle):
    # cfg_small without its khat shift fails (f4): a library caller gets the
    # CLI gate's FailedAssumptions, not a configuration error
    reactions = build_h(dataclasses.replace(gentle.spec, khat=0.0), gentle.params)
    with pytest.raises(FailedAssumptions,
                       match=r"^nonlinearity assumptions \(f0\)-\(f4\) failed validation: f4$"):
        construct_pairs(reactions, gentle.profile, gentle.op)


def test_alpha_star_exhaustion_names_the_failed_condition(gentle, monkeypatch):
    # the pointwise margin is the condition that fails in the doubling loop
    # on the shipped configurations; failing it at node 7 for every alpha_*
    # runs the budget out (the scalar condition holds from the seed on)
    real = discrete_solver._unshifted

    def failing(reactions, op, uv):
        res, A, react = real(reactions, op, uv)
        res[7] = -np.inf
        return res, A, react

    monkeypatch.setattr(discrete_solver, "_unshifted", failing)
    with pytest.raises(SearchExhausted, match=(
            r"^first pair: no admissible alpha_\* within the doubling budget; "
            r"last failed: pointwise \(u_up's worst margin at node 7\)$")):
        build_first_pair(gentle.reactions, gentle.op)


def test_first_pair_names_the_node_that_stops_eta(gentle):
    # an inner pair pinned near zero at node 5: eta is halved until it is
    # small enough, and every w_eta still fails to fit under node 5
    vals = np.ones(gentle.n + 1)
    vals[5] = 1e-300
    with pytest.raises(SearchExhausted, match=(
            r"^first pair: no admissible eta within the halving budget; "
            r"last failed: fit under the inner pair, at node 5$")):
        build_first_pair(gentle.reactions, gentle.op, fit_under=GridFunction(gentle.op.grid, vals))


def test_pairs_reference_geometry(cfg1):
    pairs = cfg1.pairs
    assert pairs.all_passed
    f, s = pairs.first_margins, pairs.second_margins
    # bracketing push the outer amplitude into the huge-scale window
    assert f["alpha_star"] == pytest.approx(8.733470924749859e17, rel=1e-6)
    assert f["chi_low"] == pytest.approx(0.5743497854260626, rel=1e-9)
    # v_up at the paper's cap s = theta1, a supersolution at every node,
    # least so at the axis
    assert s["v_up_level"] == cfg1.spec.theta1 == 1.0
    assert s["v_up_sup"] == pytest.approx(0.32165812583239833, rel=1e-9)
    super_v_up = pairs.certificates["super_v_up"]
    assert super_v_up.min_margin == pytest.approx(0.7379856359136469, rel=1e-9)
    assert super_v_up.detail["min_margin_node"] == 0
    assert float(pairs.v0.sup_norm()) == pytest.approx(3067402300.331083, rel=1e-6)
    assert float(pairs.v_up.sup_norm()) == s["v_up_sup"]
    assert float(pairs.u_up.sup_norm()) == pytest.approx(4.117001702515248e17, rel=1e-6)


def test_pairs_gentle_all_green(gentle):
    pairs = gentle.pairs
    assert pairs.all_passed
    for name in ("sub_u0", "super_u_up", "sub_v0", "super_v_up",
                 "order_u0_v0", "order_v0_uup", "order_u0_vup",
                 "order_vup_uup", "nonorder_v0_vup", "order_zeta_v0"):
        assert pairs.certificates[name].passed, name
    assert float(pairs.v_up.sup_norm()) <= gentle.spec.theta1


@pytest.mark.parametrize("share", [0.001, 0.5, 0.999])
@pytest.mark.parametrize("config", ["cfg_small.json", "cfg_reference.json"])
def test_v_up_is_a_node_supersolution_across_the_window(config, share):
    # from either end of the window to its middle, on a coarse and a fine
    # grid: v_up's supersolution margin is positive at every node, sup v_up
    # <= its level s, and v0 rises above v_up somewhere
    env = _build_env(config, share)
    for n in (256, 4096):
        op = DiscreteOperator.from_params(env.params, n)
        pairs = construct_pairs(env.reactions, solve_radial(env.reactions, env.window, op.grid),
                                op=op)
        cert = pairs.certificates["super_v_up"]
        assert cert.passed and np.all(cert.margins > 0.0) and cert.margins.size == n
        assert float(np.max(pairs.v_up.values)) <= pairs.second_margins["v_up_level"]
        assert np.any(pairs.v0.values > pairs.v_up.values)
        assert pairs.certificates["nonorder_v0_vup"].passed


# ---------------------------------------------------------------- solve map

def test_that_map_zero_input_positive(gentle):
    env = gentle
    zero = GridFunction(env.op.grid, np.zeros(env.op.n + 1))
    w = that_map(env.reactions, zero, op=env.op, khat=env.spec.khat)
    assert np.all(w.values[:-1] > 0.0)
    assert w.values[-1] == 0.0


def test_that_map_fixed_point_residual(gentle):
    env = gentle
    tr = amann_iterate(env.reactions, env.op, env.pairs.u0, env.pairs.v_up, "from_lower")
    u = tr.limit
    w = that_map(env.reactions, u, op=env.op, khat=env.spec.khat)
    assert float(np.max(np.abs(w.values - u.values))) <= 1e-7 * env.spec.theta2


def test_that_map_starts_a_solved_input_at_itself(gentle, monkeypatch):
    # u1, the ascending leg's Newton finish, is solved to the tolerance: the
    # map judges it on the shifted system at w = u (where the shift terms
    # cancel), starts Newton there and returns it, bit for bit, without a
    # step, at K = 0 and at the config's khat alike
    env = gentle
    u1 = _legs(env)[0].limit
    calls = _count_banded(monkeypatch)
    for khat in (0.0, env.spec.khat):
        w = that_map(env.reactions, u1, op=env.op, khat=khat)
        assert np.array_equal(w.values, u1.values)
    assert calls == []


def test_that_map_seeds_at_supersolution_input(cfg1, monkeypatch):
    # the descending limit is solved, so the map applied at its own fixed
    # point starts there and needs at most one Newton step
    env = cfg1
    up = amann_iterate(env.reactions, env.op, env.pairs.v0, env.pairs.u_up, "from_upper")
    steps = _count_banded(monkeypatch)
    w = that_map(env.reactions, up.limit, op=env.op, khat=env.spec.khat)
    assert len(steps) <= 1
    assert float(np.max(np.abs(w.values - up.limit.values))) <= \
        64.0 * np.spacing(up.limit.sup_norm())


def test_that_map_starts_an_ascending_iterate_at_its_load_solve(gentle, monkeypatch):
    # every iterate of the ascending orbit from u0 is a subsolution below
    # its image, which lies between u and P, the load solve of A(P) = lam
    # f(u) u^{-gamma}: the map evaluates u, then P, and Newton starts at P.
    # The orbit is unshifted on [u0, v_up], and its first image is the leg's
    # checked step
    env = gentle
    lo = amann_iterate(env.reactions, env.op, env.pairs.u0, env.pairs.v_up, "from_lower")
    assert lo.khat == 0.0
    starts, inits = [], []
    real_scale, real_newton = discrete_solver._residual_scale, discrete_solver._newton
    monkeypatch.setattr(discrete_solver, "_residual_scale",
                        lambda op, w, *a: starts.append(w.copy()) or real_scale(op, w, *a))
    monkeypatch.setattr(discrete_solver, "_newton",
                        lambda *a, **k: inits.append(a[2].copy()) or real_newton(*a, **k))
    before = env.pairs.u0
    for step in range(3):
        starts.clear()
        inits.clear()
        w = that_map(env.reactions, before, op=env.op, khat=0.0)
        load = discrete_solver._load_solution(
            env.op, discrete_solver._reaction_values(env.reactions, before.values[:-1]))
        assert np.array_equal(starts[0], before.values) and np.array_equal(starts[1], load)
        assert len(inits) == 1 and np.array_equal(inits[0], load)
        assert np.all(w.values >= before.values)
        if step == 0:
            assert np.array_equal(w.values, lo.iterates[1].values)   # the leg's own step
        before = w


def test_that_map_evaluates_a_tie_once(gentle, monkeypatch):
    # the descending leg's first input is evaluated once: it lies far above
    # its image, so Newton starts at the load solve and evaluates that, not
    # u a second time
    env = gentle
    u = env.pairs.u_up
    at_u = []
    real = discrete_solver._residual_scale

    def recorded(op, w, *args):
        at_u.append(np.array_equal(w[:-1], u.values[:-1]))
        return real(op, w, *args)

    monkeypatch.setattr(discrete_solver, "_residual_scale", recorded)
    that_map(env.reactions, u, op=env.op, khat=np.zeros(env.op.n))
    assert at_u[0] and not any(at_u[1:])


def test_shift_resolve_starts_from_the_rejected_image(gentle, monkeypatch):
    # the first descending step on cfg_small at n = 4096 raises its shift
    # twice; each re-solve starts from the image it rejected, which takes
    # fewer Newton steps than the same solve seeded at u (5 each), and lands
    # on the same image to the solve tolerance
    env = gentle
    op = DiscreteOperator.from_params(env.params, n=4096)
    pairs = construct_pairs(env.reactions, solve_radial(env.reactions, env.window, op.grid),
                            op=op)
    u = pairs.u_up
    steps = _count_banded(monkeypatch)
    maps = []
    real = discrete_solver.that_map

    def counted(reactions, u, op, khat, seed=None):
        before = len(steps)
        w = real(reactions, u, op, khat, seed=seed)
        maps.append((khat, seed is not None, len(steps) - before))
        return w

    monkeypatch.setattr(discrete_solver, "that_map", counted)
    w, K = discrete_solver._checked_step(env.reactions, u, op, False)
    assert len(maps) >= 2
    assert [seeded for _khat, seeded, _n in maps] == [False] + [True] * (len(maps) - 1)
    for khat, _seeded, solves in maps[1:]:
        before = len(steps)
        from_u = that_map(env.reactions, u, op=op, khat=khat, seed=u)
        assert solves < len(steps) - before
    assert np.max(np.abs(w.values - from_u.values)) <= 1e-12 * w.sup_norm()


@pytest.mark.parametrize("name, descents", [("gentle", 0), ("cfg1", 0), ("gentle", 2)],
                         ids=["gentle", "cfg1", "gentle-descended"])
def test_that_map_starts_a_far_supersolution_at_its_load_solve(name, descents, request,
                                                               monkeypatch):
    # u_up lies far above its image (scaled residual 291 on cfg_small, 56 on
    # cfg_reference).  After u the map evaluates P, the load solve of A(w) =
    # lam f(u) u^{-gamma}, which at K = 0 misses the map's system by its
    # singular term only and meets the solve tolerance: no Newton step.  It
    # agrees with the image seeded at u to 4.3e-12 of its sup on cfg_small
    # (3.0e-15 on cfg_reference), two answers within the rounding floor.
    # Two checked descending steps from u_up on cfg_small reach a
    # supersolution of scaled residual 0.57, near its image but not solved:
    # it starts at P too, and 3 Newton steps from there reach the image
    # seeded at u to 3.1e-16 of its sup
    env = request.getfixturevalue(name)
    u, K = env.pairs.u_up, np.zeros(env.op.n)
    for _ in range(descents):
        u, K = discrete_solver._checked_step(env.reactions, u, env.op, False)
    if descents:
        assert certify(env.reactions, u, "supersolution", op=env.op).passed
        assert _unshifted_scaled_residual(env, u.values) <= 1.0
    from_u = that_map(env.reactions, u, op=env.op, khat=K, seed=u)
    load = discrete_solver._load_solution(
        env.op, discrete_solver._reaction_values(env.reactions, u.values[:-1]))
    starts = []
    real = discrete_solver._residual_scale
    monkeypatch.setattr(discrete_solver, "_residual_scale",
                        lambda op, w, *a: starts.append(w.copy()) or real(op, w, *a))
    steps = _count_banded(monkeypatch)
    w = that_map(env.reactions, u, op=env.op, khat=K)
    assert np.array_equal(starts[0], u.values) and np.array_equal(starts[1], load)
    if not descents:
        assert len(starts) == 2 and steps == [] and np.array_equal(w.values, load)
    assert np.max(np.abs(w.values - from_u.values)) <= 1e-11 * from_u.sup_norm()


def test_that_map_rejects_negative(gentle):
    env = gentle
    bad = GridFunction(env.op.grid, -np.ones(env.op.n + 1))
    with pytest.raises(ConfigurationError):
        that_map(env.reactions, bad, op=env.op, khat=env.spec.khat)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(seed=137)
@example(seed=391)
@example(seed=1022)
@example(seed=1044)
@settings(max_examples=20, deadline=None)
def test_that_map_increasing_property(seed):
    # ordered inputs map to ordered outputs across amplitude scales.  Seed
    # 137's upper input (sup 121, a sin^2 shape) is a subsolution with scaled
    # residual 4.7e3 whose image reaches 2e10: Newton seeded at u would
    # exhaust its budget, and from the load solve P it takes no step.  The
    # lower inputs of seeds 391, 1022 and 1044 have a lower residual than
    # their P (1.01 against 7.02 on 391), yet Newton from u stalls at scaled
    # residual 0.94-0.98; from P it takes 5 steps
    pr = make_params(lam=0.31864850210138757)
    spec = NonlinearitySpec(kind="exp_saturating", theta1=1.0, theta2=176.0, k=100.0)
    rx = build_h(spec, pr)
    op = DiscreteOperator.from_params(pr, n=64)
    rng = np.random.default_rng(seed)
    x = op.grid
    amp = 10.0 ** rng.uniform(-2.0, 2.5)
    base = amp * (1.0 - x) * (1.0 + rng.uniform(0, 1) * np.sin(np.pi * rng.integers(1, 4) * x) ** 2)
    bump = rng.uniform(0, amp) * (1.0 - x) * (1.0 + rng.uniform(0, 1) * x)
    base[-1] = bump[-1] = 0.0
    w1 = that_map(rx, GridFunction(x, base), op=op, khat=spec.khat)
    w2 = that_map(rx, GridFunction(x, base + bump), op=op, khat=spec.khat)
    tol = 1e-10 * max(1.0, float(w2.sup_norm()))
    assert np.all(w2.values - w1.values >= -tol)


# ---------------------------------------------------------------- iteration

def test_amann_gentle_both_legs(gentle):
    env = gentle
    lo = amann_iterate(env.reactions, env.op, env.pairs.u0, env.pairs.v_up, "from_lower")
    assert lo.converged
    assert all(lo.monotone)
    assert lo.n_steps == 2          # one checked map step, then the Newton finish
    assert 1 <= lo.newton_steps <= 4
    assert float(lo.limit.sup_norm()) == pytest.approx(0.12570737771518542, rel=1e-6)
    assert original_residual(env.reactions, lo.limit, env.op) <= 1e-6
    # ascending run never needed a shift: the visited range keeps fhat monotone
    assert lo.khat == 0.0

    up = amann_iterate(env.reactions, env.op, env.pairs.v0, env.pairs.u_up, "from_upper")
    assert up.converged
    assert all(up.monotone)
    assert float(up.limit.sup_norm()) == pytest.approx(5822.071120854884, rel=1e-6)
    assert original_residual(env.reactions, up.limit, env.op) <= 1e-6
    # descending from 1.3e4 the checked shift is raised to keep each image a supersolution
    assert up.khat > 0.0

    gap = float(np.max(np.abs(lo.limit.values - up.limit.values)))
    assert gap >= 0.1 * env.spec.theta1


def test_amann_interval_endpoints_respected(gentle):
    env = gentle
    lo = amann_iterate(env.reactions, env.op, env.pairs.u0, env.pairs.v_up, "from_lower")
    assert np.all(lo.limit.values >= env.pairs.u0.values - 1e-9)
    assert np.all(lo.limit.values <= env.pairs.v_up.values + 1e-9)
    # iterates ascend from the lower endpoint
    sups = [float(np.max(g.values)) for g in lo.iterates]
    assert sups == sorted(sups)


def test_amann_rejects_unordered_interval(gentle):
    env = gentle
    with pytest.raises(ConfigurationError):
        amann_iterate(env.reactions, env.op, env.pairs.v_up, env.pairs.u0, "from_lower")
    with pytest.raises(ValueError):
        amann_iterate(env.reactions, env.op, env.pairs.u0, env.pairs.v_up, "sideways")


def test_amann_descending_iterates_stay_supersolutions(cfg1):
    # the node-wise shift is checked after the map's solve so that the image
    # of a supersolution is again one, and the finish is a solution below
    # it; the run never leaves [v0, u_up]
    env = cfg1
    up = amann_iterate(env.reactions, env.op, env.pairs.v0, env.pairs.u_up, "from_upper")
    assert up.converged
    for it in up.iterates:
        assert certify(env.reactions, it, "supersolution", op=env.op).passed
        assert np.all(it.values >= env.pairs.v0.values)
    assert float(up.limit.sup_norm()) == pytest.approx(8.874e16, rel=1e-3)


@pytest.mark.parametrize("start", ["from_lower", "from_upper"])
def test_amann_finish_failure_names_the_leg_and_node(gentle, monkeypatch, start):
    # a finish that lands on the wrong side of the first iterate is refused:
    # ConvergenceFailure names the leg, the finish and the worst node
    env = gentle
    real = discrete_solver._solve_unshifted

    def off_side(reactions, op, init, polish=False):
        w, steps, err = real(reactions, op, init, polish)
        w[17] = init[17] - 1e-3 if start == "from_lower" else init[17] + 1e-3
        return w, steps, err

    monkeypatch.setattr(discrete_solver, "_solve_unshifted", off_side)
    lower, upper = ((env.pairs.u0, env.pairs.v_up) if start == "from_lower"
                    else (env.pairs.v0, env.pairs.u_up))
    with pytest.raises(ConvergenceFailure, match=rf"^{start} finish: Newton result lies "
                       r"1\.000e-03 (below|above) the first iterate \(worst node 17\)$"):
        amann_iterate(env.reactions, env.op, lower, upper, start)
    # a finish whose Newton fails names its worst node the same way
    monkeypatch.setattr(discrete_solver, "_NEWTON_BUDGET", 0)
    monkeypatch.setattr(discrete_solver, "_checked_step",
                        lambda reactions, u, op, ascending: (u, np.zeros(op.n)))
    with pytest.raises(ConvergenceFailure, match=rf"^{start} finish: Newton budget "
                       r"exhausted \(scaled residual .*, worst node \d+\)$"):
        amann_iterate(env.reactions, env.op, lower, upper, start)


def test_global_shift_moves_u_up_by_float_noise(cfg1):
    # why the legs shift node-wise: the global shift that keeps
    # fhat + khat t nondecreasing up to u_up is ~1.5e34, and one map under
    # it moves the 4e17 endpoint by float noise although u_up is far from
    # a fixed point
    env = cfg1
    u_up = env.pairs.u_up
    khat = choose_khat(env.spec, env.params, t_max=u_up.sup_norm())
    w = that_map(env.reactions, u_up, op=env.op, khat=khat)
    assert float(np.max(np.abs(w.values - u_up.values))) <= 64.0 * np.spacing(u_up.sup_norm())
    assert original_residual(env.reactions, w, env.op) > 1.0


def test_amann_ascending_raises_the_checked_shift(gentle):
    # from v0 the ascending leg climbs to u2 through the saturating tail of
    # f, where fhat falls: the checked shift is raised there, and every
    # iterate stays a certified subsolution below u_up
    env = gentle
    lo = amann_iterate(env.reactions, env.op, env.pairs.v0, env.pairs.u_up, "from_lower")
    assert lo.converged
    assert all(lo.monotone)
    assert lo.khat > 0.0
    assert float(lo.limit.sup_norm()) == pytest.approx(5822.071120854884, rel=1e-6)
    for it in lo.iterates:
        assert certify(env.reactions, it, "subsolution", op=env.op).passed
        assert np.all(it.values <= env.pairs.u_up.values)


@pytest.mark.parametrize("name", ["cfg1", "gentle"])
def test_amann_ascending_iterates_stay_subsolutions(name, request):
    # on the theorem interval [u0, v_up] of both shipped configs the check
    # never fires: the leg runs unshifted
    env = request.getfixturevalue(name)
    lo = amann_iterate(env.reactions, env.op, env.pairs.u0, env.pairs.v_up, "from_lower")
    assert lo.converged and lo.khat == 0.0
    for it in lo.iterates:
        assert certify(env.reactions, it, "subsolution", op=env.op).passed


def test_amann_limit_mesh_stability(gentle):
    # the same interval solved at half the resolution lands on the same
    # function to discretization accuracy
    env = gentle
    n2 = env.n // 2
    op2 = DiscreteOperator.from_params(env.params, n=n2)
    prof2 = solve_radial(env.reactions, env.window, op2.grid)
    pairs2 = construct_pairs(env.reactions, prof2, op=op2)
    lo2 = amann_iterate(env.reactions, op2, pairs2.u0, pairs2.v_up, "from_lower")
    lo = amann_iterate(env.reactions, env.op, env.pairs.u0, env.pairs.v_up, "from_lower")
    diff = np.max(np.abs(lo2.limit.values - lo.limit.values[::2]))
    assert diff <= 5e-4 * float(lo.limit.sup_norm())


def _legs(env):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lo = amann_iterate(env.reactions, env.op, env.pairs.u0, env.pairs.v_up, "from_lower")
        up = amann_iterate(env.reactions, env.op, env.pairs.v0, env.pairs.u_up, "from_upper")
    return lo, up


@pytest.mark.parametrize("name", ["gentle", "cfg1"])
def test_each_solution_reports_the_residual_its_newton_solve_accepted(name, request):
    # u1, u2 and u3 report the rounding-aware scaled residual their Newton
    # solve measured when it stopped, not a recomputation: it is, bit for
    # bit, the unshifted system's residual at the returned iterate, within
    # the solve tolerance (the legs' finish is polished, u3's is not)
    env = request.getfixturevalue(name)
    lo, up = _legs(env)
    third, u3 = search_third_solution(env.reactions, lo.limit, up.limit, env.pairs, op=env.op)
    assert third["status"] == "converged"
    for u, reported in ((lo.limit, lo.scaled_residual), (up.limit, up.scaled_residual),
                        (u3, third["scaled_residual"])):
        err = _unshifted_scaled_residual(env, u.values)
        assert err == reported and err <= 1e-12


def test_probe_and_ascending_leg_banded_solves(gentle, monkeypatch):
    # the ascending leg is a long orbit of subsolution inputs, each seeded at
    # itself (16 banded solves when every map started at the load seed); the
    # third-solution probe is one Newton polish of a shooting profile
    env = gentle
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        calls = _count_banded(monkeypatch)
        lo = amann_iterate(env.reactions, env.op, env.pairs.u0, env.pairs.v_up, "from_lower")
        assert lo.converged and len(calls) <= 12
        up = amann_iterate(env.reactions, env.op, env.pairs.v0, env.pairs.u_up, "from_upper")
    calls.clear()
    report, u3 = search_third_solution(env.reactions, lo.limit, up.limit, env.pairs, op=env.op)
    assert report["status"] == "converged" and u3 is not None
    assert len(calls) == report["newton_steps"] <= 8


@pytest.mark.parametrize("share", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("config", ["cfg_small.json", "cfg_reference.json"])
def test_finished_u1_is_the_limit_of_the_plain_orbit(config, share):
    # the orbit the finish replaces: the solve map at K = 0 from u0, run
    # until its increment is below 1e-12 theta2, climbs to the minimal
    # solution from below.  The finished u1 lies above it at every node and
    # agrees with it to 1e-9 of its sup; both legs end solved to the
    # solve tolerance
    env = _build_env(config, share)
    lo, up = _legs(env)
    assert lo.scaled_residual <= 1e-12 and up.scaled_residual <= 1e-12
    u = env.pairs.u0
    for _ in range(100):
        w = that_map(env.reactions, u, op=env.op, khat=0.0)
        inc = float(np.max(np.abs(w.values - u.values)))
        u = w
        if inc < 1e-12 * env.spec.theta2:
            break
    else:
        pytest.fail(f"orbit increment {inc:.3e} after 100 maps")
    assert np.max(np.abs(lo.limit.values - u.values)) <= 1e-9 * lo.limit.sup_norm()
    assert np.all(lo.limit.values >= u.values)


def _march_root(op, reactions, a, band, count=64):
    """The start where u_n(start) rises through 0 within a (1 +- 1e-5), by
    nested uniform grids of starts until the bracket is below band / 100."""
    lo, hi = a * (1.0 - 1e-5), a * (1.0 + 1e-5)
    while hi - lo >= 0.01 * band:
        starts = np.linspace(lo, hi, count)
        un = march(op, reactions, starts)[:, -1]
        k = np.flatnonzero((un[:-1] <= 0.0) & (un[1:] > 0.0))
        assert k.size == 1, un
        lo, hi = starts[k[0]], starts[k[0] + 1]
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("name", ["gentle", "cfg1"])
def test_march_roots_are_the_amann_limits(name, request):
    # shooting is an oracle for both legs that shares no Newton, shift or
    # order interval with them: the march from u(0) = u1(0) or u2(0) must
    # reach the boundary at 0.  Both legs end on a Newton solve of the
    # unshifted system, so both limits are the march root to 1e-9 of u(0)
    env = request.getfixturevalue(name)
    lo, up = _legs(env)
    for leg in (lo, up):
        a = float(leg.limit.values[0])
        band = 1e-9 * a
        root = _march_root(env.op, env.reactions, a, band)
        assert abs(root - a) <= band, (leg.start, root, a)
    # every node of the march from the limit's own u(0) stays positive
    u = march(env.op, env.reactions, [float(lo.limit.values[0])])[0]
    assert np.all(u[:-1] > 0.0)


def test_march_reproduces_the_scheme(gentle):
    # a march is the scheme's rows solved node by node: A(u) equals the
    # reaction at nodes 0..n-1 to rounding, whatever u_n it reaches
    env = gentle
    u = march(env.op, env.reactions, [20.0, 40.0])
    assert np.all(u[0, :-1] > 0.0) and u[0, -1] > 0.0     # overshoots the boundary
    assert u[1, -1] == -np.inf                              # dies before it
    row = u[0]
    A = apply(env.op, row)[:-1]
    react = env.params.lam * env.spec.f(row[:-1]) * row[:-1] ** (-env.params.gamma)
    assert np.max(np.abs(A - react) / (1.0 + react)) < 1e-9


def test_search_third_solution_failures_name_stage_and_node(gentle, monkeypatch):
    env = gentle
    lo, up = _legs(env)
    # no root between u1(0) and itself: the bracket stage fails, at node n
    report, u3 = search_third_solution(env.reactions, lo.limit, lo.limit, env.pairs, op=env.op)
    assert u3 is None and report["status"] == "bracket_failed"
    assert report["message"].startswith("shooting bracket: 0 falling sign changes")
    assert "at node 64" in report["message"]
    # a Newton budget of one step: the polish fails and names its worst node
    monkeypatch.setattr(discrete_solver, "_NEWTON_BUDGET", 1)
    report, u3 = search_third_solution(env.reactions, lo.limit, up.limit, env.pairs, op=env.op)
    assert u3 is None and report["status"] == "polish_failed"
    assert report["message"].startswith("shooting polish from u(0) = ")
    assert "Newton budget exhausted" in report["message"]
    assert "worst node" in report["message"]
