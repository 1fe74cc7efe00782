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
    IterationBudget,
    IterationStall,
    MonotonicityViolation,
    PositivityLoss,
)
from quadrature_oracle import quadrature_solve


def make_params(p=2.0, q=3.0, gamma=0.5, dim=2, radius=1.0, lam=0.3):
    return Params(p=p, q=q, gamma=gamma, dim=dim, radius=radius, lam=lam)


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
    # -L(u) with |u'| = 1: flux F(-1) = -(alpha+beta); divergence of
    # r^{N-1} F over r^{N-1} gives (N-1)/r * (alpha+beta)
    interior = np.arange(1, op.n)
    expect = (dim - 1.0) / op.grid[interior] * 2.0
    assert np.max(np.abs(out[interior] - expect)) <= 1e-11
    assert out[-1] == 0.0                                    # boundary slot


def _p2_part(pr, n, u_of_grid):
    # the flux alpha L_p + beta L_q is linear in (alpha, beta) for a fixed
    # function, so two divergences isolate the p=2 contribution without
    # zero weights
    op = DiscreteOperator.from_params(pr, n=n)
    u = u_of_grid(op.grid)
    g = np.diff(u) / op.h

    def weighted(beta):
        return np.append(discrete_solver._divergence(op, lpq_scalar(g, pr, 1.0, beta)), 0.0)

    q_part = weighted(2.0) - weighted(1.0)
    return weighted(1.0) - q_part


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
        construct_pairs(env.params, env.spec, env.reactions, env.window, env.profile, half)
    with pytest.raises(ConfigurationError, match="operator grid"):
        build_first_pair(env.params, env.spec, env.reactions, env.op, fit_under=g)
    with pytest.raises(ConfigurationError, match="operator grid"):
        amann_iterate(env.params, env.reactions, env.pairs.u0, env.pairs.v_up,
                      "from_lower", half)
    with pytest.raises(ConfigurationError, match="operator grid"):
        search_third_solution(env.params, env.reactions, env.pairs.u0, env.pairs.v_up,
                              env.pairs, half)


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
    search_third_solution(env.params, env.reactions, lo.limit, up.limit, env.pairs, op=env.op)
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


@pytest.mark.parametrize("dim, pq", [
    *(pytest.param(dim, (2.0, 3.0), id=f"{dim}") for dim in (1, 2, 3)),
    *(pytest.param(dim, (1.5, 2.5), id=f"{dim}-p1.5") for dim in (1, 2, 3)),
])
def test_load_solution_is_accepted_without_a_step(dim, pq, monkeypatch):
    # the flux-integrated seed solves the scheme itself, not the continuum
    # problem: Newton's 1e-12 rounding-aware check passes at once, for the
    # closed-form lpq_inverse (q = 2p - 1) and its iterative branch alike.
    # With weights (alpha, beta) = (0.37, 2.9) it does so after scaling: for
    # s^{q-p} = beta/alpha, s u solves the plain scheme with load
    # s^{p-1} rhs / alpha, as v_up = m u_beta does in the second pair
    pr = make_params(p=pq[0], q=pq[1], dim=dim)
    op = DiscreteOperator.from_params(pr, n=256)
    alpha, beta = 0.37, 2.9
    s = (beta / alpha) ** (1.0 / (pr.q - pr.p))
    calls = _count_banded(monkeypatch)
    for rhs in (np.full(op.n, 1.7), 1.0 + np.linspace(0.0, 2.0, op.n) ** 2):
        seed = discrete_solver._load_solution(op, rhs)
        scaled = s * discrete_solver._load_solution(op, rhs, alpha, beta)
        for u0, load in ((seed, rhs), (scaled, s ** (pr.p - 1.0) / alpha * rhs)):
            assert u0[-1] == 0.0 and np.all(np.diff(u0) < 0.0)
            u, steps = discrete_solver._newton(op, 0.0, 0.0, np.zeros(op.n), load, u0)
            assert np.array_equal(u, u0) and steps == 0
    assert calls == []


def test_construct_pairs_banded_solves(gentle, monkeypatch):
    # the constant-load auxiliaries behind both pairs start at their answer;
    # only v0 (a Theta-shifted solve) still takes Newton steps
    env = gentle
    calls = _count_banded(monkeypatch)
    pairs = construct_pairs(env.params, env.spec, env.reactions, env.window,
                            env.profile, op=env.op)
    assert len(calls) <= 20
    assert pairs.all_passed


@pytest.mark.parametrize("pq", [(2.0, 3.0), (1.5, 2.5)])
def test_jac_bands_from_kept_derivative_bitwise(pq):
    pr = make_params(p=pq[0], q=pq[1])
    op = DiscreteOperator.from_params(pr, n=64)
    u = 1.0 - op.grid ** 2
    u[:8] = u[0]                       # flat core: g = 0
    u[8:12] = u[0] - 1e-12 * np.arange(1, 5)  # gradients below the clip
    u[-1] = 0.0
    zeros = np.zeros(op.n)
    with np.errstate(divide="ignore"):   # unclipped F'(0) is infinite for p < 2
        kept = discrete_solver._residual_scale(op, u, 0.0, 0.0, zeros, np.ones(op.n),
                                               False)[3]
    g = kept[0]
    assert np.any(np.abs(g) < discrete_solver._JAC_FLOOR)
    fresh = (g, lpq_derivative(g, pr, floor=discrete_solver._JAC_FLOOR))
    for theta, khat in ((0.0, 0.0), (0.3, 2.0)):
        got = discrete_solver._jac_bands(op, u, theta, khat, zeros, False, kept)
        want = discrete_solver._jac_bands(op, u, theta, khat, zeros, False, fresh)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("pq", [(2.0, 3.0), (1.5, 2.5)])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_jac_bands_are_the_residual_derivative(dim, pq):
    # central differences of the residual, column by column, against the
    # bands: every row, the axis row 0 and the row next to the Dirichlet node
    # included, with and without the theta, shift and singular terms
    pr = make_params(p=pq[0], q=pq[1], dim=dim)
    op = DiscreteOperator.from_params(pr, n=32)
    u = (1.0 - op.grid) * (1.5 + op.grid)   # |u'| >= 0.5: F is smooth at every half node
    rhs = np.linspace(1.0, 2.0, op.n)
    anchor = 0.9 * u[:-1]
    for theta, khat, mu in ((0.0, 0.0, 0.0), (0.3, 2.0, 0.7)):
        args = (theta, khat, np.full(op.n, mu))

        def residual(v):
            return discrete_solver._residual_scale(op, v, *args, rhs, mu > 0.0, anchor)

        sub, diag, sup = discrete_solver._jac_bands(op, u, *args, mu > 0.0, residual(u)[3])
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
    res, scale, rnd, _ = discrete_solver._residual_scale(op, u, 0.0, 0.0, np.zeros(op.n),
                                                         np.full(op.n, 1e6), False)
    assert np.all(np.isfinite(rnd))
    assert np.all(res[core] == -1e6)
    scaled = (np.abs(res) - rnd) / scale
    assert np.all(scaled[core] > 0.999) and np.all(scaled[~core] < 1e-9)
    assert core[np.argmax(scaled)]
    assert discrete_solver._scaled_err(res, scale, rnd) > 0.999


@pytest.mark.parametrize("pq", [(2.0, 3.0), (1.5, 4.0)], ids=["p2-q3", "p1.5-q4"])
def test_scaling_identities_through_the_closed_form(pq):
    # A_{1,1}(m u) = m^{p-1} A^{1,beta}(u) with beta = m^{q-p}, and
    # A_{1,1}(alpha_* u) = alpha_*^{q-1} A^{alpha,1}(u) with alpha = alpha_*^{p-q}:
    # so m u_beta and alpha_* u_alpha solve the plain scheme with the loads
    # m^{p-1} and alpha_*^{q-1}, which the second pair's check relies on
    pr = make_params(p=pq[0], q=pq[1])
    op = DiscreteOperator.from_params(pr, n=256)
    load = discrete_solver._load_solution
    for scale in (3.0, 17.0, 0.2):
        pairs = ((scale * load(op, 1.0, 1.0, scale ** (pr.q - pr.p)),
                  load(op, scale ** (pr.p - 1.0))),
                 (scale * load(op, 1.0, scale ** (pr.p - pr.q), 1.0),
                  load(op, scale ** (pr.q - 1.0))))
        for scaled, plain in pairs:
            assert np.max(np.abs(scaled - plain)) <= 1e-12 * np.max(np.abs(plain))


@pytest.mark.parametrize("pair, message", [
    ("second", "second pair: v_up = m u_beta misses -L v = m\\^\\(p-1\\)"),
    ("first", "first pair: w_eta misses -L w = eta"),
], ids=["second", "first"])
def test_pairs_check_the_auxiliary_solutions(gentle, monkeypatch, pair, message):
    # one node of u_beta (beta != 1), or of w_eta (the one unit-weight load on
    # this config: alpha_* and m differ from 1), off by 1e-6 relative: the
    # searches still run, and the check at the chosen m or eta names the
    # pair and that node
    env = gentle
    k = env.op.n // 2
    real = discrete_solver._load_solution

    def corrupted(op, rhs, alpha=1.0, beta=1.0):
        u = real(op, rhs, alpha, beta)
        if (beta != 1.0) if pair == "second" else (alpha == beta == 1.0):
            u[k] *= 1.0 + 1e-6
        return u

    monkeypatch.setattr(discrete_solver, "_load_solution", corrupted)
    with pytest.raises(ConvergenceFailure, match=f"^{message} by scaled residual "
                                                 f".* \\(worst node {k}\\)$"):
        construct_pairs(env.params, env.spec, env.reactions, env.window, env.profile, env.op)


# ---------------------------------------------------------------- certify

def test_certify_kinds_and_guards(gentle):
    env = gentle
    u0, v0 = env.pairs.u0, env.pairs.v0
    with pytest.raises(ValueError):
        certify(env.params, env.reactions, u0, "everything", op=env.op)
    sub = certify(env.params, env.reactions, u0, "subsolution", op=env.op)
    assert sub.passed and sub.min_margin > 0.0
    # tail ratios u/(R-r) bracket the distance-growth constant from below
    assert 0.0 < sub.detail["cdelta_low"] <= sub.detail["cdelta_high"]
    # zero function is not a subsolution of a singular reaction
    zero = GridFunction(env.op.grid, np.zeros(env.op.n + 1))
    with pytest.raises(PositivityLoss):
        certify(env.params, env.reactions, zero, "subsolution", op=env.op)


def test_certify_ordering_scaled_margins(gentle):
    env = gentle
    lo, hi = env.pairs.u0, env.pairs.v_up
    cert = certify(env.params, env.reactions, lo, "ordering", other=hi, strict=True)
    assert cert.passed
    # margins are (hi-lo)/((R-r)/R): finite and positive up to the boundary
    assert np.all(np.isfinite(cert.margins))
    rev = certify(env.params, env.reactions, hi, "ordering", other=lo)
    assert not rev.passed


def test_certify_nonordering(gentle):
    env = gentle
    cert = certify(env.params, env.reactions, env.pairs.v0, "nonordering",
                   other=env.pairs.v_up)
    assert cert.passed        # v0 exceeds v_up somewhere
    below = certify(env.params, env.reactions, env.pairs.u0, "nonordering",
                    other=env.pairs.v_up)
    assert not below.passed   # u0 <= v_up everywhere, so no crossing


# ---------------------------------------------------------------- pairs

def test_first_pair_standalone(cfg1):
    u0, u_up, marg = build_first_pair(cfg1.params, cfg1.spec, cfg1.reactions,
                                      op=cfg1.op)
    # without bracketing constraints the smallness condition admits a small
    # amplitude; the certified margins stay positive
    assert marg["alpha_star"] == pytest.approx(4.0)
    assert marg["eta"] == pytest.approx(0.5)
    assert marg["chi_low"] > 0.0
    assert marg["chi_high"] > 0.0
    assert float(u0.sup_norm()) == pytest.approx(0.10947570897613822, rel=1e-8)
    assert float(u_up.sup_norm()) == pytest.approx(1.4642768087202704, rel=1e-8)
    assert np.all(u0.values <= u_up.values)


def test_pairs_reference_geometry(cfg1):
    pairs = cfg1.pairs
    assert pairs.all_passed
    f, s = pairs.first_margins, pairs.second_margins
    # bracketing push the outer amplitude into the huge-scale window
    assert f["alpha_star"] == pytest.approx(8.733470924749859e17, rel=1e-6)
    assert f["chi_low"] == pytest.approx(0.5743497854260626, rel=1e-9)
    assert s["m_lambda"] == pytest.approx(2.1011343036922674, rel=1e-9)
    assert s["eps_cap"] == pytest.approx(0.6381175116285569, rel=1e-9)
    assert s["eps_growth"] == pytest.approx(2.588662929880237, rel=1e-9)
    assert s["collar_deficit"] < 0.0     # recorded, not asserted, by design
    assert float(pairs.v0.sup_norm()) == pytest.approx(3067402300.331083, rel=1e-6)
    assert float(pairs.v_up.sup_norm()) == pytest.approx(0.3618824883714431, rel=1e-9)
    assert float(pairs.u_up.sup_norm()) == pytest.approx(4.117001702515248e17, rel=1e-6)


def test_pairs_gentle_all_green(gentle):
    pairs = gentle.pairs
    assert pairs.all_passed
    for name in ("sub_u0", "super_u_up", "sub_v0", "super_v_up",
                 "order_u0_v0", "order_v0_uup", "order_u0_vup",
                 "order_vup_uup", "nonorder_v0_vup", "order_zeta_v0"):
        assert pairs.certificates[name].passed, name
    assert float(pairs.v_up.sup_norm()) <= gentle.spec.theta1


# ---------------------------------------------------------------- solve map

def test_that_map_zero_input_positive(gentle):
    env = gentle
    zero = GridFunction(env.op.grid, np.zeros(env.op.n + 1))
    w = that_map(env.params, env.reactions, zero, op=env.op)
    assert np.all(w.values[:-1] > 0.0)
    assert w.values[-1] == 0.0


def test_that_map_fixed_point_residual(gentle):
    env = gentle
    tr = amann_iterate(env.params, env.reactions, env.pairs.u0, env.pairs.v_up,
                       "from_lower", op=env.op)
    u = tr.limit
    w = that_map(env.params, env.reactions, u, op=env.op)
    assert float(np.max(np.abs(w.values - u.values))) <= 1e-7 * env.spec.theta2


def test_that_map_seeds_at_supersolution_input(cfg1, monkeypatch):
    # the descending limit is a supersolution to rounding; seeded there, the
    # map applied at its own fixed point needs at most one Newton step (the
    # load-sized seed, far above it, costs several)
    env = cfg1
    up = amann_iterate(env.params, env.reactions, env.pairs.v0, env.pairs.u_up,
                       "from_upper", op=env.op)
    steps = _count_banded(monkeypatch)
    w = that_map(env.params, env.reactions, up.limit, op=env.op)
    assert len(steps) <= 1
    assert float(np.max(np.abs(w.values - up.limit.values))) <= \
        64.0 * np.spacing(up.limit.sup_norm())


def test_that_map_seeds_at_ascending_orbit_input(gentle, monkeypatch):
    # from its second step on, every iterate of the ascending leg is the
    # image of a subsolution: a subsolution itself within the load's scale
    # of its own image, so it seeds Newton (the load-sized paraboloid far
    # above it took 4 banded solves per map)
    env = gentle
    lo = amann_iterate(env.params, env.reactions, env.pairs.u0, env.pairs.v_up,
                       "from_lower", op=env.op)
    assert lo.n_steps >= 3
    steps = _count_banded(monkeypatch)
    for before, after in zip(lo.iterates[2:], lo.iterates[3:]):
        steps.clear()
        w = that_map(env.params, env.reactions, before, op=env.op, khat=lo.khat)
        assert len(steps) <= 2
        assert np.array_equal(w.values, after.values)   # the leg's own step


def test_that_map_rejects_negative(gentle):
    env = gentle
    bad = GridFunction(env.op.grid, -np.ones(env.op.n + 1))
    with pytest.raises(ConfigurationError):
        that_map(env.params, env.reactions, bad, op=env.op)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(seed=137)
@settings(max_examples=20, deadline=None)
def test_that_map_increasing_property(seed):
    # ordered inputs map to ordered outputs across amplitude scales.  Seed
    # 137's upper input (sup 121, a sin^2 shape) is a subsolution with scaled
    # residual 4.7e3 whose image reaches 2e10: seeded there, Newton would
    # exhaust its budget, which is why a subsolution input seeds the map
    # only at scaled residual <= 1
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
    w1 = that_map(pr, rx, GridFunction(x, base), op=op)
    w2 = that_map(pr, rx, GridFunction(x, base + bump), op=op)
    tol = 1e-10 * max(1.0, float(w2.sup_norm()))
    assert np.all(w2.values - w1.values >= -tol)


# ---------------------------------------------------------------- iteration

def test_amann_gentle_both_legs(gentle):
    env = gentle
    lo = amann_iterate(env.params, env.reactions, env.pairs.u0, env.pairs.v_up,
                       "from_lower", op=env.op)
    assert lo.converged
    assert all(lo.monotone)
    assert lo.n_steps == 4
    assert float(lo.limit.sup_norm()) == pytest.approx(0.12570737771518542, rel=1e-6)
    assert original_residual(env.params, env.reactions, lo.limit, env.op) <= 1e-6
    # ascending run never needed a shift: the visited range keeps fhat monotone
    assert lo.khat == 0.0

    up = amann_iterate(env.params, env.reactions, env.pairs.v0, env.pairs.u_up,
                       "from_upper", op=env.op)
    assert up.converged
    assert all(up.monotone)
    assert float(up.limit.sup_norm()) == pytest.approx(5822.071120854884, rel=1e-6)
    assert original_residual(env.params, env.reactions, up.limit, env.op) <= 1e-6
    # descending from 1.3e4 the checked shift is raised to keep each image a supersolution
    assert up.khat > 0.0

    gap = float(np.max(np.abs(lo.limit.values - up.limit.values)))
    assert gap >= 0.1 * env.spec.theta1


def test_amann_interval_endpoints_respected(gentle):
    env = gentle
    lo = amann_iterate(env.params, env.reactions, env.pairs.u0, env.pairs.v_up,
                       "from_lower", op=env.op)
    assert np.all(lo.limit.values >= env.pairs.u0.values - 1e-9)
    assert np.all(lo.limit.values <= env.pairs.v_up.values + 1e-9)
    # iterates ascend from the lower endpoint
    sups = [float(np.max(g.values)) for g in lo.iterates]
    assert sups == sorted(sups)


def test_amann_rejects_unordered_interval(gentle):
    env = gentle
    with pytest.raises(ConfigurationError):
        amann_iterate(env.params, env.reactions, env.pairs.v_up, env.pairs.u0,
                      "from_lower", op=env.op)
    with pytest.raises(ValueError):
        amann_iterate(env.params, env.reactions, env.pairs.u0, env.pairs.v_up,
                      "sideways", op=env.op)


def test_amann_budget_warning(gentle):
    env = gentle
    with pytest.warns(IterationBudget):
        tr = amann_iterate(env.params, env.reactions, env.pairs.v0, env.pairs.u_up,
                           "from_upper", op=env.op, budget=2)
    assert not tr.converged
    assert tr.n_steps == 2


def test_amann_descending_iterates_stay_supersolutions(cfg1):
    # the node-wise shift is checked after every solve so that each image
    # of a supersolution is again one; the run never leaves [v0, u_up]
    env = cfg1
    up = amann_iterate(env.params, env.reactions, env.pairs.v0, env.pairs.u_up,
                       "from_upper", op=env.op)
    assert up.converged and not up.stalled
    for it in up.iterates:
        assert certify(env.params, env.reactions, it, "supersolution", op=env.op).passed
        assert np.all(it.values >= env.pairs.v0.values)
    assert float(up.limit.sup_norm()) == pytest.approx(8.874e16, rel=1e-3)


def test_amann_stall_branch(cfg1, monkeypatch):
    # a step that moves the 4e17 endpoint by one ulp per node (64 at the
    # top, above the conv_factor target) while it is far from a fixed point
    # is a float-level move that must read as a stall, not as convergence
    env = cfg1

    def float_noise(params, reactions, u, op, K, ascending):
        vals = u.values.copy()
        vals[:-1] = np.nextafter(vals[:-1], -np.inf)
        return GridFunction(u.nodes, vals), K

    monkeypatch.setattr(discrete_solver, "_checked_step", float_noise)
    with pytest.warns(IterationStall):
        tr = amann_iterate(env.params, env.reactions, env.pairs.v0, env.pairs.u_up,
                           "from_upper", op=env.op)
    assert tr.converged is False
    assert tr.stalled is True
    assert tr.n_steps == 1
    assert 0.0 < tr.increments[0] <= 64.0 * np.spacing(env.pairs.u_up.sup_norm())
    assert tr.residual > 1.0


def test_global_shift_moves_u_up_by_float_noise(cfg1):
    # why the legs shift node-wise: the global shift that keeps
    # fhat + khat t nondecreasing up to u_up is ~1.5e34, and one map under
    # it moves the 4e17 endpoint by float noise although u_up is far from
    # a fixed point
    env = cfg1
    u_up = env.pairs.u_up
    khat = choose_khat(env.spec, env.params, t_max=u_up.sup_norm())
    w = that_map(env.params, env.reactions, u_up, op=env.op, khat=khat)
    assert float(np.max(np.abs(w.values - u_up.values))) <= 64.0 * np.spacing(u_up.sup_norm())
    assert original_residual(env.params, env.reactions, w, env.op) > 1.0


def test_amann_ascending_raises_the_checked_shift(gentle):
    # from v0 the ascending leg climbs to u2 through the saturating tail of
    # f, where fhat falls: the checked shift is raised there, and every
    # iterate stays a certified subsolution below u_up
    env = gentle
    lo = amann_iterate(env.params, env.reactions, env.pairs.v0, env.pairs.u_up,
                       "from_lower", op=env.op)
    assert lo.converged and not lo.stalled
    assert all(lo.monotone)
    assert lo.khat > 0.0
    assert float(lo.limit.sup_norm()) == pytest.approx(5822.071120854884, rel=1e-6)
    for it in lo.iterates:
        assert certify(env.params, env.reactions, it, "subsolution", op=env.op).passed
        assert np.all(it.values <= env.pairs.u_up.values)


@pytest.mark.parametrize("name", ["cfg1", "gentle"])
def test_amann_ascending_iterates_stay_subsolutions(name, request):
    # on the theorem interval [u0, v_up] of both shipped configs the check
    # never fires: the leg runs unshifted
    env = request.getfixturevalue(name)
    lo = amann_iterate(env.params, env.reactions, env.pairs.u0, env.pairs.v_up,
                       "from_lower", op=env.op)
    assert lo.converged and lo.khat == 0.0
    for it in lo.iterates:
        assert certify(env.params, env.reactions, it, "subsolution", op=env.op).passed


def test_amann_limit_mesh_stability(gentle):
    # the same interval solved at half the resolution lands on the same
    # function to discretization accuracy
    env = gentle
    n2 = env.n // 2
    op2 = DiscreteOperator.from_params(env.params, n=n2)
    prof2 = solve_radial(env.params, env.reactions, env.window, op2.grid)
    pairs2 = construct_pairs(env.params, env.spec, env.reactions, env.window,
                             prof2, op=op2)
    lo2 = amann_iterate(env.params, env.reactions, pairs2.u0, pairs2.v_up,
                        "from_lower", op=op2)
    lo = amann_iterate(env.params, env.reactions, env.pairs.u0, env.pairs.v_up,
                       "from_lower", op=env.op)
    diff = np.max(np.abs(lo2.limit.values - lo.limit.values[::2]))
    assert diff <= 5e-4 * float(lo.limit.sup_norm())


def _legs(env):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lo = amann_iterate(env.params, env.reactions, env.pairs.u0, env.pairs.v_up,
                           "from_lower", op=env.op)
        up = amann_iterate(env.params, env.reactions, env.pairs.v0, env.pairs.u_up,
                           "from_upper", op=env.op)
    return lo, up


def test_probe_and_ascending_leg_banded_solves(gentle, monkeypatch):
    # the ascending leg is a long orbit of subsolution inputs, each seeded at
    # itself (16 banded solves when every map started at the load seed); the
    # third-solution probe is one Newton polish of a shooting profile
    env = gentle
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        calls = _count_banded(monkeypatch)
        lo = amann_iterate(env.params, env.reactions, env.pairs.u0, env.pairs.v_up,
                           "from_lower", op=env.op)
        assert lo.converged and len(calls) <= 12
        up = amann_iterate(env.params, env.reactions, env.pairs.v0, env.pairs.u_up,
                           "from_upper", op=env.op)
    calls.clear()
    report, u3 = search_third_solution(env.params, env.reactions, lo.limit, up.limit,
                                       env.pairs, op=env.op)
    assert report["status"] == "converged" and u3 is not None
    assert len(calls) == report["newton_steps"] <= 8


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
    # reach the boundary at 0.  The ascending leg stops on an increment
    # below conv_factor * theta2, 4e-7 relative on gentle; the descending
    # leg on cfg1 (sup 8.9e16) stops where the map cannot move its iterate
    # any more, so its limit is known only to its last nonzero increment
    env = request.getfixturevalue(name)
    lo, up = _legs(env)
    for leg in (lo, up):
        a = float(leg.limit.values[0])
        band = 1e-6 * a
        if name == "cfg1" and leg is up:
            band = min(inc for inc in up.increments if inc > 0.0)
            assert band < 1e-9 * a
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
    react = env.reactions.lam * env.reactions.f(row[:-1]) * row[:-1] ** (-env.params.gamma)
    assert np.max(np.abs(A - react) / (1.0 + react)) < 1e-9


def test_search_third_solution_failures_name_stage_and_node(gentle, monkeypatch):
    env = gentle
    lo, up = _legs(env)
    # no root between u1(0) and itself: the bracket stage fails, at node n
    report, u3 = search_third_solution(env.params, env.reactions, lo.limit, lo.limit,
                                       env.pairs, op=env.op)
    assert u3 is None and report["status"] == "bracket_failed"
    assert report["message"].startswith("shooting bracket: 0 falling sign changes")
    assert "at node 64" in report["message"]
    # a Newton budget of one step: the polish fails and names its worst node
    monkeypatch.setattr(discrete_solver, "_NEWTON_BUDGET", 1)
    report, u3 = search_third_solution(env.params, env.reactions, lo.limit, up.limit,
                                       env.pairs, op=env.op)
    assert u3 is None and report["status"] == "polish_failed"
    assert report["message"].startswith("shooting polish from u(0) = ")
    assert "Newton budget exhausted" in report["message"]
    assert "worst node" in report["message"]
