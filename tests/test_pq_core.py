"""Scalar operator algebra: L, its derivative, inverse, and the vector gaps."""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqsing import (
    Params,
    lpq_derivative,
    lpq_inverse,
    lpq_scalar,
    simon_constant,
    simon_gap,
    simon_gap_sum,
)
from pqsing import pq_core
from pqsing.errors import ConvergenceFailure, DegenerateInput, InfeasibleGeometry


def make_params(p, q, gamma=0.5, dim=2, radius=1.0, lam=0.0):
    return Params(p=p, q=q, gamma=gamma, dim=dim, radius=radius, lam=lam)


# ---------------------------------------------------------------- Params

def test_params_validation():
    with pytest.raises(ValueError):
        make_params(3.0, 2.0)          # needs p < q
    with pytest.raises(ValueError):
        make_params(1.0, 2.0)          # needs p > 1
    with pytest.raises(ValueError):
        make_params(2.0, 3.0, gamma=1.0)
    with pytest.raises(ValueError):
        make_params(2.0, 3.0, gamma=0.0)
    with pytest.raises(InfeasibleGeometry):
        make_params(2.0, 3.0, radius=2.5)   # R <= 1 + N/(q-1) = 2
    with pytest.raises(ValueError):
        make_params(2.0, 3.0, lam=-0.1)
    make_params(2.0, 3.0, radius=2.0)       # boundary case admitted


# ---------------------------------------------------------------- scalar L

def test_lpq_scalar_values():
    pr = make_params(2.0, 3.0)
    assert lpq_scalar(2.0, pr) == pytest.approx(2.0 + 4.0)
    assert lpq_scalar(-2.0, pr) == pytest.approx(-6.0)      # odd
    assert lpq_scalar(0.0, pr) == 0.0


def test_lpq_derivative_matches_fd():
    pr = make_params(1.7, 3.4)
    t = np.array([0.03, 0.7, 5.0, 120.0])
    d = lpq_derivative(t, pr)
    eps = 1e-6 * t
    fd = (lpq_scalar(t + eps, pr) - lpq_scalar(t - eps, pr)) / (2 * eps)
    assert np.allclose(d, fd, rtol=1e-7)


def test_lpq_derivative_floor():
    # p < 2 makes L' blow up at 0; the floor clips the evaluation point
    pr = make_params(1.5, 3.0)
    raw = lpq_derivative(0.0, pr, floor=1e-9)
    expect = lpq_derivative(1e-9, pr)
    assert raw == pytest.approx(expect)
    assert np.isfinite(raw)


def test_lpq_inverse_edge_cases():
    pr = make_params(2.0, 3.0)
    assert lpq_inverse(0.0, pr) == 0.0
    # closed form for p=2, q=3: t + t^2 = s
    for s in (1e-8, 0.3, 7.0, 1e12):
        t = lpq_inverse(s, pr)
        assert t == pytest.approx(0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * s)), rel=1e-12)
    # odd extension
    assert lpq_inverse(-7.0, pr) == pytest.approx(-lpq_inverse(7.0, pr))
    # array in, array out, shape preserved
    s = np.array([[0.0, 1.0], [4.0, 9.0]])
    out = lpq_inverse(s, pr)
    assert out.shape == s.shape


@given(
    s=st.floats(min_value=1e-12, max_value=1e12),
    pq=st.tuples(st.floats(min_value=1.1, max_value=3.0),
                 st.floats(min_value=0.05, max_value=3.0)),
)
@settings(max_examples=200, deadline=None)
def test_lpq_round_trip_property(s, pq):
    p = pq[0]
    q = p + pq[1]
    pr = make_params(p, q, radius=0.5)
    t = lpq_inverse(s, pr)
    assert abs(lpq_scalar(t, pr) - s) <= 1e-10 * max(1.0, abs(s))


def test_lpq_inverse_monotone_on_grid():
    # q-1 != 2(p-1): the Newton-in-log-t branch
    pr = make_params(1.5, 4.0)
    s = np.geomspace(1e-10, 1e10, 401)
    t = lpq_inverse(s, pr)
    assert np.all(np.diff(t) > 0.0)
    assert np.max(np.abs(lpq_scalar(t, pr) - s) / s) <= 1e-12


def _unit_load(s, pr, alpha, beta):
    # the paper's weighted alpha t^{p-1} + beta t^{q-1} = s is the unit-weight
    # one by scaling: for c^{q-p} = alpha/beta, t = c tau with
    # tau^{p-1} + tau^{q-1} = s / (alpha c^{p-1}); unit weights give c = 1, s
    c = (alpha / beta) ** (1.0 / (pr.q - pr.p))
    return c, s / (alpha * c ** (pr.p - 1.0))


def _weighted(t, pr, alpha, beta):
    return alpha * t ** (pr.p - 1.0) + beta * t ** (pr.q - 1.0)


# the paper's two weighted problems, and the unit weights the package solves
WEIGHTS = [(0.37, 2.9), (5e3, 1e-4), (1.0, 1.0)]


@pytest.mark.parametrize("pq", [(2.0, 3.0), (1.5, 2.0), (3.0, 5.0)])
@pytest.mark.parametrize("ab", WEIGHTS)
def test_lpq_inverse_closed_form_branch(pq, ab):
    # q-1 = 2(p-1): the quadratic closed form, across the whole float range
    pr = make_params(*pq)
    alpha, beta = ab
    s = np.geomspace(1e-300, 1e300, 2001)
    c, s1 = _unit_load(s, pr, alpha, beta)
    tau = lpq_inverse(s1, pr)
    t = c * tau
    # for p < 2 the inverse of the smallest loads lies below the smallest
    # normal float; compare only where it, the scaled load and the
    # unit-weight root are representable
    tiny = np.finfo(float).tiny
    normal = (t >= tiny) & (s1 >= tiny) & (tau >= tiny)
    assert np.count_nonzero(normal) >= 1000
    assert np.all(t[~normal] >= 0.0)
    ts, ss = t[normal], s[normal]
    assert np.max(np.abs(_weighted(ts, pr, alpha, beta) - ss) / ss) <= 1e-13
    assert np.all(np.diff(ts) > 0.0)
    assert np.array_equal(lpq_inverse(-s1, pr), -tau)


@pytest.mark.parametrize("ab", WEIGHTS)
def test_lpq_inverse_iterative_branch_whole_float_range(ab):
    # q-1 != 2(p-1): Newton in log t cannot overflow for a finite load, so
    # the largest loads invert too
    pr = make_params(1.5, 4.0)
    alpha, beta = ab
    s = np.geomspace(1e-300, 1e300, 2001)
    c, s1 = _unit_load(s, pr, alpha, beta)
    tau = lpq_inverse(s1, pr)
    t = c * tau
    # the root lies between the half-load and the full-load one-term inverses
    with np.errstate(over="ignore"):
        lower = np.minimum((s1 / 2.0) ** 2.0, (s1 / 2.0) ** (1.0 / 3.0))
        upper = np.minimum(s1 ** 2.0, s1 ** (1.0 / 3.0))
    assert np.all((tau >= lower) & (tau <= upper))
    tiny = np.finfo(float).tiny
    normal = (lower >= tiny) & (s1 >= tiny) & (t >= tiny)   # the exact inverses are normal floats
    assert np.count_nonzero(normal) >= 1400
    ts, ss = t[normal], s[normal]
    assert np.max(np.abs(_weighted(ts, pr, alpha, beta) - ss) / ss) <= 1e-12
    assert np.all(np.diff(ts) > 0.0)
    assert np.array_equal(lpq_inverse(-s1, pr), -tau)


@pytest.mark.parametrize("pq", [(2.0, 3.0), (1.5, 4.0)], ids=["closed_form", "iterative"])
def test_lpq_inverse_one_sign_array_matches_mixed(pq):
    # an array of one sign skips the sign gather and scatter: its entries
    # equal the same loads' inside a mixed-sign array with zeros (whose two
    # signs hold the same magnitudes, so each branch sees the same array)
    pr = make_params(*pq)
    s = -np.geomspace(1e-200, 1e200, 401)
    t = lpq_inverse(s, pr)
    mixed = np.stack((s, np.zeros_like(s), -s), axis=1).ravel()
    want = lpq_inverse(mixed, pr).reshape(-1, 3)
    assert np.array_equal(t, want[:, 0]) and np.all(want[:, 1] == 0.0)
    assert np.array_equal(lpq_inverse(-s, pr), want[:, 2])
    assert np.array_equal(want[:, 2], -t)


def test_lpq_inverse_rejects_a_wrong_root_of_a_tiny_load(monkeypatch):
    # F(2.7e-177) = 5.2e-89 misses s = 1e-100 by eleven orders of magnitude
    # (the exact root is 1e-200), yet it is below any absolute 1e-8 floor
    pr = make_params(1.5, 4.0)
    exact = lpq_inverse(1e-100, pr)
    assert exact == pytest.approx(1e-200, rel=1e-2)
    monkeypatch.setattr(pq_core, "_inverse_iterative",
                        lambda s, *args: np.full_like(s, 2.7e-177))
    with pytest.raises(ConvergenceFailure):
        lpq_inverse(1e-100, pr)


def test_lpq_inverse_overflow_raises():
    # an infinite load has no finite inverse; the NaN residual it leaves in
    # either branch must not pass the 1e-8 check
    for pq in ((1.5, 4.0), (2.0, 3.0)):
        with np.errstate(invalid="ignore"), pytest.raises(ConvergenceFailure):
            lpq_inverse(np.inf, make_params(*pq))
    # the failure names the first entry that failed and its load
    for pq in ((1.5, 4.0), (2.0, 3.0)):
        with np.errstate(invalid="ignore"), pytest.raises(
                ConvergenceFailure, match=r"at entry 1 \(load s = inf\)"):
            lpq_inverse(np.array([1.0, np.inf, np.inf]), make_params(*pq))
    # a finite load whose root overflows (about s^2 here) fails alike
    for s in (1e250, 1e300):
        with np.errstate(invalid="ignore"), pytest.raises(
                ConvergenceFailure, match=re.escape(f"at entry 0 (load s = {s:.6e})")):
            lpq_inverse(s, make_params(1.05, 1.5))


@pytest.mark.parametrize("pq", [(2.0, 3.0), (1.5, 2.0), (3.0, 5.0)])
def test_lpq_inverse_iterative_branch_matches_the_closed_form(pq):
    # the exact oracle: where q-1 = 2(p-1) the iterative branch, called
    # directly, agrees with the closed form within 5 ulp wherever both roots
    # are normal floats
    pr = make_params(*pq)
    p1, q1 = pr.p - 1.0, pr.q - 1.0
    s = np.geomspace(1e-300, 1e300, 20001)
    closed = lpq_inverse(s, pr)
    with np.errstate(over="ignore", divide="ignore"):
        t = pq_core._inverse_iterative(s, lambda t: t ** p1 + t ** q1, p1, q1)
    tiny = np.finfo(float).tiny
    normal = (closed >= tiny) & (t >= tiny)
    assert np.count_nonzero(normal) >= 10000
    assert np.all(np.abs(t[normal] - closed[normal]) <= 5.0 * np.spacing(closed[normal]))


def test_lpq_inverse_iterative_branch_on_random_pq():
    # 300 seeded (p, q) off the closed form, 4096 log-uniform loads each:
    # Newton in log t lands within 1e-14 relative and keeps t increasing in s
    rng = np.random.default_rng(36)
    for _ in range(300):
        p = rng.uniform(1.05, 4.0)
        pr = make_params(p, p + rng.uniform(0.05, 3.0))
        s = np.sort(np.exp(rng.uniform(np.log(1e-12), np.log(1e12), 4096)))
        t = lpq_inverse(s, pr)
        assert np.max(np.abs(lpq_scalar(t, pr) - s) / s) <= 1e-14, (pr.p, pr.q)
        assert np.all(np.diff(t) > 0.0), (pr.p, pr.q)


@pytest.mark.parametrize("pq, ulps", [((1.5, 4.0), 0), ((1.05, 1.5), 0), ((3.82, 6.19), 0),
                                      ((2.0, 3.0), 1), ((3.0, 5.0), 1), ((1.5, 2.0), 2)])
def test_lpq_inverse_below_the_one_term_inverses(pq, ulps):
    # one term alone reaches s at s^{1/(p-1)} and at s^{1/(q-1)}, so the root
    # lies below both: exactly on the iterative branch, and up to the
    # rounding of x raised to 1/(p-1) on the closed form
    pr = make_params(*pq)
    s = np.geomspace(1e-300, 1e300, 20001)
    with np.errstate(over="ignore"):
        bound = np.minimum(s ** (1.0 / (pr.p - 1.0)), s ** (1.0 / (pr.q - 1.0)))
        keep = np.isfinite(bound)
        t = lpq_inverse(s[keep], pr)
    slack = ulps * np.spacing(bound[keep])
    assert np.all(t <= bound[keep] + slack)


# ---------------------------------------------------------------- simon gaps

def test_simon_constant():
    assert simon_constant(3.0) == pytest.approx(0.5)
    assert simon_constant(2.0) == pytest.approx(1.0)
    assert simon_constant(1.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        simon_constant(1.0)


def test_simon_gap_single_pair():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    lhs, rhs = simon_gap(u, v, 3.0)
    # <|u|u - |v|v, u-v> = 2 for unit vectors at right angles
    assert lhs == pytest.approx(2.0)
    assert rhs == pytest.approx(0.5 * np.sqrt(2.0) ** 3)
    assert lhs >= rhs


def test_simon_gap_degenerate_below_two():
    z = np.zeros(3)
    with pytest.raises(DegenerateInput):
        simon_gap(z, z, 1.5)
    # fine for q >= 2: rhs has no denominator
    lhs, rhs = simon_gap(z, z, 2.0)
    assert lhs == 0.0 and rhs == 0.0


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 4.0])
def test_simon_gap_random_batch(q):
    rng = np.random.default_rng(7)
    u = rng.normal(size=(20000, 3))
    v = rng.normal(size=(20000, 3))
    lhs, rhs = simon_gap(u, v, q)
    gap = lhs - rhs
    # for q=2 both sides compute |u-v|^2 and differ only by rounding, so
    # the comparison carries an ulp band
    slack = 64.0 * np.finfo(float).eps * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    assert np.all(gap >= -slack)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([1.3, 1.8, 2.0, 2.7, 4.0]))
@settings(max_examples=100, deadline=None)
def test_simon_gap_property(seed, q):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)
    v = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)
    lhs, rhs = simon_gap(u, v, q)
    slack = 64.0 * np.finfo(float).eps * max(1.0, abs(lhs), abs(rhs))
    assert lhs - rhs >= -slack


def test_simon_gap_sum_aggregates():
    rng = np.random.default_rng(11)
    u = rng.normal(size=(500, 3))
    v = rng.normal(size=(500, 3))
    for q in (1.5, 3.0):
        lhs, rhs = simon_gap_sum(u, v, q)
        assert lhs >= rhs > 0.0
    # q >= 2 aggregation is the plain sum of the pointwise bound
    lhs3, rhs3 = simon_gap_sum(u, v, 3.0)
    l_pw, r_pw = simon_gap(u, v, 3.0)
    assert lhs3 == pytest.approx(float(np.sum(l_pw)))
    assert rhs3 == pytest.approx(float(np.sum(r_pw)))
