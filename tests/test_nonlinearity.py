"""Reaction admissibility, the truncated bridge h, and the two shift choices."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from pqsing import (
    NonlinearitySpec,
    Params,
    build_fhat,
    build_h,
    choose_Theta_lambda,
    choose_khat,
    compute_window,
    lpq_scalar,
    validate,
)
from pqsing import nonlinearity
from pqsing.errors import BridgeNotMonotone, ConfigurationError

PARAMS = Params(p=2.0, q=3.0, gamma=0.5, dim=2, radius=1.0, lam=0.3)


def exp_spec(**kw):
    base = dict(kind="exp_saturating", theta1=1.0, theta2=176.0, k=100.0)
    base.update(kw)
    return NonlinearitySpec(**base)


# ---------------------------------------------------------------- spec families

def test_spec_validation():
    with pytest.raises(ConfigurationError):
        NonlinearitySpec(kind="nope", theta1=1.0, theta2=2.0)
    with pytest.raises(ConfigurationError):
        exp_spec(theta1=3.0, theta2=2.0)
    with pytest.raises(ConfigurationError):
        exp_spec(k=None)
    with pytest.raises(ConfigurationError):
        exp_spec(khat=-1.0)
    with pytest.raises(ConfigurationError):
        NonlinearitySpec(kind="power", theta1=1.0, theta2=2.0)   # missing m
    with pytest.raises(ConfigurationError):
        NonlinearitySpec(kind="table", theta1=1.0, theta2=2.0,
                         table_t=(0.0, 1.0), table_f=(1.0,))
    with pytest.raises(ConfigurationError):
        NonlinearitySpec(kind="table", theta1=1.0, theta2=2.0,
                         table_t=(0.0, 0.0, 1.0), table_f=(1.0, 1.0, 2.0))


def test_families_evaluate():
    s = exp_spec()
    assert s.f0 == 1.0
    assert s.f(100.0) == pytest.approx(np.exp(50.0))
    assert s.f(-3.0) == s.f0                      # clamped below zero
    p = NonlinearitySpec(kind="power", theta1=0.5, theta2=2.0, m=2.0)
    assert p.f(3.0) == 9.0
    assert p.f_prime(3.0) == pytest.approx(6.0)
    t = NonlinearitySpec(kind="table", theta1=0.5, theta2=2.0,
                         table_t=(0.0, 1.0, 2.0), table_f=(1.0, 3.0, 4.0))
    assert t.f(0.5) == pytest.approx(2.0)
    assert t.f(10.0) == 4.0                       # constant beyond the table
    # derivative consistency on the smooth families
    for sp, t0 in ((s, 7.0), (p, 1.3)):
        fd = (sp.f(t0 + 1e-6) - sp.f(t0 - 1e-6)) / 2e-6
        assert sp.f_prime(t0) == pytest.approx(fd, rel=1e-5)


# ---------------------------------------------------------------- validate

def test_validate_reference_spec_ok():
    rep = validate(exp_spec(), PARAMS)
    assert rep.ok
    assert {c.name for c in rep.checks} == {"f0", "f1", "f2", "f2prime", "f3", "f4"}
    assert rep.passed("f3")
    assert rep.check("f3").witness["F_theta2"] == pytest.approx(33.0)


def test_validate_rejects_decreasing_table():
    bad = NonlinearitySpec(kind="table", theta1=0.5, theta2=2.0,
                           table_t=(0.0, 1.0, 2.0), table_f=(2.0, 1.0, 1.0))
    rep = validate(bad, PARAMS)
    assert not rep.ok
    assert not rep.passed("f1")


def test_validate_rejects_supercritical_power():
    # t^3 grows faster than t^{q-1+gamma} = t^{2.5}
    sup = NonlinearitySpec(kind="power", theta1=0.5, theta2=2.0, m=3.0)
    rep = validate(sup, PARAMS)
    assert not rep.passed("f2prime")


def test_validate_f4_needs_khat_for_early_saturation():
    # with k=25 the reaction saturates before 2*theta2, so fhat eventually
    # decreases; a sufficiently large explicit shift restores monotonicity
    lam_hi = 0.2809752558439424
    pr = dataclasses.replace(PARAMS, lam=lam_hi)
    bare = NonlinearitySpec(kind="exp_saturating", theta1=1.0, theta2=890.67, k=25.0)
    rep = validate(bare, pr)
    assert not rep.passed("f4")
    shifted = NonlinearitySpec(kind="exp_saturating", theta1=1.0, theta2=890.67,
                               k=25.0, khat=60000.0)
    assert validate(shifted, pr).ok


def test_validate_f3_window_failure():
    # theta1 above min(theta2, F(theta2)) = 33 breaks the threshold window
    rep = validate(exp_spec(theta1=40.0), PARAMS)
    assert not rep.passed("f3")


# ---------------------------------------------------------------- fhat

def test_fhat_carries_lam_and_vanishes_at_zero():
    spec = exp_spec()
    fhat = build_fhat(spec, PARAMS)
    assert fhat(0.0) == 0.0
    assert fhat(-1.0) == 0.0
    t = 2.7
    expect = PARAMS.lam * (spec.f(t) - 1.0) / np.sqrt(t)
    assert fhat(t) == pytest.approx(expect, rel=1e-14)
    # continuity at 0+: bounded by lam*sup|f'|*t^{1-gamma}
    small = fhat(1e-12)
    assert 0.0 < small < PARAMS.lam * 2.0 * 1e-6



def _masked_fhat(spec, params, t):
    """fhat by gathering the positive entries and scattering them back into
    zeros: the reference its one-expression form must match bit for bit."""
    t_arr = np.asarray(t, dtype=float)
    tt = np.atleast_1d(t_arr)
    out = np.zeros_like(tt)
    pos = tt > 0.0
    out[pos] = params.lam * (spec.f(tt[pos]) - spec.f0) / tt[pos] ** params.gamma
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


# the shipped reactions and one of each other family
FAMILIES = pytest.mark.parametrize("spec", [
    exp_spec(),                                          # cfg_reference's reaction
    exp_spec(theta2=890.67, k=25.0, khat=6e4),           # cfg_small's
    NonlinearitySpec(kind="power", theta1=1.0, theta2=5.0, m=1.5),
    NonlinearitySpec(kind="table", theta1=1.0, theta2=4.0,
                     table_t=(0.0, 1.0, 4.0), table_f=(1.0, 2.0, 9.0)),
], ids=["exp_reference", "exp_small", "power", "table"])


@pytest.mark.parametrize("gamma", [0.5, 0.3])
@FAMILIES
def test_fhat_is_bitwise_the_masked_form(spec, gamma):
    params = dataclasses.replace(PARAMS, gamma=gamma)
    t = 10.0 ** np.random.default_rng(7).uniform(-3.0, 17.0, 4099)
    t[::3] *= -1.0
    t[:8] = [0.0, -0.0, -1.0, 5e-324, -5e-324, 2.2e-308, 1e-310, 1.0]
    fhat = build_fhat(spec, params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the CLI records every warning into its reports
        got, got_2d = fhat(t), fhat(t[:4098].reshape(2, 2049))
        scalars = [fhat(float(x)) for x in t[:40]]
    assert got.tobytes() == _masked_fhat(spec, params, t).tobytes()
    assert got_2d.shape == (2, 2049)
    assert got_2d.tobytes() == got[:4098].tobytes()
    want = [_masked_fhat(spec, params, float(x)) for x in t[:40]]
    assert all(type(g) is float for g in scalars)
    assert np.array(scalars).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------- build_h

def test_bridge_running_minimum():
    spec = exp_spec()
    rx = build_h(spec, PARAMS)
    curve = lambda t: spec.f(t) / (2.0 * np.sqrt(t))

    # interior minimum of f(t)/(2 t^gamma) on (0, theta1]
    assert 0.0 < rx.theta_star < spec.theta1
    assert rx.fbar == pytest.approx(1.1628964172611573, rel=1e-9)
    assert rx.theta_star == pytest.approx(0.5050633878166173, rel=1e-6)

    ts = np.linspace(0.0, 2.0 * spec.theta2, 4001)
    hv = rx.h(ts)
    # nondecreasing, below the curve, equal to it past theta1
    assert np.all(np.diff(hv) >= -1e-12 * np.max(hv))
    pos = ts > 1e-9
    assert np.all(hv[pos] <= curve(ts[pos]) * (1.0 + 1e-12))
    tail = ts >= spec.theta1
    assert np.allclose(hv[tail], curve(ts[tail]), rtol=1e-12)
    # flat at fbar up to the argmin
    flat = ts <= rx.theta_star
    assert np.allclose(hv[flat], rx.fbar, rtol=1e-12)


@FAMILIES
def test_reactions_moved_to_a_load_match_a_fresh_build(spec):
    # h does not depend on the load, so the CLI builds it once and moves it
    # from load to load (sweep: row to row)
    moved = build_h(spec, dataclasses.replace(PARAMS, lam=0.0)).at_load(0.7).at_load(PARAMS.lam)
    fresh = build_h(spec, PARAMS)
    t = np.concatenate([np.linspace(0.0, 2.0 * spec.theta2, 20001),
                        np.geomspace(1e-12, 2.0 * spec.theta2, 4001)])
    for name in ("h", "fhat"):
        assert getattr(moved, name)(t).tobytes() == getattr(fresh, name)(t).tobytes(), name
    for name in ("Theta_lambda", "theta_star", "fbar", "spec", "params"):
        assert getattr(moved, name) == getattr(fresh, name), name
    assert moved.Theta_lambda == choose_Theta_lambda(spec, PARAMS)
    assert fresh.at_load(PARAMS.lam) is fresh  # nothing to derive at its own load


def test_bridge_rejects_impossible_thresholds():
    # f/t^gamma keeps dropping on (theta1, theta2) when f is constant,
    # so no monotone bridge can sit below the curve and match it there.
    # Above theta1, h is that curve: compute_window checks it there, and
    # build_h checks the bridge it builds below theta1
    flat = NonlinearitySpec(kind="table", theta1=1.0, theta2=100.0,
                            table_t=(0.0, 0.5), table_f=(1.0, 1.0))
    with pytest.raises(BridgeNotMonotone, match=r"on \[theta1, theta2\]"):
        compute_window(flat, PARAMS)
    rx = build_h(flat, PARAMS)
    bridge = rx.h(np.linspace(0.0, flat.theta1, 1001))
    assert np.all(np.diff(bridge) >= 0.0)


# ---------------------------------------------------------------- shifts

def test_choose_theta_lambda_zero_when_monotone():
    rx = build_h(exp_spec(), PARAMS)
    assert rx.Theta_lambda == 0.0


def test_choose_theta_lambda_compensates():
    spec = NonlinearitySpec(kind="exp_saturating", theta1=1.0, theta2=890.67,
                            k=25.0, khat=60000.0)
    pr = dataclasses.replace(PARAMS, lam=0.15825952111377303)
    Theta = choose_Theta_lambda(spec, pr)
    assert Theta == pytest.approx(2.389892543619752, rel=1e-9)
    rx = build_h(spec, pr)
    grid = np.linspace(0.0, 2.0 * spec.theta2, 20001)
    g = pr.lam * np.asarray(rx.h(grid)) + Theta * lpq_scalar(grid, pr)
    assert np.all(np.diff(g) >= -1e-9 * np.max(np.abs(g)))


def test_choose_theta_lambda_refuses_an_overflowing_reaction():
    # f = exp(800 t / (800 + t)) overflows below 2 theta2 = 1e4, so lam h
    # is not finite on the grid and no finite shift exists (build_h derives
    # Theta_lambda at its own load)
    spec = exp_spec(k=800.0, theta2=5000.0)
    with np.errstate(all="ignore"):
        for build in (choose_Theta_lambda, build_h):
            with pytest.raises(ConfigurationError, match="Theta_lambda = nan: lam"):
                build(spec, PARAMS)


def test_table_entries_must_be_finite():
    for t, f, key in (((0.0, 1.0, float("nan")), (1.0, 2.0, 3.0), "table_t"),
                      ((0.0, 1.0, 2.0), (1.0, 2.0, float("inf")), "table_f")):
        with pytest.raises(ConfigurationError, match=f"^{key} must hold finite numbers"):
            NonlinearitySpec(kind="table", theta1=1.0, theta2=2.0, table_t=t, table_f=f)


def test_choose_khat():
    assert choose_khat(exp_spec(), PARAMS) == 0.0
    spec = NonlinearitySpec(kind="exp_saturating", theta1=1.0, theta2=890.67, k=25.0)
    pr = dataclasses.replace(PARAMS, lam=0.2809752558439424)
    k = choose_khat(spec, pr)
    assert k == pytest.approx(30230.29834012007, rel=1e-6)
    # the shifted reaction is actually nondecreasing on the probed range
    fhat = build_fhat(spec, pr)
    grid = np.linspace(0.0, 2.0 * spec.theta2, 20001)
    g = fhat(grid) + k * grid
    assert np.all(np.diff(g) >= -1e-9 * np.max(np.abs(g)))
    # t_max widens the range the shift must cover
    assert choose_khat(spec, pr, t_max=4.0 * spec.theta2) >= k


# ---------------------------------------------------------------- monotone pieces

@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("k", [25.0, 100.0])
def test_exp_curve_turns_at_the_closed_form_roots(k, gamma):
    # f/t^gamma turns where gamma (k + t)^2 = k^2 t: both roots to 50 digits
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    g, kk = mp.mpf(gamma), mp.mpf(k)
    want = sorted(mp.polyroots([g, 2 * g * kk - kk ** 2, g * kk ** 2], maxsteps=200,
                               extraprec=200))
    spec = exp_spec(k=k)
    assert [rising for _, rising in spec.pieces(gamma)] == [False, True, False]
    for (start, _), root in zip(spec.pieces(gamma)[1:], want):
        assert abs(start - root) <= 2 * math.ulp(float(root))


def test_table_curve_turns_at_each_pieces_root():
    # on f = a + b t the curve turns at gamma a / ((1 - gamma) b): here inside
    # [1, 3] and [3, 7]; it falls on the constant stretch past the table
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    gamma = 0.3
    spec = NonlinearitySpec(kind="table", theta1=1.0, theta2=7.0,
                            table_t=(0.0, 1.0, 3.0, 7.0), table_f=(5.0, 4.0, 6.0, 7.5))
    pieces = spec.pieces(gamma)
    assert [(start, rising) for start, rising in pieces[::2]] == [
        (0.0, False), (3.0, False), (7.0, False)]
    g = mp.mpf(gamma)
    for (start, rising), j in zip(pieces[1::2], (1, 2)):
        t0, t1 = (mp.mpf(x) for x in spec.table_t[j:j + 2])
        f0, f1 = (mp.mpf(x) for x in spec.table_f[j:j + 2])
        b = (f1 - f0) / (t1 - t0)
        root = g * (f0 - b * t0) / ((1 - g) * b)
        assert rising and abs(start - root) <= 2 * math.ulp(float(root))


def test_exp_curve_falls_everywhere_below_k_4gamma():
    assert exp_spec(k=1.9).pieces(0.5) == [(0.0, False)]
    assert exp_spec(k=2.0).pieces(0.5) == [(0.0, False)]


@FAMILIES
def test_bridge_is_the_running_minimum_on_a_dense_grid(spec):
    # h is nondecreasing on [0, theta2], at most the curve, the curve itself
    # above theta1, and below theta1 the minimum of the curve over [t, theta1]
    rx = build_h(spec, PARAMS)
    curve = lambda t: spec.f(t) / t ** PARAMS.gamma / 2.0
    ts = np.concatenate([np.linspace(1e-9, spec.theta2, 200001),
                         np.geomspace(1e-9, spec.theta1, 200001)])
    ts.sort()
    hv = rx.h(ts)
    cv = curve(ts)
    assert np.all(np.diff(hv) >= -2.0 * np.spacing(hv[1:]))
    assert np.all(hv <= cv * (1.0 + 1e-14))
    above = ts > spec.theta1
    assert hv[above].tobytes() == cv[above].tobytes()
    below = ~above
    suffix = np.minimum.accumulate(cv[below][::-1])[::-1]
    assert np.all(hv[below] <= suffix * (1.0 + 1e-14))
    assert np.allclose(hv[below], suffix, rtol=1e-8, atol=0.0)
    assert rx.h(0.0) == rx.fbar <= np.min(cv[below])  # power's infimum is 0, at 0+
    assert rx.fbar == pytest.approx(float(np.min(cv[below])), rel=1e-8, abs=1e-9)
