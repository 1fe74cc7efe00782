"""Capacity constant, threshold map F, and the admissible load window."""
import dataclasses
import random
from pathlib import Path

import numpy as np
import pytest

from pqsing import (
    F_of,
    NonlinearitySpec,
    Params,
    build_h,
    capacity_constant,
    cli,
    compute_window,
)
from pqsing.errors import BridgeNotMonotone, ConfigurationError, EmptyThetaRange

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SPEC = NonlinearitySpec(kind="exp_saturating", theta1=1.0, theta2=176.0, k=100.0)
P0 = Params(p=2.0, q=3.0, gamma=0.5, dim=2, radius=1.0, lam=0.0)


def test_capacity_constant_closed_forms():
    # ((N+q-1)^{N+q-1} / N^N)^{1/(q-1)}
    assert capacity_constant(2, 3.0) == pytest.approx(8.0, rel=1e-14)
    assert capacity_constant(1, 2.0) == pytest.approx(4.0, rel=1e-14)
    assert capacity_constant(3, 2.0) == pytest.approx(256.0 / 27.0, rel=1e-14)
    with pytest.raises(ValueError):
        capacity_constant(0, 3.0)
    with pytest.raises(ValueError):
        capacity_constant(2, 1.0)


def test_F_of_branches():
    # p=2, q=3: y = 3 theta / 16, exponent (q-p)/(p-1) = 1
    assert F_of(176.0, P0) == pytest.approx(33.0, rel=1e-13)
    y_small = 3.0 * 0.1 / 16.0
    assert F_of(0.1, P0) == pytest.approx(y_small * y_small, rel=1e-13)  # y < 1 branch
    with pytest.raises(ValueError):
        F_of(0.0, P0)


def test_reference_window_values():
    win = compute_window(SPEC, P0)
    assert win.capacity == pytest.approx(8.0)
    assert win.F_theta2 == pytest.approx(33.0)
    assert win.theta == pytest.approx(17.0)          # midpoint of (1, 33)
    assert win.epsilon == pytest.approx(0.5)         # N R / (N+q-1)
    # h(17) = f(17) / (2 sqrt(17)) since 17 > theta1
    h17 = np.exp(100.0 * 17.0 / 117.0) / (2.0 * np.sqrt(17.0))
    assert win.h_theta == pytest.approx(h17, rel=1e-12)
    assert win.lambda_star == pytest.approx(0.0746570061672485, rel=1e-12)
    assert win.lambda_upper == pytest.approx(0.5626399980355267, rel=1e-12)
    assert win.nonempty
    assert win.midpoint == pytest.approx(0.31864850210138757, rel=1e-12)
    assert win.cutoff_margin > 0.0
    d = win.as_dict()
    assert d["nonempty"] is True
    assert d["lambda_star"] == win.lambda_star


def test_threshold_formulas_recomputed():
    # independent recomputation of both thresholds from their definitions
    win = compute_window(SPEC, P0)
    p, q, N, R = 2.0, 3.0, 2, 1.0
    th, h_th = win.theta, win.h_theta
    eps = N * R / (N + q - 1.0)
    lam_star = (max(th ** (p - 1.0), th ** (q - 1.0)) * 2.0 * R ** (N - 1) * N
                / ((R - eps) ** (q - 1.0) * eps ** N * h_th))
    lam_up = (SPEC.theta2 * q / (q - 1.0)) ** (q - 1.0) * N / (h_th * R ** q)
    assert win.lambda_star == pytest.approx(lam_star, rel=1e-14)
    assert win.lambda_upper == pytest.approx(lam_up, rel=1e-14)


def test_explicit_theta_and_bounds():
    win = compute_window(SPEC, P0, theta=5.0)
    assert win.theta == 5.0
    with pytest.raises(ConfigurationError):
        compute_window(SPEC, P0, theta=0.5)    # below theta1
    with pytest.raises(ConfigurationError):
        compute_window(SPEC, P0, theta=40.0)   # above min(theta2, F)
    with pytest.raises(ConfigurationError):
        compute_window(SPEC, P0, chi=1.0)


def test_empty_theta_range():
    spec = NonlinearitySpec(kind="exp_saturating", theta1=40.0, theta2=176.0, k=100.0)
    with pytest.raises(EmptyThetaRange):
        compute_window(spec, P0)


def test_window_shrinks_smoothly_with_theta():
    # lambda_star is not monotone in theta in general, but the window stays
    # nonempty across the admissible range for the reference reaction
    for theta in np.linspace(1.5, 32.0, 20):
        win = compute_window(SPEC, P0, theta=float(theta))
        assert win.nonempty


def test_window_nonempty_across_geometries():
    # q >= 2 sweep; q < 2 windows can genuinely close (the lower threshold
    # formula carries theta^{p-1} while the upper one scales with
    # theta2^{q-1}), so the guarantee is only exercised above q = 2
    count = 0
    for (p, q) in ((1.5, 2.0), (1.5, 3.0), (2.0, 2.5), (2.0, 4.0), (2.5, 3.0)):
        for N in (1, 2, 3):
            for frac in (0.85, 0.6):
                R = frac * (1.0 + N / (q - 1.0))
                pr = Params(p=p, q=q, gamma=0.5, dim=N, radius=R, lam=0.0)
                win = compute_window(SPEC, pr)
                assert win.lambda_star < win.lambda_upper
                count += 1
    assert count == 30


def _shipped(config):
    cfg = cli._load_config(str(SCRIPTS / config))
    pc = cfg["params"]
    params = Params(p=pc["p"], q=pc["q"], gamma=pc["gamma"], dim=pc["dim"],
                    radius=pc["radius"], lam=0.0)
    return cli._build_spec(cfg), params


# the (p, q) survey: cfg_reference with its exponents replaced
SURVEY = [("cfg_small.json", None), ("cfg_reference.json", None)] + [
    ("cfg_reference.json", pq) for pq in ((1.5, 2.5), (1.5, 4.0), (2.0, 4.0), (2.5, 3.5),
                                          (3.0, 4.0), (3.0, 5.0), (4.0, 6.0), (1.2, 1.6))]


@pytest.mark.parametrize("config, pq", SURVEY)
def test_h_theta_is_build_h_bit_for_bit(config, pq):
    # the window evaluates h(theta) in math, every other stage h in numpy:
    # on the shipped configs and the survey they give the same bits
    spec, params = _shipped(config)
    if pq is not None:
        params = dataclasses.replace(params, p=pq[0], q=pq[1])
    win = compute_window(spec, params)
    assert win.h_theta == build_h(spec, params).h(win.theta)


def _random_config(rng):
    theta1 = rng.uniform(0.1, 5.0)
    theta2 = theta1 * rng.uniform(5.0, 500.0)
    kind = rng.choice(["exp_saturating", "table"])
    if kind == "exp_saturating":
        spec = NonlinearitySpec(kind=kind, theta1=theta1, theta2=theta2, k=rng.uniform(1.0, 200.0))
    else:
        ts = [0.0] + sorted(rng.uniform(0.0, 2.0 * theta2) for _ in range(5))
        fs = sorted(rng.uniform(0.5, 1e3) for _ in range(6))
        spec = NonlinearitySpec(kind=kind, theta1=theta1, theta2=theta2,
                                table_t=tuple(ts), table_f=tuple(fs))
    p = rng.uniform(1.1, 4.0)
    q = p + rng.uniform(0.1, 3.0)
    dim = rng.randint(1, 4)
    radius = rng.uniform(0.2, 1.0) * (1.0 + dim / (q - 1.0))
    return spec, Params(p=p, q=q, gamma=rng.uniform(0.05, 0.95), dim=dim, radius=radius,
                        lam=0.0)


def test_h_theta_is_build_h_within_4_ulp():
    # numpy's vectorized exp and pow may round differently from libm: the
    # two agree to a few ulp, and every command reads the window's value
    # (150 draws of the two families admit about as many configs as 100
    # draws did when the power family, whose curve always rose, was a third)
    rng = random.Random(20261019)
    checked = 0
    for _ in range(150):
        spec, params = _random_config(rng)
        try:
            win = compute_window(spec, params)
            h = build_h(spec, params).h(win.theta)
        except (ConfigurationError, EmptyThetaRange, BridgeNotMonotone):
            continue  # an inadmissible draw
        assert abs(win.h_theta - h) <= 4 * np.spacing(h)
        checked += 1
    assert checked >= 50
