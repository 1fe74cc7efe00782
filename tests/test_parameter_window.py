"""Capacity constant, threshold map F, and the admissible load window."""
import numpy as np
import pytest

from pqsing import (
    F_of,
    NonlinearitySpec,
    Params,
    build_h,
    capacity_constant,
    compute_window,
)
from pqsing.errors import ConfigurationError, EmptyThetaRange

SPEC = NonlinearitySpec(kind="exp_saturating", theta1=1.0, theta2=176.0, k=100.0)
P0 = Params(p=2.0, q=3.0, gamma=0.5, dim=2, radius=1.0, lam=0.0)


@pytest.fixture(scope="module")
def reactions0():
    return build_h(SPEC, P0)


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


def test_reference_window_values(reactions0):
    win = compute_window(reactions0)
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


def test_threshold_formulas_recomputed(reactions0):
    # independent recomputation of both thresholds from their definitions
    win = compute_window(reactions0)
    p, q, N, R = 2.0, 3.0, 2, 1.0
    th, h_th = win.theta, win.h_theta
    eps = N * R / (N + q - 1.0)
    lam_star = (max(th ** (p - 1.0), th ** (q - 1.0)) * 2.0 * R ** (N - 1) * N
                / ((R - eps) ** (q - 1.0) * eps ** N * h_th))
    lam_up = (SPEC.theta2 * q / (q - 1.0)) ** (q - 1.0) * N / (h_th * R ** q)
    assert win.lambda_star == pytest.approx(lam_star, rel=1e-14)
    assert win.lambda_upper == pytest.approx(lam_up, rel=1e-14)


def test_explicit_theta_and_bounds(reactions0):
    win = compute_window(reactions0, theta=5.0)
    assert win.theta == 5.0
    with pytest.raises(ConfigurationError):
        compute_window(reactions0, theta=0.5)    # below theta1
    with pytest.raises(ConfigurationError):
        compute_window(reactions0, theta=40.0)   # above min(theta2, F)
    with pytest.raises(ConfigurationError):
        compute_window(reactions0, chi=1.0)


def test_empty_theta_range():
    spec = NonlinearitySpec(kind="exp_saturating", theta1=40.0, theta2=176.0, k=100.0)
    with pytest.raises(EmptyThetaRange):
        compute_window(build_h(spec, P0))


def test_window_shrinks_smoothly_with_theta(reactions0):
    # lambda_star is not monotone in theta in general, but the window stays
    # nonempty across the admissible range for the reference reaction
    for theta in np.linspace(1.5, 32.0, 20):
        win = compute_window(reactions0, theta=float(theta))
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
                win = compute_window(build_h(SPEC, pr))
                assert win.lambda_star < win.lambda_upper
                count += 1
    assert count == 30
