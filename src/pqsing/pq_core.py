"""Scalar algebra of the (p,q) gradient map.

The building block everywhere else is the strictly increasing odd map

    L_{p,q}(t) = |t|^{p-2} t + |t|^{q-2} t,       1 < p < q,

its inverse, and the two-point monotonicity gaps that serve as numerical
ground truth for the vector-field inequalities.
"""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, DegenerateInput
from .records import Params  # re-exported: its home is records

__all__ = ["Params", "lpq_scalar", "lpq_derivative", "lpq_inverse", "simon_constant",
           "simon_gap", "simon_gap_sum"]


def lpq_scalar(t, params: Params):
    """|t|^{p-2}t + |t|^{q-2}t, continued by 0 at t = 0.

    Since p-1 > 0 the map has no singularity at the origin even for
    p < 2; sign(t)|t|^{p-1} realizes the continuous continuation.
    Accepts scalars or arrays.
    """
    t_arr = np.asarray(t, dtype=float)
    at = np.abs(t_arr)
    out = np.sign(t_arr) * (at ** (params.p - 1.0) + at ** (params.q - 1.0))
    return float(out) if t_arr.ndim == 0 else out


def lpq_derivative(t, params: Params, floor: float = 0.0):
    """d/dt of lpq_scalar.  `floor` clips |t| from below (Jacobian
    regularization for p < 2; the residual itself is never clipped)."""
    at = np.maximum(np.abs(np.asarray(t, dtype=float)), floor)
    out = (params.p - 1.0) * at ** (params.p - 2.0) + (params.q - 1.0) * at ** (params.q - 2.0)
    return float(out) if np.ndim(t) == 0 else out


def _inverse_positive(s: np.ndarray, params: Params) -> np.ndarray:
    """Solve t^{p-1} + t^{q-1} = s elementwise for s > 0, t > 0."""
    p1 = params.p - 1.0
    q1 = params.q - 1.0

    def F(t):
        return t ** p1 + t ** q1

    if q1 == 2.0 * p1:
        # x = t^{p-1} solves x^2 + x = s; this root form has no
        # cancellation, and hypot keeps 1 + 4 s from overflowing
        disc = np.hypot(1.0, 2.0 * np.sqrt(s))
        t = (s / (0.5 * (1.0 + disc))) ** (1.0 / p1)
    else:
        # a one-term inverse can overflow (the smaller one stays finite), and
        # a root that underflows to t = 0 makes t^{p-2} infinite for p < 2
        # (its Newton step in t is then 0)
        with np.errstate(over="ignore", divide="ignore"):
            t = _inverse_iterative(s, F, p1, q1)
    # relative to s itself: an absolute floor would pass any t with F(t)
    # below it, however wrong for a tiny load.  A root below the smallest
    # normal float underflows (to a subnormal or 0) and cannot meet a
    # relative check; it passes when the exact root lies there too.
    tiny = np.finfo(float).tiny
    resid = np.abs(F(t) - s) / s
    ok = (resid <= 1e-8) | ((t < tiny) & (F(tiny) >= s))
    if not np.all(ok):  # NaN from an overflow fails too
        i = np.flatnonzero(~ok)[0]
        raise ConvergenceFailure(
            f"flux-map inverse failed at entry {i} (load s = {s[i]:.6e}): "
            f"relative residual {resid[i]:.3e}"
        )
    return t


def _inverse_iterative(s, F, p1, q1):
    # Newton in y = log t on g(y) = log(t^{p-1} + t^{q-1}) = log s.  g is
    # convex and increasing, its slope the softmax average of p-1 and q-1,
    # so from y0, where one term alone already reaches s, the steps fall
    # monotonically onto the root: no bracket, and log space cannot overflow
    log_s = np.log(s)
    y = np.maximum(log_s / p1, log_s / q1)
    for _ in range(60):
        g = np.logaddexp(p1 * y, q1 * y)
        dy = (g - log_s) / (p1 + (q1 - p1) * np.exp(q1 * y - g))
        y = y - dy
        if np.all(np.abs(dy) <= 1e-9):
            break
    # exp(y) carries |y| eps of relative error; one Newton step in t removes it
    t = np.exp(y)
    t = t - (F(t) - s) / (p1 * t ** (p1 - 1.0) + q1 * t ** (q1 - 1.0))
    # the root lies below both one-term inverses
    return np.minimum(t, np.minimum(s ** (1.0 / p1), s ** (1.0 / q1)))


def lpq_inverse(s, params: Params):
    """Inverse of the scalar map; odd, strictly increasing.

    When q-1 = 2(p-1) (p=2, q=3 among them) x = t^{p-1} solves the quadratic
    x^2 + x = s, and the inverse is the closed form
    t = (2s / (1 + sqrt(1 + 4s)))^{1/(p-1)}.  Other (p,q) take Newton in
    log t, which needs no bracket (at most 60 steps, until every step moves
    log t by at most 1e-9), and then one Newton step in t.
    Either way the residual relative to s must end below 1e-8, or the root
    must underflow below the smallest normal float where the exact one lies
    too, else ConvergenceFailure naming the first failing load.  For s >= 0
    the root lies below both one-term inverses s^{1/(p-1)} and s^{1/(q-1)}
    (one term alone already reaches s there).  The iterative result keeps
    that bound exactly; the closed form raises the rounding of x to the
    power 1/(p-1) and can exceed s^{1/(q-1)} by that much: one ulp at
    (2, 3) and (3, 5), two at (1.5, 2).
    """
    s_arr = np.asarray(s, dtype=float)
    scalar_in = s_arr.ndim == 0
    s_flat = np.atleast_1d(s_arr)
    neg = s_flat < 0.0
    if s_flat.size and np.all(neg):  # the fluxes of every solver caller
        out = -_inverse_positive(-s_flat, params)
    else:
        out = np.zeros_like(s_flat)
        pos = s_flat > 0.0
        if np.any(pos):
            out[pos] = _inverse_positive(s_flat[pos], params)
        if np.any(neg):
            out[neg] = -_inverse_positive(-s_flat[neg], params)
    if scalar_in:
        return float(out[0])
    return out.reshape(s_arr.shape)


def simon_constant(q: float) -> float:
    """The monotonicity-gap constant c(q): 2^{2-q} for q >= 2, q-1 below."""
    if q <= 1.0:
        raise ValueError("need q > 1")
    return 2.0 ** (2.0 - q) if q >= 2.0 else q - 1.0


def _phi(w: np.ndarray, q: float) -> np.ndarray:
    """|w|^{q-2} w for row vectors w (norm taken along the last axis)."""
    nw = np.linalg.norm(w, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(nw > 0.0, nw ** (q - 2.0), 0.0)
    # q > 1 so |w|^{q-2} w -> 0 as w -> 0 even when q < 2
    return w * scale


def simon_gap(u, v, q: float):
    """Two-sided data for the vector monotonicity inequality.

    Returns (lhs, rhs) with
        lhs = <|u|^{q-2}u - |v|^{q-2}v, u - v>,
        rhs = c(q)|u-v|^q                      for q >= 2,
        rhs = c(q)|u-v|^2 / (|u|+|v|)^{2-q}    for 1 < q < 2.
    The contract under test everywhere is lhs >= rhs.  Accepts a single
    pair (1-D arrays) or batches (2-D arrays, one pair per row).

    Raises DegenerateInput when q < 2 and some pair has u = v = 0: the
    right-hand side is 0/0 there and only the convention 0 >= 0 applies.
    """
    if q <= 1.0:
        raise ValueError("need q > 1")
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    single = u_arr.ndim == 1
    U = np.atleast_2d(u_arr)
    V = np.atleast_2d(v_arr)
    if U.shape != V.shape:
        raise ValueError("u and v must have matching shapes")
    diff = U - V
    lhs = np.sum((_phi(U, q) - _phi(V, q)) * diff, axis=-1)
    d = np.linalg.norm(diff, axis=-1)
    c = simon_constant(q)
    if q >= 2.0:
        rhs = c * d ** q
    else:
        nsum = np.linalg.norm(U, axis=-1) + np.linalg.norm(V, axis=-1)
        degenerate = nsum == 0.0
        if np.any(degenerate):
            raise DegenerateInput(
                "u = v = 0 with q < 2: gap undefined (convention 0 >= 0 applies)"
            )
        rhs = c * d ** 2 / nsum ** (2.0 - q)
    if single:
        return float(lhs[0]), float(rhs[0])
    return lhs, rhs


def simon_gap_sum(u, v, q: float):
    """Aggregated (integral-form) monotonicity gap over a batch of pairs.

    For 1 < q < 2 a Hoelder step with splitting exponent q(2-q)/2 turns the
    pointwise bound into

        sum lhs_i >= c(q) * (sum |u_i-v_i|^q)^{2/q} / (sum (|u_i|+|v_i|)^q)^{(2-q)/q},

    which is the two-point specialization of the gradient-integral
    inequality.  For q >= 2 the pointwise bound simply sums.  Returns the
    aggregated (lhs, rhs).
    """
    if q <= 1.0:
        raise ValueError("need q > 1")
    U = np.atleast_2d(np.asarray(u, dtype=float))
    V = np.atleast_2d(np.asarray(v, dtype=float))
    if U.shape != V.shape:
        raise ValueError("u and v must have matching shapes")
    diff = U - V
    lhs = float(np.sum((_phi(U, q) - _phi(V, q)) * diff))
    d = np.linalg.norm(diff, axis=-1)
    c = simon_constant(q)
    if q >= 2.0:
        return lhs, float(c * np.sum(d ** q))
    nsum = np.linalg.norm(U, axis=-1) + np.linalg.norm(V, axis=-1)
    denom = float(np.sum(nsum ** q))
    if denom == 0.0:
        raise DegenerateInput(
            "all pairs are (0,0) with q < 2: aggregated gap undefined"
        )
    num = float(np.sum(d ** q))
    rhs = c * num ** (2.0 / q) / denom ** ((2.0 - q) / q)
    return lhs, rhs
