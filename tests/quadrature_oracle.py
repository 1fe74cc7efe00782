"""The lagged nested-quadrature oracle the finite-volume solvers are checked against."""
import numpy as np

from pqsing import GridFunction, lpq_inverse
from pqsing.radial_solver import _nested_integral, _outer_integral


def quadrature_solve(params, load_fn, n: int) -> GridFunction:
    """Lagged nested-quadrature solution of -L_{p,q} u = load_fn(u) on the ball.

    load_fn maps node values to node loads (a scalar is a constant load).
    Each sweep freezes the load, solves the resulting radial problem exactly
    by quadrature on n uniform cells, then under-relaxes by 1/2; it stops
    after 60 sweeps or once a sweep moves u by at most 1e-12 relative.
    """
    nodes = np.linspace(0.0, params.radius, n + 1)
    u = 1.0 - (nodes / params.radius) ** 2
    for _ in range(60):
        load = np.asarray(load_fn(u), dtype=float)
        if load.ndim == 0:
            load = np.full_like(nodes, float(load))
        I = _nested_integral(nodes, load, 1.0, params.dim)
        u_new = _outer_integral(nodes, lpq_inverse(I, params))
        delta = float(np.max(np.abs(u_new - u)))
        u = u + 0.5 * (u_new - u)
        if delta <= 1e-12 * max(1.0, float(np.max(np.abs(u)))):
            break
    return GridFunction(nodes, u)
