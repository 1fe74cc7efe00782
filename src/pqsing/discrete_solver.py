"""Radial finite differences for -L^{alpha,beta}_{p,q} and the monotone pipeline.

One uniform grid on [0, R] carries everything: the flux-form operator, the
auxiliary solves (constant load, singular constant load), the four
sub/supersolution constructors, the shifted solve map T-hat, and the Amann
iteration between ordered endpoints.  All nonlinear systems go through one
damped-Newton core.  The constant-load problems behind both pairs (w_eta,
u_alpha, u_beta*) are seeded at their exact discrete solution, which the flux
form yields by two cumulative sums (_load_solution), so Newton only checks it.

Scheme: interior node i differences the half-node fluxes,

    A(u)_i = -( r_{i+1/2}^{N-1} F(g_i) - r_{i-1/2}^{N-1} F(g_{i-1}) ) / (h r_i^{N-1}),

with g_i = (u_{i+1}-u_i)/h and F = alpha L_p + beta L_q.  Node 0 is the
finite-volume balance over the half cell (symmetry: zero flux through r=0),
A(u)_0 = -(2N/h) F(g_0), and node n holds the Dirichlet value.  Affine
profiles reproduce the analytic divergence exactly for N <= 3; the scheme is
degenerate elliptic (A(u)_i nonincreasing in the neighbor values), which is
what makes the comparison-based certificates meaningful on the grid.

Certificates follow the continuum definitions pointwise at the nodes.  The
strictness proxy for orderings divides margins by the boundary distance
R - r, the discrete stand-in for distance-weighted positivity near r = R.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Callable

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceFailure,
    IterationBudget,
    IterationStall,
    MonotonicityViolation,
    PositivityLoss,
    SearchExhausted,
    WindowViolation,
)
from .grid import CertificateReport, GridFunction
from .nonlinearity import DerivedReactions, NonlinearitySpec, choose_khat, validate
from .parameter_window import WindowReport
from .pq_core import Params, lpq_derivative, lpq_inverse, lpq_scalar
from .radial_solver import RadialProfile

__all__ = [
    "DiscreteOperator",
    "IterationTrace",
    "PairsResult",
    "apply",
    "solve_eta_problem",
    "solve_singular_constant",
    "build_first_pair",
    "build_second_pair",
    "construct_pairs",
    "that_map",
    "amann_iterate",
    "certify",
    "original_residual",
    "search_third_solution",
]

_JAC_FLOOR = 1e-9       # |gradient| clip of F' (Jacobian, rounding floor), not of F
_POS_FLOOR = 1e-12      # positivity safeguard for singular solves
_NEWTON_BUDGET = 60
_HALVINGS = 50
_GEOM_BUDGET = 60       # eta halvings / alpha_* doublings
_BISECT_BUDGET = 80     # m_lambda bracketing + bisection


@dataclasses.dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Flux-form discretization of -L^{alpha,beta}_{p,q} on a uniform radial grid."""

    params: Params
    grid: np.ndarray
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        nodes = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", nodes)
        if nodes.ndim != 1 or nodes.size < 4:
            raise ConfigurationError("grid must hold at least 4 nodes")
        h = float(nodes[1] - nodes[0])
        if h <= 0.0 or float(np.max(np.abs(np.diff(nodes) - h))) > 1e-12 * max(h, 1.0):
            raise ConfigurationError("grid must be uniform and increasing")
        R = self.params.radius
        if abs(float(nodes[0])) > 1e-14 or abs(float(nodes[-1]) - R) > 1e-12 * R:
            raise ConfigurationError("grid must span [0, R]")
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ConfigurationError("weights alpha, beta must be positive")
        N = self.params.dim
        half = nodes[:-1] + 0.5 * h
        interior = nodes[1:-1]
        object.__setattr__(self, "_h", h)
        object.__setattr__(self, "_cplus", half[1:] ** (N - 1) / (h * interior ** (N - 1)))
        object.__setattr__(self, "_cminus", half[:-1] ** (N - 1) / (h * interior ** (N - 1)))
        object.__setattr__(self, "_coef0", 2.0 * N / h)

    @property
    def h(self) -> float:
        return self._h

    @property
    def n(self) -> int:
        return int(self.grid.size - 1)

    @classmethod
    def from_params(cls, params: Params, n: int = 2048,
                    alpha: float = 1.0, beta: float = 1.0) -> "DiscreteOperator":
        return cls(params, np.linspace(0.0, params.radius, n + 1), alpha, beta)

    def with_weights(self, alpha: float, beta: float) -> "DiscreteOperator":
        return DiscreteOperator(self.params, self.grid, alpha, beta)


def _require_same_grid(op: DiscreteOperator, u: GridFunction) -> None:
    if u.nodes.size != op.grid.size or not np.allclose(u.nodes, op.grid, rtol=0.0, atol=1e-12):
        raise ConfigurationError("grid function does not live on the operator grid")


def _apply_values(op: DiscreteOperator, u: np.ndarray) -> np.ndarray:
    """A(u) at nodes 0..n-1; the Dirichlet slot n is reported as 0."""
    g = np.diff(u) / op._h
    F = lpq_scalar(g, op.params, op.alpha, op.beta)
    out = np.empty_like(u)
    out[0] = -op._coef0 * F[0]
    out[1:-1] = -(op._cplus * F[1:] - op._cminus * F[:-1])
    out[-1] = 0.0
    return out


def apply(op: DiscreteOperator, u: GridFunction | np.ndarray) -> GridFunction:
    """Discrete -L^{alpha,beta} residual of u (Dirichlet slot carries 0)."""
    if isinstance(u, GridFunction):
        _require_same_grid(op, u)
        vals = u.values
    else:
        vals = np.asarray(u, dtype=float)
        if vals.shape != op.grid.shape:
            raise ConfigurationError("value array does not match the operator grid")
    return GridFunction(op.grid, _apply_values(op, vals))


def solve_banded(l_and_u, ab, b):
    """scipy.linalg.solve_banded, imported at the first solve: importing
    scipy.linalg costs more than a cold `pqsing window` does in all."""
    from scipy import linalg

    return linalg.solve_banded(l_and_u, ab, b)


# ---------------------------------------------------------------------------
# inner nonlinear solves:  A(u) + theta L(u) + khat u - mu u^{-gamma} = rhs
# ---------------------------------------------------------------------------

_RND_SLACK = 8.0  # multiples of the flux-cancellation rounding floor


def _residual_scale(op, u, theta, khat, mu_arr, rhs, singular, anchor=None):
    """(residual, scale, rounding floor, (g, F'(g))) of the system at u.

    The gradients and flux derivatives (clipped at |g| = _JAC_FLOOR) are
    handed back so that the Jacobian at an accepted iterate does not
    evaluate them a second time.
    """
    p = op.params
    ui = u[:-1]
    g = np.diff(u) / op._h
    F = lpq_scalar(g, op.params, op.alpha, op.beta)
    res = np.empty(u.size - 1)
    res[0] = -op._coef0 * F[0]
    res[1:] = -(op._cplus * F[1:] - op._cminus * F[:-1])
    # what a converged iterate can actually achieve in float64: flux
    # cancellation (|flux| * eps) plus the roundoff a Jacobian-sized update
    # injects (|J_row| * ||u|| * eps); below this, residuals are noise.
    # F' is the Jacobian's, clipped at _JAC_FLOOR: for p < 2 the unclipped
    # F'(0) is infinite and would hide every residual in a flat core
    Fp = lpq_derivative(g, op.params, op.alpha, op.beta, floor=_JAC_FLOOR)
    rnd = np.empty_like(res)
    rnd[0] = op._coef0 * (abs(F[0]) + Fp[0] / op._h * np.max(np.abs(u)))
    rnd[1:] = (op._cplus * np.abs(F[1:]) + op._cminus * np.abs(F[:-1])
               + (op._cplus * Fp[1:] + op._cminus * Fp[:-1]) / op._h * np.max(np.abs(u)))
    rnd *= _RND_SLACK * np.finfo(float).eps
    res -= rhs
    scale = 1.0 + np.abs(rhs)
    if theta != 0.0:
        Lu = lpq_scalar(ui, p)
        res = res + theta * Lu
        scale = scale + np.abs(theta * Lu)
    if np.any(khat):
        # anchored shift: khat (w - anchor) keeps the two khat terms of the
        # solve map out of the scale -- they cancel at the solution, and a
        # large khat would otherwise declare victory at the initial iterate
        drift = ui if anchor is None else ui - anchor
        res = res + khat * drift
        scale = scale + khat * np.abs(drift)
        if anchor is not None:
            # forming w - anchor loses eps * |w|; when khat times that noise
            # tops the other scales, steps below an ulp of the iterate are
            # unrepresentable and the anchor is the converged answer
            rnd = rnd + _RND_SLACK * np.finfo(float).eps * khat * np.maximum(
                np.abs(ui), np.abs(anchor))
    if singular:
        sing = mu_arr * ui ** (-p.gamma)
        res = res - sing
        scale = scale + np.abs(sing)
    return res, scale, rnd, (g, Fp)


def _scaled_err(res, scale, rnd):
    return float(np.max((np.abs(res) - rnd) / scale))


def _jac_bands(op, u, theta, khat, mu_arr, singular, kept):
    """Tridiagonal Jacobian at u from the (g, F'(g)) _residual_scale kept,
    F' clipped at |g| = _JAC_FLOOR."""
    p = op.params
    h = op._h
    Fp = kept[1]
    n = u.size - 1
    sub = np.zeros(n)
    sup = np.zeros(n)
    diag = np.empty(n)
    diag[0] = op._coef0 * Fp[0] / h
    sup[0] = -op._coef0 * Fp[0] / h
    diag[1:] = (op._cplus * Fp[1:] + op._cminus * Fp[:-1]) / h
    sub[1:] = -op._cminus * Fp[:-1] / h
    sup[1:-1] = -op._cplus[:-1] * Fp[1:-1] / h
    sup[-1] = 0.0  # the upper neighbor of node n-1 is the fixed boundary
    if theta != 0.0:
        diag = diag + theta * lpq_derivative(u[:-1], p, floor=_JAC_FLOOR)
    if np.any(khat):
        diag = diag + khat
    if singular:
        diag = diag + p.gamma * mu_arr * u[:-1] ** (-p.gamma - 1.0)
    return sub, diag, sup


def _newton(op, theta, khat, mu_arr, rhs, init, tol, budget=_NEWTON_BUDGET, anchor=None):
    singular = bool(np.any(mu_arr > 0.0))
    u = np.asarray(init, dtype=float).copy()
    u[-1] = 0.0
    if singular:
        u[:-1] = np.maximum(u[:-1], _POS_FLOOR)
    res, scale, rnd, kept = _residual_scale(op, u, theta, khat, mu_arr, rhs, singular, anchor)
    err = _scaled_err(res, scale, rnd)
    n = u.size - 1
    ab = np.zeros((3, n))
    for _ in range(budget):
        if err <= tol:
            return u
        sub, diag, sup = _jac_bands(op, u, theta, khat, mu_arr, singular, kept)
        ab[0, 1:] = sup[:-1]
        ab[1, :] = diag
        ab[2, :-1] = sub[1:]
        d = solve_banded((1, 1), ab, -res)
        step = 1.0
        for _h_ in range(_HALVINGS + 1):
            trial = u.copy()
            trial[:-1] = u[:-1] + step * d
            if singular:
                trial[:-1] = np.maximum(trial[:-1], _POS_FLOOR)
            tres, tscale, trnd, tkept = _residual_scale(op, trial, theta, khat, mu_arr, rhs,
                                                        singular, anchor)
            terr = _scaled_err(tres, tscale, trnd)
            if np.isfinite(terr) and terr < err:
                u, res, err, kept = trial, tres, terr, tkept
                break
            step *= 0.5
        else:
            raise ConvergenceFailure(
                f"Newton line search stalled at scaled residual {err:.3e}")
    if err <= tol:
        return u
    raise ConvergenceFailure(f"Newton budget exhausted (scaled residual {err:.3e})")


def _solve_system(op, theta, khat, mu, rhs, init, tol=1e-12, anchor=None):
    n = op.n
    mu_arr = np.broadcast_to(np.asarray(mu, dtype=float), (n,)).astype(float)
    rhs_arr = np.broadcast_to(np.asarray(rhs, dtype=float), (n,)).astype(float)
    if np.any(mu_arr < 0.0):
        raise ConfigurationError("singular weights must be nonnegative")
    return _newton(op, theta, khat, mu_arr, rhs_arr, init, tol, anchor=anchor)


def _paraboloid(nodes: np.ndarray, R: float, amp: float) -> np.ndarray:
    return amp * (1.0 - (nodes / R) ** 2)


def _load_solution(op: DiscreteOperator, rhs) -> np.ndarray:
    """The scheme's exact solution of A(u) = rhs, u_n = 0 (no shift, singular or theta term).

    The flux form telescopes node by node: Phi_i = r_{i+1/2}^{N-1} F(g_i)
    obeys Phi_0 = -(h/2)^{N-1} rhs_0 h/(2N) and Phi_i = Phi_{i-1} - h r_i^{N-1}
    rhs_i.  A cumulative sum gives the fluxes, lpq_inverse the gradients, and
    a reverse cumulative sum from the Dirichlet node the values.  This is the
    discrete analogue of the divergence theorem on the ball, exact up to
    rounding, so Newton accepts it as a seed without taking a step.
    """
    N, h = op.params.dim, op._h
    rhs = np.broadcast_to(np.asarray(rhs, dtype=float), (op.n,))
    half = op.grid[:-1] + 0.5 * h
    weight = np.empty(op.n)
    weight[0] = (0.5 * h) ** (N - 1) * h / (2.0 * N)
    weight[1:] = h * op.grid[1:-1] ** (N - 1)
    flux = -np.cumsum(weight * rhs)
    g = lpq_inverse(flux / half ** (N - 1), op.params, op.alpha, op.beta)
    u = np.zeros(op.n + 1)
    u[:-1] = -h * np.cumsum(g[::-1])[::-1]
    return u


# ---------------------------------------------------------------------------
# auxiliary problems
# ---------------------------------------------------------------------------

def solve_eta_problem(op: DiscreteOperator, eta: float) -> GridFunction:
    """-L^{alpha,beta} w = eta with Dirichlet 0: positive, vanishing with eta."""
    if eta <= 0.0:
        raise ConfigurationError("eta must be positive")
    rhs = np.full(op.n, eta)
    u = _solve_system(op, 0.0, 0.0, 0.0, rhs, _load_solution(op, rhs))
    return GridFunction(op.grid, u)


def solve_singular_constant(op: DiscreteOperator, load: float) -> GridFunction:
    """-L^{alpha,beta} u = load * u^{-gamma}: the minimal-solution analogue.

    Start from the non-singular constant-load solution; the singular term
    then only pushes the iterate up, which the damped Newton absorbs.
    """
    if load <= 0.0:
        raise ConfigurationError("load must be positive")
    init = solve_eta_problem(op, load).values.copy()
    init[:-1] = np.maximum(init[:-1], _POS_FLOOR)
    u = _solve_system(op, 0.0, 0.0, load, 0.0, init)
    if float(np.min(u[:-1])) <= 2.0 * _POS_FLOOR:
        raise PositivityLoss("singular solve collapsed onto the positivity floor")
    return GridFunction(op.grid, u)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

_KINDS = ("subsolution", "supersolution", "ordering", "nonordering")


def _reaction_values(params: Params, reactions: DerivedReactions, ui: np.ndarray) -> np.ndarray:
    return reactions.lam * np.asarray(reactions.f(ui), dtype=float) * ui ** (-params.gamma)


def certify(params: Params, reactions: DerivedReactions, u: GridFunction, kind: str,
            other: GridFunction | None = None, op: DiscreteOperator | None = None,
            tol: float | None = None, strict: bool = False) -> CertificateReport:
    """Pointwise certificate at the nodes.

    subsolution:   lam f(u)/u^gamma - A(u) >= -tol at nodes 0..n-1;
    supersolution: A(u) - lam f(u)/u^gamma >= -tol;
    ordering:      (other - u)/(R - r) >= -tol (u <= other), strict wants > tol;
    nonordering:   u exceeds `other` somewhere by more than tol.

    Sub/super kinds raise PositivityLoss when u is not positive at the
    nodes where the singular reaction must be evaluated.
    """
    if kind not in _KINDS:
        raise ConfigurationError(f"unknown certificate kind {kind!r}")
    R = params.radius
    if kind in ("subsolution", "supersolution"):
        interior = u.values[:-1]
        if np.any(interior <= 0.0):
            raise PositivityLoss(
                f"{kind} certificate needs u > 0 at interior nodes "
                f"(min {float(np.min(interior)):.3e})")
        if op is None:
            op = DiscreteOperator(params, u.nodes)
        else:
            _require_same_grid(op, u)
        A = _apply_values(op, u.values)[:-1]
        react = _reaction_values(params, reactions, interior)
        margins = react - A if kind == "subsolution" else A - react
        if tol is None:
            tol = 1e-10 * max(1.0, float(np.max(np.abs(A))), float(np.max(react)))
        passed = bool(np.min(margins) >= -tol)
        k_tail = max(2, u.nodes.size // 64)
        ratios = interior[-k_tail:] / (R - u.nodes[:-1][-k_tail:])
        detail = {
            "min_margin_node": int(np.argmin(margins)),
            "cdelta_low": float(np.min(ratios)),
            "cdelta_high": float(np.max(ratios)),
            "sup_u": u.sup_norm(),
        }
    elif kind == "ordering":
        if other is None:
            raise ConfigurationError("ordering certificate needs `other`")
        if u.nodes.size != other.nodes.size or not np.allclose(
                u.nodes, other.nodes, rtol=0.0, atol=1e-12):
            raise ConfigurationError("ordering certificate needs a common grid")
        weights = (R - u.nodes[:-1]) / R
        margins = (other.values[:-1] - u.values[:-1]) / weights
        if tol is None:
            tol = 1e-10 * max(1.0, u.sup_norm(), other.sup_norm())
        passed = bool(np.min(margins) > tol) if strict else bool(np.min(margins) >= -tol)
        detail = {
            "strict": strict,
            "min_margin_node": int(np.argmin(margins)),
            "distance_scaled": True,
        }
    else:  # nonordering: u must exceed `other` somewhere
        if other is None:
            raise ConfigurationError("nonordering certificate needs `other`")
        margins = u.values - other.values
        if tol is None:
            tol = 1e-10 * max(1.0, u.sup_norm(), other.sup_norm())
        passed = bool(np.max(margins) > tol)
        detail = {
            "max_excess_node": int(np.argmax(margins)),
            "max_excess": float(np.max(margins)),
        }
    return CertificateReport(kind=kind, margins=np.asarray(margins, dtype=float),
                             passed=passed, tolerance=float(tol), detail=detail)


def original_residual(params: Params, reactions: DerivedReactions, u: GridFunction,
                      op: DiscreteOperator | None = None) -> float:
    """Scaled sup residual of -L u = lam f(u) u^{-gamma} at the nodes."""
    if op is None:
        op = DiscreteOperator(params, u.nodes)
    else:
        _require_same_grid(op, u)
    ui = u.values[:-1]
    if np.any(ui <= 0.0):
        return float("inf")
    A = _apply_values(op, u.values)[:-1]
    react = _reaction_values(params, reactions, ui)
    return float(np.max(np.abs(A - react) / (1.0 + np.abs(react))))


# ---------------------------------------------------------------------------
# sub/supersolution constructors
# ---------------------------------------------------------------------------

def build_first_pair(params: Params, spec: NonlinearitySpec, reactions: DerivedReactions,
                     n: int = 2048, op: DiscreteOperator | None = None,
                     fit_under: GridFunction | None = None,
                     dominate: GridFunction | None = None):
    """Outer pair: u0 = w_eta (small) and u_up = alpha_* u_alpha (large).

    eta is halved until eta <= (lam/2) min f(w_eta)/w_eta^gamma, which makes
    w_eta a strict subsolution with margin chi_low; alpha_* is doubled until
    the smallness condition lam f(alpha_*||u_alpha||) <= alpha_*^{q+gamma-1}
    holds AND the pointwise supersolution certificate has a positive margin
    chi_high (the scalar condition alone controls only the sup norm; the
    grid's near-boundary nodes need the extra doublings).  `fit_under` /
    `dominate` tighten the searches so the pair brackets a given inner pair.
    """
    if not validate(spec, params).ok:
        raise ConfigurationError("nonlinearity assumptions (f0)-(f4) do not hold")
    if op is None:
        op = DiscreteOperator.from_params(params, n)
    lam, gamma = reactions.lam, params.gamma
    f = reactions.f

    # --- lower: w_eta ------------------------------------------------------
    eta = max(1.0, lam * reactions.f0)
    w = None
    for _ in range(_GEOM_BUDGET):
        w = solve_eta_problem(op, eta)
        wi = w.values[:-1]
        cond = 0.5 * lam * float(np.min(np.asarray(f(wi), dtype=float) * wi ** (-gamma)))
        ok = eta <= cond
        if ok and fit_under is not None:
            ok = bool(np.all(wi <= 0.5 * fit_under.values[:-1]))
        if ok:
            break
        eta *= 0.5
    else:
        raise SearchExhausted("no admissible eta within the halving budget")
    wi = w.values[:-1]
    chi_low = float(np.min(_reaction_values(params, reactions, wi))) - eta

    # --- upper: alpha_* u_alpha --------------------------------------------
    # The smallness condition lam f(alpha_* C) <= alpha_*^{q+gamma-1} is not
    # monotone when f saturates: a small-alpha window can exist below the
    # range where u_up would dominate `dominate`.  Seed the doublings at the
    # domination ratio (against the q-only closed-form shape, which the
    # profile approaches as alpha_*^{p-q} -> 0), then walk the scalar
    # condition up to its admissible range before paying for any solves.
    R, N = params.radius, params.dim
    norm0 = (R / N) ** (1.0 / (params.q - 1.0)) * R * (params.q - 1.0) / params.q
    alpha_star = 1.0
    if dominate is not None:
        shape = norm0 * (1.0 - (op.grid[:-1] / R) ** (params.q / (params.q - 1.0)))
        alpha_star = max(1.0, float(np.max(dominate.values[:-1] / shape)))
    for _ in range(400):
        if lam * float(f(alpha_star * norm0)) <= alpha_star ** (params.q + gamma - 1.0):
            break
        alpha_star *= 2.0

    u_up = None
    chi_high = None
    ones = np.ones(op.n)
    for _ in range(_GEOM_BUDGET):
        aux = op.with_weights(alpha_star ** (params.p - params.q), 1.0)
        ua = _solve_system(aux, 0.0, 0.0, 0.0, ones, _load_solution(aux, ones))
        norm = float(np.max(ua))
        scalar_ok = lam * float(f(alpha_star * norm)) <= alpha_star ** (params.q + gamma - 1.0)
        U = alpha_star * ua
        Ui = U[:-1]
        margins = _apply_values(op, U)[:-1] - _reaction_values(params, reactions, Ui)
        point_ok = bool(np.min(margins) > 0.0)
        dom_ok = dominate is None or bool(np.all(Ui >= dominate.values[:-1] * (1.0 + 1e-9)))
        if scalar_ok and point_ok and dom_ok:
            u_up = GridFunction(op.grid, U)
            chi_high = float(np.min(margins))
            break
        alpha_star *= 2.0
    else:
        raise SearchExhausted("no admissible alpha_* within the doubling budget")

    u0 = w
    if np.any(u0.values[:-1] > u_up.values[:-1]):
        raise SearchExhausted("constructed pair is not ordered")
    margins = {
        "eta": float(eta),
        "alpha_star": float(alpha_star),
        "chi_low": chi_low,
        "chi_high": chi_high,
        "u_alpha_norm": norm,
    }
    return u0, u_up, margins


def build_second_pair(params: Params, spec: NonlinearitySpec, reactions: DerivedReactions,
                      window: WindowReport, profile: RadialProfile,
                      op: DiscreteOperator | None = None):
    """Inner pair: v_up = m u_{beta*} (capped by theta1) and v0 = psi >= phi.

    m is located by two bisections: the growth condition
    m^{p-1+gamma} >= lam f(m C) (C = ||u_{beta*}||) gives the lower edge
    m_min, the cap m C <= theta1 gives the upper edge m_max; their geometric
    mean is used.  The supersolution margin eps_high is the slack in those
    two scalar inequalities -- the paper's own certificate for v_up.  The raw
    pointwise singular margin is negative on the last boundary cells at any
    admissible m (the cap forbids compensating the (R-r)^{-gamma} blow-up);
    its worst value is recorded as collar_deficit, not asserted.

    v0 = psi solves -L psi + Theta L(psi) = lam h(zeta) + Theta L(zeta) with
    zeta = phi from the radial profile; eps_low is psi's pointwise
    subsolution margin against the original reaction.
    """
    lam, gamma = reactions.lam, params.gamma
    p, q = params.p, params.q
    f = reactions.f
    theta1 = spec.theta1
    if lam < window.lambda_star * (1.0 - 1e-12) or lam > window.lambda_upper * (1.0 + 1e-12):
        warnings.warn(
            f"lambda={lam} outside [{window.lambda_star}, {window.lambda_upper}]",
            WindowViolation,
        )
    if op is None:
        op = DiscreteOperator(params, profile.phi.nodes)
    R, N = params.radius, params.dim

    cache: dict[float, tuple[np.ndarray, float]] = {}

    def u_beta(m: float) -> tuple[np.ndarray, float]:
        if m not in cache:
            aux = op.with_weights(1.0, m ** (q - p))
            ones = np.ones(op.n)
            u = _solve_system(aux, 0.0, 0.0, 0.0, ones, _load_solution(aux, ones))
            cache[m] = (u, float(np.max(u)))
        return cache[m]

    def cond_growth(m: float) -> bool:   # true from m_min upward
        _, c = u_beta(m)
        return m ** (p - 1.0 + gamma) >= lam * float(f(m * c))

    def cond_cap(m: float) -> bool:      # true up to m_max
        _, c = u_beta(m)
        return m * c <= theta1

    steps = 0

    def bisect(cond, lo, hi, rising):
        # cond flips once between lo and hi; returns the edge
        nonlocal steps
        for _ in range(40):
            if steps >= _BISECT_BUDGET:
                break
            mid = float(np.sqrt(lo * hi))
            steps += 1
            if cond(mid) == rising:
                hi = mid
            else:
                lo = mid
            if hi / lo < 1.0 + 1e-6:
                break
        return lo, hi

    # bracket the growth edge from below and the cap edge from above
    lo = 1.0
    while cond_growth(lo) and lo > 1e-12 and steps < _BISECT_BUDGET:
        lo *= 0.5
        steps += 1
    hi = 1.0
    while not cond_growth(hi) and hi < 1e12 and steps < _BISECT_BUDGET:
        hi *= 2.0
        steps += 1
    if not cond_growth(hi):
        raise SearchExhausted("growth condition for m unattainable in budget")
    m_min = bisect(cond_growth, lo, hi, rising=True)[1]

    hi = max(1.0, m_min)
    while cond_cap(hi) and hi < 1e12 and steps < _BISECT_BUDGET:
        hi *= 2.0
        steps += 1
    if cond_cap(hi):
        raise SearchExhausted("cap condition never fails; bracket not found")
    m_max = bisect(cond_cap, max(1e-12, m_min / 2.0), hi, rising=False)[0]
    if not (m_min <= m_max and cond_growth(m_max)):
        raise SearchExhausted(
            f"no admissible m: growth needs m >= {m_min:.6g}, cap needs m <= {m_max:.6g}")
    m = float(np.sqrt(m_min * m_max))
    if not (cond_growth(m) and cond_cap(m)):
        m = m_max if cond_growth(m_max) and cond_cap(m_max) else m_min
    if not (cond_growth(m) and cond_cap(m)):
        raise SearchExhausted("bisection landed outside the admissible interval")

    uvals, c_norm = u_beta(m)
    v_up = GridFunction(op.grid, m * uvals)
    eps_cap = theta1 - m * c_norm
    eps_growth = m ** (p - 1.0 + gamma) - lam * float(f(m * c_norm))
    vi = v_up.values[:-1]
    collar_deficit = float(np.min(
        _apply_values(op, v_up.values)[:-1] - _reaction_values(params, reactions, vi)))

    # --- v0 = psi ------------------------------------------------------------
    zeta = profile.phi
    if zeta.nodes.size != op.grid.size or not np.allclose(zeta.nodes, op.grid,
                                                          rtol=0.0, atol=1e-12):
        zeta = GridFunction(op.grid, zeta.interp(op.grid))
    zi = np.maximum(zeta.values[:-1], 0.0)
    Theta = reactions.Theta_lambda
    rhs = lam * np.asarray(reactions.h(zi), dtype=float)
    if Theta != 0.0:
        rhs = rhs + Theta * lpq_scalar(zi, params)
    amp = 0.5 * R * lpq_inverse(float(np.max(rhs)) * R / N, params)
    init = np.maximum(_paraboloid(op.grid, R, amp), zeta.values)
    psi = _solve_system(op, Theta, 0.0, 0.0, rhs, init)
    v0 = GridFunction(op.grid, psi)
    eps_low = float(np.min(
        _reaction_values(params, reactions, psi[:-1]) - _apply_values(op, psi)[:-1]))

    margins = {
        "m_lambda": m,
        "m_min": float(m_min),
        "m_max": float(m_max),
        "beta_star": float(m ** (q - p)),
        "u_beta_norm": c_norm,
        "eps_low": eps_low,
        "eps_cap": float(eps_cap),
        "eps_growth": float(eps_growth),
        "eps_high": float(min(eps_cap, eps_growth)),
        "collar_deficit": collar_deficit,
        "Theta_lambda": float(Theta),
    }
    return v0, v_up, margins


@dataclasses.dataclass(frozen=True)
class PairsResult:
    """Both ordered pairs plus every certificate the multiplicity run needs."""

    u0: GridFunction
    u_up: GridFunction
    v0: GridFunction
    v_up: GridFunction
    first_margins: dict
    second_margins: dict
    certificates: dict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.certificates.values())


def construct_pairs(params: Params, spec: NonlinearitySpec, reactions: DerivedReactions,
                    window: WindowReport, profile: RadialProfile,
                    n: int = 2048, op: DiscreteOperator | None = None) -> PairsResult:
    """Build (u0, u_up), (v0, v_up) and certify the Theorem-2.5 geometry.

    The inner pair is built first; the outer searches then take envelopes so
    that u0 fits strictly under both inner functions and u_up dominates both.
    v_up's supersolution certificate carries the paper's scalar slack as its
    margins (see build_second_pair).
    """
    if op is None:
        op = DiscreteOperator.from_params(params, n)
    v0, v_up, second = build_second_pair(params, spec, reactions, window, profile, op=op)
    inner_min = GridFunction(op.grid, np.minimum(v0.values, v_up.values))
    inner_max = GridFunction(op.grid, np.maximum(v0.values, v_up.values))
    u0, u_up, first = build_first_pair(params, spec, reactions, op=op,
                                       fit_under=inner_min, dominate=inner_max)
    certs = {
        "sub_u0": certify(params, reactions, u0, "subsolution", op=op),
        "super_u_up": certify(params, reactions, u_up, "supersolution", op=op),
        "sub_v0": certify(params, reactions, v0, "subsolution", op=op),
        "super_v_up": CertificateReport(
            kind="supersolution",
            margins=np.array([second["eps_cap"], second["eps_growth"]]),
            passed=bool(second["eps_cap"] > 0.0 and second["eps_growth"] > 0.0),
            tolerance=0.0,
            detail={
                "convention": "scalar slack of the cap and growth conditions for m",
                "m_lambda": second["m_lambda"],
                "collar_deficit": second["collar_deficit"],
            },
        ),
        "order_u0_v0": certify(params, reactions, u0, "ordering", other=v0),
        "order_v0_uup": certify(params, reactions, v0, "ordering", other=u_up, strict=True),
        "order_u0_vup": certify(params, reactions, u0, "ordering", other=v_up, strict=True),
        "order_vup_uup": certify(params, reactions, v_up, "ordering", other=u_up),
        "nonorder_v0_vup": certify(params, reactions, v0, "nonordering", other=v_up),
        "order_zeta_v0": certify(params, reactions,
                                 GridFunction(op.grid, np.interp(op.grid, profile.phi.nodes,
                                                                 profile.phi.values)),
                                 "ordering", other=v0),
    }
    return PairsResult(u0=u0, u_up=u_up, v0=v0, v_up=v_up,
                       first_margins=first, second_margins=second, certificates=certs)


# ---------------------------------------------------------------------------
# the solve map and the monotone iteration
# ---------------------------------------------------------------------------

def _fixed_point_residual(op, reactions, uv):
    """(u is above the answer, rounding-aware scaled residual) of the map at u.

    At w = u the shift terms of the solve map cancel exactly, so this is the
    residual of the unshifted equation A(u) - lam f(u) u^{-gamma}, whatever
    the shift: not below its rounding floor anywhere when u is a
    supersolution, and within the solve tolerance when u is a fixed point.
    """
    if float(np.min(uv[:-1])) <= 0.0:
        return False, float("inf")
    lam_f0 = reactions.lam * reactions.f0
    mu = np.full(op.n, lam_f0)
    rhs = np.asarray(reactions.fhat(uv[:-1]), dtype=float)
    res, scale, rnd, _ = _residual_scale(op, uv, 0.0, 0.0, mu, rhs, lam_f0 > 0.0)
    return bool(np.all(res >= -rnd)), _scaled_err(res, scale, rnd)


def that_map(params: Params, reactions: DerivedReactions, u: GridFunction,
             op: DiscreteOperator | None = None, khat: float | np.ndarray | None = None,
             tol: float = 1e-12) -> GridFunction:
    """One application of the shifted solve map.

    w solves  -L w + khat w - lam f(0) w^{-gamma} = fhat(u) + khat u  with
    khat = reactions.khat unless overridden; khat is a scalar or one shift
    per node 0..n-1.  Increasing in u where fhat + khat t is; fixed points
    solve the original equation.  Newton starts at u when u is a
    supersolution whose residual beats the load-sized seed (then w <= u and
    the solve only descends), and at the load-sized seed otherwise.
    """
    if op is None:
        op = DiscreteOperator(params, u.nodes)
    else:
        _require_same_grid(op, u)
    if khat is None:
        khat = reactions.khat
    uv = u.values
    if np.any(uv < -1e-12 * max(1.0, float(np.max(np.abs(uv))))):
        raise ConfigurationError("that_map needs a nonnegative input")
    uv = np.maximum(uv, 0.0)
    lam_f0 = reactions.lam * reactions.f0
    rhs = np.asarray(reactions.fhat(uv[:-1]), dtype=float)
    base = 0.5 * lam_f0 ** (1.0 / (params.q - 1.0 + params.gamma))
    init = np.maximum(uv, _paraboloid(op.grid, params.radius, base))
    # seed at the amplitude the reaction load dictates: far-below starts
    # make the damped Newton crawl through the degenerate region (the khat
    # drift pins w near u, which init already contains, so it stays out)
    load = float(np.max(rhs)) + lam_f0
    if load > 0.0:
        slope = lpq_inverse(load * params.radius / params.dim, params,
                            op.alpha, op.beta)
        init = np.maximum(
            init, _paraboloid(op.grid, params.radius, 0.5 * slope * params.radius))
    init[-1] = 0.0
    above, err_u = _fixed_point_residual(op, reactions, uv)
    if above:
        mu = np.full(op.n, lam_f0)
        res, scale, rnd, _ = _residual_scale(op, init, 0.0, khat, mu, rhs,
                                             lam_f0 > 0.0, uv[:-1])
        err_init = _scaled_err(res, scale, rnd)
        if err_u < err_init:
            init = uv
    w = _solve_system(op, 0.0, khat, lam_f0, rhs, init, tol, anchor=uv[:-1])
    if float(np.min(w[:-1])) <= 2.0 * _POS_FLOOR:
        raise PositivityLoss("solve map output collapsed onto the positivity floor")
    return GridFunction(op.grid, w)


_SHIFT_RAISES = 40  # shift re-solves allowed per descending step
_ULP_BAND = 64.0    # a move within this many ulps of the iterate is float noise


def _descending_step(params, reactions, u, op, K):
    """Apply the map to the supersolution u with a checked node-wise shift K.

    The image w satisfies A(w) - lam f(w) w^{-gamma} = K (u - w) -
    (fhat(w) - fhat(u)), and w <= u for any K >= 0 by comparison.  So w is
    again a supersolution exactly where K_i >= (fhat(w_i) - fhat(u_i)) /
    (u_i - w_i); K is raised to twice that secant wherever it falls short
    and the map is applied again.  Returns (w, K).
    """
    ui = u.values[:-1]
    fu = np.asarray(reactions.fhat(ui), dtype=float)
    for _ in range(_SHIFT_RAISES):
        w = that_map(params, reactions, u, op=op, khat=K)
        wi = w.values[:-1]
        drop = ui - wi
        down = drop > 0.0
        need = np.zeros_like(K)
        need[down] = (np.asarray(reactions.fhat(wi[down]), dtype=float) - fu[down]) / drop[down]
        short = need > K
        if not np.any(short):
            return w, K
        K = np.where(short, 2.0 * need, K)
    raise ConvergenceFailure(
        f"descending shift still short at {int(np.sum(short))} nodes "
        f"(first {int(np.argmax(short))}) after {_SHIFT_RAISES} raises")


@dataclasses.dataclass(frozen=True)
class IterationTrace:
    """Record of one monotone run: every iterate plus per-step diagnostics.

    khat is the shift of the last step; for the node-wise descending shift
    it is the largest K_i.  stalled marks a run that stopped on a move
    within a few ulps of the iterate while the iterate was not yet a fixed
    point: float64 cannot take the step the shift asks for.
    """

    iterates: tuple
    residuals: tuple
    monotone: tuple
    converged: bool
    start: str
    khat: float
    increments: tuple
    stalled: bool

    @property
    def limit(self) -> GridFunction:
        return self.iterates[-1]

    @property
    def n_steps(self) -> int:
        return len(self.increments)


def amann_iterate(params: Params, reactions: DerivedReactions,
                  lower: GridFunction, upper: GridFunction, start: str,
                  op: DiscreteOperator | None = None, khat: float | None = None,
                  budget: int = 200, conv_factor: float = 1e-8) -> IterationTrace:
    """Iterate the solve map from one endpoint of a certified interval.

    from_lower ascends, from_upper descends.  Convergence is declared when
    the sup increment drops below conv_factor * theta2, or when it is at
    most 64 ulps of the iterate's sup norm and the rounding-aware residual
    of the unshifted equation at the input is within the inner solve's
    tolerance.  A float-level move at any larger residual ends the run as
    stalled (IterationStall), not converged.  A monotonicity failure beyond
    1e-9 * sup|iterate| is a discretization artifact: reported as a
    MonotonicityViolation warning, iteration continues.

    khat = None adapts the shift to the run.  Ascending, it is
    choose_khat(t_max = sup of the current iterate), recomputed whenever
    the run outgrows the covered range; the global shift that keeps the map
    increasing up to a tall supersolution would make ascending steps
    microscopic.  Descending, it is a node-wise shift checked after every
    solve so that each iterate stays a supersolution (see
    _descending_step); that shift is far below the global one, which on
    the reference configuration is so large that every step is one ulp.
    The shift never moves the fixed points, only the path.
    """
    if start not in ("from_lower", "from_upper"):
        raise ConfigurationError("start must be 'from_lower' or 'from_upper'")
    if lower.nodes.size != upper.nodes.size or not np.allclose(
            lower.nodes, upper.nodes, rtol=0.0, atol=1e-12):
        raise ConfigurationError("endpoints must share one grid")
    gap = float(np.min(upper.values - lower.values))
    if gap < -1e-9 * max(1.0, upper.sup_norm()):
        raise ConfigurationError("endpoints are not ordered")
    if op is None:
        op = DiscreteOperator(params, lower.nodes)
    cur = lower if start == "from_lower" else upper
    adaptive = khat is None
    nodewise = adaptive and start == "from_upper"
    if nodewise:
        khat = np.zeros(op.n)
    elif adaptive:
        t_cover = max(float(np.max(cur.values)), 1e-300)
        khat = choose_khat(reactions.spec, params, t_max=t_cover)
    ctol = conv_factor * reactions.spec.theta2
    stol = 1e-12  # the solve map's own tolerance
    iterates = [cur]
    residuals = [original_residual(params, reactions, cur, op=op)]
    monotone: list[bool] = []
    increments: list[float] = []
    converged = stalled = False
    for _ in range(budget):
        if nodewise:
            nxt, khat = _descending_step(params, reactions, cur, op, khat)
        else:
            nxt = that_map(params, reactions, cur, op=op, khat=khat)
        delta = nxt.values - cur.values
        mtol = 1e-9 * max(1.0, nxt.sup_norm())
        if start == "from_lower":
            ok = bool(np.min(delta) >= -mtol)
        else:
            ok = bool(np.max(delta) <= mtol)
        if not ok:
            warnings.warn(
                f"monotone step violated by {float(np.max(np.abs(delta))):.3e}",
                MonotonicityViolation,
            )
        inc = float(np.max(np.abs(delta)))
        iterates.append(nxt)
        residuals.append(original_residual(params, reactions, nxt, op=op))
        monotone.append(ok)
        increments.append(inc)
        if adaptive and start == "from_lower":
            s = float(np.max(nxt.values))
            if s > t_cover:
                t_cover = 2.0 * s
                khat = choose_khat(reactions.spec, params, t_max=t_cover)
        if inc < ctol:
            converged = True
            break
        if inc <= _ULP_BAND * float(np.spacing(max(cur.sup_norm(), nxt.sup_norm()))):
            err = _fixed_point_residual(op, reactions, cur.values)[1]
            converged = err <= stol
            stalled = not converged
            if stalled:
                warnings.warn(
                    f"{start} run stalled at step {len(increments)}: increment {inc:.3e} "
                    f"is within {_ULP_BAND:g} ulps of the iterate, scaled residual "
                    f"{err:.3e}", IterationStall)
            break
        cur = nxt
    if not (converged or stalled):
        warnings.warn(
            f"{start} run used the full budget of {budget} iterations "
            f"(last increment {increments[-1]:.3e}, target {ctol:.3e})",
            IterationBudget,
        )
    return IterationTrace(
        iterates=tuple(iterates),
        residuals=tuple(residuals),
        monotone=tuple(monotone),
        converged=converged,
        start=start,
        khat=float(np.max(khat)),
        increments=tuple(increments),
        stalled=stalled,
    )


def search_third_solution(params: Params, reactions: DerivedReactions,
                          u1: GridFunction, u2: GridFunction,
                          op: DiscreteOperator | None = None, khat: float | None = None,
                          attempts: int = 3, iters: int = 25, seed: int = 0,
                          conv_factor: float = 1e-8) -> dict:
    """Best-effort hunt for a fixed point away from both known solutions.

    Seeds are convex combinations of u1, u2 with a random radial bump; each
    is iterated under the solve map for a short budget.  Purely a log: the
    third solution is an existence statement, not a constructive one, and
    the iteration usually slides back into a known basin.

    An attempt counts as distinct when it ends on a fixed point at least
    0.05 theta1 from both known solutions, and at least 1e-6 of their sup
    norm.  The second floor is float noise: Newton accepts any iterate whose
    residual is within its rounding floor, so each solution is a fixed point
    only to a band whose width grows with its size.  On the reference
    configuration (sup 8.9e16) attempts end 1e6-7e7 from u2, under 1e-9
    relative, which the absolute level alone would call a third solution.
    """
    if op is None:
        op = DiscreteOperator(params, u1.nodes)
    rng = np.random.default_rng(seed)
    R = params.radius
    level = max(0.05 * reactions.spec.theta1, 1e-6 * max(u1.sup_norm(), u2.sup_norm()))
    ctol = conv_factor * reactions.spec.theta2
    records = []
    found = False
    for _ in range(attempts):
        mix = float(rng.uniform(0.25, 0.75))
        bump = 1.0 + 0.5 * float(rng.uniform(-1.0, 1.0)) * np.sin(np.pi * u1.nodes / R)
        vals = (mix * u1.values + (1.0 - mix) * u2.values) * bump
        vals = np.maximum(vals, 0.0)
        vals[-1] = 0.0
        cur = GridFunction(u1.nodes, vals)
        status = "budget"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _k in range(iters):
                try:
                    nxt = that_map(params, reactions, cur, op=op, khat=khat)
                except (ConvergenceFailure, PositivityLoss):
                    status = "solver_failed"
                    break
                inc = float(np.max(np.abs(nxt.values - cur.values)))
                cur = nxt
                if inc < ctol:
                    status = "fixed_point"
                    break
        d1 = float(np.max(np.abs(cur.values - u1.values)))
        d2 = float(np.max(np.abs(cur.values - u2.values)))
        distinct = status == "fixed_point" and min(d1, d2) >= level
        found = found or distinct
        records.append({
            "mix": mix,
            "status": status,
            "dist_to_u1": d1,
            "dist_to_u2": d2,
            "sup": cur.sup_norm(),
            "distinct": distinct,
        })
    return {"found_distinct": found, "attempts": records}
