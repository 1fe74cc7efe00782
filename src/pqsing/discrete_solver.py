"""Radial finite differences for -L_{p,q} and the monotone pipeline.

One uniform grid on [0, R], laid out by DiscreteOperator.from_params, carries
everything: the flux-form operator, the auxiliary constant-load solves, the
four sub/supersolution constructors, the shifted solve map T-hat, the Amann
legs to u1 and u2 (one checked map step, then Newton on the unshifted
system), and shooting for the third solution u3.  Every stage takes that
operator and the load's DerivedReactions (its one copy of Params and
reaction), and refuses a grid function that lives elsewhere or an operator
of other exponents or geometry.  Every nonlinear system is A(u) = load(u),
the load a list of terms, and one damped Newton solves them all, its
tridiagonal steps by odd-even cyclic reduction in numpy (solve_banded):
psi's load is a given right-hand side and the shift -Theta L(u), v_up's the
singular lam f(s) u^{-gamma} at a level s, the solve map's a given fhat,
the shift khat (anchor - u) and lam f(0) u^{-gamma}, and the unshifted
system's fhat(u) and lam f(0) u^{-gamma}.  The constant-load problems
behind the outer pair -- w_eta and u_up, each a plain solve of -L u =
const -- need no Newton: the flux form gives their exact discrete solution
by two cumulative sums (_load_solution).  The same telescoping with the
load lam f(u_i) u_i^{-gamma} marches the rows node by node from u(0)
(march); u3 is the root of u_n between u1(0) and u2(0), bracketed on a
coarse grid and polished by Newton on the unshifted system
(search_third_solution).

Scheme: row i (i = 0..n-1) is a finite volume, the flux balance over the
cell around node i with faces at the half nodes r_{i+1/2} = r_i + h/2:

    A(u)_i = -( area_i F(g_i) - area_{i-1} F(g_{i-1}) ) / vol_i,

with g_i = (u_{i+1}-u_i)/h, F = L_p + L_q, area_i =
r_{i+1/2}^{N-1} and vol_i = h r_i^{N-1}.  Row 0's cell is the half cell
[0, h/2] of volume (h/2)^{N-1} h/(2N), whose inner face is the axis (zero
flux through r=0); node n holds the Dirichlet value.  Affine profiles
reproduce the analytic divergence exactly for N <= 3; the scheme is
degenerate elliptic (A(u)_i nonincreasing in the neighbor values), which is
what makes the comparison-based certificates meaningful on the grid.

Certificates follow the continuum definitions pointwise at the nodes.  The
strictness proxy for orderings divides margins by the boundary distance
R - r, the discrete stand-in for distance-weighted positivity near r = R.
"""

from __future__ import annotations

import bisect
import dataclasses
import warnings

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceFailure,
    FailedAssumptions,
    MonotonicityViolation,
    PositivityLoss,
    SearchExhausted,
)
from .grid import CertificateReport, GridFunction, same_grid
from .nonlinearity import DerivedReactions, choose_Theta_lambda, validate
# not called here: the benchmark's tracer (perfbench/run.py) wraps it by this module's name
from .nonlinearity import choose_khat  # noqa: F401
from .pq_core import Params, lpq_derivative, lpq_inverse, lpq_scalar
from .radial_solver import RadialProfile

__all__ = ["DiscreteOperator", "IterationTrace", "PairsResult", "build_first_pair",
           "build_second_pair", "construct_pairs", "that_map", "amann_iterate",
           "certify", "original_residual", "march", "search_third_solution"]

_JAC_FLOOR = 1e-9       # |gradient| clip of F' (Jacobian, rounding floor), not of F
_POS_FLOOR = 1e-12      # positivity safeguard for singular solves
_NEWTON_BUDGET = 60
_SOLVE_TOL = 1e-12      # sup-norm scaled residual every Newton solve ends below
_HALVINGS = 50
_CR_DENSE = 32          # rows solve_banded leaves to numpy.linalg.solve
_GEOM_BUDGET = 60       # eta halvings / alpha_* doublings / v_up levels


@dataclasses.dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Flux-form discretization of -L_{p,q} on a uniform radial grid.

    The only code that builds the scheme's geometric weights (module
    docstring).  Per row i = 0..n-1: `area` r_{i+1/2}^{N-1} of the outer
    face, `vol` the cell volume, `cplus` = area/vol and `cminus` the inner
    face's area over vol; the axis row 0 has no inner face, so cminus_0 = 0,
    and cplus_0 = 2N/h.
    """

    params: Params
    grid: np.ndarray

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
        N = self.params.dim
        area = (nodes[:-1] + 0.5 * h) ** (N - 1)
        vol = h * nodes[:-1] ** (N - 1)
        vol[0] = (0.5 * h) ** (N - 1) * h / (2.0 * N)
        cplus = area / vol
        cplus[0] = 2.0 * N / h
        cminus = np.concatenate(((0.0,), area[:-1] / vol[1:]))
        for name, value in (("h", h), ("area", area), ("vol", vol),
                            ("cplus", cplus), ("cminus", cminus)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return int(self.grid.size - 1)

    @classmethod
    def from_params(cls, params: Params, n: int) -> "DiscreteOperator":
        """The operator on n uniform cells of [0, R]: the one place radial
        nodes are laid out."""
        return cls(params, np.linspace(0.0, params.radius, n + 1))


def _check_grid(op: DiscreteOperator, reactions: DerivedReactions, *functions) -> None:
    """ConfigurationError unless op's Params are reactions' but for lam (which
    op's nodes and weights do not read) and every function lives on op's grid."""
    if dataclasses.replace(op.params, lam=reactions.params.lam) != reactions.params:
        raise ConfigurationError("operator does not match the reactions' exponents or geometry")
    for u in functions:
        if not same_grid(u.nodes, op.grid):
            raise ConfigurationError("grid function does not live on the operator grid")


def _faces(op: DiscreteOperator, x: np.ndarray):
    """(cplus_i x_{i+1/2}, cminus_i x_{i-1/2}) at rows 0..n-1 of a quantity x
    given at the n half nodes.  Row 0 reads 0: cminus_0 = 0 drops x_{-1/2}
    anyway, and a 0 keeps row 0 free of -0.0 and NaN."""
    return op.cplus * x, op.cminus * np.concatenate(((0.0,), x[:-1]))


def _fluxes(op: DiscreteOperator, u: np.ndarray):
    """(g, F(g)): the gradients and fluxes of u at the n half nodes."""
    g = np.diff(u) / op.h
    return g, lpq_scalar(g, op.params)


def _divergence(op: DiscreteOperator, F: np.ndarray) -> np.ndarray:
    """The scheme's -div at nodes 0..n-1 of the fluxes F at the n half nodes."""
    out, inner = _faces(op, F)
    return -(out - inner)


def _apply_values(op: DiscreteOperator, u: np.ndarray) -> np.ndarray:
    """A(u) at nodes 0..n-1."""
    return _divergence(op, _fluxes(op, u)[1])


def solve_banded(sub, diag, sup, rhs):
    """x with sub_i x_{i-1} + diag_i x_i + sup_i x_{i+1} = rhs_i, i = 0..n-1:
    the tridiagonal system of one Newton step (sub_0 and sup_{n-1} are not read).

    Odd-even cyclic reduction (Heller, SIAM J. Numer. Anal. 13, 1976): each
    level eliminates the even rows of an odd-sized system and leaves its odd
    rows, again tridiagonal, at half the size; numpy.linalg.solve finishes
    the last <= _CR_DENSE rows, and back substitution fills the eliminated
    rows level by level.  Identity rows pad the system once to
    blocks * 2^levels - 1 rows, which stays odd at every level.  There is no
    pivoting: that is stable on diagonally dominant rows, whose dominance
    every level inherits, and the tests check the indefinite Jacobians of the
    u3 polish against LAPACK.  A singular or non-finite system raises
    ConvergenceFailure naming the row it fails at.
    """
    n = diag.size
    levels = 0
    while n + 1 > (_CR_DENSE + 1) << levels:
        levels += 1
    blocks = -(-(n + 1) >> levels)  # ceil((n + 1) / 2^levels) <= _CR_DENSE + 1
    size = (blocks << levels) - 1
    # row i reads b_i x_i - a_i x_{i-1} - c_i x_{i+1} = d_i: with the signs
    # of the off-diagonals flipped, no level negates them again
    a, b, c, d = np.zeros(size), np.ones(size), np.zeros(size), np.zeros(size)
    np.negative(sub[1:], out=a[1:n])
    np.negative(sup[:-1], out=c[:n - 1])
    b[:n], d[:n] = diag, rhs
    eliminated = []
    with np.errstate(all="ignore"):  # a zero pivot surfaces as a non-finite row
        for _ in range(levels):
            ae, be, ce, de = a[::2], b[::2], c[::2], d[::2]
            left, right = a[1::2] / be[:-1], c[1::2] / be[1:]
            a, c = left * ae[:-1], right * ce[1:]
            b = b[1::2] - left * ce[:-1] - right * ae[1:]
            d = d[1::2] + left * de[:-1] + right * de[1:]
            eliminated.append((ae, be, ce, de))
        m = b.size
        dense = np.zeros((m, m))
        dense.flat[::m + 1] = b
        dense.flat[m::m + 1] = -a[1:]
        dense.flat[1::m + 1] = -c[:-1]
        try:
            x = np.linalg.solve(dense, d)
        except np.linalg.LinAlgError:
            x = np.full(m, np.nan)
        for ae, be, ce, de in reversed(eliminated):
            # full holds rows -1..2k+1 of this level (k = x.size), the two
            # ends 0: the kept rows at its even slots, the eliminated at the odd
            full = np.zeros(2 * x.size + 3)
            full[2:-1:2] = x
            full[1::2] = (de + ae * full[:-1:2] + ce * full[2::2]) / be
            x = full[1:-1]
    x = x[:n]
    if not np.all(np.isfinite(x)):
        raise ConvergenceFailure(_no_solution(sub, diag, sup, rhs))
    return x


def _no_solution(sub, diag, sup, rhs) -> str:
    """Why solve_banded found no finite solution, and the row it fails at:
    the first row holding a non-finite entry, else the row of the smallest
    pivot of Gaussian elimination in row order (the NaN of a zero pivot
    spreads over every level of the reduction, so x cannot tell)."""
    finite = np.isfinite(diag) & np.isfinite(rhs)
    finite[1:] &= np.isfinite(sub[1:])
    finite[:-1] &= np.isfinite(sup[:-1])
    if not np.all(finite):
        return f"Newton system not finite at row {int(np.argmin(finite))}"
    pivot, smallest, where = 1.0, np.inf, 0
    for row, (lower, mid, upper) in enumerate(zip([0.0, *sub[1:].tolist()], diag.tolist(),
                                                  [0.0, *sup[:-1].tolist()])):
        pivot = mid - lower * upper / pivot
        if abs(pivot) < smallest:
            smallest, where = abs(pivot), row
        if pivot == 0.0:
            break
    return f"Newton system singular: smallest pivot {smallest:.3e} at row {where}"


# ---------------------------------------------------------------------------
# inner nonlinear solves:  A(u) = load(u), the load a list of terms
# ---------------------------------------------------------------------------

_RND_SLACK = 8.0  # multiples of the flux-cancellation rounding floor


def _given(rhs):
    """A load given at nodes 0..n-1, or one value for all."""
    magnitude = np.abs(rhs)
    return lambda ui: (rhs, magnitude, 0.0, lambda: 0.0)


def _theta_shift(theta, params):
    """psi's shift -theta L(u); its slope clips L' at _JAC_FLOOR."""
    def term(ui):
        Lu = theta * lpq_scalar(ui, params)
        return -Lu, np.abs(Lu), 0.0, lambda: -theta * lpq_derivative(ui, params, floor=_JAC_FLOOR)
    return term


def _anchored_shift(khat, anchor):
    """The solve map's shift khat (anchor - u), khat a scalar or one per node.

    Its magnitude is khat |u - anchor|, not its two khat terms, which cancel
    at the solution: a large khat would declare victory at the first iterate.
    Forming u - anchor loses eps |u|; when khat times that noise tops the
    other scales, steps below an ulp of u are unrepresentable and the anchor
    is the converged answer, so that noise joins the rounding floor.  A zero
    khat, the legs' first try, is the zero term, at no cost per evaluation.
    """
    if not np.any(khat):
        return _given(0.0)
    floor, anchor_size = _RND_SLACK * np.finfo(float).eps * khat, np.abs(anchor)

    def term(ui):
        drift = anchor - ui
        return (khat * drift, khat * np.abs(drift), floor * np.maximum(np.abs(ui), anchor_size),
                lambda: -khat)
    return term


def _singular(mu, gamma):
    """The singular load mu u^{-gamma}: lam f(s) at v_up's level s, or lam f(0)."""
    def term(ui):
        sing = mu * ui ** (-gamma)
        return sing, sing, 0.0, lambda: -gamma * mu * ui ** (-gamma - 1.0)
    return term


def _fhat_term(reactions):
    """fhat(u), with slope lam f'(u) u^{-gamma} - gamma fhat(u) / u."""
    lam, gamma, f_prime = reactions.params.lam, reactions.params.gamma, reactions.spec.f_prime

    def term(ui):
        value = np.asarray(reactions.fhat(ui), dtype=float)
        return value, np.abs(value), 0.0, lambda: (
            lam * np.asarray(f_prime(ui), dtype=float) * ui ** (-gamma) - gamma * value / ui)
    return term


def _residual_scale(op, u, load):
    """(residual, scale, rounding floor, Jacobian) of A(u) = load(u) at u.

    A term of the load maps u at nodes 0..n-1 to (value, magnitude, noise,
    slope).  In the load's order the residual subtracts each value, the
    scale (from 1) adds each magnitude and the floor each noise.  The
    Jacobian is a thunk for the bands (sub, diag, sup) at u, called only
    where Newton steps from: the flux bands cminus_i F'_{i-1/2} and cplus_i
    F'_{i+1/2} over -h, their sum over h on the diagonal less each term's
    slope (a thunk too), F' clipped at |g| = _JAC_FLOOR.
    """
    ui = u[:-1]
    g, F = _fluxes(op, u)
    res = _divergence(op, F)
    # what a converged iterate can actually achieve in float64: flux
    # cancellation (|flux| * eps) plus the roundoff a Jacobian-sized update
    # injects (|J_row| * ||u|| * eps); below this, residuals are noise.
    # F' is the Jacobian's, clipped at _JAC_FLOOR: for p < 2 the unclipped
    # F'(0) is infinite and would hide every residual in a flat core
    Fp = lpq_derivative(g, op.params, floor=_JAC_FLOOR)
    out, inner = _faces(op, np.abs(F))
    dout, dinner = _faces(op, Fp)
    diag = (dout + dinner) / op.h
    rnd = (out + inner + diag * np.max(np.abs(u))) * (_RND_SLACK * np.finfo(float).eps)
    scale, slopes = 1.0, []
    for term in load:
        value, magnitude, noise, slope = term(ui)
        res = res - value
        scale = scale + magnitude
        rnd = rnd + noise
        slopes.append(slope)

    def jacobian():
        sub, sup, d = dinner / -op.h, dout / -op.h, diag
        sup[-1] = 0.0  # the upper neighbor of node n-1 is the fixed boundary
        for slope in slopes:
            d = d - slope()
        return sub, d, sup
    return res, scale, rnd, jacobian


def _scaled_err(res, scale, rnd):
    return float(np.max((np.abs(res) - rnd) / scale))


def _worst_node(res, scale, rnd) -> int:
    return int(np.argmax((np.abs(res) - rnd) / scale))


def _newton_start(init):
    """init with Dirichlet slot 0 and nodes 0..n-1 at least _POS_FLOOR."""
    u = np.asarray(init, dtype=float).copy()
    u[-1] = 0.0
    u[:-1] = np.maximum(u[:-1], _POS_FLOOR)
    return u


def _newton(op, load, init, polish=False):
    """Damped Newton from init for A(u) = load(u), every iterate clamped as
    _newton_start clamps init.  `polish` takes one full step more once the
    tolerance is met, kept if it meets it too: the rounding floor passes
    smooth errors of 1e-10 of the sup.  Returns (u, the Newton steps, the
    rounding-aware scaled residual at u that the stopping rule accepted); a
    rejected polish step leaves all three at the solved u."""
    u = _newton_start(init)
    res, scale, rnd, jacobian = _residual_scale(op, u, load)
    err = _scaled_err(res, scale, rnd)
    for steps in range(_NEWTON_BUDGET):
        if err <= _SOLVE_TOL:
            if not polish:
                return u, steps, err
            polish = False
        d = solve_banded(*jacobian(), -res)
        step = 1.0
        for _h_ in range(_HALVINGS + 1):
            trial = _newton_start(np.append(u[:-1] + step * d, 0.0))
            tres, tscale, trnd, tjacobian = _residual_scale(op, trial, load)
            terr = _scaled_err(tres, tscale, trnd)
            if np.isfinite(terr) and (terr < err or terr <= _SOLVE_TOL):
                u, res, scale, rnd, err, jacobian = trial, tres, tscale, trnd, terr, tjacobian
                break
            if err <= _SOLVE_TOL:  # the polish step missed: keep the solved u
                return u, steps + 1, err
            step *= 0.5
        else:
            raise ConvergenceFailure(
                f"Newton line search stalled at scaled residual {err:.3e} "
                f"(worst node {_worst_node(res, scale, rnd)})")
    if err <= _SOLVE_TOL:
        return u, _NEWTON_BUDGET, err
    raise ConvergenceFailure(f"Newton budget exhausted (scaled residual {err:.3e}, "
                             f"worst node {_worst_node(res, scale, rnd)})")


def _load_flux(op: DiscreteOperator, rhs) -> np.ndarray:
    """F(g_i) = Phi_i / area_i of the scheme's exact solution of A(u) = rhs.

    The flux form telescopes row by row: Phi_i = area_i F(g_i) obeys
    Phi_i = Phi_{i-1} - vol_i rhs_i with Phi_{-1} = 0 (no flux through the
    axis), so a cumulative sum gives the fluxes, whatever the flux map F.
    """
    rhs = np.broadcast_to(np.asarray(rhs, dtype=float), (op.n,))
    return -np.cumsum(op.vol * rhs) / op.area


def _load_solution(op: DiscreteOperator, rhs) -> np.ndarray:
    """The scheme's exact solution of A(u) = rhs, u_n = 0 (no shift, singular
    or theta term): lpq_inverse turns _load_flux's fluxes into the gradients
    g = F^{-1}(flux), and u_i is -h times their sum from node n-1 down to
    node i, a reverse cumulative sum from the Dirichlet node.  This is the
    discrete analogue of the divergence theorem on the ball, exact up to
    rounding, so Newton accepts it without taking a step.
    """
    u = np.zeros(op.n + 1)
    u[:-1] = -op.h * np.cumsum(lpq_inverse(_load_flux(op, rhs), op.params)[::-1])[::-1]
    return u


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

_KINDS = ("subsolution", "supersolution", "ordering", "nonordering")


def _reaction_values(reactions: DerivedReactions, ui: np.ndarray) -> np.ndarray:
    params = reactions.params
    return params.lam * np.asarray(reactions.spec.f(ui), dtype=float) * ui ** (-params.gamma)


def _unshifted(reactions: DerivedReactions, op: DiscreteOperator, uv: np.ndarray):
    """(A(u) - lam f(u) u^{-gamma}, A(u), lam f(u) u^{-gamma}) at nodes 0..n-1."""
    A = _apply_values(op, uv)
    react = _reaction_values(reactions, uv[:-1])
    return A - react, A, react


def certify(reactions: DerivedReactions, u: GridFunction, kind: str,
            other: GridFunction | None = None, op: DiscreteOperator | None = None,
            tol: float | None = None, strict: bool = False) -> CertificateReport:
    """Pointwise certificate at the nodes.

    subsolution:   lam f(u)/u^gamma - A(u) >= -tol at nodes 0..n-1;
    supersolution: A(u) - lam f(u)/u^gamma >= -tol;
    ordering:      (other - u)/((R - r)/R) >= -tol (u <= other), strict wants > tol;
    nonordering:   u exceeds `other` somewhere by more than tol.

    Sub/super kinds raise PositivityLoss when u is not positive at the
    nodes where the singular reaction must be evaluated.
    """
    if kind not in _KINDS:
        raise ConfigurationError(f"unknown certificate kind {kind!r}")
    R = reactions.params.radius
    if kind in ("ordering", "nonordering"):
        if other is None:
            raise ConfigurationError(f"{kind} certificate needs `other`")
        if not same_grid(u.nodes, other.nodes):
            raise ConfigurationError(f"{kind} certificate needs a common grid")
    if kind in ("subsolution", "supersolution"):
        interior = u.values[:-1]
        if np.any(interior <= 0.0):
            raise PositivityLoss(
                f"{kind} certificate needs u > 0 at interior nodes "
                f"(min {float(np.min(interior)):.3e})")
        if op is None:
            op = DiscreteOperator(reactions.params, u.nodes)
        _check_grid(op, reactions, u)
        res, A, react = _unshifted(reactions, op, u.values)
        margins = -res if kind == "subsolution" else res
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


def original_residual(reactions: DerivedReactions, u: GridFunction,
                      op: DiscreteOperator) -> float:
    """Scaled sup residual of -L u = lam f(u) u^{-gamma} at the nodes."""
    _check_grid(op, reactions, u)
    if np.any(u.values[:-1] <= 0.0):
        return float("inf")
    res, _A, react = _unshifted(reactions, op, u.values)
    return float(np.max(np.abs(res) / (1.0 + np.abs(react))))


# ---------------------------------------------------------------------------
# sub/supersolution constructors
# ---------------------------------------------------------------------------

def build_first_pair(reactions: DerivedReactions, op: DiscreteOperator,
                     fit_under: GridFunction | None = None, dominate: GridFunction | None = None):
    """Outer pair: u0 = w_eta (small) and u_up = alpha_* u_alpha (large).

    Both are plain constant-load solves by _load_solution: w_eta of -L w =
    eta, u_up of -L u = alpha_*^{q-1}.  The paper's u_alpha solves the
    weighted -L^{alpha,1} u = 1 with alpha = alpha_*^{p-q}; as L(s t) =
    s^{q-1} (s^{p-q} L_p(t) + L_q(t)) = s^{p-1} (L_p(t) + s^{q-p} L_q(t)),
    alpha_* u_alpha is the plain solve at load alpha_*^{q-1}.

    eta is halved until eta <= (lam/2) min f(w_eta)/w_eta^gamma, which makes
    w_eta a strict subsolution.  alpha_* is doubled until the smallness
    condition lam f(alpha_*||u_alpha||) <= alpha_*^{q+gamma-1} holds AND
    u_up's supersolution certificate has a positive smallest margin (the
    scalar condition alone controls only the sup norm; the grid's
    near-boundary nodes need the extra doublings).
    `fit_under` / `dominate` tighten the searches so the pair brackets a
    given inner pair.  Out of halvings, SearchExhausted names the condition
    the last eta failed and its deciding node (the minimizer of the
    smallness bound, or the node where w_eta comes closest to the inner
    pair); out of doublings, the conditions the last alpha_* failed (and
    u_up's worst node, if pointwise).  Returns (u0, u_up, margins, the
    accepted u_up's supersolution certificate); the margins report eta,
    alpha_* and u_alpha_norm.
    """
    params, f = reactions.params, reactions.spec.f
    _check_grid(op, reactions, *(g for g in (fit_under, dominate) if g is not None))
    lam, gamma = params.lam, params.gamma

    # --- lower: w_eta ------------------------------------------------------
    eta = max(1.0, lam * reactions.spec.f0)
    for _ in range(_GEOM_BUDGET):
        w = _load_solution(op, eta)
        wi = w[:-1]
        small = np.asarray(f(wi), dtype=float) * wi ** (-gamma)
        if not eta <= 0.5 * lam * float(np.min(small)):
            failed = f"smallness eta <= (lam/2) min f(w) w^-gamma, at node {int(np.argmin(small))}"
        elif fit_under is not None and not np.all(wi <= 0.5 * fit_under.values[:-1]):
            failed = ("fit under the inner pair, at node "
                      f"{int(np.argmax(wi / fit_under.values[:-1]))}")
        else:
            break
        eta *= 0.5
    else:
        raise SearchExhausted("first pair: no admissible eta within the halving budget; "
                              f"last failed: {failed}")

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

    for _ in range(_GEOM_BUDGET):
        U = _load_solution(op, alpha_star ** (params.q - 1.0))
        top = float(np.max(U))
        scalar_ok = lam * float(f(top)) <= alpha_star ** (params.q + gamma - 1.0)
        u_up = GridFunction(op.grid, U)
        super_u_up = certify(reactions, u_up, "supersolution", op=op)
        point_ok = super_u_up.min_margin > 0.0
        dom_ok = dominate is None or bool(np.all(U[:-1] >= dominate.values[:-1] * (1.0 + 1e-9)))
        if scalar_ok and point_ok and dom_ok:
            break
        alpha_star *= 2.0
    else:
        failed = [name for name, ok in (("scalar", scalar_ok), ("pointwise", point_ok),
                                        ("domination", dom_ok)) if not ok]
        worst = "" if point_ok else (
            f" (u_up's worst margin at node {super_u_up.detail['min_margin_node']})")
        raise SearchExhausted("first pair: no admissible alpha_* within the doubling budget; "
                              f"last failed: {', '.join(failed)}{worst}")

    u0 = GridFunction(op.grid, w)
    if np.any(u0.values[:-1] > u_up.values[:-1]):
        raise SearchExhausted("first pair: constructed pair is not ordered")
    margins = {
        "eta": float(eta),
        "alpha_star": float(alpha_star),
        "u_alpha_norm": top / alpha_star,
    }
    return u0, u_up, margins, super_u_up


def build_second_pair(reactions: DerivedReactions, profile: RadialProfile,
                      op: DiscreteOperator):
    """Inner pair: v0 = psi >= phi and v_up = v_s, the scheme's solution of
    A(v) = lam f(s) v^{-gamma} at a level s.

    The load of v0 = psi is the given lam h(zeta) + Theta L(zeta) and the
    shift -Theta L(psi), with zeta = phi from the radial profile, which must
    live on op's grid, and Theta = Theta_lambda, derived here at the load
    (choose_Theta_lambda; reported as the margin Theta_lambda).  Newton
    starts at the given term's load solve (_load_solution), which at Theta
    = 0 is psi: no step.  The load is not checked against the window: the
    radial solve that made the profile warned already.

    v_s's load is the singular lam f(s) v^{-gamma}, and Newton starts at
    the load solve of lam f(s).
    f is nondecreasing, so where sup v_s <= s, f(v_s) <= f(s) at every node
    and v_s is a node supersolution; construct_pairs certifies it node by
    node.  s = theta1 is tried first, and wherever sup v_s <= theta1 the
    paper's cap sup v_up <= theta1 holds too.  Otherwise s climbs the
    ladder theta1 2^{k/8}, k < _GEOM_BUDGET: the discrete theorem reads
    only node certificates and orderings, so a level above theta1 serves
    it too.  v_s grows with s, so every rung below a failed rung's sup v_s
    fails the cap as well, and the ladder goes straight to the first rung
    whose level reaches sup v_s, never past the last one.  Once v0 <= v_s
    at every node of a visited rung, no larger level can leave v0 above
    v_up, and SearchExhausted names that rung; so it does when the last
    rung fails the cap.  A Newton failure of v_s names its level.  The
    margins report the level (v_up_level), sup v_s (v_up_sup) and
    Theta_lambda.
    """
    params, f = reactions.params, reactions.spec.f
    lam = params.lam
    theta1 = reactions.spec.theta1
    _check_grid(op, reactions, profile.phi)
    # psi's shift, the one reader of Theta_lambda: a load with no finite
    # shift is refused before any solve
    Theta = choose_Theta_lambda(reactions.spec, params, reactions.h)

    # --- v0 = psi ------------------------------------------------------------
    zi = np.maximum(profile.phi.values[:-1], 0.0)
    rhs = lam * np.asarray(reactions.h(zi), dtype=float)
    shift = []
    if Theta != 0.0:
        rhs = rhs + Theta * lpq_scalar(zi, params)
        shift = [_theta_shift(Theta, params)]
    try:
        psi = _newton(op, [_given(rhs), *shift], _load_solution(op, rhs))[0]
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(f"second pair: v0 = psi: {exc}") from exc
    v0 = GridFunction(op.grid, psi)

    # --- v_up = v_s ------------------------------------------------------------
    levels = [theta1 * 2.0 ** (k / 8.0) for k in range(_GEOM_BUDGET)]
    rung = 0
    while True:
        s = levels[rung]
        mu = lam * float(f(s))
        try:
            v = _newton(op, [_singular(mu, params.gamma)], _load_solution(op, mu))[0]
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(f"second pair: v_up at level s = {s:.6g}: {exc}") from exc
        top = float(np.max(v))
        if top <= s:
            break
        if np.all(psi <= v):
            raise SearchExhausted(
                f"second pair: no v_up level: at s = {s:.6g}, sup v_s/s = {top / s:.4g} "
                "and v0 <= v_s at every node, so no higher level leaves v0 above v_up")
        if rung == _GEOM_BUDGET - 1:
            raise SearchExhausted(
                f"second pair: no v_up level within {_GEOM_BUDGET} rungs: at s = {s:.6g}, "
                f"sup v_s/s = {top / s:.4g}")
        # v_s grows with s, so every rung below sup v_s fails the cap too
        rung = min(bisect.bisect_left(levels, top), _GEOM_BUDGET - 1)
    margins = {
        "v_up_level": s,
        "v_up_sup": top,
        "Theta_lambda": float(Theta),
    }
    return v0, GridFunction(op.grid, v), margins


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


def construct_pairs(reactions: DerivedReactions, profile: RadialProfile,
                    op: DiscreteOperator) -> PairsResult:
    """Build (u0, u_up), (v0, v_up) on op's grid, the radial profile's too,
    and certify the Theorem-2.5 geometry.

    (f4) is checked first, at the reactions' load (FailedAssumptions if it
    fails): the pairs' one check of it, for every caller.  The inner pair is
    built first; the outer searches then take envelopes so that u0 fits
    strictly under both inner functions and u_up dominates both.  All four
    sub/supersolution certificates are pointwise at nodes 0..n-1; v_up's
    level s may exceed theta1 (see build_second_pair), which the discrete
    claim admits, as it reads only node certificates and orderings.  The
    margins chi_low, chi_high and eps_low are the smallest node margins of
    the certificates of u0, u_up and v0.
    """
    if not validate(reactions).passed:
        raise FailedAssumptions("nonlinearity assumptions (f0)-(f4) failed validation: f4")
    v0, v_up, second = build_second_pair(reactions, profile, op=op)
    inner_min = GridFunction(op.grid, np.minimum(v0.values, v_up.values))
    inner_max = GridFunction(op.grid, np.maximum(v0.values, v_up.values))
    u0, u_up, first, super_u_up = build_first_pair(reactions, op=op,
                                                   fit_under=inner_min, dominate=inner_max)
    certs = {
        "sub_u0": certify(reactions, u0, "subsolution", op=op),
        "super_u_up": super_u_up,
        "sub_v0": certify(reactions, v0, "subsolution", op=op),
        "super_v_up": certify(reactions, v_up, "supersolution", op=op),
        "order_u0_v0": certify(reactions, u0, "ordering", other=v0),
        "order_v0_uup": certify(reactions, v0, "ordering", other=u_up, strict=True),
        "order_u0_vup": certify(reactions, u0, "ordering", other=v_up, strict=True),
        "order_vup_uup": certify(reactions, v_up, "ordering", other=u_up),
        "nonorder_v0_vup": certify(reactions, v0, "nonordering", other=v_up),
        "order_zeta_v0": certify(reactions, profile.phi, "ordering", other=v0),
    }
    first = {**first, "chi_low": certs["sub_u0"].min_margin,
             "chi_high": certs["super_u_up"].min_margin}
    second = {"eps_low": certs["sub_v0"].min_margin, **second}
    return PairsResult(u0=u0, u_up=u_up, v0=v0, v_up=v_up,
                       first_margins=first, second_margins=second, certificates=certs)


# ---------------------------------------------------------------------------
# the solve map and the monotone iteration
# ---------------------------------------------------------------------------

def that_map(reactions: DerivedReactions, u: GridFunction, op: DiscreteOperator,
             khat: float | np.ndarray, *, seed: GridFunction | None = None) -> GridFunction:
    """One application of the shifted solve map: w solves A(w) = load(w)
    with the terms fhat(u), the shift khat (u - w) anchored at u, and lam
    f(0) w^{-gamma}.  khat is a scalar or one shift per node 0..n-1 (the
    Amann legs pass their node-wise K).  Increasing in u where fhat + khat t
    is; fixed points solve the original equation.

    For a sub- or supersolution u the comparison principle puts the image
    between u and P, the load solve of A(P) = lam f(u) u^{-gamma}
    (_load_solution).  So Newton starts at u when the map's load is solved
    at u already, its rounding floor carrying the anchor's noise: a solved
    input, such as a leg's Newton finish, is its own image bit for bit and
    without a step, where from P the image would land elsewhere within the
    tolerance.  Every other positive input starts at P, with no residual
    comparison, an input with a non-positive interior node at the load
    solve of fhat(u) + lam f(0), and Newton at `seed` when it is given
    (_checked_step passes the image it rejected).
    """
    _check_grid(op, reactions, *(g for g in (u, seed) if g is not None))
    uv = u.values
    if np.any(uv < -1e-12 * max(1.0, float(np.max(np.abs(uv))))):
        raise ConfigurationError("that_map needs a nonnegative input")
    uv = np.maximum(uv, 0.0)
    ui = uv[:-1]
    rhs = np.asarray(reactions.fhat(ui), dtype=float)
    lam_f0 = reactions.params.lam * reactions.spec.f0
    load = [_given(rhs), _anchored_shift(khat, ui), _singular(lam_f0, reactions.params.gamma)]
    if seed is not None:
        start = seed.values
    elif float(np.min(ui)) <= 0.0:
        start = _load_solution(op, rhs + lam_f0)
    else:
        solved = _scaled_err(*_residual_scale(op, _newton_start(uv), load)[:3]) <= _SOLVE_TOL
        start = uv if solved else _load_solution(op, _reaction_values(reactions, ui))
    w = _newton(op, load, start)[0]
    low = int(np.argmin(w[:-1]))
    if w[low] <= 2.0 * _POS_FLOOR:
        raise PositivityLoss(
            f"solve map output collapsed onto the positivity floor at node {low}")
    return GridFunction(op.grid, w)


_SHIFT_RAISES = 40  # shift re-solves allowed per step


def _checked_step(reactions, u, op, ascending):
    """Apply the map to u with a checked node-wise shift K, 0 to start.

    The image w satisfies A(w) - lam f(w) w^{-gamma} = K (u - w) -
    (fhat(w) - fhat(u)), and by comparison w >= u from a subsolution, w <= u
    from a supersolution, for any K >= 0.  So at a node that moved in the
    leg's direction w is again a sub- (ascending) or supersolution
    (descending) exactly where K_i >= (fhat(w_i) - fhat(u_i)) / (u_i - w_i).
    At a node that moved against it the inequality only bounds K_i from
    above, which raising K cannot mend, so it stays out of the test.  K is
    raised to twice the secant wherever it falls short and the map is
    applied again, seeded at the image it rejected.  Returns (w, K).
    """
    ui = u.values[:-1]
    fu = np.asarray(reactions.fhat(ui), dtype=float)
    w, K = None, np.zeros(op.n)
    for _ in range(_SHIFT_RAISES):
        w = that_map(reactions, u, op=op, khat=K, seed=w)
        wi = w.values[:-1]
        drop = ui - wi
        moved = drop < 0.0 if ascending else drop > 0.0
        need = np.zeros_like(K)
        need[moved] = (np.asarray(reactions.fhat(wi[moved]), dtype=float)
                       - fu[moved]) / drop[moved]
        short = need > K
        if not np.any(short):
            return w, K
        K = np.where(short, 2.0 * need, K)
    raise ConvergenceFailure(
        f"shift still short at {int(np.sum(short))} nodes "
        f"(first {int(np.argmax(short))}) after {_SHIFT_RAISES} raises")


def _solve_unshifted(reactions, op, init, polish=False):
    """(u, Newton steps, scaled residual): damped Newton (_newton, with its
    `polish`) from init on the unshifted system A(u) = load(u), whose two
    terms fhat(u) and lam f(0) u^{-gamma} make up the reaction lam f(u)
    u^{-gamma}.  PositivityLoss names the node of a result on the
    positivity floor."""
    params = reactions.params
    load = [_fhat_term(reactions), _singular(params.lam * reactions.spec.f0, params.gamma)]
    w, steps, err = _newton(op, load, init, polish=polish)
    low = int(np.argmin(w[:-1]))
    if w[low] <= 2.0 * _POS_FLOOR:
        raise PositivityLoss(f"collapsed onto the positivity floor at node {low}")
    return w, steps, err


def _solution_record(reactions: DerivedReactions, op: DiscreteOperator, u: GridFunction,
                     newton_steps: int, scaled_residual: float) -> dict:
    """The keys solve.json reports for each of u1, u2 and u3: u(0), the sup
    norm, the plain original_residual (which counts flux-cancellation
    rounding), and the Newton solve's steps and rounding-aware scaled
    residual, which it measured at u when it stopped."""
    return {
        "u_at_0": float(u.values[0]),
        "sup": u.sup_norm(),
        "residual": original_residual(reactions, u, op=op),
        "scaled_residual": scaled_residual,
        "newton_steps": newton_steps,
    }


@dataclasses.dataclass(frozen=True)
class IterationTrace:
    """Record of one leg: its iterates (the endpoint, the checked map step,
    the Newton finish) plus per-step diagnostics.

    khat is the largest node-wise shift K_i of the map step; newton_steps
    counts the finish's Newton steps, and scaled_residual is the
    rounding-aware residual of the unshifted equation at the limit, as the
    finish measured it when it stopped.  converged is always true (a leg
    that does not finish raises); solve.json reports it.
    """

    iterates: tuple
    monotone: tuple
    converged: bool
    start: str
    khat: float
    increments: tuple
    scaled_residual: float
    newton_steps: int

    @property
    def limit(self) -> GridFunction:
        return self.iterates[-1]

    @property
    def n_steps(self) -> int:
        return len(self.increments)


def amann_iterate(reactions: DerivedReactions, op: DiscreteOperator,
                  lower: GridFunction, upper: GridFunction, start: str) -> IterationTrace:
    """Amann's iteration from one endpoint of a certified interval, ended
    by Newton on the equation of its limit.

    from_lower ascends, from_upper descends.  One _checked_step (a node-wise
    shift K, raised only where the image fails the check; a global shift
    would move the 4e17 reference endpoint by an ulp) makes a sub-
    (ascending) or supersolution (descending) between the endpoint and the
    limit, or its ConvergenceFailure or PositivityLoss is raised again with
    the leg and `step 1` in front.  _solve_unshifted, polished, solves the
    limit's equation from that iterate, and its steps and scaled residual
    are the trace's; the orbit's further maps would only approach it.  The
    finish must lie on the leg's side of that iterate to 1e-9 * sup and off
    the positivity floor, or ConvergenceFailure names the leg, `finish` and
    the worst node, so a returned trace is always converged.  A map step
    against the leg by more than 1e-9 * sup warns MonotonicityViolation
    with the violation and its worst node.
    """
    if start not in ("from_lower", "from_upper"):
        raise ConfigurationError("start must be 'from_lower' or 'from_upper'")
    _check_grid(op, reactions, lower, upper)
    gap = float(np.min(upper.values - lower.values))
    if gap < -1e-9 * max(1.0, upper.sup_norm()):
        raise ConfigurationError("endpoints are not ordered")
    ascending = start == "from_lower"
    sign, cur = (1.0, lower) if ascending else (-1.0, upper)
    try:
        first, K = _checked_step(reactions, cur, op, ascending)
    except (ConvergenceFailure, PositivityLoss) as exc:
        raise type(exc)(f"{start} step 1: {exc}") from exc
    rise = sign * (first.values - cur.values)
    worst = int(np.argmin(rise))
    monotone = bool(rise[worst] >= -1e-9 * max(1.0, first.sup_norm()))
    if not monotone:
        warnings.warn(f"{start} step 1 moved against the leg by {-rise[worst]:.3e} "
                      f"(worst node {worst})", MonotonicityViolation)
    try:
        w, steps, err = _solve_unshifted(reactions, op, first.values, polish=True)
    except (ConvergenceFailure, PositivityLoss) as exc:
        raise ConvergenceFailure(f"{start} finish: {exc}") from exc
    rise = sign * (w - first.values)
    worst = int(np.argmin(rise))
    if rise[worst] < -1e-9 * max(1.0, float(np.max(w))):
        raise ConvergenceFailure(
            f"{start} finish: Newton result lies {-rise[worst]:.3e} "
            f"{'below' if ascending else 'above'} the first iterate "
            f"(worst node {worst})")
    limit = GridFunction(op.grid, w)
    iterates = (cur, first, limit)
    return IterationTrace(
        iterates=iterates,
        monotone=(monotone, True),
        converged=True,
        start=start,
        khat=float(np.max(K)),
        increments=tuple(float(np.max(np.abs(b.values - a.values)))
                         for a, b in zip(iterates, iterates[1:])),
        scaled_residual=err,
        newton_steps=steps,
    )


_SHOOT_N = 64          # cells of the coarse grid that brackets u3
_SHOOT_STARTS = 200    # geometric starts u(0) of the bracketing march
_SHOOT_REFINE = 32     # starts of its one refinement


def march(op: DiscreteOperator, reactions: DerivedReactions, starts) -> np.ndarray:
    """Discrete shooting: the scheme's rows solved node by node from u_0 = a.

    The flux form telescopes as in _load_flux, and the load
    lam f(u_i) u_i^{-gamma} of row i is known once u_i is:

        Phi_i = Phi_{i-1} - vol_i lam f(u_i) u_i^{-gamma},   Phi_{-1} = 0,
        g_i = F^{-1}(Phi_i / area_i),   u_{i+1} = u_i + h g_i.

    One march per start a, batched; returns their values at nodes 0..n,
    one row per start.  Every solution of the discrete problem is the march
    from its own u(0), and its u_n is 0.  A march that reaches u_i <= 0 at
    some i < n has died and reads -inf from node i+1 on: as u_i -> 0+ the
    singular load drives u_{i+1} to -inf, so the sign of u_n stays
    continuous in a.
    """
    _check_grid(op, reactions)
    params = op.params
    starts = np.asarray(starts, dtype=float)
    u = np.full((starts.size, op.n + 1), -np.inf)
    u[:, 0] = starts
    flux = np.zeros(starts.size)
    for i in range(op.n):
        live = u[:, i] > 0.0
        ui = u[live, i]
        flux[live] -= op.vol[i] * _reaction_values(reactions, ui)
        u[live, i + 1] = ui + op.h * lpq_inverse(flux[live] / op.area[i], params)
    return u


def _shoot_middle(op, reactions, a1, a2):
    """(the _SHOOT_N grid, a march on it from near the middle root of u_n(a)
    in (a1, a2)); SearchExhausted names the stage that finds no such root.

    u_n rises through 0 at u1(0) and u2(0) and falls through 0 at u3(0) in
    between, so u3 is the one falling sign change.  A march over
    _SHOOT_STARTS geometric starts brackets it, one over _SHOOT_REFINE
    starts inside the bracket refines it, and the refined bracket's
    positive end is the profile.
    """
    coarse = DiscreteOperator.from_params(op.params, _SHOOT_N)
    lo, hi = a1, a2
    for count in (_SHOOT_STARTS, _SHOOT_REFINE):
        starts = np.geomspace(lo, hi, count)
        u = march(coarse, reactions, starts)
        un = u[:, -1]
        falls = np.flatnonzero((un[:-1] > 0.0) & (un[1:] <= 0.0))
        if falls.size != 1:
            raise SearchExhausted(
                f"{falls.size} falling sign changes of u at node {_SHOOT_N} of the "
                f"{_SHOOT_N}-cell march over {count} starts u(0) in "
                f"[{lo:.6g}, {hi:.6g}], need 1")
        k = int(falls[0])
        lo, hi = starts[k], starts[k + 1]
    return coarse, u[k]


def search_third_solution(reactions: DerivedReactions, u1: GridFunction, u2: GridFunction,
                          pairs: PairsResult, op: DiscreteOperator):
    """Amann's third solution u3, between u1 and u2, by discrete shooting.

    u3 lies in [u0, u_up] but in neither [u0, v_up] nor [v0, u_up].  The
    solve map is order-preserving, so its orbits settle only on the minimal
    and maximal solutions of an order interval; shooting does not need one.
    _shoot_middle brackets the root of u_n(a) between u1(0) and u2(0) on a
    coarse grid (march), and its profile, interpolated onto op's grid, seeds
    Newton on the unshifted system A(u) - lam f(0) u^{-gamma} = fhat(u).
    u3 is an unstable solution, so no monotone iteration reaches it.

    Returns (report, u3).  The report is u3's _solution_record, as each
    Amann leg's report is its limit's, with status "converged", the
    distances to u1 and u2 and four certificates: u0 <= u3, u3 <= u_up, u3
    not below v_up and v0 not below u3.  A stage that fails gives status
    "bracket_failed" or "polish_failed", a message naming the stage and the
    node, and u3 None.
    """
    _check_grid(op, reactions, u1, u2)
    a1, a2 = float(u1.values[0]), float(u2.values[0])
    try:
        coarse, seed = _shoot_middle(op, reactions, a1, a2)
    except (SearchExhausted, ConvergenceFailure) as exc:
        return {"status": "bracket_failed", "message": f"shooting bracket: {exc}"}, None
    init = np.interp(op.grid, coarse.grid, seed)
    try:
        w, steps, err = _solve_unshifted(reactions, op, init)
    except (ConvergenceFailure, PositivityLoss) as exc:
        return {"status": "polish_failed",
                "message": f"shooting polish from u(0) = {seed[0]:.6g}: {exc}"}, None
    u3 = GridFunction(op.grid, w)
    certs = {
        "order_u0_u3": certify(reactions, pairs.u0, "ordering", other=u3),
        "order_u3_uup": certify(reactions, u3, "ordering", other=pairs.u_up),
        "nonorder_u3_vup": certify(reactions, u3, "nonordering", other=pairs.v_up),
        "nonorder_v0_u3": certify(reactions, pairs.v0, "nonordering", other=u3),
    }
    report = {
        "status": "converged",
        **_solution_record(reactions, op, u3, steps, err),
        "dist_to_u1": float(np.max(np.abs(w - u1.values))),
        "dist_to_u2": float(np.max(np.abs(w - u2.values))),
        "certificates": {k: c.summary() for k, c in certs.items()},
        "all_passed": all(c.passed for c in certs.values()),
    }
    return report, u3
