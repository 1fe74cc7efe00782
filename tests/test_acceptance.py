"""Acceptance gate: one timed check per shipped guarantee.

Each test prints exactly one line

    ACCEPTANCE <k> PASS/FAIL (<seconds>s) <what it checked>

with capture suspended, before asserting, so every criterion reports itself
even in a quiet run.  Budgets are wall-clock on the machine running the
suite.  One criterion is expected red on the reference configuration and
its failure mode is documented where it is asserted: the uniform-mesh
boundary/origin layers cap the observed sup-norm orders near 1.5 (9).
"""
import time
import warnings

import numpy as np
from scipy.integrate import cumulative_trapezoid

from pqsing import (
    DiscreteOperator,
    GridFunction,
    NonlinearitySpec,
    Params,
    amann_iterate,
    build_h,
    certify_radial_claim,
    certify_smallest_exponent,
    check_scaling,
    compute_window,
    conservation_residual,
    construct_pairs,
    lpq_inverse,
    lpq_scalar,
    original_residual,
    simon_gap,
    solve_barrier,
    solve_radial,
    that_map,
)


def _gate(capsys, idx, label, t0, budget, checks):
    dt = time.perf_counter() - t0
    checks = list(checks) + [(f"finished within {budget:g}s", dt < budget)]
    verdict = "PASS" if all(v for _, v in checks) else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {idx} {verdict} ({dt:.2f}s) {label}", flush=True)
    for name, v in checks:
        assert v, f"criterion {idx}: {name}"


def test_criterion_1_scalar_map_roundtrip(capsys):
    t0 = time.perf_counter()
    s_set = np.concatenate([[0.0], np.geomspace(1e-12, 1e12, 97)])
    s_set = np.concatenate([s_set, -s_set])
    worst = 0.0
    for (p, q) in ((1.5, 3.0), (2.0, 3.0), (2.5, 4.0)):
        pr = Params(p=p, q=q, gamma=0.5, dim=2, radius=1.0, lam=0.0)
        t = lpq_inverse(s_set, pr)
        err = np.abs(lpq_scalar(t, pr) - s_set) / np.maximum(1.0, np.abs(s_set))
        worst = max(worst, float(np.max(err)))
    _gate(capsys, 1, f"inverse/forward round-trip, worst {worst:.2e}", t0, 1.0,
          [("round-trip error <= 1e-10 relative", worst <= 1e-10)])


def test_criterion_2_vector_inequalities(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    violations = 0
    for q in (1.5, 2.0, 3.0, 4.0):
        u = rng.normal(size=(100_000, 3))
        v = rng.normal(size=(100_000, 3))
        lhs, rhs = simon_gap(u, v, q)
        gap = lhs - rhs
        # at q=2 both sides evaluate the same quantity along different
        # parenthesizations; grant rounding headroom, nothing more
        slack = 64.0 * np.finfo(float).eps * np.maximum(
            1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        violations += int(np.sum(gap < -slack))
    _gate(capsys, 2, "monotone-gap inequalities on 4e5 random vector pairs", t0, 5.0,
          [("zero violations beyond roundoff", violations == 0)])


def test_criterion_3_window_nonempty_sweep(capsys):
    t0 = time.perf_counter()
    spec = NonlinearitySpec(kind="exp_saturating", theta1=1.0, theta2=176.0, k=100.0)
    tuples = 0
    failures = []
    for (p, q) in ((1.5, 2.0), (1.5, 2.5), (1.5, 3.0), (1.5, 4.0), (2.0, 2.5),
                   (2.0, 3.0), (2.0, 4.0), (2.5, 3.0), (2.5, 4.0)):
        for dim in (1, 2, 3):
            for frac in (0.85, 0.6):
                radius = frac * (1.0 + dim / (q - 1.0))
                p0 = Params(p=p, q=q, gamma=0.5, dim=dim, radius=radius, lam=0.0)
                w = compute_window(spec, p0)
                tuples += 1
                admissible = w.theta <= min(w.theta2, w.F_theta2) + 1e-12
                if not (admissible and w.lambda_star < w.lambda_upper):
                    failures.append((p, q, dim, radius))
    _gate(capsys, 3, f"load window open on {tuples} admissible parameter tuples", t0, 5.0,
          [("at least 50 tuples", tuples >= 50),
           (f"no empty windows, failures={failures}", not failures)])


def test_criterion_4_truncated_profile_claims(cfg1, capsys):
    t0 = time.perf_counter()
    worst_oracle = 0.0
    certs = []
    tolv = 1e-8 * cfg1.spec.theta2
    for lam in (cfg1.window.lambda_star, cfg1.window.midpoint,
                cfg1.window.lambda_upper):
        rxx = cfg1.reactions.at_load(lam)
        px = rxx.params
        pf = solve_radial(rxx, cfg1.window, DiscreteOperator.from_params(px, 4096).grid)
        certs.append(certify_radial_claim(pf, px, cfg1.window).passed)
        certs.append(bool(np.all(pf.phi.values >= pf.v.values - tolv)))
        certs.append(float(pf.phi.sup_norm()) <= cfg1.spec.theta2 + tolv)
        mask = pf.phi.nodes >= cfg1.window.epsilon
        certs.append(bool(np.all(
            pf.phi_prime.values[mask] <= pf.v_prime.values[mask] + tolv)))
        # independent rebuild on the same uniform nodes: trapezoid flux
        # accumulation with the quadratic closed-form inverse of t + t^2
        nodes = pf.phi.nodes
        load = lam * np.asarray(rxx.h(pf.v.values), dtype=float)
        inner = cumulative_trapezoid(nodes * load, nodes, initial=0.0)
        I = np.zeros_like(inner)
        I[1:] = inner[1:] / nodes[1:]
        slope = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * I))
        Fc = cumulative_trapezoid(slope, nodes, initial=0.0)
        worst_oracle = max(worst_oracle,
                           float(np.max(np.abs((Fc[-1] - Fc) - pf.phi.values))))
    _gate(capsys, 4, "comparison-profile claims at three loads + quadrature oracle",
          t0, 10.0,
          [("claim certificates pass", all(certs)),
           (f"oracle agreement {worst_oracle:.2e} <= 1e-6", worst_oracle <= 1e-6)])


def test_criterion_5_barrier_certificates(capsys):
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # truncation at R_tau is the point
        prof = solve_barrier(1.0, 3.0, 0.5, r_max=1.0)
    cons = float(conservation_residual(prof))
    exp_ok = all(certify_smallest_exponent(prof, p).passed for p in (1.5, 2.5))
    rep = check_scaling(0.5, 2.0, 3.0, 0.5)
    d = rep.as_dict()
    finite = all(np.isfinite(v) for v in d.values())
    with capsys.disabled():
        print(f"  scaling fit: a={d['a_fit']:.6g} b={d['b_fit']:.6g} "
              f"(energy-law pair a={d['a_energy']:.6g} b={d['b_energy']:.6g}, "
              f"fit residual {d['residual_fit']:.2e}, alternative-pair residual "
              f"{d['residual_alt']:.2e}) -- reported, not asserted", flush=True)
    _gate(capsys, 5, "barrier conservation, sign certificate, scaling report", t0, 10.0,
          [(f"barrier conservation audit {cons:.2e} <= 1e-6", cons <= 1e-6),
           ("smallest-exponent certificate at p=1.5 and 2.5", exp_ok),
           ("scaling report finite", finite)])


def test_criterion_6_certified_pairs(cfg1, capsys):
    t0 = time.perf_counter()
    pairs = construct_pairs(cfg1.reactions, cfg1.profile, op=cfg1.op)
    margin_ok = all(pairs.certificates[k].passed and
                    pairs.certificates[k].min_margin > 0.0
                    for k in ("sub_u0", "super_u_up", "sub_v0", "super_v_up"))
    order_ok = all(pairs.certificates[k].passed
                   for k in ("order_u0_v0", "order_v0_uup", "order_u0_vup",
                             "order_vup_uup"))
    cross_ok = pairs.certificates["nonorder_v0_vup"].passed
    _gate(capsys, 6, "both sub/supersolution pairs certified with interlacing", t0, 60.0,
          [("strict sub/super margins on all four functions", margin_ok),
           ("interval orderings", order_ok),
           ("the two upper functions genuinely cross", cross_ok),
           ("every certificate green", pairs.all_passed)])


def test_criterion_7_two_solutions(cfg1, capsys):
    t0 = time.perf_counter()
    pairs = cfg1.pairs
    lo = amann_iterate(cfg1.reactions, cfg1.op, pairs.u0, pairs.v_up, "from_lower")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        up = amann_iterate(cfg1.reactions, cfg1.op, pairs.v0, pairs.u_up, "from_upper")
    res_lo = original_residual(cfg1.reactions, lo.limit, cfg1.op)
    res_up = original_residual(cfg1.reactions, up.limit, cfg1.op)
    gap = float(np.max(np.abs(lo.limit.values - up.limit.values)))
    # the descending leg starts at sup ~ 4.1e17, where one ulp is 64; its
    # node-wise shift is raised only where an image would stop being a
    # supersolution, so steps stay far above that ulp and the leg reaches
    # the second solution (sup ~ 8.874e16) in about a dozen steps
    _gate(capsys, 7, "monotone iteration reaches two ordered solutions", t0, 300.0,
          [("ascending leg converged", lo.converged),
           ("ascending leg monotone", all(lo.monotone)),
           (f"ascending residual {res_lo:.2e} <= 1e-6", res_lo <= 1e-6),
           ("descending leg converged", up.converged),
           ("descending leg monotone", all(up.monotone)),
           (f"descending residual {res_up:.2e} <= 1e-6", res_up <= 1e-6),
           (f"solution gap {gap:.3g} >= 0.1*theta1", gap >= 0.1 * cfg1.spec.theta1)])


def _rand_profile(rng, grid, radius):
    x = grid / radius
    amp = 10.0 ** rng.uniform(-2.0, 2.5)
    vals = amp * (1.0 - x) * (1.0 + rng.uniform(0.0, 1.0)
                              * np.sin(np.pi * rng.integers(1, 4) * x) ** 2
                              + rng.uniform(0.0, 0.5) * x)
    vals = np.maximum(vals, 0.0)
    vals[-1] = 0.0
    return vals


def test_criterion_8_solve_map_increasing(cfg1, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = np.inf
    khat = cfg1.spec.khat
    for _ in range(100):
        base = _rand_profile(rng, cfg1.op.grid, cfg1.params.radius)
        bump = _rand_profile(rng, cfg1.op.grid, cfg1.params.radius)
        w1 = that_map(cfg1.reactions, GridFunction(cfg1.op.grid, base), op=cfg1.op, khat=khat)
        w2 = that_map(cfg1.reactions, GridFunction(cfg1.op.grid, base + bump), op=cfg1.op,
                      khat=khat)
        drop = float(np.min(w2.values - w1.values))
        worst = min(worst, drop / max(1.0, float(w2.sup_norm())))
    _gate(capsys, 8, "solve map preserves ordering on 100 random ordered pairs",
          t0, 120.0,
          [(f"worst normalized drop {worst:.2e} >= -1e-10", worst >= -1e-10)])


def test_criterion_9_mesh_refinement_order(cfg1, capsys):
    t0 = time.perf_counter()
    phis = {n: solve_radial(cfg1.reactions, cfg1.window,
                            DiscreteOperator.from_params(cfg1.params, n).grid).phi.values
            for n in (512, 1024, 2048)}
    d1 = float(np.max(np.abs(phis[512] - phis[1024][::2])))
    d2 = float(np.max(np.abs(phis[1024] - phis[2048][::2])))
    order_phi = float(np.log2(d1 / d2))
    u1 = {}
    for n in (256, 512, 1024):
        opn = DiscreteOperator.from_params(cfg1.params, n)
        profn = solve_radial(cfg1.reactions, cfg1.window, opn.grid)
        pn = construct_pairs(cfg1.reactions, profn, op=opn)
        u1[n] = amann_iterate(cfg1.reactions, opn, pn.u0, pn.v_up,
                              "from_lower", conv_factor=1e-12).limit.values
    e1 = float(np.max(np.abs(u1[256] - u1[512][::2])))
    e2 = float(np.max(np.abs(u1[512] - u1[1024][::2])))
    order_u1 = float(np.log2(e1 / e2))
    # expected red on this configuration: sup-norm errors come from two thin
    # layers a uniform mesh cannot resolve.  The comparison profile leaves
    # the origin with sqrt(r) gradient growth (the flux inverse goes like
    # sqrt(s) there): order 1.46, but 2.01 on r >= 0.1.  The u^{-gamma}
    # reaction gives the solution a (R-r)^{2-gamma} boundary collar (order
    # tracks 2-gamma = 1.44), and that error spreads inward: the order is
    # still 1.50 on r <= 0.5
    _gate(capsys, 9, f"sup-norm refinement orders (profile {order_phi:.2f}, "
             f"solution {order_u1:.2f})", t0, 120.0,
          [(f"profile order {order_phi:.2f} >= 1.8", order_phi >= 1.8),
           (f"solution order {order_u1:.2f} >= 1.8", order_u1 >= 1.8)])
