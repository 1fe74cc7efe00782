"""Command line driver: JSON config in, certificates and CSV profiles out.

Exit codes carry the verdict so runs can be scripted:

    0   every certificate the command requested passed
    1   a certificate failed (including positivity loss and failed
        nonlinearity assumptions)
    2   the config did not validate (schema, types, parameter ranges)
    3   a solve or search did not converge within its budget, or met a
        singular or non-finite Newton system

Every command writes <command>.json and prints the same text on stdout; its
`warnings` lists each warning the command fired, in firing order (sweep
tags each with its row's lambda).  A refused run prints an error object
with the warnings fired before the failure; exit codes 2 and 3 print the
error and those warnings on stderr instead.

Outputs are deterministic byte-for-byte for a fixed config: JSON is written
sorted with two-space indent, CSV numbers with repr-faithful %.17g, rows in
a fixed order (sweeps ascend in lambda).  No step is random: the config's
`seed` and the --seed flag are accepted and checked for backward
compatibility, and seed nothing.

Each command imports only the modules it runs: `window` loads no numpy
and only errors, records and parameter_window, `barrier` no solver or
radial module, and the solver commands no barrier one.  `window` checks h
above theta1, exactly over the curve's monotone pieces, and h(theta);
only the stage commands build the bridge h below theta1, once.  The inner
pair alone derives Theta_lambda, sampled, once per load (sweep: per row).

Each reaction assumption is checked once, where its inputs meet, so every
command refuses a config the same way: the reaction record (f0) and (f1)
(exit 1) and an overflowing e^k (exit 2), the window (f3) (exit 2), and
(f4) at the load (exit 1), once per load: by radial, and by
construct_pairs for pairs, solve and each sweep row.

A `pqsing` process (`python -m pqsing` or the installed script) runs
process_main: it flushes stdout and stderr after the command and ends
without the interpreter's teardown.  main() and run() return their exit
code in process, for tests and library callers.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from .errors import (
    BridgeNotMonotone,
    ConfigurationError,
    ConvergenceFailure,
    EmptyThetaRange,
    FailedAssumptions,
    PositivityLoss,
    SearchExhausted,
)
from .parameter_window import compute_window
from .records import _KINDS, NonlinearitySpec, Params

if TYPE_CHECKING:
    from . import discrete_solver as ds
    from .grid import GridFunction
    from .nonlinearity import DerivedReactions

__all__ = ["main", "process_main", "run"]

# the handlers call the stages as _self.<name>, so the lookup sees this
# module's globals at call time (and a wrapper bound there)
_self = sys.modules[__name__]
_STAGES = {"nonlinearity": ("build_h", "validate"),  # home module -> stage functions
           "radial_solver": ("solve_radial", "certify_radial_claim"),
           "barrier": ("solve_barrier", "conservation_residual", "certify_smallest_exponent",
                       "minimal_M", "certify_barrier_supersolution")}
_HOME = {name: module for module, names in _STAGES.items() for name in names}


def __getattr__(name):
    """Import a stage function on its first lookup, so a command loads only
    the modules it runs.  The name is bound with setdefault: a binding
    already in place is never overwritten."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = __import__(f"{__package__}.{_HOME[name]}", fromlist=[name])
    return globals().setdefault(name, getattr(home, name))


_SCHEMA = "v1"

_SECTIONS = {
    "schema": None,
    "params": {"p", "q", "gamma", "dim", "radius", "lambda"},
    "nonlinearity": {"kind", "theta1", "theta2", "khat", "k", "table_t", "table_f"},
    "grid": {"n"},
    "window": {"chi", "kappa", "theta"},
    "barrier": {"tau", "n", "p", "nu"},
    "tolerances": {"certify"},
    "output": {"dir"},
    "sweep": {"count"},
    "seed": None,
}


def _fail(msg: str):
    raise ConfigurationError(msg)


def _number(cfg: dict, section: str, key: str, default=None, required=False,
            integer=False, allow_null=False):
    if key not in cfg:
        if required:
            _fail(f"{section}.{key} is required")
        return default
    v = cfg[key]
    if v is None:
        if allow_null:
            return None
        _fail(f"{section}.{key} must not be null")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{section}.{key} must be a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:  # inf, nan, or an integer past the float range
        _fail(f"{section}.{key} must be finite, got {v!r}")
    if integer and int(v) != v:
        _fail(f"{section}.{key} must be an integer, got {v!r}")
    return int(v) if integer else float(v)


def _check_keys(section: str, obj, allowed):
    if not isinstance(obj, dict):
        _fail(f"section {section!r} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        _fail(f"unknown key(s) in {section}: {', '.join(sorted(unknown))}")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        _fail("top-level config must be an object")
    unknown = set(cfg) - set(_SECTIONS)
    if unknown:
        _fail(f"unknown top-level key(s): {', '.join(sorted(unknown))}")
    if cfg.get("schema") != _SCHEMA:
        _fail(f"schema must be {_SCHEMA!r}, got {cfg.get('schema')!r}")
    for name, allowed in _SECTIONS.items():
        if allowed is not None and name in cfg:
            _check_keys(name, cfg[name], allowed)
    if "params" not in cfg or "nonlinearity" not in cfg:
        _fail("config needs 'params' and 'nonlinearity' sections")
    return cfg


def _build_spec(cfg: dict) -> NonlinearitySpec:
    nl = cfg["nonlinearity"]
    kind = nl.get("kind")
    if kind not in _KINDS:
        _fail(f"nonlinearity.kind must be one of {'/'.join(_KINDS)}, got {kind!r}")
    kw = dict(
        kind=kind,
        theta1=_number(nl, "nonlinearity", "theta1", required=True),
        theta2=_number(nl, "nonlinearity", "theta2", required=True),
        khat=_number(nl, "nonlinearity", "khat", default=0.0),
    )
    if kind == "exp_saturating":
        kw["k"] = _number(nl, "nonlinearity", "k", required=True)
    else:
        for key in ("table_t", "table_f"):
            col = nl.get(key)
            if not isinstance(col, list) or not col or any(
                    isinstance(x, bool) or not isinstance(x, (int, float)) for x in col):
                _fail(f"nonlinearity.{key} must be a non-empty list of numbers")
        kw["table_t"] = tuple(float(x) for x in nl["table_t"])
        kw["table_f"] = tuple(float(x) for x in nl["table_f"])
    try:
        return NonlinearitySpec(**kw)
    except ValueError as exc:
        _fail(str(exc))


@dataclasses.dataclass
class _Env:
    """Everything a command needs, resolved from one config; the load's
    Params and reaction live in reactions alone."""

    window: object
    reactions: DerivedReactions | None  # at the command's load; None for window
    n: int
    outdir: Path
    tol_certify: float | None
    barrier_tau: float
    barrier_n: int
    barrier_p: float
    barrier_nu: float | None
    sweep_count: int
    fired: list = dataclasses.field(default_factory=list)  # the run's recorded warnings

    @property
    def spec(self) -> NonlinearitySpec:
        return self.reactions.spec

    @property
    def params(self) -> Params:
        return self.reactions.params

    @property
    def lam(self) -> float:
        return self.params.lam


def _at_load(env: _Env, lam: float) -> _Env:
    """env with the reactions moved to load lam (h itself does not depend on
    the load, so a command builds it once)."""
    return dataclasses.replace(env, reactions=env.reactions.at_load(lam))


def _build_env(cfg: dict, out=None, nodes=None, lam_flag=None, seed=None,
               command: str = "solve") -> _Env:
    """The command's environment.  window builds no reactions; every other
    command builds them once, at its load, which for sweep is its first
    row's, lambda_*."""
    pc = cfg["params"]
    p = _number(pc, "params", "p", required=True)
    q = _number(pc, "params", "q", required=True)
    gamma = _number(pc, "params", "gamma", required=True)
    dim = _number(pc, "params", "dim", required=True, integer=True)
    radius = _number(pc, "params", "radius", required=True)
    lam_cfg = _number(pc, "params", "lambda", default=None, allow_null=True)

    spec = _build_spec(cfg)
    grid_cfg = cfg.get("grid", {})
    n = nodes if nodes is not None else _number(grid_cfg, "grid", "n",
                                                default=2048, integer=True)
    if n < 8:
        _fail(f"grid.n must be at least 8, got {n}")

    tol = cfg.get("tolerances", {})
    tol_certify = _number(tol, "tolerances", "certify", default=None, allow_null=True)

    bc = cfg.get("barrier", {})
    barrier_tau = _number(bc, "barrier", "tau", default=1.0)
    barrier_n = _number(bc, "barrier", "n", default=10_000, integer=True)
    barrier_p = _number(bc, "barrier", "p", default=p)
    barrier_nu = _number(bc, "barrier", "nu", default=None, allow_null=True)
    sweep_count = _number(cfg.get("sweep", {}), "sweep", "count", default=9, integer=True)
    if sweep_count < 2:
        _fail(f"sweep.count must be at least 2, got {sweep_count}")

    try:
        params0 = Params(p=p, q=q, gamma=gamma, dim=dim, radius=radius, lam=0.0)
    except ValueError as exc:
        _fail(str(exc))
    wc = cfg.get("window", {})
    chi = _number(wc, "window", "chi", default=1.01)
    kappa = _number(wc, "window", "kappa", default=1.01)
    theta = _number(wc, "window", "theta", default=None, allow_null=True)
    window = compute_window(spec, params0, chi=chi, kappa=kappa, theta=theta)

    if lam_flag is not None:
        lam = float(lam_flag)
    elif lam_cfg is not None:
        lam = lam_cfg
    else:
        lam = window.midpoint
    if not 0.0 <= lam < math.inf:
        _fail(f"lambda must be finite and nonnegative, got {lam}")

    outdir = Path(out if out is not None else cfg.get("output", {}).get("dir", "."))
    # seed and --seed seed nothing (no step is random); they stay valid input
    seed_val = seed if seed is not None else cfg.get("seed", 0)
    if isinstance(seed_val, bool) or not isinstance(seed_val, int):
        _fail(f"seed must be an integer, got {seed_val!r}")

    if command == "sweep":
        lam = window.lambda_star
    reactions = (None if command == "window" else
                 _self.build_h(spec, dataclasses.replace(params0, lam=lam)))
    return _Env(window=window, reactions=reactions, n=int(n), outdir=outdir,
                tol_certify=tol_certify, barrier_tau=barrier_tau, barrier_n=barrier_n,
                barrier_p=barrier_p, barrier_nu=barrier_nu, sweep_count=sweep_count)


# ---------------------------------------------------------------------------
# deterministic writers / readers
# ---------------------------------------------------------------------------

def _write_csv_rows(path: Path, names, rows: str, values) -> None:
    """A header line of names, then `rows`, a template of CSV rows with one
    %.17g slot per entry of values, filled by one format call."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n" + rows % tuple(values))


def _write_csv(path: Path, names, columns) -> None:
    """A header line of names, then one row of repr-faithful %.17g numbers
    per entry of the columns."""
    import numpy as np

    values = np.asarray(np.column_stack(columns), dtype=float).ravel().tolist()
    row = ",".join(["%.17g"] * len(names)) + "\n"
    _write_csv_rows(path, names, row * (len(values) // len(names)), values)


def _read_grid_function(path: str) -> GridFunction:
    import numpy as np

    from .grid import GridFunction

    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            if not header:
                _fail(f"{path} is empty")
            rows = [line.split(",") for line in fh if line.strip()]
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    try:
        nodes = np.array([float(r[0]) for r in rows])
        values = np.array([float(r[1]) for r in rows])
    except (ValueError, IndexError):
        _fail(f"{path} must contain at least two numeric columns")
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(values))):
        _fail(f"{path} holds a non-finite node or value")
    if nodes.size < 4:
        _fail(f"{path} holds fewer than 4 rows")
    return GridFunction(nodes, values)


def _dumps(result: dict) -> str:
    return json.dumps(result, sort_keys=True, indent=2) + "\n"


@contextlib.contextmanager
def _recorded_warnings(fired: list):
    """Catch every warning, in firing order and in every run, none on stderr.

    Yields a list that holds one {category, message} record per warning
    once the block ends.  `fired` gets the same records even when the
    block raises, so that a failed run still reports them.
    """
    records: list = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield records
        finally:
            records.extend({"category": w.category.__name__, "message": str(w.message)}
                           for w in caught)
            fired.extend(records)


# ---------------------------------------------------------------------------
# commands: each computes its numbers, writes its CSVs, and returns
# (report, exit code); run writes the report
# ---------------------------------------------------------------------------

def _cmd_window(env: _Env):
    return env.window.as_dict(), 0 if env.window.nonempty else 1


def _radial(env: _Env):
    """The load's one grid, and the comparison profile on it with its claim."""
    from . import discrete_solver as ds

    op = ds.DiscreteOperator.from_params(env.params, env.n)
    profile = _self.solve_radial(env.reactions, env.window, op.grid)
    cert = _self.certify_radial_claim(profile, env.params, env.window)
    return op, profile, cert


def _cmd_radial(env: _Env):
    # (f4) at the load, as construct_pairs checks it for pairs, solve and sweep
    if not _self.validate(env.reactions).passed:
        raise FailedAssumptions("nonlinearity assumptions (f0)-(f4) failed validation: f4")
    _op, profile, cert = _radial(env)
    _write_csv(env.outdir / "radial.csv",
               ("r", "phi", "phi_prime", "v", "v_prime"),
               (profile.phi.nodes, profile.phi.values, profile.phi_prime.values,
                profile.v.values, profile.v_prime.values))
    report = {
        "lambda": env.lam,
        "n": env.n,
        "sup_phi": profile.phi.sup_norm(),
        "certificate": cert.summary(),
    }
    return report, 0 if cert.passed else 1


def _cmd_barrier(env: _Env):
    tau = env.barrier_tau
    # a blow-down truncation warning is expected
    profile = _self.solve_barrier(tau, env.params.q, env.params.gamma,
                                  r_max=env.params.radius, n=env.barrier_n)
    audit = _self.conservation_residual(profile)
    exp_cert = _self.certify_smallest_exponent(profile, env.barrier_p)
    M = _self.minimal_M(env.lam, env.params.q, env.params.gamma)
    sup_cert = _self.certify_barrier_supersolution(profile, env.params, M, nu=env.barrier_nu)
    _write_csv(env.outdir / "barrier.csv", ("s", "xi", "xi_prime"),
               (profile.xi.nodes, profile.xi.values, profile.xi_prime.values))
    report = {
        "tau": tau,
        "R_tau": profile.R_tau,
        "conservation_residual": float(audit),
        "smallest_exponent": exp_cert.summary(),
        "supersolution": sup_cert.summary(),
        "M_lambda": float(M),
    }
    return report, 0 if (exp_cert.passed and sup_cert.passed) else 1


def _pairs(env: _Env):
    from . import discrete_solver as ds

    op, profile, rcert = _radial(env)
    pairs = ds.construct_pairs(env.reactions, profile, op)
    return op, profile, rcert, pairs


def _pairs_report(env: _Env, rcert, pairs) -> dict:
    return {
        "lambda": env.lam,
        "n": env.n,
        "radial_claim": rcert.summary(),
        "first_margins": {k: float(v) for k, v in pairs.first_margins.items()},
        "second_margins": {k: float(v) for k, v in pairs.second_margins.items()},
        "certificates": {k: c.summary() for k, c in pairs.certificates.items()},
        "all_passed": bool(pairs.all_passed and rcert.passed),
    }


def _cmd_pairs(env: _Env):
    _op, _profile, rcert, pairs = _pairs(env)
    _write_csv(env.outdir / "pairs.csv", ("r", "u0", "v0", "v_up", "u_up"),
               (pairs.u0.nodes, pairs.u0.values, pairs.v0.values,
                pairs.v_up.values, pairs.u_up.values))
    report = _pairs_report(env, rcert, pairs)
    return report, 0 if report["all_passed"] else 1


def _leg_report(env: _Env, op: ds.DiscreteOperator, leg: ds.IterationTrace) -> dict:
    """The leg limit's solution record, with the leg's checked map step."""
    from . import discrete_solver as ds

    return {**ds._solution_record(env.reactions, op, leg.limit, leg.newton_steps,
                                  leg.scaled_residual),
            "converged": leg.converged, "monotone": bool(all(leg.monotone)), "khat": leg.khat}


def _cmd_solve(env: _Env):
    import numpy as np

    from . import discrete_solver as ds

    op, _profile, rcert, pairs = _pairs(env)
    report = _pairs_report(env, rcert, pairs)
    if not report["all_passed"]:
        return report, 1
    # the two theorem intervals: u1 is minimal in [u0, v_up], u2 maximal in
    # [v0, u_up]
    lo = ds.amann_iterate(env.reactions, op, pairs.u0, pairs.v_up, "from_lower")
    up = ds.amann_iterate(env.reactions, op, pairs.v0, pairs.u_up, "from_upper")
    third, u3 = ds.search_third_solution(env.reactions, lo.limit, up.limit, pairs, op)
    # the three solutions share the grid, so its column is formatted once
    rows = "".join(map("%.17g,%%.17g\n".__mod__, lo.limit.nodes.tolist()))
    for name, u in (("lower", lo.limit), ("upper", up.limit), ("middle", u3)):
        if u is not None:
            _write_csv_rows(env.outdir / f"solution_{name}.csv", ("r", "u"), rows,
                            u.values.tolist())
    gap = float(np.max(np.abs(up.limit.values - lo.limit.values)))
    distinct = bool(gap >= 0.1 * env.spec.theta1)
    intervals = {
        "order_u0_u1": ds.certify(env.reactions, pairs.u0, "ordering", other=lo.limit),
        "order_u1_vup": ds.certify(env.reactions, lo.limit, "ordering", other=pairs.v_up),
        "order_v0_u2": ds.certify(env.reactions, pairs.v0, "ordering", other=up.limit),
        "order_u2_uup": ds.certify(env.reactions, up.limit, "ordering", other=pairs.u_up),
    }
    report["certificates"].update({k: c.summary() for k, c in intervals.items()})
    report.update({
        "all_passed": report["all_passed"] and all(c.passed for c in intervals.values()),
        "from_lower": _leg_report(env, op, lo),
        "from_upper": _leg_report(env, op, up),
        "gap": gap,
        "distinctness": distinct,
        "third_solution": third,
    })
    return report, 0 if distinct and report["all_passed"] else 1


def _cmd_certify(env: _Env, input_path, kind, other_path, tol):
    from . import discrete_solver as ds

    if input_path is None:
        _fail("certify needs --input")
    if kind is None:
        _fail("certify needs --kind")
    if tol is not None and not math.isfinite(tol):
        _fail(f"--tol must be finite, got {tol}")
    u = _read_grid_function(input_path)
    other = _read_grid_function(other_path) if other_path else None
    use_tol = tol if tol is not None else env.tol_certify
    try:
        cert = ds.certify(env.reactions, u, kind, other=other, tol=use_tol)
        summary, code = cert.summary(), 0 if cert.passed else 1
    except PositivityLoss as exc:
        summary = {"kind": kind, "passed": False, "positivity_loss": str(exc)}
        code = 1
    return {"input": str(input_path), "lambda": env.lam, "certificate": summary}, code


def _cmd_sweep(env: _Env):
    import numpy as np

    count = env.sweep_count
    lams = np.linspace(env.window.lambda_star, env.window.lambda_upper, count)
    names = ("lambda", "all_passed", "v_up_level", "alpha_star", "chi_low",
             "chi_high", "eps_low", "eps_high", "sup_u1_pair_gap", "eta", "radial_min")
    rows = []
    fired = []
    ok = True
    for lam in lams:  # ascending, sequential: row order is part of the contract
        with _recorded_warnings(env.fired) as at_lam:
            _op, _profile, rcert, pairs = _pairs(_at_load(env, float(lam)))
        fired.extend({"lambda": float(lam), **w} for w in at_lam)
        passed = bool(pairs.all_passed and rcert.passed)
        ok = ok and passed
        first, second = pairs.first_margins, pairs.second_margins
        rows.append((
            float(lam), float(passed),
            second["v_up_level"], first["alpha_star"], first["chi_low"], first["chi_high"],
            second["eps_low"], pairs.certificates["super_v_up"].min_margin,
            float(np.max(pairs.u_up.values - pairs.u0.values)), first["eta"], rcert.min_margin,
        ))
    _write_csv(env.outdir / "sweep.csv", names, tuple(zip(*rows)))
    report = {"count": int(count), "lambda_star": env.window.lambda_star,
              "lambda_upper": env.window.lambda_upper, "all_passed": bool(ok),
              "warnings": fired}  # each record tagged with its row's lambda
    return report, 0 if ok else 1


_COMMANDS = {"window": _cmd_window, "radial": _cmd_radial, "barrier": _cmd_barrier,
             "pairs": _cmd_pairs, "solve": _cmd_solve, "certify": _cmd_certify,
             "sweep": _cmd_sweep}


def run(command: str, config_path: str, out=None, nodes=None, lam=None,
        seed=None, input_path=None, kind=None, other=None, tol=None) -> int:
    """Execute one command against a config; returns the process exit code.

    The command's report, with the warnings that building its environment
    and running it fired, is written to <command>.json and printed as the
    same text.
    """
    fired: list = []  # every warning the run records, in firing order
    try:
        if command not in _COMMANDS:
            _fail(f"unknown command {command!r}")
        cfg = _load_config(config_path)
        args = (input_path, kind, other, tol) if command == "certify" else ()
        with _recorded_warnings(fired) as built:
            env = _build_env(cfg, out=out, nodes=nodes, lam_flag=lam, seed=seed,
                             command=command)
        env.fired = fired  # sweep records each row's warnings there too
        env.outdir.mkdir(parents=True, exist_ok=True)
        with _recorded_warnings(fired) as ran:
            report, code = _COMMANDS[command](env, *args)
        report.setdefault("warnings", built + ran)
        text = _dumps(report)
        (env.outdir / f"{command}.json").write_text(text, encoding="utf-8")
        sys.stdout.write(text)
        return code
    except EmptyThetaRange as exc:
        return _refused(fired, exc, "empty_window")
    except PositivityLoss as exc:
        return _refused(fired, exc, "positivity_loss")
    except FailedAssumptions as exc:
        return _refused(fired, exc, "failed_assumptions")
    except (ValueError, BridgeNotMonotone) as exc:  # ConfigurationError among them
        return _failed(fired, f"config error: {exc}", 2)
    except (ConvergenceFailure, SearchExhausted) as exc:
        return _failed(fired, f"did not converge: {exc}", 3)


def _refused(fired: list, exc: Exception, kind: str) -> int:
    """Exit 1 with an error object on stdout, listing the warnings recorded
    before the failure."""
    sys.stdout.write(_dumps({"error": str(exc), "kind": kind, "warnings": fired}))
    return 1


def _failed(fired: list, message: str, code: int) -> int:
    """Exit `code` with the error line on stderr, then one line per warning
    recorded before the failure."""
    sys.stderr.write(message + "\n")
    for w in fired:
        sys.stderr.write(f"warning: {w['category']}: {w['message']}\n")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pqsing",
        description="Certificates and profiles for the singular (p,q) multiplicity setup.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cp = sub.add_parser(name)
        cp.add_argument("--config", required=True, help="path to a v1 JSON config")
        cp.add_argument("--out", default=None, help="output directory")
        cp.add_argument("--nodes", type=int, default=None, help="override grid.n")
        cp.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="override the load (default: config, else window midpoint)")
        cp.add_argument("--seed", type=int, default=None,
                        help="accepted for compatibility; no step is random, so it has no effect")
        if name == "certify":
            cp.add_argument("--input", required=True, help="CSV with columns r,value")
            cp.add_argument("--kind", required=True,
                            choices=("subsolution", "supersolution",
                                     "ordering", "nonordering"))
            cp.add_argument("--other", default=None,
                            help="second CSV for ordering/nonordering")
            cp.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    return run(args.command, args.config, out=args.out, nodes=args.nodes,
               lam=args.lam, seed=args.seed,
               input_path=getattr(args, "input", None),
               kind=getattr(args, "kind", None),
               other=getattr(args, "other", None),
               tol=getattr(args, "tol", None))


def process_main() -> NoReturn:
    """Run main() as a `pqsing` process: flush stdout and stderr, then end
    by os._exit with main's code.  Every file a command writes is closed by
    then, so the interpreter's teardown (finalizing numpy and the package's
    modules) would only spend time.  If a flush fails, sys.exit lets the
    interpreter report it as usual."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    process_main()
