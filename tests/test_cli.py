"""Driver-level tests: configs in, exit codes and deterministic artifacts out.

Everything runs in-process through pqsing.cli.run / main so coverage tools
see it and failures carry tracebacks instead of subprocess noise.
"""
import json
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from pqsing import GridFunction, cli, compute_window, nonlinearity
from pqsing import discrete_solver as ds
from pqsing.cli import main, run
from pqsing.errors import BridgeNotMonotone
from test_parameter_window import _random_config

ROOT = Path(__file__).resolve().parent.parent
SMALL = ROOT / "scripts" / "cfg_small.json"
REFERENCE = ROOT / "scripts" / "cfg_reference.json"


def small_cfg(**sections):
    cfg = json.loads(SMALL.read_text())
    for name, val in sections.items():
        if isinstance(val, dict) and isinstance(cfg.get(name), dict):
            cfg[name] = {**cfg[name], **val}
        else:
            cfg[name] = val
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


# ---------------------------------------------------------------- config guard

def test_window_via_main(tmp_path, capsys):
    code = main(["window", "--config", str(SMALL), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "window.json").read_text())
    assert report["nonempty"] is True
    assert 0.0 < report["lambda_star"] < report["lambda_upper"]
    assert report["midpoint"] == pytest.approx(
        0.5 * (report["lambda_star"] + report["lambda_upper"]))
    # the same report goes to stdout
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_command_writes_its_stdout_with_warnings(command, tmp_path, capsys):
    # one contract for every command: <command>.json holds exactly the text
    # printed on stdout, and the report lists the warnings the command fired
    extra = {}
    if command == "certify":
        assert run("pairs", str(SMALL), out=str(tmp_path), nodes=64) == 0
        capsys.readouterr()
        extra = dict(input_path=str(tmp_path / "pairs.csv"), kind="subsolution")
    assert run(command, str(SMALL), out=str(tmp_path), nodes=64, **extra) == 0
    out = capsys.readouterr().out
    assert (tmp_path / f"{command}.json").read_text() == out
    assert isinstance(json.loads(out)["warnings"], list)


@pytest.mark.parametrize("mangle", [
    {"schema": "v2"},                                   # wrong schema tag
    {"extra_section": {}},                              # unknown top level key
    {"params": {"p": True}},                            # bool is not a number
    {"params": {"smoothness": 3.0}},                    # unknown param key
    {"params": {"dim": 2.5}},                           # non-integer dimension
    {"grid": {"n": 4}},                                 # grid too coarse
    {"seed": 1.5},                                      # fractional seed
    {"nonlinearity": {"kind": "mystery"}},              # unsupported family
    {"window": {"chi": None}},                          # null where number due
    {"tolerances": {"solver": 1e-12}},                  # removed keys
    {"tolerances": {"conv_factor": 1e-8}},
    {"tolerances": {"budget": 200}},
    # sections `window` does not use are checked all the same
    {"sweep": {"count": "x"}, "barrier": {"n": 2.5}},   # wrong types
    {"sweep": {"count": 1}},                            # a sweep needs two loads
    {"grid": {"n": float("inf")}},                      # non-finite numbers, written
    {"tolerances": {"certify": float("inf")}},          # as JSON Infinity
    {"params": {"lambda": float("inf")}},
    {"grid": {"n": 10 ** 400}},                         # an integer past the float range
    {"nonlinearity": {"kind": "table", "table_t": [0, 1, float("nan")],
                      "table_f": [1, 2, 3]}},           # non-finite table entries
    {"nonlinearity": {"kind": "table", "table_t": [0, 1, 2],
                      "table_f": [1, 2, float("inf")]}},
])
def test_config_rejections_exit_2(tmp_path, mangle, capsys):
    path = write_cfg(tmp_path, small_cfg(**mangle))
    assert run("window", path, out=str(tmp_path)) == 2
    capsys.readouterr()


def test_removed_tolerances_name_themselves(tmp_path, capsys):
    # a config that still sets the legs' former map budget or increment
    # factor is refused with the keys named, not run with them ignored
    path = write_cfg(tmp_path, small_cfg(tolerances={"budget": 200, "conv_factor": 1e-8}))
    assert run("solve", path, out=str(tmp_path)) == 2
    assert capsys.readouterr().err == (
        "config error: unknown key(s) in tolerances: budget, conv_factor\n")


def test_missing_or_broken_file_exit_2(tmp_path, capsys):
    assert run("window", str(tmp_path / "nope.json"), out=str(tmp_path)) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert run("window", str(bad), out=str(tmp_path)) == 2
    bad.write_text("{not json")
    assert run("window", str(bad), out=str(tmp_path)) == 2
    capsys.readouterr()


def test_missing_sections_exit_2(tmp_path, capsys):
    cfg = small_cfg()
    del cfg["nonlinearity"]
    assert run("window", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 2
    capsys.readouterr()


def test_unknown_command_exit_2(tmp_path, capsys):
    assert run("frobnicate", str(SMALL), out=str(tmp_path)) == 2
    capsys.readouterr()


def test_negative_lambda_flag_exit_2(tmp_path, capsys):
    assert run("window", str(SMALL), out=str(tmp_path), lam=-0.1) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags, message", [
    (["pairs", "--lambda", "inf"], "lambda must be finite and nonnegative, got inf"),
    (["window", "--lambda", "nan"], "lambda must be finite and nonnegative, got nan"),
    (["certify", "--input", "x.csv", "--kind", "subsolution", "--tol", "inf"],
     "--tol must be finite, got inf"),
], ids=["lambda-inf", "lambda-nan", "tol-inf"])
def test_non_finite_flags_exit_2(tmp_path, capsys, flags, message):
    # refused before any stage runs: no solve, and no numpy warning on stderr
    assert main([*flags, "--config", str(SMALL), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_empty_window_exit_1(tmp_path, capsys):
    # theta1 above the capped ceiling leaves no admissible theta at all
    cfg = small_cfg(nonlinearity={"theta1": 880.0})
    code = run("window", write_cfg(tmp_path, cfg), out=str(tmp_path))
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "empty_window"


def test_bad_theta_override_exit_2(tmp_path, capsys):
    cfg = small_cfg(window={"theta": 880.0})   # beyond min(theta2, F(theta2))
    assert run("window", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 2
    capsys.readouterr()


@pytest.mark.parametrize("nonlinearity, message", [
    ({"kind": "table", "table_t": [0, 1, 2], "table_f": [3, 3, 3]},
     "truncated reaction decreases by 1.450e+00 on [theta1, theta2]; "
     "thresholds are inadmissible"),
    ({"k": 3000.0, "theta2": 1e5},
     "exp_saturating needs k <= 709.782712893384: sup f = e^k overflows at k = 3000.0"),
    ({"kind": "table", "table_t": [0, 1, float("nan")], "table_f": [1, 2, 3]},
     "table_t must hold finite numbers, got (0.0, 1.0, nan)"),
    ({"kind": "table", "table_t": [0, 1, 2], "table_f": [1, 2, float("inf")]},
     "table_f must hold finite numbers, got (1.0, 2.0, inf)"),
], ids=["flat-table", "h-theta-overflows", "nan-table-t", "inf-table-f"])
def test_window_refuses_a_bad_reaction_with_exit_2(tmp_path, capsys, nonlinearity, message):
    # refused by the window's own checks: no report, no window.json, and no
    # numpy warning on stderr
    path = write_cfg(tmp_path, small_cfg(nonlinearity=nonlinearity))
    assert run("window", path, out=str(tmp_path / "out")) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("params, nonlinearity, code, stderr", [
    ({"p": 1.0001, "q": 2.0, "dim": 1}, {"theta2": 100.0}, 0, ""),
    ({"p": 59.0, "q": 60.0, "dim": 1}, {"k": 700.0, "theta1": 1e4, "theta2": 5e5}, 2,
     "config error: lambda^* = inf is not finite\n"),
], ids=["F-power-overflows", "lambda-upper-overflows"])
def test_window_does_not_overflow(tmp_path, capsys, params, nonlinearity, code, stderr):
    # both raised an uncaught OverflowError: F(theta2) at p near 1, whose
    # y^{(q-p)/(p-1)} is not needed at y >= 1, and a lambda^* beyond float64,
    # which is refused by name
    path = write_cfg(tmp_path, small_cfg(params=params, nonlinearity=nonlinearity))
    assert run("window", path, out=str(tmp_path / "out")) == code
    out, err = capsys.readouterr()
    assert err == stderr
    if code == 0:
        assert json.loads(out)["F_theta2"] == 25.0


def test_window_leaves_the_stage_inputs_to_the_stages(tmp_path, capsys, monkeypatch):
    # cfg_small without its khat fails (f4), which reads fhat at the load.
    # window builds neither h nor fhat: it exits 0 and fires no warning.
    # pairs builds both at its load and refuses the reaction
    cfg = small_cfg()
    del cfg["nonlinearity"]["khat"]
    path = write_cfg(tmp_path, cfg)
    monkeypatch.setattr(cli, "build_h", None)  # window must not call it
    assert run("window", path, out=str(tmp_path)) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["warnings"] == []
    monkeypatch.undo()
    assert run("pairs", path, out=str(tmp_path)) == 1
    assert json.loads(capsys.readouterr().out)["error"].endswith("failed validation: f4")


_F0 = "f(0) = table_f[0] = 0.0 is not positive: "
_F1 = "table_f decreases by 0.5: "
_OVERFLOW = "exp_saturating needs k <= 709.782712893384: sup f = e^k overflows at k = 800.0"


@pytest.mark.parametrize("nonlinearity, codes, message", [
    ({"kind": "table", "table_t": [0, 1, 100], "table_f": [0, 2, 200]}, (1, 1, 1),
     _F0 + "nonlinearity assumptions (f0)-(f4) failed validation: f0"),
    ({"kind": "table", "table_t": [0, 0.5, 1, 100], "table_f": [1, 0.5, 2, 300]}, (1, 1, 1),
     _F1 + "nonlinearity assumptions (f0)-(f4) failed validation: f1"),
    ({"kind": "exp_saturating", "k": 800.0, "theta2": 5000.0}, (2, 2, 2), _OVERFLOW),
    ({"kind": "power", "m": 0.5}, (2, 2, 2), "unknown key(s) in nonlinearity: m"),
    ({"kind": "power"}, (2, 2, 2),
     "nonlinearity.kind must be one of exp_saturating/table, got 'power'"),
    (None, (0, 1, 1), "nonlinearity assumptions (f0)-(f4) failed validation: f4"),
], ids=["f0-table", "decreasing-table", "exp-overflows", "power", "power-without-m",
        "no-khat"])
def test_each_assumption_is_refused_alike_by_every_command(tmp_path, capsys, nonlinearity,
                                                           codes, message):
    # each reaction assumption is checked once, where its inputs meet, so
    # window, radial and pairs refuse a config with one code and one error:
    # (f0)/(f1) by the reaction record, an overflowing e^k as a config error,
    # and (f4), which needs the load, by every command that builds the profile
    cfg = small_cfg(grid={"n": 64})
    if nonlinearity is None:
        del cfg["nonlinearity"]["khat"]
    else:
        cfg["nonlinearity"] = {"theta1": 1.0, "theta2": 50.0, **nonlinearity}
    path = write_cfg(tmp_path, cfg)
    for command, code in zip(("window", "radial", "pairs"), codes):
        assert run(command, path, out=str(tmp_path / command)) == code, command
        out, err = capsys.readouterr()
        if code == 2:
            assert (out, err) == ("", f"config error: {message}\n"), command
        elif code == 1:
            assert err == "" and json.loads(out) == {
                "error": message, "kind": "failed_assumptions", "warnings": []}, command
        else:
            assert json.loads(out)["nonempty"]


def test_window_refuses_what_f3_refuses(tmp_path, capsys):
    # t- = 0.530 > theta1 = 0.0602: f/t^gamma falls on [theta1, t-], so (f3)
    # fails; the window, (f3)'s one home, reads the curve's monotone pieces
    # and refuses the config before any stage runs
    params = {"p": 1.663, "q": 1.935, "gamma": 0.512, "dim": 2, "radius": 1.438}
    cfg = {"schema": "v1", "params": params, "grid": {"n": 64},
           "nonlinearity": {"kind": "exp_saturating", "k": 30.19, "theta1": 0.0602,
                            "theta2": 79.81}}
    path = write_cfg(tmp_path, cfg)
    for command in ("window", "pairs"):
        assert run(command, path, out=str(tmp_path)) == 2
        assert capsys.readouterr() == ("", "config error: truncated reaction decreases by "
                                       "1.073e+00 on [theta1, theta2]; thresholds are "
                                       "inadmissible\n")


def test_warnings_of_the_build_are_recorded(tmp_path, capsys, monkeypatch):
    # a warning fired while the environment is built is listed like one the
    # command fires, and goes first
    build_h = cli.build_h

    def noisy(*args):
        warnings.warn("from the build", RuntimeWarning)
        return build_h(*args)

    monkeypatch.setattr(cli, "build_h", noisy)
    assert run("pairs", str(SMALL), out=str(tmp_path), nodes=64, lam=0.29502) == 0
    out, err = capsys.readouterr()
    assert err == ""
    fired = json.loads(out)["warnings"]
    assert fired[0] == {"category": "RuntimeWarning", "message": "from the build"}
    assert [w["category"] for w in fired[1:]] == ["WindowViolation"]


# ---------------------------------------------------------------- commands

def test_radial_lambda_resolution(tmp_path, capsys):
    # flag beats config value beats window midpoint
    cfg = small_cfg(params={"lambda": 0.05})
    path = write_cfg(tmp_path, cfg)
    assert run("radial", path, out=str(tmp_path / "a")) == 0
    assert json.loads((tmp_path / "a" / "radial.json").read_text())["lambda"] == 0.05
    assert run("radial", path, out=str(tmp_path / "b"), lam=0.2) == 0
    assert json.loads((tmp_path / "b" / "radial.json").read_text())["lambda"] == 0.2
    assert run("radial", str(SMALL), out=str(tmp_path / "c")) == 0
    rep = json.loads((tmp_path / "c" / "radial.json").read_text())
    assert rep["lambda"] == pytest.approx(0.15825952111377303, rel=1e-12)
    header, data = read_csv(tmp_path / "c" / "radial.csv")
    assert header == ["r", "phi", "phi_prime", "v", "v_prime"]
    assert data.shape == (257, 5)
    assert data[0, 0] == 0.0 and data[-1, 0] == 1.0
    assert data[-1, 1] == 0.0                     # phi vanishes on the boundary
    capsys.readouterr()


def test_solve_small_all_green(tmp_path, capsys):
    code = run("solve", str(SMALL), out=str(tmp_path))
    assert code == 0
    rep = json.loads((tmp_path / "solve.json").read_text())
    assert rep["all_passed"] is True
    assert rep["from_lower"]["converged"] and rep["from_upper"]["converged"]
    assert rep["from_lower"]["monotone"] and rep["from_upper"]["monotone"]
    assert rep["distinctness"] is True
    assert rep["gap"] >= 0.1 * 1.0
    # descending leg needed a positive shift, ascending leg did not
    assert rep["from_upper"]["khat"] > 0.0
    assert rep["from_lower"]["khat"] == 0.0
    # each leg: one checked map step, then a Newton finish of a few steps
    for leg in ("from_lower", "from_upper"):
        assert rep[leg]["steps"] == 2 and 1 <= rep[leg]["newton_steps"] <= 6
    # u1 and u2 are certified in the theorem's intervals
    for name in ("order_u0_u1", "order_u1_vup", "order_v0_u2", "order_u2_uup"):
        assert rep["certificates"][name]["passed"] is True
    third = rep["third_solution"]
    assert set(third) == {"status", "u_at_0", "sup", "residual", "scaled_residual",
                          "newton_steps", "dist_to_u1", "dist_to_u2", "certificates",
                          "all_passed"}
    assert third["status"] == "converged" and third["all_passed"] is True
    assert set(third["certificates"]) == {"order_u0_u3", "order_u3_uup",
                                          "nonorder_u3_vup", "nonorder_v0_u3"}
    assert rep["warnings"] == []
    # the rounding-aware residual discounts flux-cancellation rounding, which
    # the plain one counts
    for leg in ("from_lower", "from_upper"):
        assert rep[leg]["scaled_residual"] <= 1e-12
        assert rep[leg]["scaled_residual"] <= rep[leg]["residual"] <= 1e-6
    for name in ("solution_lower.csv", "solution_upper.csv", "solution_middle.csv"):
        header, data = read_csv(tmp_path / name)
        assert header == ["r", "u"]
        assert data.shape == (257, 2)
        assert np.all(np.diff(data[:, 0]) > 0)
        assert data[-1, 1] == 0.0
    capsys.readouterr()


def test_write_csv_matches_per_value_format(tmp_path):
    # one row format over Python floats writes the same bytes as formatting
    # each value with "%.17g" % float(v), at the ends of the float range too
    rng = np.random.default_rng(3)
    big = np.finfo(float).max
    extremes = np.array([0.0, -0.0, 5e-324, -5e-324, np.finfo(float).tiny, big, -big,
                         1.0, -1.0, 0.1, 1.0 / 3.0])
    cols = (np.concatenate([extremes, rng.standard_normal(300)]),
            np.concatenate([extremes[::-1], 10.0 ** rng.uniform(-300, 300, 300)]),
            np.concatenate([extremes, rng.uniform(-1.0, 1.0, 300) * 1e17]))
    names = ("a", "b", "c")
    cli._write_csv(tmp_path / "got.csv", names, cols)
    want = ",".join(names) + "\n" + "".join(
        ",".join("%.17g" % float(v) for v in row) + "\n" for row in zip(*cols))
    assert (tmp_path / "got.csv").read_bytes() == want.encode()
    # columns given as tuples of floats (the sweep's rows) write the same
    cli._write_csv(tmp_path / "tuples.csv", names, tuple(tuple(c) for c in cols))
    assert (tmp_path / "tuples.csv").read_bytes() == want.encode()


def test_solution_csvs_match_per_value_format(tmp_path, capsys):
    # the three solution files share one row template of the grid's text:
    # each row is still "%.17g,%.17g" of that node and its value
    assert run("solve", str(SMALL), out=str(tmp_path), nodes=64) == 0
    capsys.readouterr()
    for name in ("lower", "upper", "middle"):
        text = (tmp_path / f"solution_{name}.csv").read_text()
        header, *rows = text.splitlines()
        assert header == "r,u" and len(rows) == 65 and text.endswith("\n")
        for row in rows:
            r, u = map(float, row.split(","))
            assert row == "%.17g,%.17g" % (r, u)


def test_solve_outputs_deterministic(tmp_path, capsys):
    run("solve", str(SMALL), out=str(tmp_path / "a"))
    run("solve", str(SMALL), out=str(tmp_path / "b"))
    for name in ("solve.json", "solution_lower.csv", "solution_upper.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes(), name
    capsys.readouterr()


def test_pairs_then_certify_roundtrip(tmp_path, capsys):
    assert run("pairs", str(SMALL), out=str(tmp_path)) == 0
    rep = json.loads((tmp_path / "pairs.json").read_text())
    assert rep["all_passed"] is True
    assert set(rep["certificates"]) >= {"sub_u0", "super_u_up", "order_u0_vup"}
    # pairs.csv leads with (r, u0); feeding it back certifies the subsolution
    code = run("certify", str(SMALL), out=str(tmp_path / "c"),
               input_path=str(tmp_path / "pairs.csv"), kind="subsolution")
    assert code == 0
    cert = json.loads((tmp_path / "c" / "certify.json").read_text())
    assert cert["certificate"]["passed"] is True
    assert cert["certificate"]["min_margin"] > 0.0
    capsys.readouterr()


def test_certify_zero_profile_exit_1(tmp_path, capsys):
    nodes = np.linspace(0.0, 1.0, 33)
    lines = ["r,u"] + ["%.17g,%.17g" % (r, 0.0) for r in nodes]
    path = tmp_path / "zeros.csv"
    path.write_text("\n".join(lines) + "\n")
    code = run("certify", str(SMALL), out=str(tmp_path),
               input_path=str(path), kind="subsolution")
    assert code == 1
    rep = json.loads((tmp_path / "certify.json").read_text())
    assert rep["certificate"]["passed"] is False
    assert "positivity_loss" in rep["certificate"]
    capsys.readouterr()


def test_certify_input_validation(tmp_path, capsys):
    assert run("certify", str(SMALL), out=str(tmp_path)) == 2   # no --input
    short = tmp_path / "short.csv"
    short.write_text("r,u\n0,1\n1,0\n")
    assert run("certify", str(SMALL), out=str(tmp_path),
               input_path=str(short), kind="subsolution") == 2
    onecol = tmp_path / "onecol.csv"
    onecol.write_text("r\n0\n0.5\n0.75\n1\n")
    assert run("certify", str(SMALL), out=str(tmp_path),
               input_path=str(onecol), kind="subsolution") == 2
    capsys.readouterr()
    # a non-finite value or node is refused by name, before any certificate
    # (an inf value made the default ordering tolerance inf, so it passed)
    good = tmp_path / "good.csv"
    good.write_text("r,u\n0,1\n0.25,0.75\n0.5,0.5\n0.75,0.25\n1,0\n")
    inf_value = tmp_path / "inf_value.csv"
    inf_value.write_text("r,u\n0,1\n0.25,inf\n0.5,0.5\n0.75,0.25\n1,0\n")
    nan_node = tmp_path / "nan_node.csv"
    nan_node.write_text("r,u\n0,1\nnan,0.75\n0.5,0.5\n0.75,0.25\n1,0\n")
    for bad, kind, u, other in ((inf_value, "ordering", inf_value, good),
                                (inf_value, "ordering", good, inf_value),
                                (nan_node, "subsolution", nan_node, None)):
        assert run("certify", str(SMALL), out=str(tmp_path), input_path=str(u), kind=kind,
                   other=other and str(other)) == 2
        assert capsys.readouterr().err == f"config error: {bad} holds a non-finite node or value\n"


def test_certify_nonordering_needs_a_common_grid(tmp_path, capsys):
    # as ordering does: u on [0, 1] against `other` on [0, 2], both 257 rows
    for name, R in (("u.csv", 1.0), ("other.csv", 2.0)):
        nodes = np.linspace(0.0, R, 257)
        lines = ["r,u"] + ["%.17g,%.17g" % (r, R - r) for r in nodes]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    for kind in ("ordering", "nonordering"):
        assert run("certify", str(SMALL), out=str(tmp_path), input_path=str(tmp_path / "u.csv"),
                   kind=kind, other=str(tmp_path / "other.csv")) == 2
        assert capsys.readouterr().err == f"config error: {kind} certificate needs a common grid\n"


def test_sweep_rows_ascend(tmp_path, capsys):
    cfg = small_cfg(sweep={"count": 3})
    code = run("sweep", write_cfg(tmp_path, cfg), out=str(tmp_path))
    assert code == 0
    header, data = read_csv(tmp_path / "sweep.csv")
    assert header[0] == "lambda" and header[1] == "all_passed"
    assert data.shape[0] == 3
    assert np.all(np.diff(data[:, 0]) > 0)        # ascending in lambda
    assert np.all(data[:, 1] == 1.0)
    rep = json.loads((tmp_path / "sweep.json").read_text())
    assert rep["all_passed"] is True
    assert rep["warnings"] == []
    assert data[0, 0] == pytest.approx(rep["lambda_star"], rel=1e-15)
    assert data[-1, 0] == pytest.approx(rep["lambda_upper"], rel=1e-15)
    # the margin columns of a row are the pairs report at that load
    row = dict(zip(header, data[1]))
    pairs_dir = tmp_path / "pairs"
    assert run("pairs", write_cfg(tmp_path, cfg), out=str(pairs_dir), lam=row["lambda"]) == 0
    pairs = json.loads((pairs_dir / "pairs.json").read_text())
    assert header[-4:] == ["eta", "eps_growth", "eps_cap", "radial_min"]
    assert row["eta"] == pairs["first_margins"]["eta"]
    assert row["eps_growth"] == pairs["second_margins"]["eps_growth"]
    assert row["eps_cap"] == pairs["second_margins"]["eps_cap"]
    assert row["radial_min"] == pairs["radial_claim"]["min_margin"]
    capsys.readouterr()


def test_sweep_builds_h_once(tmp_path, capsys, monkeypatch):
    # h is built at the first row's load, lambda_*, and moved to the others
    real, loads = nonlinearity.build_h, []

    def counted(spec, params):
        loads.append(params.lam)
        return real(spec, params)

    monkeypatch.setattr(cli, "build_h", counted)
    monkeypatch.setattr(nonlinearity, "build_h", counted)
    cfg = small_cfg(sweep={"count": 3}, grid={"n": 64})
    assert run("sweep", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 0
    assert loads == [json.loads((tmp_path / "sweep.json").read_text())["lambda_star"]]
    capsys.readouterr()


@pytest.mark.parametrize("command, checks, derivations", [
    ("radial", 1, 0), ("barrier", 0, 0), ("pairs", 1, 1), ("solve", 1, 1), ("certify", 0, 0),
    ("sweep", 3, 3),
])
def test_each_stage_checks_f4_and_derives_theta_lambda_once_per_load(
        tmp_path, capsys, monkeypatch, command, checks, derivations):
    # both are sampled on 10^4 points, and only the stages that read them
    # pay: (f4) is checked by radial and by construct_pairs, Theta_lambda
    # derived by the inner pair alone, each once per load (sweep: per row)
    path = write_cfg(tmp_path, small_cfg(sweep={"count": 3}, grid={"n": 64}))
    assert run("pairs", path, out=str(tmp_path)) == 0  # certify's input
    loads = {"validate": [], "choose_Theta_lambda": []}

    def count(name):
        real = getattr(nonlinearity, name)

        def counted(*args, **kwargs):
            # the call's load, read off its Params or its reactions' Params
            carriers = [getattr(a, "params", a) for a in args]
            loads[name].append(next(c.lam for c in carriers if hasattr(c, "lam")))
            return real(*args, **kwargs)

        for module in (cli, ds, nonlinearity):  # wherever a caller looks it up
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)

    count("validate")
    count("choose_Theta_lambda")
    assert run(command, path, out=str(tmp_path), input_path=str(tmp_path / "pairs.csv"),
               kind="subsolution") == 0
    assert len(loads["validate"]) == len(set(loads["validate"])) == checks
    assert len(loads["choose_Theta_lambda"]) == len(set(loads["choose_Theta_lambda"])) \
        == derivations
    capsys.readouterr()


def test_stages_refuse_only_a_load_they_read(tmp_path, capsys):
    # lam fhat overflows at a load of 1e300; barrier reads no reaction and
    # runs (M_lambda = lam^(2/5)), while radial and pairs, which check (f4)
    # at the load, refuse it there (pairs before deriving Theta_lambda)
    assert run("barrier", str(SMALL), out=str(tmp_path), lam=1e300) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["M_lambda"] == pytest.approx(1e120, rel=1e-12)
    for command in ("radial", "pairs"):
        assert run(command, str(SMALL), out=str(tmp_path), nodes=64, lam=1e300) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "failed_assumptions"
        assert out["error"] == "nonlinearity assumptions (f0)-(f4) failed validation: f4"


def test_sweep_tags_each_warning_with_its_load(tmp_path, capsys, monkeypatch):
    # a warning fired while a row's pairs are built carries that row's lambda
    real = cli._pairs

    def warning_pairs(env):
        warnings.warn(f"probe at {env.lam!r}", RuntimeWarning)
        return real(env)

    monkeypatch.setattr(cli, "_pairs", warning_pairs)
    cfg = small_cfg(sweep={"count": 2}, grid={"n": 64})
    assert run("sweep", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 0
    rep = json.loads((tmp_path / "sweep.json").read_text())
    lams = (rep["lambda_star"], rep["lambda_upper"])
    assert rep["warnings"] == [{"lambda": lam, "category": "RuntimeWarning",
                                "message": f"probe at {lam!r}"} for lam in lams]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("config", [SMALL, REFERENCE])
def test_sweep_radial_min_tracks_the_load(config, tmp_path, capsys):
    # the radial claim's dominance margin is distance-scaled at nodes
    # 0..n-1, so it is positive and moves with the load instead of reading
    # the 0 of the Dirichlet node on every row
    assert run("sweep", str(config), out=str(tmp_path)) == 0
    header, data = read_csv(tmp_path / "sweep.csv")
    radial_min = data[:, header.index("radial_min")]
    assert np.all(radial_min > 0.0)
    assert np.unique(radial_min).size > 1
    capsys.readouterr()


@pytest.mark.parametrize("config, nodes, u_at_0", [
    (SMALL, None, 31.7574), (SMALL, 1024, None), (SMALL, 4096, None),
    (REFERENCE, None, 13.6941), (REFERENCE, 8192, None), (REFERENCE, 16384, None),
], ids=["small-shipped", "small-1024", "small-4096",
        "reference-shipped", "reference-8192", "reference-16384"])
def test_solve_finds_the_third_solution(config, nodes, u_at_0, tmp_path, capsys):
    # Amann's u3 at the shipped n and at each mesh-ladder n: polished to its
    # rounding floor, in [u0, u_up] but in neither [u0, v_up] nor [v0, u_up],
    # and as far from u1 and u2 as the solve's distinctness rule asks
    assert run("solve", str(config), out=str(tmp_path), nodes=nodes) == 0
    rep = json.loads((tmp_path / "solve.json").read_text())
    third = rep["third_solution"]
    assert third["status"] == "converged"
    assert third["all_passed"] is True
    assert all(c["passed"] for c in third["certificates"].values())
    assert third["scaled_residual"] <= 0.0 < third["residual"]
    assert min(third["dist_to_u1"], third["dist_to_u2"]) >= 0.1 * 1.0
    assert rep["from_lower"]["sup"] < third["sup"] < rep["from_upper"]["sup"]
    if u_at_0 is not None:
        assert third["u_at_0"] == pytest.approx(u_at_0, rel=1e-5)
    header, data = read_csv(tmp_path / "solution_middle.csv")
    assert header == ["r", "u"] and data[0, 1] == third["u_at_0"]
    capsys.readouterr()


def test_solve_records_the_warnings_that_fired(tmp_path, capsys, monkeypatch):
    # one node of each leg's checked step bent against the leg by 1e-6 of
    # its sup: each leg warns MonotonicityViolation with that violation and
    # its node, the finishes still converge, and the report lists the
    # warnings in the order they fired
    real = ds._checked_step
    bends = []

    def bent(reactions, u, op, ascending):
        w, K = real(reactions, u, op, ascending)
        bends.append(1e-6 * w.sup_norm())
        values = w.values.copy()
        values[17] = u.values[17] + (-bends[-1] if ascending else bends[-1])
        return GridFunction(op.grid, values), K

    monkeypatch.setattr(ds, "_checked_step", bent)
    assert run("solve", str(SMALL), out=str(tmp_path), nodes=64) == 0
    rep = json.loads((tmp_path / "solve.json").read_text())
    assert rep["warnings"] == [
        {"category": "MonotonicityViolation",
         "message": f"{leg} step 1 moved against the leg by {bend:.3e} (worst node 17)"}
        for leg, bend in zip(("from_lower", "from_upper"), bends)]
    for leg in ("from_lower", "from_upper"):
        assert rep[leg]["converged"] and rep[leg]["monotone"] is False
    capsys.readouterr()


def test_solve_records_the_pairs_warnings(tmp_path, capsys):
    # above lambda^* the radial profile warns WindowViolation, once per
    # load; the report lists it, and stderr stays quiet
    assert run("solve", str(SMALL), out=str(tmp_path), lam=0.29502) == 0
    rep = json.loads((tmp_path / "solve.json").read_text())
    assert [w["category"] for w in rep["warnings"]] == ["WindowViolation"]
    assert rep["warnings"][0]["message"].startswith("lambda=0.29502 outside [")
    assert capsys.readouterr().err == ""


def test_radial_records_its_warnings(tmp_path, capsys):
    # above lambda^* the radial profile warns WindowViolation: radial.json
    # lists it, and none escapes the run (to stderr, in a real process)
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        assert run("radial", str(SMALL), out=str(tmp_path), lam=0.29502) == 0
    assert escaped == []
    rep = json.loads((tmp_path / "radial.json").read_text())
    assert [w["category"] for w in rep["warnings"]] == ["WindowViolation"]
    assert rep["warnings"][0]["message"].startswith("lambda=0.29502 outside [")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("config", [SMALL, REFERENCE], ids=["small", "reference"])
def test_one_operator_per_load(config, tmp_path, capsys, monkeypatch):
    # the pair searches probe closed forms on the load's one operator; solve
    # adds only the shooting's coarse grid
    built = []
    real = ds.DiscreteOperator.__post_init__

    def counted(op):
        real(op)
        built.append(op.n)

    monkeypatch.setattr(ds.DiscreteOperator, "__post_init__", counted)
    n = json.loads(config.read_text())["grid"]["n"]
    assert run("pairs", str(config), out=str(tmp_path)) == 0
    assert built == [n]
    built.clear()
    assert run("solve", str(config), out=str(tmp_path)) == 0
    assert built == [n, ds._SHOOT_N] and ds._SHOOT_N == 64
    capsys.readouterr()


def test_pairs_records_its_warnings(tmp_path, capsys):
    # the same load as above: pairs.json lists its one WindowViolation warning
    assert run("pairs", str(SMALL), out=str(tmp_path), lam=0.29502) == 0
    rep = json.loads((tmp_path / "pairs.json").read_text())
    assert [w["category"] for w in rep["warnings"]] == ["WindowViolation"]
    assert rep["warnings"][0]["message"].startswith("lambda=0.29502 outside [")
    assert capsys.readouterr().err == ""
    assert run("pairs", str(SMALL), out=str(tmp_path)) == 0
    assert json.loads((tmp_path / "pairs.json").read_text())["warnings"] == []
    capsys.readouterr()


@pytest.mark.parametrize("fault, message", [
    ("nan_residual", "Newton system not finite at row 17\n"),
    ("zero_column", "Newton system singular: smallest pivot 0.000e+00 at row 17\n"),
], ids=["nan_residual", "zero_column"])
def test_unsolvable_newton_system_exit_3(tmp_path, capsys, monkeypatch, fault, message):
    # a NaN residual at node 17, or a zero Jacobian column at node 17: the
    # run's first Newton system is the second pair's psi solve, which the
    # message names
    if fault == "nan_residual":
        real = ds._residual_scale

        def faulty(*args, **kwargs):
            res, scale, rnd, kept = real(*args, **kwargs)
            res = res.copy()
            res[17] = np.nan
            return res, scale, rnd, kept

        monkeypatch.setattr(ds, "_residual_scale", faulty)
    else:
        real = ds._jac_bands

        def faulty(*args, **kwargs):
            sub, diag, sup = real(*args, **kwargs)
            sup[16] = diag[17] = sub[18] = 0.0
            return sub, diag, sup

        monkeypatch.setattr(ds, "_jac_bands", faulty)
    assert run("solve", str(SMALL), out=str(tmp_path)) == 3
    assert capsys.readouterr().err == "did not converge: second pair: v0 = psi: " + message


def test_newton_failure_in_a_leg_names_the_leg_and_step(tmp_path, capsys, monkeypatch):
    # a NaN residual at node 17 in the solve map's systems only (the ones
    # with an anchor): the pairs stage passes, and the ascending leg's first
    # step fails
    real = ds._residual_scale

    def faulty(op, u, theta, khat, mu, rhs, singular, anchor=None):
        res, scale, rnd, kept = real(op, u, theta, khat, mu, rhs, singular, anchor)
        if anchor is not None:
            res = res.copy()
            res[17] = np.nan
        return res, scale, rnd, kept

    monkeypatch.setattr(ds, "_residual_scale", faulty)
    assert run("solve", str(SMALL), out=str(tmp_path)) == 3
    assert capsys.readouterr().err == (
        "did not converge: from_lower step 1: Newton system not finite at row 17\n")
    assert not (tmp_path / "solve.json").exists()


def test_failed_run_keeps_its_warnings(tmp_path, capsys, monkeypatch):
    # above lambda^* the radial profile warns WindowViolation before a NaN
    # residual at node 17 stops the pairs: the warning follows the error line
    real = ds._residual_scale

    def faulty(*args, **kwargs):
        res, scale, rnd, kept = real(*args, **kwargs)
        res = res.copy()
        res[17] = np.nan
        return res, scale, rnd, kept

    monkeypatch.setattr(ds, "_residual_scale", faulty)
    assert run("pairs", str(SMALL), out=str(tmp_path), lam=0.29502) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "did not converge: second pair: v0 = psi: Newton system not finite at row 17"
    assert len(err) == 2
    assert err[1].startswith("warning: WindowViolation: lambda=0.29502 outside [")


def test_seed_is_accepted_and_changes_nothing(tmp_path, capsys):
    assert run("solve", str(SMALL), out=str(tmp_path / "a"), nodes=64) == 0
    assert run("solve", str(SMALL), out=str(tmp_path / "b"), nodes=64, seed=12345) == 0
    for name in ("solve.json", "solution_middle.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    capsys.readouterr()


def test_failed_assumptions_are_named(tmp_path, capsys):
    cfg = small_cfg(nonlinearity={"kind": "table", "table_t": [0, 1, 100],
                                  "table_f": [0, 2, 200], "theta1": 1.0, "theta2": 50.0})
    assert run("pairs", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "failed_assumptions"
    assert out["error"].endswith("failed validation: f0")


def test_failed_f4_is_not_a_positivity_loss(tmp_path, capsys):
    # cfg_small in three dimensions fails (f4) for its khat
    cfg = small_cfg(params={"dim": 3})
    assert run("pairs", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": "nonlinearity assumptions (f0)-(f4) failed validation: f4",
                   "kind": "failed_assumptions", "warnings": []}


def _cap_holds(env, m):
    # m C(m) = max v_m <= theta1, v_m the plain solve of -L v = m^(p-1): the
    # inner pair's cap
    op = ds.DiscreteOperator.from_params(env.params, n=env.n)
    v = ds._load_solution(op, m ** (env.params.p - 1.0))
    return float(np.max(v)) <= env.spec.theta1


def test_second_pair_reports_the_cap_edge(tmp_path, capsys):
    # (p, q) = (1.5, 4) with khat = 1e12: growth needs m >= 268.225 while the
    # cap fails below m_min / 2; the message gives the cap's own edge
    cfg = small_cfg(params={"p": 1.5, "q": 4.0}, nonlinearity={"khat": 1e12})
    path = write_cfg(tmp_path, cfg)
    assert run("pairs", path, out=str(tmp_path)) == 3
    err = capsys.readouterr().err
    head = ("did not converge: second pair: no admissible m: growth needs m >= 268.225, "
            "cap needs m <= ")
    assert err.startswith(head)
    m_max = float(err[len(head):])
    env = cli._build_env(cli._load_config(path))
    assert _cap_holds(env, m_max * (1.0 - 1e-5))
    assert not _cap_holds(env, m_max * (1.0 + 1e-5))


def test_second_pair_names_an_empty_admissible_set(tmp_path, capsys):
    # cfg_reference with (p, q) = (3, 5) at half its lambda^*: the growth
    # condition fails up to the bracket's end, where the cap fails too
    cfg = json.loads(REFERENCE.read_text())
    cfg["params"].update(p=3.0, q=5.0)
    assert run("pairs", write_cfg(tmp_path, cfg), out=str(tmp_path), nodes=128,
               lam=401.6) == 3
    assert capsys.readouterr().err == (
        "did not converge: second pair: no admissible m: growth fails at every "
        "m <= 1.09951e+12, and the cap already fails there\n")


def test_second_pair_names_its_stage_in_a_solve(tmp_path, capsys):
    cfg = json.loads(REFERENCE.read_text())
    cfg["params"].update(p=3.0, q=5.0)
    assert run("solve", write_cfg(tmp_path, cfg), out=str(tmp_path), nodes=512) == 3
    assert capsys.readouterr().err.startswith(
        "did not converge: second pair: no admissible m")


def _as_cfg(spec, params):
    """A draw of _random_config as a config, at the window's midpoint load."""
    reaction = {"kind": spec.kind, "theta1": spec.theta1, "theta2": spec.theta2}
    if spec.kind == "exp_saturating":
        reaction["k"] = spec.k
    else:
        reaction.update(table_t=list(spec.table_t), table_f=list(spec.table_f))
    return {"schema": "v1", "nonlinearity": reaction,
            "params": {"p": params.p, "q": params.q, "gamma": params.gamma,
                       "dim": params.dim, "radius": params.radius, "lambda": None}}


def _random_cfg(draw):
    """Draw `draw` of _random_config from random.Random(1), as a config,
    and its window."""
    rng = random.Random(1)
    for _ in range(draw + 1):
        spec, params = _random_config(rng)
    return _as_cfg(spec, params), compute_window(spec, params)


def _failed_certificates(rep):
    return sorted(k for k, c in rep["certificates"].items() if not c["passed"])


# loads whose u1 leaves [u0, v_up]: v_up is no supersolution at the nodes
# there (ROADMAP item 14), and solve refuses them with exit 1
_U1_ESCAPES = {(64, 0.3)}


@pytest.mark.parametrize("draw, share", [
    (7, 0.3), (7, 0.5), (7, 0.7), (30, 0.3), (30, 0.5), (30, 0.7), (33, 0.7),
    (38, 0.3), (38, 0.5), (38, 0.7), (64, 0.3)])
def test_psi_converges_on_random_configs(draw, share, tmp_path, capsys):
    # psi's Newton starts at the load solve of its right-hand side; from a
    # start far from it, Newton ran out of budget (at scaled residuals up to
    # 1e41) or stalled its line search on every one of these loads
    cfg, win = _random_cfg(draw)
    lam = win.lambda_star + share * (win.lambda_upper - win.lambda_star)
    escape = (draw, share) in _U1_ESCAPES
    code = run("solve", write_cfg(tmp_path, cfg), out=str(tmp_path), nodes=128, lam=lam)
    assert code == (1 if escape else 0)
    rep = json.loads((tmp_path / "solve.json").read_text())
    assert rep["from_lower"]["converged"] and rep["from_upper"]["converged"]
    assert rep["third_solution"]["status"] == "converged"
    assert _failed_certificates(rep) == (["order_u1_vup"] if escape else [])
    capsys.readouterr()


def test_solve_refuses_a_u1_outside_its_interval(tmp_path, capsys):
    # draw 16 at 50 %: both legs converge and u3 with them, but u1 lies
    # above v_up at every node, so the theorem's interval [u0, v_up] fails
    cfg, win = _random_cfg(16)
    lam = win.lambda_star + 0.5 * (win.lambda_upper - win.lambda_star)
    assert run("solve", write_cfg(tmp_path, cfg), out=str(tmp_path), nodes=128, lam=lam) == 1
    rep = json.loads((tmp_path / "solve.json").read_text())
    assert rep["all_passed"] is False
    assert _failed_certificates(rep) == ["order_u1_vup"]
    assert rep["from_lower"]["converged"] and rep["from_upper"]["converged"]
    assert rep["certificates"]["order_u1_vup"]["min_margin"] < 0.0
    capsys.readouterr()


def test_solve_starts_a_solved_input_at_itself(tmp_path, capsys):
    # draw 55 at 50 %: u0 has sup 3.6e-8 and subsolution margin 1.3e-17,
    # yet its scaled residual reads 1.2e-16 against the scale floor of 1,
    # so the map starts at u0 and returns it.  Started at its load solve
    # instead, the image lies 4e-9 above the Newton finish at node 0 and
    # the ascending leg exits 3
    cfg, win = _random_cfg(55)
    lam = win.lambda_star + 0.5 * (win.lambda_upper - win.lambda_star)
    assert run("solve", write_cfg(tmp_path, cfg), out=str(tmp_path), nodes=128, lam=lam) == 0
    rep = json.loads((tmp_path / "solve.json").read_text())
    assert rep["from_lower"]["converged"] and rep["from_upper"]["converged"]
    capsys.readouterr()


def test_solve_exit_codes_on_the_seeded_survey(tmp_path, capsys):
    # draws 0-79 of random.Random(1), every one, at 50 % of its window (the
    # midpoint where there is none, so the run itself refuses the draw) on
    # 64 cells: each exit code is one of the contract's, an exit 3 writes no
    # report and says why, a positivity loss names its leg and its node, and
    # an exit 0 passed every certificate with both legs converged
    rng = random.Random(1)
    codes = []
    for draw in range(80):
        spec, params = _random_config(rng)
        try:
            win = compute_window(spec, params)
            lam = win.lambda_star + 0.5 * (win.lambda_upper - win.lambda_star)
        except (ValueError, BridgeNotMonotone):
            lam = None
        out = tmp_path / str(draw)
        code = run("solve", write_cfg(tmp_path, _as_cfg(spec, params)), out=str(out),
                   nodes=64, lam=lam)
        printed = capsys.readouterr()
        codes.append(code)
        assert code in (0, 1, 2, 3), draw
        if code == 3:
            assert printed.err.startswith("did not converge: ")
            assert not (out / "solve.json").exists()
        if code == 1 and json.loads(printed.out).get("kind") == "positivity_loss":
            error = json.loads(printed.out)["error"]
            assert re.fullmatch(r"from_(lower|upper) step 1: .* at node \d+", error), (draw, error)
        if code == 0:
            rep = json.loads((out / "solve.json").read_text())
            assert rep["all_passed"], draw
            assert rep["from_lower"]["converged"] and rep["from_upper"]["converged"], draw
    assert 0 in codes and 3 in codes


def test_solve_names_the_leg_and_node_of_a_positivity_loss(tmp_path, capsys):
    # draw 67 at 50 % on 64 cells: the ascending leg's first map collapses
    # onto the positivity floor at the Dirichlet neighbour; the refusal keeps
    # its kind and names the leg, the step and the node
    cfg, win = _random_cfg(67)
    lam = win.lambda_star + 0.5 * (win.lambda_upper - win.lambda_star)
    assert run("solve", write_cfg(tmp_path, cfg), out=str(tmp_path), nodes=64, lam=lam) == 1
    refused = json.loads(capsys.readouterr().out)
    assert refused["kind"] == "positivity_loss"
    assert refused["error"] == (
        "from_lower step 1: solve map output collapsed onto the positivity floor at node 63")


def test_solve_finish_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a Newton finish that fails ends the run with exit 3 and a message
    # naming the leg, the finish and the worst node; no report is written
    def stalled(reactions, op, init, polish=False):
        raise ds.ConvergenceFailure(
            "Newton line search stalled at scaled residual 1.000e+00 (worst node 7)")

    monkeypatch.setattr(ds, "_solve_unshifted", stalled)
    assert run("solve", str(SMALL), out=str(tmp_path), nodes=64) == 3
    assert capsys.readouterr().err == (
        "did not converge: from_lower finish: Newton line search stalled at scaled "
        "residual 1.000e+00 (worst node 7)\n")
    assert not (tmp_path / "solve.json").exists()


@pytest.mark.parametrize("share", [0.3, 0.5, 0.7])
def test_descending_leg_converges_on_draw_26(share, tmp_path, capsys):
    # u_up lies far above its first image here; Newton from u_up stalled its
    # line search at scaled residual 1.000 (node 0) or 5.736 (node 116), and
    # the first map now starts at its load solve.  u3's polish still fails
    # on this draw, so only the legs are asserted
    cfg, win = _random_cfg(26)
    lam = win.lambda_star + share * (win.lambda_upper - win.lambda_star)
    assert run("solve", write_cfg(tmp_path, cfg), out=str(tmp_path), nodes=128, lam=lam) == 0
    rep = json.loads((tmp_path / "solve.json").read_text())
    assert rep["from_lower"]["converged"] and rep["from_upper"]["converged"]
    capsys.readouterr()


def test_first_pair_names_its_stage(tmp_path, capsys, monkeypatch):
    # with one try left the eta search of the first pair gives up after its
    # first eta, naming the condition it failed and the node that decided it
    monkeypatch.setattr(ds, "_GEOM_BUDGET", 1)
    assert run("pairs", str(SMALL), out=str(tmp_path), nodes=64) == 3
    assert capsys.readouterr().err == (
        "did not converge: first pair: no admissible eta within the halving budget; "
        "last failed: smallness eta <= (lam/2) min f(w) w^-gamma, at node 0\n")


def test_barrier_command(tmp_path, capsys):
    code = run("barrier", str(SMALL), out=str(tmp_path))
    assert code == 0
    rep = json.loads((tmp_path / "barrier.json").read_text())
    assert rep["R_tau"] == pytest.approx(0.2, rel=1e-6)
    assert rep["conservation_residual"] <= 1e-6
    assert rep["smallest_exponent"]["passed"] is True
    assert rep["supersolution"]["passed"] is True
    # the expected blow-down truncation is recorded, not thrown away
    assert rep["warnings"] == [{"category": "BlowDown", "message":
                                "flux exhausted at r ~ 0.2 < r_max=1; profile truncated"}]
    header, data = read_csv(tmp_path / "barrier.csv")
    assert header == ["s", "xi", "xi_prime"]
    assert np.all(data[:, 1] >= 0.0)
    capsys.readouterr()


def test_output_dir_from_config(tmp_path, capsys):
    sub = tmp_path / "artifacts" / "deep"
    cfg = small_cfg(output={"dir": str(sub)})
    assert run("window", write_cfg(tmp_path, cfg)) == 0
    assert (sub / "window.json").exists()
    capsys.readouterr()
