"""The process contract of a `pqsing` run: real `python -m pqsing` processes.

A process ends by os._exit right after flushing its output, so these tests
run it with stdout on a pipe and redirected to a file.  A file is
block-buffered, so a flush that went missing would lose output there.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMALL = ROOT / "scripts" / "cfg_small.json"
REFERENCE = ROOT / "scripts" / "cfg_reference.json"
# without PYTHONUNBUFFERED, so that stdout is buffered as it is by default
ENV = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])


def _config(tmp_path, base, **sections):
    cfg = json.loads(base.read_text())
    for name, values in sections.items():
        cfg[name] = {**cfg.get(name, {}), **values}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def _window(tmp_path):
    return ("window", "--config", str(SMALL)), 0, ""


def _failing_certify(tmp_path):
    # a zero profile loses positivity: the certificate fails, and the
    # report says so
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("r,u\n" + "".join(f"{k / 32!r},0.0\n" for k in range(33)))
    return ("certify", "--config", str(SMALL), "--input", str(zeros),
            "--kind", "subsolution"), 1, ""


def _invalid_config(tmp_path):
    path = _config(tmp_path, SMALL, grid={"n": 4})
    return ("window", "--config", str(path)), 2, "config error: grid.n must be at least 8, got 4\n"


def _budget_exhausted(tmp_path):
    # as in test_solve_budget_exhaustion_exit_3: the descending leg runs out
    # of its 8 steps; the report is written and printed
    path = _config(tmp_path, REFERENCE, tolerances={"budget": 8})
    return ("solve", "--config", str(path), "--nodes", "512"), 3, ""


def _search_exhausted(tmp_path):
    # no admissible m for the second pair, at a load above the window: the
    # error line, then the radial profile's WindowViolation fired before it
    path = _config(tmp_path, REFERENCE, params={"p": 3.0, "q": 5.0})
    warning = ("warning: WindowViolation: lambda=2000.0 outside "
               "[6.889266243722097, 803.2112770580061]\n")
    return (("pairs", "--config", str(path), "--nodes", "128", "--lambda", "2000"), 3,
            "did not converge: second pair: no admissible m: growth fails at every "
            "m <= 1.09951e+12, and the cap already fails there\n" + warning)


@pytest.mark.parametrize("case", [_window, _failing_certify, _invalid_config,
                                  _budget_exhausted, _search_exhausted],
                         ids=["exit_0", "exit_1", "exit_2", "exit_3_budget", "exit_3_search"])
@pytest.mark.parametrize("stdout_to", ["pipe", "file"])
def test_process_contract(tmp_path, case, stdout_to):
    args, code, stderr = case(tmp_path)
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "pqsing", *args, "--out", str(out)]
    if stdout_to == "pipe":
        done = subprocess.run(argv, env=ENV, capture_output=True, timeout=300)
        printed = done.stdout
    else:
        with open(tmp_path / "stdout.txt", "wb") as fh:
            done = subprocess.run(argv, env=ENV, stdout=fh, stderr=subprocess.PIPE,
                                  timeout=300)
        printed = (tmp_path / "stdout.txt").read_bytes()
    assert done.returncode == code
    assert done.stderr.decode() == stderr
    report = out / f"{args[0]}.json"
    if code == 2 or stderr:  # refused before any report
        assert printed == b"" and not report.exists()
    else:
        assert printed and printed == report.read_bytes()


def test_both_launch_paths_share_one_entry():
    # `python -m pqsing` runs __main__.py; the installed script names its
    # function in pyproject.toml
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["pqsing"]
    tree = ast.parse((ROOT / "src" / "pqsing" / "__main__.py").read_text())
    calls = [node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "cli" for alias in node.names}
    assert len(calls) == 1 and calls[0] in imported
    assert script == f"pqsing.cli:{calls[0]}"
