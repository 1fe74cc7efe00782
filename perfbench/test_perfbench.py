"""Checks of the benchmark itself.

    python -m pytest perfbench -q

They run the benchmark against the source tree it sits in: about half a
minute on two cores.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

HERE = Path(__file__).resolve().parent


def _tree_digest(*dirs):
    h = hashlib.sha256()
    for d in dirs:
        for f in sorted((bench.ROOT / d).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(bench.ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()


def _traced(seed, spans):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cold-cli", "--seed", str(seed),
         "--seconds", "1", "--trace", "1", "--spans", str(spans)],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _artifacts(out):
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def solve_op(tmp_path_factory):
    bench.pin_threads()
    _wall, windows = bench.load_windows("cold-cli", tmp_path_factory.mktemp("setup"),
                                        bench.Outcomes())
    ops = bench.inputs("cold-cli", 3, windows)
    return next(op for op in ops if op.command == "solve")


def test_traced_counts_repeat_for_one_seed(tmp_path):
    before = _tree_digest("scripts", "out_small")
    first = _traced(7, tmp_path / "a.jsonl")
    second = _traced(7, tmp_path / "b.jsonl")
    assert first["correct"] and second["correct"]
    counts = {k for k, v in first["metrics"].items() if v["unit"] in ("count", "B")}
    assert "discrete_solver.that_map.calls" in counts
    assert first["metrics"]["discrete_solver.that_map.calls"]["value"] > 0
    for k in counts:
        assert first["metrics"][k] == second["metrics"][k], k
    spans = [[json.loads(line)["name"] for line in open(p)]
             for p in (tmp_path / "a.jsonl", tmp_path / "b.jsonl")]
    assert spans[0] == spans[1]
    # the benchmark writes into a temporary directory it removes, never into the tree
    assert _tree_digest("scripts", "out_small") == before
    assert not list(bench.ROOT.glob(".perfbench-*"))


def test_artifacts_carry_no_timing(solve_op, tmp_path):
    """Cold, warm and traced runs of one operation write identical bytes."""
    outs = [tmp_path / name for name in ("cold", "warm", "traced")]
    results = [bench.execute(solve_op, outs[0], bench.run_cold),
               bench.execute(solve_op, outs[1], bench.run_warm)]
    trace, _overheads, _size = bench.trace_ops([solve_op], outs[2], bench.Outcomes())
    assert trace.calls()["cli.run"] == 1
    for result in results:
        assert result.code == 0 and not result.problems
    assert _artifacts(outs[0]) == _artifacts(outs[1]) == _artifacts(outs[2])
    assert "solve.json" in _artifacts(outs[0])


def test_check_rejects_inconsistent_output(solve_op, tmp_path):
    out = tmp_path / "out"
    code, report = bench.execute(solve_op, out, bench.run_warm)[1:3]
    stdout = json.dumps(report)
    assert bench.check(solve_op, code, stdout, "", out)[1] == []
    assert bench.check(solve_op, 3, stdout, "", out)[1]
    broken = dict(report, from_lower=dict(report["from_lower"], sup=1e300))
    (out / "solve.json").write_text(json.dumps(broken))
    assert bench.check(solve_op, code, json.dumps(broken), "", out)[1]
    assert bench.check(solve_op, 3, "", "Traceback", out)[1]


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cold-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
