"""The benchmark's tracer wraps pqsing functions by the names its callers look
them up under (perfbench/run.py: instrument).  A rename or deletion of one of
those names breaks every traced benchmark run, and perfbench's own checks are
not part of this suite, so this one is.  It reads the benchmark, never
changes it.
"""
import importlib.util
from pathlib import Path

from pqsing import cli, discrete_solver

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SMALL = ROOT / "scripts" / "cfg_small.json"


def _load_benchmark(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling tracer
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_benchmark_instrumentation_finds_every_name(monkeypatch, tmp_path, capsys):
    bench = _load_benchmark(monkeypatch)
    originals = (cli.solve_radial, discrete_solver.amann_iterate, discrete_solver.that_map)
    with bench.tracer.Tracer() as trace:
        bench.instrument(trace)
        assert cli.run("solve", str(SMALL), out=str(tmp_path), nodes=64) == 0
    # every wrapper is removed again
    assert (cli.solve_radial, discrete_solver.amann_iterate, discrete_solver.that_map) \
        == originals
    calls = trace.calls()
    for leg in ("from_lower", "from_upper"):
        assert calls["discrete_solver.amann_iterate." + leg] == 1
        assert trace.counts[f"discrete_solver.amann_iterate.{leg}.steps"] >= 1
    assert calls["discrete_solver.search_third_solution"] == 1
    assert calls["discrete_solver.that_map"] > 0
    assert calls["nonlinearity.choose_khat"] == 0
    # every load term and the residual kernel reach the flux map through
    # discrete_solver's own names, which are the ones the tracer wraps: each
    # Newton step's bands come from the F' of a residual evaluation
    assert trace.counts["discrete_solver.flux_evals"] > 0
    assert calls["pq_core.lpq_derivative"] >= calls["discrete_solver.solve_banded"] > 0
    capsys.readouterr()
