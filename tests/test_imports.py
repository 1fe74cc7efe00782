"""Import diet: `import pqsing` loads no stage module, each command loads
only the modules it runs, and no command loads scipy.

Every diet check runs in a fresh interpreter, because this process has
imported every module and scipy already (the oracle tests use scipy as their
oracle).  The last four tests check the public surface: every exported
name resolves, each load has one carrier (its reactions), no function takes
the auxiliary weights alpha, beta, and the README's library quick start
runs as written and gives `pqsing solve`'s numbers.
"""
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pqsing
from pqsing import cli

ROOT = Path(__file__).resolve().parent.parent
SMALL = ROOT / "scripts" / "cfg_small.json"

# argv: <report path> [command args...]; with no command it only imports
# pqsing, otherwise it runs `python -m pqsing <command args>` in process.  A
# pqsing process ends by os._exit, which here raises SystemExit instead, so
# that the probe still writes its report
_PROBE = """
import json, os, runpy, sys
report, args = sys.argv[1], sys.argv[2:]
code = 0
if args:
    sys.argv = ["pqsing", *args]
    os._exit = sys.exit
    try:
        runpy.run_module("pqsing", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import pqsing
with open(report, "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def loaded(tmp_path, *args):
    """Exit code and the modules loaded by one fresh process."""
    report = tmp_path / "modules.json"
    subprocess.run([sys.executable, "-c", _PROBE, str(report), *args], env=ENV,
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    result = json.loads(report.read_text())
    return result["code"], set(result["modules"])


def loaded_scipy(tmp_path, *args):
    """Exit code and the scipy modules loaded by one fresh process."""
    code, modules = loaded(tmp_path, *args)
    return code, {m for m in modules if m.startswith("scipy")}


def loaded_pqsing(tmp_path, *args):
    """Exit code and the pqsing submodules loaded by one fresh process."""
    code, modules = loaded(tmp_path, *args)
    return code, {m.partition(".")[2] for m in modules if m.startswith("pqsing.")}


def command(tmp_path, name):
    return (name, "--config", str(SMALL), "--out", str(tmp_path / "out"))


def test_import_loads_no_scipy(tmp_path):
    assert loaded_scipy(tmp_path) == (0, set())


def test_window_loads_no_scipy(tmp_path):
    assert loaded_scipy(tmp_path, *command(tmp_path, "window")) == (0, set())


def test_import_loads_no_stage_module(tmp_path):
    # every public name is imported from its home module on first access
    code, modules = loaded(tmp_path)
    assert code == 0 and "numpy" not in modules
    assert {m for m in modules if m.startswith("pqsing")} == {"pqsing", "pqsing.errors"}


def test_window_loads_only_the_window_modules(tmp_path):
    assert loaded_pqsing(tmp_path, *command(tmp_path, "window")) == (
        0, {"errors", "records", "parameter_window", "cli"})


@pytest.mark.parametrize("config, code", [
    ("cfg_small.json", 0), ("cfg_reference.json", 0), (None, 1),
], ids=["cfg_small.json", "cfg_reference.json", "f0-table"])
def test_window_loads_no_numpy(tmp_path, config, code):
    # the window is closed-form arithmetic in the standard library, and so
    # are the reaction record's checks: a table with f(0) = 0 is refused
    # with exit 1 before numpy loads
    if config is None:
        cfg = json.loads(SMALL.read_text())
        cfg["nonlinearity"] = {"kind": "table", "theta1": 1.0, "theta2": 50.0,
                               "table_t": [0, 1, 100], "table_f": [0, 2, 200]}
        path = tmp_path / "f0_table.json"
        path.write_text(json.dumps(cfg))
    else:
        path = ROOT / "scripts" / config
    args = ("window", "--config", str(path), "--out", str(tmp_path / "out"))
    got, modules = loaded(tmp_path, *args)
    assert got == code and not {m for m in modules if m.partition(".")[0] == "numpy"}


@pytest.mark.parametrize("name, absent", [
    ("barrier", {"discrete_solver", "radial_solver"}),
    ("radial", {"barrier"}),
    ("pairs", {"barrier"}),
    ("solve", {"barrier"}),
    ("sweep", {"barrier"}),
    ("certify", {"barrier"}),
], ids=["barrier", "radial", "pairs", "solve", "sweep", "certify"])
def test_command_loads_only_its_stages(tmp_path, name, absent):
    args = command(tmp_path, name)
    if name == "certify":
        profile = tmp_path / "u.csv"
        profile.write_text("r,u\n" + "".join(f"{r},{1 - r * r}\n" for r in (0, 0.25, 0.5, 0.75, 1)))
        args += ("--input", str(profile), "--kind", "supersolution")
    code, modules = loaded_pqsing(tmp_path, *args)
    assert code in (0, 1) and "cli" in modules
    assert not modules & absent


@pytest.mark.parametrize("name", ["barrier", "pairs", "solve", "sweep"])
def test_command_loads_only_its_scipy(tmp_path, name):
    # none: the Beta functions, the root finders and the Newton systems are
    # all computed in numpy or plain Python
    assert loaded_scipy(tmp_path, *command(tmp_path, name)) == (0, set())


# argv: <perfbench dir> <config> <out dir>; in a fresh interpreter the
# benchmark's tracer wraps its names before any command has run, then traces
# one solve at n = 64 and prints the spans per name
_TRACED_SOLVE = """
import json, sys
sys.path.insert(0, sys.argv[1])   # run.py imports its sibling tracer
import run as bench
with bench.tracer.Tracer() as trace:
    bench.instrument(trace)
    from pqsing import cli
    code = cli.run("solve", sys.argv[2], out=sys.argv[3], nodes=64)
from pqsing import radial_solver
print(json.dumps({"code": code, "calls": trace.calls(),
                  "restored": cli.solve_radial is radial_solver.solve_radial}))
"""


def test_benchmark_instrumentation_in_a_fresh_interpreter(tmp_path):
    done = subprocess.run([sys.executable, "-c", _TRACED_SOLVE, str(ROOT / "perfbench"),
                           str(SMALL), str(tmp_path / "out")], env=ENV, check=True,
                          capture_output=True, text=True, timeout=120)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0 and result["restored"]
    calls = result["calls"]
    for leg in ("from_lower", "from_upper"):
        assert calls["discrete_solver.amann_iterate." + leg] == 1
    for name in ("radial_solver.solve_radial", "radial_solver.certify_radial_claim",
                 "discrete_solver.construct_pairs",
                 "discrete_solver.search_third_solution"):
        assert calls[name] == 1, name


# argv: <config> <out dir>; runs every command of the pipeline in one process
# in which any scipy import fails, and prints their exit codes
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None   # `import scipy...` now raises ImportError
from pqsing.cli import main
config, out = sys.argv[1], sys.argv[2]
names = ("window", "barrier", "pairs", "solve", "sweep")
print(json.dumps({name: main([name, "--config", config, "--out", out]) for name in names}))
"""


def test_pipeline_runs_without_scipy(tmp_path):
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(SMALL),
                           str(tmp_path / "out")], env=ENV, check=True,
                          capture_output=True, text=True, timeout=300)
    codes = json.loads(done.stdout.splitlines()[-1])
    assert codes == {"window": 0, "barrier": 0, "pairs": 0, "solve": 0, "sweep": 0}


def test_pairs_loads_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call; no stage of pairs calls
    # it, so the command never loads numpy.ma
    probe = ("import sys\nfrom pqsing import cli\n"
             "code = cli.run('pairs', sys.argv[1], out=sys.argv[2])\n"
             "print(code, 'numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", probe, str(SMALL), str(tmp_path / "out")],
                          env=ENV, check=True, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 False"


def test_every_exported_name_resolves():
    # the package's and each module's __all__ name only what is defined
    names = [m.name for m in pkgutil.iter_modules(pqsing.__path__) if m.name != "__main__"]
    for module in (pqsing, *(importlib.import_module(f"pqsing.{n}") for n in names)):
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_one_carrier_per_load():
    # a stage reads the load's Params and reaction from its reactions alone:
    # no public function takes a second copy beside them, and the reactions
    # and the CLI's environment hold no copied field
    for name in pqsing.__all__:
        obj = getattr(pqsing, name)
        if inspect.isfunction(obj):
            args = set(inspect.signature(obj).parameters)
            assert not ("reactions" in args and args & {"params", "spec"}), name
    copied = {"f", "f0", "lam", "khat"}
    assert not copied & {f.name for f in dataclasses.fields(pqsing.DerivedReactions)}
    assert not {"params", "params0", "spec"} & {f.name for f in dataclasses.fields(cli._Env)}


def test_reactions_carry_no_sampled_constant():
    # Theta_lambda is the inner pair's to derive, and (f4) construct_pairs'
    # to check: the reactions hold the bridge, fhat and the load's one copy
    # of spec and params, and nothing derived on a grid
    assert {f.name for f in dataclasses.fields(pqsing.DerivedReactions)} == {
        "theta_star", "fbar", "h", "fhat", "spec", "params"}


def test_pair_builders_take_no_window():
    # the radial solve checks the load against the window; the pairs built
    # on its profile read nothing else of it
    for builder in (pqsing.construct_pairs, pqsing.build_second_pair):
        assert "window" not in inspect.signature(builder).parameters, builder.__name__


def test_no_function_takes_the_weights():
    # both upper functions are plain constant-load solves, so the weights of
    # the auxiliary problems -L^{alpha,beta} u = 1 are nobody's parameter:
    # not of the public surface, nor of any module-level function
    names = [m.name for m in pkgutil.iter_modules(pqsing.__path__) if m.name != "__main__"]
    modules = [importlib.import_module(f"pqsing.{n}") for n in names]
    functions = [(name, getattr(pqsing, name)) for name in pqsing.__all__]
    functions += [(f"{m.__name__}.{name}", obj) for m in modules
                  for name, obj in vars(m).items() if getattr(obj, "__module__", None) == m.__name__]
    for name, obj in functions:
        if inspect.isfunction(obj):
            assert not {"alpha", "beta"} & set(inspect.signature(obj).parameters), name


def test_readme_library_quick_start_runs(capsys, tmp_path):
    # the README's "Quick start (library)" block, executed as written: the
    # same numbers, bit for bit, as `pqsing solve` on cfg_small, whose data,
    # n and load (the window midpoint) it spells out
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["pairs"].all_passed
    assert namespace["third"]["status"] == "converged"
    assert namespace["third"]["u_at_0"] == pytest.approx(31.757, rel=1e-4)
    assert cli.run("solve", str(SMALL), out=str(tmp_path)) == 0
    for name, u in (("lower", namespace["lo"].limit), ("upper", namespace["up"].limit),
                    ("middle", namespace["u3"])):
        table = np.loadtxt(tmp_path / f"solution_{name}.csv", delimiter=",", skiprows=1)
        assert table[:, 0].tobytes() == u.nodes.tobytes(), name
        assert table[:, 1].tobytes() == u.values.tobytes(), name
    capsys.readouterr()
