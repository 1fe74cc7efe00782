"""Import diet: `import pqsing` loads numpy only, and no command loads scipy.

Every check runs in a fresh interpreter, because this process has imported
scipy already (the port tests use it as their oracle).
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMALL = ROOT / "scripts" / "cfg_small.json"

# argv: <report path> [command args...]; with no command it only imports
# pqsing, otherwise it runs `python -m pqsing <command args>` in process
_PROBE = """
import json, runpy, sys
report, args = sys.argv[1], sys.argv[2:]
code = 0
if args:
    sys.argv = ["pqsing", *args]
    try:
        runpy.run_module("pqsing", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import pqsing
with open(report, "w") as fh:
    json.dump({"code": code, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}, fh)
"""


def loaded_scipy(tmp_path, *args):
    """Exit code and the scipy modules loaded by one fresh process."""
    report = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", _PROBE, str(report), *args], env=env,
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    result = json.loads(report.read_text())
    return result["code"], set(result["scipy"])


def command(tmp_path, name):
    return (name, "--config", str(SMALL), "--out", str(tmp_path / "out"))


def test_import_loads_no_scipy(tmp_path):
    assert loaded_scipy(tmp_path) == (0, set())


def test_window_loads_no_scipy(tmp_path):
    assert loaded_scipy(tmp_path, *command(tmp_path, "window")) == (0, set())


@pytest.mark.parametrize("name", ["barrier", "pairs", "solve", "sweep"])
def test_command_loads_only_its_scipy(tmp_path, name):
    # none: the Beta functions, the root finders and the Newton systems are
    # all computed in numpy or plain Python
    assert loaded_scipy(tmp_path, *command(tmp_path, name)) == (0, set())


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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(SMALL),
                           str(tmp_path / "out")], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    codes = json.loads(done.stdout.splitlines()[-1])
    assert codes == {"window": 0, "barrier": 0, "pairs": 0, "solve": 0, "sweep": 0}
