"""The pqsing benchmark.

    python3 perfbench/run.py --workload mesh-ladder --seed 1 --seconds 50 --trace 0

Run it from the root of a pqsing source tree: it imports the package from
src/ and reads scripts/cfg_small.json and scripts/cfg_reference.json.  It
drives the program only from outside, through `python -m pqsing` child
processes and in-process calls to `pqsing.cli.run`.  Every operation gets a
fresh --out under a temporary directory in the tree, which is removed at
the end, so the tracked files (out_small/ among them) are never written.

Each workload is a closed loop: one client, one operation at a time, from
one process.  The seed draws each operation's --lambda from the middle of
its config's load window (30-70 %, spread evenly per command, see inputs())
and its probe --seed; the program receives only those flags plus
--nodes and --out.

  cold-cli         fresh `python -m pqsing {window,barrier,pairs,solve,sweep}`
                   processes on cfg_small at n=256.  Interpreter start and
                   `import pqsing` are most of each process, so import-graph
                   and cli changes show here and solver kernels barely do.
  solve-reference  warm in-process `solve` on cfg_reference at n=2048, after
                   one warm-up operation.  Dominated by per-call overhead:
                   that_map, lpq_inverse, the descending leg and the
                   third-solution probe.  Not declared in BENCHMARK.json:
                   on a shared two-core host its run-to-run spread exceeded
                   the largest allowed bound.  Run it directly, with
                   repeat.py, when a change targets per-call overhead.
  mesh-ladder      warm in-process `solve` over the rungs (cfg_small, 1024),
                   (cfg_small, 4096), (cfg_reference, 8192),
                   (cfg_reference, 16384).  Per-node array work dominates.

With --trace 0 it runs whole cycles of the workload until --seconds have
passed and prints the end-to-end metrics:

  setup_s      median wall of fresh `pqsing window` processes on the
               workload's first config at its shipped n (interpreter,
               import, window): one before the first operation and one
               after every cycle, so the samples spread over the run
  op_p50_s     median wall per operation (cli_p50_s on cold-cli,
               solve_p50_s on solve-reference; on mesh-ladder one sample
               is a whole climb of the four rungs)
  op_tail_s    the highest percentile with at least ten samples above it
               (the maximum below eleven samples)
  nodes_per_s  grid nodes (n+1) of every operation, per second spent in
               the operations
  peak_rss_mb  peak resident set of this process and its children

Every operation is timed whatever its verdict.  Every output is checked:
the exit code, the printed and written JSON report, and that the report's
certificate verdicts call for that exit code.  An operation whose output
fails a check is counted in "failed" and makes "correct" false.  A verdict
other than exit 0 that its report explains (criterion 7 on the reference
config, the Newton budget on cfg_small at n >= 1024) is a known defect, not
a broken output: it is reported as failed_ops_ratio, with the minimum
certificate margins and the solution sup norms, on the lines before the
JSON result.

With --trace 1 it runs a fixed list of operations (the first cycle of the
seeded inputs, at least four) in process: all once untraced to warm up,
then each untraced and traced back to back.  The tracer wraps each layer's
public functions at the name their caller looks them up under and keeps
spans in memory; the per-layer metrics come from them, and the import
times from fresh `python -X importtime -m pqsing window` processes.  The
counts depend only on the seed.  Two figures are differences of walls
timed separately, so they are bound by the host's noise and can read
below zero: trace.overhead_s, the median over the operations of traced
minus untraced wall, and cli.process_overhead_s, the median over fresh
set-up processes of their wall minus their own `import pqsing` time minus
the same `window` run in process right after.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metrics are those BENCHMARK.json
declares for the mode.  BLAS and OpenMP threads are pinned to one, here and
in every child process.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parents[1]
SMALL = "scripts/cfg_small.json"
REFERENCE = "scripts/cfg_reference.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

Op = collections.namedtuple("Op", "command config nodes lam seed")
Result = collections.namedtuple("Result", "wall code report problems artifact_bytes stderr")

WORKLOADS = {
    "cold-cli": {
        "cold": True,
        "cycle": tuple((c, SMALL, 256) for c in ("window", "barrier", "pairs", "solve", "sweep")),
        "names": {"op_p50_s": "cli_p50_s", "op_tail_s": "cli_tail_s"},
    },
    "solve-reference": {
        "cold": False,
        "cycle": (("solve", REFERENCE, 2048),),
        "names": {"op_p50_s": "solve_p50_s", "op_tail_s": "solve_tail_s"},
    },
    "mesh-ladder": {
        "cold": False,
        "cycle": (("solve", SMALL, 1024), ("solve", SMALL, 4096),
                  ("solve", REFERENCE, 8192), ("solve", REFERENCE, 16384)),
        "names": {},
        "climb": True,
    },
}

COLD_ROUNDS = 5        # fresh set-up processes timed by a traced run
TRACE_MIN_OPS = 4
GOLDEN = (5 ** 0.5 - 1) / 2
OP_TIMEOUT = 150.0     # seconds; one child process
USEFUL_ULPS = 4        # an iteration step below this many ulps of the iterate is stalled
IMPORTS = ("pqsing", "pqsing.nonlinearity", "pqsing.discrete_solver",
           "pqsing.radial_solver", "pqsing.barrier", "scipy.linalg", "scipy.optimize")
SELF_TIMES = (
    "nonlinearity.build_h", "nonlinearity.choose_khat", "nonlinearity.validate",
    "parameter_window.compute_window",
    "radial_solver.solve_radial", "radial_solver.certify_radial_claim",
    "barrier.solve_barrier", "barrier.conservation_residual",
    "barrier.certify_barrier_supersolution",
    "discrete_solver.construct_pairs", "discrete_solver.amann_iterate.from_lower",
    "discrete_solver.amann_iterate.from_upper", "discrete_solver.search_third_solution",
    "discrete_solver.certify", "discrete_solver.that_map", "discrete_solver.solve_banded",
    "pq_core.lpq_inverse", "pq_core.lpq_scalar", "pq_core.lpq_derivative",
)
CALLS = ("nonlinearity.build_h", "nonlinearity.choose_khat", "discrete_solver.that_map",
         "pq_core.lpq_inverse", "pq_core.lpq_scalar", "pq_core.lpq_derivative")


def pin_threads() -> None:
    """One BLAS/OpenMP thread, before numpy loads here or in any child."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src if not path else src + os.pathsep + path
    if src not in sys.path:
        sys.path.insert(0, src)


def shipped_n(config: str) -> int:
    with open(ROOT / config, encoding="utf-8") as fh:
        return int(json.load(fh)["grid"]["n"])


def inputs(workload: str, seed: int, windows: dict):
    """Endless seeded operations: the workload's cycle, each with a load and probe seed.

    Each slot of the cycle steps through the middle of its config's window by
    the golden ratio from a seeded start, so every prefix of a run spreads
    each command's loads evenly over the band; seeds differ in the starting
    phases and the probe seeds.
    """
    rng = random.Random(seed)
    cycle = WORKLOADS[workload]["cycle"]
    phase = [rng.random() for _ in cycle]
    for k in itertools.count():
        for slot, (command, config, nodes) in enumerate(cycle):
            u = (phase[slot] + k * GOLDEN) % 1.0
            lo, hi = windows[config]
            yield Op(command, config, nodes, lo + (hi - lo) * (0.3 + 0.4 * u),
                     rng.randrange(2 ** 31))


def _flags(op: Op, out: Path) -> list:
    args = [op.command, "--config", op.config, "--nodes", str(op.nodes), "--out", str(out)]
    if op.lam is not None:
        args += ["--lambda", repr(op.lam), "--seed", str(op.seed)]
    return args


def run_cold(op: Op, out: Path, xflags=()):
    """One fresh `python -m pqsing` process: (wall, exit code, stdout, stderr)."""
    argv = [sys.executable, *xflags, "-m", "pqsing"] + _flags(op, out)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, -1, "", f"timed out after {OP_TIMEOUT} s"
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def run_warm(op: Op, out: Path, trace=None):
    """One in-process `cli.run` call, optionally under a span: (wall, code, stdout, stderr)."""
    from pqsing import cli

    kwargs = dict(out=str(out), nodes=op.nodes, lam=op.lam, seed=op.seed)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            if trace is None:
                code = cli.run(op.command, str(ROOT / op.config), **kwargs)
            else:
                code = trace.call("cli.run", cli.run, op.command, str(ROOT / op.config), **kwargs)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = -1
    return time.perf_counter() - start, code, stdout.getvalue(), stderr.getvalue()


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def expected_exit(command: str, report: dict):
    """The exit code a report's own verdicts call for, and any inconsistency in it."""
    if command == "window":
        ok = report["nonempty"] and report["lambda_star"] < report["lambda_upper"]
        return (0 if ok else 1), []
    if command == "barrier":
        ok = report["smallest_exponent"]["passed"] and report["supersolution"]["passed"]
        return (0 if ok else 1), []
    if command == "sweep":
        return (0 if report["all_passed"] else 1), []
    problems = []
    if report["all_passed"] != (report["radial_claim"]["passed"] and all(
            c["passed"] for c in report["certificates"].values())):
        problems.append("all_passed disagrees with the certificates")
    if command == "pairs" or not report["all_passed"]:
        return (0 if report["all_passed"] else 1), problems
    lower, upper, gap = report["from_lower"], report["from_upper"], report.get("gap")
    if not lower["sup"] <= upper["sup"]:
        problems.append(f"from_lower.sup {lower['sup']!r} exceeds from_upper.sup {upper['sup']!r}")
    if not isinstance(gap, float) or not gap >= 0.0:
        problems.append(f"gap not reported as a nonnegative number: {gap!r}")
    if not (lower["converged"] and upper["converged"]):
        return 3, problems
    return (0 if report["distinctness"] else 1), problems


def check(op: Op, code: int, stdout: str, stderr: str, out: Path):
    """(report or None, problems) for one operation; no problems means it checks."""
    written = out / f"{op.command}.json"
    if code == 3 and not stdout.strip():
        # a budget or search failure: the stage's message, and no report
        if stderr.startswith("did not converge:") and not written.exists():
            return None, []
        return None, [f"exit 3 without its message: {stderr.strip()[-200:]!r}"]
    if code not in (0, 1, 3):
        return None, [f"exit {code}: {stderr.strip()[-200:]!r}"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return None, [f"printed report does not parse: {exc}"]
    if "error" in report:  # empty window or positivity loss, reported without artifacts
        return report, [] if code == 1 else [f"error report with exit {code}"]
    try:
        with open(written, encoding="utf-8") as fh:
            on_disk = json.load(fh)
        expected, problems = expected_exit(op.command, report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return report, [f"report incomplete: {exc!r}"]
    if on_disk != report:
        problems.append(f"{written.name} differs from the printed report")
    if code != expected:
        problems.append(f"exit {code}, but the report's verdicts call for {expected}")
    return report, problems


def execute(op: Op, out: Path, runner) -> Result:
    """Run one operation on an empty --out and check what it printed and wrote."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wall, code, stdout, stderr = runner(op, out)
    report, problems = check(op, code, stdout, stderr, out)
    return Result(wall, code, report, problems, sum(f.stat().st_size for f in out.iterdir()),
                  stderr)


class Outcomes:
    """What the checked operations of one run add up to."""

    def __init__(self):
        self.walls = []
        self.nodes = 0
        self.nonzero = 0
        self.failed = 0
        self.problems = []
        self.margins = {}
        self.sups = {}

    def add(self, op: Op, result: Result, timed=True):
        """Record a result; untimed ones (set-up, warm-up) only report problems."""
        self.problems += [f"{op.command} {op.config} n={op.nodes} lambda={op.lam!r}: {p}"
                          for p in result.problems]
        if not timed:
            return
        self.walls.append(result.wall)
        self.nodes += op.nodes + 1
        self.nonzero += result.code != 0
        self.failed += bool(result.problems)
        if result.report is not None:
            self._observe(op, result.report)

    def _observe(self, op: Op, report: dict):
        certs = dict(report.get("certificates", {}))
        for key in ("radial_claim", "smallest_exponent", "supersolution"):
            if isinstance(report.get(key), dict):
                certs[key] = report[key]
        for name, cert in certs.items():
            m = cert.get("min_margin")
            if isinstance(m, float) and m == m:
                key = f"{op.command}.{name}"
                self.margins[key] = min(m, self.margins.get(key, m))
        for leg in ("from_lower", "from_upper"):
            if leg in report:
                key = f"{os.path.basename(op.config)}.n{op.nodes}.{leg}.sup"
                lo, hi = self.sups.get(key, (report[leg]["sup"], report[leg]["sup"]))
                self.sups[key] = (min(lo, report[leg]["sup"]), max(hi, report[leg]["sup"]))


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def tail(values):
    """Highest percentile with at least ten samples above it; the maximum below eleven."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def configs(workload: str) -> list:
    return list(dict.fromkeys(c for _cmd, c, _n in WORKLOADS[workload]["cycle"]))


def set_up(config: str, out: Path, outcomes: Outcomes, xflags=()) -> Result:
    """One fresh, checked `pqsing window` process on a config at its shipped n."""
    op = Op("window", config, shipped_n(config), None, None)
    result = execute(op, out, lambda op, out: run_cold(op, out, xflags))
    outcomes.add(op, result, timed=False)
    return result


def load_windows(workload: str, out: Path, outcomes: Outcomes):
    """Set up once on each config: (the first config's set-up wall, each config's window)."""
    walls, windows = [], {}
    for config in configs(workload):
        result = set_up(config, out, outcomes)
        walls.append(result.wall)
        if result.report is not None and not result.problems and result.report.get("nonempty"):
            windows[config] = (result.report["lambda_star"], result.report["lambda_upper"])
        else:
            raise RuntimeError(f"no load window for {config}: {outcomes.problems}")
    return walls[0], windows


def measure(workload: str, seed: int, seconds: float, tmp: Path):
    """The untraced run: end-to-end metrics and the checked outcomes."""
    spec = WORKLOADS[workload]
    out = tmp / "out"
    outcomes = Outcomes()
    first_setup, windows = load_windows(workload, out, outcomes)
    setups = [first_setup]
    ops = inputs(workload, seed, windows)
    runner = run_cold if spec["cold"] else run_warm
    if not spec["cold"]:
        op = next(ops)
        outcomes.add(op, execute(op, out, runner), timed=False)
    start = time.perf_counter()
    busy = 0.0
    while not outcomes.walls or time.perf_counter() - start < seconds:
        cycle_start = time.perf_counter()
        for op in itertools.islice(ops, len(spec["cycle"])):
            outcomes.add(op, execute(op, out, runner))
        busy += time.perf_counter() - cycle_start
        # one set-up per cycle, so that no single phase of the host decides setup_s
        setups.append(set_up(configs(workload)[0], out, outcomes).wall)
    elapsed = time.perf_counter() - start
    # a median over mixed rungs would fall between their clusters, so the
    # ladder's latency sample is one whole climb
    step = len(spec["cycle"]) if spec.get("climb") else 1
    latencies = [sum(outcomes.walls[i:i + step]) for i in range(0, len(outcomes.walls), step)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail(latencies), "s"),
        "nodes_per_s": (outcomes.nodes / busy, "nodes/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, outcomes, elapsed, len(latencies)


def import_times(stderr: str) -> dict:
    """Cumulative import time of each module in IMPORTS, from `-X importtime` output."""
    seen = {}
    for line in stderr.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            seen[fields[2].strip()] = int(fields[1]) * 1e-6
    return {module: seen.get(module, 0.0) for module in IMPORTS}


def instrument(trace: tracer.Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    import numpy as np
    from pqsing import barrier, cli, nonlinearity, parameter_window, radial_solver
    from pqsing import discrete_solver as ds

    counts = trace.counts

    def flux(from_solver):
        def hook(args, kwargs, result):
            counts["pq_core.flux_bytes_computed"] += 8 * int(np.size(args[0]))
            if from_solver:
                counts["discrete_solver.flux_evals"] += 1
        return hook

    def newton_step(args, kwargs, result):
        if trace.active("discrete_solver.that_map"):
            counts["discrete_solver.newton_steps_in_that_map"] += 1

    def useful_steps(args, kwargs, result):
        leg = "discrete_solver.amann_iterate." + result.start
        counts[leg + ".steps"] += result.n_steps
        counts[leg + ".useful_steps"] += sum(
            int(inc > USEFUL_ULPS * np.spacing(it.sup_norm()))
            for inc, it in zip(result.increments, result.iterates[1:]))

    for module in (ds, nonlinearity, parameter_window, barrier):
        trace.wrap(module, "lpq_scalar", "pq_core.lpq_scalar", flux(module is ds))
    trace.wrap(ds, "lpq_derivative", "pq_core.lpq_derivative", flux(True))
    for module in (ds, radial_solver):
        trace.wrap(module, "lpq_inverse", "pq_core.lpq_inverse")
    for module in (cli, ds):
        trace.wrap(module, "validate", "nonlinearity.validate")
    trace.wrap(cli, "build_h", "nonlinearity.build_h")
    trace.wrap(ds, "choose_khat", "nonlinearity.choose_khat")
    trace.wrap(cli, "compute_window", "parameter_window.compute_window")
    for attr in ("solve_radial", "certify_radial_claim"):
        trace.wrap(cli, attr, "radial_solver." + attr)
    for attr in ("solve_barrier", "conservation_residual", "certify_barrier_supersolution"):
        trace.wrap(cli, attr, "barrier." + attr)
    for attr in ("construct_pairs", "search_third_solution", "certify", "that_map"):
        trace.wrap(ds, attr, "discrete_solver." + attr)
    trace.wrap(ds, "amann_iterate",
               lambda args, kwargs: "discrete_solver.amann_iterate." + kwargs.get("start", args[4]),
               useful_steps)
    trace.wrap(ds, "solve_banded", "discrete_solver.solve_banded", newton_step)


def trace_ops(ops, out: Path, outcomes: Outcomes):
    """Run each op untraced, then traced, back to back.

    Returns the tracer, the traced minus untraced wall of each op, and the
    bytes the traced runs wrote.  The wrappers are in place only while an
    op runs traced; spans and counts accumulate over the ops.
    """
    trace, overheads, size = tracer.Tracer(), [], 0
    for i, op in enumerate(ops):
        plain = execute(op, out, run_warm)
        outcomes.add(op, plain, timed=False)
        trace.op = i
        with trace:
            instrument(trace)
            result = execute(op, out, lambda op, out: run_warm(op, out, trace))
        outcomes.add(op, result)
        overheads.append(result.wall - plain.wall)
        size += result.artifact_bytes
    return trace, overheads, size


def layer_metrics(trace: tracer.Tracer) -> dict:
    """Per-layer metrics computed from one tracer's spans and counts."""
    counts, calls, self_s = trace.counts, trace.calls(), trace.self_times()
    m = {f"{name}.self_s": (self_s.get(name, 0.0), "s") for name in SELF_TIMES}
    m.update({f"{name}.calls": (calls[name], "count") for name in CALLS})
    that_maps = calls["discrete_solver.that_map"]
    m.update({
        "cli.run_s": (trace.total_times().get("cli.run", 0.0), "s"),
        "discrete_solver.that_map.failed": (counts["discrete_solver.that_map.failed"], "count"),
        "discrete_solver.newton_steps": (calls["discrete_solver.solve_banded"], "count"),
        "discrete_solver.newton_steps_per_that_map": (
            counts["discrete_solver.newton_steps_in_that_map"] / max(that_maps, 1), "ratio"),
        "discrete_solver.flux_evals": (counts["discrete_solver.flux_evals"], "count"),
        "pq_core.flux_bytes_computed": (counts["pq_core.flux_bytes_computed"], "B"),
    })
    for leg in ("from_lower", "from_upper"):
        key = "discrete_solver.amann_iterate." + leg
        m[key + ".useful_step_ratio"] = (
            counts[key + ".useful_steps"] / max(counts[key + ".steps"], 1), "ratio")
    return m


def traced(workload: str, seed: int, tmp: Path, spans=None):
    """The traced run: per-layer metrics over a fixed, seeded list of operations."""
    spec = WORKLOADS[workload]
    out = tmp / "out"
    outcomes = Outcomes()
    _wall, windows = load_windows(workload, out, outcomes)
    ops = list(itertools.islice(inputs(workload, seed, windows),
                                max(len(spec["cycle"]), TRACE_MIN_OPS)))
    config = configs(workload)[0]
    window_op = Op("window", config, shipped_n(config), None, None)
    for op in ops + [window_op]:  # warm-up
        outcomes.add(op, execute(op, out, run_warm), timed=False)
    imports, process_overheads = collections.defaultdict(list), []
    for _ in range(COLD_ROUNDS):
        cold = set_up(config, out, outcomes, ("-X", "importtime"))
        warm = execute(window_op, out, run_warm)
        outcomes.add(window_op, warm, timed=False)
        for module, seconds in import_times(cold.stderr).items():
            imports[module].append(seconds)
        process_overheads.append(cold.wall - imports["pqsing"][-1] - warm.wall)
    start = time.perf_counter()
    trace, overheads, artifact_bytes = trace_ops(ops, out, outcomes)
    elapsed = time.perf_counter() - start
    if spans is not None:
        trace.write(spans)
    metrics = {f"import.{m}_s": (statistics.median(v), "s") for m, v in imports.items()}
    metrics.update(layer_metrics(trace))
    metrics.update({
        "cli.process_overhead_s": (statistics.median(process_overheads), "s"),
        "cli.artifact_bytes": (artifact_bytes, "B"),
        "cli.exit_nonzero": (outcomes.nonzero, "count"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
    })
    return metrics, outcomes, elapsed, len(ops)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def environment() -> str:
    versions = " ".join(f"{pkg}={metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"nproc={os.cpu_count()} python={platform.python_version()} {versions} "
            f"{threads} closed-loop clients=1")


def declared(mode: str) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[mode]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1, write the spans here as JSON lines")
    args = parser.parse_args(argv)
    missing = [p for p in ("src/pqsing/cli.py", SMALL, REFERENCE, "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"not a pqsing source tree ({ROOT}): missing {', '.join(missing)}\n")
        return 2
    pin_threads()
    names = declared("per_layer" if args.trace else "end_to_end")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            metrics, outcomes, elapsed, samples = traced(args.workload, args.seed, Path(tmp),
                                                         args.spans)
        else:
            metrics, outcomes, elapsed, samples = measure(args.workload, args.seed,
                                                          args.seconds, Path(tmp))

    aliases = WORKLOADS[args.workload]["names"]
    attempted = len(outcomes.walls)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations in {elapsed:.3f} s")
    print(f"# {environment()}")
    for name, (value, unit) in metrics.items():
        label = f"{aliases[name]} ({name})" if name in aliases else name
        print(f"{label:58s} {value!r} {unit}")
    if not args.trace:
        share = 100.0 * (samples - 10) / samples if samples > 10 else 100.0
        print(f"{'op_tail_s percentile':58s} {share:.1f} % of {samples} latency samples")
    print(f"{'failed_ops_ratio':58s} {outcomes.nonzero / attempted!r} "
          f"({outcomes.nonzero} of {attempted} verdicts not exit 0)")
    for key, value in sorted(outcomes.margins.items()):
        print(f"{'min_margin.' + key:58s} {value!r}")
    for key, (lo, hi) in sorted(outcomes.sups.items()):
        print(f"{'sup.' + key:58s} {lo!r} .. {hi!r}")
    for problem in outcomes.problems:
        print(f"# FAILED CHECK {problem}")
    print(json.dumps({
        "correct": not outcomes.problems,
        "attempted": attempted,
        "failed": outcomes.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
