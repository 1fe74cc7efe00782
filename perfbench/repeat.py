"""Run the benchmark untraced once per seed and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workload mesh-ladder --seeds 1-10 [--json FILE]

For every metric it prints the median of the runs and the distance between
their first and third quartiles as a share of the median, the spread the
end-to-end bounds in BENCHMARK.json are set against.  --json writes the
same summary, with the failed_ops_ratio each run printed, to FILE.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    values, units, ratios = {}, {}, []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        ratio = re.search(r"^failed_ops_ratio\s+(\S+)", proc.stdout, re.M)
        ratios.append(float(ratio.group(1)))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_ops_ratio={ratios[-1]}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "iqr_share": spread,
                         "unit": units[name], "values": vals}
        print(f"{name:58s} median {median:.6g} {units[name]}  iqr/median {spread:.4f}")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "failed_ops_ratio": ratios, "metrics": summary}, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
