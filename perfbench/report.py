"""Repeat benchmark runs and report each metric's median and spread.

Usage (from the root of a checkout):

    python3 perfbench/report.py --seeds 1-10 [--workloads certify,sync]
        [--seconds 30] [--trace 0,1] [--sets 2] [--out FILE]

Runs perfbench/run.py once per set, seed, workload and trace mode, one run
at a time (seeds in the outer loop, so slow drift of the machine spreads
over all workloads).  For every workload and metric, with its unit, it
prints the median and the spread: the distance between the first and
third quartiles over the seeds, as a share of the median.  Failed
operations are reported against those attempted.  --out writes every
run's result, the summary and the machine's facts as JSON.

With --seeds 1 --trace 0,1 it is one command that prints every
end-to-end and every per-layer metric of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["certify", "markers", "counting", "sync"]


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median) as statistics.quantiles(n=4) gives them."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else None


def machine() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        facts["cpu"] = platform.processor()
    for module in ("numpy", "mpmath", "click"):
        code = f"import importlib.metadata as m; print(m.version({module!r}))"
        facts[module] = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True).stdout.strip()
    return facts


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    begun = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    took = time.perf_counter() - begun
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return dict(json.loads(proc.stdout.splitlines()[-1]), run_s=took)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", default="0", help="trace modes to run, 0, 1 or 0,1")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    names = args.workloads.split(",")

    runs = []
    for run_set in range(1, args.sets + 1):
        for seed in seeds(args.seeds):
            for workload in names:
                for trace in map(int, args.trace.split(",")):
                    result = run_once(workload, seed, args.seconds, trace)
                    runs.append(dict(result, set=run_set, workload=workload, seed=seed, trace=trace))
                    values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                                      if k in ("setup_s", "wall_s", "peak_rss_mb"))
                    print(f"set {run_set} seed {seed} {workload} trace {trace}: {values} failed "
                          f"{result['failed']}/{result['attempted']} run {result['run_s']:.1f} s", flush=True)

    summary: dict = {}
    for run_set in range(1, args.sets + 1):
        for workload in names:
            mine = [r for r in runs if r["set"] == run_set and r["workload"] == workload]
            rows = summary.setdefault(workload, {}).setdefault(f"set{run_set}", {})
            rows["failed/attempted"] = f"{sum(r['failed'] for r in mine)}/{sum(r['attempted'] for r in mine)}"
            rows["run_s_max"] = max(r["run_s"] for r in mine)
            metrics = {m: e["unit"] for r in mine for m, e in r["metrics"].items()}
            for metric, unit in metrics.items():
                values = [r["metrics"][metric]["value"] for r in mine if metric in r["metrics"]]
                if len(values) > 1:
                    median, share = spread(values)
                    rows[metric] = {"median": median, "spread": share, "unit": unit}
                else:
                    rows[metric] = {"value": values[0], "unit": unit}
    print(json.dumps(summary, indent=1))
    if args.out:
        with open(args.out, "w") as fh:
            settings = {k: v for k, v in vars(args).items() if k != "out"}
            json.dump({"machine": machine(), "args": settings, "summary": summary, "runs": runs}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
