"""Snapshot the benchmark into BENCH_<label>.json at the root of the checkout.

Usage (from anywhere):

    python3 scripts/bench_snapshot.py LABEL

Runs perfbench/run.py of this checkout once per workload, at --trace 0
(the end-to-end metrics) and at --trace 1 (the per-layer times and
counters), one run at a time, and keeps the last line each run prints,
its JSON result.  A run that exits nonzero or prints no JSON stops the
snapshot with its stderr, and no file is written.  A PR that claims a
speed-up commits its own snapshot beside BENCH_baseline.json, taken on
the same machine.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["certify", "markers", "counting", "sync"]
# fixed, so that snapshots taken at different commits stay comparable
SEED = 1
SECONDS = 10.0


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} --trace {trace} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output, BENCH_<label>.json")
    args = parser.parse_args()
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            runs[f"{workload} --trace {trace}"] = run(workload, trace)
            print(f"{workload} --trace {trace}: done", file=sys.stderr)
    snapshot = {
        "label": args.label,
        "seed": SEED,
        "seconds": SECONDS,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
