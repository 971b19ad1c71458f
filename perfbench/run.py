"""Benchmark of the xbifix toolkit.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: certify, markers, counting, sync (see workloads.py for what
each runs and why).  A run repeats passes of the workload, each in a fresh
interpreter started from this process, one at a time, for at most
--seconds (at least one pass, at least one traced and one untraced pass
with --trace 1).  The program's caches therefore start cold in every pass,
as they do for a user of the command line.  Every operation's output is
checked against the benchmark's own reference code.

--trace 0 reports the end-to-end metrics, as medians over the run's passes:
  setup_s      spawn of a pass's process to its first operation
               (interpreter, imports, inputs); at least 7 samples per run
  wall_s       first operation's start to the last one's end
  peak_rss_mb  peak resident set of a pass's process and its children
The two times are given at the reference host speed: the host's speed is
probed all through each untraced pass (speed.py), and each stretch of the
program's work is scaled by REFERENCE_S over the probe's duration around
it.  The raw times are printed beside them.
--trace 1 alternates untraced and traced passes and reports per-layer self
times and counts from the traced ones (raw, not scaled), plus
trace.overhead_ratio, the traced pass's wall time over the untraced one's,
minus 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 2 means the program
is not there to measure; 1 means a pass could not run at all.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from spans import CLI_SPANS, LAYER_FUNCTIONS  # noqa: E402

WORKLOADS = ["certify", "markers", "counting", "sync"]
SETUP_SAMPLES = 7
# the whole run has to end within 180 s
RUN_LIMIT = 170.0
KILL_GRACE = 5.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    [f"{span}_s" for _, _, span, _ in LAYER_FUNCTIONS]
    + [f"{span}_s" for span in CLI_SPANS]
    + [
        "words.cross_pair_ok_calls", "words.verified_words", "clique.nodes", "clique.edges",
        "clique.nodes_per_s", "fibonacci.fib_calls", "fibonacci.closed_form_evals",
        "sim.trials", "sim.symbols", "sim.truncated", "sim.short_wait.trials_per_s",
        "sim.long_wait.symbols_per_s", "trace.overhead_ratio", "trace.span_coverage",
    ]
)


class BenchError(Exception):
    pass


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("trace."):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # np.roots must not fan out over threads; no child runs concurrently
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, traced: bool, setup_only: bool, timeout: float) -> tuple[dict, float]:
    """One pass in a fresh interpreter: (its result, its peak RSS in MB,
    children included)."""
    before = speed.Track()
    before.sample(speed.AROUND_OPS)
    spawned = time.perf_counter()
    # the worker stops the commands it runs by the deadline; the grace
    # period lets it do so before it is killed itself
    deadline = spawned + timeout - KILL_GRACE
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(traced)),
           repr(spawned), repr(deadline)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        # wait4, unlike wait, reports the peak RSS of the process and of
        # every descendant it waited for
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass exited with {proc.returncode}")
    result = json.loads(lines[-1])
    # set-up at the reference speed, by the probes just before the spawn
    # and just after the set-up
    probe_s = (before.summary()["probe_median_s"] + result["setup_probe_s"]) / 2
    result["scaled_setup_s"] = result["setup_s"] * speed.REFERENCE_S / probe_s
    return result, usage.ru_maxrss / 1024


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    """Passes for at most `seconds`; then set-up probes, with --trace 0,
    until there are SETUP_SAMPLES set-up times."""
    start = time.perf_counter()
    passes, durations = [], []
    while True:
        traced = trace and len(passes) % 2 == 1
        begun = time.perf_counter()
        result, rss = run_worker(workload, seed, traced, False, RUN_LIMIT - (begun - start))
        durations.append(time.perf_counter() - begun)
        passes.append(dict(result, traced=traced, peak_rss_mb=rss, took=durations[-1]))
        spent = time.perf_counter() - start
        if (not trace or len(passes) >= 2) and spent + statistics.median(durations) > seconds:
            break
    setups = [p["scaled_setup_s"] for p in passes if not p["traced"]]
    while not trace and len(setups) < SETUP_SAMPLES:
        result, _ = run_worker(workload, seed, False, True, RUN_LIMIT - (time.perf_counter() - start))
        setups.append(result["scaled_setup_s"])
    return passes, setups


def summarize(passes: list[dict], setups: list[float], trace: bool) -> dict:
    plain = [p for p in passes if not p["traced"]]
    if not trace:
        return {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["scaled_wall_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    traced = [p for p in passes if p["traced"]]
    metrics = {
        m: statistics.median(p["layers"][m] for p in traced)
        for m in PER_LAYER
        if m != "trace.overhead_ratio"
    }
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_ratio"] = statistics.median(p["wall_s"] for p in traced) / untraced_wall - 1
    return metrics


def report(workload: str, passes: list[dict], setups: list[float], metrics: dict) -> None:
    """Human-readable lines ahead of the JSON line."""
    print(f"workload {workload}: {len(passes)} passes, {len(setups)} set-up samples")
    for i, p in enumerate(passes):
        kind = "traced" if p["traced"] else "untraced"
        scaled = f" (scaled {p['scaled_setup_s']:.3f} s, {p['scaled_wall_s']:.3f} s)" if not p["traced"] else ""
        print(f"  pass {i} ({kind}): setup {p['setup_s']:.3f} s, wall {p['wall_s']:.3f} s{scaled}, "
              f"process {p['took']:.3f} s, peak {p['peak_rss_mb']:.1f} MB, "
              f"{p['failed']}/{p['attempted']} failed")
    groups: dict[str, list] = {}
    for record in passes[0]["ops"]:
        groups.setdefault(record["op"].split(" ")[0], []).append(record)
    for group, records in groups.items():
        print(f"  {group}: {len(records)} ops, {sum(r['s'] for r in records):.3f} s in pass 0")
    for record in passes[0]["ops"]:
        extra = {k: v for k, v in record.items() if k not in ("op", "s", "ok")}
        if extra or len(passes[0]["ops"]) <= 20:
            print(f"    {record['op']}: {record['s']:.3f} s {extra or ''}")
    failures = [f for p in passes for f in p["failures"]]
    for f in failures[:20]:
        print(f"  FAILED {f}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit(name)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "xbifix" / "__init__.py").is_file():
        print(f"error: no xbifix source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile once, so the first pass does not pay for it alone
    compileall.compile_dir(ROOT / "src", quiet=1)
    try:
        passes, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = summarize(passes, setups, bool(args.trace))
    report(args.workload, passes, setups, metrics)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
