"""One pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWNED_AT DEADLINE [--setup-only]

SPAWNED_AT is the parent's time.perf_counter() just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so the set-up time covers interpreter start, imports and input generation.
Commands the pass runs are stopped at DEADLINE, on the same clock.
Prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Optional

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _run(ops: list[workloads.Op], tracer: Optional[spans.Tracer],
         track: Optional[speed.Track]) -> list[tuple]:
    """(output, error, seconds) of each operation, run one at a time;
    with a track, the host's speed is probed after each one."""
    outputs = []
    for op in ops:
        start = time.perf_counter()
        span = tracer.open(f"op:{op.label}") if tracer is not None else None
        try:
            out, error = op.run(), None
        except Exception as exc:  # the failure is the operation's outcome
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            if span is not None:
                tracer.close(span)
        outputs.append((out, error, time.perf_counter() - start))
        if track is not None:
            track.sample(speed.AROUND_OPS)
    return outputs


def execute(ops: list[workloads.Op], tracer: Optional[spans.Tracer] = None,
            track: Optional[speed.Track] = None, timer: bool = False) -> tuple[list[dict], list[str], float]:
    """Run the operations one at a time, then check their outputs:
    (a record per operation, the problems found, the time from the first
    operation's start to the last one's end).

    With a speed track, the host's speed is probed before the first
    operation and after the last one, and in between either by the timer
    (`timer`, for operations that run in this process) or around each
    operation."""
    timer = timer and track is not None
    if track is not None:
        track.sample(speed.AROUND_OPS)
        if timer:
            track.start_timer()
    try:
        first = time.perf_counter()
        outputs = _run(ops, tracer, None if timer else track)
    finally:
        if timer:
            track.stop_timer()
    last = time.perf_counter()
    if timer:
        track.sample(speed.AROUND_OPS)
    wall = last - first

    records, failures = [], []
    for op, (out, error, seconds) in zip(ops, outputs):
        info: dict = {}
        problems = [error] if error else []
        if not error:
            try:
                problems, info = op.check(out)
            except Exception as exc:  # a malformed output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        failures += [f"{op.label}: {p}" for p in problems]
        records.append({"op": op.label, "s": seconds, "ok": not problems, **info})
    return records, failures, wall


def run_pass(name: str, seed: int, traced: bool, spawned_at: float, deadline: float,
             setup_only: bool = False) -> dict:
    workdir = ROOT / ".perfbench" / name
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if traced else None
    if tracer is not None and name in workloads.IN_PROCESS:
        spans.install(tracer)
    # the host's speed is probed in untraced passes only, which alone give
    # the end-to-end metrics
    track = None if traced else speed.Track()
    ctx = workloads.Context(seed=seed, workdir=workdir, tracer=tracer, track=track, deadline=deadline)
    ops = workloads.WORKLOADS[name](ctx)
    first = time.perf_counter()
    result: dict = {"setup_s": first - spawned_at}
    # the host's speed just after set-up; the parent probed it just before
    after_setup = speed.Track()
    after_setup.sample(speed.AROUND_OPS)
    result["setup_probe_s"] = after_setup.summary()["probe_median_s"]
    if setup_only:
        return result

    records, failures, wall = execute(ops, tracer, track, timer=name in workloads.IN_PROCESS)
    if track is not None:
        # the probes' own time is not the program's
        summary = track.summary()
        wall, result["scaled_wall_s"] = summary["raw_s"], summary["scaled_s"]
        result["probes"] = summary["probes"]
    result.update(
        wall_s=wall,
        attempted=len(records),
        failed=sum(not r["ok"] for r in records),
        failures=failures,
        ops=records,
    )
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, wall)
        tracer.save(ROOT / ".perfbench" / f"trace-{name}.npz")
    return result


def main() -> None:
    name, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    spawned_at, deadline = float(sys.argv[4]), float(sys.argv[5])
    print(json.dumps(run_pass(name, seed, trace, spawned_at, deadline, setup_only="--setup-only" in sys.argv[6:])))


if __name__ == "__main__":
    main()
