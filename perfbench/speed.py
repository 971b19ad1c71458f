"""A probe of the host's speed, taken all through a pass, to scale the
pass's wall time to a reference speed.

The benchmark runs on a few cores of a shared host whose speed moves by
tens of percent within a second and drifts over minutes; CPU time moves
with wall time, so it is no way out.  The probe is a fixed piece of
interpreter work (dict and set lookups on tuple keys, integer arithmetic)
that allocates no container, so it leaves the program's garbage collector
alone.  A timer runs it every PERIOD_S in the process doing the program's
work, the pass's own or a command's (cli_runner.py), so it is interleaved
with that work and never beside it, and slows down when the work does.
In passes repeated on the reference host this cut the spread of a pass's
wall time (quartile distance over median) from 8-25% to 2-6%.

`Track` records when each probe ran.  The time between two probes is the
program's work; `summary` rescales each such gap by REFERENCE_S over the
probes' duration around it, so a pass reads about the same whatever the
host's speed was while it ran.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# the probe's median duration on the reference host, a 2-vCPU Xeon VM
# (see baseline.json)
REFERENCE_S = 0.0020
# how often a probe interrupts work that runs in the benchmark's process
PERIOD_S = 0.05
# probes in a row before the first operation, after the last one, and
# between two that run in other processes
AROUND_OPS = 10
# probes on each side of a gap whose median duration scales it
WINDOW = 3

_rng = random.Random(20120903)
_WORDS = [tuple(_rng.randrange(3) for _ in range(8)) for _ in range(256)]
_TABLE = {w: i for i, w in enumerate(_WORDS)}
_SUFFIX_OF = [w[4:] for w in _WORDS]
_SUFFIXES = frozenset(_SUFFIX_OF[::3])
_ORDER = [_rng.randrange(256) for _ in range(5000)]


def probe() -> int:
    """The fixed work: looks up 5,000 words and 5,000 suffixes."""
    words, suffix_of, table, suffixes = _WORDS, _SUFFIX_OF, _TABLE, _SUFFIXES
    acc = 0
    for i in _ORDER:
        acc = (acc * 31 + table[words[i]] + (suffix_of[i] in suffixes)) % 1_000_003
    return acc


class Track:
    """Start and end of every probe in a pass, on time.perf_counter()."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []

    def sample(self, repeat: int = 1) -> None:
        for _ in range(repeat):
            start = time.perf_counter()
            probe()
            self.marks.append((start, time.perf_counter()))

    def start_timer(self) -> None:
        """Probe every PERIOD_S, between two bytecodes of whatever the
        process runs, until stop_timer."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def summary(self) -> dict:
        """raw_s: the time between the first probe and the last, less the
        probes; scaled_s: the same at the reference speed."""
        # probes made in other processes are added out of order
        marks = sorted(self.marks)
        durations = [end - start for start, end in marks]
        raw = scaled = 0.0
        for j in range(1, len(marks)):
            gap = marks[j][0] - marks[j - 1][1]
            around = durations[max(j - WINDOW, 0):j + WINDOW]
            raw += gap
            scaled += gap * REFERENCE_S / statistics.median(around)
        return {"raw_s": raw, "scaled_s": scaled, "probes": len(marks),
                "probe_median_s": statistics.median(durations)}
