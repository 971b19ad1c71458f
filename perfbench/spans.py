"""In-memory spans around calls into the program's public functions.

The program imports its functions by name (``from .words import
cross_pair_ok``), so a wrapper has to replace the name in every xbifix
module that holds it, not only in the defining module.  `install` does
that; nothing in the program is edited.

A span is (name, start, end, parent).  A layer's number is its self time:
the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Optional

Hook = Callable[[dict, tuple, object, float], None]


def _verified_words(counters, args, result, seconds):
    counters["words.verified_words"] += len(args[0])


def _edges(counters, args, result, seconds):
    counters["clique.edges"] += result.edge_count()


def _nodes(counters, args, result, seconds):
    counters["clique.nodes"] += result.nodes_explored


# a mean wait of at most this many symbols counts as a short wait
SHORT_WAIT = 1024


def _sim(counters, args, result, seconds):
    cfg = args[0]
    symbols = round(result.mean * result.samples)
    counters["sim.trials"] += cfg.trials
    counters["sim.symbols"] += symbols
    counters["sim.truncated"] += result.truncated
    regime = "short_wait" if cfg.code.q**cfg.code.n <= SHORT_WAIT * len(cfg.code) else "long_wait"
    counters[f"sim.{regime}.trials"] += cfg.trials
    counters[f"sim.{regime}.symbols"] += symbols
    counters[f"sim.{regime}.s"] += seconds


# (module, function, span name, counter hook)
LAYER_FUNCTIONS: list[tuple[str, str, str, Optional[Hook]]] = [
    ("words", "cross_pair_ok", "words.cross_pair_ok", None),
    ("words", "verify_code", "words.verify_code", _verified_words),
    ("words", "find_violation", "words.find_violation", None),
    ("words", "find_expansion", "words.find_expansion", None),
    ("words", "read_code", "words.read_code", None),
    ("words", "write_code", "words.write_code", None),
    ("construction", "generate_direct", "construction.generate_direct", None),
    ("construction", "best_size", "construction.best_size", None),
    ("fibonacci", "fib", "fibonacci.fib", None),
    ("fibonacci", "fib_closed_form", "fibonacci.fib_closed_form", None),
    ("fibonacci", "find_alpha", "fibonacci.find_alpha", None),
    ("fibonacci", "beta_bracket", "fibonacci.beta_bracket", None),
    ("fibonacci", "other_roots_inside_unit_disk", "fibonacci.other_roots", None),
    ("bounds", "bounds_report", "bounds.bounds_report", None),
    ("bounds", "asymptotic_probe", "bounds.asymptotic_probe", None),
    ("clique", "build_graph", "clique.build_graph", _edges),
    ("clique", "max_clique", "clique.max_clique", _nodes),
    ("sim", "run_sim", "sim.run_sim", _sim),
]

# span names whose call count is a per-layer metric
CALL_COUNTS = {
    "words.cross_pair_ok": "words.cross_pair_ok_calls",
    "fibonacci.fib": "fibonacci.fib_calls",
    "fibonacci.fib_closed_form": "fibonacci.closed_form_evals",
}

# spans the benchmark records around subprocesses of the command line
CLI_SPANS = ["cli.startup", "cli.gen", "cli.verify", "cli.sim"]


class Tracer:
    """Spans kept in typed arrays (no object per span), plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, span: str, hook: Optional[Hook] = None):
        nid = self._id(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self.stack, self.counters, time.perf_counter

        # open and close, inlined: certify runs this around 2 million calls
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result, ends[i] - starts[i])
            return result

        traced.__wrapped__ = fn
        return traced

    def merge(self, dump: dict, parent: int) -> None:
        """Adopt spans and counters written by a traced subprocess; its
        root spans become children of `parent`."""
        base = len(self.start)
        for nid, p, s, e in dump["spans"]:
            self.name.append(self._id(dump["names"][nid]))
            self.parent.append(parent if p < 0 else base + p)
            self.start.append(s)
            self.end.append(e)
        for key, value in dump["counters"].items():
            self.counters[key] += value

    def write_json(self, path) -> None:
        """Write spans and counters for `merge` in another process."""
        spans = [list(t) for t in zip(self.name, self.parent, self.start, self.end)]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": spans, "counters": self.counters}, fh)

    def arrays(self):
        """(name, parent, start, end) as numpy views of the span arrays."""
        import numpy as np

        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def save(self, path) -> None:
        """Write every span, in a compact numpy archive."""
        import numpy as np

        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        import numpy as np

        name, parent, start, end = self.arrays()
        duration = end - start
        covered = np.zeros(len(duration))
        child = parent >= 0
        np.add.at(covered, parent[child], duration[child])
        own = np.bincount(name, weights=duration - covered, minlength=len(self.names))
        return {n: float(own[i]) for i, n in enumerate(self.names)}

    def call_counts(self) -> dict[str, int]:
        import numpy as np

        counts = np.bincount(self.arrays()[0], minlength=len(self.names))
        return {n: int(counts[i]) for i, n in enumerate(self.names)}

    def root_time(self, prefix: str) -> float:
        """Total duration of the root spans whose name starts with prefix."""
        import numpy as np

        name, parent, start, end = self.arrays()
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        mask = (parent < 0) & np.isin(name, ids)
        return float((end - start)[mask].sum())


def install(tracer: Tracer) -> None:
    """Replace each layer function, in every loaded xbifix module that
    holds it by name, with a wrapper recording a span around the call."""
    import xbifix  # noqa: F401  (loads every submodule)

    modules = [m for name, m in sys.modules.items() if name == "xbifix" or name.startswith("xbifix.")]
    for module, function, span, hook in LAYER_FUNCTIONS:
        original = getattr(sys.modules[f"xbifix.{module}"], function)
        traced = tracer.wrap(original, span, hook)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, traced)


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass: self time per layer function,
    call counts, counters, rates, and how much of the pass the
    operations' spans cover."""
    own = tracer.self_times()
    calls = tracer.call_counts()
    c = tracer.counters
    out: dict[str, float] = {}
    for _, _, span, _ in LAYER_FUNCTIONS:
        out[f"{span}_s"] = own.get(span, 0.0)
    for span in CLI_SPANS:
        out[f"{span}_s"] = own.get(span, 0.0)
    for span, metric in CALL_COUNTS.items():
        out[metric] = calls.get(span, 0)
    for key in ("words.verified_words", "clique.edges", "clique.nodes",
                "sim.trials", "sim.symbols", "sim.truncated"):
        out[key] = c[key]
    out["clique.nodes_per_s"] = _rate(c["clique.nodes"], own.get("clique.max_clique", 0.0))
    out["sim.short_wait.trials_per_s"] = _rate(c["sim.short_wait.trials"], c["sim.short_wait.s"])
    out["sim.long_wait.symbols_per_s"] = _rate(c["sim.long_wait.symbols"], c["sim.long_wait.s"])
    out["trace.span_coverage"] = tracer.root_time("op:") / wall
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
