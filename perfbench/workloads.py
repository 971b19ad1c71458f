"""The four workloads: which operations each runs, with which inputs, and
how each operation's output is checked.

A workload function takes a `Context` and returns its operations.  Inputs
come from the seed; everything the program computes is checked against
`reference`, never against the program itself.  Operations run one at a
time, and checks run after the last one so they stay out of the timing.

- certify: exact optima by clique search, C(n, q) for the rows the
  program certifies without a budget.  Graph build and clique search do
  the work; fibonacci, sim and the command line never run.
- markers: the command-line pipeline of someone designing sync markers,
  each command a fresh process, as users run it.  Word parsing and
  verification dominate; clique search never runs.
- counting: sizes, bounds, the closed form and the root machinery, in
  process.  Only construction, fibonacci and bounds run; words and clique
  are bypassed.  best_size's cost grows with the cube of n here.
- sync: the simulator in process, in two regimes, so that a change to it
  shows: short waits, where per-trial overhead dominates, and one long
  wait, where scanning the stream dominates.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import reference as ref
from spans import Tracer
from speed import Track

HERE = Path(__file__).resolve().parent

# Problems an operation's check found (empty when correct), and counts
# worth printing, such as nodes explored.
Checked = tuple[list[str], dict]


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Checked]


@dataclass
class Context:
    seed: int
    workdir: Path
    tracer: Optional[Tracer] = None
    # takes the probes of the host's speed made in command-line processes
    track: Optional[Track] = None
    # time.perf_counter() by which every command has to be stopped
    deadline: float = math.inf

    def rng_for(self, workload: str) -> random.Random:
        # a string seed is hashed with sha512, so it is the same in every process
        return random.Random(f"{workload}:{self.seed}")


def _call(module, name: str, *args) -> Callable[[], object]:
    """A call that looks the function up when it runs, so that a traced
    run goes through the wrapper installed on the module."""
    return lambda: getattr(module, name)(*args)


# ---------------------------------------------------------------------------
# certify

# exact optima C(n, q); q=2 from the program's test table, q=3 and q=4 as
# the program certifies them and as networkx confirms for the smaller rows
OPTIMA = {
    2: {3: 1, 4: 1, 5: 2, 6: 3, 7: 5, 8: 8, 9: 14, 10: 24, 11: 44, 12: 81},
    3: {3: 4, 4: 8, 5: 17, 6: 41, 7: 99},
    4: {3: 9, 4: 27, 5: 81},
}


def certify(ctx: Context, optima=OPTIMA) -> list[Op]:
    from xbifix import clique

    def run(n, q):
        graph = clique.build_graph(n, q)
        return graph, clique.max_clique(graph)

    def check(n, q, expected, out) -> Checked:
        graph, result = out
        words = [w.symbols for w in result.witness.sorted_words()]
        problems = []
        if result.size != expected:
            problems.append(f"size {result.size}, expected {expected}")
        if not result.optimal:
            problems.append("not certified optimal")
        if len(words) != result.size:
            problems.append(f"witness has {len(words)} words for size {result.size}")
        if any(len(w) != n or not all(0 <= s < q for s in w) for w in words):
            problems.append("witness word of the wrong length or alphabet")
        elif not ref.is_cross_bifix_free(words):
            problems.append("witness is not cross-bifix-free")
        return problems, {"nodes": result.nodes_explored, "edges": graph.edge_count()}

    return [
        Op(f"certify q={q} n={n}", partial(run, n, q), partial(check, n, q, expected))
        for q, row in optima.items()
        for n, expected in row.items()
    ]


# ---------------------------------------------------------------------------
# markers

# (n, k, q) and the expected nonexpandability verdict: n >= 2k+1 makes the
# code nonexpandable, (8, 5, 2) has k+2 <= n <= 2k and admits an
# expansion, and for (16, 5, 3) q**n is beyond the scan's cap
MARKER_CODES = {
    (16, 5, 2): "yes",
    (10, 3, 3): "yes",
    (8, 5, 2): "no",
    (16, 5, 3): "not checked (instance too large)",
}
CORRUPTED_CODE = (16, 5, 3)
SIM_CODE = (16, 5, 2)
SIM_TRIALS = 2000
# a 5-sigma bound on the sample mean: a correct simulator fails it with
# probability about 6e-7
Z_BOUND = 5.0

VIOLATION = re.compile(r"cross-bifix-free: no \(prefix '(\d+)' of (\w+) is a suffix of (\w+)\)")


def _cli(ctx: Context, span: str, args: list[str]) -> tuple[int, str]:
    """One xbifix command in its own process: (exit code, stdout).  In a
    traced pass the command records spans; otherwise it probes the host's
    speed while it runs, for ctx.track."""
    timeout = max(ctx.deadline - time.perf_counter(), 0.1)
    dump = ctx.workdir / "cli-out.json"
    dump.unlink(missing_ok=True)
    mode = "probes" if ctx.tracer is None else "spans"
    cmd = [sys.executable, str(HERE / "cli_runner.py"), mode, str(dump), *args]
    if ctx.tracer is None:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        if ctx.track is not None:
            with open(dump) as fh:
                ctx.track.marks += map(tuple, json.load(fh))
        return proc.returncode, proc.stdout
    i = ctx.tracer.open(span)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    finally:
        ctx.tracer.close(i)
    with open(dump) as fh:
        ctx.tracer.merge(json.load(fh), i)
    return proc.returncode, proc.stdout


def _read_words(path: Path, n: int, q: int) -> list[tuple[int, ...]]:
    lines = path.read_text().split("\n")
    if lines[0] != f"# xbifix code n={n} q={q}":
        raise ValueError(f"bad header {lines[0]!r}")
    return [tuple(int(c, 36) for c in line) for line in lines[1:] if line]


def _random_codeword(rng: random.Random, n: int, k: int, q: int) -> list[int]:
    while True:
        middle = [rng.randrange(q) for _ in range(n - k - 2)]
        word = [0] * k + [rng.randrange(1, q)] + middle + [rng.randrange(1, q)]
        if ref.has_construction_shape(word, k, q):
            return word


def markers(ctx: Context) -> list[Op]:
    rng = ctx.rng_for("markers")
    files = {code: ctx.workdir / "code_{}_{}_{}.txt".format(*code) for code in MARKER_CODES}
    # a codeword of the largest code shifted left by s, with s random
    # symbols after it: its prefix of length n-s is the codeword's suffix,
    # and it cannot itself have the code's shape, so it is a new word
    n, k, q = CORRUPTED_CODE
    shift = rng.randrange(1, n)
    word = _random_codeword(rng, n, k, q)[shift:] + [rng.randrange(q) for _ in range(shift)]
    corrupted = ctx.workdir / "corrupted.txt"
    sim_seed = rng.randrange(2**32)

    def check_version(out) -> Checked:
        code, stdout = out
        return ([] if code == 0 and "version" in stdout else [f"exit {code}: {stdout!r}"]), {}

    def check_gen(n, k, q, out) -> Checked:
        code, stdout = out
        expected = ref.construction_size(n, k, q)
        path = files[(n, k, q)]
        words = _read_words(path, n, q)
        problems = []
        if code != 0 or stdout.strip() != f"wrote {expected} words to {path}":
            problems.append(f"exit {code}: {stdout!r}")
        if len(words) != expected or len(set(words)) != expected:
            problems.append(f"{len(words)} words ({len(set(words))} distinct), expected {expected}")
        if not all(ref.has_construction_shape(w, k, q) for w in words):
            problems.append("a word lacks the 0^k nonzero ... nonzero shape")
        with open(f"{path}.manifest.json") as fh:
            recorded = json.load(fh)["outputs"][path.name]["sha256"]
        if recorded != hashlib.sha256(path.read_bytes()).hexdigest():
            problems.append("manifest sha256 does not match the file")
        return problems, {"words": len(words)}

    def check_verify(verdict, out) -> Checked:
        code, stdout = out
        expected = f"cross-bifix-free: yes; nonexpandable: {verdict}"
        ok = code == 0 and stdout.strip() == expected
        return ([] if ok else [f"exit {code}: {stdout!r}, expected {expected!r}"]), {}

    def make_corrupted():
        text = files[CORRUPTED_CODE].read_text()
        corrupted.write_text(text + "".join(map(str, word)) + "\n")
        return _cli(ctx, "cli.verify", ["verify", str(corrupted)])

    def check_corrupted(out) -> Checked:
        code, stdout = out
        match = VIOLATION.fullmatch(stdout.strip())
        if code != 1 or not match:
            return [f"exit {code}: {stdout!r}, expected a violation and exit 1"], {}
        segment, owner, other = match.groups()
        members = set(_read_words(corrupted, n, q))
        seg, u, v = (tuple(int(c, 36) for c in text) for text in (segment, owner, other))
        if u not in members or v not in members:
            return ["witness words are not in the file"], {}
        if not (1 <= len(seg) < n and u[:len(seg)] == seg and v[len(v) - len(seg):] == seg):
            return [f"witness {segment} is not a prefix of {owner} and a suffix of {other}"], {}
        return [], {}

    def check_sim(out) -> Checked:
        code, stdout = out
        if code != 0:
            return [f"exit {code}: {stdout!r}"], {}
        stats = json.loads(stdout)
        sn, sk, sq = SIM_CODE
        M = ref.construction_size(sn, sk, sq)
        return _check_wait(stats["mean"], stats["samples"], stats["truncated"], SIM_TRIALS, sn, sq, M), {}

    ops = [Op("cli --version", partial(_cli, ctx, "cli.startup", ["--version"]), check_version)]
    for (n_, k_, q_), verdict in MARKER_CODES.items():
        path = str(files[(n_, k_, q_)])
        gen_args = ["gen", "--n", str(n_), "--k", str(k_), "--q", str(q_), "--out", path]
        ops.append(Op(f"cli gen n={n_} k={k_} q={q_}", partial(_cli, ctx, "cli.gen", gen_args),
                      partial(check_gen, n_, k_, q_)))
        ops.append(Op(f"cli verify n={n_} k={k_} q={q_}", partial(_cli, ctx, "cli.verify", ["verify", path]),
                      partial(check_verify, verdict)))
    ops.append(Op(f"cli verify corrupted n={n} k={k} q={q}", make_corrupted, check_corrupted))
    sim_args = ["sim", "--code", str(files[SIM_CODE]), "--trials", str(SIM_TRIALS),
                "--seed", str(sim_seed), "--json"]
    ops.append(Op("cli sim n={} k={} q={}".format(*SIM_CODE), partial(_cli, ctx, "cli.sim", sim_args), check_sim))
    return ops


def _check_wait(mean: float, samples: int, truncated: int, trials: int, n: int, q: int, M: int) -> list[str]:
    """No trial truncated, and the sample mean within Z_BOUND standard
    errors of the exact mean q**n / M.  This holds for any correct
    simulator, whatever the layout of its random draws."""
    exact_mean, variance = ref.exact_wait(n, q, M)
    problems = []
    if truncated or samples != trials:
        problems.append(f"{samples} samples of {trials} trials, {truncated} truncated")
    z = abs(mean - float(exact_mean)) / math.sqrt(float(variance) / max(samples, 1))
    if z > Z_BOUND:
        problems.append(f"mean {mean} is {z:.1f} standard errors from {float(exact_mean)}")
    return problems


# ---------------------------------------------------------------------------
# counting

BOUNDS_ROWS = {2: range(3, 201), 3: range(4, 121)}
BEST_SIZE_NS = range(100, 1001, 100)
SAMPLE_POINTS = 400
ROOT_GRID = {"q": (2, 3, 5), "k": range(2, 41)}
PROBES = {2: range(4, 15), 3: range(3, 11)}


def counting(ctx: Context) -> list[Op]:
    from xbifix import bounds, construction, fibonacci

    rng = ctx.rng_for("counting")
    points = [(rng.randint(2, 8), rng.randint(2, 5), rng.randint(0, 200)) for _ in range(SAMPLE_POINTS)]
    # the reference values are computed lazily, during the checks
    sizes: dict[int, dict] = {}

    def ref_sizes(q: int, n: int) -> dict[int, int]:
        if q not in sizes:
            ns = set(BOUNDS_ROWS.get(q, ())) | (set(BEST_SIZE_NS) if q == 2 else set())
            sizes[q] = ref.construction_sizes(q, ns)
        return sizes[q][n]

    def check_record(n, q, size, best_k) -> list[str]:
        want_k, want = ref.best_of(n, q, ref_sizes(q, n))
        return [] if (size, best_k) == (want, want_k) else [f"S={size} k={best_k}, expected S={want} k={want_k}"]

    def check_report(n, q, rep) -> Checked:
        problems = check_record(n, q, rep.construction_size, rep.best_k)
        if rep.upper_bound != Fraction(q**n, 2 * n - 1):
            problems.append(f"upper bound {rep.upper_bound}")
        return problems, {}

    def check_best(n, record) -> Checked:
        problems = check_record(n, 2, record.size, record.best_k)
        if record.per_k != ref_sizes(2, n):
            problems.append("per-k sizes differ from the recurrence")
        return problems, {}

    def check_fib(k, q, n, value) -> Checked:
        want = ref.fib_at(k, q, [n])[n]
        return ([] if value == want else [f"F={value}, expected {want}"]), {}

    def check_alpha(k, q, est) -> Checked:
        problems = []
        if not 1 < est.lo < est.alpha < est.hi < q:
            problems.append("bracket not inside (1, q)")
        # the bisection picks sides from floating-point signs; the bracket
        # is an enclosure only if g(lo) < 0 < g(hi) holds in interval arithmetic
        if ref.g_sign(k, q, est.lo) != -1 or ref.g_sign(k, q, est.hi) != 1:
            problems.append("g(lo) < 0 < g(hi) does not hold in interval arithmetic")
        return problems, {}

    def check_beta(k, q, out) -> Checked:
        beta, lower = out
        problems = []
        if not q - Fraction(1, q ** (k - 1)) < ref.exact(beta) < q or ref.g_sign(k, q, beta) != -1:
            problems.append("beta outside (q - q**(1-k), q) or g(beta) >= 0")
        # g < 0 exactly on (1, alpha), so this certifies lower < alpha
        if not lower > 1 or ref.g_sign(k, q, lower) != -1:
            problems.append("lower bound not certified below alpha")
        return problems, {}

    def check_roots(value) -> Checked:
        return ([] if value is True else ["roots not validated inside the unit disk"]), {}

    def check_probe(q, ks, rows) -> Checked:
        if [r.k for r in rows] != list(ks):
            return [f"rows for k={[r.k for r in rows]}"], {}
        problems = []
        for r in rows:
            want = ref.construction_size(r.n, r.k, q)
            if r.size != want:
                problems.append(f"k={r.k} n={r.n}: size differs from the recurrence")
            log_ratio = math.log(want) + math.log(r.n) - r.n * math.log(q)
            if not 0 < r.ratio < 1 or not math.isclose(math.log(r.ratio), log_ratio, rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"k={r.k}: ratio {r.ratio}")
        return problems, {"max_n": max(r.n for r in rows)}

    ops = []
    for q, ns in BOUNDS_ROWS.items():
        ops += [Op(f"bounds_report q={q} n={n}", _call(bounds, "bounds_report", n, q),
                   partial(check_report, n, q)) for n in ns]
    ops += [Op(f"best_size q=2 n={n}", _call(construction, "best_size", n, 2),
               partial(check_best, n)) for n in BEST_SIZE_NS]
    for k, q, n in points:
        ops.append(Op(f"fib_closed_form k={k} q={q} n={n}",
                      _call(fibonacci, "fib_closed_form", k, q, n),
                      partial(check_fib, k, q, n)))
        ops.append(Op(f"fib k={k} q={q} n={n}", _call(fibonacci, "fib", k, q, n),
                      partial(check_fib, k, q, n)))
    for q in ROOT_GRID["q"]:
        threshold = ref.kq_threshold(q)
        for k in ROOT_GRID["k"]:
            # the precision has to outpace k*log2(q), as in the program's tests
            bits = max(128, 4 * k * q.bit_length() + 64)
            ops.append(Op(f"find_alpha k={k} q={q}", _call(fibonacci, "find_alpha", k, q, bits),
                          partial(check_alpha, k, q)))
            if k >= threshold:
                ops.append(Op(f"beta_bracket k={k} q={q}",
                              _call(fibonacci, "beta_bracket", k, q, bits),
                              partial(check_beta, k, q)))
            ops.append(Op(f"other_roots k={k} q={q}",
                          _call(fibonacci, "other_roots_inside_unit_disk", k, q), check_roots))
    for q, ks in PROBES.items():
        ops.append(Op(f"asymptotic_probe q={q} k={ks.start}..{ks.stop - 1}",
                      _call(bounds, "asymptotic_probe", q, ks), partial(check_probe, q, ks)))
    return ops


# ---------------------------------------------------------------------------
# sync

# (n, k, q, trials): three short waits (mean 25.6, 42.7 and 24.9 symbols),
# where per-trial overhead dominates, and one long wait (mean 4096)
SYNC_CASES = [(7, 2, 2, 20_000), (10, 3, 2, 20_000), (7, 2, 3, 20_000), (20, 10, 2, 5_000)]


def sync(ctx: Context) -> list[Op]:
    from xbifix import construction, sim

    def check(n, q, M, trials, stats) -> Checked:
        return _check_wait(stats.mean, stats.samples, stats.truncated, trials, n, q, M), {"mean": stats.mean}

    rng = ctx.rng_for("sync")
    ops = []
    for n, k, q, trials in SYNC_CASES:
        code = construction.generate_direct(n, k, q)
        cfg = sim.SimConfig(code=code, trials=trials, seed=rng.randrange(2**32))
        M = ref.construction_size(n, k, q)
        ops.append(Op(f"run_sim n={n} k={k} q={q} trials={trials}",
                      _call(sim, "run_sim", cfg), partial(check, n, q, M, trials)))
    return ops


WORKLOADS: dict[str, Callable[[Context], list[Op]]] = {
    "certify": certify,
    "markers": markers,
    "counting": counting,
    "sync": sync,
}
# workloads whose operations call the program in the benchmark's process
IN_PROCESS = {"certify", "counting", "sync"}
