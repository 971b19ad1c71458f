"""Command-line entry point.

Exit codes: 0 success, 1 property violated, 2 usage or parse error,
3 capacity or budget exhausted; each error is one line on stderr.  Big
integers are printed in full, as decimal strings in JSON output: every
command runs with the int-to-str digit limit lifted.  json, hashlib and
datetime are imported only by the output that uses them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager

from . import __version__
from .bounds import asymptotic_probe, bounds_report, target_ratio, variance_formula
from .clique import build_graph, max_clique
from .construction import best_k_and_size, generate_direct
from .fibonacci import DEFAULT_PRECISION_BITS, fib, find_alpha
from .sim import DEFAULT_MAX_STREAM, SimConfig, run_sim
from .words import (
    CapacityError,
    check_alphabet,
    check_q,
    digits,
    find_expansion,
    find_violation,
    format_code,
    read_code,
    write_code,
)

EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
DESK_SCALE_N = 14  # an exact clique search runs unasked on q**n <= 2**DESK_SCALE_N words
TABLE_N_CAP = 1_000  # longest --n-max table tabulates: `table --n-max 1000` takes 0.6-0.9 s
TABLE_BITS_CAP = 2**22  # most bits, n_max**2 * log2(q) / 2, in table's sizes: `--q 10**4299 --n-max 24` takes 2.9-3.3 s


@contextmanager
def _all_digits():
    """Lift the int-to-str digit limit, so exact integers print in full,
    then restore it; Python builds without the limit are left alone."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@contextmanager
def _usage_line():
    """Report an error as one stderr line: a ValueError (a refused
    argument value or a malformed code file) or an OSError (an unreadable
    or unwritable file) exits 2, a CapacityError exits 3."""
    try:
        yield
    except (ValueError, OSError) as exc:
        print(f"usage: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CAPACITY)


class _Parser(argparse.ArgumentParser):
    """Reports a parse error as one `usage:` line on stderr, exit 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"usage: {message}\n")


def _at_least(low: int):
    """An int option type that refuses values below `low`."""
    def integer(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return integer


def _desk_scale(n: int, q: int, hint: str) -> None:
    """Refuse a bad alphabet, then an exact clique search over more than
    2**DESK_SCALE_N words; build_graph reports an invalid n itself.
    n > DESK_SCALE_N is refused before q**n is computed."""
    check_alphabet(q)
    if n >= 1 and (n > DESK_SCALE_N or q**n > 2**DESK_SCALE_N):
        raise ValueError(f"n={n} exceeds the desk-scale range (q**n <= 2**{DESK_SCALE_N}); {hint}")


def _json(record, indent=None) -> str:
    """The record as JSON; json is imported only by output that uses it."""
    import json
    return json.dumps(record, indent=indent)


def _write_manifest(out_path: str, command: str, parameters: dict) -> None:
    import hashlib
    from datetime import datetime, timezone

    with open(out_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "command": command,
        "parameters": parameters,
        "version": __version__,
        "seeds": None,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": {os.path.basename(out_path): {"sha256": digest}},
    }
    with open(out_path + ".manifest.json", "w") as fh:
        fh.write(_json(manifest, indent=2) + "\n")


def gen(n, k, q, out):
    """Generate the zero-run code for (n, k, q)."""
    code = generate_direct(n, k, q)
    if out is None:
        sys.stdout.write(format_code(code))
        return
    write_code(code, out)
    _write_manifest(out, "gen", {"n": n, "k": k, "q": q})
    print(f"wrote {len(code)} words to {out}")


def best(n, q, as_json):
    """Best construction size over all k."""
    best_k, size = best_k_and_size(n, q)
    if as_json:
        print(_json({"n": n, "q": q, "best_k": best_k, "size": str(size)}))
    else:
        print(f"S({n},{q}) = {size}  (k = {'-' if best_k is None else best_k})")


def fib_cmd(k, q, n):
    """Weighted k-step Fibonacci value F_{k,q}(n)."""
    print(fib(k, q, n))


def alpha(k, q, bits, as_json):
    """Dominant root alpha(k, q) of the growth polynomial."""
    est = find_alpha(k, q, bits)
    import mpmath
    digits = max(int(bits * math.log10(2)) - 2, 6)
    with mpmath.mp.workprec(bits + 16):
        value = mpmath.nstr(est.alpha, digits)
    if as_json:  # the bracket's exact ends rounded outward, so that the two strings enclose alpha
        from decimal import Context
        bracket = []
        for end, rounding in ((est.lo, "ROUND_FLOOR"), (est.hi, "ROUND_CEILING")):
            (man, exp), context = end.man_exp, Context(digits, rounding, capitals=0)
            bracket.append(context.to_sci_string(context.divide(man << max(exp, 0), 1 << max(-exp, 0))))
        value = _json({"k": k, "q": q, "precision_bits": bits, "alpha": value, "bracket": bracket})
    print(value)


def table(q, n_max, as_json, markdown, clique_upto):
    """Per-length size table: earlier construction, this construction,
    best k, and the variance upper bound."""
    lengths = range(3 if q == 2 else 4, n_max + 1)  # n = 3 only for q = 2
    if not lengths:
        raise ValueError(f"--n-max {n_max} is below the first tabulated length {lengths.start}")
    if n_max > TABLE_N_CAP:
        raise CapacityError(f"--n-max has {n_max.bit_length()} bits, exceeds cap {TABLE_N_CAP}")
    check_q(q)
    if (bits := n_max * n_max * math.log2(q) / 2) > TABLE_BITS_CAP:
        raise CapacityError(f"sizes to --n-max {n_max} at q of {q.bit_length()} bits need {bits:.0f} bits, "
                            f"exceeds cap {TABLE_BITS_CAP}")
    if clique_upto:
        _desk_scale(min(clique_upto, n_max), q, "run `xbifix clique --long` for longer lengths")
    rows = []
    for n in lengths:
        rep = bounds_report(n, q)
        optimal = None
        if clique_upto and n <= clique_upto:
            optimal = max_clique(build_graph(n, q)).size
        rows.append(
            {
                "n": n,
                "bilotta": str(rep.bilotta) if rep.bilotta is not None else None,
                "size": str(rep.construction_size),
                "best_k": rep.best_k,
                "upper_bound_floor": str(math.floor(rep.upper_bound)),
                "optimal": str(optimal) if optimal is not None else None,
            }
        )
    if as_json:
        print(_json({"q": q, "rows": rows}))
        return
    header = ["n", "B(n)", f"S(n,{q})", "k", "bound", "C(n,q)"]
    blanks = ["", "-", "", "-", "", ""]  # what an empty cell prints, per column
    grid = [header]
    for r in rows:
        grid.append([blank if v is None else str(v) for v, blank in zip(r.values(), blanks)])
    widths = [max(len(row[i]) for row in grid) for i in range(len(header))]
    if markdown:
        lines = ["| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |" for row in grid]
        lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    else:
        lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in grid]
    print("\n".join(lines))


def probe(q, k_min, k_max, c, as_json):
    """Asymptotic ratio diagnostics along n(k) = ceil(c * alpha**k)."""
    if k_max < k_min:
        raise ValueError(f"--k-max {k_max} is below --k-min {k_min}")
    rows = asymptotic_probe(q, range(k_min, k_max + 1), c=c)
    target = target_ratio(q)
    if as_json:
        rows = [{**r._asdict(), "size": str(r.size)} for r in rows]
        print(_json({"q": q, "target": target, "rows": rows}))
        return
    print(f"target (q-1)/(q e) = {target:.6f}")
    for r in rows:
        print(f"k={r.k:3d}  n={r.n:7d}  ratio={r.ratio:.6f}")


def clique(n, q, budget, long_run, witness_out):
    """Exact maximum cross-bifix-free code size by clique search."""
    if not long_run:
        _desk_scale(n, q, "pass --long to run anyway (runtime may be hours)")
    if budget is not None and not budget > 0:
        raise ValueError("time_budget must be positive")
    graph = build_graph(n, q)
    if witness_out is not None:  # an unwritable path fails before the search; a refused run leaves no file
        open(witness_out, "a").close()
    result = max_clique(graph, time_budget=budget)
    status = "optimal" if result.optimal else "lower bound only (budget exhausted)"
    print(
        f"C({n},{q}) {'=' if result.optimal else '>='} {result.size}  [{status}; "
        f"{result.nodes_explored} nodes, {result.wall_time:.2f}s]"
    )
    if witness_out is not None:
        write_code(result.witness, witness_out)
        _write_manifest(
            witness_out,
            "clique",
            {"n": n, "q": q, "budget": budget, "optimal": result.optimal,
             "nodes_explored": result.nodes_explored, "wall_time": result.wall_time},
        )
    if not result.optimal:
        raise SystemExit(EXIT_CAPACITY)


def sim(code_file, trials, seed, max_stream, as_json):
    """Simulate time-to-first-match of the code in a uniform stream."""
    code = read_code(code_file)
    try:
        stats = run_sim(SimConfig(code, trials, seed, max_stream))
    except ValueError as exc:
        print(f"invalid code: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VIOLATION)
    predicted = variance_formula(code.n, code.q, len(code))
    if as_json:
        record = {"n": code.n, "q": code.q, "M": len(code), "trials": trials, "seed": seed}
        record.update(stats._asdict(), predicted_variance=predicted)
        print(_json(record))
    else:
        print(
            f"samples={stats.samples} mean={stats.mean:.3f} "
            f"variance={stats.variance:.3f} (predicted {predicted:.3f}) "
            f"min={stats.min} max={stats.max} truncated={stats.truncated}"
        )


def verify(code_file):
    """Verify a code file: cross-bifix-free and nonexpandable."""
    code = read_code(code_file)
    violation = None
    try:  # the walk derives the affix pools once; it refuses an invalid code
        verdict = "yes" if find_expansion(code) is None else "no"
    except (CapacityError, ValueError) as exc:
        # too large to walk, or not cross-bifix-free: the witness tells which
        violation = find_violation(code)
        if violation is None and not isinstance(exc, CapacityError):
            raise
        verdict = "not checked (instance too large)"
    if violation is not None:
        owner, other, length = violation
        owner, other = digits([owner, other], code.n, code.q)
        print(f"cross-bifix-free: no (prefix {owner[:length]!r} of {owner} is a suffix of {other})")
        raise SystemExit(EXIT_VIOLATION)
    print(f"cross-bifix-free: yes; nonexpandable: {verdict}")


def _parser(prog: str) -> _Parser:
    """The command table: each command's function, then its options, whose
    names are the function's parameters."""
    parser = _Parser(prog=prog, description=main.__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, name=None):
        sub = commands.add_parser(name or run.__name__, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub.add_argument

    option = command(gen)
    option("--n", type=int, required=True, help="word length")
    option("--k", type=int, required=True, help="leading zero-run length")
    option("--q", type=int, default=2, help="alphabet size (default: %(default)s)")
    option("--out", help="output file (with manifest)")
    option = command(best)
    option("--n", type=int, required=True, help="word length")
    option("--q", type=int, default=2, help="alphabet size (default: %(default)s)")
    option("--json", dest="as_json", action="store_true")
    option = command(fib_cmd, "fib")
    option("--k", type=int, required=True)
    option("--q", type=int, required=True)
    option("--n", type=int, required=True)
    option = command(alpha)
    option("--k", type=int, required=True)
    option("--q", type=int, required=True)
    option("--bits", type=int, default=DEFAULT_PRECISION_BITS, help="precision bits (default: %(default)s)")
    option("--json", dest="as_json", action="store_true")
    option = command(table)
    option("--q", type=int, default=2, help="alphabet size (default: %(default)s)")
    option("--n-max", type=int, default=30, help="longest length (default: %(default)s)")
    option("--json", dest="as_json", action="store_true")
    option("--markdown", action="store_true")
    option("--clique-upto", type=_at_least(0), default=0, help="also compute exact optima up to this length")
    option = command(probe)
    option("--q", type=int, default=2, help="alphabet size (default: %(default)s)")
    option("--k-min", type=int, default=4, help="least k (default: %(default)s)")
    option("--k-max", type=int, required=True, help="largest k")
    option("--c", type=float, default=None, help="scaling constant; default q/(q-1)")
    option("--json", dest="as_json", action="store_true")
    option = command(clique)
    option("--n", type=int, required=True, help="word length")
    option("--q", type=int, default=2, help="alphabet size (default: %(default)s)")
    option("--budget", type=float, default=None, help="time budget in seconds")
    option("--long", dest="long_run", action="store_true", help="allow q**n beyond the desk-scale cap")
    option("--witness-out", help="output file for the best code found (with manifest)")
    option = command(sim)
    option("--code", dest="code_file", required=True, help="code file")
    option("--trials", type=_at_least(1), default=100_000, help="number of trials (default: %(default)s)")
    option("--seed", type=_at_least(0), default=0, help="random seed (default: %(default)s)")
    option("--max-stream", type=_at_least(1), default=DEFAULT_MAX_STREAM, help="stream cap (default: %(default)s)")
    option("--json", dest="as_json", action="store_true")
    option = command(verify)
    option("code_file", metavar="CODE_FILE")
    return parser


def main(args=None, prog_name=None):
    """Construct, verify, count and bound cross-bifix-free codes."""
    options = vars(_parser(prog_name or "xbifix").parse_args(args))
    run = options.pop("run")
    with _usage_line(), _all_digits():
        run(**options)
    raise SystemExit(0)


if __name__ == "__main__":
    main()
