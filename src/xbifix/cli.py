"""Command-line entry point.

Exit codes: 0 success, 1 property violated, 2 usage or parse error,
3 capacity or budget exhausted; each error is one line on stderr.  Big
integers are printed in full, as decimal strings in JSON output: every
command runs with the int-to-str digit limit lifted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone

import click

from . import __version__
from .bounds import asymptotic_probe, bounds_report, target_ratio, variance_formula
from .clique import build_graph, max_clique
from .construction import best_size, generate_direct
from .fibonacci import DEFAULT_PRECISION_BITS, fib, find_alpha
from .sim import DEFAULT_MAX_STREAM, SimConfig, run_sim
from .words import (
    CapacityError,
    check_alphabet,
    find_violation,
    format_code,
    is_nonexpandable,
    read_code,
    write_code,
)

EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
DESK_SCALE_N = 14  # an exact clique search runs unasked on q**n <= 2**DESK_SCALE_N words


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
    """Report an error as one stderr line: a usage error, a ValueError (a
    malformed code file) or an OSError (an unwritable output) exits 2, a
    CapacityError exits 3."""
    try:
        yield
    except getattr(click.exceptions, "NoArgsIsHelpError", ()):
        raise  # the bare command prints its help (click >= 8.2)
    except click.UsageError as exc:
        click.echo(f"usage: {exc.format_message()}", err=True)
        raise SystemExit(EXIT_USAGE)
    except (ValueError, OSError) as exc:
        click.echo(f"usage: {exc}", err=True)
        raise SystemExit(EXIT_USAGE)
    except CapacityError as exc:
        click.echo(f"capacity: {exc}", err=True)
        raise SystemExit(EXIT_CAPACITY)


def _desk_scale(n: int, q: int, hint: str) -> None:
    """Refuse a bad alphabet, then an exact clique search over more than
    2**DESK_SCALE_N words; build_graph reports an invalid n itself.
    n > DESK_SCALE_N is refused before q**n is computed."""
    check_alphabet(q)
    if n >= 1 and (n > DESK_SCALE_N or q**n > 2**DESK_SCALE_N):
        raise click.UsageError(
            f"n={n} exceeds the desk-scale range (q**n <= 2**{DESK_SCALE_N}); {hint}"
        )


class _Group(click.Group):
    """Runs its parsing and every subcommand, click's too, under _usage_line,
    and every subcommand with the digit limit lifted."""

    def make_context(self, *args, **kwargs):
        with _usage_line():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_line(), _all_digits():
            return super().invoke(ctx)


def _write_manifest(out_path: str, command: str, parameters: dict) -> None:
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
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


@click.group(cls=_Group)
@click.version_option(__version__)
def main():
    """Construct, verify, count and bound cross-bifix-free codes."""


@main.command()
@click.option("--n", type=int, required=True, help="word length")
@click.option("--k", type=int, required=True, help="leading zero-run length")
@click.option("--q", type=int, default=2, show_default=True, help="alphabet size")
@click.option("--out", type=click.Path(dir_okay=False), help="output file (with manifest)")
def gen(n, k, q, out):
    """Generate the zero-run code for (n, k, q)."""
    code = generate_direct(n, k, q)
    if out:
        write_code(code, out)
        _write_manifest(out, "gen", {"n": n, "k": k, "q": q})
        click.echo(f"wrote {len(code)} words to {out}")
    else:
        click.echo(format_code(code), nl=False)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--q", type=int, default=2, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def best(n, q, as_json):
    """Best construction size over all k."""
    record = best_size(n, q)
    k = "-" if record.best_k is None else record.best_k
    if as_json:
        click.echo(json.dumps(record.to_json_dict()))
    else:
        click.echo(f"S({n},{q}) = {record.size}  (k = {k})")


@main.command("fib")
@click.option("--k", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--n", type=int, required=True)
def fib_cmd(k, q, n):
    """Weighted k-step Fibonacci value F_{k,q}(n)."""
    click.echo(fib(k, q, n))


@main.command()
@click.option("--k", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--bits", type=int, default=DEFAULT_PRECISION_BITS, show_default=True,
              help="working precision bits")
@click.option("--json", "as_json", is_flag=True)
def alpha(k, q, bits, as_json):
    """Dominant root alpha(k, q) of the growth polynomial."""
    import mpmath
    est = find_alpha(k, q, bits)
    digits = max(int(bits * math.log10(2)) - 2, 6)
    with mpmath.mp.workprec(bits + 16):
        value, lo, hi = (mpmath.nstr(x, digits) for x in (est.alpha, est.lo, est.hi))
    record = {"k": k, "q": q, "precision_bits": bits, "alpha": value, "bracket": [lo, hi]}
    click.echo(json.dumps(record) if as_json else value)


@main.command()
@click.option("--q", type=int, default=2, show_default=True)
@click.option("--n-max", type=int, default=30, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--markdown", is_flag=True)
@click.option(
    "--clique-upto",
    type=click.IntRange(min=0),
    default=0,
    show_default=True,
    help="also compute exact optima up to this length",
)
def table(q, n_max, as_json, markdown, clique_upto):
    """Per-length size table: earlier construction, this construction,
    best k, and the variance upper bound."""
    if clique_upto:
        _desk_scale(min(clique_upto, n_max), q, "run `xbifix clique --long` for longer lengths")
    rows = []
    for n in range(3, n_max + 1):
        if n == 3 and q != 2:
            continue
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
        click.echo(json.dumps({"q": q, "rows": rows}))
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
    click.echo("\n".join(lines))


@main.command()
@click.option("--q", type=int, default=2, show_default=True)
@click.option("--k-min", type=int, default=4, show_default=True)
@click.option("--k-max", type=int, required=True)
@click.option("--c", type=float, default=None, help="scaling constant; default q/(q-1)")
@click.option("--json", "as_json", is_flag=True)
def probe(q, k_min, k_max, c, as_json):
    """Asymptotic ratio diagnostics along n(k) = ceil(c * alpha**k)."""
    rows = asymptotic_probe(q, range(k_min, k_max + 1), c=c)
    target = target_ratio(q)
    if as_json:
        rows = [{**dataclasses.asdict(r), "size": str(r.size)} for r in rows]
        click.echo(json.dumps({"q": q, "target": target, "rows": rows}))
        return
    click.echo(f"target (q-1)/(q e) = {target:.6f}")
    for r in rows:
        click.echo(f"k={r.k:3d}  n={r.n:7d}  ratio={r.ratio:.6f}")


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--q", type=int, default=2, show_default=True)
@click.option("--budget", type=float, default=None, help="time budget in seconds")
@click.option("--long", "long_run", is_flag=True, help="allow q**n beyond the desk-scale cap")
@click.option("--witness-out", type=click.Path(dir_okay=False))
def clique(n, q, budget, long_run, witness_out):
    """Exact maximum cross-bifix-free code size by clique search."""
    if not long_run:
        _desk_scale(n, q, "pass --long to run anyway (runtime may be hours)")
    if witness_out:  # an unwritable path fails before the search, not after it
        open(witness_out, "a").close()
    result = max_clique(build_graph(n, q), time_budget=budget)
    status = "optimal" if result.optimal else "lower bound only (budget exhausted)"
    click.echo(
        f"C({n},{q}) {'=' if result.optimal else '>='} {result.size}  [{status}; "
        f"{result.nodes_explored} nodes, {result.wall_time:.2f}s]"
    )
    if witness_out:
        write_code(result.witness, witness_out)
        _write_manifest(
            witness_out,
            "clique",
            {"n": n, "q": q, "budget": budget, "optimal": result.optimal,
             "nodes_explored": result.nodes_explored, "wall_time": result.wall_time},
        )
    if not result.optimal:
        raise SystemExit(EXIT_CAPACITY)


@main.command()
@click.option("--code", "code_file", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--trials", type=click.IntRange(min=1), default=100_000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--max-stream", type=click.IntRange(min=1), default=DEFAULT_MAX_STREAM, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def sim(code_file, trials, seed, max_stream, as_json):
    """Simulate time-to-first-match of the code in a uniform stream."""
    code = read_code(code_file)
    try:
        stats = run_sim(SimConfig(code=code, trials=trials, seed=seed, max_stream=max_stream))
    except ValueError as exc:
        click.echo(f"invalid code: {exc}", err=True)
        raise SystemExit(EXIT_VIOLATION)
    predicted = variance_formula(code.n, code.q, len(code))
    if as_json:
        record = {"n": code.n, "q": code.q, "M": len(code), "trials": trials, "seed": seed}
        record.update(dataclasses.asdict(stats), predicted_variance=predicted)
        click.echo(json.dumps(record))
    else:
        click.echo(
            f"samples={stats.samples} mean={stats.mean:.3f} "
            f"variance={stats.variance:.3f} (predicted {predicted:.3f}) "
            f"min={stats.min} max={stats.max} truncated={stats.truncated}"
        )


@main.command()
@click.argument("code_file", type=click.Path(exists=True, dir_okay=False))
def verify(code_file):
    """Verify a code file: cross-bifix-free and nonexpandable."""
    code = read_code(code_file)
    violation = None
    try:  # the walk derives the affix pools once; it refuses an invalid code
        verdict = "yes" if is_nonexpandable(code) else "no"
    except (CapacityError, ValueError) as exc:
        # too large to walk, or not cross-bifix-free: the witness tells which
        violation = find_violation(code)
        if violation is None and not isinstance(exc, CapacityError):
            raise
        verdict = "not checked (instance too large)"
    if violation is not None:
        w1, w2, seg = violation
        digits = w1.to_digits()
        click.echo(
            f"cross-bifix-free: no (prefix {digits[:len(seg)]!r} of {digits} "
            f"is a suffix of {w2.to_digits()})"
        )
        raise SystemExit(EXIT_VIOLATION)
    click.echo(f"cross-bifix-free: yes; nonexpandable: {verdict}")


if __name__ == "__main__":
    main()
