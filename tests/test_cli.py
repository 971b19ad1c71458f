import contextlib
import importlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from xbifix.cli import _parser, main
from xbifix.clique import build_graph, max_clique
from xbifix.construction import BEST_N_CAP, best_k_and_size, generate_direct, size_formula
from xbifix.fibonacci import fib
from xbifix.words import format_code, parse_code, write_code

from oracles import g_sign


class _Tee(io.StringIO):
    """One output stream that also copies what it is written to `both`."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


class _Runner:
    """Runs main in process: its exit code, stdout, stderr, both streams
    interleaved as output, and the exception it ended in unless exit 0."""

    def invoke(self, main, args):
        both = io.StringIO()
        out, err, exit_code, exception = _Tee(both), _Tee(both), 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args)
            except SystemExit as exc:
                exit_code = exc.code or 0
                exception = exc if exit_code else None
            except Exception as exc:
                exit_code, exception = 1, exc
        return types.SimpleNamespace(exit_code=exit_code, stdout=out.getvalue(), stderr=err.getvalue(),
                                     output=both.getvalue(), exception=exception)


@pytest.fixture
def runner():
    return _Runner()


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def _decimal(digits: str) -> int:
    """Decimal to int in chunks, which no digit limit applies to."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_console_script_resolves_to_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["xbifix"]
    module, _, attr = target.partition(":")
    assert (module, attr) == ("xbifix.cli", "main")
    assert getattr(importlib.import_module(module), attr) is main


class TestGen:
    def test_stdout(self, runner):
        result = runner.invoke(main, ["gen", "--n", "7", "--k", "2", "--q", "2"])
        assert result.exit_code == 0
        assert parse_code(result.output) == generate_direct(7, 2, 2)

    def test_out_file_and_manifest(self, runner, tmp_path):
        out = tmp_path / "code.txt"
        result = runner.invoke(
            main, ["gen", "--n", "7", "--k", "2", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert out.read_text() == format_code(generate_direct(7, 2, 2))
        manifest = json.loads((tmp_path / "code.txt.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["parameters"] == {"n": 7, "k": 2, "q": 2}
        assert manifest["seeds"] is None  # the key stays, so manifests keep their layout
        assert "sha256" in manifest["outputs"]["code.txt"]

    def test_bad_params_usage_error(self, runner):
        result = runner.invoke(main, ["gen", "--n", "4", "--k", "3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args", [["gen", "--n", "4", "--k", "3"], ["gen", "--k", "3"]], ids=["bad-k", "missing-n"]
    )
    def test_usage_error_is_one_line(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("usage: ")

    def test_one_long_word_in_a_fresh_process(self):
        # the one word 0...011 of 2**21 digits: 12 digits go out per table
        # lookup and only the run lists a word has reached are built, so
        # this takes well under a second, where one digit per lookup and
        # 2**21 run lists took over 4 s
        n = 2**21
        result = _invoke_fresh(["gen", "--n", str(n), "--k", str(n - 2)], timeout=3)
        assert result.exit_code == 0, result.stderr
        assert result.stdout == f"# xbifix code n={n} q=2\n" + "0" * (n - 2) + "11\n"


class TestBest:
    def test_text(self, runner):
        result = runner.invoke(main, ["best", "--n", "16"])
        assert result.exit_code == 0
        assert "927" in result.output and "k = 3" in result.output

    def test_json_text_at_30(self, runner):
        # the four keys in this order, the size a decimal string, no per-k table
        result = runner.invoke(main, ["best", "--n", "30", "--json"])
        assert result.exit_code == 0
        assert result.stdout == '{"n": 30, "q": 2, "best_k": 4, "size": "7555935"}\n'

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_json_and_text_match_the_maximum(self, runner, q):
        # n = 3 is only tabulated for q = 2, with no best k
        for n in range(3 if q == 2 else 4, 201):
            best_k, size = best_k_and_size(n, q)
            args = ["best", "--n", str(n), "--q", str(q)]
            data = json.loads(runner.invoke(main, [*args, "--json"]).stdout)
            assert data == {"n": n, "q": q, "best_k": best_k, "size": str(size)}, (n, q)
            text = runner.invoke(main, args).stdout
            assert text == f"S({n},{q}) = {size}  (k = {'-' if best_k is None else best_k})\n", (n, q)

    def test_text_counts_few_sizes(self, runner, monkeypatch):
        # no per-k table is built, with or without --json: 13 sizes at n = 20000
        from xbifix import construction

        size = construction.size_formula
        for json_flag in ([], ["--json"]):
            calls = []
            monkeypatch.setattr(construction, "size_formula", lambda n, k, q: calls.append(k) or size(n, k, q))
            result = runner.invoke(main, ["best", "--n", "20000", *json_flag])
            assert result.exit_code == 0
            if json_flag:
                assert json.loads(result.stdout)["best_k"] == 13
            else:
                assert result.stdout.endswith("  (k = 13)\n")
            assert len(calls) <= 20, json_flag

    def test_length_cap_boundary_in_a_fresh_process(self):
        # the cap is counted and printed in time; one more is refused at once
        result = _invoke_fresh(["best", "--n", str(BEST_N_CAP), "--json"], timeout=10)
        assert result.exit_code == 0, result.stderr
        assert list(json.loads(result.stdout)) == ["n", "q", "best_k", "size"]
        result = _invoke_fresh(["best", "--n", str(BEST_N_CAP + 1)])
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr == f"capacity: n has 17 bits, exceeds cap {BEST_N_CAP}\n"


class TestFibAlpha:
    def test_fib(self, runner):
        result = runner.invoke(main, ["fib", "--k", "3", "--q", "2", "--n", "5"])
        assert result.output.strip() == "24"

    def test_fib_prints_past_the_digit_limit(self, runner):
        limit = _digit_limit()
        result = runner.invoke(main, ["fib", "--k", "2", "--q", "2", "--n", "30000"])
        assert result.exit_code == 0
        digits = result.stdout.strip()
        assert len(digits) > 4300 and digits.isdigit()
        assert _decimal(digits) == fib(2, 2, 30000)
        assert _digit_limit() == limit

    def test_fib_on_a_build_without_the_digit_limit(self, runner, monkeypatch):
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        result = runner.invoke(main, ["fib", "--k", "3", "--q", "2", "--n", "5"])
        assert result.exit_code == 0
        assert result.stdout == "24\n"

    def test_alpha_decimal(self, runner):
        result = runner.invoke(main, ["alpha", "--k", "2", "--q", "2", "--bits", "64"])
        assert result.output.strip().startswith("1.6180339887")

    def test_alpha_zero_bits_refused(self, runner):
        result = runner.invoke(main, ["alpha", "--k", "3", "--q", "2", "--bits", "0"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: precision_bits")

    def test_alpha_json_bracket(self, runner):
        result = runner.invoke(
            main, ["alpha", "--k", "5", "--q", "2", "--json", "--bits", "64"]
        )
        data = json.loads(result.output)
        assert float(data["bracket"][0]) <= float(data["alpha"]) <= float(data["bracket"][1])

    @pytest.mark.parametrize("q", [2, 3, 5, 36])
    def test_alpha_json_bracket_strings_enclose_alpha(self, runner, q):
        # the printed ends, read as exact decimals, enclose alpha: g < 0 at
        # lo > 1 and g > 0 at hi, in exact rationals
        for k in range(2, 21):
            for bits in (53, 64, 128, 1024):
                result = runner.invoke(main, ["alpha", "--k", str(k), "--q", str(q), "--bits", str(bits), "--json"])
                lo, hi = json.loads(result.stdout)["bracket"]
                assert lo != hi and Fraction(lo) > 1, (k, q, bits)
                assert g_sign(k, q, Fraction(lo)) == -1 and g_sign(k, q, Fraction(hi)) == 1, (k, q, bits)

    def test_alpha_json_bracket_text(self, runner):
        result = runner.invoke(main, ["alpha", "--k", "2", "--q", "2", "--bits", "53", "--json"])
        assert result.stdout == (
            '{"k": 2, "q": 2, "precision_bits": 53, "alpha": "1.61803398875", '
            '"bracket": ["1.618033988749", "1.618033988750"]}\n'
        )
        result = runner.invoke(main, ["alpha", "--k", "2", "--q", str(10**100), "--bits", "53", "--json"])
        assert json.loads(result.stdout)["bracket"] == ["9.999999999999e+99", "1.000000000000e+100"]

    def test_alpha_json_default_precision(self, runner):
        result = runner.invoke(main, ["alpha", "--k", "2", "--q", "2", "--json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert list(data) == ["k", "q", "precision_bits", "alpha", "bracket"]
        assert data["precision_bits"] == 128
        assert data["alpha"].startswith("1.618033988749894848204586834365638")


class TestTable:
    def test_row_values(self, runner):
        result = runner.invoke(main, ["table", "--q", "2", "--n-max", "25", "--json"])
        rows = {r["n"]: r for r in json.loads(result.output)["rows"]}
        assert rows[25]["bilotta"] == "208012"
        assert rows[25]["size"] == "283953"
        assert rows[25]["best_k"] == 4
        assert rows[5]["bilotta"] == "2"
        assert rows[5]["size"] == "2"

    def test_markdown(self, runner):
        result = runner.invoke(main, ["table", "--n-max", "6", "--markdown"])
        assert result.output.startswith("| n ")

    def test_clique_column(self, runner):
        result = runner.invoke(
            main, ["table", "--n-max", "9", "--json", "--clique-upto", "9"]
        )
        rows = {r["n"]: r for r in json.loads(result.output)["rows"]}
        assert rows[9]["optimal"] == "14"

    def test_text_rows(self, runner):
        result = runner.invoke(main, ["table", "--n-max", "9", "--clique-upto", "8"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "n  B(n)  S(n,2)  k  bound  C(n,q)"
        # n=3 has no best k; n=9 is past --clique-upto, so its C(n,q) is blank
        assert lines[1] == "3     1       1  -      1       1"
        assert lines[-1] == "9    14      13  2     30        "
        assert len(lines) == 8

    def test_no_rows_refused(self, runner):
        # q=3 starts at n=4, so n-max 3 leaves no rows: refused, not a bare header
        result = runner.invoke(main, ["table", "--q", "3", "--n-max", "3"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "usage: --n-max 3 is below the first tabulated length 4\n"

    def test_length_cap_boundary(self, runner, monkeypatch):
        # --n-max at the cap passes the check and one more is refused
        # before the first row; the rows at the cap are stubbed, not counted
        import xbifix.cli as cli
        from xbifix.bounds import BoundsReport

        monkeypatch.setattr(cli, "bounds_report", lambda n, q: BoundsReport(n, 2, n, None))
        result = runner.invoke(main, ["table", "--n-max", str(cli.TABLE_N_CAP)])
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == cli.TABLE_N_CAP - 1  # header, n = 3 .. cap
        result = runner.invoke(main, ["table", "--n-max", str(cli.TABLE_N_CAP + 1)])
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr == f"capacity: --n-max has 10 bits, exceeds cap {cli.TABLE_N_CAP}\n"

    def test_bits_cap_boundary(self, runner, monkeypatch):
        # q = 36 at the length cap is admitted; at q = 2**100, about 50 bits
        # a length, n_max = 289 passes and 290 is refused before the first
        # row.  The rows are stubbed, not counted
        import xbifix.cli as cli
        from xbifix.bounds import BoundsReport

        monkeypatch.setattr(cli, "bounds_report", lambda n, q: BoundsReport(n, 2, n, None))
        for q, n_max in ((36, cli.TABLE_N_CAP), (2**100, 289)):
            result = runner.invoke(main, ["table", "--q", str(q), "--n-max", str(n_max)])
            assert result.exit_code == 0, q
        result = runner.invoke(main, ["table", "--q", str(2**100), "--n-max", "290"])
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr == f"capacity: sizes to --n-max 290 at q of 101 bits need 4205000 bits, exceeds cap {cli.TABLE_BITS_CAP}\n"

    def test_clique_upto_beyond_desk_scale(self, runner):
        result = runner.invoke(main, ["table", "--n-max", "15", "--clique-upto", "15"])
        assert result.exit_code == 2
        assert result.stderr.startswith("usage: n=15 exceeds the desk-scale range")


class TestProbe:
    def test_text(self, runner):
        result = runner.invoke(main, ["probe", "--k-max", "6"])
        assert result.exit_code == 0
        assert result.stdout == (
            "target (q-1)/(q e) = 0.183940\n"
            "k=  4  n=     28  ratio=0.212124\n"
            "k=  5  n=     59  ratio=0.199584\n"
            "k=  6  n=    122  ratio=0.192740\n"
        )

    def test_json_size_past_the_digit_limit(self, runner):
        limit = _digit_limit()
        result = runner.invoke(main, ["probe", "--k-min", "14", "--k-max", "14", "--json"])
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert list(data) == ["q", "target", "rows"]
        (row,) = data["rows"]
        assert list(row) == ["k", "n", "size", "ratio"]
        assert len(row["size"]) > 4300
        assert _decimal(row["size"]) == size_formula(row["n"], 14, 2)
        assert _digit_limit() == limit


class TestClique:
    def test_small(self, runner):
        result = runner.invoke(main, ["clique", "--n", "9"])
        assert result.exit_code == 0
        assert "C(9,2) = 14" in result.output

    def test_witness_out(self, runner, tmp_path):
        out = tmp_path / "witness.txt"
        result = runner.invoke(
            main, ["clique", "--n", "7", "--witness-out", str(out)]
        )
        assert result.exit_code == 0
        assert len(parse_code(out.read_text())) == 5

    def test_witness_manifest_records_the_search(self, runner, tmp_path):
        out = tmp_path / "witness.txt"
        result = runner.invoke(main, ["clique", "--n", "9", "--witness-out", str(out)])
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "witness.txt.manifest.json").read_text())
        parameters = manifest["parameters"]
        assert parameters["nodes_explored"] == max_clique(build_graph(9, 2)).nodes_explored
        assert f"{parameters['nodes_explored']} nodes, {parameters['wall_time']:.2f}s]" in result.output
        assert parameters["wall_time"] >= 0

    def test_bad_budget_fails_before_the_graph(self, runner, monkeypatch):
        # (17,2) takes about a second to build; a refused budget must not wait for it
        def no_graph(*args, **kwargs):
            raise AssertionError("the graph was built")

        monkeypatch.setattr("xbifix.cli.build_graph", no_graph)
        result = runner.invoke(main, ["clique", "--n", "17", "--long", "--budget", "0"])
        assert result.exit_code == 2
        assert result.stderr == "usage: time_budget must be positive\n"

    def test_unwritable_witness_fails_before_the_search(self, runner, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr("xbifix.cli.max_clique", no_search)
        result = runner.invoke(main, ["clique", "--n", "7", "--witness-out", "/nonexistent/x.txt"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "usage: [Errno 2] No such file or directory: '/nonexistent/x.txt'\n"

    def test_budget_exhausted_run_writes_its_witness(self, runner, monkeypatch, tmp_path):
        # a clock past the deadline at once: the search stops at its first
        # node with the seed, S(9,2) = 13 words, as its witness
        ticks = itertools.count()
        monkeypatch.setattr(
            "xbifix.clique.time", types.SimpleNamespace(monotonic=lambda: 10.0 * next(ticks))
        )
        out = tmp_path / "witness.txt"
        result = runner.invoke(main, ["clique", "--n", "9", "--budget", "1", "--witness-out", str(out)])
        assert result.exit_code == 3
        assert result.stdout.startswith("C(9,2) >= 13  [lower bound only")
        assert len(parse_code(out.read_text())) == 13
        manifest = json.loads((tmp_path / "witness.txt.manifest.json").read_text())
        assert manifest["parameters"]["optimal"] is False

    def test_long_gate(self, runner):
        result = runner.invoke(main, ["clique", "--n", "15"])
        assert result.exit_code == 2

    def test_budget_exhaustion_exit_code(self, runner):
        result = runner.invoke(main, ["clique", "--n", "12", "--budget", "0.01"])
        assert result.exit_code in (0, 3)
        if result.exit_code == 3:
            assert "lower bound" in result.output


class TestSimVerify:
    def test_sim_json(self, runner, tmp_path):
        path = tmp_path / "c7.txt"
        write_code(generate_direct(7, 2, 2), path)
        result = runner.invoke(
            main,
            ["sim", "--code", str(path), "--trials", "2000", "--seed", "5", "--json"],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert list(data) == [
            "n", "q", "M", "trials", "seed",
            "samples", "mean", "variance", "min", "max", "truncated",
            "predicted_variance",
        ]
        assert data["M"] == 5
        assert data["predicted_variance"] == pytest.approx(322.56)
        assert data["samples"] == 2000

    def test_sim_all_truncated_exit_3(self, runner, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text("# xbifix code n=4 q=2\n0011\n")
        result = runner.invoke(
            main, ["sim", "--code", str(path), "--trials", "5", "--max-stream", "3"]
        )
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("capacity: ")
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "option",
        [
            ["--trials", "0"],
            ["--trials", "-1"],
            ["--max-stream", "0"],
            ["--max-stream", "-5"],
            ["--seed", "-1"],
        ],
    )
    def test_sim_out_of_range_exit_2(self, runner, tmp_path, option):
        path = tmp_path / "c4.txt"
        path.write_text("# xbifix code n=4 q=2\n0011\n")
        result = runner.invoke(main, ["sim", "--code", str(path), *option])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"usage: argument {option[0]}: ")
        assert len(result.stderr.splitlines()) == 1

    def test_sim_max_stream_default(self):
        from xbifix.sim import DEFAULT_MAX_STREAM

        options = _parser("xbifix").parse_args(["sim", "--code", "c.txt"])
        assert options.max_stream == DEFAULT_MAX_STREAM

    def test_verify_roundtrip(self, runner, tmp_path):
        path = tmp_path / "c10.txt"
        write_code(generate_direct(10, 3, 2), path)
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 0
        assert "cross-bifix-free: yes" in result.output
        assert "nonexpandable: yes" in result.output

    def test_verify_invalid_exit_1(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# xbifix code n=2 q=2\n01\n10\n")
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 1
        assert "cross-bifix-free: no" in result.output

    def test_verify_segment_in_base36(self, runner, tmp_path):
        path = tmp_path / "q12.txt"
        path.write_text("# xbifix code n=3 q=12\na01\nb1a\n")
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 1
        assert result.output == (
            "cross-bifix-free: no (prefix 'a' of a01 is a suffix of b1a)\n"
        )
        # a two-symbol segment, spelled through the q=36 digit table
        path = tmp_path / "q36.txt"
        path.write_text("# xbifix code n=3 q=36\nab0\nzab\n")
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 1
        assert result.output == (
            "cross-bifix-free: no (prefix 'ab' of ab0 is a suffix of zab)\n"
        )

    def test_verify_parse_error_exit_2(self, runner, tmp_path):
        path = tmp_path / "mangled.txt"
        path.write_text("# xbifix code n=4 q=2\n0x!1\n")
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 2
        assert "line" in result.output

    def test_verify_alphabet_zero_exit_2(self, runner, tmp_path):
        # int(text, 0) would guess the base, so q=0 is refused in the header
        path = tmp_path / "q0.txt"
        path.write_text("# xbifix code n=4 q=0\n0011\n")
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 2
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("usage: line 1: ")

    def test_verify_base_prefix_exit_2(self, runner, tmp_path):
        # int("0b11", 2) == 3, but 'b' is not a base-2 digit
        path = tmp_path / "prefix.txt"
        path.write_text("# xbifix code n=4 q=2\n0011\n0b11\n")
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 2
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("usage: line 3: ")

    def test_verify_past_the_digit_limit(self, runner, tmp_path):
        # 3**10000 has more decimal digits than the interpreter formats by default
        path = tmp_path / "c10000.txt"
        path.write_text("# xbifix code n=10000 q=3\n" + "1" * 9999 + "2\n")
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 0
        assert result.stderr == ""
        assert result.output == (
            "cross-bifix-free: yes; nonexpandable: not checked (instance too large)\n"
        )

    @pytest.mark.parametrize(
        "text, status, calls, walks",
        [
            (format_code(generate_direct(16, 5, 2)), 0, 0, 1),
            ("# xbifix code n=2 q=2\n01\n10\n", 1, 1, 2),
            (format_code(generate_direct(16, 5, 3)), 0, 1, 1),
        ],
        ids=["valid", "invalid", "too-large"],
    )
    def test_verify_derives_the_pools_once(self, runner, tmp_path, monkeypatch, text, status, calls, walks):
        # the expansion walk derives every length's affix pools itself;
        # find_violation derives them again only for a code that the walk
        # refuses, as invalid or as too large
        import xbifix.cli as cli
        import xbifix.words as words

        violation, pooled = words.find_violation, []
        pools, walked = words._affix_pools, []

        def counted(code):
            pooled.append(len(code))
            return violation(code)

        def counted_walk(values, n, q):
            walked.append(len(values))
            return pools(values, n, q)

        for module in (cli, words):  # cli holds its own reference to find_violation
            monkeypatch.setattr(module, "find_violation", counted)
        monkeypatch.setattr(words, "_affix_pools", counted_walk)
        path = tmp_path / "c.txt"
        path.write_text(text)
        assert runner.invoke(main, ["verify", str(path)]).exit_code == status
        assert len(pooled) == calls
        assert len(walked) == walks

    def test_verify_too_large_to_scan(self, runner, tmp_path):
        path = tmp_path / "c25.txt"
        write_code(generate_direct(25, 20, 2), path)
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 0
        assert result.output == (
            "cross-bifix-free: yes; nonexpandable: not checked (instance too large)\n"
        )


# Answers too large to compute or print: each is refused at once with
# this stderr line.  Without the refusal each ran on for seconds or
# minutes, or ended in a MemoryError, so these rows run in a fresh
# process under a timeout.
_UNBOUNDED = {
    "fib --k 2 --q 2 --n " + str(10**30): "capacity: F(n) at q=2 for n of 100 bits exceeds cap 1048576 bits\n",
    "best --n " + str(10**20): "capacity: n has 67 bits, exceeds cap 100000\n",
    "table --n-max " + str(10**6): "capacity: --n-max has 20 bits, exceeds cap 1000\n",
    # 2**20 words of 10**6 digits, 2**20 of 10**5 (no file is opened) and one of 10**7
    "gen --n 1000022 --k 1000000": "capacity: M*n = 1048576*1000022 digits exceeds cap 4194304\n",
    "gen --n 100022 --k 100000 --out <witness>": "capacity: M*n = 1048576*100022 digits exceeds cap 4194304\n",
    "gen --n 10000000 --k 9999998": "capacity: M*n = 1*10000000 digits exceeds cap 4194304\n",
    # every row passes fib's bit cap, but the sizes to n = 1000 add up to 50M and 500M bits
    f"table --q {2**100} --n-max 1000":
        "capacity: sizes to --n-max 1000 at q of 101 bits need 50000000 bits, exceeds cap 4194304\n",
    f"table --q {2**1000} --n-max 1000":
        "capacity: sizes to --n-max 1000 at q of 1001 bits need 500000000 bits, exceeds cap 4194304\n",
}


def _invoke_fresh(args, timeout=5):
    """Like _Runner.invoke, in a new interpreter that must exit in time."""
    proc = _fresh(["-c", "import sys; from xbifix.cli import main; main(sys.argv[1:])", *args], timeout)
    return types.SimpleNamespace(exit_code=proc.returncode, stdout=proc.stdout, stderr=proc.stderr,
                                 output=proc.stdout + proc.stderr)


class TestErrors:
    @pytest.mark.parametrize(
        "args, code",
        [
            *((line.split(), 3) for line in _UNBOUNDED),
            (["table", "--q", "1"], 2),
            (["probe", "--k-min", "1", "--k-max", "3"], 2),
            (["probe", "--k-max", "3"], 2),  # below the default --k-min 4: no row
            (["table", "--n-max", "2"], 2),  # the table starts at n = 3: no row
            (["probe", "--k-max", "5", "--c", "-1"], 2),
            (["probe", "--k-max", "5", "--c", "inf"], 2),
            (["probe", "--k-max", "5", "--c", "1e400"], 2),
            (["probe", "--k-max", "5", "--c", "nan"], 2),
            (["probe", "--q", "1", "--k-max", "5"], 2),
            (["probe", "--k-max", "5", "--c", "1e300"], 3),
            (["probe", "--k-max", "5", "--c", "1e-300"], 2),  # n(4) = 1, too short for k = 4
            (["probe", "--k-min", "1100", "--k-max", "1100"], 3),  # n(k) past the float range
            (["probe", "--k-max", "200000"], 3),  # refused at k = 17, before rooting k = 18
            (["clique", "--n", "6", "--budget", "0"], 2),
            (["clique", "--n", "11", "--budget", "nan"], 2),
            (["clique", "--n", "4", "--q", "1"], 2),
            (["clique", "--n", "0"], 2),
            (["clique", "--q", "3", "--n", "9"], 2),
            (["table", "--q", "4", "--n-max", "8", "--clique-upto", "8"], 2),
            (["gen", "--n", "30", "--k", "2"], 3),
            (["gen", "--n", "20000", "--k", "2"], 3),
            (["gen", "--n", "4000000", "--k", "2", "--q", "3"], 3),
            (["clique", "--long", "--n", "20000"], 3),
            (["gen", "--n", "10", "--k", "2", "--q", "40"], 2),
            (["gen", "--n", "6", "--k", "2", "--q", "40"], 2),
            (["clique", "--n", "3", "--q", "40"], 2),
            (["clique", "--long", "--n", "3", "--q", "40"], 2),
            (["table", "--q", "40", "--n-max", "5", "--clique-upto", "5"], 2),
            (["table", "--n-max", "5", "--clique-upto", "-1"], 2),
            (["gen", "--n", "7", "--k", "2", "--out", "/nonexistent/x.txt"], 2),
            (["clique", "--n", "7", "--witness-out", "/nonexistent/x.txt"], 2),
            (["gen", "--n", "7", "--k", "2", "--out", ""], 2),
            (["clique", "--n", "7", "--witness-out", ""], 2),
            (["clique", "--n", "20", "--long", "--witness-out", "<witness>"], 3),
            (["clique", "--n", "5", "--budget", "0", "--witness-out", "<witness>"], 2),
            (["sim", "--code", "<code>", "--trials", "2000000000"], 3),  # past sim.STATE_CAP
            (["alpha", "--k", "2", "--q", "2", "--bits", "100000000000000000000"], 2),  # past MAX_PRECISION_BITS
        ],
        ids=lambda a: " ".join(a) if isinstance(a, list) else f"exit-{a}",
    )
    def test_one_stderr_line_no_traceback(self, runner, tmp_path, args, code):
        line = " ".join(args)
        if "<code>" in args:  # the (7,2,2) code file
            path = tmp_path / "c7.txt"
            write_code(generate_direct(7, 2, 2), path)
            args = [str(path) if a == "<code>" else a for a in args]
        witness = tmp_path / "w.txt"
        args = [str(witness) if a == "<witness>" else a for a in args]
        if line in _UNBOUNDED:
            result = _invoke_fresh(args)
            assert result.stderr == _UNBOUNDED[line]
        else:
            result = runner.invoke(main, args)
            assert isinstance(result.exception, SystemExit)
        assert not witness.exists()  # a refused run leaves no file for verify to reject
        assert result.exit_code == code
        assert len(result.stderr.splitlines()) == 1
        assert len(result.stderr) < 200
        assert result.stderr.startswith("usage: " if code == 2 else "capacity: ")
        assert "Traceback" not in result.output
        if "40" in args:
            assert result.stderr == "usage: alphabet size must be in [2, 36], got 40\n"
        if "1e300" in args:  # the refused length is named, not printed
            assert result.stderr == "capacity: n(k=4) has 1001 bits, exceeds cap 200000\n"
        if "1e-300" in args:
            assert result.stderr == "usage: n(k=4) = 1 at c=1e-300 is below k+2 = 6\n"
        if "200000" in args:
            assert result.stderr == "capacity: n(k=17) has 18 bits, exceeds cap 200000\n"
        if "2000000000" in args:  # 22 bytes a trial: times, alive and 6 carried symbols
            assert result.stderr == (
                "capacity: 2000000000 trials need 44000000000 bytes of state, exceeds cap 536870912\n"
            )


# Runs the command line in a fresh interpreter, then prints which of the
# libraries it loaded that cost start-up time: numpy and mpmath; click,
# dataclasses and inspect, which the package does not use; and fractions
# with decimal, which only exact rational bounds need.  The commands below
# must not pay for them.
_LOADED = """
import json, sys
import xbifix.cli
if sys.argv[1:]:
    try:
        xbifix.cli.main(sys.argv[1:], prog_name="xbifix")
    except SystemExit as exc:
        print("exit", exc.code)
libraries = ("numpy", "mpmath", "click", "dataclasses", "inspect", "fractions", "decimal")
print(json.dumps([m for m in libraries if m in sys.modules]))
"""

# The closed form in a new interpreter, then the same report: it rounds on
# its root bracket in plain integers.
_CLOSED_FORM = """
from xbifix.fibonacci import fib, fib_closed_form
print(fib_closed_form(8, 5, 200) == fib(8, 5, 200))
""" + _LOADED

# The package's submodules that `import xbifix` loads: perfbench/spans.py
# looks the layer functions up in them after that one import.
_LAYERS = """
import json, sys
import xbifix
print(json.dumps(sorted(m for m in sys.modules if m.startswith("xbifix."))))
"""


def _fresh(argv, timeout):
    """Python run on argv in a new interpreter that imports the package
    from the source tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def _fresh_run(*args, script=_LOADED):
    """(stdout lines before the report, the report) of one command in a
    new interpreter."""
    proc = _fresh(["-c", script, *args], 120)
    assert proc.returncode == 0, proc.stderr
    *output, loaded = proc.stdout.splitlines()
    return output, json.loads(loaded)


class TestImportCost:
    def test_import_loads_neither_library(self):
        assert _fresh_run() == ([], [])

    def test_import_loads_every_layer(self):
        layers = ["bounds", "clique", "construction", "fibonacci", "sim", "words"]
        assert _fresh_run(script=_LAYERS) == ([], [f"xbifix.{m}" for m in layers])

    def test_version_loads_neither_library(self):
        output, loaded = _fresh_run("--version")
        assert "version" in output[0] and output[-1] == "exit 0"
        assert loaded == []

    def test_gen_and_verify_too_large_load_neither_library(self, tmp_path):
        out = tmp_path / "c.txt"
        output, loaded = _fresh_run("gen", "--n", "16", "--k", "5", "--q", "3", "--out", str(out))
        assert output == [f"wrote 77544 words to {out}", "exit 0"]
        assert loaded == []
        assert out.read_text() == format_code(generate_direct(16, 5, 3))
        # q**n is past the expansion walk's cap, so the walk never starts
        output, loaded = _fresh_run("verify", str(out))
        verdict = "cross-bifix-free: yes; nonexpandable: not checked (instance too large)"
        assert (output, loaded) == ([verdict, "exit 0"], [])

    @pytest.mark.parametrize("n, verdict", [(16, "yes"), (8, "no")])
    def test_verify_expansion_walk_loads_neither_library(self, tmp_path, n, verdict):
        out = tmp_path / "c.txt"
        write_code(generate_direct(n, 5, 2), out)
        output, loaded = _fresh_run("verify", str(out))
        assert output == [f"cross-bifix-free: yes; nonexpandable: {verdict}", "exit 0"]
        assert loaded == []

    @pytest.mark.parametrize(
        "args, rationals",
        [(["clique", "--n", "8"], []), (["table", "--n-max", "8", "--clique-upto", "8"], ["fractions", "decimal"])],
        ids=["clique", "table"],
    )
    def test_clique_search_loads_neither_library(self, runner, args, rationals):
        # the graph is built in plain ints; the search time is left out
        def untimed(lines):
            return [re.sub(r", \d+\.\d+s\]$", "]", line) for line in lines]

        output, loaded = _fresh_run(*args)
        # table's upper bound is an exact Fraction
        assert output[-1] == "exit 0" and set(loaded) <= set(rationals)
        assert untimed(output[:-1]) == untimed(runner.invoke(main, args).stdout.splitlines())

    def test_closed_form_loads_no_library(self):
        assert _fresh_run(script=_CLOSED_FORM) == (["True"], [])

    def test_probe_loads_no_library(self, runner):
        # n(k) is certified on the root bracket's ints, with no mpf power
        output, loaded = _fresh_run("probe", "--k-max", "6")
        assert output[-1] == "exit 0" and loaded == []
        assert output[:-1] == runner.invoke(main, ["probe", "--k-max", "6"]).stdout.splitlines()

    def test_alpha_loads_mpmath_when_it_runs(self, runner):
        output, loaded = _fresh_run("alpha", "--k", "3", "--q", "2")
        assert output == ["1.8392867552141611325518525646532866", "exit 0"]
        assert "mpmath" in loaded and "numpy" not in loaded
        assert runner.invoke(main, ["alpha", "--k", "3", "--q", "2"]).stdout == output[0] + "\n"
