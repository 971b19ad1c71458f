import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbifix.construction import generate_direct
from xbifix.words import (
    CapacityError,
    Code,
    bifix_free,
    cross_pair_ok,
    digits,
    find_expansion,
    find_violation,
    format_code,
    parse_code,
    read_code,
    verify_code,
    write_code,
)

from oracles import (
    all_words,
    code_of,
    code_symbols,
    digits_oracle,
    naive_cross_pair_ok,
    naive_is_bifix_free,
    naive_is_nonexpandable,
    naive_least_expansion,
    naive_verify,
    symbols_of,
    value_of,
)


def W(digits):
    """The symbols of a word written in base-36 digits."""
    return tuple(int(c, 36) for c in digits)


def filter_keeps(symbols, q=2):
    """The bifix_free filter's verdict on the one word."""
    v = value_of(symbols, q)
    return bifix_free([v], len(symbols), q) == [v]


words_strategy = st.integers(2, 4).flatmap(
    lambda q: st.lists(st.integers(0, q - 1), min_size=1, max_size=12).map(
        lambda sym: (tuple(sym), q)
    )
)


def test_value_classes_compare_by_field_and_are_read_only():
    from xbifix.sim import SimConfig

    code = Code((1, 4), 3, 2)  # {001, 100}
    config = SimConfig(Code((1,), 3, 2), 10)
    assert code == Code((1, 4), 3, 2) and hash(code) == hash(Code((1, 4), 3, 2)) and code != Code((1,), 3, 2)
    assert config == SimConfig(Code((1,), 3, 2), 10, 0) and config != SimConfig(Code((1,), 3, 2), 10, 1)
    assert code != (code.values, code.n, code.q)  # equal only to the same class
    assert len(code) == 2
    for obj, field in ((code, "values"), (config, "trials")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 5)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.extra = 1


class TestBifixFree:
    def test_paper_word(self):
        assert filter_keeps(W("1100000"))

    def test_smallest_bordered(self):
        assert not filter_keeps(W("00"))

    def test_binary_length4_count(self):
        # frozen from exhaustive enumeration with the naive check
        count = sum(map(filter_keeps, all_words(4, 2)))
        assert count == 6

    def test_length1_vacuous(self):
        assert filter_keeps(W("0"))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_oracle_equivalence_binary(self, n):
        for w in all_words(n, 2):
            assert filter_keeps(w) == naive_is_bifix_free(w)

    def test_oracle_equivalence_ternary(self):
        for n in range(2, 8):
            for w in all_words(n, 3):
                assert filter_keeps(w, 3) == naive_is_bifix_free(w)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_filter_matches_oracle_in_order(self, q):
        # values fed in descending order come back in that order
        for n in range(1, 9):
            symbols = list(itertools.product(range(q), repeat=n))  # symbols[v] spells v
            values = range(q**n - 1, -1, -1)
            want = [v for v in values if naive_is_bifix_free(symbols[v])]
            assert bifix_free(values, n, q) == want, (n, q)


class TestCrossPair:
    def test_self_pair_paper_word(self):
        v = 0b1100000
        assert cross_pair_ok(v, v, 7, 2)

    def test_oracle_verdict_0011_1101(self):
        assert cross_pair_ok(0b0011, 0b1101, 4, 2) == naive_cross_pair_ok(
            (0, 0, 1, 1), (1, 1, 0, 1)
        )
        assert not cross_pair_ok(0b0011, 0b1101, 4, 2)

    def test_oracle_verdict_01_01(self):
        # the naive oracle's verdict, frozen: (0,1) against itself is fine
        assert naive_cross_pair_ok((0, 1), (0, 1))
        assert cross_pair_ok(0b01, 0b01, 2, 2)

    def test_mismatch_rejected(self):
        # values outside [0, q**n) are no length-n word: 0b100 has three symbols
        with pytest.raises(ValueError):
            cross_pair_ok(0b01, 0b100, 2, 2)
        with pytest.raises(ValueError):
            cross_pair_ok(-1, 0b01, 2, 2)

    @given(words_strategy)
    def test_self_pair_is_bifix_free(self, word):
        symbols, q = word
        v = value_of(symbols, q)
        assert cross_pair_ok(v, v, len(symbols), q) == filter_keeps(symbols, q)

    def test_oracle_equivalence_exhaustive(self):
        for q, n in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]:
            pool = list(enumerate(all_words(n, q)))
            for (a, u), (b, v) in itertools.combinations_with_replacement(pool, 2):
                assert cross_pair_ok(a, b, n, q) == naive_cross_pair_ok(u, v)


class TestVerifyCode:
    def test_paper_set(self):
        code = code_of([W("1100000"), W("1100010"), W("1101000"), W("1101010")])
        assert verify_code(code)

    def test_violating_pair(self):
        code = code_of([W("01"), W("10")])
        assert not verify_code(code)
        # the segment 0, of length 1, is 01's prefix and 10's suffix
        assert find_violation(code) == (0b01, 0b10, 1)

    def test_matches_naive_on_random_codes(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 6)
            pool = list(all_words(n, 2))
            code = code_of(rng.sample(pool, rng.randint(1, min(6, len(pool)))))
            assert verify_code(code) == naive_verify(code)

    def test_words_beyond_int64(self):
        # 3**60 > 2**63: the integer view must stay exact
        import random

        rng = random.Random(11)
        for _ in range(40):
            code = code_of(
                (tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(60)) for _ in range(rng.randint(1, 4))), 3
            )
            assert verify_code(code) == naive_verify(code)
            witness = find_violation(code)
            assert (witness is None) == verify_code(code)
            if witness is not None:
                owner, other, length = witness
                assert owner in code.values and other in code.values and 1 <= length < 60
                owner, other = symbols_of(owner, 60, 3), symbols_of(other, 60, 3)
                assert owner[:length] == other[-length:]

    def test_permutation_invariant(self):
        words = [W("1100000"), W("1101010"), W("1100010")]
        assert verify_code(code_of(words)) == verify_code(code_of(reversed(words)))


class TestCodeValues:
    @pytest.mark.parametrize(
        "values,n,q",
        [((), 4, 2), ((3, 1), 4, 2), ((1, 1), 4, 2), ((16,), 4, 2), ((-1,), 4, 2),
         ((0,), 0, 2), ((0,), 1, 1), ((0,), 1, 37)],
        ids=["empty", "unsorted", "duplicate", "too-large", "negative", "n0", "q1", "q37"],
    )
    def test_invariant(self, values, n, q):
        with pytest.raises(ValueError):
            Code(values, n, q)

    def test_values_ascend(self):
        code = code_of([W("0111"), W("0011"), W("0001")])
        assert code.values == (1, 3, 7)
        assert [w.symbols for w in code.sorted_words()] == [W("0001"), W("0011"), W("0111")]


def _round_trip_codes():
    import random

    rng = random.Random(5)
    return [
        pytest.param(code_of(
            (tuple(rng.randrange(3) for _ in range(60)) for _ in range(20)), 3
        ), id="n60-q3"),
        pytest.param(code_of(map(W, ("0z", "a1", "zz", "00", "9a")), 36), id="q36"),
        pytest.param(code_of([W("0"), W("1")]), id="n1-q2"),
        pytest.param(code_of([W("z")], 36), id="n1-q36"),
        # past the interpreter's int-to-str digit limit (4300 by default)
        pytest.param(code_of(
            (tuple(rng.randrange(3) for _ in range(5000)) for _ in range(3)), 3
        ), id="n5000-q3"),
    ]


class TestNonexpandable:
    def test_singleton_01(self):
        # frozen verdict of the exhaustive check over Z_2^2
        code = code_of([W("01")])
        assert naive_is_nonexpandable(code)
        assert find_expansion(code) is None

    def test_expandable_example(self):
        code = code_of([W("00011")])
        expansion = find_expansion(code)
        assert expansion is not None and expansion not in code.values
        assert verify_code(Code(tuple(sorted((*code.values, expansion))), code.n, code.q))

    def test_matches_naive_small(self):
        import random

        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(2, 5)
            pool = [w for w in all_words(n, 2)]
            code = code_of(rng.sample(pool, rng.randint(1, 4)))
            if not verify_code(code):
                continue
            assert (find_expansion(code) is None) == naive_is_nonexpandable(code)

    def test_least_expansion_matches_naive_on_random_codes(self):
        # greedy random codes, some stopped early and some run until no
        # drawn word fits: the walk must return the naive scan's first word
        import random

        rng = random.Random(11)
        found = []
        for _ in range(80):
            q = rng.randint(2, 5)
            n = rng.randint(1, max(m for m in range(1, 13) if q**m <= 2**12))
            members: list[tuple[int, ...]] = []
            for _ in range(rng.randint(1, 40)):
                cand = tuple(rng.randrange(q) for _ in range(n))
                if cand not in members and all(naive_cross_pair_ok(cand, w) for w in [*members, cand]):
                    members.append(cand)
            if not members:
                continue
            code = code_of(members, q)
            expansion = find_expansion(code)
            assert expansion == naive_least_expansion(code), (n, q, members)
            found.append(expansion is not None)
        assert any(found) and not all(found)

    @pytest.mark.parametrize("block", [None, 2], ids=["default-block", "block-2"])
    @pytest.mark.parametrize("q, n_max", [(2, 12), (3, 7), (4, 6), (5, 5)])
    def test_least_expansion_matches_naive_on_construction_codes(self, q, n_max, block, monkeypatch):
        # reversing every word keeps a code cross-bifix-free; the reversed
        # codes' members end in 0^k, the case where fewest prefixes are pruned.
        # Blocks of 2 prefixes put a block boundary at every level.
        if block is not None:
            monkeypatch.setattr("xbifix.words._BLOCK", block)
        for n in range(4, n_max + 1):
            for k in range(2, n - 1):
                code = generate_direct(n, k, q)
                mirror = code_of((w[::-1] for w in code_symbols(code)), q)
                for c in (code, mirror):
                    assert find_expansion(c) == naive_least_expansion(c), (n, k, q)

    def test_capacity_guard(self):
        # 8 words, but q**n = 2**25 candidates, past NONEXPANDABLE_CAP = 2**24
        code = generate_direct(25, 20, 2)
        assert len(code) == 8
        with pytest.raises(CapacityError):
            find_expansion(code)


@pytest.fixture(scope="module")
def large_code_lines():
    """The 77,544-word (16,5,3) code file, split into lines."""
    return format_code(generate_direct(16, 5, 3)).split("\n")


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        code = code_of([W("1100000"), W("1101010")])
        path = tmp_path / "code.txt"
        write_code(code, path)
        assert read_code(path) == code
        # bit-exact round trip
        text = path.read_text()
        assert text == format_code(code)
        write_code(parse_code(text), path)
        assert path.read_text() == text

    @pytest.mark.parametrize("code", _round_trip_codes())
    def test_round_trip_against_word_path(self, code):
        text = format_code(code)
        assert parse_code(text) == code
        assert text.splitlines()[1:] == [digits_oracle(v, code.n, code.q) for v in code.values]
        assert [w.symbols for w in code.sorted_words()] == code_symbols(code)

    @pytest.mark.parametrize("q", [2, 3, 7, 12, 16, 35, 36])
    def test_digits_match_oracle(self, q):
        # two values build a table of 2q strings, 2,100 the full one of up
        # to 4,096; n below, at and past a chunk's digits, and the edge values
        import random

        rng = random.Random(q)
        for count in (2, 2100):
            for n in (1, 2, 3, 11, 12, 13, 25, 70):
                values = [0, q**n - 1, *(rng.randrange(q**n) for _ in range(count - 2))]
                assert digits(values, n, q) == [digits_oracle(v, n, q) for v in values], (count, n)

    def test_sorted_output(self):
        code = code_of([W("0011101"), W("0010101")])
        lines = format_code(code).splitlines()
        assert lines[1:] == sorted(lines[1:])

    def test_missing_header(self):
        with pytest.raises(ValueError, match=r"^line 1: missing"):
            parse_code("0011\n")

    def test_bad_digit_reports_line(self):
        with pytest.raises(ValueError, match=r"^line 3: "):
            parse_code("# xbifix code n=4 q=2\n0011\n00!1\n")

    def test_wrong_length_reports_line(self):
        with pytest.raises(ValueError, match=r"^line 2: "):
            parse_code("# xbifix code n=4 q=2\n001\n")

    @pytest.mark.parametrize(
        "line", ["0_11", "+011", " 011", "011 ", "\u0660\u0660\u0661\u0661"],
        ids=["underscore", "sign", "leading-space", "trailing-space", "arabic-indic"],
    )
    def test_int_syntax_refused(self, line):
        # int(line, 2) reads each of these as 3; the file format does not
        assert int(line, 2) == 3
        with pytest.raises(ValueError, match=r"^line 3: "):
            parse_code(f"# xbifix code n=4 q=2\n0011\n{line}\n")

    @pytest.mark.parametrize(
        "q, line", [(2, "0b11"), (8, "0o17"), (16, "0x1f"), (2, "0B11"), (16, "0X1F")]
    )
    def test_base_prefix_refused(self, q, line):
        # int(line, q) strips a prefix naming its own base; the file format does not
        assert int(line, q) > 0
        with pytest.raises(ValueError, match=r"^line 3: "):
            parse_code(f"# xbifix code n=4 q={q}\n0011\n{line}\n")

    def test_base_prefix_refused_at_piece_boundary(self):
        from xbifix.words import _PIECE

        line = "0" * _PIECE + "0b11"
        with pytest.raises(ValueError, match=r"^line 2: "):
            parse_code(f"# xbifix code n={len(line)} q=2\n{line}\n")

    @pytest.mark.parametrize(
        "damage",
        [lambda w: w[:8] + "3" + w[9:], lambda w: w + "\r", lambda w: w[:8] + "_" + w[8:-1],
         lambda w: w[:-1]],
        ids=["bad-digit", "carriage-return", "underscore", "short"],
    )
    def test_large_file_reports_exact_line(self, large_code_lines, damage):
        lines = list(large_code_lines)
        lines[49_999] = damage(lines[49_999])
        with pytest.raises(ValueError, match=r"^line 50000: "):
            parse_code("\n".join(lines))

    def test_large_file_duplicate_far_from_twin(self, large_code_lines):
        lines = list(large_code_lines)
        assert lines[-1] == ""
        lines[-2] = lines[1]
        with pytest.raises(ValueError, match="duplicate"):
            parse_code("\n".join(lines))

    def test_large_file_blank_lines_and_upper_case(self, large_code_lines):
        code = generate_direct(6, 2, 16)
        header, body = format_code(code).split("\n", 1)
        assert len(code) == 57_375 and body != body.upper()
        assert parse_code(header + "\n" + body.upper()) == code
        lines = list(large_code_lines)
        lines[1:1] = [""] * 3
        lines[40_000:40_000] = [""]
        assert parse_code("\n".join(lines) + "\n\n") == generate_direct(16, 5, 3)

    def test_either_case_parses(self):
        assert parse_code("# xbifix code n=3 q=16\n0aF\n0Ab\n") == code_of([W("0af"), W("0ab")], 16)

    @pytest.mark.parametrize("header", ["n=4 q=0", "n=4 q=1", "n=4 q=37", "n=0 q=2"])
    def test_header_out_of_range(self, header):
        with pytest.raises(ValueError, match=r"^line 1: bad header: "):
            parse_code(f"# xbifix code {header}\n0011\n")
