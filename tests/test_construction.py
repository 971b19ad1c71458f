import pytest

from xbifix import construction
from xbifix.construction import BEST_N_CAP, best_k_and_size, best_size, generate_direct, size_formula
from xbifix.words import CapacityError, Code, find_expansion, format_code, verify_code

from oracles import code_symbols, digits_oracle, full_k_best, generate_recursive, naive_fib_list

# published size table for the binary alphabet: n -> (S(n,2), best k)
TABLE = {
    3: (1, None), 4: (1, 2), 5: (2, 2), 6: (3, 2), 7: (5, 2), 8: (8, 2),
    9: (13, 2), 10: (24, 3), 11: (44, 3), 12: (81, 3), 13: (149, 3),
    14: (274, 3), 15: (504, 3), 16: (927, 3), 17: (1705, 3), 18: (3136, 3),
    19: (5768, 3), 20: (10671, 4), 21: (20569, 4), 22: (39648, 4),
    23: (76424, 4), 24: (147312, 4), 25: (283953, 4), 26: (547337, 4),
    27: (1055026, 4), 28: (2033628, 4), 29: (3919944, 4), 30: (7555935, 4),
}


def valid_ks(n):
    return range(2, n - 1)


class TestGenerateDirect:
    def test_n7_k2_binary(self):
        code = generate_direct(7, 2, 2)
        got = {digits_oracle(v, 7, 2) for v in code.values}
        assert got == {"0010101", "0010111", "0011011", "0011101", "0011111"}

    def test_n4_k2_binary(self):
        code = generate_direct(4, 2, 2)
        assert {digits_oracle(v, 4, 2) for v in code.values} == {"0011"}

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_shortest_case_size(self, q, k):
        # n = k+2: all (0^k, alpha, beta) with alpha, beta nonzero
        code = generate_direct(k + 2, k, q)
        assert len(code) == (q - 1) ** 2

    def test_membership_structure(self):
        for n, k, q in [(8, 2, 2), (9, 3, 2), (7, 2, 3)]:
            for s in code_symbols(generate_direct(n, k, q)):
                assert s[:k] == (0,) * k
                assert s[k] != 0
                assert s[-1] != 0

    def test_alphabet_beyond_base36(self):
        # refused as an alphabet, at lengths under the enumeration cap and over it
        for n in (6, 10):
            with pytest.raises(ValueError, match="alphabet size"):
                generate_direct(n, 2, 40)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            generate_direct(5, 4, 2)
        with pytest.raises(ValueError):
            generate_direct(5, 1, 2)

    def test_capacity_guard(self):
        # q**(n-k-2) = 2**26 interior windows, past ENUM_CAP = 2**20
        with pytest.raises(CapacityError):
            generate_direct(30, 2, 2)

    def test_capacity_guard_past_the_digit_limit(self):
        # 2**19996 has more decimal digits than the interpreter formats by
        # default: the guard names the power instead of printing it
        with pytest.raises(CapacityError, match=r"2\*\*19996 exceeds cap"):
            generate_direct(20000, 2, 2)

    def test_digit_cap_boundary(self, monkeypatch):
        # (24,4,2) has 147,312 words of 24 digits: admitted with the cap at
        # its M*n, refused one digit below, before any window is enumerated
        assert 24 * 147_312 <= construction.GEN_DIGITS_CAP
        monkeypatch.setattr(construction, "GEN_DIGITS_CAP", 24 * 147_312)
        assert len(generate_direct(24, 4, 2)) == 147_312
        monkeypatch.setattr(construction, "GEN_DIGITS_CAP", 24 * 147_312 - 1)
        with pytest.raises(CapacityError, match=r"^M\*n = 147312\*24 digits exceeds cap 3535487$"):
            generate_direct(24, 4, 2)


def oracle_file_text(n, k, q):
    """The code file of S_{k,q}(n) from the recursive generator and a
    formatter that takes one divmod per symbol."""
    words = [digits_oracle(v, n, q) for v in generate_recursive(n, k, q).values]
    return "".join(line + "\n" for line in [f"# xbifix code n={n} q={q}", *words])


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("q", [2, 3])
    def test_direct_equals_recursive(self, q):
        # the written file, byte for byte, so the words and their order too
        for n in range(4, 13):
            for k in valid_ks(n):
                assert format_code(generate_direct(n, k, q)) == oracle_file_text(n, k, q), (n, k, q)

    @pytest.mark.parametrize("n, k, q", [(24, 4, 2), (16, 5, 3)])
    def test_large_file_equals_recursive(self, n, k, q):
        assert format_code(generate_direct(n, k, q)) == oracle_file_text(n, k, q)

    def test_recursion_boundary_case(self):
        # n = 2k+2 decomposes into k disjoint parts of sizes S(n-1)... S(n-k)
        k, q = 3, 2
        n = 2 * k + 2
        assert len(generate_recursive(n, k, q)) == sum(
            size_formula(n - l, k, q) for l in range(1, k + 1)
        )


class TestSizeFormula:
    def test_table_spot_values(self):
        assert size_formula(8, 2, 2) == 8
        assert size_formula(30, 4, 2) == 7555935
        assert size_formula(7, 2, 3) == 88

    @pytest.mark.parametrize("q", [2, 3])
    def test_counts_match_enumeration(self, q):
        for n in range(4, 13):
            for k in valid_ks(n):
                assert len(generate_direct(n, k, q)) == size_formula(n, k, q)


class TestVerification:
    @pytest.mark.parametrize("q", [2, 3])
    def test_generated_codes_verify(self, q):
        for n in range(4, 13):
            for k in valid_ks(n):
                assert verify_code(generate_direct(n, k, q))

    def test_nonexpandable_examples(self):
        assert find_expansion(generate_direct(7, 2, 2)) is None
        assert find_expansion(generate_direct(10, 3, 2)) is None

    def test_nonexpandable_iff_long_enough(self):
        # nonexpandability holds exactly when n >= 2k+1; shorter codes
        # admit expansions (e.g. 001101 extends the n=6, k=3 binary code),
        # apart from the sporadic nonexpandable case (n, k, q) = (4, 2, 2)
        for q in (2, 3):
            for n in range(4, 13 if q == 2 else 11):
                for k in valid_ks(n):
                    expected = n >= 2 * k + 1 or (q, n, k) == (2, 4, 2)
                    got = find_expansion(generate_direct(n, k, q)) is None
                    assert got == expected, (n, k, q)

    def test_expansion_witness_is_valid(self):
        code = generate_direct(6, 3, 2)
        extra = find_expansion(code)
        assert extra is not None and extra not in code.values
        assert verify_code(Code(tuple(sorted((*code.values, extra))), code.n, code.q))


class TestBestSize:
    def test_full_binary_table(self):
        for n, (size, k) in TABLE.items():
            record = best_size(n, 2)
            assert (record.size, record.best_k) == (size, k), n

    def test_per_k_consistency(self):
        record = best_size(16, 2)
        assert record.size == max(record.per_k.values())
        assert record.per_k[record.best_k] == record.size

    @pytest.mark.parametrize("q", [2, 3])
    def test_per_k_matches_definition(self, q):
        # every length to 300, across fib's switch from the zero-run sum
        # to the other paths (n = 96 for k = 2, 192 for k = 3)
        interiors = {k: naive_fib_list(k, q, 299 - k) for k in range(2, 299)}
        for n in range(4, 301):
            want = {k: (q - 1) ** 2 * interiors[k][n - k - 2] for k in valid_ks(n)}
            record = best_size(n, q)
            assert record.per_k == want, (n, q)
            assert record.best_k == max(want, key=want.get), (n, q)

    def test_n3_binary_only(self):
        assert best_size(3, 2).size == 1
        with pytest.raises(ValueError):
            best_size(3, 3)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            best_size(2, 2)

    def test_length_cap_boundary(self, monkeypatch):
        # the cap passes the check and one more is refused; the sizes at
        # the cap are stubbed, not counted, by n-k-2 <= (q-1)**2 * q**(n-k-2),
        # the bound the walk stops on
        monkeypatch.setattr(construction, "size_formula", lambda n, k, q: n - k - 2)
        assert best_size(BEST_N_CAP, 2).size == BEST_N_CAP - 4
        with pytest.raises(CapacityError, match=f"exceeds cap {BEST_N_CAP}"):
            best_size(BEST_N_CAP + 1, 2)


class TestBestKAndSize:
    @pytest.mark.parametrize("q,n_max", [(2, 1000), (3, 300), (5, 200)])
    def test_matches_full_k_maximum(self, q, n_max):
        # every length, against the maximum over every k, smallest k on ties
        want = full_k_best(q, n_max)
        for n in range(4, n_max + 1):
            assert best_k_and_size(n, q) == want[n], (n, q)

    @pytest.mark.parametrize(
        "n,q,error,message",
        [
            (2, 1, ValueError, "n must be >= 3, got 2"),
            (3, 1, ValueError, "n=3 is only tabulated for the binary alphabet"),
            (3, 3, ValueError, "n=3 is only tabulated for the binary alphabet"),
            (BEST_N_CAP + 1, 1, CapacityError, f"n has 17 bits, exceeds cap {BEST_N_CAP}"),
            (10, 1, ValueError, "q must be >= 2"),
            (BEST_N_CAP, 2**64, CapacityError, "exceeds cap"),
        ],
    )
    def test_refusals_match_best_size(self, n, q, error, message):
        # the same inputs refused in the same order with the same messages
        for maximize in (best_k_and_size, best_size):
            with pytest.raises(error, match=message):
                maximize(n, q)

    def test_stops_after_a_few_sizes(self, monkeypatch):
        # at the cap the best k is 16 and the bound falls to the best size
        # at k = 18: 16 of the 99,997 sizes are counted, at most 20 allowed
        calls, size = [], construction.size_formula

        def counted(n, k, q):
            calls.append(k)
            return size(n, k, q)

        monkeypatch.setattr(construction, "size_formula", counted)
        best_k, _ = best_k_and_size(BEST_N_CAP, 2)
        assert calls == list(range(2, len(calls) + 2))
        assert best_k == 16 and len(calls) <= 20
