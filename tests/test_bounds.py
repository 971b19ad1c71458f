import math
from fractions import Fraction

import pytest

from xbifix.bounds import (
    asymptotic_probe,
    bilotta_size,
    bounds_report,
    catalan,
    target_ratio,
    upper_bound,
    variance_formula,
)
from xbifix.construction import best_size
from xbifix.fibonacci import PrecisionError
from xbifix.words import CapacityError

from oracles import naive_bilotta_size

# published comparison column (binary lattice-path construction sizes)
BILOTTA = {
    3: 1, 4: 1, 5: 2, 6: 3, 7: 5, 8: 8, 9: 14, 10: 23, 11: 42, 12: 72,
    13: 132, 14: 227, 15: 429, 16: 760, 17: 1430, 18: 2529, 19: 4862,
    20: 8790, 21: 16796, 22: 30275, 23: 58786, 24: 107786, 25: 208012,
    26: 380162, 27: 742900, 28: 1376424, 29: 2674440, 30: 4939443,
}


class TestUpperBound:
    def test_examples(self):
        assert upper_bound(9, 2) == Fraction(512, 17)
        assert upper_bound(3, 2) == Fraction(8, 5)
        assert upper_bound(7, 2) == Fraction(128, 13)

    def test_floor_values(self):
        assert upper_bound(9, 2).__floor__() == 30
        assert upper_bound(3, 2).__floor__() == 1
        assert upper_bound(7, 2).__floor__() == 9

    def test_construction_never_exceeds_bound(self):
        for n in range(3, 31):
            assert best_size(n, 2).size <= upper_bound(n, 2).__floor__()
        for n in range(4, 21):
            assert best_size(n, 3).size <= upper_bound(n, 3).__floor__()


class TestVariance:
    def test_examples(self):
        assert variance_formula(7, 2, 5) == pytest.approx(322.56)
        assert variance_formula(3, 2, 1) == pytest.approx(24.0)

    def test_zero_at_bound(self):
        # M = q^n/(2n-1) exactly: sigma^2 = 0 (n=5, q=2: 32/... pick
        # instances where the bound is integral)
        # q^n = M*(2n-1): use n=1: q/1 -> M=q
        assert variance_formula(1, 2, 2) == pytest.approx(0.0)
        assert variance_formula(5, 3, 27) == pytest.approx(0.0)

    def test_nonnegative_below_bound(self):
        for n in range(2, 12):
            for q in (2, 3):
                limit = upper_bound(n, q)
                for M in range(1, int(limit) + 1):
                    assert variance_formula(n, q, M) >= 0

    def test_invalid_M(self):
        with pytest.raises(ValueError):
            variance_formula(3, 2, 0)


class TestBilotta:
    def test_catalan_basics(self):
        assert [catalan(m) for m in range(1, 8)] == [1, 2, 5, 14, 42, 132, 429]

    def test_full_table(self):
        for n, expected in BILOTTA.items():
            assert bilotta_size(n) == expected, n

    def test_closed_form_matches_half_sums(self):
        # Segner's identity against the term-by-term half-sums, both parities of m
        for n in range(3, 2001):
            assert bilotta_size(n) == naive_bilotta_size(n), n

    def test_construction_larger_for_long_lengths(self):
        for n in range(13, 31):
            assert best_size(n, 2).size > bilotta_size(n)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            bilotta_size(2)


class TestProbe:
    def test_targets(self):
        assert target_ratio(2) == pytest.approx(1 / (2 * math.e))
        assert target_ratio(3) == pytest.approx(2 / (3 * math.e))

    def test_binary_trend(self):
        rows = asymptotic_probe(2, range(4, 13))
        target = target_ratio(2)
        for row in rows:
            assert 0 < row.ratio < 0.5
        # the ratio approaches the limiting constant monotonically
        gaps = [abs(r.ratio - target) for r in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] / target < 0.15

    def test_custom_c(self):
        rows = asymptotic_probe(2, [8], c=2.0)
        assert 0 < rows[0].ratio < 0.5

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
    def test_c_must_be_finite_and_positive(self, c):
        with pytest.raises(ValueError, match="c must be finite and positive"):
            asymptotic_probe(2, [8], c=c)

    def test_ternary(self):
        rows = asymptotic_probe(3, range(4, 9))
        target = target_ratio(3)
        gaps = [abs(r.ratio - target) for r in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_capacity_guard(self):
        from xbifix.words import CapacityError

        with pytest.raises(CapacityError):
            # n(18) = 524,270, past PROBE_N_CAP = 200,000
            asymptotic_probe(2, [18])

    def test_huge_length_refused_without_str(self):
        # n(20000) has over 4,300 decimal digits, the interpreter's default
        # limit for int-to-str; the refusal names its bit length instead.
        # alpha is about 2 - 2**-20000, so 2 * alpha**20000 is about
        # 2**20001 - 20000: 20001 bits, where a 53-bit power, which rounds
        # alpha to 2, gave 20002
        from xbifix.words import CapacityError

        with pytest.raises(CapacityError, match="n\\(k=20000\\) has 20001 bits"):
            asymptotic_probe(2, [20000])

    def test_capped_range_refused_before_counting(self, monkeypatch):
        # n(15) and n(16) are under the cap, n(17) = 262,127 is not: no
        # size is counted before the refusal
        from xbifix import bounds
        from xbifix.words import CapacityError

        def refuse(*args):
            raise AssertionError("counted a size before checking the cap")

        monkeypatch.setattr(bounds, "size_formula", refuse)
        with pytest.raises(CapacityError, match="k=17"):
            asymptotic_probe(2, range(15, 21))

    def test_wide_range_refused_at_first_length_past_cap(self):
        # a range up to k = 200,000 must not root every k before refusing:
        # no k past 40 may be drawn
        from xbifix.words import CapacityError

        def ks():
            for k in range(2, 200_001):
                if k > 40:
                    raise AssertionError(f"drew k={k} past the first length over the cap")
                yield k

        with pytest.raises(CapacityError, match="^n\\(k=17\\) has 18 bits, exceeds cap 200000$"):
            asymptotic_probe(2, ks())


def _mpf_length(k, q):
    # n(k) as ceil(c * alpha**k) in a 53-bit mpf power, the way the
    # lengths were taken before they were certified in integers
    from xbifix.fibonacci import find_alpha

    x = q / (q - 1) * find_alpha(k, q).alpha ** k
    return int(x) + (int(x) < x)


class TestProbeLengths:
    @pytest.mark.parametrize("q", range(2, 40))
    def test_certified_lengths_match_the_mpf_power(self, q, monkeypatch):
        # every k at the default c up to the last length under the cap;
        # the sizes are stubbed, as the rows follow from (k, n)
        from xbifix import bounds

        monkeypatch.setattr(bounds, "size_formula", lambda n, k, q: 1)
        ks = range(2, 2)
        while _mpf_length(ks.stop, q) <= bounds.PROBE_N_CAP:
            ks = range(2, ks.stop + 1)
        want = [(k, _mpf_length(k, q)) for k in ks]
        assert [(r.k, r.n) for r in asymptotic_probe(q, ks)] == want
        with pytest.raises(CapacityError, match=f"^n\\(k={ks.stop}\\) has "):
            asymptotic_probe(q, [ks.stop])

    def test_ceilings_that_differ_are_refused(self, monkeypatch):
        # a bracket as wide as [1.5, 2] puts c * alpha**k anywhere in
        # [3, 4] at k = 1: no length is certified
        from xbifix import bounds

        monkeypatch.setattr(bounds, "_bracket", lambda k, q, bits: (3, 4, 1))
        with pytest.raises(PrecisionError, match="n\\(k=1\\) at c=2.0 lies between 3 and 4"):
            asymptotic_probe(2, [1], c=2.0)

    def test_exact_integer_is_its_own_ceiling(self, monkeypatch):
        # c * alpha**k = 3 exactly at both ends: n = 3, not 4
        from xbifix import bounds

        monkeypatch.setattr(bounds, "_bracket", lambda k, q, bits: (3, 3, 1))
        monkeypatch.setattr(bounds, "size_formula", lambda n, k, q: 1)
        assert [(r.k, r.n) for r in asymptotic_probe(2, [1], c=2.0)] == [(1, 3)]


class TestReport:
    def test_report_fields(self):
        rep = bounds_report(9, 2)
        assert rep.construction_size == 13
        assert rep.bilotta == 14
        assert rep.upper_bound == Fraction(512, 17)
        assert rep.construction_size <= rep.upper_bound.__floor__()

    def test_ratios_are_exact(self):
        # the ratio is the correctly rounded quotient; a log/exp detour
        # is off in the last digits (0.24577867266217931 at k=7, n=3274)
        (row,) = asymptotic_probe(3, [7])
        assert row.n == 3274
        assert row.ratio == float(Fraction(row.size * row.n, 3**row.n))

    def test_non_binary_has_no_bilotta(self):
        rep = bounds_report(8, 3)
        assert rep.bilotta is None
