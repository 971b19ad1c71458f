import math
import random
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from xbifix import fibonacci
from xbifix.fibonacci import (
    DEFAULT_PRECISION_BITS,
    FIB_BITS_CAP,
    PrecisionError,
    beta_bracket,
    fib,
    fib_closed_form,
    find_alpha,
    g_poly,
    kq_threshold,
    other_roots_inside_unit_disk,
)

from xbifix.words import CapacityError

from oracles import (
    exact_fraction,
    f_poly,
    g_sign,
    naive_fib,
    naive_fib_list,
    naive_fib_mod,
    numeric_roots_inside_unit_disk,
)

LARGE_N = [(3, 2, 3000), (10, 3, 2000), (3, 2, 40)]


def _spy(calls, func):
    def wrapped(k, q, n):
        calls.append(n)
        return func(k, q, n)

    return wrapped


def assert_enclosure(k, q, est, bits):
    """g(lo) < 0 < g(hi) in interval arithmetic, at twice the bracket's
    precision `bits`: g changes sign exactly at alpha, so lo < alpha < hi."""
    old, mpmath.iv.prec = mpmath.iv.prec, 2 * bits + 64
    try:
        assert g_poly(k, q, mpmath.iv.mpf(est.lo)).b < 0, (k, q)
        assert g_poly(k, q, mpmath.iv.mpf(est.hi)).a > 0, (k, q)
    finally:
        mpmath.iv.prec = old


class TestRecurrence:
    def test_usual_fibonacci(self):
        assert [fib(2, 2, n) for n in range(8)] == [1, 2, 3, 5, 8, 13, 21, 34]

    def test_three_step(self):
        assert [fib(3, 2, n) for n in range(6)] == [1, 2, 4, 7, 13, 24]

    def test_initialization_is_power(self):
        assert fib(3, 3, 2) == 9
        assert fib(5, 4, 3) == 64
        # k**4 is past float range here, so the boundary must not need it
        assert fib(10**100, 2, 5) == 32

    def test_weighted_ternary(self):
        # F(n) = 2*(F(n-1) + F(n-2)), init 1, 3
        assert [fib(2, 3, n) for n in range(4)] == [1, 3, 8, 22]

    def test_validation(self):
        with pytest.raises(ValueError):
            fib(1, 2, 0)
        with pytest.raises(ValueError):
            fib(2, 1, 0)
        with pytest.raises(ValueError):
            fib(2, 2, -1)

    @pytest.mark.parametrize("q", [2, 3])
    def test_bit_cap_boundary(self, monkeypatch, q):
        # the longest n whose F(n) <= q**n fits in FIB_BITS_CAP bits passes
        # the check; one more is refused.  Both paths are stubbed: the
        # answer at the cap is not computed
        for path in ("_fib_by_zero_runs", "_fib_by_doubling"):
            monkeypatch.setattr(fibonacci, path, lambda k, q, n: n)
        longest = math.floor(FIB_BITS_CAP / math.log2(q))
        assert fib(2, q, longest) == longest
        with pytest.raises(CapacityError, match=f"n of {(longest + 1).bit_length()} bits exceeds cap"):
            fib(2, q, longest + 1)

    @pytest.mark.parametrize("cases", [LARGE_N, LARGE_N[::-1]], ids=["forward", "reverse"])
    def test_large_n_matches_definition(self, cases):
        # both call orders, so no value can come from an earlier call
        for k, q, n in cases:
            assert fib(k, q, n) == naive_fib(k, q, n), (k, q, n)

    def test_small_n_matches_definition(self):
        # the powers q**n below k, F(k) = q**k - 1, and the first steps
        for k in range(2, 13):
            for q in range(2, 6):
                for n in range(k + 3):
                    assert fib(k, q, n) == naive_fib(k, q, n), (k, q, n)

    @pytest.mark.parametrize("k", range(2, 17))
    def test_every_short_length_matches_definition(self, k, monkeypatch):
        # every n up to 500, where fib takes both paths for k <= 5, and
        # the last three lengths of the zero-run sum and the first three
        # after it, for every k and q
        taken = []
        monkeypatch.setattr(fibonacci, "_fib_by_zero_runs", _spy(taken, fibonacci._fib_by_zero_runs))
        for q in range(2, 6):
            end = math.ceil(max(8 * k * (k + 8), k**3 * math.log2(2 * q) / 4))  # the first n past the sum
            want = naive_fib_list(k, q, max(501, end + 3))
            for n in sorted({*range(501), *range(end - 3, end + 3)}):
                assert fib(k, q, n) == want[n], (k, q, n)
            assert taken[-3:] == [end - 3, end - 2, end - 1], (k, q)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_doubling_matches_definition_at_every_short_length(self, k):
        # every n up to 300, both parities of the last level and the
        # smallest shifts, where no square is taken; fib sends none of
        # these lengths to doubling
        for q in (2, 3, 5, 36):
            want = naive_fib_list(k, q, 301)
            for n in range(301):
                assert fibonacci._fib_by_doubling(k, q, n) == want[n], (k, q, n)

    @pytest.mark.parametrize(
        "k,q,n",
        [
            (2, 2, 200_000),
            (10, 3, 88_552),
            (10, 3, 88_553),
            (14, 2, 32_738),
            (14, 2, 32_739),
            (24, 3, 8_933),
            (24, 3, 8_934),
            (24, 3, 29_214),
            (24, 3, 29_215),
            (40, 2, 31_999),
            (40, 2, 32_000),
            (40, 3, 41_359),
            (40, 3, 41_360),
        ],
    )
    def test_long_lengths_match_definition_mod_prime(self, k, q, n):
        # the probe's lengths and their odd neighbours, the last zero-run
        # sum and first doubling at k = 24, q = 3 and at k = 40, q = 2, 3,
        # and two doublings at k = 24 that interpolate their squares, against
        # the definition stepped on residues
        p = 2**61 - 1
        assert fib(k, q, n) % p == naive_fib_mod(k, q, n, p)

    def test_each_path_is_taken(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("wrong path")

        # F_{2,2}(n) is the Fibonacci number after F_n, about
        # phi**(n+1) / sqrt(5)
        paths = {
            "_fib_by_zero_runs": (lambda: fib(20, 2, 1000), naive_fib(20, 2, 1000)),
            "_fib_by_doubling": (lambda: fib(2, 2, 200_000).bit_length(), 138_849),
        }
        for path, (run, want) in paths.items():
            for other in set(paths) - {path}:
                monkeypatch.setattr(fibonacci, other, refuse)
            assert run() == want, path
            monkeypatch.undo()

    @pytest.mark.parametrize(
        "k,q,n,path",
        [
            # the probe's lengths, where doubling measured fastest
            (2, 2, 200_000, "_fib_by_doubling"),
            (10, 3, 88_552, "_fib_by_doubling"),
            (14, 2, 32_738, "_fib_by_doubling"),
            # each side of max(8*k*(k+8), k**3 * log2(2*q) / 4): its first
            # term at q = 2, 3, its second at q = 2, 3, 5
            (2, 2, 159, "_fib_by_zero_runs"),
            (2, 2, 160, "_fib_by_doubling"),
            (8, 2, 1023, "_fib_by_zero_runs"),
            (8, 2, 1024, "_fib_by_doubling"),
            (12, 3, 1919, "_fib_by_zero_runs"),
            (12, 3, 1920, "_fib_by_doubling"),
            (40, 2, 31_999, "_fib_by_zero_runs"),
            (40, 2, 32_000, "_fib_by_doubling"),
            (24, 3, 8_933, "_fib_by_zero_runs"),
            (24, 3, 8_934, "_fib_by_doubling"),
            (20, 5, 6_643, "_fib_by_zero_runs"),
            (20, 5, 6_644, "_fib_by_doubling"),
            # at the old boundary, max(16*k*(k+1), k**4 * log2(q) / 18), the
            # sum measured 13x and 12x slower than doubling; its first
            # doubled lengths still double
            (40, 3, 225_416, "_fib_by_doubling"),
            (40, 2, 142_222, "_fib_by_doubling"),
            (8, 2, 1152, "_fib_by_doubling"),
            (12, 3, 2496, "_fib_by_doubling"),
            (40, 2, 142_223, "_fib_by_doubling"),
            (24, 3, 29_215, "_fib_by_doubling"),
            (20, 5, 20_640, "_fib_by_doubling"),
            # doubling measured 1.4x and 2.5x faster than the sum here
            (16, 5, 15_000, "_fib_by_doubling"),
            (20, 5, 50_000, "_fib_by_doubling"),
        ],
    )
    def test_path_chosen_at_measured_lengths(self, monkeypatch, k, q, n, path):
        class Chosen(Exception):
            pass

        def chosen(name):
            def raise_chosen(*args, **kwargs):
                raise Chosen(name)

            return raise_chosen

        for name in ("_fib_by_zero_runs", "_fib_by_doubling"):
            monkeypatch.setattr(fibonacci, name, chosen(name))
        with pytest.raises(Chosen, match=path):
            fib(k, q, n)

    @pytest.mark.parametrize("k,q", [(3, 2), (8, 5), (17, 3), (40, 2)])
    def test_doubling_matches_definition_on_both_sides_of_the_crossover(self, k, q, monkeypatch):
        # short lengths square by pair products alone; the long ones take
        # their last squares from interpolation once the coefficients pass
        # SQUARE_BITS
        calls, interpolate = [], fibonacci._interpolate

        def counted(values, first):
            calls.append(first)
            return interpolate(values, first)

        monkeypatch.setattr(fibonacci, "_interpolate", counted)
        want = naive_fib_list(k, q, 12_002)
        for n in (1000, 1001, 12_000, 12_001):
            calls.clear()
            assert fibonacci._fib_by_doubling(k, q, n) == want[n], (k, q, n)
            assert bool(calls) == (n > 1001), (k, q, n)

    def test_memory_is_a_window(self):
        # this length doubles, over k = 10 coefficients and k-1 folded ones,
        # none larger than the result; keeping the whole sequence would
        # take thousands of times its size
        tracemalloc.start()
        try:
            value = fib(10, 3, 5000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * sys.getsizeof(value)

    def test_memory_below_k(self):
        # n < k is q**n itself, the zero-run sum with no terms; q**(k+1),
        # a million and a quarter bytes here, is never built
        tracemalloc.start()
        try:
            value = fib(10**7, 2, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * sys.getsizeof(value)

    @pytest.mark.parametrize(
        "k,q,n",
        [(2, 2, 200_000), (16, 5, 12_000), (16, 3, 4000)],
        ids=["doubling", "doubling-k16", "zero-runs"],
    )
    def test_memory_per_path(self, k, q, n):
        # O(k) values no larger than the result in the doubling, a few of
        # about its size in the zero-run sum
        tracemalloc.start()
        try:
            value = fib(k, q, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * sys.getsizeof(value)


def _schoolbook_square(a):
    sq = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            sq[i + j] += x * y
    return sq


class TestSquare:
    @pytest.mark.parametrize("k", range(1, 41))
    def test_matches_schoolbook(self, k, monkeypatch):
        # both branches, each at its edge of SQUARE_BITS and far from it,
        # with zero coefficients at the ends, in the middle and all but
        # one; interpolation from k = 3, where 2k-1 squares are fewer
        # than the k*(k+1)/2 pair products
        calls, interpolate = [], fibonacci._interpolate

        def counted(values, first):
            calls.append(first)
            return interpolate(values, first)

        monkeypatch.setattr(fibonacci, "_interpolate", counted)
        rng = random.Random(k)
        edge = fibonacci.SQUARE_BITS
        for bits in (1, 50, edge, edge + 1, 3000):
            top = [rng.getrandbits(bits - 1) | 1 << (bits - 1) for _ in range(k)]
            sparse = [0] * k
            sparse[rng.randrange(k)] = top[0]
            cases = [top, sparse, [0] + top[1:], top[:-1] + [0], [0 if i % 3 == 1 else c for i, c in enumerate(top)]]
            for a in cases:
                if not any(a):
                    continue
                calls.clear()
                assert fibonacci._square(list(a)) == _schoolbook_square(a), (k, bits)
                long = k >= 3 and max(a).bit_length() > edge
                assert calls == ([0, 1] if long else []), (k, bits)

    @pytest.mark.parametrize("first", [0, 1, 5])
    def test_interpolate_recovers_coefficients(self, first):
        # values at u = t*t, t = first.., of a polynomial with negative,
        # zero and large coefficients come back as its coefficients
        rng = random.Random(first)
        for m in range(1, 25):
            coeffs = [rng.choice([0, -1, 1]) * rng.getrandbits(rng.choice([1, 64, 3000])) for _ in range(m)]
            values = [sum(c * (t * t) ** i for i, c in enumerate(coeffs)) for t in range(first, first + m)]
            assert fibonacci._interpolate(values, first) == coeffs, (first, m)


class TestPolynomials:
    def test_f_quadratic(self):
        # f(x) = x^2 - x - 1 for k=2, q=2
        assert f_poly(2, 2, 2) == 1
        assert f_poly(2, 2, 0) == -1

    def test_g_at_q(self):
        for k in (2, 3, 7):
            for q in (2, 3, 5):
                assert g_poly(k, q, q) == q - 1

    def test_f_at_one_negative(self):
        for k in range(2, 10):
            for q in (2, 3, 5):
                assert f_poly(k, q, 1) == 1 - k * (q - 1) < 0

    def test_g_is_shifted_f(self):
        rng = random.Random(12)
        for _ in range(1000):
            k = rng.randint(2, 9)
            q = rng.randint(2, 5)
            x = rng.uniform(-2.0, q + 1.0)
            g = g_poly(k, q, x)
            f_shift = (x - 1) * f_poly(k, q, x)
            assert math.isclose(g, f_shift, rel_tol=1e-12, abs_tol=1e-9)


class TestFindAlpha:
    def test_golden_ratio(self):
        est = find_alpha(2, 2, 128)
        with mp.workprec(160):
            golden = (1 + mp.sqrt(5)) / 2
            assert abs(est.alpha - golden) < mp.mpf(2) ** (-120)

    def test_pentanacci(self):
        est = find_alpha(5, 2)
        assert abs(float(est.alpha) - 1.9659482) < 1e-6

    def test_bracket_signs(self):
        for k in (2, 5, 17, 40):
            for q in (2, 3, 5):
                est = find_alpha(k, q)
                # evaluate at the working precision of the estimate, else
                # the polynomial values round to zero near the root
                with mp.workprec(DEFAULT_PRECISION_BITS + 16):
                    assert f_poly(k, q, est.lo) < 0 < f_poly(k, q, est.hi)
                    assert 1 < est.lo < est.alpha < est.hi < q
                    assert est.hi - est.lo <= mp.mpf(2) ** (-DEFAULT_PRECISION_BITS + 4) * q

    def test_interval_sweep(self):
        for q in (2, 3, 5, 16):
            for k in range(2, 65):
                # q - alpha shrinks like q**(-k), so the bracket needs
                # precision beyond k*log2(q) to separate hi from q
                bits = max(128, 4 * k * q.bit_length() + 64)
                est = find_alpha(k, q, bits)
                assert 1 < est.lo and est.hi < q
                assert_enclosure(k, q, est, bits)

    @pytest.mark.parametrize("q", [2, 3, 36, 37, 1000, 10**6, 10**12, 2**64 + 13])
    def test_one_bracket_certifies_on_grid(self, q):
        # the single bracket certifies from 53 bits up, also where alpha
        # rounds to q (k = 500): find_alpha raises rather than return one
        # that does not
        for k in (2, 3, 5, 17, 100, 500):
            for bits in (53, 64, 128, 1000):
                est = find_alpha(k, q, bits)
                assert 1 < est.lo < est.hi <= q, (k, q, bits)
                assert_enclosure(k, q, est, bits)

    @pytest.mark.parametrize("k,q,bits", [(64, 16, 128), (80, 2, 53), (40, 5, 53)])
    def test_alpha_rounds_to_q(self, k, q, bits):
        # q - alpha is below the working precision's resolution at q: the
        # bracket may end at q but must still enclose alpha, or refuse
        with mp.workprec(bits + 16):
            assert mp.mpf(q) - (q - 1) * mp.mpf(q) ** -k == q
        try:
            est = find_alpha(k, q, bits)
        except PrecisionError:
            return
        exact = find_alpha(k, q, 4 * k * q.bit_length() + 64)
        assert 1 < est.lo < exact.lo and exact.hi < est.hi <= q
        assert_enclosure(k, q, est, bits)

    def test_high_precision(self):
        est = find_alpha(40, 5, 8192)
        with mp.workprec(8192 + 16):
            assert 1 < est.lo < est.alpha < est.hi < 5
            assert est.hi - est.lo <= mp.mpf(2) ** -8192 * 5
        assert_enclosure(40, 5, est, 8192)

    @pytest.mark.parametrize("q", [2, 3, 5, 36])
    def test_bracket_encloses_alpha_in_exact_rationals(self, q):
        # g's sign in Fractions, no interval arithmetic: lo < alpha < hi
        for k in range(2, 41):
            for bits in (53, 128, 1024):
                est = find_alpha(k, q, bits)
                lo, mid, hi = (exact_fraction(x) for x in (est.lo, est.alpha, est.hi))
                assert 1 < lo < mid < hi <= q, (k, q, bits)
                assert g_sign(k, q, lo) == -1 and g_sign(k, q, hi) == 1, (k, q, bits)

    @pytest.mark.parametrize("q", [10**100, 3**200], ids=["10**100", "3**200"])
    def test_bracket_certifies_when_q_outgrows_the_precision(self, q):
        # q has more bits than the precision: the bracket's scale is
        # absolute, so it still encloses alpha, 2**-bits * q wide
        for k in (2, 7, 120):
            for bits in (53, 128):
                est = find_alpha(k, q, bits)
                lo, hi = exact_fraction(est.lo), exact_fraction(est.hi)
                assert 1 < lo < hi <= q and hi - lo <= Fraction(q, 2 ** (bits + 2)), (k, q, bits)
                assert g_sign(k, q, lo) == -1 and g_sign(k, q, hi) == 1, (k, q, bits)

    def test_uncertified_bracket_raises(self, monkeypatch):
        # one Newton step from q leaves x far above alpha; the sign check
        # must refuse that bracket rather than return it
        monkeypatch.setattr(fibonacci, "_NEWTON_STEPS", 1)
        with pytest.raises(PrecisionError):
            fibonacci._bracket.__wrapped__(2, 2, 128)

    def test_sign_pattern_of_g(self):
        for k, q in [(2, 2), (4, 3), (7, 2)]:
            alpha = float(find_alpha(k, q).alpha)
            for t in (0.1, 0.4, 0.7, 0.95):
                below = 1 + t * (alpha - 1)
                above = alpha + t * (q - alpha)
                assert g_poly(k, q, below) < 0
                assert g_poly(k, q, above) > 0

    def test_monotone_in_k(self):
        for q in (2, 3):
            # compare the mpf midpoints directly; float() would collapse
            # the large-k values onto q
            alphas = [find_alpha(k, q).alpha for k in range(2, 41)]
            assert all(a < b for a, b in zip(alphas, alphas[1:]))
            assert alphas[-1] < q


class TestThreshold:
    def test_known_values(self):
        assert kq_threshold(2) == 2
        assert kq_threshold(3) == 2

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
    def test_minimality(self, q):
        from fractions import Fraction

        k = kq_threshold(q)
        rhs = 1 - Fraction(1, q)
        assert (1 - Fraction(1, q**k)) ** k > rhs
        if k > 1:
            assert (1 - Fraction(1, q ** (k - 1))) ** (k - 1) <= rhs


class TestBetaBracket:
    @pytest.mark.parametrize("k,q", [(2, 2), (10, 2), (3, 3), (7, 5)])
    def test_bound_holds(self, k, q):
        beta, lower = beta_bracket(k, q)
        alpha = find_alpha(k, q).alpha
        assert q - mp.mpf(q) ** (-(k - 1)) < beta < q
        assert g_poly(k, q, beta) < 0
        assert lower < alpha < q

    @pytest.mark.parametrize(
        "k,q,precision_bits",
        [(2, 2, 128), (10, 2, 128), (3, 3, 128), (7, 5, 128), (2, 2, 1000), (30, 36, 128), (5, 10**6, 53)],
    )
    def test_one_pass(self, k, q, precision_bits, monkeypatch):
        # beta sits between q - q**(1-k) and the certified low end of the
        # bracket, and lower falls short of that end by far more than the
        # working precision resolves: one bracket settles it
        bits = max(precision_bits, 4 * k * q.bit_length() + 64)
        calls, bracket = [], fibonacci._bracket

        def counted(k, q, bits):
            calls.append((k, q, bits))
            return bracket(k, q, bits)

        monkeypatch.setattr(fibonacci, "_bracket", counted)
        beta, lower = beta_bracket(k, q, precision_bits)
        assert calls == [(k, q, bits)]
        est = find_alpha(k, q, bits)
        with mp.workprec(2 * bits):
            assert q - mp.mpf(q) ** (1 - k) < beta < est.lo
            assert est.lo - lower > mp.mpf(2) ** (-bits / 2)

    @pytest.mark.parametrize("q", [2, 3, 5, 36])
    def test_lower_below_lo_in_exact_rationals(self, q):
        # q - q**(1-k) < beta < lo and lower < lo, compared as Fractions
        for k in range(kq_threshold(q), 41):
            beta, lower = (exact_fraction(x) for x in beta_bracket(k, q))
            lo = exact_fraction(find_alpha(k, q, max(128, 4 * k * q.bit_length() + 64)).lo)
            low = q - Fraction(1, q ** (k - 1))
            assert low < beta < lo and 1 < lower < lo, (k, q)
            assert g_sign(k, q, low) == g_sign(k, q, beta) == g_sign(k, q, lower) == -1, (k, q)

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            beta_bracket(1, 2)


class TestClosedForm:
    def test_spot_values(self):
        assert fib_closed_form(2, 2, 10) == 144
        assert fib_closed_form(3, 2, 5) == 24
        assert fib_closed_form(2, 3, 3) == 22

    def test_matches_recurrence_sample(self):
        rng = random.Random(5)
        for _ in range(60):
            k = rng.randint(2, 8)
            q = rng.randint(2, 5)
            n = rng.randint(0, 200)
            assert fib_closed_form(k, q, n) == fib(k, q, n), (k, q, n)

    def test_matches_recurrence_grid(self):
        for k in range(2, 13):
            for q in (2, 3, 4, 5, 7, 36):
                for n in range(0, 401, 7):
                    assert fib_closed_form(k, q, n) == fib(k, q, n), (k, q, n)

    def test_first_pass_covers_n(self, monkeypatch):
        # 200*log2(5) + 8 + 32 bits fit in 512 = 128 * 2**2: one pass, no escalation
        calls, bracket = [], fibonacci._bracket

        def counted(k, q, bits):
            calls.append((k, q, bits))
            return bracket(k, q, bits)

        monkeypatch.setattr(fibonacci, "_bracket", counted)
        assert fib_closed_form(8, 5, 200) == fib(8, 5, 200)
        assert calls == [(8, 5, 512)]

    def test_coarse_bracket_escalates(self, monkeypatch):
        # a 53-bit bracket at the first pass cannot settle F(200); the
        # next pass doubles the bits and lands on the exact value
        calls, bracket = [], fibonacci._bracket

        def coarse_first(k, q, bits):
            calls.append(bits)
            return bracket(k, q, 53 if len(calls) == 1 else bits)

        monkeypatch.setattr(fibonacci, "_bracket", coarse_first)
        assert fib_closed_form(3, 2, 200) == fib(3, 2, 200)
        assert calls == [256, 512]

    def test_escalation_stops_at_max_precision(self, monkeypatch):
        # from half the bound the bits double once, not 64x over; a first
        # pass past the bound is refused before any root is found
        top, calls, bracket = fibonacci.MAX_PRECISION_BITS, [], fibonacci._bracket

        def coarse(k, q, bits):
            calls.append(bits)
            return bracket(k, q, 53)

        monkeypatch.setattr(fibonacci, "_bracket", coarse)
        with pytest.raises(PrecisionError, match=f"up to {top} bits"):
            fib_closed_form(2, 2, top // 2 - 64)
        with pytest.raises(PrecisionError):
            fib_closed_form(2, 2, top)
        assert calls == [top // 2, top]


    @pytest.mark.parametrize("n", [fibonacci.MAX_PRECISION_BITS + 1, 10**400], ids=["max+1", "10**400"])
    def test_length_past_max_precision_refused_at_once(self, n, monkeypatch):
        # the first pass would need more than n bits; n is refused before
        # a float sees it (10**400 overflows one) or a root is bracketed
        monkeypatch.setattr(fibonacci, "_bracket", None)
        with pytest.raises(PrecisionError, match=f"needs more than {fibonacci.MAX_PRECISION_BITS} bits"):
            fib_closed_form(2, 2, n)


class TestRoots:
    @pytest.mark.parametrize("k,q", [(2, 2), (4, 2), (3, 5)])
    def test_examples(self, k, q):
        assert other_roots_inside_unit_disk(k, q)

    def test_sweep(self):
        # the exact certificate agrees with numpy's eigenvalues wherever
        # those resolve every root
        for q in (2, 3, 5):
            for k in range(2, 41):
                assert other_roots_inside_unit_disk(k, q) is True, (k, q)
                assert numeric_roots_inside_unit_disk(k, q), (k, q)

    def test_k_cap(self):
        # no root-finder range: the certificate is exact at any k
        assert other_roots_inside_unit_disk(65, 2) is True
        assert other_roots_inside_unit_disk(10_000, 2) is True
