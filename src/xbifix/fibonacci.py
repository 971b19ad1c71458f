"""The (q-1)-weighted k-step Fibonacci sequence, exact in O(k) memory,
and its characteristic polynomial machinery.

F(n) = (q-1) * (F(n-1) + ... + F(n-k)), initialized F(i) = q**i for
0 <= i <= k-1.  The growth rate is the unique real root alpha of

    f(x) = x**k - (q-1) * (x**(k-1) + ... + x + 1)

in the interval (1, q); all other roots lie inside the unit disk.  The
generating function (1 - x**k) / (1 - q*x + (q-1)*x**(k+1)) gives F(n) =
a(n) - a(n-k), where a(m) = sum((-1)**j * C(m-k*j, j) * (q-1)**j *
q**(m-(k+1)*j) for 0 <= j <= m/(k+1)): n/(k+1) terms, which short
lengths use.  Since f is the recurrence's characteristic polynomial,
x**n mod f(x) gives F(n) from the first 2k values by log2(n) squarings,
which long lengths use: each takes 2k-1 squares of large integers once
its coefficients are long, k*(k+1)/2 products before, and the last level
k products.  The auxiliary polynomial g(x) = (x-1)*f(x) = x**k * (x - q)
+ (q-1) is negative on (1, alpha) and positive on (alpha, infinity), so
the sign of g, bounded in integers, certifies a bracket around alpha;
its compact form is also the cheap target for Newton's method.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .words import CapacityError, check_q

if TYPE_CHECKING:
    import mpmath

DEFAULT_PRECISION_BITS = 128
FIB_BITS_CAP = 2**20  # most bits, n * log2(q), fib's answer may have: `fib --k 2 --q 2 --n 1048576` takes 1.1 s
MAX_PRECISION_BITS = 2**18  # find_alpha(2, 2) takes about 0.5 s here
SQUARE_BITS = 2000  # coefficient bits from which _square interpolates: its 2k-1 squares and the k*(k+1)/2 pair products break even at 1,750-2,000 bits for k = 7..40, 8,000 at k = 3
_NEWTON_STEPS = 64  # _bracket takes about log2(bits) steps, 20 at 2**18 bits


class PrecisionError(Exception):
    """Working precision could not certify the rounding step."""


def _check_kq(k: int, q: int, n: int = 0) -> None:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    check_q(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def fib(k: int, q: int, n: int) -> int:
    """Exact F_{k,q}(n) in O(k) live integers, by one of two paths split
    at n = max(8*k*(k+8), k**3 * log2(2*q) / 4), fitted to timings for
    q = 2, 3, 5 and k = 2..40 and checked at q = 36 and 1000: the zero-run
    sum in O(n/k) terms below it, doubling in log2(n) squarings of 2k-1
    squares each from there on.  The first term holds while doubling's
    coefficients are short and it takes pair products; the second, once
    they are long, as the sum's terms grow with n*log2(q) and doubling's
    squares by less.  CapacityError for an n whose F(n) <= q**n could pass
    FIB_BITS_CAP bits, n alone first, so no float sees a huge n."""
    _check_kq(k, q, n)
    if n > FIB_BITS_CAP or n * math.log2(q) > FIB_BITS_CAP:
        raise CapacityError(f"F(n) at q={q} for n of {n.bit_length()} bits exceeds cap {FIB_BITS_CAP} bits")
    # the exact term first: past k = 10**102, k**3 overflows a float
    if n < 8 * k * (k + 8) or n < k**3 * math.log2(2 * q) / 4:
        return _fib_by_zero_runs(k, q, n)
    return _fib_by_doubling(k, q, n)


def _fib_by_zero_runs(k: int, q: int, n: int) -> int:
    """The module docstring's a(n) - a(n-k).  With r = n - k*(j+1), term
    j+1 of a(n) and term j of a(n-k) join to -(1-q)**j * (q*C(r, j) +
    (q-1)*C(r, j+1)) * q**(n-k-1-(k+1)*j), one math.comb, summed by Horner's
    rule in q**(k+1) onto a(n)'s first term q**n.  Below k no term is
    left and F(n) = q**n is returned before q**(k+1) is built.  No integer
    outgrows the all-positive sum: 1.14 times q**n's bits at q = k = 2."""
    if n < k:
        return q**n
    acc, step = 0, q ** (k + 1)
    for j in range((n - k) // (k + 1) + 1):
        r = n - k * (j + 1)
        pair = math.comb(r, j) * (q * (j + 1) + (q - 1) * (r - j)) // (j + 1)
        acc = acc * step + (1 - q) ** j * pair
    return (q ** (n + 1) - acc * q ** ((n - k) % (k + 1))) // q


def _fib_by_doubling(k: int, q: int, n: int) -> int:
    """Fiduccia, SIAM J. Comput. 14 (1985): a = x**m mod f(x) for m = n//2
    by square-and-multiply.  Each square (_square) is folded top degree
    first: degree d >= k folds back through x**k = (q-1)*(x**(k-1) + ...
    + 1), so each degree gains q-1 times the running sum of those at most
    k above it.  The last level is never squared (Bostan & Mori, SOSA
    2021): the functional L(x**t) = F(t) vanishes on multiples of f, so
    with e = n % 2, F(n) = L(a*a * x**e) = sum(a_i * sum(a_j * F(i+j+e))),
    k products at the top size against the square's 2k-1, on the small
    F(0..2k-1).  Every coefficient of a stays a nonnegative int."""
    shift = max(n.bit_length() - k.bit_length(), 0) + 1  # n >> shift < k; the last level is L's
    a = [0] * k
    a[n >> shift] = 1
    for bit in reversed(range(1, shift)):
        sq = _square(a)
        folding = 0  # sum of sq[d+1 .. d+k] over the degrees >= k
        for d in reversed(range(2 * k - 1)):
            if d < k - 2:
                folding -= sq.pop()  # sq[d+k+1] leaves the running sum
            sq[d] += (q - 1) * folding
            if d >= k:
                folding += sq[d]
        a = sq[:k]
        if n >> bit & 1:  # times x, folding x**k back
            top = (q - 1) * a[-1]
            a = [top] + [c + top for c in a[:-1]]
    small = [q**t for t in range(k)]
    for t in range(k, 2 * k):
        small.append((q - 1) * sum(small[t - k :]))
    e = n & 1
    return sum(c * sum(map(mul, a, small[i + e : i + e + k])) for i, c in enumerate(a))


def _square(a: list[int]) -> list[int]:
    """The 2k-1 coefficients of a(x)**2 for the k in a, lowest first.  Up
    to SQUARE_BITS bits, and at k = 2, where both take three, by k*(k+1)/2
    products of symmetric pairs; past them from 2k-1 squares (Toom 1963;
    Cook 1966).  With a(x) = E(x**2) + x*O(x**2) and the square S(x**2) +
    x*T(x**2), a(+-t)**2 = S(u) +- t*T(u) at u = t*t, so (E(u) +- t*O(u))**2
    for t = 0..k-1 give S at k nodes and T at k-1, each interpolated in
    place (_interpolate), as a square holds 2k-1 integers of twice a's
    size and a copy would hold twice that."""
    k = len(a)
    if k < 3 or max(a).bit_length() <= SQUARE_BITS:
        sq = []
        for d in range(2 * k - 1):
            lo, mid = max(0, d - k + 1), (d + 1) // 2
            sq.append(2 * sum(map(mul, a[lo:mid], a[d - lo : d - mid : -1])) + (0 if d % 2 else a[d // 2] ** 2))
        return sq
    evens, odds, even_sq, odd_sq = a[::2], a[1::2], [], []
    for t in range(k):
        e = o = 0
        for c in reversed(evens):
            e = e * (t * t) + c
        for c in reversed(odds):
            o = o * (t * t) + c
        o *= t
        plus, minus = (e + o) ** 2, (e - o) ** 2
        even_sq.append((plus + minus) >> 1)
        if t:
            odd_sq.append((plus - minus) // (2 * t))
    sq = [0] * (2 * k - 1)
    sq[::2], sq[1::2] = _interpolate(even_sq, 0), _interpolate(odd_sq, 1)
    return sq


def _interpolate(v: list[int], first: int) -> list[int]:
    """In place, the values of an integer polynomial at u = t*t for t =
    first, first+1, ... become its coefficients, lowest first: Newton's
    divided differences, then Newton form to monomial form.  Every
    division is exact, since the divided differences of an integer
    polynomial at integer nodes are integers."""
    m = len(v)
    for j in range(1, m):
        for i in reversed(range(j, m)):
            t = first + i  # nodes t*t and (t-j)**2 differ by j*(2t-j)
            v[i] = (v[i] - v[i - 1]) // (j * (2 * t - j))
    for j in reversed(range(m - 1)):
        u = (first + j) ** 2
        for i in range(j, m - 1):
            v[i] -= u * v[i + 1]
    return v


def g_poly(k: int, q: int, x):
    """(x-1)*f(x) in the compact form x**k * (x-q) + (q-1)."""
    return x**k * (x - q) + (q - 1)


class RootEstimate(NamedTuple):
    """Bracketed estimate of the dominant root alpha(k, q) in (1, q)."""

    alpha: mpmath.mpf
    lo: mpmath.mpf
    hi: mpmath.mpf


def _pow(x: int, e: int, p: int, up: bool = False, cap: float = math.inf) -> int:
    """(x / 2**p)**e at scale 2**p, e >= 1, by square-and-multiply with every
    product floored (ceiled if up): for x >= 0 a lower (upper) bound.  For
    x >= 2**p the partial products only grow, so one past cap is returned."""
    sign, r = -1 if up else 1, x  # the floor of -v is minus the ceiling of v
    for bit in bin(e)[3:]:
        if r > cap:
            break
        r = sign * (sign * r * r >> p)
        if bit == "1":
            r = sign * (sign * r * x >> p)
    return r


@lru_cache(maxsize=4096)
def _bracket(k: int, q: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, p) with lo / 2**p < alpha < hi / 2**p, certified in integers
    at scale 2**p, p = bits + 16.  Newton's method runs from q: g has its
    minimum at kq/(k+1) < alpha and is convex beyond q(k-1)/(k+1), so the
    iterates fall monotonically to alpha, quadratically.  g and g' are
    divided by x**(k-1), so every integer stays near p bits at any k.  The
    scale s starts at 64 bits and grows to 2s - 32 once a step is below
    about its square root: one step per scale.  [lo, hi] is the last iterate
    +- q * 2**-bits / 16 within [1 + 2**-bits, q], where x - q <= 0: a floored
    power bounds g above, a ceiled one below.  PrecisionError unless g(lo) <
    0 < g(hi) and lo < hi."""
    _check_kq(k, q)
    if not 53 <= bits <= MAX_PRECISION_BITS:
        raise ValueError(f"precision_bits must be in [53, {MAX_PRECISION_BITS}], got {bits}")
    p, s, x = bits + 16, 64, q << 64
    for _ in range(_NEWTON_STEPS):
        g = (x * (x - (q << s)) >> s) + (q - 1) * _pow((1 << 2 * s) // x, k - 1, s)  # over x**(k-1)
        step = (g << s) // ((k + 1) * x - k * (q << s))
        x -= step
        if s == p and abs(step) < q << 16:
            break
        if s < p and 2 * abs(step).bit_length() + 16 < s:
            x, s = x << min(s - 32, p - s), min(2 * s - 32, p)
    x <<= p - s
    top, cap = q << p, (q - 1) << 2 * p  # g * 2**(2p) = x**k * (x - q) * 2**(2p) + cap
    lo, hi = max(x - (q << 12), (1 << p) + (1 << 16)), min(x + (q << 12), top)
    if lo < hi and _pow(lo, k, p, cap=cap) * (lo - top) + cap < 0 < _pow(hi, k, p, True, cap) * (hi - top) + cap:
        return lo, hi, p
    raise PrecisionError(f"no certified bracket for k={k}, q={q} at {bits} bits")


def find_alpha(k: int, q: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> RootEstimate:
    """_bracket's certified bracket as exact mpmath numbers, its midpoint as alpha."""
    lo, hi, p = _bracket(k, q, precision_bits)
    from mpmath import mp
    with mp.workprec(hi.bit_length() + 1):
        return RootEstimate(alpha=mp.mpf((lo + hi, -p - 1)), lo=mp.mpf((lo, -p)), hi=mp.mpf((hi, -p)))


def kq_threshold(q: int) -> int:
    """Smallest k >= 1 with (1 - 1/q**k)**k > 1 - 1/q, that is g(q - q**(1-k))
    < 0, in exact rationals.  The left side rises with k, so at and above
    this k the beta bracket of beta_bracket() contains a sign change of g."""
    check_q(q)
    from fractions import Fraction
    rhs = 1 - Fraction(1, q)
    k = 1
    while (1 - Fraction(1, q**k)) ** k <= rhs:
        k += 1
    return k


def beta_bracket(k: int, q: int, precision_bits: int = DEFAULT_PRECISION_BITS):
    """A beta in (q - 1/q**(k-1), q) with g(beta) < 0, and the certified
    lower bound q - (q-1)/beta**k < alpha.  Requires k >= kq_threshold(q).
    beta is the floor, at _bracket's scale, of the midpoint of q - q**(1-k)
    and the certified lo < alpha, about q**-k/2 below alpha.  Exact integer
    comparisons show q - q**(1-k) < beta < lo, so both have g < 0 (for
    q - q**(1-k) that is kq_threshold's Fraction test at k), and lower <
    lo, with beta**k floored so that lower is rounded down.  Returns (beta, lower)."""
    _check_kq(k, q)
    threshold = kq_threshold(q)
    if k < threshold:
        raise ValueError(f"k={k} below kq_threshold({q})={threshold}; no beta bracket is guaranteed")
    # alpha - lower is about (q-1)*k*q**(-2k-1)/2: the precision grows with k*log2(q)
    lo, hi, p = _bracket(k, q, max(precision_bits, 4 * k * q.bit_length() + 64))
    scale, low = q ** (k - 1), (q**k - 1) << p  # q - q**(1-k) = low / (scale * 2**p)
    beta = (low + lo * scale) // (2 * scale)
    lower = (q << p) + ((1 - q) << 2 * p) // _pow(beta, k, p)
    if not (low < beta * scale and beta < lo and lower < lo and hi < q << p):
        raise PrecisionError(f"beta bracket for k={k}, q={q} did not certify")
    from mpmath import mp
    with mp.workprec(lo.bit_length()):
        return mp.mpf((beta, -p)), mp.mpf((lower, -p))


def fib_closed_form(k: int, q: int, n: int) -> int:
    """F_{k,q}(n) as the nearest integer to (alpha - 1) * alpha**(n+1) /
    ((q + (k+1)*(alpha - q)) * (q - 1)), on _bracket's [lo, hi] from the least
    DEFAULT_PRECISION_BITS * 2**j bits above n*log2(q) + log2(n) + 32 (powers
    of two, so the cache hits across n).  num and den rise with alpha: with
    the power floored at lo and ceiled at hi, num(lo)/den(hi) and num(hi)/den(lo),
    both at scale 2**(2p), enclose it if den(lo) > 0.  Both must lie strictly
    within (m - 1/2, m + 1/2) for one integer m, or the bits double, up to
    64x the first pass's or MAX_PRECISION_BITS: PrecisionError past that."""
    _check_kq(k, q, n)
    if n > MAX_PRECISION_BITS:  # the first pass needs more than n bits; no float sees n
        raise PrecisionError(f"n of {n.bit_length()} bits needs more than {MAX_PRECISION_BITS} bits")
    bits = DEFAULT_PRECISION_BITS
    while bits < n * math.log2(q) + n.bit_length() + 32:
        bits *= 2
    last = min(bits * 64, MAX_PRECISION_BITS)
    while bits <= last:
        lo, hi, p = _bracket(k, q, bits)
        den_lo, den_hi = (((q << p) + (k + 1) * (a - (q << p))) * (q - 1) << p for a in (lo, hi))
        if den_lo > 0:
            num_lo = (lo - (1 << p)) * _pow(lo, n + 1, p)
            num_hi = (hi - (1 << p)) * _pow(hi, n + 1, p, True)
            m = (2 * num_lo + den_hi) // (2 * den_hi)
            if (2 * m - 1) * den_hi < 2 * num_lo and 2 * num_hi < (2 * m + 1) * den_lo:
                return m
        bits *= 2
    raise PrecisionError(f"could not certify rounding for k={k}, q={q}, n={n} up to {last} bits")


def other_roots_inside_unit_disk(k: int, q: int) -> bool:
    """Certify that f has one root of modulus > 1, alpha, and k-1 simple
    roots strictly inside the unit disk, exactly for every k.  Proof, on
    g(x) = (x-1)*f(x) = x**(k+1) - q*x**k + (q-1): on |x| = 1+e, e > 0
    small, q*x**k outweighs the rest as k*(q-1) > 1, so by Rouche g has k
    roots in |x| <= 1 and one, real, past x* below.  A root with |x| = 1
    makes |x**(k+1) + q-1| <= q tight, so x**(k+1) = 1 and g(x) =
    q*(1 - x**k) = 0: x = 1, and f(1) = 1 - (q-1)*k != 0.  g' vanishes
    only at 0 and at x* = qk/(k+1) > 1, and g(x*) < g(1) = 0, so every
    root is simple."""
    _check_kq(k, q)
    from fractions import Fraction
    return k * (q - 1) > 1 and g_poly(k, q, Fraction(q * k, k + 1)) < 0
