"""Upper bound on the maximum code size, comparison sizes from earlier
constructions, and asymptotic-ratio diagnostics.

The variance of the first-match time of an M-word code in a uniform
q-ary stream is

    sigma**2 = (1 - 2n) * q**n / M + q**(2n) / M**2

and nonnegativity of the variance forces M <= q**n / (2n - 1), the upper
bound used throughout.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .fibonacci import DEFAULT_PRECISION_BITS, PrecisionError, _bracket, _pow
from .construction import best_k_and_size, size_formula
from .words import CapacityError, check_q

if TYPE_CHECKING:
    from fractions import Fraction

PROBE_N_CAP = 200_000  # longest n(k) asymptotic_probe counts


def upper_bound(n: int, q: int) -> Fraction:
    """q**n / (2n - 1) as an exact rational; never pre-floored."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_q(q)
    from fractions import Fraction
    return Fraction(q**n, 2 * n - 1)


def variance_formula(n: int, q: int, M: int) -> float:
    """First-match-time variance for an M-word length-n code; negative
    only when M exceeds the upper bound."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    # int true division gives the float nearest the exact rational
    return ((1 - 2 * n) * q**n * M + q ** (2 * n)) / (M * M)


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def bilotta_size(n: int) -> int:
    """Size of the binary lattice-path codes for comparison.

    For even n = 2m+2 the two summation cases are keyed on the parity of
    m; the printed case labels in the source do not reproduce the known
    size table (23 at n=10, 72 at n=12, 227 at n=14), so the labels here
    are swapped and the half-integer summation limits floored, which
    matches every tabulated entry.  Segner's identity, sum(C_i * C_(m-i)
    for i = 0..m) = C_(m+1), folds each half-sum into Catalan numbers.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if n % 2 == 1:
        return catalan((n - 1) // 2)
    m = (n - 2) // 2
    if m % 2 == 0:  # i <= m/2: half the full sum and half the middle term C_(m/2)**2
        return (catalan(m + 1) + catalan(m // 2) ** 2) // 2
    # i <= h+1 for h = m//2: half the full sum, and term h+1, C_(h+1) * C_h, less C_h**2
    return catalan(m + 1) // 2 + catalan(m // 2) * (catalan(m // 2 + 1) - catalan(m // 2))


def target_ratio(q: int) -> float:
    """The asymptotic lower-bound constant (q-1)/(q*e)."""
    return (q - 1) / (q * math.e)


class ProbeRow(NamedTuple):
    k: int
    n: int
    size: int
    ratio: float


def asymptotic_probe(q: int, k_range, c: float | None = None) -> list[ProbeRow]:
    """Size-to-bound ratios along the scaling n(k) = ceil(c * alpha**k).

    For each k the exact construction size at that k and length n(k) is
    computed and the ratio size * n / q**n reported; as k grows the ratio
    approaches (q-1)/(q*e) from below when c = q/(q-1), the maximizing
    choice.  n(k) is certified in integers: c is its float's exact ratio,
    and the ceilings of c * alpha**k with the power floored at the low end
    of alpha's bracket and ceiled at its high end must agree, or
    PrecisionError.  A low ceiling past PROBE_N_CAP is refused at once,
    with its bit count, a lower bound on n(k)'s: at q = 2, k = 20000, where
    alpha is 2 - 2**-20000 or so, the ends have 20001 and 20002 bits, and
    n(k) = 2**20001 - 20000 has 20001.
    """
    check_q(q)
    if c is None:
        c = q / (q - 1)
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be finite and positive, got {c}")
    num, den = c.as_integer_ratio()
    lengths = []
    for k in k_range:  # refuse at the first n(k) past the cap, before counting any k
        lo, hi, p = _bracket(k, q, DEFAULT_PRECISION_BITS)
        n, n_hi = (-(-num * _pow(x, k, p, up) // (den << p)) for x, up in ((lo, False), (hi, True)))
        if n > PROBE_N_CAP:  # the low ceiling alone refuses
            raise CapacityError(f"n(k={k}) has {n.bit_length()} bits, exceeds cap {PROBE_N_CAP}")
        if n != n_hi:
            raise PrecisionError(f"n(k={k}) at c={c} lies between {n} and {n_hi}")
        if n < k + 2:  # the construction needs k + 2 <= n
            raise ValueError(f"n(k={k}) = {n} at c={c} is below k+2 = {k + 2}")
        lengths.append((k, n))
    rows = []
    for k, n in lengths:
        size = size_formula(n, k, q)
        rows.append(ProbeRow(k=k, n=n, size=size, ratio=size * n / q**n))
    return rows


class BoundsReport(NamedTuple):
    """Per-length summary: construction size against the variance bound
    and the earlier binary constructions."""

    construction_size: int
    best_k: int | None
    upper_bound: Fraction
    bilotta: int | None


def bounds_report(n: int, q: int) -> BoundsReport:
    best_k, size = best_k_and_size(n, q)
    return BoundsReport(
        construction_size=size,
        best_k=best_k,
        upper_bound=upper_bound(n, q),
        bilotta=bilotta_size(n) if q == 2 else None,
    )
