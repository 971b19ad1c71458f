"""Reference code the benchmark checks the program's outputs against.

Everything here is written from the definitions and imports nothing from
xbifix, so a defect in the program cannot hide behind the same defect in
its check.  Only mpmath is shared, for the interval sign test.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Iterable, Sequence

Word = Sequence[int]


def fib_at(k: int, q: int, wanted: Iterable[int]) -> dict[int, int]:
    """F_{k,q}(m) for each m in `wanted`, by the recurrence
    F(m) = (q-1) * (F(m-1) + ... + F(m-k)), F(i) = q**i for i < k,
    kept as a sliding window so memory stays O(k)."""
    wanted = set(wanted)
    out: dict[int, int] = {}
    if not wanted:
        return out
    window: deque[int] = deque()
    total = 0
    for m in range(max(wanted) + 1):
        value = q**m if m < k else (q - 1) * total
        if m in wanted:
            out[m] = value
        window.append(value)
        total += value
        if len(window) > k:
            total -= window.popleft()
    return out


def construction_size(n: int, k: int, q: int) -> int:
    """|S_{k,q}(n)| = (q-1)**2 * F_{k,q}(n-k-2)."""
    return (q - 1) ** 2 * fib_at(k, q, [n - k - 2])[n - k - 2]


def construction_sizes(q: int, ns: Iterable[int]) -> dict[int, dict[int, int]]:
    """|S_{k,q}(n)| = (q-1)**2 * F_{k,q}(n-k-2) for every valid k, per n."""
    ns = sorted(set(ns))
    sizes: dict[int, dict[int, int]] = {n: {} for n in ns}
    for k in range(2, max(ns) - 1):
        needed = {n: n - k - 2 for n in ns if n - k - 2 >= 0}
        values = fib_at(k, q, needed.values())
        for n, m in needed.items():
            sizes[n][k] = (q - 1) ** 2 * values[m]
    return sizes


def best_of(n: int, q: int, per_k: dict[int, int]) -> tuple[int | None, int]:
    """(smallest maximizing k, size); n = 3 has no k and the binary
    singleton {001} of size 1."""
    if n == 3:
        return None, 1
    size = max(per_k.values())
    return min(k for k, v in per_k.items() if v == size), size


def kq_threshold(q: int) -> int:
    """Smallest k >= 1 with (1 - 1/q**k)**k > 1 - 1/q, the k from which a
    beta bracket is guaranteed."""
    k = 1
    while (1 - Fraction(1, q**k)) ** k <= 1 - Fraction(1, q):
        k += 1
    return k


def has_construction_shape(word: Word, k: int, q: int) -> bool:
    """0^k, a nonzero symbol, an interior with no run of k zeros, and a
    nonzero last symbol, over the alphabet Z_q."""
    n = len(word)
    if n < k + 2 or any(not 0 <= s < q for s in word):
        return False
    if any(word[:k]) or word[k] == 0 or word[-1] == 0:
        return False
    run = 0
    for s in word[k + 1:n - 1]:
        run = run + 1 if s == 0 else 0
        if run >= k:
            return False
    return True


def cross_pair_ok(u: Word, v: Word) -> bool:
    """No proper prefix of either word is a suffix of the other."""
    n = len(u)
    for length in range(1, n):
        if tuple(u[:length]) == tuple(v[n - length:]):
            return False
        if tuple(v[:length]) == tuple(u[n - length:]):
            return False
    return True


def is_cross_bifix_free(words: Sequence[Word]) -> bool:
    """The definitional all-pairs test, each word against itself too."""
    return all(
        cross_pair_ok(words[i], words[j])
        for i in range(len(words))
        for j in range(i, len(words))
    )


def compatibility_graph(n: int, q: int) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """Bifix-free words of length n over Z_q and the pairs of them that are
    mutually cross-bifix-free."""
    from itertools import product

    words = [w for w in product(range(q), repeat=n) if cross_pair_ok(w, w)]
    edges = [
        (i, j)
        for i in range(len(words))
        for j in range(i + 1, len(words))
        if cross_pair_ok(words[i], words[j])
    ]
    return words, edges


def exact_wait(n: int, q: int, M: int) -> tuple[Fraction, Fraction]:
    """Mean and variance of the first-match time of a non-overlapping
    code of M words of length n in a uniform q-ary stream.

    Matches cannot overlap, so the generating function is
    p z**n / (1 - z + p z**n) with p = M / q**n (Guibas and Odlyzko,
    JCTA 30, 1981), which gives mean 1/p and variance 1/p**2 + (1-2n)/p.
    """
    mean = Fraction(q**n, M)
    return mean, mean * mean + (1 - 2 * n) * mean


def exact(x) -> Fraction:
    """The mpmath number x as an exact fraction."""
    man, exp = x.man_exp
    value = Fraction(man) * Fraction(2) ** exp
    return -value if x < 0 else value


def g_sign(k: int, q: int, x) -> int:
    """Certified sign of g(x) = x**k * (x - q) + (q - 1) at the mpmath
    number x, evaluated in interval arithmetic; 0 when the enclosure
    straddles zero."""
    from mpmath import iv

    old = iv.prec
    try:
        iv.prec = 2 * max(int(x.bc), 53) + 64
        xi = iv.mpf(x)
        g = xi**k * (xi - q) + (q - 1)
    finally:
        iv.prec = old
    if g.b < 0:
        return -1
    if g.a > 0:
        return 1
    return 0
