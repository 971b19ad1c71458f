"""The zero-run construction of cross-bifix-free codes.

For 2 <= k <= n-2, the code S_{k,q}(n) is the set of all length-n words
that start with exactly k zeros followed by a nonzero symbol, end with a
nonzero symbol, and contain no run of k zeros in the interior window
(positions k+2 .. n-1).  Its cardinality is (q-1)**2 * F_{k,q}(n-k-2),
and maximizing over k gives the best size S(n, q) for each length.
"""

from __future__ import annotations

from typing import NamedTuple

from .fibonacci import fib
from .words import CapacityError, Code, check_alphabet, check_power_cap, check_q

ENUM_CAP = 2**20  # interior windows generate_direct enumerates at most
BEST_N_CAP = 20_000  # longest n best_k_and_size counts: `best --n 20000` takes 0.15 s, 7 s with --json


def validate_params(n: int, k: int, q: int) -> None:
    check_q(q)
    if not 2 <= k <= n - 2:
        raise ValueError(f"k={k} outside [2, n-2] = [2, {n - 2}] for n={n}")


def generate_direct(n: int, k: int, q: int) -> Code:
    """Enumerate the code, q**(n-k-2) interior windows at most: words grow
    from 0^k alpha a symbol at a time, kept apart by their count of
    trailing zeros, which stays below k, and beta ends each one."""
    validate_params(n, k, q)
    check_alphabet(q)
    check_power_cap(q, n - k - 2, ENUM_CAP, "q**(n-k-2)")
    runs = [list(range(1, q))] + [[] for _ in range(k - 1)]  # runs[t]: words ending in t zeros
    for _ in range(n - k - 2):
        shifted = [[v * q for v in level] for level in runs]
        runs = [[v + s for s in range(1, q) for level in shifted for v in level]] + shifted[:-1]
    return Code(tuple(sorted([v * q + s for s in range(1, q) for level in runs for v in level])), n, q)


def size_formula(n: int, k: int, q: int) -> int:
    """Exact |S_{k,q}(n)| = (q-1)**2 * F_{k,q}(n-k-2)."""
    validate_params(n, k, q)
    return (q - 1) ** 2 * fib(k, q, n - k - 2)


class SizeRecord(NamedTuple):
    """Best construction size S(n, q) and the per-k breakdown."""

    n: int
    q: int
    best_k: int | None
    size: int
    per_k: dict[int, int]


def best_k_and_size(n: int, q: int) -> tuple[int | None, int]:
    """The best size S(n, q) over k and its smallest maximizing k.  As F(m)
    <= q**m, the size at k is at most (q-1)**2 * q**(n-k-2), falling with k:
    the walk stops once that is no more than the best so far.  n = 3 has no
    valid k; the known value 1 (the singleton {001}) is returned for q = 2 only."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if n == 3:
        if q != 2:
            raise ValueError("n=3 is only tabulated for the binary alphabet")
        return None, 1
    if n > BEST_N_CAP:
        raise CapacityError(f"n has {n.bit_length()} bits, exceeds cap {BEST_N_CAP}")
    # the size at k = 2 refuses a bad q before its bound is built; the bound falls by q per k
    best_k, size, bound = 2, size_formula(n, 2, q), (q - 1) ** 2 * q ** (n - 4)
    for k in range(3, n - 1):
        if (bound := bound // q) <= size:
            break
        if (s := size_formula(n, k, q)) > size:
            best_k, size = k, s
    return best_k, size


def best_size(n: int, q: int) -> SizeRecord:
    """best_k_and_size's maximum with the size at every k."""
    best_k, size = best_k_and_size(n, q)  # first: it makes the refusals
    return SizeRecord(n, q, best_k, size, {k: size_formula(n, k, q) for k in range(2, n - 1)})
