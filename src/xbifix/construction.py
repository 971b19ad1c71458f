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
BEST_N_CAP = 20_000  # longest n best_size counts: `best --n 20000` takes 2-3.5 s


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


def best_size(n: int, q: int) -> SizeRecord:
    """Maximize the construction size over k, smallest maximizing k on
    ties.  n = 3 has no valid k; the known value 1 (the singleton {001})
    is returned for the binary alphabet only."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if n == 3:
        if q != 2:
            raise ValueError("n=3 is only tabulated for the binary alphabet")
        return SizeRecord(n=3, q=2, best_k=None, size=1, per_k={})
    if n > BEST_N_CAP:
        raise CapacityError(f"n has {n.bit_length()} bits, exceeds cap {BEST_N_CAP}")
    per_k = {k: size_formula(n, k, q) for k in range(2, n - 1)}
    best_k = max(per_k, key=per_k.get)  # the first maximum: smallest k on ties
    return SizeRecord(n=n, q=q, best_k=best_k, size=per_k[best_k], per_k=per_k)
