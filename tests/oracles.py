"""Naive reference implementations used as independent oracles.

These stay deliberately close to the definitions (all-lengths scans,
all-pairs scans) and are never imported by the package itself.
"""

from __future__ import annotations

import functools
import itertools

from xbifix.construction import ENUM_CAP, validate_params
from xbifix.words import CapacityError, Code, Word


def code_of(words) -> Code:
    """The code of equal-length words over one alphabet, repeats dropped:
    their values through Word.to_value, ascending."""
    words = list(words)
    return Code(tuple(sorted({w.to_value() for w in words})), len(words[0]), words[0].q)


def naive_is_bifix_free(symbols: tuple[int, ...]) -> bool:
    n = len(symbols)
    for length in range(1, n):
        if symbols[:length] == symbols[n - length:]:
            return False
    return True


def naive_cross_pair_ok(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    n = len(u)
    for length in range(1, n):
        if u[:length] == v[n - length:]:
            return False
        if v[:length] == u[n - length:]:
            return False
    return True


def naive_verify(code: Code) -> bool:
    words = [w.symbols for w in code.sorted_words()]
    for u in words:
        for v in words:
            if not naive_cross_pair_ok(u, v):
                return False
    return True


def naive_least_expansion(code: Code) -> Word | None:
    """The first of all q**n words, in lexicographic order, that is no
    member and keeps the code cross-bifix-free when added; None if none."""
    current = {w.symbols for w in code.sorted_words()}
    for cand in itertools.product(range(code.q), repeat=code.n):
        if cand not in current and all(naive_cross_pair_ok(cand, w) for w in current | {cand}):
            return Word(cand, code.q)
    return None


def naive_is_nonexpandable(code: Code) -> bool:
    return naive_least_expansion(code) is None


def full_compatibility_graph(n: int, q: int) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """All bifix-free words of length n over Z_q, as symbol tuples, and the
    index pairs of the mutually cross-bifix-free ones: the whole graph the
    clique search's split restricts, built from the definitions."""
    words = [t for t in itertools.product(range(q), repeat=n) if naive_is_bifix_free(t)]
    edges = [
        (i, j)
        for i, u in enumerate(words)
        for j in range(i)
        if naive_cross_pair_ok(u, words[j])
    ]
    return words, edges


def compatibility_matrix(values, n: int, q: int):
    """The boolean matrix over the length-n base-q values, True where two
    are mutually cross-bifix-free and False on the diagonal, every affix
    length compared at once in numpy int64: an oracle for the bitsets of
    clique.build_graph."""
    import numpy as np

    words = np.asarray(values, dtype=np.int64)
    ok = np.ones((len(words), len(words)), dtype=bool)
    for length in range(1, n):
        head, tail = words // q ** (n - length), words % q**length
        ok &= (head[:, None] != tail) & (tail[:, None] != head)
    np.fill_diagonal(ok, False)
    return ok


def int64_windows(buf, n: int, q: int):
    """Base-q values of each row's length-n windows by int64 multiply-adds
    on the rows' 2-D slices: the reference whose match times the
    simulator's flat, narrow-typed kernel must reproduce."""
    win, size = buf.astype("int64"), 1
    for bit in bin(n)[3:]:
        win, size = win[:, :-size] * q**size + win[:, size:], 2 * size
        if bit == "1":
            win, size = win[:, :-1] * q + buf[:, size:], size + 1
    return win


@functools.lru_cache(maxsize=4)
def _word_symbols(code: Code) -> frozenset[tuple[int, ...]]:
    return frozenset(w.symbols for w in code.sorted_words())


def naive_first_match_time(code: Code, stream: list[int], cap: int | None = None) -> int | None:
    """The 1-based index of the last symbol of the first window that is a
    codeword; None if there is none within the stream's first `cap` symbols.
    A replay scans many streams of one code, so its word set is kept."""
    words = _word_symbols(code)
    n = code.n
    end = len(stream) if cap is None else min(cap, len(stream))
    for t in range(n, end + 1):
        if tuple(stream[t - n:t]) in words:
            return t
    return None


def exact_pmf(n: int, q: int, M: int, t_max: int) -> list[float]:
    """P(T = t) for t = 0..t_max, T the first-match time of an M-word
    length-n cross-bifix-free code in a uniform q-ary stream.

    Two matches cannot overlap, so T = t (t >= n) exactly when the window
    ending at t is a codeword, probability p = M / q**n, and no match
    ended by t - n, which depends on disjoint symbols: P(T = t) =
    p * P(T > t - n) (Guibas & Odlyzko, JCTA 30, 1981).
    """
    p = M / q**n
    pmf = [0.0] * (t_max + 1)
    survival = [1.0] * (t_max + 1)  # P(T > t)
    for t in range(1, t_max + 1):
        if t >= n:
            pmf[t] = p * survival[t - n]
        survival[t] = survival[t - 1] - pmf[t]
    return pmf


def naive_fib_list(k: int, q: int, length: int) -> list[int]:
    """F_{k,q}(0), ..., F_{k,q}(length - 1) from the definition: each value
    the (q-1)-weighted sum of the k values before it."""
    values = [q**i for i in range(k)]
    while len(values) < length:
        values.append((q - 1) * sum(values[-k:]))
    return values[:length]


def naive_fib(k: int, q: int, n: int) -> int:
    return naive_fib_list(k, q, n + 1)[n]


def naive_fib_mod(k: int, q: int, n: int, p: int) -> int:
    """F_{k,q}(n) mod p from the definition, stepped on residues: no big
    integers, so it checks long lengths cheaply and shares no step with
    either exact path of fib."""
    values = [pow(q, i, p) for i in range(k)]
    for _ in range(n - k + 1):
        values = values[1:] + [(q - 1) * sum(values) % p]
    return values[min(n, k - 1)]


def f_poly(k: int, q: int, x):
    """f(x) = x**k - (q-1) * (x**(k-1) + ... + x + 1), by Horner: the
    characteristic polynomial whose shift (x-1)*f(x) fibonacci.g_poly is."""
    acc = x - (q - 1)
    for _ in range(k - 1):
        acc = acc * x - (q - 1)
    return acc


def numeric_roots_inside_unit_disk(k: int, q: int, tol: float = 1e-8) -> bool:
    """Numeric validation (not a proof) that f(x) = x**k - (q-1)*(x**(k-1) +
    ... + 1) has exactly one root of modulus > 1 and all k roots pairwise
    distinct beyond `tol`, from numpy's companion-matrix eigenvalues; an
    oracle for fibonacci.other_roots_inside_unit_disk at moderate k."""
    import numpy as np

    roots = np.roots([1.0] + [-(q - 1.0)] * k)
    gaps = np.abs(np.subtract.outer(roots, roots))[np.triu_indices(len(roots), 1)]
    return len(roots) == k and int(np.sum(np.abs(roots) > 1.0)) == 1 and bool(np.all(gaps > tol))


def digits_oracle(value: int, n: int, q: int) -> str:
    """The length-n base-q digits of value, most significant first, one
    divmod per symbol: an oracle for words.format_code."""
    symbols = []
    for _ in range(n):
        value, s = divmod(value, q)
        symbols.append("0123456789abcdefghijklmnopqrstuvwxyz"[s])
    return "".join(reversed(symbols))


def all_words(n: int, q: int):
    for t in itertools.product(range(q), repeat=n):
        yield Word(t, q)


def generate_recursive(n: int, k: int, q: int, cap: int = ENUM_CAP) -> Code:
    """The zero-run code S_{k,q}(n) via its recursive decomposition, an
    oracle for construction.generate_direct.

    Base case (k+2 <= n <= 2k+1): the interior window is shorter than k,
    so every window is admissible.  For n >= 2k+2 the code is the disjoint
    union over l = 1..k of {(s, 0^(l-1), alpha)} with s drawn from the
    length n-l code.
    """
    validate_params(n, k, q)
    if q ** (n - k - 2) > cap:
        raise CapacityError(f"q**(n-k-2) = {q ** (n - k - 2)} exceeds cap {cap}")
    memo: dict[int, list[tuple[int, ...]]] = {}

    def build(m: int) -> list[tuple[int, ...]]:
        if m in memo:
            return memo[m]
        zeros = (0,) * k
        nonzero = range(1, q)
        if m <= 2 * k + 1:
            out = [
                zeros + (a,) + mid + (b,)
                for a in nonzero
                for mid in itertools.product(range(q), repeat=m - k - 2)
                for b in nonzero
            ]
        else:
            out = []
            seen: set[tuple[int, ...]] = set()
            for l in range(1, k + 1):
                part = [
                    s + (0,) * (l - 1) + (a,)
                    for s in build(m - l)
                    for a in nonzero
                ]
                if not seen.isdisjoint(part):
                    raise RuntimeError(f"T_l parts overlap at m={m}, l={l}")
                seen.update(part)
                out.extend(part)
        memo[m] = out
        return out

    return code_of(Word(t, q) for t in build(n))
