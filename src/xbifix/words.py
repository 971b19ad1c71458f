"""Words over Z_q, codes of equal-length words, and the prefix/suffix
predicates everything else is built on.

A word is a fixed-length sequence of symbols from {0, ..., q-1}.  Only
*proper* prefixes and suffixes (length 1 .. n-1) are ever considered.
A code is cross-bifix-free when no proper prefix of any member equals a
proper suffix of any member, the member itself included.

A word of length n is its base-q value v, leftmost symbol most
significant, and every function here takes and returns words as values;
a `Code` holds its members' values ascending (lexicographic order).
Symbols appear only where words are spelled out: `digits`, the one path
from values to symbols, writes them as base-36 digit strings, and
`parse_code` reads such strings back.  The proper
prefix of length L is v // q**(n-L) and the proper suffix is v % q**L,
so every affix test is one integer comparison.  Each predicate has one
implementation here: `compatibility_rows` is the cross-pair relation,
in bulk, for the clique graph and `cross_pair_ok`; `_affix_pools` derives
one value set's affixes for verification and expansion; `bifix_free`
filters words.  Python ints are unbounded, so the predicates accept
any (n, q) a code file can hold.
The module imports no numpy: the nonexpandability check walks prefixes
in plain ints over flag arrays indexed by affix value.

All types are immutable after construction; every operation here is a pure
function.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product, repeat
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
MAX_Q = len(DIGITS)  # words serialize as single base-36 digits

# ceiling on q**n for the nonexpandability walk
NONEXPANDABLE_CAP = 2**24
_BLOCK = 4096  # prefixes the expansion walk extends at a time
_PIECE = 640  # digits per int() call: no interpreter digit limit is lower


class CapacityError(Exception):
    """An enumeration would exceed its configured guard."""


def check_power_cap(q: int, n: int, cap: int, name: str = "q**n") -> None:
    """CapacityError when q**n > cap, for q >= 2.  The message writes the
    power as q**n, never in decimal, and once 2**n > cap, n alone refuses
    before q**n is computed."""
    if n >= cap.bit_length() or q**n > cap:
        raise CapacityError(f"{name} = {q}**{n} exceeds cap {cap}")


def check_q(q: int) -> None:
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")


def check_alphabet(q: int) -> None:
    if not 2 <= q <= MAX_Q:
        raise ValueError(f"alphabet size must be in [2, {MAX_Q}], got {q}")


class Frozen:
    """Base of the classes that validate on construction: _freeze sets the
    fields named in __slots__ once, and they are read-only after that,
    compared and hashed together."""

    __slots__ = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


class Word(NamedTuple):
    symbols: tuple[int, ...]  # leftmost first


def compatibility_rows(words: list[int], n: int, q: int) -> list[int]:
    """Per word, the bitset of the words it is mutually cross-bifix-free
    with, bit i standing for words[i], itself excluded."""
    clash = [0] * len(words)
    for length in range(1, n):
        cut, mod = q ** (n - length), q**length
        heads: dict[int, int] = {}  # by prefix value, the words that carry it
        tails: dict[int, int] = {}  # the same by suffix value
        for i, w in enumerate(words):
            bit = 1 << i
            heads[w // cut] = heads.get(w // cut, 0) | bit
            tails[w % mod] = tails.get(w % mod, 0) | bit
        for i, w in enumerate(words):
            clash[i] |= tails.get(w // cut, 0) | heads.get(w % mod, 0)
    full = (1 << len(words)) - 1
    return [full ^ (c | 1 << i) for i, c in enumerate(clash)]


def cross_pair_ok(a: int, b: int, n: int, q: int) -> bool:
    """True iff no proper prefix of either length-n word, given by its
    value, is a proper suffix of the other.  cross_pair_ok(v, v, n, q)
    says whether v is bifix-free."""
    if not (0 <= a < q**n and 0 <= b < q**n):
        raise ValueError(f"values {a}, {b}: need both in [0, {q}**{n})")
    return compatibility_rows([a, b], n, q)[0] == 2


def bifix_free(values: Iterable[int], n: int, q: int) -> list[int]:
    """The values, in order, whose length-n words are bifix-free."""
    for length in range(1, n):
        cut, mod = q ** (n - length), q**length
        values = [v for v in values if v // cut != v % mod]
    return list(values)


def _decode(text: str, q: int) -> int:
    """The base-q value of digits parse_code has checked, _PIECE at a time."""
    value = 0
    for start in range(0, len(text), _PIECE):
        piece = text[start:start + _PIECE]
        value = value * q ** len(piece) + int(piece, q)
    return value


class Code(Frozen):
    """A nonempty set of length-n words over Z_q: their ascending values."""

    __slots__ = ("values", "n", "q")
    values: tuple[int, ...]
    n: int
    q: int

    def __init__(self, values: tuple[int, ...], n: int, q: int):
        check_alphabet(q)
        if not (values and n >= 1 and 0 <= values[0] and values[-1] < q**n
                and all(a < b for a, b in zip(values, values[1:]))):
            raise ValueError(f"n={n}, q={q}: need 1+ ascending values in [0, q**n)")
        self._freeze(values, n, q)

    def __len__(self) -> int:
        return len(self.values)

    def sorted_words(self) -> list[Word]:
        return [Word(tuple(map(DIGITS.index, w))) for w in digits(self.values, self.n, self.q)]


def _affix_pools(values: Sequence[int], n: int, q: int) -> Iterator[tuple[int, set[int], set[int]]]:
    """(L, prefixes, suffixes) for L = n-1 down to 1: the length-L proper
    prefixes and suffixes of the values.  The length-L pools are the
    length-(L+1) pools with one more symbol dropped, longest first.  A
    consumer deletes its references to a pair before the next is derived,
    so that no more than three pools are alive."""
    prefixes = suffixes = values
    for length in range(n - 1, 0, -1):
        prefixes = set(map(q.__rfloordiv__, prefixes))
        suffixes = set(map((q**length).__rmod__, suffixes))
        yield length, prefixes, suffixes


def verify_code(code: Code) -> bool:
    """True iff the code is cross-bifix-free: no proper prefix of any
    member is a proper suffix of any member, itself included."""
    return find_violation(code) is None


def find_violation(code: Code) -> Optional[tuple[int, int, int]]:
    """A witness (prefix owner, suffix owner, segment length) that breaks
    the cross-bifix-free property, or None when the code is valid.
    Pooling the affixes over the whole code is exactly the all-pairs
    check.  The segment is the shortest and, among those, the least; its
    owners are the least values that carry it."""
    n, q, values = code.n, code.q, code.values
    found = None
    for length, prefixes, suffixes in _affix_pools(values, n, q):
        if not prefixes.isdisjoint(suffixes):
            found = length, min(prefixes & suffixes)
        del prefixes, suffixes
    if found is None:
        return None
    length, segment = found
    owner = next(v for v in values if v // q ** (n - length) == segment)
    return owner, next(v for v in values if v % q**length == segment), length


def find_expansion(code: Code) -> Optional[int]:
    """The value of the lexicographically least word whose addition keeps
    the code cross-bifix-free, or None.  Prefixes are walked least first,
    _BLOCK at a time, keeping those that are no member's suffix; a full
    word then survives when no suffix of it is a member's prefix (shortest
    first), it is no member and it is bifix-free."""
    n, q, values = code.n, code.q, code.values
    check_power_cap(q, n, NONEXPANDABLE_CAP)
    affixes = [bytearray(1)] * n  # by affix value: 1 a member's prefix, 2 a suffix
    for length, heads, tails in _affix_pools(values, n, q):
        if not heads.isdisjoint(tails):
            raise ValueError("code is not cross-bifix-free")
        flags = affixes[length] = bytearray(q**length)
        for v in heads:
            flags[v] = 1
        for v in tails:
            flags[v] = 2
        del heads, tails
    ends = [s for s in range(q) if n == 1 or affixes[1][s] != 1]
    stack = [(0, [0])]  # (length, ascending prefixes still to walk), least on top
    while stack:
        length, prefixes = stack.pop()
        block = prefixes[:_BLOCK]
        if len(prefixes) > _BLOCK:
            stack.append((length, prefixes[_BLOCK:]))
        if length < n - 1:
            flags = affixes[length + 1]
            # never empty: h*q + s is no member's suffix when s starts a member
            children = [c for h in block for c in range(h * q, h * q + q) if flags[c] != 2]
            stack.append((length + 1, children))
            continue
        first, stop = block[0] * q, block[-1] * q + q  # the block's words lie in [first, stop)
        taken = set(values[bisect_left(values, first):bisect_left(values, stop)])
        words = [w for h in block for s in ends if (w := h * q + s) not in taken]
        for tail in range(2, n):
            flags, m = affixes[tail], q**tail
            words = [w for w in words if flags[w % m] != 1]
        if words := bifix_free(words, n, q):
            return words[0]
    return None


# ---------------------------------------------------------------------------
# file format: '# xbifix code n=<n> q=<q>' header, one base-36 word per
# line, lexicographically sorted, LF line endings.

def digits(values: Sequence[int], n: int, q: int) -> list[str]:
    """The length-n base-36 digit strings of the values, h digits at a time
    through a table of all h-digit strings: at most 4,096, and q per value."""
    h = max(h for h in range(1, 13) if q**h <= min(1 << 12, q * len(values)))
    base, table = q**h, ["".join(t) for t in product(DIGITS[:q], repeat=h)]
    chunks, columns, rest = -(-n // h), [], values
    for _ in range(chunks):  # least significant chunk first
        columns.append([table[v % base] for v in rest])
        rest = [v // base for v in rest]
    return ["".join(parts)[chunks * h - n:] for parts in zip(*reversed(columns))]


def format_code(code: Code) -> str:
    return "\n".join([f"# xbifix code n={code.n} q={code.q}", *digits(code.values, code.n, code.q)]) + "\n"


def parse_code(text: str) -> Code:
    """One pass checks all words at once, then int() decodes each; only a
    file that fails is walked line by line, to name its first bad line."""
    lines = text.split("\n")
    if not lines[0].startswith("# xbifix code "):
        raise ValueError("line 1: missing '# xbifix code n=<n> q=<q>' header")
    fields = lines[0][len("# xbifix code "):].split()
    try:
        header = dict(item.split("=", 1) for item in fields)
        n = int(header["n"])
        q = int(header["q"])
        check_alphabet(q)  # int() would guess the base for q=0 and refuse q=1 or q > 36
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
    except (ValueError, KeyError) as exc:
        raise ValueError(f"line 1: bad header: {exc}") from None
    alphabet = (DIGITS[:q] + DIGITS[:q].upper()).encode()
    def in_alphabet(text: str) -> bool:  # int() also takes signs, _, spaces, non-ASCII digits, 0b/0o/0x
        return text.isascii() and not text.encode().translate(None, alphabet)

    words = list(filter(None, lines[1:]))
    if not (set(map(len, words)) <= {n} and in_alphabet("".join(words))):
        for i, line in enumerate(lines[1:], start=2):
            if not in_alphabet(line):
                raise ValueError(f"line {i}: invalid digits for q={q}: {line!r}")
            if line and len(line) != n:
                raise ValueError(f"line {i}: word length {len(line)} != n={n}")
    values = list(map(int, words, repeat(q))) if n <= _PIECE else [_decode(w, q) for w in words]
    del lines, words  # not held through the sort below
    if not values:
        raise ValueError("no words in file")
    ascending = sorted(set(values))
    if len(ascending) != len(values):
        raise ValueError("duplicate words in file")
    return Code(tuple(ascending), n, q)


def write_code(code: Code, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_code(code))


def read_code(path) -> Code:
    with open(path) as fh:
        return parse_code(fh.read())
