"""Exact maximum-clique search over the compatibility graph of
bifix-free words, giving the true maximum code size for small lengths.

Vertices are the bifix-free words of length n, as base-q values in
descending-degree order; an edge joins two words that are mutually
cross-bifix-free.  The solver is a branch-and-bound over bitset candidate
sets, seeded from n = 4 on with the constructed code.  Its upper bounds
come from a greedy coloring built one class at a time (as in BBMC, San
Segundo et al. 2011); only vertices in classes that can still beat the
incumbent are branched on, and each of those first tries to move into a
lower class, directly or by a swap with its one neighbour there
(Re-NUMBER, from Tomita et al.'s MCS, WALCOM 2010).  Reversal and symbol
permutations map the graph onto itself, so the root branches on one word
per orbit (orbital branching): a word tried there takes its whole orbit
out of the root's candidates.  C(12,2) = 81 certifies in 778 nodes (5,990
without Re-NUMBER), C(13,2) = 149 in 42,141.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    import numpy as np

from .construction import best_size, generate_direct
from .words import MAX_Q, CapacityError, Code, check_power_cap, verify_code

VERTEX_CAP = 2**16  # bifix-free words build_graph takes as vertices at most
_ROW_BLOCK = 256  # graph-build rows per step; bounds memory to 256 x V booleans


@dataclass(frozen=True)
class CompatGraph:
    """Compatibility graph with bitset adjacency (one int per vertex)."""

    n: int
    q: int
    vertices: tuple[int, ...]
    adjacency: tuple[int, ...]
    orbits: tuple[int, ...]  # per vertex, its orbit under reversal x S_q as a bitset

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2


@dataclass(frozen=True)
class CliqueResult:
    size: int
    witness: Code
    nodes_explored: int
    wall_time: float
    optimal: bool


def _compatible(words: np.ndarray, n: int, q: int) -> Iterator[np.ndarray]:
    """Blocks of up to _ROW_BLOCK rows of the boolean adjacency matrix,
    True where two words are mutually cross-bifix-free, False on the
    diagonal."""
    import numpy as np
    affixes = [(words // q ** (n - length), words % q**length) for length in range(1, n)]
    for start in range(0, len(words), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        ok = np.ones((len(words[rows]), len(words)), dtype=bool)
        for head, tail in affixes:
            ok &= (head[rows, None] != tail) & (tail[rows, None] != head)
        np.fill_diagonal(ok[:, start:], False)
        yield ok


def _orbits(words: np.ndarray, n: int, q: int) -> tuple[int, ...]:
    """Per word, its orbit under reversal x S_q as a bitset over positions in words.
    Words share an orbit when they share a key: the smaller base-q value of the word
    and of its reverse, each with its symbols renamed 0, 1, ... in order of first use."""
    import numpy as np
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    both = np.concatenate([words[:, None] // powers % q, words[:, None] // powers[::-1] % q])
    first = np.full((len(both), q), n)  # each symbol's first position, n if unused
    for j in range(n - 1, -1, -1):
        first[np.arange(len(both)), both[:, j]] = j
    rank = np.argsort(np.argsort(first, axis=1, kind="stable"), axis=1, kind="stable")
    key = np.take_along_axis(rank, both, axis=1) @ powers
    keys = np.minimum(key[: len(words)], key[len(words) :]).tolist()
    bits: dict[int, int] = {}
    for i, k in enumerate(keys):
        bits[k] = bits.get(k, 0) | 1 << i
    return tuple(bits[k] for k in keys)


def build_graph(n: int, q: int) -> CompatGraph:
    """All bifix-free words of length n over Z_q, as base-q values (see
    xbifix.words), joined when mutually cross-bifix-free; no self-loops
    are stored.  The vertices are in search order: descending degree,
    then ascending value.  int64 is exact under the cap."""
    import numpy as np
    if n < 1 or not 2 <= q <= MAX_Q:
        raise ValueError(f"need n >= 1 and 2 <= q <= {MAX_Q}, got n={n}, q={q}")
    check_power_cap(q, n, VERTEX_CAP * 8)
    words = np.arange(q**n, dtype=np.int64)
    for length in range(1, n):
        words = words[words // q ** (n - length) != words % q**length]
    if len(words) > VERTEX_CAP:
        raise CapacityError(f"{len(words)} vertices exceed cap {VERTEX_CAP}")
    degree, packed = [], []
    for ok in _compatible(words, n, q):
        degree.append(ok.sum(axis=1))
        packed.append(np.packbits(ok, axis=1, bitorder="little"))
    order = np.argsort(-np.concatenate(degree), kind="stable")
    packed = np.concatenate(packed)  # value order, one bit per pair; frees the blocks
    adjacency: list[int] = []
    for start in range(0, len(words), _ROW_BLOCK):
        # rows, then columns, of the value-order matrix in search order;
        # np.take keeps the block C-contiguous, which packbits needs to be fast
        block = packed[order[start : start + _ROW_BLOCK]]
        ok = np.unpackbits(block, axis=1, count=len(words), bitorder="little")
        ok = np.take(ok, order, axis=1)
        # row i as an int whose bit j is the edge to vertex j
        block = np.packbits(ok, axis=1, bitorder="little")
        adjacency.extend(int.from_bytes(row.tobytes(), "little") for row in block)
    words = words[order]
    return CompatGraph(n, q, tuple(words.tolist()), tuple(adjacency), _orbits(words, n, q))


def _seed_clique(graph: CompatGraph) -> list[int]:
    """The constructed code of the same (n, q), mapped into the graph.
    It is a clique by construction and a strong starting incumbent."""
    if graph.n < 4:
        return []
    code = generate_direct(graph.n, best_size(graph.n, graph.q).best_k, graph.q)
    index = {v: i for i, v in enumerate(graph.vertices)}
    return [index[v] for v in code.values]


def max_clique(graph: CompatGraph, time_budget: float | None = None) -> CliqueResult:
    """Branch-and-bound maximum clique with re-numbered coloring bounds.

    Within the budget the result is the exact maximum (optimal=True);
    on budget exhaustion the best clique found so far is returned with
    optimal=False, a lower bound only.
    """
    if time_budget is not None and not time_budget > 0:
        raise ValueError("time_budget must be positive")
    start = time.monotonic()
    deadline = None if time_budget is None else start + time_budget
    adj, orbits = graph.adjacency, graph.orbits
    best = _seed_clique(graph)
    nodes = 0
    out_of_budget = False

    def expand(clique: list[int], candidates: int) -> None:
        nonlocal best, nodes, out_of_budget
        nodes += 1
        # the budget is checked once a witness exists, so one is returned
        if out_of_budget or (
            deadline is not None
            and nodes % 256 == 0
            and best
            and time.monotonic() > deadline
        ):
            out_of_budget = True
            return
        # greedy coloring of the candidate set, one class at a time; the
        # first k_min classes cannot improve on best and are not branched on
        k_min = len(best) - len(clique)
        low: list[int] = []
        high: list[int] = []  # high[i] extends the clique by at most len(low) + i + 1
        uncolored = candidates
        while uncolored:
            cls, members = uncolored, 0
            while cls:
                bit = cls & -cls
                members |= bit
                cls &= ~(bit | adj[bit.bit_length() - 1])
            uncolored &= ~members
            if len(low) < k_min:
                low.append(members)
                continue
            # Re-NUMBER (Tomita): a member v moves to a class i < k_min where
            # it has no neighbour, or where it has one, w, that moves on to a
            # class j, i < j < k_min, with none of its own
            todo = members
            while todo:
                bit = todo & -todo
                todo ^= bit
                near = adj[bit.bit_length() - 1]
                for i in range(k_min):
                    hit = near & low[i]  # v's neighbours in class i
                    if hit & (hit - 1):
                        continue
                    j = i
                    if hit:
                        far = adj[hit.bit_length() - 1]
                        j = next((j for j in range(i + 1, k_min) if not far & low[j]), i)
                        if j == i:
                            continue
                    low[i] ^= hit | bit
                    low[j] |= hit
                    members ^= bit
                    break
            high.append(members)
        floor = len(clique) + len(low)
        del low  # not held through the recursion below
        # branch on the highest classes first, the highest vertex of each first
        while high:
            members = high.pop()
            while members:
                if floor + len(high) + 1 <= len(best):
                    return
                v = members.bit_length() - 1
                members ^= 1 << v
                if not candidates >> v & 1:
                    continue  # at the root, in the orbit of a word already tried
                clique.append(v)
                rest = candidates & adj[v]
                if rest:
                    expand(clique, rest)
                elif len(clique) > len(best):
                    best = clique.copy()
                clique.pop()
                # the root's candidates stay a union of orbits, deeper ones need not
                candidates &= ~(1 << v if clique else orbits[v])
                if out_of_budget:
                    return

    expand([], (1 << len(adj)) - 1)

    witness = Code(tuple(sorted(graph.vertices[v] for v in best)), graph.n, graph.q)
    if not verify_code(witness):
        raise RuntimeError("clique witness is not cross-bifix-free")
    return CliqueResult(
        size=len(best),
        witness=witness,
        nodes_explored=nodes,
        wall_time=time.monotonic() - start,
        optimal=not out_of_budget,
    )
