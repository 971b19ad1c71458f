"""Exact maximum-clique search over the compatibility graph of
bifix-free words, giving the true maximum code size for small lengths.

Vertices are the bifix-free words of length n, as base-q values in
descending-degree order; an edge joins two words that are mutually
cross-bifix-free.  The solver is a branch-and-bound with greedy-coloring
upper bounds over bitset candidate sets.  From n = 4 on it is seeded with
the constructed code as the initial incumbent; below that it starts empty.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .construction import best_size, generate_direct
from .words import MAX_Q, CapacityError, Code, verify_code

VERTEX_CAP = 2**16  # bifix-free words build_graph takes as vertices at most
_ROW_BLOCK = 256  # graph-build rows per step; bounds memory to 256 x V booleans


@dataclass(frozen=True)
class CompatGraph:
    """Compatibility graph with bitset adjacency (one int per vertex)."""

    n: int
    q: int
    vertices: tuple[int, ...]
    adjacency: tuple[int, ...]

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
    affixes = [(words // q ** (n - length), words % q**length) for length in range(1, n)]
    for start in range(0, len(words), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        ok = np.ones((len(words[rows]), len(words)), dtype=bool)
        for head, tail in affixes:
            ok &= (head[rows, None] != tail) & (tail[rows, None] != head)
        np.fill_diagonal(ok[:, start:], False)
        yield ok


def build_graph(n: int, q: int) -> CompatGraph:
    """All bifix-free words of length n over Z_q, as base-q values (see
    xbifix.words), joined when mutually cross-bifix-free; no self-loops
    are stored.  The vertices are in search order: descending degree,
    then ascending value.  int64 is exact under the cap."""
    if n < 1 or not 2 <= q <= MAX_Q:
        raise ValueError(f"need n >= 1 and 2 <= q <= {MAX_Q}, got n={n}, q={q}")
    if q**n > VERTEX_CAP * 8:
        raise CapacityError(f"q**n = {q**n} too large to enumerate")
    words = np.arange(q**n, dtype=np.int64)
    for length in range(1, n):
        words = words[words // q ** (n - length) != words % q**length]
    if len(words) > VERTEX_CAP:
        raise CapacityError(f"{len(words)} vertices exceed cap {VERTEX_CAP}")
    degree = np.concatenate([ok.sum(axis=1) for ok in _compatible(words, n, q)])
    words = words[np.argsort(-degree, kind="stable")]
    adjacency: list[int] = []
    for ok in _compatible(words, n, q):
        # row i as an int whose bit j is the edge to vertex j
        packed = np.packbits(ok, axis=1, bitorder="little")
        adjacency.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return CompatGraph(n=n, q=q, vertices=tuple(words.tolist()), adjacency=tuple(adjacency))


def _seed_clique(graph: CompatGraph) -> list[int]:
    """The constructed code of the same (n, q), mapped into the graph.
    It is a clique by construction and a strong starting incumbent."""
    if graph.n < 4:
        return []
    code = generate_direct(graph.n, best_size(graph.n, graph.q).best_k, graph.q)
    index = {v: i for i, v in enumerate(graph.vertices)}
    return [index[v] for v in code.values]


def max_clique(graph: CompatGraph, time_budget: float | None = None) -> CliqueResult:
    """Branch-and-bound maximum clique with greedy-coloring bounds.

    Within the budget the result is the exact maximum (optimal=True);
    on budget exhaustion the best clique found so far is returned with
    optimal=False, a lower bound only.
    """
    if time_budget is not None and time_budget <= 0:
        raise ValueError("time_budget must be positive")
    start = time.monotonic()
    deadline = None if time_budget is None else start + time_budget
    adj = graph.adjacency
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
        # greedy coloring of the candidate set; color number bounds the
        # largest clique extension through that vertex
        colored: list[int] = []
        colors: list[int] = []
        uncolored = candidates
        color = 0
        while uncolored:
            color += 1
            cls = uncolored
            while cls:
                v = (cls & -cls).bit_length() - 1
                colored.append(v)
                colors.append(color)
                uncolored &= ~(1 << v)
                cls &= uncolored & ~adj[v]
        for i in range(len(colored) - 1, -1, -1):
            if len(clique) + colors[i] <= len(best):
                return
            v = colored[i]
            clique.append(v)
            rest = candidates & adj[v]
            if rest:
                expand(clique, rest)
            elif len(clique) > len(best):
                best = clique.copy()
            clique.pop()
            candidates &= ~(1 << v)
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
