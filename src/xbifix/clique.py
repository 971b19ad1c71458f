"""Exact maximum-clique search over the compatibility graph of
bifix-free words, giving the true maximum code size for small lengths.

Vertices are the bifix-free words of length n; an edge joins two words
that are mutually cross-bifix-free.  The solver is a branch-and-bound
with greedy-coloring upper bounds over bitset candidate sets, seeded
with the constructed code as the initial incumbent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .construction import best_size, generate_direct
from .words import CapacityError, Code, Word, verify_code

DEFAULT_VERTEX_CAP = 2**16
_ROW_BLOCK = 256  # graph-build rows per step; bounds memory to 256 x V booleans


@dataclass(frozen=True)
class CompatGraph:
    """Compatibility graph with bitset adjacency (one int per vertex)."""

    n: int
    q: int
    vertices: tuple[Word, ...]
    adjacency: tuple[int, ...]

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2


@dataclass(frozen=True)
class CliqueResult:
    size: int
    witness: Code
    nodes_explored: int
    wall_time: float
    optimal: bool


def build_graph(n: int, q: int, cap: int = DEFAULT_VERTEX_CAP) -> CompatGraph:
    """All bifix-free words of length n over Z_q, in lexicographic order,
    joined when mutually cross-bifix-free; no self-loops are stored.  The
    words are base-q int64 values (see xbifix.words), exact under the cap."""
    if q**n > cap * 8:
        raise CapacityError(f"q**n = {q**n} too large to enumerate")
    words = np.arange(q**n, dtype=np.int64)
    for length in range(1, n):
        words = words[words // q ** (n - length) != words % q**length]
    if len(words) > cap:
        raise CapacityError(f"{len(words)} vertices exceed cap {cap}")
    affixes = [(words // q ** (n - length), words % q**length) for length in range(1, n)]
    adjacency: list[int] = []
    for start in range(0, len(words), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        ok = np.ones((len(words[rows]), len(words)), dtype=bool)
        for head, tail in affixes:
            ok &= (head[rows, None] != tail) & (tail[rows, None] != head)
        np.fill_diagonal(ok[:, start:], False)
        # row i as an int whose bit j is the edge to vertex j
        packed = np.packbits(ok, axis=1, bitorder="little")
        adjacency.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    vertices = tuple(Word.from_value(int(v), n, q) for v in words)
    return CompatGraph(n=n, q=q, vertices=vertices, adjacency=tuple(adjacency))


def _greedy_clique(adj: list[int], order: list[int]) -> list[int]:
    clique: list[int] = []
    candidates = (1 << len(adj)) - 1
    for v in order:
        if candidates >> v & 1:
            clique.append(v)
            candidates &= adj[v]
    return clique


def _seed_clique(graph: CompatGraph) -> list[int]:
    """The constructed code of the same (n, q), mapped into the graph.
    It is a clique by construction and a strong starting incumbent."""
    if graph.n < 4:
        return []
    try:
        record = best_size(graph.n, graph.q)
    except ValueError:
        return []
    if record.best_k is None:
        return []
    code = generate_direct(graph.n, record.best_k, graph.q)
    index = {w: i for i, w in enumerate(graph.vertices)}
    return [index[w] for w in code.sorted_words()]


def max_clique(
    graph: CompatGraph,
    time_budget: float | None = None,
    use_seed: bool = True,
) -> CliqueResult:
    """Branch-and-bound maximum clique with greedy-coloring bounds.

    Within the budget the result is the exact maximum (optimal=True);
    on budget exhaustion the best clique found so far is returned with
    optimal=False, a lower bound only.
    """
    if time_budget is not None and time_budget <= 0:
        raise ValueError("time_budget must be positive")
    start = time.monotonic()
    deadline = None if time_budget is None else start + time_budget
    nv = len(graph.vertices)

    # fixed vertex order: descending degree, index as tie-break
    order = sorted(range(nv), key=lambda i: (-graph.degree(i), i))
    pos = {v: i for i, v in enumerate(order)}
    adj = [0] * nv
    for new_i, old_i in enumerate(order):
        mask = graph.adjacency[old_i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            adj[new_i] |= 1 << pos[j]

    best = [pos[v] for v in _seed_clique(graph)] if use_seed else []
    if not best:
        best = _greedy_clique(adj, list(range(nv)))
    nodes = 0
    out_of_budget = False

    def expand(clique: list[int], candidates: int) -> None:
        nonlocal best, nodes, out_of_budget
        nodes += 1
        if out_of_budget or (
            deadline is not None
            and nodes % 256 == 0
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

    expand([], (1 << nv) - 1)

    witness = Code.from_words(graph.vertices[order[v]] for v in best)
    if not verify_code(witness):
        raise RuntimeError("clique witness is not cross-bifix-free")
    return CliqueResult(
        size=len(best),
        witness=witness,
        nodes_explored=nodes,
        wall_time=time.monotonic() - start,
        optimal=not out_of_budget,
    )


@dataclass(frozen=True)
class OptimalRow:
    n: int
    q: int
    clique_size: int
    construction_size: int
    matches_construction: bool
    optimal: bool


def certify_optimal_row(
    n: int, q: int, time_budget: float | None = None, cap: int = DEFAULT_VERTEX_CAP
) -> OptimalRow:
    """Run the exact search and compare the maximum code size with the
    construction's best size at the same length."""
    result = max_clique(build_graph(n, q, cap=cap), time_budget=time_budget)
    construction = best_size(n, q).size if (n >= 4 or q == 2) else 0
    return OptimalRow(
        n=n,
        q=q,
        clique_size=result.size,
        construction_size=construction,
        matches_construction=result.size == construction,
        optimal=result.optimal,
    )
