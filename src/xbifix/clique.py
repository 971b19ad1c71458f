"""Exact maximum-clique search over the compatibility graph of
bifix-free words, giving the true maximum code size for small lengths.

In a cross-bifix-free code the first symbols and the last symbols form
disjoint sets I and J, as a length-1 prefix may not equal a length-1
suffix.  Symbol renaming (I = {0..s-1}) and word reversal (s <= q/2) send
codes to codes, so from n = 2 on the optimum is the largest clique among
the words that start below s and end at s or above, s = 1..q//2.  For
q = 2 and n >= 3, either no word starts or no word ends with 01, and
reverse-complement swaps the two, so the words 00...1 are enough.  (n = 1
keeps all q words: it has no proper prefix.  The 00 step needs n >= 3: at
n = 2 it would leave no word, while C(2,2) = 1.)  Only these words are
enumerated.  The graph joins mutually cross-bifix-free words, as
words.compatibility_rows gives them, in the disjoint union of these sets,
mirrored: s = 1 in the top bits, each set in reverse search order
(descending degree, then ascending value); a word may lie in two.

The solver is a branch-and-bound over bitset candidate sets, seeded from
n = 4 on with the constructed code, which lies in the s = 1 set.  Its upper
bounds come from a greedy coloring built one class at a time (as in BBMC,
San Segundo et al. 2011) from the top bit down, two big-int operations per
coloured vertex against precomputed non-neighbour masks; only vertices in
classes that can still beat the incumbent are branched on, the highest
class first, the lowest bit of each first.  It keeps its own stack of
open nodes, so no interpreter limit bounds its depth, the clique size.
C(13,2) = 149 certifies in 655 nodes, C(3,19) = 1,014 in 1,014.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .construction import best_k_and_size, generate_direct
from .words import CapacityError, Code, bifix_free, check_alphabet, check_power_cap, compatibility_rows, verify_code

VERTEX_CAP = 2**16  # bifix-free words, and vertices built from them, build_graph takes at most


class CompatGraph(NamedTuple):
    """Compatibility graph with bitset adjacency (one int per vertex), in
    mirrored search order: the s = 1 component in the top bits."""

    n: int
    q: int
    vertices: tuple[int, ...]
    adjacency: tuple[int, ...]

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2


class CliqueResult(NamedTuple):
    size: int
    witness: Code
    nodes_explored: int
    wall_time: float
    optimal: bool


def _component(words: list[int], n: int, q: int) -> tuple[list[int], list[int]]:
    """The words in mirrored search order, ascending degree then descending
    value, and per word its bitset of neighbours in that order."""
    degrees = (-row.bit_count() for row in compatibility_rows(words, n, q))
    words = [w for _, w in sorted(zip(degrees, words), reverse=True)]
    return words, compatibility_rows(words, n, q)


def _bifix_free_count(n: int, q: int) -> int:
    """The number of bifix-free length-n words over Z_q, by Nielsen's
    recurrence u(1) = q, u(m) = q u(m-1) - (u(m/2) for even m)."""
    counts = [0, q]
    for m in range(2, n + 1):
        counts.append(q * counts[-1] - (counts[m // 2] if m % 2 == 0 else 0))
    return counts[n]


def build_graph(n: int, q: int) -> CompatGraph:
    """The split graph of the module docstring over the length-n words of
    Z_q, as base-q values (see xbifix.words), with no self-loops stored."""
    check_alphabet(q)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_power_cap(q, n, VERTEX_CAP * 8)
    parts = [list(range(q))]
    if n >= 2:
        cut = q ** (n - (2 if q == 2 and n >= 3 else 1))  # w // cut must lie below s
        words = bifix_free((w for w in range(q // 2 * cut) if w // cut < w % q), n, q)  # in some part
        parts = [[w for w in words if w // cut < s <= w % q] for s in range(1, q // 2 + 1)]
    size = max(_bifix_free_count(n, q), sum(map(len, parts)))  # every bifix-free word, the vertices built
    if size > VERTEX_CAP:
        raise CapacityError(f"{size} vertices exceed cap {VERTEX_CAP}")
    vertices, adjacency = [], []
    for part in reversed(parts):
        values, rows = _component(part, n, q)
        adjacency.extend(row << len(vertices) for row in rows)
        vertices.extend(values)
    return CompatGraph(n, q, tuple(vertices), tuple(adjacency))


def _seed_clique(graph: CompatGraph) -> list[int]:
    """The constructed code of the same (n, q), mapped into the graph.
    It is a clique by construction and a strong starting incumbent."""
    if graph.n < 4:
        return []
    code = generate_direct(graph.n, best_k_and_size(graph.n, graph.q)[0], graph.q)
    index = {v: i for i, v in enumerate(graph.vertices)}  # last copies, s = 1
    return [index[v] for v in code.values]


def max_clique(graph: CompatGraph, time_budget: float | None = None) -> CliqueResult:
    """Branch-and-bound maximum clique with greedy coloring bounds.

    Within the budget the result is the exact maximum (optimal=True).
    The budget is read at every node; once spent, the larger of the best
    clique found and the path to the current node (one vertex at the
    root) is returned with optimal=False, a lower bound only.
    """
    if time_budget is not None and not time_budget > 0:
        raise ValueError("time_budget must be positive")
    start = time.monotonic()
    deadline = None if time_budget is None else start + time_budget
    adj = graph.adjacency
    bits = [1 << v for v in range(len(adj))]
    nonadj = [bit - 1 & ~a for bit, a in zip(bits, adj)]  # the non-neighbours below each vertex
    best = _seed_clique(graph)
    nodes, optimal = 0, True
    clique: list[int] = []  # per open node but the root, the vertex it was entered by
    stack: list[tuple] = []  # per open node: (candidates, classes, members, floor)
    rest = (1 << len(adj)) - 1  # the candidates of the node to open next
    while True:
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            optimal = False
            best = max(best, clique or [len(adj) - 1], key=len)
            break
        # greedy coloring of the candidate set, one class at a time; a
        # vertex of the i-th class extends the clique by at most i + 1
        classes, uncolored = [], rest
        while uncolored:
            cls, members = uncolored, 0
            while cls:
                v = cls.bit_length() - 1
                members |= bits[v]
                cls &= nonadj[v]
            uncolored ^= members
            classes.append(members)
        # the first len(best) - len(clique) classes cannot improve on best
        cut = max(len(best) - len(clique), 0)
        del classes[:cut]
        stack.append((rest, classes, 0, len(clique) + cut))
        # branch on the highest classes first, the lowest vertex of each first
        while stack:
            candidates, classes, members, floor = stack[-1]
            if not members and classes:
                members = classes.pop()
            if not members or floor + len(classes) + 1 <= len(best):
                stack.pop()  # nothing left to branch on, or nothing that can beat best
                del clique[-1:]  # the vertex it was entered by; the root has none
                continue
            v = (members & -members).bit_length() - 1
            stack[-1] = (candidates ^ bits[v], classes, members ^ bits[v], floor)
            rest = candidates & adj[v]  # adj[v] never holds v itself
            if rest:
                clique.append(v)
                break
            if len(clique) >= len(best):  # a leaf: clique + [v] extends no further
                best = clique + [v]
        else:
            break

    witness = Code(tuple(sorted(graph.vertices[v] for v in best)), graph.n, graph.q)
    if not verify_code(witness):
        raise RuntimeError("clique witness is not cross-bifix-free")
    return CliqueResult(
        size=len(best),
        witness=witness,
        nodes_explored=nodes,
        wall_time=time.monotonic() - start,
        optimal=optimal,
    )
