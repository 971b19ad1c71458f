import functools
import itertools
import operator
import random

import numpy as np
import pytest

from xbifix import clique
from xbifix.clique import CompatGraph, build_graph, max_clique
from xbifix.construction import best_size
from xbifix.words import CapacityError, Word, cross_pair_ok, is_bifix_free, verify_code

from oracles import all_words, naive_cross_pair_ok

# published exact optima for the binary alphabet (bold table entries)
OPTIMAL = {3: 1, 4: 1, 5: 2, 6: 3, 7: 5, 8: 8, 9: 14, 10: 24, 11: 44, 12: 81}
# exact optima for q = 3 and 4, as the search certifies them
OPTIMAL_Q = {3: {3: 4, 4: 8, 5: 17, 6: 41, 7: 99}, 4: {3: 9, 4: 27, 5: 81}}


def brute_force_max_clique(n, q):
    """Exhaustive DFS over bifix-free words; independent of the solver."""
    words = [w.symbols for w in all_words(n, q) if is_bifix_free(w)]
    best = 0

    def extend(chosen, rest):
        nonlocal best
        best = max(best, len(chosen))
        for i, cand in enumerate(rest):
            if len(chosen) + len(rest) - i <= best:
                break
            if all(naive_cross_pair_ok(cand, c) for c in chosen):
                extend(chosen + [cand], rest[i + 1:])

    extend([], words)
    return best


def generators(q):
    """Reversal, the symbol swap (0 1) and the symbol cycle (0 1 ... q-1),
    as maps on symbol tuples; together they generate reversal x S_q."""
    swap = (1, 0) + tuple(range(2, q))
    return {
        "reversal": lambda w: w[::-1],
        "swap": lambda w: tuple(swap[s] for s in w),
        "cycle": lambda w: tuple((s + 1) % q for s in w),
    }


def vertex_map(graph, f):
    """The vertex permutation that f induces; KeyError if f leaves the vertices."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    return [
        index[Word(f(Word.from_value(v, graph.n, graph.q).symbols), graph.q).to_value()]
        for v in graph.vertices
    ]


def random_graph(seed):
    """A seeded random graph, 20 to 60 vertices at edge density 0.3 to 0.9,
    each vertex its own orbit.  Vertex i holds the value i, so a witness
    lists its vertices; n=3, q=4 leave the search unseeded."""
    rng = random.Random(seed)
    size, density = rng.randint(20, 60), rng.uniform(0.3, 0.9)
    adjacency = [0] * size
    for i, j in itertools.combinations(range(size), 2):
        if rng.random() < density:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    return CompatGraph(3, 4, tuple(range(size)), tuple(adjacency), tuple(1 << i for i in range(size)))


def networkx_clique_number(graph):
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(range(len(graph.vertices)))
    g.add_edges_from((i, j) for i, a in enumerate(graph.adjacency) for j in range(i) if a >> j & 1)
    return nx.max_weight_clique(g, weight=None)[1]


def dense(graph):
    """The adjacency bitsets as a boolean matrix."""
    size = len(graph.vertices)
    width = (size + 7) // 8
    raw = b"".join(a.to_bytes(width, "little") for a in graph.adjacency)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(size, width)
    return np.unpackbits(rows, axis=1, bitorder="little")[:, :size].astype(bool)


class TestBuildGraph:
    def test_vertex_counts(self):
        assert len(build_graph(4, 2).vertices) == 6
        # vertices are exactly the bifix-free words
        g = build_graph(3, 2)
        expected = {w.to_value() for w in all_words(3, 2) if is_bifix_free(w)}
        assert set(g.vertices) == expected

    def test_edges_match_pair_predicate(self):
        g = build_graph(5, 2)
        for i, u in enumerate(g.vertices):
            for j, v in enumerate(g.vertices):
                edge = bool(g.adjacency[i] >> j & 1)
                if i == j:
                    assert not edge
                else:
                    assert edge == cross_pair_ok(Word.from_value(u, 5, 2), Word.from_value(v, 5, 2))

    @pytest.mark.parametrize("n,q", [(12, 2), (7, 3), (5, 4)])
    def test_one_compatibility_pass(self, n, q, monkeypatch):
        # degrees and bitsets come from one pass in value order, permuted
        # block by block; the result must be the matrix of the search order
        compatible, calls = clique._compatible, []
        monkeypatch.setattr(clique, "_compatible", lambda *a: calls.append(a) or compatible(*a))
        g = build_graph(n, q)
        assert len(calls) == 1
        direct = np.concatenate(list(compatible(np.array(g.vertices), n, q)))
        assert len(g.vertices) > 2 * clique._ROW_BLOCK
        assert (dense(g) == direct).all()

    @pytest.mark.parametrize("n,q", [(8, 2), (5, 3)])
    def test_search_order(self, n, q):
        # descending degree, then ascending value
        g = build_graph(n, q)
        keys = [(-a.bit_count(), v) for v, a in zip(g.vertices, g.adjacency)]
        assert keys == sorted(keys)

    def test_capacity_guard(self):
        # n=19: 140,680 bifix-free words, past VERTEX_CAP = 2**16;
        # n=20: q**n itself is past 8 * VERTEX_CAP
        for n in (19, 20):
            with pytest.raises(CapacityError):
                build_graph(n, 2)

    @pytest.mark.parametrize("n,q", [(0, 2), (4, 1)])
    def test_invalid_parameters(self, n, q):
        with pytest.raises(ValueError):
            build_graph(n, q)


class TestOrbits:
    @pytest.mark.parametrize("n,q", [(3, 2), (8, 2), (5, 3), (4, 4), (3, 16)])
    def test_partition(self, n, q):
        g = build_graph(n, q)
        assert all(orbit >> i & 1 for i, orbit in enumerate(g.orbits))
        distinct = set(g.orbits)
        for orbit in distinct:
            assert all(g.orbits[j] == orbit for j in range(len(g.vertices)) if orbit >> j & 1)
        # disjoint bitsets that together cover every vertex
        assert sum(o.bit_count() for o in distinct) == len(g.vertices)
        assert functools.reduce(operator.or_, distinct) == (1 << len(g.vertices)) - 1

    @pytest.mark.parametrize("n,q", [(8, 2), (5, 3), (4, 4), (3, 16)])
    def test_generators_are_automorphisms(self, n, q):
        g = build_graph(n, q)
        adjacency = dense(g)
        for name, f in generators(q).items():
            perm = vertex_map(g, f)
            assert sorted(perm) == list(range(len(perm))), name
            assert all(g.orbits[i] >> j & 1 for i, j in enumerate(perm)), name
            assert (adjacency[np.ix_(perm, perm)] == adjacency).all(), name

    @pytest.mark.parametrize("n,q", [(8, 2), (5, 3), (4, 4), (3, 16)])
    def test_orbits_are_generated(self, n, q):
        # no coarser than the group: each orbit is what the generators reach
        g = build_graph(n, q)
        maps = [vertex_map(g, f) for f in generators(q).values()]
        reached = [0] * len(g.vertices)
        for i in range(len(g.vertices)):
            if reached[i]:
                continue
            seen, todo = {i}, [i]
            while todo:
                u = todo.pop()
                for j in (m[u] for m in maps):
                    if j not in seen:
                        seen.add(j)
                        todo.append(j)
            orbit = sum(1 << j for j in seen)
            for j in seen:
                reached[j] = orbit
        assert tuple(reached) == g.orbits


class TestMaxClique:
    def test_witness_reverified(self, monkeypatch):
        # the explicit check survives python -O, unlike an assert
        monkeypatch.setattr("xbifix.clique.verify_code", lambda code: False)
        with pytest.raises(RuntimeError):
            max_clique(build_graph(6, 2))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_known_optima(self, n):
        result = max_clique(build_graph(n, 2))
        assert result.optimal
        assert result.size == OPTIMAL[n]
        assert verify_code(result.witness)
        assert len(result.witness) == result.size
        if n == 12:  # 778 nodes with Re-NUMBER, 5,990 with greedy colouring alone
            assert result.nodes_explored <= 1000

    @pytest.mark.parametrize(
        "q,n", [(q, n) for q, row in OPTIMAL_Q.items() for n in row]
    )
    def test_known_optima_nonbinary(self, q, n):
        result = max_clique(build_graph(n, q))
        assert result.optimal
        assert result.size == len(result.witness) == OPTIMAL_Q[q][n]
        assert verify_code(result.witness)

    @pytest.mark.parametrize(
        "q,n", [(2, n) for n in range(3, 11)] + [(3, n) for n in range(3, 7)] + [(4, 3), (4, 4)]
    )
    def test_networkx_agreement(self, q, n):
        g = build_graph(n, q)
        assert max_clique(g).size == networkx_clique_number(g)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_graphs_match_networkx(self, seed, monkeypatch):
        # graphs the bifix structure never produces, for both Re-NUMBER moves;
        # their witnesses are no codes, so only the clique property is checked
        g = random_graph(seed)
        monkeypatch.setattr("xbifix.clique.verify_code", lambda code: True)
        result = max_clique(g)
        assert result.optimal
        assert result.size == len(result.witness) == networkx_clique_number(g)
        for u, v in itertools.combinations(result.witness.values, 2):
            assert g.adjacency[u] >> v & 1

    @pytest.mark.parametrize("budget", [0, -1.0, float("nan")])
    def test_budget_must_be_positive(self, budget):
        with pytest.raises(ValueError):
            max_clique(build_graph(4, 2), time_budget=budget)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_brute_force_agreement(self, n):
        assert max_clique(build_graph(n, 2)).size == brute_force_max_clique(n, 2)

    def test_ternary_brute_force_agreement(self):
        assert max_clique(build_graph(4, 3)).size == brute_force_max_clique(4, 3)

    def test_determinism(self):
        g = build_graph(9, 2)
        a = max_clique(g)
        b = max_clique(g)
        assert (a.size, a.nodes_explored, a.witness) == (b.size, b.nodes_explored, b.witness)

    def test_unseeded_matches_seeded(self, monkeypatch):
        g = build_graph(9, 2)
        seeded = max_clique(g).size
        monkeypatch.setattr("xbifix.clique._seed_clique", lambda graph: [])
        assert max_clique(g).size == seeded

    def test_budget_exhaustion_flags_partial(self):
        g = build_graph(12, 2)
        result = max_clique(g, time_budget=0.01)
        if not result.optimal:
            assert verify_code(result.witness)
            assert result.size <= OPTIMAL[12]

    def test_budget_waits_for_a_first_witness(self):
        # below n=4 the search starts empty, and here its first descent is
        # deeper than the 256 nodes between budget checks
        result = max_clique(build_graph(3, 16), time_budget=0.001)
        assert not result.optimal
        assert len(result.witness) == result.size > 256
        assert verify_code(result.witness)

    def test_witness_is_clique_even_when_partial(self):
        g = build_graph(10, 2)
        result = max_clique(g, time_budget=0.001)
        assert verify_code(result.witness)


class TestCertifyRow:
    # C(n,2) from the exact search against the construction's S(n,2)
    def test_matching_row(self):
        assert max_clique(build_graph(8, 2)).size == best_size(8, 2).size == 8

    def test_exceptional_row(self):
        assert max_clique(build_graph(9, 2)).size == 14
        assert best_size(9, 2).size == 13

    def test_row_11(self):
        assert max_clique(build_graph(11, 2)).size == best_size(11, 2).size == 44

    def test_clique_at_least_construction(self):
        for n in range(4, 11):
            assert max_clique(build_graph(n, 2)).size >= best_size(n, 2).size
