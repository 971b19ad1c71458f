import hashlib
import itertools
import random
import sys
import types

import numpy as np
import pytest

from xbifix import clique
from xbifix.clique import CompatGraph, build_graph, max_clique
from xbifix.construction import best_size
from xbifix.words import CapacityError, bifix_free, cross_pair_ok, verify_code

from oracles import (
    all_words,
    compatibility_matrix,
    digits_oracle,
    full_compatibility_graph,
    naive_cross_pair_ok,
    naive_is_bifix_free,
)

# published exact optima for the binary alphabet (bold table entries), and
# C(13,2) as the search certifies it
OPTIMAL = {3: 1, 4: 1, 5: 2, 6: 3, 7: 5, 8: 8, 9: 14, 10: 24, 11: 44, 12: 81, 13: 149}
# exact optima for q = 3, 4 and 10, as the search certifies them; C(4,10)
# = 1,029 takes a clique, and so a search, deeper than 1,000 levels
OPTIMAL_Q = {3: {3: 4, 4: 8, 5: 17, 6: 41, 7: 99}, 4: {3: 9, 4: 27, 5: 81, 6: 251}, 10: {4: 1029}}
# search nodes allowed, (n, q): 105, 655, 268 and 1,029 measured with the split graph
NODE_CEILING = {(12, 2): 360, (13, 2): 1180, (6, 4): 400, (4, 10): 1500}
# (n, q): the nodes the search takes and the first 16 hex digits of the
# sha256 of repr(witness.values), for the benchmark's 18 certify rows
# (q=2 n<=12, q=3 n<=7, q=4 n<=5; 511 nodes together), (13,2) and (6,4):
# a change to the graph's layout or the search must leave all of them alone
SEARCH = {
    (3, 2): (1, "28cb03b06c288e88"), (4, 2): (1, "4079e4af87d7d813"),
    (5, 2): (1, "a4b1877e00a1564f"), (6, 2): (1, "1b39bb3904dc5781"),
    (7, 2): (1, "e67a8021fac024dd"), (8, 2): (1, "8d3ac5acf685a115"),
    (9, 2): (16, "9cfbff1ebbc3f3ba"), (10, 2): (9, "ad3bc3d5b2684ced"),
    (11, 2): (24, "1f1a35ddd3b0d6e1"), (12, 2): (105, "0f09f819ca1d475e"),
    (3, 3): (4, "58fa54ed7a6fea0d"), (4, 3): (8, "e3df8ce4ae7dedde"),
    (5, 3): (17, "4000eb82f3deb034"), (6, 3): (46, "df2b3af9997db94a"),
    (7, 3): (159, "928a22e55481f7e5"), (3, 4): (9, "d36543309afb2926"),
    (4, 4): (27, "3271bf28236c6b8e"), (5, 4): (81, "57ded631e5fb7a0c"),
    (13, 2): (655, "2e74a51b47e0223f"), (6, 4): (268, "b26f368bf357a45b"),
}


def brute_force_max_clique(n, q):
    """Exhaustive DFS over bifix-free words; independent of the solver."""
    words = [w for w in all_words(n, q) if naive_is_bifix_free(w)]
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


def vertex_map(words, f):
    """The permutation of the symbol tuples in words that f induces;
    KeyError if f leaves them."""
    index = {w: i for i, w in enumerate(words)}
    return [index[f(w)] for w in words]


def random_graph(seed, clique=0, size=None, density=None):
    """A seeded random graph, 20 to 60 vertices at edge density 0.3 to 0.9
    unless given, whose first `clique` vertices are joined to every vertex.
    Vertex i holds the value i, so a witness lists its vertices; n=3 leaves
    the search unseeded, and q=16 takes values up to 4,095."""
    rng = random.Random(seed)
    size = size or rng.randint(20, 60)
    density = density or rng.uniform(0.3, 0.9)
    adjacency = [0] * size
    for i, j in itertools.combinations(range(size), 2):
        if i < clique or rng.random() < density:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    return CompatGraph(3, 16, tuple(range(size)), tuple(adjacency))


def networkx_clique_number(vertices, edges):
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(range(vertices))
    g.add_edges_from(edges)
    return nx.max_weight_clique(g, weight=None)[1]


def split_sets(n, q):
    """Per component of build_graph(n, q), its set of words as digit strings,
    from the definitions: the bifix-free words that start below s and end at
    s or above, s = 1..q//2; for q = 2 and n >= 3, those that start with 00."""
    words = [digits_oracle(v, n, q) for v, w in enumerate(all_words(n, q)) if naive_is_bifix_free(w)]
    if n == 1:
        return [set(words)]
    head = 2 if q == 2 and n >= 3 else 1
    return [
        {w for w in words if int(w[:head], q) < s <= int(w[-1], q)} for s in range(1, q // 2 + 1)
    ]


def components(graph):
    """The index ranges of build_graph's components by s, from the split
    sets: s = 1 holds the top bits, each later s the bits below."""
    size = len(graph.vertices)
    bounds = itertools.accumulate(len(c) for c in split_sets(graph.n, graph.q))
    return [range(size - b, size - a) for a, b in itertools.pairwise(itertools.chain([0], bounds))]


def dense(graph):
    """The adjacency bitsets as a boolean matrix."""
    size = len(graph.vertices)
    width = (size + 7) // 8
    raw = b"".join(a.to_bytes(width, "little") for a in graph.adjacency)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(size, width)
    return np.unpackbits(rows, axis=1, bitorder="little")[:, :size].astype(bool)


class TestBuildGraph:
    def test_vertex_counts(self):
        # q=2 keeps the bifix-free words 00...1 from n=3 on, n=2 the word 01
        # that starts below 1 and ends at 1, and n=1 every word
        def digits(n, q):
            return sorted(digits_oracle(v, n, q) for v in build_graph(n, q).vertices)

        assert digits(4, 2) == ["0001", "0011"]
        assert digits(3, 2) == ["001"]
        assert digits(2, 2) == ["01"]
        assert digits(1, 2) == ["0", "1"]
        # q=4, n=2: s=1 gives 01, 02, 03 and s=2 gives 02, 03, 12, 13
        assert digits(2, 4) == ["01", "02", "02", "03", "03", "12", "13"]

    @pytest.mark.parametrize(
        "n,q", [(1, 3), (2, 3), (7, 2), (4, 3), (2, 5), (4, 4), (3, 6), (3, 7)]
    )
    def test_components(self, n, q):
        # the components follow one another by s from the top bits down,
        # each exactly its split set, and no edge joins two of them
        g = build_graph(n, q)
        parts = components(g)
        assert len(parts) == (1 if n == 1 else q // 2)
        assert parts[0].stop == len(g.vertices) and parts[-1].start == 0
        for part, expected in zip(parts, split_sets(n, q)):
            words = [digits_oracle(g.vertices[i], n, q) for i in part]
            assert len(words) == len(set(words)) and set(words) == expected
            outside = sum(1 << i for i in range(len(g.vertices)) if i not in part)
            assert not any(g.adjacency[i] & outside for i in part)

    def test_edges_match_pair_predicate(self):
        g = build_graph(5, 2)
        for i, u in enumerate(g.vertices):
            for j, v in enumerate(g.vertices):
                edge = bool(g.adjacency[i] >> j & 1)
                if i == j:
                    assert not edge
                else:
                    assert edge == cross_pair_ok(u, v, 5, 2)

    @pytest.mark.parametrize("n,q", [(13, 2), (12, 2), (7, 3), (5, 4), (6, 4)])
    def test_matches_compatibility_oracle(self, n, q):
        # each component's block is the oracle's matrix of its words in
        # search order, the rest of the matrix empty
        g = build_graph(n, q)
        parts = components(g)
        assert len(parts) == q // 2
        expected = np.zeros((len(g.vertices),) * 2, dtype=bool)
        for part in parts:
            values = g.vertices[part.start : part.stop]
            expected[part.start : part.stop, part.start : part.stop] = compatibility_matrix(values, n, q)
        assert (dense(g) == expected).all()

    @pytest.mark.parametrize("n,q", [(8, 2), (5, 3), (4, 4), (3, 6)])
    def test_search_order(self, n, q):
        # per component, read from the top: descending degree, then
        # ascending value
        g = build_graph(n, q)
        for part in components(g):
            keys = [(-g.adjacency[i].bit_count(), g.vertices[i]) for i in reversed(part)]
            assert keys == sorted(keys)

    def test_union_capacity(self):
        # 61,200 bifix-free words at n=4, q=16, under VERTEX_CAP, but the
        # eight components hold 94,860 vertices between them
        with pytest.raises(CapacityError, match="94860 vertices"):
            build_graph(4, 16)

    def test_capacity_guard(self):
        # n=19: 140,680 bifix-free words, past VERTEX_CAP = 2**16, though
        # the graph would hold only the 00...1 ones; n=20: q**n itself is
        # past 8 * VERTEX_CAP
        with pytest.raises(CapacityError, match="^140680 vertices exceed cap 65536$"):
            build_graph(19, 2)
        with pytest.raises(CapacityError, match=r"^q\*\*n = 2\*\*20 exceeds cap 524288$"):
            build_graph(20, 2)

    @pytest.mark.parametrize("q", range(2, 7))
    def test_bifix_free_count(self, q):
        # the count VERTEX_CAP refuses by, against the filter, at every n
        # the power cap lets through
        n = 1
        while q**n <= 8 * clique.VERTEX_CAP:
            assert clique._bifix_free_count(n, q) == len(bifix_free(range(q**n), n, q)), n
            n += 1

    @pytest.mark.parametrize("n,q", [(0, 2), (4, 1)])
    def test_invalid_parameters(self, n, q):
        with pytest.raises(ValueError):
            build_graph(n, q)


class TestOrbits:
    """The split searches one image of each code under reversal x S_q, the
    one whose first symbols lie below s.  That needs each of these maps to
    send codes to codes: to be an automorphism of the graph of all
    bifix-free words, which the search never builds."""

    @pytest.mark.parametrize("n,q", [(8, 2), (5, 3), (4, 4), (3, 16)])
    def test_generators_are_automorphisms(self, n, q):
        words = [(v, w) for v, w in enumerate(all_words(n, q)) if naive_is_bifix_free(w)]
        adjacency = compatibility_matrix([v for v, _ in words], n, q)
        symbols = [w for _, w in words]
        for name, f in generators(q).items():
            perm = vertex_map(symbols, f)
            assert sorted(perm) == list(range(len(perm))), name
            assert (adjacency[np.ix_(perm, perm)] == adjacency).all(), name


class TestMaxClique:
    @pytest.mark.parametrize("n,q", list(SEARCH))
    def test_search_is_pinned(self, n, q):
        result = max_clique(build_graph(n, q))
        digest = hashlib.sha256(repr(result.witness.values).encode()).hexdigest()[:16]
        assert (result.nodes_explored, digest) == SEARCH[n, q]

    def test_witness_reverified(self, monkeypatch):
        # the explicit check survives python -O, unlike an assert
        monkeypatch.setattr("xbifix.clique.verify_code", lambda code: False)
        with pytest.raises(RuntimeError):
            max_clique(build_graph(6, 2))

    @pytest.mark.parametrize("n", range(3, 14))
    def test_known_optima(self, n):
        result = max_clique(build_graph(n, 2))
        assert result.optimal
        assert result.size == OPTIMAL[n]
        assert verify_code(result.witness)
        assert len(result.witness) == result.size
        assert result.nodes_explored <= NODE_CEILING.get((n, 2), result.nodes_explored)

    @pytest.mark.parametrize(
        "q,n", [(q, n) for q, row in OPTIMAL_Q.items() for n in row]
    )
    def test_known_optima_nonbinary(self, q, n):
        result = max_clique(build_graph(n, q))
        assert result.optimal
        assert result.size == len(result.witness) == OPTIMAL_Q[q][n]
        assert verify_code(result.witness)
        assert result.nodes_explored <= NODE_CEILING.get((n, q), result.nodes_explored)

    @pytest.mark.parametrize(
        "q,n",
        [(2, n) for n in range(3, 11)] + [(3, n) for n in range(3, 7)] + [(4, 3), (4, 4)]
        + [(q, n) for q in (2, 3, 4) for n in (1, 2)] + [(5, 3), (6, 3)],
    )
    def test_networkx_agreement(self, q, n):
        # the split graph's optimum against the whole graph's, built
        # without build_graph; (3,6) has three components and C(3,6) = 32
        words, edges = full_compatibility_graph(n, q)
        g = build_graph(n, q)
        assert max_clique(g).size == networkx_clique_number(len(words), edges)
        if (n, q) == (3, 6):
            assert len(components(g)) == 3
            assert max_clique(g).size == 32

    @pytest.mark.parametrize("n,q", [(5, 4), (6, 4)])
    def test_seed_is_a_clique(self, n, q):
        # a word can lie in both components; the seed takes its s=1 copy,
        # in the top bits
        g = build_graph(n, q)
        seed = clique._seed_clique(g)
        assert len(seed) == best_size(n, q).size
        top = components(g)[0]
        assert all(i in top for i in seed)
        for u, v in itertools.combinations(seed, 2):
            assert g.adjacency[u] >> v & 1

    @pytest.mark.parametrize("seed", range(50))
    def test_random_graphs_match_networkx(self, seed, monkeypatch):
        # the colouring bound on graphs the bifix structure never produces;
        # their witnesses are no codes, so only the clique property is checked
        g = random_graph(seed)
        monkeypatch.setattr("xbifix.clique.verify_code", lambda code: True)
        result = max_clique(g)
        assert result.optimal
        edges = [(i, j) for i, a in enumerate(g.adjacency) for j in range(i) if a >> j & 1]
        expected = networkx_clique_number(len(g.vertices), edges)
        assert result.size == len(result.witness) == expected
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

    def test_depth_is_not_bounded_by_the_interpreter(self):
        # C(5,5) = 256 takes a clique of 256 vertices, deeper than the
        # recursion limit allows here: the search keeps its own stack
        g = build_graph(5, 5)
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            result = max_clique(g)
        finally:
            sys.setrecursionlimit(limit)
        assert result.optimal
        assert result.size == len(result.witness) == 256

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

    @pytest.mark.parametrize("fires_at", [1, 2, 51])
    def test_budget_returns_the_path_without_a_witness(self, monkeypatch, fires_at):
        # 260 vertices joined to all of a random graph on 80: the search
        # starts empty, and its first descent reaches no leaf for 260
        # nodes; a clock past the deadline at node j returns the j-1
        # vertices on the path to it, or one vertex at the root
        g = random_graph(0, clique=260, size=340, density=0.7)
        monkeypatch.setattr("xbifix.clique.verify_code", lambda code: True)
        clock = itertools.chain([0.0] * fires_at, itertools.repeat(10.0))
        monkeypatch.setattr("xbifix.clique.time", types.SimpleNamespace(monotonic=lambda: next(clock)))
        result = max_clique(g, time_budget=1.0)
        assert (result.nodes_explored, result.optimal) == (fires_at, False)
        assert len(result.witness) == result.size == max(fires_at - 1, 1)
        for u, v in itertools.combinations(result.witness.values, 2):
            assert g.adjacency[u] >> v & 1

    def test_budget_bounds_an_unseeded_search(self):
        # below n = 4 there is no seed, and the first leaf of (3,19) is its
        # optimum, 1,014 words certified in about 2 s; far below that
        # budget the search stops on its path, a verified lower bound
        g = build_graph(3, 19)
        result = max_clique(g, time_budget=0.05)
        assert not result.optimal
        assert result.wall_time < 1.0
        assert 1 <= result.size == len(result.witness) < 1014
        assert verify_code(result.witness)

    def test_budget_checked_at_every_node(self, monkeypatch):
        # a clock past the deadline right after the start: the seed, S(9,2)
        # = 13 words, is a witness, so the search stops at its first node
        g = build_graph(9, 2)
        ticks = itertools.count()
        monkeypatch.setattr(
            "xbifix.clique.time", types.SimpleNamespace(monotonic=lambda: 10.0 * next(ticks))
        )
        result = max_clique(g, time_budget=1.0)
        assert (result.nodes_explored, result.optimal, result.size) == (1, False, 13)
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
