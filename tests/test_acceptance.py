"""Acceptance suite: one test per criterion, each printing a PASS line
on success (run with -s to see them).

Run: pytest tests/test_acceptance.py -v -s
"""

import itertools
import math
import time

import pytest

from xbifix.bounds import asymptotic_probe, bilotta_size, target_ratio, upper_bound, variance_formula
from xbifix.clique import build_graph, max_clique
from xbifix.construction import best_size, generate_direct, size_formula
from xbifix.fibonacci import (
    beta_bracket,
    fib,
    fib_closed_form,
    find_alpha,
    g_poly,
    kq_threshold,
    other_roots_inside_unit_disk,
)
from xbifix.sim import SimConfig, match_times, run_sim
from xbifix.words import bifix_free, find_expansion, verify_code

from oracles import all_words, f_poly, generate_recursive, naive_first_match_time, naive_is_bifix_free
from test_construction import TABLE as CONSTRUCTION_TABLE
from test_bounds import BILOTTA as BILOTTA_TABLE
from test_clique import OPTIMAL as OPTIMAL_TABLE
from test_sim import record_draws, replay


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_construction_column():
    start = time.monotonic()
    for n, (size, k) in CONSTRUCTION_TABLE.items():
        record = best_size(n, 2)
        assert (record.size, record.best_k) == (size, k), n
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"all 28 construction sizes and k values exact in {elapsed:.3f}s")


def test_criterion_2_bilotta_column():
    start = time.monotonic()
    for n, size in BILOTTA_TABLE.items():
        assert bilotta_size(n) == size, n
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"all 28 comparison sizes exact in {elapsed:.3f}s")


def test_criterion_3_exact_optima():
    start = time.monotonic()
    for n in range(3, 13):
        result = max_clique(build_graph(n, 2), time_budget=600)
        assert result.optimal, f"partial result at n={n} is a failure"
        assert result.size == OPTIMAL_TABLE[n], n
        assert verify_code(result.witness)
    elapsed = time.monotonic() - start
    assert elapsed < 600
    report(3, f"exact optima for n in [3,12] incl. C(9,2)=14 in {elapsed:.1f}s")


def test_criterion_4_generators_counting_nonexpandability():
    for q in (2, 3):
        for n in range(4, 13):
            for k in range(2, n - 1):
                direct = generate_direct(n, k, q)
                assert direct == generate_recursive(n, k, q), (n, k, q)
                assert len(direct) == (q - 1) ** 2 * fib(k, q, n - k - 2)
                assert verify_code(direct)
    # nonexpandability provably holds only for n >= 2k+1; the shorter
    # lengths are covered (and shown expandable) by the strict-xfail test
    # below
    for n in range(4, 15):
        for k in range(2, n - 1):
            if n >= 2 * k + 1 or (n, k) == (4, 2):
                assert find_expansion(generate_direct(n, k, 2)) is None, (n, k, 2)
    for n in range(4, 11):
        for k in range(2, n - 1):
            if n >= 2 * k + 1:
                assert find_expansion(generate_direct(n, k, 3)) is None, (n, k, 3)
    report(4, "generator equivalence, counting law, nonexpandability for n >= 2k+1")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "spec defect: nonexpandability does not hold for every valid k. "
        "For k+2 <= n <= 2k the code admits expansions, e.g. 001101 extends "
        "the (n=6, k=3) binary code {000101, 000111}; verified by the "
        "independent exhaustive oracle and by hand. The claimed proof's "
        "witness word needs a nonzero symbol right after the k leading "
        "zeros, which forces n >= 2k+1."
    ),
)
def test_criterion_4_nonexpandability_full_range_as_stated():
    for n in range(4, 15):
        for k in range(2, n - 1):
            assert find_expansion(generate_direct(n, k, 2)) is None, (n, k, 2)
    for n in range(4, 11):
        for k in range(2, n - 1):
            assert find_expansion(generate_direct(n, k, 3)) is None, (n, k, 3)


def test_criterion_5_closed_form():
    for k in range(2, 9):
        for q in range(2, 6):
            for n in range(0, 201):
                assert fib_closed_form(k, q, n) == fib(k, q, n), (k, q, n)
    report(5, "closed form matches the recurrence on the full grid, certified rounding")


def test_criterion_6_root_properties():
    for q in (2, 3, 5):
        threshold = kq_threshold(q)
        for k in range(2, 41):
            # precision must outpace k*log2(q): alpha approaches q like
            # q**(-k) and the beta gap shrinks like q**(-2k)
            bits = max(128, 4 * k * q.bit_length() + 64)
            est = find_alpha(k, q, bits)
            assert 1 < est.lo < est.alpha < est.hi < q
            if k >= threshold:
                _, lower = beta_bracket(k, q, bits)
                assert 1 < lower < est.hi < q
            assert other_roots_inside_unit_disk(k, q), (k, q)
    report(6, "alpha in (1,q), beta lower bound, unique root outside unit disk")


def test_criterion_7_upper_bound_and_probe():
    for n in range(3, 31):
        assert best_size(n, 2).size <= upper_bound(n, 2).__floor__()
    for n in range(4, 21):
        assert best_size(n, 3).size <= upper_bound(n, 3).__floor__()
    rows = asymptotic_probe(2, range(4, 13))
    target = target_ratio(2)
    for row in rows:
        assert 0 < row.ratio < 0.5
    final = rows[-1]
    assert final.k == 12
    assert abs(final.ratio - target) / target < 0.15
    report(
        7,
        f"sizes below the bound; probe ratio {final.ratio:.5f} vs target "
        f"{target:.5f} at k=12",
    )


@pytest.mark.parametrize(
    "n,k,M",
    [(7, 2, 5), (10, 3, 24)],
    ids=["S_2_2_7", "S_3_2_10"],
)
def test_criterion_8_simulator(n, k, M):
    code = generate_direct(n, k, 2)
    assert len(code) == M
    predicted = variance_formula(n, 2, M)
    start = time.monotonic()
    stats = run_sim(SimConfig(code=code, trials=100_000, seed=2024))
    elapsed = time.monotonic() - start
    rel = abs(stats.variance - predicted) / predicted
    assert rel <= 0.05, f"relative error {rel:.4f}"
    assert elapsed < 30
    report(
        8,
        f"M={M}: empirical variance {stats.variance:.2f} vs {predicted:.2f} "
        f"({100 * rel:.2f}% off) in {elapsed:.1f}s",
    )


def test_criterion_9_property_suites(monkeypatch):
    # bifix oracle equivalence over all binary words up to length 12
    for n in range(2, 13):
        for v, w in enumerate(all_words(n, 2)):
            assert bool(bifix_free([v], n, 2)) == naive_is_bifix_free(w)
    # g(x) = (x-1) f(x) identity
    import random

    rng = random.Random(99)
    for _ in range(1000):
        k, q = rng.randint(2, 9), rng.randint(2, 5)
        x = rng.uniform(-2.0, q + 1.0)
        assert math.isclose(
            g_poly(k, q, x), (x - 1) * f_poly(k, q, x), rel_tol=1e-12, abs_tol=1e-9
        )
    # scanner replay: 1,000 trials on streams of up to 400 symbols, each
    # trial's time against the naive scanner on the symbols it drew
    draws = record_draws(monkeypatch)
    cfg = SimConfig(code=generate_direct(7, 2, 2), trials=1000, seed=0, max_stream=400)
    times = match_times(cfg)
    streams, _ = replay(cfg, draws, times)
    for trial, stream in enumerate(streams):
        assert times[trial] == (naive_first_match_time(cfg.code, stream, cap=400) or 0), trial
    # clique witnesses are verified codes
    for n in (7, 9, 10):
        assert verify_code(max_clique(build_graph(n, 2)).witness)
    report(9, "bifix oracle, polynomial identity, scanner replay, clique witnesses")
