"""Tests of the benchmark itself (not of xbifix).

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the program's own test run.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from worker import execute  # noqa: E402


def test_wrong_expected_value_is_a_failed_operation(tmp_path):
    ctx = workloads.Context(seed=1, workdir=tmp_path)
    ops = workloads.certify(ctx, optima={2: {5: 2, 6: 4, 7: 5}})
    records, failures, _ = execute(ops)
    assert [r["ok"] for r in records] == [True, False, True]
    assert failures == ["certify q=2 n=6: size 3, expected 4"]


def test_wait_check_rejects_a_wrong_law():
    # 100k samples at the exact mean of (7, 2, 2), M = 5, pass; claiming
    # M = 6 puts the same mean many standard errors off
    assert workloads._check_wait(25.6, 100_000, 0, 100_000, 7, 2, 5) == []
    assert workloads._check_wait(25.6, 100_000, 0, 100_000, 7, 2, 6)
    assert workloads._check_wait(25.6, 99_999, 1, 100_000, 7, 2, 5)


# q=3 n=7 (1,242 words) is left out to keep the test quick
@pytest.mark.parametrize("q,n", [(3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4), (4, 5)])
def test_pinned_optima_match_networkx(q, n):
    nx = pytest.importorskip("networkx")
    words, edges = ref.compatibility_graph(n, q)
    graph = nx.Graph()
    graph.add_nodes_from(range(len(words)))
    graph.add_edges_from(edges)
    _, size = nx.max_weight_clique(graph, weight=None)
    assert size == workloads.OPTIMA[q][n]


def test_reference_recurrence():
    assert [ref.fib_at(2, 2, [m])[m] for m in range(8)] == [1, 2, 3, 5, 8, 13, 21, 34]
    # (q-1)**2 * F_{k,q}(n-k-2) for the binary row of the program's table
    sizes = ref.construction_sizes(2, [12, 20])
    assert ref.best_of(12, 2, sizes[12]) == (3, 81)
    assert ref.best_of(20, 2, sizes[20]) == (4, 10671)


def test_self_times_partition_the_root_span():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap(leaf, "leaf")

    def middle():
        traced_leaf()
        traced_leaf()
        time.sleep(0.01)

    traced_middle = tracer.wrap(middle, "middle")
    root = tracer.open("op:root")
    traced_middle()
    tracer.close(root)
    own = tracer.self_times()
    assert own["leaf"] == pytest.approx(0.02, abs=0.01)
    assert own["middle"] == pytest.approx(0.01, abs=0.01)
    total = tracer.end[root] - tracer.start[root]
    assert sum(own.values()) == pytest.approx(total, rel=1e-9)
    assert tracer.call_counts() == {"op:root": 1, "middle": 1, "leaf": 2}


def test_scaled_time_reads_gaps_at_the_reference_speed():
    track = speed.Track()
    ref_s = speed.REFERENCE_S
    # probes at twice the reference duration: the host ran at half speed,
    # so 1 s of work between them reads as 0.5 s
    t = 0.0
    for gap in (0.0, 0.4, 0.6):
        t += gap
        track.marks.append((t, t + 2 * ref_s))
        t += 2 * ref_s
    summary = track.summary()
    assert summary["raw_s"] == pytest.approx(1.0)
    assert summary["scaled_s"] == pytest.approx(0.5)
    assert summary["probes"] == 3


def test_timer_probes_in_process_work_and_leaves_it_out_of_the_wall_time():
    def busy():
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass

    ops = [workloads.Op("busy", busy, lambda out: ([], {}))]
    track = speed.Track()
    execute(ops, track=track, timer=True)
    assert 2 * speed.AROUND_OPS + 5 <= len(track.marks)
    probed = sum(end - start for start, end in track.marks[speed.AROUND_OPS:-speed.AROUND_OPS])
    assert track.summary()["raw_s"] == pytest.approx(0.5 - probed, abs=0.05)
