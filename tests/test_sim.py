import statistics
import tracemalloc

import mpmath
import numpy as np
import pytest

from xbifix import sim
from xbifix.bounds import variance_formula
from xbifix.construction import generate_direct
from xbifix.sim import SimConfig, match_times, run_sim
from xbifix.words import CapacityError, Code, Word

from oracles import code_of, exact_pmf, int64_windows, naive_first_match_time


def W(digits, q=2):
    return Word.from_value(int(digits, q), len(digits), q)


class TestRunSim:
    def test_deterministic(self):
        cfg = SimConfig(code=generate_direct(7, 2, 2), trials=500, seed=99)
        assert run_sim(cfg) == run_sim(cfg)

    def test_seed_changes_results(self):
        code = generate_direct(7, 2, 2)
        a = run_sim(SimConfig(code=code, trials=500, seed=1))
        b = run_sim(SimConfig(code=code, trials=500, seed=2))
        assert a != b

    def test_unverifiable_code_rejected(self):
        bad = code_of([W("01"), W("10")])
        with pytest.raises(ValueError):
            SimConfig(code=bad, trials=10)

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            SimConfig(code=generate_direct(7, 2, 2), trials=0)

    def test_variance_close_to_formula_small(self):
        # quick statistical check; the full 1e5-trial run lives in the
        # acceptance suite
        code = generate_direct(7, 2, 2)
        stats = run_sim(SimConfig(code=code, trials=20_000, seed=11))
        predicted = variance_formula(7, 2, 5)
        assert abs(stats.variance - predicted) / predicted < 0.10

    def test_single_word_code(self):
        code = code_of([W("001")])
        stats = run_sim(SimConfig(code=code, trials=20_000, seed=3))
        predicted = variance_formula(3, 2, 1)
        assert abs(stats.variance - predicted) / predicted < 0.10
        assert stats.min >= 3

    @pytest.mark.parametrize(
        "cfg",
        [SimConfig(code=generate_direct(10, 3, 2), trials=5000, seed=9),
         SimConfig(code=generate_direct(7, 2, 2), trials=2000, seed=4, max_stream=12)],
        ids=["10-3-2", "7-2-2-capped"],
    )
    def test_stats_match_statistics(self, cfg):
        times = [t for t in match_times(cfg).tolist() if t]
        stats = run_sim(cfg)
        assert stats.samples == len(times) and stats.truncated == cfg.trials - len(times)
        assert stats.mean == pytest.approx(statistics.fmean(times), rel=1e-12)
        assert stats.variance == pytest.approx(statistics.variance(times), rel=1e-12)
        assert (stats.min, stats.max) == (min(times), max(times))
        fields = (stats.samples, stats.mean, stats.variance, stats.min, stats.max)
        assert [type(v) for v in fields] == [int, float, float, int, int]

    def test_int64_window_range_guard(self):
        # 3**40 > 2**63: int64 windows would wrap, so the config is refused
        code = code_of([W("2" * 39 + "0", q=3)])
        with pytest.raises(CapacityError):
            SimConfig(code=code, trials=1)

    def test_trials_state_cap(self):
        # (7,2,2) keeps 22 bytes a trial: times and alive, and 6 carried symbols
        code = generate_direct(7, 2, 2)
        SimConfig(code=code, trials=sim.STATE_CAP // 22)
        with pytest.raises(CapacityError, match="exceeds cap"):
            SimConfig(code=code, trials=sim.STATE_CAP // 22 + 1)

    def test_trials_refused_before_any_array(self, monkeypatch):
        def no_run(cfg):
            raise AssertionError("the simulator ran")

        monkeypatch.setattr(sim, "match_times", no_run)
        code = generate_direct(7, 2, 2)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                run_sim(SimConfig(code=code, trials=2_000_000_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n,k,q", [(7, 2, 2), (7, 2, 3), (16, 5, 2), (20, 10, 2)])
    def test_flag_table_matches_binary_search(self, monkeypatch, n, k, q):
        # the same draws give the same times whichever way windows are tested
        cfg = SimConfig(code=generate_direct(n, k, q), trials=300, seed=17)
        searches = []
        real_searchsorted = np.searchsorted

        def counted(*args, **kwargs):
            searches.append(1)
            return real_searchsorted(*args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counted)
        assert q**n <= sim._TABLE_MAX
        table = match_times(cfg)
        assert not searches
        monkeypatch.setattr(sim, "_TABLE_MAX", 0)
        searched = match_times(cfg)
        assert searches
        assert (table > 0).all()
        assert table.tolist() == searched.tolist()

    def test_truncation_flagged(self):
        code = code_of([W("0011")])
        stats = run_sim(SimConfig(code=code, trials=200, seed=4, max_stream=8))
        assert stats.truncated > 0
        assert stats.samples + stats.truncated == 200

    def test_windows_every_length(self):
        # the doubling must give each window's base-q value at every
        # length, up to the int64 limit q**n <= 2**63, in the narrowest
        # signed type whose largest value holds q**n - 1
        rng = np.random.default_rng(8)
        binary = {}
        for q in (2, 3, 36):
            for n in range(1, 64):
                if q**n > 2**63:
                    break
                buf = rng.integers(0, q, size=(3, n + 4), dtype=np.uint8)
                buf[0, :n] = q - 1  # the largest window, q**n - 1
                expected = [
                    [Word(tuple(row[s:s + n]), q).to_value() for s in range(5)] for row in buf.tolist()
                ]
                win = sim._windows(buf, n, q)
                assert win.tolist() == expected, (n, q)
                narrowest = next(t for t in (np.int16, np.int32, np.int64) if np.iinfo(t).max >= q**n - 1)
                assert win.dtype == narrowest, (n, q)
                if q == 2:
                    binary[n] = win.dtype
        assert [binary[n] for n in (15, 16, 31, 32)] == [np.int16, np.int32, np.int32, np.int64]

    @pytest.mark.parametrize(
        "n,k,q,trials,max_stream",
        [(7, 2, 2, 20_000, None), (10, 3, 2, 20_000, None), (7, 2, 3, 20_000, None), (20, 10, 2, 5000, None),
         (16, 5, 3, 2000, None), (7, 2, 2, 5000, 30)],
        ids=["7-2-2", "10-3-2", "7-2-3", "20-10-2", "16-5-3-search", "7-2-2-capped"],
    )
    def test_narrow_windows_match_int64_kernel(self, monkeypatch, n, k, q, trials, max_stream):
        # the benchmark's four sync cases, a binary-search code and a capped
        # run: the same draws give the same times as the int64 kernel's
        cap = {} if max_stream is None else {"max_stream": max_stream}
        cfg = SimConfig(code=generate_direct(n, k, q), trials=trials, seed=5, **cap)
        assert (q**n > sim._TABLE_MAX) == (n == 16)
        narrow = match_times(cfg)
        monkeypatch.setattr(sim, "_windows", int64_windows)
        wide = match_times(cfg)
        assert narrow.dtype == wide.dtype == np.int64
        assert narrow.tolist() == wide.tolist()
        assert (narrow > 0).any() and ((narrow == 0).any() == (max_stream is not None))

    def test_max_stream_positive(self):
        for cap in (0, -3):
            with pytest.raises(ValueError):
                SimConfig(code=generate_direct(7, 2, 2), trials=1, max_stream=cap)

    def test_matches_streamed_scanner(self, monkeypatch):
        # every trial's time must equal the symbol-at-a-time scanner's on
        # that trial's symbols, replayed from the draws the run made
        draws = record_draws(monkeypatch)
        complemented = Code(tuple(sorted(36**6 - 1 - v for v in generate_direct(6, 3, 36).values)), 6, 36)
        cases = [
            # enough trials for a pass to span several blocks
            (SimConfig(code=generate_direct(7, 2, 2), trials=5000, seed=21), 2),
            # a ternary code
            (SimConfig(code=generate_direct(6, 2, 3), trials=200, seed=21), 1),
            # a length-1 code: nothing carries over between passes
            (SimConfig(code=code_of([W("z", q=36)]), trials=300, seed=21), 1),
            # 13,624 words: the scanner's target set is built once per call
            (SimConfig(code=generate_direct(21, 5, 2), trials=200, seed=21), 1),
            # 36**6 > 2**31: int64 windows, tested by binary search in
            # 44,100 words, each the (6,3,36) code's word with every symbol
            # s turned to 35 - s, so that every value passes 2**31; the mean
            # wait of 49,360 symbols passes max_stream, and 4 trials match
            (SimConfig(code=complemented, trials=200, seed=21, max_stream=2000), 1),
            # max_stream cuts the second pass's take from 19 symbols to 11
            (SimConfig(code=generate_direct(7, 2, 2), trials=5000, seed=21, max_stream=30), 2),
        ]
        # the flag table and the binary search each face the scanner
        sizes = [cfg.code.q**cfg.code.n for cfg, _ in cases]
        assert min(sizes) <= sim._TABLE_MAX < max(sizes)
        for cfg, min_blocks in cases:
            draws.clear()
            times = match_times(cfg)
            streams, blocks = replay(cfg, draws, times)
            assert max(blocks) >= min_blocks
            for trial, stream in enumerate(streams):
                t_ref = naive_first_match_time(cfg.code, stream, cap=cfg.max_stream)
                assert times[trial] == (t_ref or 0), trial
                if t_ref is None:
                    assert len(stream) == cfg.max_stream
        # in the capped case, takes never shrink but for the cap
        assert draws[-1].shape[1] < draws[0].shape[1]
        assert (times == 0).any() and (times > 0).any()


def record_draws(monkeypatch):
    """The list that each array the simulator draws from now on is appended to."""
    draws = []
    real_rng = np.random.default_rng

    class Recorder:
        def __init__(self, *args):
            self.rng = real_rng(*args)

        def integers(self, *args, **kwargs):
            out = self.rng.integers(*args, **kwargs)
            draws.append(out.copy())
            return out

    monkeypatch.setattr(np.random, "default_rng", Recorder)
    return draws


def replay(cfg, draws, times):
    """Each trial's symbols, from the run's draws in its layout: a pass
    walks the unfinished trials in order, each draw giving the next rows
    one row apiece; a trial is finished once its reported time, or else
    max_stream, lies within its symbols.  A wrong time either ends a
    trial too early or too late for the reference scanner to agree with
    it.  Also returns the number of draws in each pass."""
    streams = [[] for _ in range(cfg.trials)]
    finished = [False] * cfg.trials
    pending, blocks = [], []
    for draw in draws:
        if not pending:
            pending = [t for t in range(cfg.trials) if not finished[t]]
            blocks.append(0)
        assert draw.dtype == np.uint8 and len(draw) <= len(pending)
        blocks[-1] += 1
        for trial, row in zip(pending, draw.tolist()):
            streams[trial].extend(row)
            finished[trial] = 0 < times[trial] <= len(streams[trial]) or len(streams[trial]) >= cfg.max_stream
        pending = pending[len(draw):]
    assert not pending and all(finished)
    return streams, blocks


class TestExactLaw:
    @pytest.mark.parametrize("n,q,M", [(7, 2, 5), (10, 2, 24), (3, 2, 1), (7, 3, 88), (1, 36, 1)])
    def test_pmf_moments(self, n, q, M):
        wait = q**n / M
        pmf = exact_pmf(n, q, M, n + int(80 * wait))
        mean = sum(t * p for t, p in enumerate(pmf))
        variance = sum(t * t * p for t, p in enumerate(pmf)) - mean**2
        assert sum(pmf) == pytest.approx(1, abs=1e-12)
        assert mean == pytest.approx(wait, rel=1e-9)
        assert variance == pytest.approx(variance_formula(n, q, M), rel=1e-9)

    @pytest.mark.parametrize(
        "code",
        [generate_direct(7, 2, 2), generate_direct(7, 2, 3), code_of([W("001")])],
        ids=["7-2-2", "7-2-3", "001"],
    )
    def test_histogram_fits_exact_law(self, code):
        # chi-square goodness of fit, bins merged to >= 20 expected counts
        # and a tail bin; p < 1e-3 fails a correct simulator once in a
        # thousand seeds
        trials = 20_000
        times = match_times(SimConfig(code=code, trials=trials, seed=31))
        assert (times > 0).all()
        n, q, M = code.n, code.q, len(code)
        t_max = int(times.max())
        pmf = exact_pmf(n, q, M, t_max)
        observed = np.bincount(times, minlength=t_max + 1)
        bins, expected, count, mass = [], [], 0, 0.0
        for t in range(t_max + 1):
            count, mass = count + observed[t], mass + pmf[t]
            if mass * trials >= 20:
                bins.append(count)
                expected.append(mass * trials)
                count, mass = 0, 0.0
        # the tail, T beyond the last closed bin
        bins.append(trials - sum(bins))
        expected.append(trials - sum(expected))
        chi2 = sum((o - e) ** 2 / e for o, e in zip(bins, expected))
        p_value = mpmath.gammainc((len(bins) - 1) / 2, chi2 / 2, mpmath.inf, regularized=True)
        assert p_value > 1e-3, (chi2, len(bins))
