import numpy as np
import pytest

from xbifix.bounds import variance_formula
from xbifix.construction import generate_direct
from xbifix.sim import SimConfig, first_match_time, run_sim
from xbifix.words import CapacityError, Code, Word, code_values

from oracles import naive_first_match_time


def W(digits, q=2):
    return Word.from_digits(digits, q)


class TestFirstMatch:
    def test_immediate_match(self):
        code = Code.from_words([W("001")])
        assert first_match_time(code, [0, 0, 1, 1, 1]) == 3

    def test_hand_trace(self):
        code = Code.from_words([W("001")])
        assert first_match_time(code, [1, 1, 0, 0, 1, 0]) == 5

    def test_cap(self):
        code = Code.from_words([W("001")])
        assert first_match_time(code, [1, 1, 1, 1], cap=4) is None

    def test_bad_symbol(self):
        code = Code.from_words([W("001")])
        with pytest.raises(ValueError):
            first_match_time(code, [0, 2, 1])

    def test_replay_equivalence(self):
        code = generate_direct(7, 2, 2)
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            stream = rng.integers(0, 2, size=400).tolist()
            fast = first_match_time(code, stream)
            naive = naive_first_match_time(code, stream)
            assert fast == naive, seed

    def test_replay_equivalence_ternary(self):
        code = generate_direct(6, 2, 3)
        for seed in range(200):
            rng = np.random.default_rng(seed + 5000)
            stream = rng.integers(0, 3, size=200).tolist()
            assert first_match_time(code, stream) == naive_first_match_time(code, stream)


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
        bad = Code.from_words([W("01"), W("10")])
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
        code = Code.from_words([W("001")])
        stats = run_sim(SimConfig(code=code, trials=20_000, seed=3))
        predicted = variance_formula(3, 2, 1)
        assert abs(stats.variance - predicted) / predicted < 0.10
        assert stats.min >= 3

    def test_int64_window_range_guard(self):
        # 3**40 > 2**63: int64 windows would wrap, so the config is refused
        code = Code.from_words([W("2" * 39 + "0", q=3)])
        with pytest.raises(CapacityError):
            SimConfig(code=code, trials=1)

    def test_truncation_flagged(self):
        code = Code.from_words([W("0011")])
        stats = run_sim(SimConfig(code=code, trials=200, seed=4, max_stream=8))
        assert stats.truncated > 0
        assert stats.samples + stats.truncated == 200

    def test_matches_streamed_scanner(self):
        # the vectorized trial must agree with the symbol-at-a-time
        # scanner on replayed streams
        from xbifix.sim import _one_trial, _trial_rng

        # a length-1 code too: nothing carries over between its chunks
        for code in (generate_direct(7, 2, 2), Code.from_words([W("z", q=36)])):
            n, q = code.n, code.q
            targets = np.asarray(code_values(code), dtype=np.int64)
            for trial in range(300):
                t_fast = _one_trial(targets, n, q, _trial_rng(21, trial), 10_000)
                # consume symbols in the same chunked pattern the trial used
                t_ref = first_match_time(code, _replay_chunks(21, trial, 10_000, q), cap=10_000)
                assert t_fast == t_ref


def _replay_chunks(seed, trial, cap, q=2):
    """Symbols exactly as _one_trial draws them (chunked, doubling)."""
    from xbifix.sim import _CHUNK, _trial_rng

    rng = _trial_rng(seed, trial)
    produced = 0
    chunk = _CHUNK
    while produced < cap:
        take = min(chunk, cap - produced)
        yield from rng.integers(0, q, size=take, dtype=np.int64).tolist()
        produced += take
        chunk = min(chunk * 2, 1 << 16)
