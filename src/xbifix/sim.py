"""Monte-Carlo frame-synchronization simulator.

Streams of i.i.d. uniform q-ary symbols are scanned for the first
occurrence of any codeword as a contiguous window; the match time is the
1-based index of the window's last symbol.  The empirical variance of
this time validates the variance expression behind the code-size upper
bound.

Per-trial generators are seeded from (seed, trial index).  Windows are
base-q int64 values, so codes with q**n above 2**63 are refused.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .words import CapacityError, Code, code_values, verify_code

DEFAULT_MAX_STREAM = 1_000_000
_CHUNK = 256


@dataclass(frozen=True)
class SimConfig:
    code: Code
    trials: int
    seed: int = 0
    max_stream: int = DEFAULT_MAX_STREAM

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.code.q**self.code.n > 2**63:
            raise CapacityError(f"q**n = {self.code.q}**{self.code.n} exceeds 2**63")
        if not verify_code(self.code):
            raise ValueError("code is not cross-bifix-free")


@dataclass(frozen=True)
class SyncStats:
    samples: int
    mean: float
    variance: float
    min: int
    max: int
    truncated: int = 0


def first_match_time(code: Code, stream: Iterable[int], cap: Optional[int] = None) -> Optional[int]:
    """Index (1-based, last symbol of the window) of the first codeword
    occurrence in the stream; None if the cap is reached first.

    The rolling window is kept as a base-q integer, which encodes the
    window exactly, so this equals a naive sliding-window comparison.
    """
    n, q = code.n, code.q
    targets = set(code_values(code))
    modulus = q ** (n - 1)
    window = 0
    for t, s in enumerate(stream, start=1):
        if not 0 <= s < q:
            raise ValueError(f"symbol {s} outside alphabet Z_{q}")
        window = (window % modulus) * q + s
        if t >= n and window in targets:
            return t
        if cap is not None and t >= cap:
            return None
    return None


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def _one_trial(targets: np.ndarray, n: int, q: int, rng: np.random.Generator, cap: int) -> Optional[int]:
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    carry = np.empty(0, dtype=np.int64)
    produced = 0
    chunk = _CHUNK
    while produced < cap:
        take = min(chunk, cap - produced)
        fresh = rng.integers(0, q, size=take, dtype=np.int64)
        buf = np.concatenate([carry, fresh])
        if len(buf) >= n:
            windows = np.lib.stride_tricks.sliding_window_view(buf, n) @ powers
            hits = np.isin(windows, targets)
            if hits.any():
                offset = int(np.argmax(hits))
                # window i ends at stream position produced - len(carry) + i + n
                return produced - len(carry) + offset + n
            carry = buf[len(buf) - (n - 1):]
        else:
            carry = buf
        produced += take
        chunk = min(chunk * 2, 1 << 16)
    return None


def run_sim(cfg: SimConfig) -> SyncStats:
    """Aggregate first-match times over seeded trials; deterministic for
    a fixed (seed, trials, code)."""
    n, q = cfg.code.n, cfg.code.q
    targets = np.asarray(code_values(cfg.code), dtype=np.int64)
    times = []
    truncated = 0
    for trial in range(cfg.trials):
        t = _one_trial(targets, n, q, _trial_rng(cfg.seed, trial), cfg.max_stream)
        if t is None:
            truncated += 1
        else:
            times.append(t)
    if not times:
        raise CapacityError("all trials truncated; raise max_stream")
    return SyncStats(
        samples=len(times),
        mean=statistics.fmean(times),
        variance=statistics.variance(times) if len(times) > 1 else 0.0,
        min=min(times),
        max=max(times),
        truncated=truncated,
    )
