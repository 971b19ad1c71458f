"""Monte-Carlo frame-synchronization simulator.

Streams of i.i.d. uniform q-ary symbols are scanned for the first
occurrence of any codeword as a contiguous window; the match time is the
1-based index of the window's last symbol.  The empirical variance of
this time validates the variance expression behind the code-size upper
bound.

Trials draw their symbols in blocks from one generator per run, so
results are deterministic for a fixed (seed, trials, code, max_stream).
Windows are base-q values in the narrowest signed int type that holds
q**n (int16, int32 or int64): codes with q**n above 2**63 are refused.
A window is tested in a bool flag table up to q**n = 2**20 (1 MB), by
binary search in the codeword values above.  Configs whose per-trial
state exceeds STATE_CAP bytes are refused before any array exists.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

from .words import CapacityError, Code, Frozen, verify_code

DEFAULT_MAX_STREAM = 1_000_000
_CELLS = 1 << 14  # symbols per block, carried ones included
_TABLE_MAX = 1 << 20  # q**n up to which windows are looked up in a flag table
STATE_CAP = 1 << 29  # bytes of per-trial state: times and alive (int64), n-1 carried symbols


class SimConfig(Frozen):
    __slots__ = ("code", "trials", "seed", "max_stream")
    code: Code
    trials: int
    seed: int
    max_stream: int

    def __init__(self, code: Code, trials: int, seed: int = 0, max_stream: int = DEFAULT_MAX_STREAM):
        if trials < 1 or max_stream < 1:
            raise ValueError("trials and max_stream must be >= 1")
        if code.q**code.n > 2**63:
            raise CapacityError(f"q**n = {code.q}**{code.n} exceeds 2**63")
        state = trials * (16 + code.n - 1)
        if state > STATE_CAP:
            raise CapacityError(f"{trials} trials need {state} bytes of state, exceeds cap {STATE_CAP}")
        if not verify_code(code):
            raise ValueError("code is not cross-bifix-free")
        self._freeze(code, trials, seed, max_stream)


class SyncStats(NamedTuple):
    samples: int
    mean: float
    variance: float
    min: int
    max: int
    truncated: int = 0


def _windows(buf: np.ndarray, n: int, q: int) -> np.ndarray:
    """Base-q values of each row's length-n windows: ~2*log2(n) multiply-adds
    on the rows laid end to end, in the narrowest int type holding q**n, which
    bounds every partial value; windows across a row end and n-1 fillers are cut."""
    import numpy as np
    flat = buf.reshape(-1)
    win, size = flat.astype("int16" if q**n <= 2**15 else "int32" if q**n <= 2**31 else "int64"), 1
    for bit in bin(n)[3:]:
        win, size = win[:-size] * q**size + win[size:], 2 * size
        if bit == "1":
            win, size = win[:-1] * q + flat[size:], size + 1
    return np.concatenate((win, win[:n - 1])).reshape(buf.shape)[:, :buf.shape[1] - n + 1]


def match_times(cfg: SimConfig) -> np.ndarray:
    """First-match time of each trial, in trial order; 0 where max_stream
    came first.  Unfinished trials advance together, `take` symbols a
    pass, in blocks of about _CELLS symbols that each draw one (rows, take)
    array; a row with no match carries its last n-1 symbols on."""
    import numpy as np
    n, q, cap = cfg.code.n, cfg.code.q, cfg.max_stream
    targets = np.asarray(cfg.code.values, dtype=np.int64)
    if q**n <= _TABLE_MAX:  # one flag per window value
        table = np.zeros(q**n, dtype=bool)
        table[targets] = True
        is_target = table.take
    else:  # windows reach 2**63, too many values to flag: binary search
        padded = np.append(targets, -1)  # no window is -1

        def is_target(win):
            return padded[np.searchsorted(targets, win)] == win
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    times = np.zeros(cfg.trials, dtype=np.int64)
    alive, carry = np.arange(cfg.trials), np.empty((cfg.trials, 0), dtype=np.uint8)
    # take ~ sqrt(2 n w), for the mean wait w = q**n / M, balances symbols
    # carried into a pass against those drawn past a match; M <= q**n/(2n-1)
    # gives take >= n, so a row holds a window unless max_stream < n
    produced, take = 0, min(math.isqrt(2 * n * q**n // len(targets)) + 1, _CELLS)
    while len(alive) and n <= cap and produced < cap:
        kept = carry.shape[1]
        take = min(max(take, _CELLS // len(alive) - kept), cap - produced)
        rows, carried = max(1, _CELLS // (take + kept)), []
        for lo in range(0, len(alive), rows):
            block = alive[lo:lo + rows]
            fresh = rng.integers(0, q, size=(len(block), take), dtype=np.uint8)
            buf = np.concatenate([carry[lo:lo + rows], fresh], axis=1)
            win = _windows(buf, n, q)
            hits = is_target(win)
            found = hits.any(axis=1)
            # window s ends at stream position produced - kept + s + n
            times[block[found]] = produced - kept + n + hits[found].argmax(axis=1)
            carried.append(buf[~found, buf.shape[1] - n + 1:])
        alive, carry = alive[times[alive] == 0], np.concatenate(carried)
        produced += take
    return times


def run_sim(cfg: SimConfig) -> SyncStats:
    """Aggregate first-match times over the configured trials;
    deterministic for a fixed (seed, trials, code, max_stream)."""
    times = match_times(cfg)
    times = times[times > 0]
    if not times.size:
        raise CapacityError("all trials truncated; raise max_stream")
    return SyncStats(
        samples=times.size,
        mean=float(times.mean()),
        variance=float(times.var(ddof=1)) if times.size > 1 else 0.0,
        min=int(times.min()),
        max=int(times.max()),
        truncated=cfg.trials - times.size,
    )
