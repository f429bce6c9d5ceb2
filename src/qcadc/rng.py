"""Counter-based randomness for classical noise sampling.

Every draw is a pure function of (seed, trial, step, cell), so orbits are
reproducible bit-for-bit no matter how trials are batched or distributed
across workers.  The generator is two rounds of the splitmix64 finalizer
chained over the key words, evaluated with vectorized uint64 arithmetic.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF

# Words hashed per pass: small enough that a chunk and its scratch copy stay
# in cache, large enough that per-call overhead is paid rarely.
CHUNK_WORDS = 1 << 15


def _mix(x: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer on a uint64 array, in place; ``tmp`` is scratch of x's shape."""
    for shift, multiplier in ((30, _M1), (27, _M2), (31, None)):
        np.right_shift(x, np.uint64(shift), out=tmp)
        x ^= tmp
        if multiplier is not None:
            x *= multiplier


def mix64(x: int) -> int:
    """Scalar splitmix64 finalizer (plain ints, no overflow warnings)."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def check_seed(seed: int, trial_index: int = 0) -> None:
    """Refuse a negative seed or trial index, which the hashes would wrap modulo 2^64."""
    for name, value in (("seed", seed), ("trial index", trial_index)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


def derive_seed(seed: int, stream: int) -> int:
    """Independent stream seed for a sub-experiment (grid point, shard, ...)."""
    return mix64((seed & _MASK) + (stream + 1) * 0x9E3779B97F4A7C15)


def bernoulli_matrix(seed: int, trials: np.ndarray, step: int, n_cells: int, p: float) -> np.ndarray:
    """Boolean matrix of independent Bernoulli(p) draws, shape (len(trials), n_cells).

    Entry (i, c) is ``word < p * 2^64`` for the 64-bit hash word
    mix(mix(mix(key + trial_i + G) + step + G) + c + G), where key =
    mix64(seed + G) and G is the golden-ratio constant.  The (trial, cell)
    words are hashed in place, CHUNK_WORDS at a time.
    """
    shape = (len(trials), n_cells)
    if p <= 0.0:
        return np.zeros(shape, dtype=bool)
    if p >= 1.0:
        return np.ones(shape, dtype=bool)
    threshold = np.uint64(int(p * 2.0**64))
    key = mix64((seed & _MASK) + _GOLDEN)
    h = np.asarray(trials).astype(np.uint64)
    tmp = np.empty_like(h)
    h += np.uint64((key + _GOLDEN) & _MASK)
    _mix(h, tmp)
    h += np.uint64(((step & _MASK) + _GOLDEN) & _MASK)
    _mix(h, tmp)
    cells = np.arange(n_cells, dtype=np.uint64)
    cells += np.uint64(_GOLDEN)

    out = np.empty(shape, dtype=bool)
    if out.size == 0:
        return out
    cols = min(n_cells, CHUNK_WORDS)
    rows = min(shape[0], max(1, CHUNK_WORDS // n_cells))
    # Words and scratch share one allocation.  Two equal ~240 KiB buffers
    # (1,500 trials of 20 cells) left glibc's heap just past its trim
    # threshold, so their pages went back to the system and were faulted in
    # again on every call (97k minor faults, ~0.16 s of system time in a TLV
    # n=20 campaign).  Freeing one buffer of twice the size raises glibc's
    # thresholds past every later chunk.
    words, tmp = np.empty((2, rows, cols), dtype=np.uint64)
    for r0 in range(0, shape[0], rows):
        r1 = min(r0 + rows, shape[0])
        for c0 in range(0, n_cells, cols):
            c1 = min(c0 + cols, n_cells)
            w, s = words[: r1 - r0, : c1 - c0], tmp[: r1 - r0, : c1 - c0]
            np.add(h[r0:r1, None], cells[None, c0:c1], out=w)
            _mix(w, s)
            np.less(w, threshold, out=out[r0:r1, c0:c1])
    return out
