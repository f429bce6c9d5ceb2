"""Counter-based randomness for classical noise sampling.

Every draw is a pure function of (seed, trial, step, cell), so orbits are
reproducible bit-for-bit no matter how trials are batched.  The generator
is two rounds of the splitmix64 finalizer chained over the key words,
evaluated with vectorized uint64 arithmetic.

A step's noise arrives as packed rows in the layout of :mod:`qcadc.packed`,
ready to XOR into the configuration rows.  Besides those rows (one bit per
trial and cell), drawing them holds one chunk of hash words with its
scratch copy and one chunk of booleans, whatever the number of trials.
"""
from __future__ import annotations

import numpy as np

from . import packed

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
    """Independent stream seed for a sub-experiment (a campaign's grid point)."""
    return mix64((seed & _MASK) + (stream + 1) * 0x9E3779B97F4A7C15)


def bernoulli_matrix(seed: int, trials: np.ndarray, step: int, n_cells: int, p: float) -> np.ndarray:
    """Independent Bernoulli(p) draws as packed rows, shape (len(trials), n_words(n_cells)).

    Cell c of row i (bit c % 64 of word c // 64, as in :mod:`qcadc.packed`)
    is ``word < p * 2^64`` for the 64-bit hash word
    mix(mix(mix(key + trial_i + G) + step + G) + c + G), where key =
    mix64(seed + G) and G is the golden-ratio constant; every bit >= n_cells
    is clear.  The (trial, cell) words are hashed in place, CHUNK_WORDS at a
    time, and each chunk's comparisons are packed straight into its own
    words, so a call holds the packed rows, the hash chunk and its scratch,
    and one chunk of booleans: never a (trials, n_cells) boolean matrix.
    """
    if p <= 0.0:
        return packed.zeros(len(trials), n_cells)
    if p >= 1.0:
        return packed.ones(len(trials), n_cells)
    out = np.empty((len(trials), packed.n_words(n_cells)), dtype=np.uint64)
    if out.size == 0:
        return out
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

    # Column chunks start at multiples of CHUNK_WORDS, hence on word
    # boundaries; a chunk's booleans sit in rows padded to whole words, with
    # the padding clear, so that pack_bits packs them without a copy.
    cols = min(n_cells, CHUNK_WORDS)
    rows = min(len(trials), max(1, CHUNK_WORDS // n_cells))
    # Words and scratch share one allocation.  Two equal ~240 KiB buffers
    # (1,500 trials of 20 cells) left glibc's heap just past its trim
    # threshold, so their pages went back to the system and were faulted in
    # again on every call (97k minor faults, ~0.16 s of system time in a TLV
    # n=20 campaign).  Freeing one buffer of twice the size raises glibc's
    # thresholds past every later chunk.
    words, tmp = np.empty((2, rows, cols), dtype=np.uint64)
    bits = np.zeros(rows * packed.WORD * packed.n_words(cols), dtype=bool)
    for r0 in range(0, len(trials), rows):
        r1 = min(r0 + rows, len(trials))
        for c0 in range(0, n_cells, cols):
            c1 = min(c0 + cols, n_cells)
            w0, w1 = c0 // packed.WORD, packed.n_words(c1)
            width = packed.WORD * (w1 - w0)
            if c1 - c0 < cols:  # the last of several column chunks: clear its padding
                bits[c1 - c0:width] = False
            w, s = words[: r1 - r0, : c1 - c0], tmp[: r1 - r0, : c1 - c0]
            chunk = bits[: (r1 - r0) * width].reshape(r1 - r0, width)
            np.add(h[r0:r1, None], cells[None, c0:c1], out=w)
            _mix(w, s)
            np.less(w, threshold, out=chunk[:, : c1 - c0])
            out[r0:r1, w0:w1] = packed.pack_bits(chunk)
    return out
