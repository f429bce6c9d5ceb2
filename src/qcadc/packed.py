"""Bit-packed row storage and update kernels for the Monte Carlo engine.

A batch of configurations is a ``(trials, words)`` uint64 array, cell ``i``
living at bit ``i % 64`` of word ``i // 64`` (little-endian within a row).
A two-line-voting row holds its upper string in cells 0..m-1 and its lower
string in cells m..2m-1, the order the noise stream numbers them in.

Two-line-voting rows of at most 64 cells, which covers every lattice size
in the paper, are stepped as one word with a handful of shifts and masks.
Other rows use whole-row rotations built from word shifts and carries, so
lattices up to 10^4 cells stay cheap.
"""
from __future__ import annotations

import numpy as np

WORD = 64


def n_words(n: int) -> int:
    return (n + WORD - 1) // WORD


def zeros(trials: int, n: int) -> np.ndarray:
    return np.zeros((trials, n_words(n)), dtype=np.uint64)


def ones(trials: int, n: int) -> np.ndarray:
    """Rows with all n cells set and every bit >= n clear."""
    words = np.full((trials, n_words(n)), ~np.uint64(0))
    _mask_top(words, n)
    return words


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (trials, n) array of 0/1 values into (trials, n_words(n)) words.

    Rows are packed in one flat pass, after a copy into a bool array padded
    to whole words unless n is a multiple of 64.
    """
    trials, n = bits.shape
    if n % WORD:
        padded = np.zeros((trials, WORD * n_words(n)), dtype=bool)
        padded[:, :n] = bits
        bits = padded
    return np.packbits(bits, bitorder="little").view(np.uint64).reshape(trials, n_words(n))


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_bits; returns a (trials, n) uint8 array."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little", count=n)


def _mask_top(words: np.ndarray, n: int) -> None:
    rem = n % WORD
    if rem:
        words[..., -1] &= np.uint64((1 << rem) - 1)


def _shift_left(words: np.ndarray, k: int, n: int) -> np.ndarray:
    """Row-wise big-integer left shift by k bits, truncated to n bits."""
    w = words.shape[-1]
    q, b = divmod(k, WORD)
    out = np.zeros_like(words)
    if q < w:
        out[..., q:] = words[..., : w - q]
    if b:
        carry = out >> np.uint64(WORD - b)
        out <<= np.uint64(b)
        out[..., 1:] |= carry[..., :-1]
    _mask_top(out, n)
    return out


def _shift_right(words: np.ndarray, k: int) -> np.ndarray:
    """Row-wise big-integer right shift by k bits."""
    w = words.shape[-1]
    q, b = divmod(k, WORD)
    out = np.zeros_like(words)
    if q < w:
        out[..., : w - q] = words[..., q:]
    if b:
        carry = out << np.uint64(WORD - b)
        out >>= np.uint64(b)
        out[..., :-1] |= carry[..., 1:]
    return out


def rotate(words: np.ndarray, k: int, n: int) -> np.ndarray:
    """Cyclic rotation: bit i of the result is bit (i - k) mod n of the input."""
    k %= n
    if k == 0:
        return words.copy()
    return _shift_left(words, k, n) | _shift_right(words, n - k)


def popcount(words: np.ndarray) -> np.ndarray:
    """Number of set bits per row."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def majority3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (a & b) | (c & (a | b))


def step_elementary(words: np.ndarray, n: int, rule_bits: np.ndarray) -> np.ndarray:
    """One synchronous update under an arbitrary nearest-neighbor binary rule.

    ``rule_bits[b]`` is the output for the neighborhood whose (left, self,
    right) states read as the binary number b.  Each minterm is built in two
    scratch rows, a cell's state or its complement at a time.
    """
    left, right = rotate(words, 1, n), rotate(words, -1, n)
    out = np.zeros_like(words)
    term, scratch = np.empty_like(words), np.empty_like(words)
    for b in range(8):
        if not rule_bits[b]:
            continue
        if b & 4:
            np.copyto(term, left)
        else:
            np.invert(left, out=term)
        for bit, cells in ((b & 2, words), (b & 1, right)):
            term &= cells if bit else np.invert(cells, out=scratch)
        out |= term
    _mask_top(out, n)
    return out


def step_tlv(words: np.ndarray, m: int) -> np.ndarray:
    """One synchronous two-line-voting update on rows of two m-cell strings.

    A row holds the upper string in cells 0..m-1 and the lower in m..2m-1.
    Each upper cell i becomes the majority of upper[i-1], upper[i-2] and
    lower[i]; each lower cell i the majority of lower[i+1], lower[i+2] and
    upper[i] (indices mod m).  Both strings update from the pre-step state.
    """
    if 2 * m <= WORD:
        # Each string next to a copy of itself, so that every cyclic shift
        # is one right shift: bits 0..m-1 of (x | x << m) >> s hold x
        # rotated right by s, for 0 <= s < m.
        mask, width = np.uint64((1 << m) - 1), np.uint64(m)
        upper, lower = words & mask, words >> width
        uu, ll = upper | (upper << width), lower | (lower << width)
        new_upper = majority3(uu >> np.uint64((m - 1) % m), uu >> np.uint64((m - 2) % m), lower)
        new_lower = majority3(ll >> np.uint64(1 % m), ll >> np.uint64(2 % m), upper)
        return (new_upper & mask) | ((new_lower & mask) << width)
    w = n_words(m)
    upper = words[:, :w].copy()
    _mask_top(upper, m)
    lower = _shift_right(words, m)[:, :w]
    new_upper = majority3(rotate(upper, 1, m), rotate(upper, 2, m), lower)
    new_lower = np.zeros_like(words)
    new_lower[:, :w] = majority3(rotate(lower, -1, m), rotate(lower, -2, m), upper)
    out = _shift_left(new_lower, m, 2 * m)
    out[:, :w] |= new_upper
    return out
