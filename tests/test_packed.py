"""Bit-packed kernels against plain-integer and plain-array references."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcadc import ca, packed, rng
from oracles import rotate_int, step_elementary, step_tlv, uniform_words


def _random_rows(trials, n, seed):
    gen = np.random.default_rng(seed)
    return gen.integers(0, 2, size=(trials, n), dtype=np.uint8)


def test_pack_unpack_roundtrip():
    for n in (1, 7, 63, 64, 65, 130, 513):
        rows = _random_rows(5, n, n)
        assert np.array_equal(packed.unpack_bits(packed.pack_bits(rows), n), rows)


def test_popcount_matches_sum():
    rows = _random_rows(20, 300, 3)
    assert np.array_equal(packed.popcount(packed.pack_bits(rows)),
                          rows.sum(axis=1, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 200), k=st.integers(-3, 300), seed=st.integers(0, 10**6))
def test_rotate_matches_integer_rotation(n, k, seed):
    gen = np.random.default_rng(seed)
    bits = gen.integers(0, 2, size=(1, n), dtype=np.uint8)
    value = sum(int(b) << i for i, b in enumerate(bits[0]))
    rotated = packed.rotate(packed.pack_bits(bits), k, n)
    expected = rotate_int(value, k, n)
    got = sum(int(b) << i for i, b in enumerate(packed.unpack_bits(rotated, n)[0]))
    assert got == expected


@pytest.mark.parametrize("code", [232, 184, 30, 110, 0, 255])
@pytest.mark.parametrize("n", [3, 12, 64, 65, 129])
def test_packed_elementary_step_matches_reference(code, n):
    rule = ca.rule_from_wolfram(code)
    rows = _random_rows(8, n, code * 1000 + n)
    stepped = packed.step_elementary(packed.pack_bits(rows), n,
                                     np.array(rule.outputs, dtype=np.uint8))
    got = packed.unpack_bits(stepped, n)
    for row, out in zip(rows, got):
        assert np.array_equal(out, step_elementary(row, code))


@pytest.mark.parametrize("m", [3, 6, 32, 64, 70])
def test_packed_tlv_step_matches_reference(m):
    uppers = _random_rows(6, m, m)
    lowers = _random_rows(6, m, m + 1)
    stepped = packed.step_tlv(packed.pack_bits(np.hstack([uppers, lowers])), m)
    got = packed.unpack_bits(stepped, 2 * m)
    for i in range(uppers.shape[0]):
        assert np.array_equal(got[i], step_tlv(np.concatenate([uppers[i], lowers[i]])))


def test_bernoulli_matrix_deterministic_and_batch_independent():
    trials = np.arange(10)
    full = rng.bernoulli_matrix(42, trials, 7, 33, 0.3)
    assert full.dtype == np.uint64 and full.shape == (10, 1)
    again = rng.bernoulli_matrix(42, trials, 7, 33, 0.3)
    assert np.array_equal(full, again)
    subset = rng.bernoulli_matrix(42, trials[3:6], 7, 33, 0.3)
    assert np.array_equal(subset, full[3:6])
    other_step = rng.bernoulli_matrix(42, trials, 8, 33, 0.3)
    assert not np.array_equal(full, other_step)


@pytest.mark.parametrize("seed, step, trials, n_cells", [
    (0, 0, 3, 5),                                         # one chunk
    (2**64 - 1, 2**64 - 1, 300, 700),                     # rows across several chunks
    (2**63 + 12345, 2**64 - 2, 2, rng.CHUNK_WORDS + 17),  # a row wider than a chunk
])
def test_bernoulli_matrix_equals_the_unchunked_hash(seed, step, trials, n_cells):
    indices = np.arange(trials, dtype=np.int64) * 7919 + 3
    for p in (1 / 16, 0.5, 0.999):
        got = rng.bernoulli_matrix(seed, indices, step, n_cells, p)
        expect = uniform_words(seed, indices, step, np.arange(n_cells)) < np.uint64(int(p * 2.0**64))
        assert got.dtype == np.uint64 and got.shape == (trials, packed.n_words(n_cells))
        assert np.array_equal(packed.unpack_bits(got, n_cells), expect)
        assert np.array_equal(got, packed.pack_bits(expect))  # every bit >= n_cells clear


def test_bernoulli_matrix_edge_probabilities():
    trials = np.arange(4)
    assert not packed.unpack_bits(rng.bernoulli_matrix(1, trials, 0, 50, 0.0), 50).any()
    assert packed.unpack_bits(rng.bernoulli_matrix(1, trials, 0, 50, 1.0), 50).all()
    assert not packed.unpack_bits(rng.bernoulli_matrix(1, trials, 0, 50, -0.5), 50).any()
    assert packed.unpack_bits(rng.bernoulli_matrix(1, trials, 0, 50, 1.5), 50).all()
    assert rng.bernoulli_matrix(1, trials[:0], 3, 50, 0.5).shape == (0, 1)
    for n_cells in (50, 130):  # every bit >= n_cells stays clear
        assert packed.popcount(rng.bernoulli_matrix(1, trials, 0, n_cells, 1.0)).tolist() == \
            [n_cells] * 4


def test_bernoulli_count_within_binomial_bounds():
    # one step on 12000 cells at p = 1/6: count within 5 sigma of 2000
    flips = rng.bernoulli_matrix(9, np.array([0]), 1, 12000, 1 / 6)
    count = int(packed.popcount(flips)[0])
    sigma = np.sqrt(12000 * (1 / 6) * (5 / 6))
    assert abs(count - 2000) < 5 * sigma


def test_bernoulli_matrix_never_holds_a_boolean_matrix():
    # One step of 4,000 trials on 256 cells: the boolean matrix of its draws
    # alone would take 4,000 x 256 bytes.
    trials = np.arange(4000)
    tracemalloc.start()
    try:
        rng.bernoulli_matrix(7, trials, 1, 256, 1 / 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4000 * 256
