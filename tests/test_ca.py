"""Classical engine: rules, steps, noise, flip times, islands, erosion."""
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qcadc import ca, packed
import oracles

RECORDED = json.loads((Path(__file__).parent / "data" / "ca_flip_times.json").read_text())


def _step(rule, text):
    """One noiseless engine step of a '0'/'1' string (two-line voting: upper then lower)."""
    cells = np.array([[int(c) for c in text]], dtype=np.uint8)
    n = cells.shape[1]
    stepped = ca._rule_step(rule, n)(packed.pack_bits(cells))
    return "".join(map(str, packed.unpack_bits(stepped, n)[0]))


def test_rule_from_wolfram_30():
    table = ca.rule_from_wolfram(30).table()
    assert table == {(1, 1, 1): 0, (1, 1, 0): 0, (1, 0, 1): 0, (1, 0, 0): 1,
                     (0, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 0}


def test_rule_from_wolfram_232_is_majority():
    rule = ca.rule_from_wolfram(232)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                assert rule(a, b, c) == (1 if a + b + c >= 2 else 0)


def test_rule_from_wolfram_zero_and_range():
    assert all(v == 0 for v in ca.rule_from_wolfram(0).outputs)
    with pytest.raises(ValueError):
        ca.rule_from_wolfram(256)
    with pytest.raises(ValueError):
        ca.rule_from_wolfram(-1)


def test_step_232_erodes_sole_error():
    assert _step(232, "00100") == "00000"


def test_step_232_keeps_island():
    assert _step(232, "001100") == "001100"


def test_step_184_traffic():
    assert _step(184, "1100") == "1010"


def test_step_tlv_fixed_points_and_sole_error():
    assert _step("tlv", "0" * 12) == "0" * 12
    assert _step("tlv", "1" * 12) == "1" * 12
    assert _step("tlv", "000100" + "000000") == "0" * 12


def test_step_is_synchronous():
    # pure function: the same input rows twice give identical output, input untouched
    for rule, n in ((232, 7), (232, 130), ("tlv", 12), ("tlv", 130)):
        rows = packed.pack_bits(np.random.default_rng(n).integers(0, 2, (4, n), dtype=np.uint8))
        before = rows.copy()
        step = ca._rule_step(rule, n)
        assert np.array_equal(step(rows), step(rows)) and np.array_equal(rows, before)


@pytest.mark.parametrize("n", [4, 9, 16])
def test_self_duality_exhaustive(n):
    # step(complement(x)) == complement(step(x)) for rule 232, all 2^n configs
    rows = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)
    words = packed.pack_bits(rows)
    comp = packed.pack_bits(1 - rows)
    bits = np.array(ca.rule_from_wolfram(232).outputs, dtype=np.uint8)
    stepped = packed.unpack_bits(packed.step_elementary(words, n, bits), n)
    comp_stepped = packed.unpack_bits(packed.step_elementary(comp, n, bits), n)
    assert np.array_equal(1 - stepped, comp_stepped)


def test_self_duality_tlv_exhaustive_small():
    n = 8  # two strings of 4 cells, all 2^8 configurations
    rows = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)
    stepped = packed.unpack_bits(packed.step_tlv(packed.pack_bits(rows), n // 2), n)
    comp_stepped = packed.unpack_bits(packed.step_tlv(packed.pack_bits(1 - rows), n // 2), n)
    assert np.array_equal(1 - stepped, comp_stepped)


def test_noise_edge_cases_and_determinism():
    # rule 204 is the identity, so each state shows the noise alone
    still = list(ca.orbit_lines(204, ca.noisy_orbit(204, 6, 0.0, 3, seed=1, trial_index=2)))
    assert still == ["000000"] * 4
    flipped = list(ca.orbit_lines(204, ca.noisy_orbit(204, 6, 1.0, 3, seed=1, trial_index=2)))
    assert flipped == ["000000", "111111", "000000", "111111"]
    a = list(ca.orbit_lines(204, ca.noisy_orbit(204, 6, 0.5, 5, seed=9, trial_index=4)))
    b = list(ca.orbit_lines(204, ca.noisy_orbit(204, 6, 0.5, 5, seed=9, trial_index=4)))
    assert a == b
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        ca.noisy_orbit(204, 6, 1.5, 3)


def test_tlv_noise_uses_both_strings():
    # all-1 and all-0 are fixed points, so p = 1 alternates between them
    lines = list(ca.orbit_lines("tlv", ca.noisy_orbit("tlv", 16, 1.0, 2)))
    assert lines == ["00000000|00000000", "11111111|11111111", "00000000|00000000"]
    assert list(ca.orbit_lines("tlv", ca.noisy_orbit("tlv", 16, 0.0, 2))) == \
        ["00000000|00000000"] * 3


def test_flip_time_single_cell_is_geometric():
    # n=1: the rule is the identity, so the flip time is geometric(p)
    p = 0.2
    stats = ca.flip_time_stats(1, 232, p, 100_000, seed=5)
    expect = 1 / p
    assert abs(stats.mean - expect) < 3 * stats.stderr


def test_flip_time_noiseless_censors():
    assert ca.flip_time_trial(6, 232, 0.0, seed=1, max_steps=50) is None
    stats = ca.flip_time_stats(4, "tlv", 0.0, trials=5, seed=1, max_steps=20)
    assert stats.max_steps_hit == 5 and stats.samples == 0


def test_flip_time_rejects_bad_max_steps():
    with pytest.raises(ValueError):
        ca.flip_time_trial(4, 232, 0.1, seed=0, max_steps=0)


def test_negative_seeds_and_trial_indices_are_refused():
    with pytest.raises(ValueError, match="trial index must be non-negative, got -1"):
        ca.flip_time_trial(4, 232, 0.1, seed=0, trial_index=-1)
    with pytest.raises(ValueError, match="seed must be non-negative, got -5"):
        ca.flip_time_stats(4, "tlv", 0.1, trials=3, seed=-5)
    with pytest.raises(ValueError, match="trial index must be non-negative, got -2"):
        ca.noisy_orbit(232, 6, 0.1, 3, seed=0, trial_index=-2)


@pytest.mark.parametrize("p", [1.5, -0.5, math.nan])
def test_flip_time_rejects_p_outside_unit_interval(p):
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        ca.flip_time_stats(4, "tlv", p, trials=3, seed=0)


@pytest.mark.parametrize("rule, n", [(232, 0), (232, -4), ("tlv", 0), ("tlv", -4)])
def test_flip_time_rejects_lattices_without_cells(rule, n):
    least = 2 if rule == "tlv" else 1
    with pytest.raises(ValueError, match=f"must be at least {least}, got {n}"):
        ca.flip_time_stats(n, rule, 0.1, trials=3, seed=0)
    with pytest.raises(ValueError, match=f"must be at least {least}"):
        ca.flip_time_trial(n, rule, 0.1, seed=0)


def test_smallest_lattices_still_run():
    assert ca.flip_time_stats(1, 232, 0.1, trials=5, seed=0, max_steps=1000).samples == 5
    assert ca.flip_time_stats(2, "tlv", 0.1, trials=5, seed=0, max_steps=1000).samples == 5


def test_flip_time_trial_matches_batch():
    for trial in (0, 3, 17):
        single = ca.flip_time_trial(10, "tlv", 0.2, seed=21, trial_index=trial,
                                    max_steps=10_000)
        batch = ca._batch_flip_times(10, "tlv", 0.2, 21, np.arange(20), 10_000)
        assert single == batch[trial]


@pytest.mark.parametrize("case", RECORDED, ids=[f"{c['rule']}-{c['n']}" for c in RECORDED])
def test_flip_times_match_recorded_arrays(case):
    # Recorded with the multi-word kernels and unchunked noise hashing;
    # n = 64/65/66 straddle the one-word kernels' limit.
    rule = case["rule"] if case["rule"] == "tlv" else int(case["rule"])
    times = ca._batch_flip_times(case["n"], rule, float(Fraction(case["p"])), case["seed"],
                                 np.arange(case["trials"]), case["max_steps"])
    assert times.tolist() == case["times"]


def _orbit_flip_time(rule, n, p, seed, trial, max_steps):
    """First step whose post-update state has a strict majority of 1s, from the
    unpacked oracle orbit; -1 if none within max_steps."""
    orbit = oracles.noisy_orbit(rule, n, p, max_steps, seed, trial)
    for t, state in enumerate(orbit):
        if t and 2 * int(state.sum()) > n:
            return t
    return -1


ORBIT_CASES = pytest.mark.parametrize(
    "rule, n", [*(("tlv", n) for n in (2, 4, 62, 64, 66, 130)),
                *((code, n) for code in (232, 184) for n in (3, 63, 64, 65, 129))])


@pytest.mark.parametrize("p", [0.0, 1 / 16, 1 / 3, 1.0])
@ORBIT_CASES
def test_batch_flip_times_match_the_unpacked_orbit(rule, n, p):
    trials, max_steps, seed = 6, 40, 1000 + n
    batch = ca._batch_flip_times(n, rule, p, seed, np.arange(trials), max_steps)
    oracle = [_orbit_flip_time(rule, n, p, seed, trial, max_steps) for trial in range(trials)]
    assert batch.tolist() == oracle


@pytest.mark.parametrize("p", [0.0, 1 / 16, 1 / 3, 1.0])
@ORBIT_CASES
def test_noisy_orbit_matches_the_oracle_orbit(rule, n, p):
    steps, seed = 40, 1000 + n
    for trial in (0, 5):
        got = list(ca.noisy_orbit(rule, n, p, steps, seed=seed, trial_index=trial))
        expect = oracles.noisy_orbit(rule, n, p, steps, seed, trial)
        assert len(got) == len(expect) == steps + 1
        for state, oracle_state in zip(got, expect):
            assert state.dtype == np.uint8 and np.array_equal(state, oracle_state)


def test_flip_time_stats_invariants():
    stats = ca.flip_time_stats(8, 232, 0.15, trials=2000, seed=3)
    assert stats.samples + stats.max_steps_hit == 2000
    assert sum(stats.histogram.values()) == stats.samples
    assert math.isclose(stats.stderr, stats.stddev / math.sqrt(stats.samples))
    hist_mean = sum(t * c for t, c in stats.histogram.items()) / stats.samples
    assert math.isclose(hist_mean, stats.mean, rel_tol=1e-12)
    again = ca.flip_time_stats(8, 232, 0.15, trials=2000, seed=3)
    assert again.histogram == stats.histogram


def test_tlv_beats_232():
    tlv = ca.flip_time_stats(20, "tlv", 0.1, trials=4000, seed=11)
    maj = ca.flip_time_stats(20, 232, 0.1, trials=4000, seed=12)
    assert tlv.mean > maj.mean


def test_flip_time_monotone_in_p():
    means = []
    for i, p in enumerate((0.25, 0.2, 0.15)):
        stats = ca.flip_time_stats(12, "tlv", p, trials=4000, seed=30 + i)
        means.append((stats.mean, stats.stderr))
    for (m1, s1), (m2, s2) in zip(means, means[1:]):
        assert m2 > m1 - 3 * math.hypot(s1, s2)


def test_island_growth_k2():
    result = ca.island_growth_enumeration(2)
    assert (result.grow_ways, result.shrink_ways) == (4, 2)
    assert result.growth_probability == Fraction(2, 3)


def test_island_growth_k3():
    assert ca.island_growth_enumeration(3).growth_probability == Fraction(4, 7)


def test_island_growth_k4_and_k5_balanced():
    for k in (4, 5):
        result = ca.island_growth_enumeration(k)
        assert result.grow_ways == result.shrink_ways


def test_island_growth_rejects_sole_error():
    with pytest.raises(ValueError):
        ca.island_growth_enumeration(1)


def test_erosion_times():
    assert ca.erosion_time(0, 32) == 0
    assert ca.erosion_time(1, 32) == 1
    m = ca.erosion_constant(8, 32)
    for l in range(1, 9):
        assert ca.erosion_time(l, 32) <= m * l
    assert m <= 4  # regression: the fitted eroder constant stays small


def test_erosion_detects_non_eroding():
    # a full upper ring is a fixed point: maj(1,1,0) stays 1 everywhere
    with pytest.raises(ca.NonErodingError):
        ca.erosion_time(4, 8)


def test_orbit_lines_format():
    lines = list(ca.orbit_lines("tlv", ca.noisy_orbit("tlv", 8, 0.3, 3, seed=2)))
    assert len(lines) == 4
    assert all(len(line) == 9 and line[4] == "|" for line in lines)
    lines = list(ca.orbit_lines(232, ca.noisy_orbit(232, 8, 0.3, 3, seed=2)))
    assert all(len(line) == 8 and set(line) <= {"0", "1"} for line in lines)


def test_orbit_refuses_negative_steps_at_the_call():
    with pytest.raises(ValueError, match="steps must be non-negative"):
        ca.noisy_orbit(232, 8, 0.3, -3)
    assert list(ca.orbit_lines(232, ca.noisy_orbit(232, 8, 0.3, 0))) == ["00000000"]


def test_orbit_determinism():
    a = list(ca.orbit_lines(232, ca.noisy_orbit(232, 16, 0.2, 10, seed=4, trial_index=7)))
    b = list(ca.orbit_lines(232, ca.noisy_orbit(232, 16, 0.2, 10, seed=4, trial_index=7)))
    assert a == b
