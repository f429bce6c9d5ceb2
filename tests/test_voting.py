"""Global-majority-voting closed forms against exhaustive enumeration."""
import math
from fractions import Fraction

import pytest

from qcadc import voting
from oracles import (binomial_logical_flip_exact, enumerate_logical_flip,
                     enumerate_logical_flip_exact, geometric_mean_mc)


def test_flip_prob_single_step():
    assert voting.flip_prob_after(1, 0.3) == pytest.approx(0.3)
    assert voting.flip_prob_after(1, Fraction(1, 3)) == Fraction(1, 3)


def test_flip_prob_two_steps_exact():
    assert voting.flip_prob_after(2, Fraction(1, 12)) == Fraction(11, 72)


def test_flip_prob_half_saturates():
    for t in (1, 2, 9):
        assert voting.flip_prob_after(t, 0.5) == pytest.approx(0.5)


def test_flip_prob_monotone_and_converging():
    values = [voting.flip_prob_after(t, 0.05) for t in range(0, 200)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(0.5, abs=1e-4)


def test_logical_flip_small_n_closed_forms():
    p = 0.17
    assert voting.logical_flip_prob(1, 1, p) == pytest.approx(p)
    assert voting.logical_flip_prob(2, 1, p) == pytest.approx(p)        # p^2 + p(1-p)
    assert voting.logical_flip_prob(3, 1, p) == pytest.approx(3 * p**2 * (1 - p) + p**3)
    exact = voting.logical_flip_prob(2, 1, Fraction(17, 100))
    assert exact == Fraction(17, 100)


def test_logical_flip_matches_enumeration():
    for n in range(1, 13):
        for t in (1, 2, 3):
            for p in (0.08, 0.23):
                pt = voting.flip_prob_after(t, p)
                expect = enumerate_logical_flip(n, pt)
                got = voting.logical_flip_prob(n, t, p)
                assert got == pytest.approx(expect, abs=1e-12), (n, t, p)


def test_logical_flip_exact_fraction_path():
    p = Fraction(1, 12)
    for n in (2, 5, 8):
        pt = voting.flip_prob_after(2, p)
        assert voting.logical_flip_prob(n, 2, p) == enumerate_logical_flip_exact(n, pt)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 50, 101, 200, 301])
def test_exact_tail_matches_the_binomial_sum(n):
    for t in (1, 2, 3):
        for p in (Fraction(0), Fraction(1, 12), Fraction(2, 5), Fraction(1, 2), Fraction(1)):
            expect = binomial_logical_flip_exact(n, voting.flip_prob_after(t, p))
            assert voting.logical_flip_prob(n, t, p) == expect, (n, t, p)


def test_logical_flip_large_n_overflow_safe():
    value = voting.logical_flip_prob(1000, 2, 0.05)
    assert 0.0 <= value <= 1.0
    # cross-check the log-space float path against exact rationals
    exact = voting.logical_flip_prob(500, 2, Fraction(1, 20))
    approx = voting.logical_flip_prob(500, 2, 0.05)
    assert approx == pytest.approx(float(exact), rel=1e-10)


@pytest.mark.parametrize("n", [13, 101, 500, 1000])
@pytest.mark.parametrize("t", [1, 2])
def test_log_space_tail_matches_exact_fractions(n, t):
    for p in (Fraction(1, 5), Fraction(2, 5)):
        exact = float(voting.logical_flip_prob(n, t, p))
        assert exact > 0.0  # a tail that underflows would pass any relative test
        assert voting.logical_flip_prob(n, t, float(p)) == pytest.approx(exact, rel=1e-10)


def test_log_space_tail_at_certain_flips():
    for n in (1, 2, 7, 10):
        assert voting.logical_flip_prob(n, 1, 0.0) == 0.0
        assert voting.logical_flip_prob(n, 1, 1.0) == 1.0
        assert voting.logical_flip_prob(n, 2, 1.0) == 0.0  # two flips undo each other


def test_mean_flip_time_single_cell():
    result = voting.mean_flip_time(voting.VotingParams(1, 0.2, 0))
    assert result.periods == pytest.approx(5.0)
    assert result.steps == pytest.approx(5.0)


def test_mean_flip_time_delay_shortens_periods():
    base = voting.mean_flip_time(voting.VotingParams(10, 0.1, 0))
    delayed = voting.mean_flip_time(voting.VotingParams(10, 0.1, 1))
    assert delayed.periods < base.periods


def test_mean_flip_time_zero_noise_is_infinite():
    result = voting.mean_flip_time(voting.VotingParams(5, 0.0, 0))
    assert math.isinf(result.periods) and math.isinf(result.steps)


def test_mean_flip_time_matches_geometric_mc():
    for prob, seed in ((0.05, 1), (0.2, 2)):
        mc_mean, mc_err = geometric_mean_mc(prob, 100_000, seed)
        assert abs(mc_mean - 1 / prob) < 3 * mc_err


def test_voting_params_validation():
    with pytest.raises(ValueError):
        voting.VotingParams(0, 0.1, 0)
    with pytest.raises(ValueError):
        voting.VotingParams(4, 1.2, 0)
    with pytest.raises(ValueError):
        voting.VotingParams(4, 0.1, -1)
    with pytest.raises(ValueError):
        voting.flip_prob_after(-1, 0.1)
