"""Closed-form global-majority-voting baseline (classical repetition code).

The whole lattice is read out and overwritten with its majority state once
per update period of 1+delta CA steps, while each cell flips independently
with probability p per step.  Everything reduces to three closed forms:
the per-cell flip probability after t steps, the logical flip probability
per update (even cell counts resolve ties to a flip with probability 1/2),
and the geometric-distribution mean flip time 1/P.

All three work with exact Fractions as well as floats; exact tails are
one pass of integer arithmetic, and float tails are summed in log space,
so large lattices stay overflow-safe.  The float path loses a P below the
normal float range: it rounds to a subnormal or to 0.0 (n = 10^4, p = 0.1,
where the exact P is about 1.6e-2221), and its flip time 1/P to inf.
Fraction inputs stay exact at any size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


@dataclass(frozen=True)
class VotingParams:
    """Lattice size, per-step flip probability and readout delay."""
    n: int
    p: float | Fraction
    delta: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one cell")
        if not 0 <= self.p <= 1:
            raise ValueError("flip probability must lie in [0, 1]")
        if self.delta < 0:
            raise ValueError("delay must be non-negative")


@dataclass(frozen=True)
class VotingFlipTime:
    """Mean flip time in update periods (1/P) and in CA steps ((1+delta)/P)."""
    probability: float | Fraction
    periods: float | Fraction
    steps: float | Fraction


def flip_prob_after(t: int, p):
    """Probability that a cell has flipped an odd number of times after t steps.

    Equals (1 - (1-2p)^t) / 2; exact when p is a Fraction.
    """
    if t < 0:
        raise ValueError("step count must be non-negative")
    one = Fraction(1) if isinstance(p, Rational) else 1.0
    return (one - (one - 2 * p) ** t) / 2


def logical_flip_prob(n: int, t: int, p):
    """Probability that the update after t noise steps reads out the wrong majority.

    Binomial tail P[X > n/2] for X ~ Bin(n, p(t)), plus half the tie mass
    for even n, with p(t) in {0, 1} returned exactly.  Exact for Fraction p,
    in one pass over integers: with p(t) = a/d and b = d - a, the term
    d^n P[X = j] = C(n, j) a^j b^(n-j) is found from the one above it by an
    exact division.  Otherwise a ``math.fsum`` of binomial terms evaluated
    in log space (overflow-safe for n ~ 10^3 and beyond).
    """
    if n < 1:
        raise ValueError("need at least one cell")
    pt = flip_prob_after(t, p)
    if isinstance(pt, Rational):
        a, d = pt.numerator, pt.denominator
        b = d - a
        if a == 0 or b == 0:
            return pt  # the majority is certain, as below
        term, tail = a**n, 0  # term = d^n P[X = j], from j = n down
        for j in range(n, n // 2, -1):
            tail += term
            term = term * j * b // ((n - j + 1) * a)
        tie = term if n % 2 == 0 else 0  # d^n P[X = n/2]
        return Fraction(2 * tail + tie, 2 * d**n)
    pt = float(pt)
    if pt in (0.0, 1.0):
        return pt  # no cell flips, or every cell does: the majority is certain
    log_p, log_q, log_n = math.log(pt), math.log1p(-pt), math.lgamma(n + 1)

    def term(j: int) -> float:
        """P[X = j]."""
        return math.exp(log_n - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * log_p + (n - j) * log_q)

    terms = [term(j) for j in range(n // 2 + 1, n + 1)]
    if n % 2 == 0:
        terms.append(0.5 * term(n // 2))
    return math.fsum(terms)


def mean_flip_time(params: VotingParams) -> VotingFlipTime:
    """Mean flip time of the periodically corrected lattice.

    The per-update logical flip is a Bernoulli(P(1+delta)) event, so the
    flip time is geometric with mean 1/P update periods; multiplying by
    the period length converts to CA steps.
    """
    period = 1 + params.delta
    prob = logical_flip_prob(params.n, period, params.p)
    if prob == 0:
        return VotingFlipTime(prob, math.inf, math.inf)
    one = Fraction(1) if isinstance(prob, Rational) else 1.0
    periods = one / prob
    return VotingFlipTime(prob, periods, period * periods)
