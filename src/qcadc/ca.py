"""Classical cellular-automaton engine.

Elementary nearest-neighbor rules on a periodic ring, the local majority
vote (rule 232), Toom-style two-line voting on a pair of coupled strings,
i.i.d. bit-flip noise, noisy orbits, flip-time Monte Carlo, island-growth
enumeration and noiseless erosion analysis.

Every step runs on the bit-packed kernels in :mod:`qcadc.packed`, chosen
by ``_rule_step``, with counter-based noise from :mod:`qcadc.rng`, so a
trial's orbit depends only on (seed, trial_index) and never on batching.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Union

import numpy as np

from . import packed, rng

RuleKind = Union[int, str]  # a Wolfram code, or "tlv"

_NEIGHBORHOOD_ORDER = ((1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 0, 0),
                       (0, 1, 1), (0, 1, 0), (0, 0, 1), (0, 0, 0))


@dataclass(frozen=True, eq=False)
class RuleTable:
    """An elementary CA rule in Wolfram numbering.

    ``outputs[b]`` is the update for the neighborhood (left, self, right)
    read as the binary number b, so code 30 lists 00011110 over the
    neighborhoods 111, 110, ..., 000.
    """
    wolfram_code: int
    outputs: tuple[int, ...]

    def __call__(self, left: int, center: int, right: int) -> int:
        return self.outputs[(left << 2) | (center << 1) | right]

    def table(self) -> dict[tuple[int, int, int], int]:
        return {nbhd: self.outputs[(nbhd[0] << 2) | (nbhd[1] << 1) | nbhd[2]]
                for nbhd in _NEIGHBORHOOD_ORDER}


def rule_from_wolfram(code: int) -> RuleTable:
    """Build the lookup table for an elementary rule code (0-255)."""
    if not 0 <= code <= 255:
        raise ValueError(f"Wolfram code must be in 0..255, got {code}")
    return RuleTable(code, tuple((code >> b) & 1 for b in range(8)))


def _rule_step(rule: RuleKind, n: int, p: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    """The packed kernel for ``rule`` on n cells: rows of ``packed`` words in, stepped rows out.

    Every classical caller gets its kernel here, so the checks on the flip
    probability and the lattice size are made in one place.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {p}")
    least = 2 if rule == "tlv" else 1  # one cell per string for two-line voting
    if n < least:
        raise ValueError(f"the cell count n must be at least {least}, got {n}")
    if rule == "tlv":
        if n % 2:
            raise ValueError(f"two-line voting needs an even total cell count, got {n}")
        m = n // 2
        return lambda rows: packed.step_tlv(rows, m)
    rule_bits = np.array(rule_from_wolfram(int(rule)).outputs, dtype=np.uint8)
    return lambda rows: packed.step_elementary(rows, n, rule_bits)


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------

def noisy_orbit(rule: RuleKind, n: int, p: float, steps: int, seed: int = 0,
                trial_index: int = 0) -> Iterator[np.ndarray]:
    """Yield the n cells (TLV: upper string, then lower) after each
    noise-then-rule step from all-0, starting state first.

    The noise is trial ``trial_index``'s row of the flip-time Monte Carlo
    stream, so up to its flip time the orbit is the one that trial follows.
    The arguments are checked here, before the first state is yielded.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    rng.check_seed(seed, trial_index)
    step = _rule_step(rule, n, p)
    trial = np.array([trial_index], dtype=np.int64)

    def states() -> Iterator[np.ndarray]:
        row = packed.zeros(1, n)
        yield packed.unpack_bits(row, n)[0]
        for t in range(1, steps + 1):
            row = step(row ^ rng.bernoulli_matrix(seed, trial, t, n, p))
            yield packed.unpack_bits(row, n)[0]
    return states()


def orbit_lines(rule: RuleKind, orbit: Iterable[np.ndarray]) -> Iterator[str]:
    """Dump format: one '0'/'1' line per step; TLV rows as upper|lower."""
    for cells in orbit:
        line = (cells + ord("0")).tobytes().decode("ascii")
        if rule == "tlv":
            m = len(line) // 2
            line = f"{line[:m]}|{line[m:]}"
        yield line


# ---------------------------------------------------------------------------
# Flip-time Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlipTimeStats:
    """Aggregate of flip-time trials; censored runs never enter the moments."""
    samples: int
    mean: float
    stddev: float
    stderr: float
    histogram: dict[int, int] = field(repr=False)
    max_steps_hit: int = 0

    @property
    def trials(self) -> int:
        return self.samples + self.max_steps_hit


def _batch_flip_times(n: int, rule: RuleKind, p: float, seed: int,
                      trial_indices: np.ndarray, max_steps: int) -> np.ndarray:
    """Flip step per trial (first step whose post-update majority is 1), -1 if censored.

    Rows of the still-running trials ``live`` are compacted as trials flip, so
    each step hashes flips for exactly those.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    step = _rule_step(rule, n, p)
    trials = np.asarray(trial_indices, dtype=np.int64)
    rng.check_seed(seed, int(trials.min(initial=0)))
    result = np.full(trials.shape, -1, dtype=np.int64)
    active = np.arange(trials.size)  # positions in ``trials`` of the running trials
    live = trials                    # their trial indices
    rows = packed.zeros(trials.size, n)

    need = n // 2  # strict majority means ones > n/2
    for t in range(1, max_steps + 1):
        if active.size == 0:
            break
        rows ^= rng.bernoulli_matrix(seed, live, t, n, p)
        rows = step(rows)
        flipped = packed.popcount(rows) > need
        if flipped.any():
            result[active[flipped]] = t
            keep = ~flipped
            active, live, rows = active[keep], live[keep], rows[keep]
    return result


def flip_time_trial(n: int, rule: RuleKind, p: float, seed: int,
                    trial_index: int = 0, max_steps: int = 1_000_000) -> int | None:
    """First step t >= 1 at which a strict majority of cells is 1, or None if censored.

    The trial starts from the all-0 configuration; each step applies noise
    and then the rule, and the majority test runs on the post-update state.
    """
    t = _batch_flip_times(n, rule, p, seed, np.array([trial_index]), max_steps)[0]
    return None if t < 0 else int(t)


def flip_time_stats(n: int, rule: RuleKind, p: float, trials: int, seed: int,
                    max_steps: int = 1_000_000) -> FlipTimeStats:
    """Aggregate flip_time_trial over trial_index = 0..trials-1."""
    if trials < 1:
        raise ValueError("need at least one trial")
    times = _batch_flip_times(n, rule, p, seed, np.arange(trials), max_steps)
    return summarize_flip_times(times)


def summarize_flip_times(times: np.ndarray) -> FlipTimeStats:
    """Build FlipTimeStats from an array of flip steps (-1 marking censored trials)."""
    times = np.asarray(times, dtype=np.int64)
    censored = int((times < 0).sum())
    observed = times[times >= 0]
    if observed.size == 0:
        return FlipTimeStats(0, math.nan, math.nan, math.nan, {}, censored)
    mean = float(observed.mean())
    stddev = float(observed.std(ddof=1)) if observed.size > 1 else 0.0
    stderr = stddev / math.sqrt(observed.size)
    values, counts = np.unique(observed, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(values, counts)}
    return FlipTimeStats(int(observed.size), mean, stddev, stderr, hist, censored)


# ---------------------------------------------------------------------------
# Island growth under rule 232
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IslandGrowth:
    """Single-flip enumeration around a k-cell island of 1s."""
    island_size: int
    grow_ways: int
    shrink_ways: int
    neutral_ways: int
    growth_probability: Fraction


def island_growth_enumeration(k: int) -> IslandGrowth:
    """Classify every single flip in and next to a k-cell island after one
    rule-232 step.

    Flip sites are the k island cells plus the two neighbors and the two
    next-neighbors of the island (k + 4 sites).  The growth probability is
    the fraction of sites whose flip leaves more 1s than before.
    """
    if k < 2:
        raise ValueError("island analysis needs k >= 2; sole errors are simply eroded")
    n = k + 10  # wide enough that wraparound never reaches the island
    start = 4
    sites = np.arange(start - 2, start + k + 2)
    cells = np.zeros((sites.size, n), dtype=np.uint8)  # one row per flipped site
    cells[:, start:start + k] = 1
    cells[np.arange(sites.size), sites] ^= 1
    after = packed.popcount(_rule_step(232, n)(packed.pack_bits(cells)))
    grow, shrink = int((after > k).sum()), int((after < k).sum())
    return IslandGrowth(k, grow, shrink, sites.size - grow - shrink,
                        Fraction(grow, sites.size))


# ---------------------------------------------------------------------------
# Noiseless erosion (two-line voting)
# ---------------------------------------------------------------------------

class NonErodingError(Exception):
    """The noiseless orbit reached a cycle or fixed point other than all-0."""


def erosion_time(diameter: int, n: int) -> int:
    """Steps until a diameter-l island erodes to all-0 under two-line voting.

    The island occupies cells 0..l-1 of the upper string in an otherwise
    all-0 lattice of n total cells.  (A block on both strings splits into
    two counter-propagating fronts and needs a lattice of 4l cells per
    string to erode before they rejoin.)  Raises NonErodingError when the
    orbit revisits a configuration without ever reaching all-0.
    """
    if diameter < 0:
        raise ValueError("island diameter must be non-negative")
    step = _rule_step("tlv", n)
    if diameter > n // 2:
        raise ValueError("island does not fit in the lattice")
    cells = np.zeros((1, n), dtype=np.uint8)
    cells[0, :diameter] = 1
    row = packed.pack_bits(cells)
    seen = set()
    t = 0
    while row.any():
        key = row.tobytes()
        if key in seen:
            raise NonErodingError(f"orbit cycles without eroding (diameter={diameter}, n={n})")
        seen.add(key)
        row = step(row)
        t += 1
    return t


def erosion_constant(max_diameter: int, n: int) -> int:
    """Smallest integer m with erosion_time(l) <= m*l for all 1 <= l <= max_diameter."""
    best = 1
    for l in range(1, max_diameter + 1):
        best = max(best, -(-erosion_time(l, n) // l))
    return best
