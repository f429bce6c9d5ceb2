"""Classical cellular-automaton engine.

Elementary nearest-neighbor rules on a periodic ring, the local majority
vote (rule 232), Toom-style two-line voting on a pair of coupled strings,
i.i.d. bit-flip noise, flip-time Monte Carlo, island-growth enumeration and
noiseless erosion analysis.

Monte Carlo trials run on the bit-packed kernels in :mod:`qcadc.packed`
with counter-based noise from :mod:`qcadc.rng`, so a trial's orbit depends
only on (seed, trial_index) and never on batching.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Union

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


RULE_232 = rule_from_wolfram(232)
RULE_184 = rule_from_wolfram(184)


def _as_cells(cells: Iterable[int] | np.ndarray | str) -> np.ndarray:
    if isinstance(cells, str):
        cells = [int(c) for c in cells]
    arr = np.asarray(cells, dtype=np.uint8)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("a configuration needs at least one cell")
    if np.any(arr > 1):
        raise ValueError("cell states must be 0 or 1")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class BitConfig:
    """A periodic ring of binary cells."""
    cells: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cells", _as_cells(self.cells))

    @classmethod
    def zeros(cls, n: int) -> "BitConfig":
        return cls(np.zeros(n, dtype=np.uint8))

    @classmethod
    def ones(cls, n: int) -> "BitConfig":
        return cls(np.ones(n, dtype=np.uint8))

    @property
    def n(self) -> int:
        return self.cells.size

    def complement(self) -> "BitConfig":
        return BitConfig(1 - self.cells)

    def ones_count(self) -> int:
        return int(self.cells.sum())

    def __eq__(self, other) -> bool:
        return isinstance(other, BitConfig) and np.array_equal(self.cells, other.cells)

    def __str__(self) -> str:
        return "".join("1" if c else "0" for c in self.cells)


@dataclass(frozen=True, eq=False)
class TlvConfig:
    """Two coupled strings of equal length; total cell count is even."""
    upper: BitConfig
    lower: BitConfig

    def __post_init__(self):
        if self.upper.n != self.lower.n:
            raise ValueError("upper and lower strings must have equal length")

    @classmethod
    def zeros(cls, n: int) -> "TlvConfig":
        if n % 2:
            raise ValueError("total cell count must be even")
        return cls(BitConfig.zeros(n // 2), BitConfig.zeros(n // 2))

    @property
    def n(self) -> int:
        return 2 * self.upper.n

    def complement(self) -> "TlvConfig":
        return TlvConfig(self.upper.complement(), self.lower.complement())

    def ones_count(self) -> int:
        return self.upper.ones_count() + self.lower.ones_count()

    def __eq__(self, other) -> bool:
        return (isinstance(other, TlvConfig)
                and self.upper == other.upper and self.lower == other.lower)

    def __str__(self) -> str:
        return f"{self.upper}|{self.lower}"


@dataclass(frozen=True)
class NoiseParams:
    """Per-cell per-step flip probability plus the keys of the noise stream."""
    p: float
    seed: int = 0
    trial_index: int = 0

    def __post_init__(self):
        if not 0.0 <= float(self.p) <= 1.0:
            raise ValueError(f"flip probability must lie in [0, 1], got {self.p}")


def step_elementary(config: BitConfig, rule: RuleTable) -> BitConfig:
    """Synchronous update of every cell from its (left, self, right) neighborhood."""
    cells = config.cells
    idx = (np.roll(cells, 1).astype(np.intp) << 2) | (cells.astype(np.intp) << 1) \
        | np.roll(cells, -1).astype(np.intp)
    table = np.array(rule.outputs, dtype=np.uint8)
    return BitConfig(table[idx])


def step_tlv(config: TlvConfig) -> TlvConfig:
    """Synchronous two-line-voting update of both strings.

    upper[i] <- maj(upper[i-1], upper[i-2], lower[i])
    lower[i] <- maj(lower[i+1], lower[i+2], upper[i])
    """
    u, l = config.upper.cells, config.lower.cells
    new_u = _maj3(np.roll(u, 1), np.roll(u, 2), l)
    new_l = _maj3(np.roll(l, -1), np.roll(l, -2), u)
    return TlvConfig(BitConfig(new_u), BitConfig(new_l))


def _maj3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (a & b) | (a & c) | (b & c)


def apply_bitflip_noise(config: BitConfig | TlvConfig, noise: NoiseParams,
                        step: int = 0) -> BitConfig | TlvConfig:
    """Flip each cell independently with probability p.

    Deterministic in (seed, trial_index, step).  For a TlvConfig the cells
    are numbered upper 0..m-1 then lower m..2m-1 within the noise stream.
    """
    trial = np.array([noise.trial_index], dtype=np.int64)
    if isinstance(config, TlvConfig):
        m = config.upper.n
        flips = rng.bernoulli_matrix(noise.seed, trial, step, 2 * m, float(noise.p))[0]
        return TlvConfig(
            BitConfig(config.upper.cells ^ flips[:m].astype(np.uint8)),
            BitConfig(config.lower.cells ^ flips[m:].astype(np.uint8)),
        )
    flips = rng.bernoulli_matrix(noise.seed, trial, step, config.n, float(noise.p))[0]
    return BitConfig(config.cells ^ flips.astype(np.uint8))


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------

def noisy_orbit(rule: RuleKind, n: int, p: float, steps: int, seed: int = 0,
                trial_index: int = 0,
                initial: BitConfig | TlvConfig | None = None) -> Iterator[BitConfig | TlvConfig]:
    """Yield the configuration after each noise-then-rule step, starting state first.

    The arguments are checked here, before the first state is yielded.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    noise = NoiseParams(p, seed, trial_index)
    if initial is None:
        initial = TlvConfig.zeros(n) if rule == "tlv" else BitConfig.zeros(n)
    table = None if rule == "tlv" else rule_from_wolfram(int(rule))
    return _orbit(initial, noise, table, steps)


def _orbit(state: BitConfig | TlvConfig, noise: NoiseParams, table: RuleTable | None,
           steps: int) -> Iterator[BitConfig | TlvConfig]:
    yield state
    for t in range(1, steps + 1):
        state = apply_bitflip_noise(state, noise, step=t)
        state = step_tlv(state) if table is None else step_elementary(state, table)
        yield state


def orbit_lines(orbit: Iterable[BitConfig | TlvConfig]) -> Iterator[str]:
    """Dump format: one '0'/'1' line per step; TLV rows as upper|lower."""
    for state in orbit:
        yield str(state)


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

    Rows of the still-running trials are compacted as trials flip, so each
    step hashes noise for exactly those trials.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {p}")
    least = 2 if rule == "tlv" else 1  # one cell per string for two-line voting
    if n < least:
        raise ValueError(f"the cell count n must be at least {least}, got {n}")
    trials = np.asarray(trial_indices, dtype=np.int64)
    result = np.full(trials.shape, -1, dtype=np.int64)
    active = np.arange(trials.size)  # positions in ``trials`` of the running trials
    live = trials                    # their trial indices

    if rule == "tlv":
        if n % 2:
            raise ValueError("two-line voting needs an even total cell count")
        m = n // 2

        def step(rows):
            return packed.step_tlv(rows, m)
    else:
        rule_bits = np.array(rule_from_wolfram(int(rule)).outputs, dtype=np.uint8)

        def step(rows):
            return packed.step_elementary(rows, n, rule_bits)
    rows = packed.zeros(trials.size, n)

    need = n // 2  # strict majority means ones > n/2
    for t in range(1, max_steps + 1):
        flips = rng.bernoulli_matrix(seed, live, t, n, p)
        rows ^= packed.pack_bits(flips)
        rows = step(rows)
        flipped = packed.popcount(rows) > need
        if flipped.any():
            result[active[flipped]] = t
            keep = ~flipped
            active, live, rows = active[keep], live[keep], rows[keep]
            if active.size == 0:
                break
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
    base = np.zeros(n, dtype=np.uint8)
    start = 4
    base[start:start + k] = 1
    flip_sites = [start - 2, start - 1, *range(start, start + k), start + k, start + k + 1]
    grow = shrink = neutral = 0
    for site in flip_sites:
        cfg = base.copy()
        cfg[site] ^= 1
        after = step_elementary(BitConfig(cfg), RULE_232).ones_count()
        if after > k:
            grow += 1
        elif after < k:
            shrink += 1
        else:
            neutral += 1
    return IslandGrowth(k, grow, shrink, neutral, Fraction(grow, len(flip_sites)))


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
    if n % 2 or n < 2:
        raise ValueError("total cell count must be even and positive")
    m = n // 2
    if diameter > m:
        raise ValueError("island does not fit in the lattice")
    row = np.zeros(m, dtype=np.uint8)
    row[:diameter] = 1
    state = TlvConfig(BitConfig(row), BitConfig.zeros(m))
    seen = set()
    t = 0
    while state.ones_count():
        key = str(state)
        if key in seen:
            raise NonErodingError(f"orbit cycles without eroding (diameter={diameter}, n={n})")
        seen.add(key)
        state = step_tlv(state)
        t += 1
    return t


def erosion_constant(max_diameter: int, n: int) -> int:
    """Smallest integer m with erosion_time(l) <= m*l for all 1 <= l <= max_diameter."""
    best = 1
    for l in range(1, max_diameter + 1):
        best = max(best, -(-erosion_time(l, n) // l))
    return best
