"""Campaign orchestration: flip-time sweeps over (n, p) grids for the
classical and quantum backends, the closed-form flip-time fit at its
published constants, and statistical backend comparisons.

A campaign is deterministic in its master seed: every grid point derives
its own stream seed from (master seed, grid index), and ``point_row``
computes one point's row, for campaigns and single-point commands alike.
``CampaignConfig`` checks each point with the engine's own rules on n and
p, so a bad grid is refused before any point runs.

``qca_flip_times`` picks the engine for QCA trajectories: incoherent and
noiseless trajectory k is trial k of the classical flip-time Monte Carlo
at the same seed, on the same counter-hash noise; coherent and
depolarizing runs step the quantum state on one RNG stream per trajectory.
Both reach their flip times through ``ca.flip_times``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import ca
from .circuits import NoiseModel, QcaStepper, check_cell_count, trajectory_rng
from .rng import check_seed, derive_seed


@dataclass(frozen=True)
class FitParams:
    """The published constants of the fitted flip-time law for two-line voting.

    mean = 2 ** (c0 + [a1 + b1 e^{k1 n} + (a2 + b2 e^{k2 n}) tanh(s (1/p - x0))] log2(1/p)^2)
    """
    c0: float = 1.5
    a1: float = 0.71
    b1: float = -0.36
    k1: float = -0.036
    a2: float = 0.53
    b2: float = -0.72
    k2: float = -0.04
    s: float = 0.136
    x0: float = 9.3


def evaluate_fit(p: float, n: int) -> float:
    """Closed-form mean flip time estimate for two-line voting at (p, n)."""
    if not 0.0 < p < 1.0:
        raise ValueError("flip probability must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("need at least one cell")
    params = FitParams()
    f1 = params.a1 + params.b1 * math.exp(params.k1 * n)
    f2 = params.a2 + params.b2 * math.exp(params.k2 * n)
    log2_inv_p = math.log2(1.0 / p)
    exponent = params.c0 + (f1 + f2 * math.tanh(params.s * (1.0 / p - params.x0))) * log2_inv_p**2
    return 2.0**exponent


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("scheme", "backend", "noise", "n", "p", "delta",
               "trials", "censored", "mean", "stddev", "stderr")


@dataclass(frozen=True)
class CampaignConfig:
    backend: str                      # "ca" | "qca"
    scheme: str                       # "232" | "tlv"
    grid: tuple[tuple[int, float], ...]
    noise: str = "bitflip"            # ca: bitflip; qca: incoherent | coherent | depolarizing
    trials: int = 1000
    seed: int = 0
    max_steps: int = 1_000_000
    output: str | None = None

    def __post_init__(self):
        if self.backend not in ("ca", "qca"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.scheme not in ("232", "tlv"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.backend == "ca" and self.noise != "bitflip":
            raise ValueError("the classical backend only supports bit-flip noise")
        if self.backend == "qca" and self.noise not in ("incoherent", "coherent", "depolarizing"):
            raise ValueError(f"unknown quantum noise kind {self.noise!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        check_seed(self.seed)
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        for n, p in self.grid:  # the checks each point's engine makes when it runs
            if self.backend == "ca":
                ca._rule_step("tlv" if self.scheme == "tlv" else int(self.scheme), n, p)
            else:
                check_cell_count(n)
                NoiseModel(self.noise, p)


@dataclass(frozen=True)
class CampaignRow:
    scheme: str
    backend: str
    noise: str
    n: int
    p: float
    delta: int
    trials: int
    censored: int | None
    mean: float | None
    stddev: float | None
    stderr: float | None
    histogram: dict[int, int] = field(default_factory=dict, repr=False)
    error: str | None = None


def point_seed(master_seed: int, index: int) -> int:
    """Stream seed for one grid point, independent of evaluation order."""
    return derive_seed(master_seed, index)


def qca_flip_times(scheme: str, n: int, p: float, noise_kind: str, trials: int,
                   seed: int, max_steps: int, phi: float | None = None) -> np.ndarray:
    """Flip step of each trajectory k < trials of ``scheme`` ("232" or "tlv"), -1 if
    censored.  Bit flips and the self-dual rule M keep the state a pair
    a|b> + c|~b>, |a| > |c|, whose terms share the reset outcome b ^ M(b), so
    sum<Z> < 0 exactly when M(b) has a strict majority of 1s: at any angle,
    incoherent and noiseless (p = 0) trajectory k is trial k of the flip-time
    Monte Carlo at ``seed``.  Coherent and depolarizing trajectory k steps the
    quantum state on ``trajectory_rng(seed, k)`` from the logical angle ``phi``
    or the stream's first draw, until sum<Z> < 0.  Those trajectories run
    through ``ca.flip_times`` too, interleaved step by step in groups of the
    stepper's ``group_size``; each draws only from its own stream, so the
    interleaving changes no draw.
    """
    if max_steps <= 0:  # before a stepper builds its tables
        raise ValueError("max_steps must be positive")
    if trials < 0:
        raise ValueError(f"the trajectory count must be non-negative, got {trials}")
    check_seed(seed)
    if phi is not None and not abs(phi) < math.pi / 4:
        raise ValueError("the logical angle must satisfy |phi| < pi/4")
    if scheme not in ("232", "tlv"):
        raise ValueError(f"scheme must be '232' or 'tlv', got {scheme!r}")
    check_cell_count(n)
    noise = NoiseModel(noise_kind, p)
    if noise.kind in ("none", "incoherent"):
        return ca._batch_flip_times(n, 232 if scheme == "232" else "tlv",
                                    noise.p if noise.kind == "incoherent" else 0.0,
                                    seed, np.arange(trials), max_steps)
    stepper = QcaStepper("q232" if scheme == "232" else "qtlv", n, noise)

    def start(group: np.ndarray) -> np.ndarray:
        """One row per trajectory: its state and its stream, whose first draw is phi."""
        rows = np.empty((group.size, 2), dtype=object)
        for row, k in zip(rows, group.tolist()):
            rng = trajectory_rng(seed, k)
            angle = rng.uniform(-math.pi / 4, math.pi / 4) if phi is None else phi
            row[:] = stepper.initial_state(angle), rng
        return rows

    def step(rows: np.ndarray, live: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
        zsums = [stepper.step_with_zsum(state, t, rng) for state, rng in rows]
        return rows, np.array(zsums) < 0.0

    times = np.empty(trials, dtype=np.int64)
    for first in range(0, trials, stepper.group_size):
        group = np.arange(first, min(first + stepper.group_size, trials))
        times[group] = ca.flip_times(group, max_steps, start(group), step)
    return times


def point_row(backend: str, scheme: str, noise: str, n: int, p: float, trials: int,
              seed: int, max_steps: int, phi: float | None = None) -> CampaignRow:
    """The result row of one (n, p) point; ``scheme`` is "tlv" or a Wolfram code on
    "ca", and "232" or "tlv" on "qca" with ``noise`` and ``phi`` as in qca_flip_times."""
    if backend == "ca":
        rule: ca.RuleKind = "tlv" if scheme == "tlv" else int(scheme)
        stats = ca.flip_time_stats(n, rule, p, trials, seed, max_steps)
    else:
        stats = ca.summarize_flip_times(
            qca_flip_times(scheme, n, p, noise, trials, seed, max_steps, phi))
    return CampaignRow(scheme, backend, noise, n, p, 0, stats.trials, stats.max_steps_hit,
                       stats.mean, stats.stddev, stats.stderr, histogram=stats.histogram)


def run_campaign(config: CampaignConfig) -> list[CampaignRow]:
    """One row per grid point, in grid order, deterministic in the seed; a point
    whose evaluation raises gets a row carrying the error, and the campaign goes on."""
    rows = []
    for index, (n, p) in enumerate(config.grid):
        try:
            row = point_row(config.backend, config.scheme, config.noise, n, p, config.trials,
                            point_seed(config.seed, index), config.max_steps)
        except Exception as exc:
            row = CampaignRow(config.scheme, config.backend, config.noise, n, p, 0,
                              config.trials, None, None, None, None,
                              error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Comparisons and serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    z_score: float
    passed: bool


Z_THRESHOLD = 3.0


def compare_backends(row_a: CampaignRow, row_b: CampaignRow) -> Comparison:
    """Two-sample z test on the means; passes when |z| < Z_THRESHOLD."""
    if row_a.mean is None or row_b.mean is None:
        raise ValueError("cannot compare failed campaign rows")
    if math.isnan(row_a.mean) or math.isnan(row_b.mean):
        raise ValueError("cannot compare a row with no observed flip")
    spread = math.hypot(row_a.stderr, row_b.stderr)
    if spread == 0.0:
        same = row_a.mean == row_b.mean
        return Comparison(0.0 if same else math.inf, same)
    z = abs(row_a.mean - row_b.mean) / spread
    return Comparison(z, z < Z_THRESHOLD)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def rows_to_csv(rows: list[CampaignRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def finite_or_none(value):
    """A value for strict JSON: null in place of a NaN or infinite float."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def rows_to_json(rows: list[CampaignRow], config: CampaignConfig | None = None) -> str:
    """Rows (and the config) as strict JSON; a NaN statistic, as in a fully censored row, is null."""
    payload: dict = {
        "rows": [
            {**{col: finite_or_none(getattr(row, col)) for col in CSV_COLUMNS},
             "histogram": {str(k): v for k, v in sorted(row.histogram.items())},
             "error": row.error}
            for row in rows
        ],
    }
    if config is not None:
        payload["config"] = {
            "backend": config.backend, "scheme": config.scheme,
            "grid": [list(point) for point in config.grid],
            "noise": config.noise, "trials": config.trials,
            "master_seed": config.seed, "max_steps": config.max_steps,
        }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"

