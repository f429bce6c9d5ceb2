"""Campaign orchestration: flip-time sweeps over (n, p) grids for the
classical and quantum backends, the closed-form flip-time fit, and
statistical backend comparisons.

A campaign is deterministic in its master seed: every grid point derives
its own stream seed from (master seed, grid index), so results do not
depend on worker count or evaluation order.
"""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import ca
from .circuits import NoiseModel, QcaStepper, trajectory_rng
from .rng import check_seed, derive_seed


@dataclass(frozen=True)
class FitParams:
    """Constants of the fitted flip-time law for two-line voting.

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


DEFAULT_FIT = FitParams()


def evaluate_fit(p: float, n: int, params: FitParams = DEFAULT_FIT) -> float:
    """Closed-form mean flip time estimate for two-line voting at (p, n)."""
    if not 0.0 < p < 1.0:
        raise ValueError("flip probability must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("need at least one cell")
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
        least = 4 if self.backend == "qca" else 1  # the step circuits need n >= 4
        for n, p in self.grid:
            if n < least:
                raise ValueError(f"the {self.backend} backend needs n >= {least}, got {n}")
            if self.backend == "qca" and n % 2:
                raise ValueError(f"quantum backend needs even n, got {n}")
            if self.scheme == "tlv" and n % 2:
                raise ValueError(f"two-line voting needs an even total cell count, got {n}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"flip probability {p} outside [0, 1]")


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

    @classmethod
    def from_stats(cls, scheme: str, backend: str, noise: str, n: int, p: float,
                   stats: ca.FlipTimeStats) -> "CampaignRow":
        """The row of one grid point (no readout delay) from its flip-time statistics."""
        return cls(scheme, backend, noise, n, p, 0, stats.trials, stats.max_steps_hit,
                   stats.mean, stats.stddev, stats.stderr, histogram=stats.histogram)


def point_seed(master_seed: int, index: int) -> int:
    """Stream seed for one grid point, independent of evaluation order."""
    return derive_seed(master_seed, index)


def _qca_flip_times(scheme: str, n: int, p: float, noise_kind: str, trials: int,
                    seed: int, max_steps: int, phi: float | None = None) -> np.ndarray:
    """Trajectory flip times (-1 when censored).

    The logical angle is ``phi`` when given, else drawn per trajectory as
    the first value of its stream.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    if phi is not None and not abs(phi) < math.pi / 4:
        raise ValueError("the logical angle must satisfy |phi| < pi/4")
    stepper = QcaStepper("q232" if scheme == "232" else "qtlv", n)
    noise = NoiseModel(noise_kind, p)
    times = np.empty(trials, dtype=np.int64)
    for k in range(trials):
        rng = trajectory_rng(seed, k)
        angle = rng.uniform(-math.pi / 4, math.pi / 4) if phi is None else phi
        t = stepper.run_trajectory(noise, angle, max_steps, rng)
        times[k] = -1 if t is None else t
    return times


def _evaluate_point(config: CampaignConfig, index: int) -> CampaignRow:
    n, p = config.grid[index]
    seed = point_seed(config.seed, index)
    try:
        if config.backend == "ca":
            rule: ca.RuleKind = "tlv" if config.scheme == "tlv" else 232
            stats = ca.flip_time_stats(n, rule, p, config.trials, seed, config.max_steps)
        else:
            times = _qca_flip_times(config.scheme, n, p, config.noise, config.trials,
                                    seed, config.max_steps)
            stats = ca.summarize_flip_times(times)
    except Exception as exc:  # recorded in-row; the campaign continues
        return CampaignRow(config.scheme, config.backend, config.noise, n, p, 0,
                           config.trials, None, None, None, None,
                           error=f"{type(exc).__name__}: {exc}")
    return CampaignRow.from_stats(config.scheme, config.backend, config.noise, n, p, stats)


def default_workers() -> int:
    value = os.environ.get("QCADC_WORKERS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def run_campaign(config: CampaignConfig, workers: int | None = None) -> list[CampaignRow]:
    """One row per grid point, ordered by grid index; deterministic in the seed."""
    workers = default_workers() if workers is None else max(1, workers)
    indices = range(len(config.grid))
    if workers == 1 or len(config.grid) <= 1:
        return [_evaluate_point(config, i) for i in indices]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_evaluate_point, [config] * len(config.grid), indices))


# ---------------------------------------------------------------------------
# Comparisons and serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    z_score: float
    passed: bool


def compare_backends(row_a: CampaignRow, row_b: CampaignRow,
                     threshold: float = 3.0) -> Comparison:
    """Two-sample z test on the means; passes when |z| < threshold."""
    if row_a.mean is None or row_b.mean is None:
        raise ValueError("cannot compare failed campaign rows")
    spread = math.hypot(row_a.stderr, row_b.stderr)
    if spread == 0.0:
        same = row_a.mean == row_b.mean
        return Comparison(0.0 if same else math.inf, same)
    z = abs(row_a.mean - row_b.mean) / spread
    return Comparison(z, z < threshold)


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


def rows_to_json(rows: list[CampaignRow], config: CampaignConfig | None = None) -> str:
    payload: dict = {
        "rows": [
            {**{col: getattr(row, col) for col in CSV_COLUMNS},
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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

