"""Layer spans recorded from outside the qcadc package.

The tracer replaces each traced function with a wrapper at the place its
callers look it up: ``ca`` calls ``rng.*`` and ``packed.*`` through module
attributes, ``circuits`` binds the qsim functions into its own namespace
at import, ``cli`` reaches ``experiments`` and ``heisenberg`` through
module attributes, and ``heisenberg`` calls its own helpers as module
globals.  Calls that qsim makes to ``apply_gate`` internally (the RX
rotations of coherent noise, the Pauli kicks of depolarizing noise) are
not wrapped, so they count in their caller's self time, and
``qsim.apply_gate.calls`` counts only the gates of the step circuit.

Spans nest: each records its name, start, end and the span open when it
began.  A span's self time is its duration minus its children's.

Which end-to-end metric each layer metric should move, and where:

=====================================================  ==============================
``rng.bernoulli_matrix``, ``rng.cells_hashed``         wall_s, work_per_s on ca-232-wide, ca-tlv-tail
``packed.step_tlv/pack_bits/popcount``, rows_per_call  wall_s, work_per_s on ca-tlv-tail only
``packed.step_elementary``                             wall_s on ca-232-wide
``ca.flip_time_stats`` (loop, XOR, compaction)         wall_s on ca-tlv-tail
``qsim.apply_phenom_coherent``, live_amp_fraction      wall_s, peak_rss_mb on qca-coherent
``circuits.QcaStepper.step_with_zsum``, step p50/p99   wall_s on qca-coherent, qca-depolarizing
``qsim.apply_gate``, depolarizing kicks, measure/Z     wall_s on qca-depolarizing
``experiments``/``cli`` self time                      stays near 0 on every campaign
``heisenberg.*``                                       wall_s, peak_rss_mb on heisenberg-check
=====================================================  ==============================
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path

# (span name, module the callers look the name up in, attribute path)
SPANS = (
    ("cli.main", "qcadc.cli", "main"),
    ("experiments.run_campaign", "qcadc.experiments", "run_campaign"),
    ("ca.flip_time_stats", "qcadc.ca", "flip_time_stats"),
    ("rng.bernoulli_matrix", "qcadc.rng", "bernoulli_matrix"),
    ("packed.pack_bits", "qcadc.packed", "pack_bits"),
    ("packed.popcount", "qcadc.packed", "popcount"),
    ("packed.step_tlv", "qcadc.packed", "step_tlv"),
    ("packed.step_elementary", "qcadc.packed", "step_elementary"),
    ("circuits.QcaStepper.step_with_zsum", "qcadc.circuits", "QcaStepper.step_with_zsum"),
    ("qsim.apply_gate", "qcadc.circuits", "apply_gate"),
    ("qsim.apply_depolarizing_after_gate", "qcadc.circuits", "apply_depolarizing_after_gate"),
    ("qsim.apply_phenom_coherent", "qcadc.circuits", "apply_phenom_coherent"),
    ("qsim.measure_reset", "qcadc.circuits", "measure_reset"),
    ("qsim.expectation_z_sum", "qcadc.circuits", "expectation_z_sum"),
    ("heisenberg.heisenberg_report", "qcadc.heisenberg", "heisenberg_report"),
    ("heisenberg.build_window_unitary", "qcadc.heisenberg", "build_window_unitary"),
    ("heisenberg.conjugate_pauli", "qcadc.heisenberg", "conjugate_pauli"),
    ("heisenberg.projector_expansion", "qcadc.heisenberg", "projector_expansion"),
    ("heisenberg.compose_expansions", "qcadc.heisenberg", "compose_expansions"),
)
# Counted without a span: a kick is the Pauli string applied after a gate.
KICKS = ("qcadc.qsim", "apply_pauli_string")
STEP = "circuits.QcaStepper.step_with_zsum"
PROBE = "trace.probe"  # instrumentation work, kept out of every layer's self time

# Per-layer metrics: (name, unit, better).  The trace.* pair is filled in by
# the orchestrator from the traced and untraced wall times.
LAYER_METRICS = (
    *((f"{name}.self_s", "s", "lower") for name, _, _ in SPANS),
    ("rng.cells_hashed", "count", "lower"),
    ("packed.rows_per_call", "rows", "higher"),
    ("ca.trial_steps", "count", "higher"),
    (f"{STEP}.calls", "count", "lower"),
    ("circuits.step.p50_ms", "ms", "lower"),
    ("circuits.step.p99_ms", "ms", "lower"),
    ("circuits.live_amp_fraction", "ratio", "higher"),
    ("circuits.state_bytes", "bytes", "lower"),
    ("qsim.apply_gate.calls", "count", "lower"),
    ("qsim.pauli_kicks", "count", "lower"),
    ("experiments.censored_fraction", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_fraction", "ratio", "lower"),
)


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Records nested spans and counters while installed; restore() undoes the patches."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        return index, parent

    def _exit(self, name: str, index: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._open.pop()
        self.spans[index] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        count = self._COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            index, parent = self._enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, index, parent, start)
                if count is not None:
                    count(self, args)
        return wrapper

    def _count_kick(self, fn):
        def wrapper(*args, **kwargs):
            self.counters["qsim.pauli_kicks"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # Counters taken at the span boundaries, from the call's arguments.
    def _count_noise(self, args) -> None:
        trials, n_cells = len(args[1]), args[3]
        self.counters["rng.cells_hashed"] += trials * n_cells
        self.counters["ca.trial_steps"] += trials  # one row per active trial per step

    def _count_rows(self, args) -> None:
        self.counters["packed.rows"] += args[0].shape[0]
        self.counters["packed.kernel_calls"] += 1

    def _probe_state(self, args) -> None:
        index, parent = self._enter()
        start = time.perf_counter()
        amps = args[1].amps
        self.counters["circuits.live_amps"] += int((amps != 0).sum())
        self.counters["circuits.stored_amps"] += amps.size
        self.counters["circuits.state_bytes"] = max(self.counters["circuits.state_bytes"],
                                                    amps.nbytes)
        self._exit(PROBE, index, parent, start)

    _COUNTERS = {
        "rng.bernoulli_matrix": _count_noise,
        "packed.step_tlv": _count_rows,
        "packed.step_elementary": _count_rows,
        STEP: _probe_state,
    }

    def install(self) -> None:
        for name, module, path in SPANS:
            owner, leaf = _owner(module, path)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))
        owner, leaf = _owner(*KICKS)
        original = getattr(owner, leaf)
        self._saved.append((owner, leaf, original))
        setattr(owner, leaf, self._count_kick(original))

    def restore(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def write(self, path: Path) -> None:
        """Dump the spans as [name, start, end, parent index] rows."""
        path.write_text(json.dumps({"spans": self.spans}))

    def layer_metrics(self) -> dict[str, float]:
        """Self time per span name plus the counters, for every traced layer."""
        metrics = {f"{name}.self_s": value for name, value in self_times(self.spans).items()
                   if name != PROBE}
        steps = sorted(end - start for name, start, end, _ in self.spans if name == STEP)
        c = self.counters
        metrics.update({
            "rng.cells_hashed": c["rng.cells_hashed"],
            "packed.rows_per_call": c["packed.rows"] / max(c["packed.kernel_calls"], 1),
            "ca.trial_steps": c["ca.trial_steps"],
            f"{STEP}.calls": len(steps),
            "circuits.step.p50_ms": 1e3 * percentile(steps, 50),
            "circuits.step.p99_ms": 1e3 * percentile(steps, 99),
            "circuits.live_amp_fraction": c["circuits.live_amps"] / max(c["circuits.stored_amps"], 1),
            "circuits.state_bytes": c["circuits.state_bytes"],
            "qsim.apply_gate.calls": sum(1 for s in self.spans if s[0] == "qsim.apply_gate"),
            "qsim.pauli_kicks": c["qsim.pauli_kicks"],
        })
        return metrics


def self_times(spans) -> dict[str, float]:
    """Per-name total of span duration minus the durations of its direct children."""
    out = {name: 0.0 for name, _, _ in SPANS}
    for name, start, end, parent in spans:
        out[name] = out.get(name, 0.0) + (end - start)
        if parent >= 0:
            out[spans[parent][0]] -= end - start
    return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[int(rank) - 1]
