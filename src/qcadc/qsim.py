"""Statevector quantum-trajectory simulator.

Pure states only: noise channels are unravelled by sampling (bit flips and
depolarizing Pauli strings) or applied as the fixed unitary they are
(coherent X rotations).  Gates act in place through axis views of the
amplitude tensor; qubit 0 is the least-significant bit of the basis index.

Ensemble statistics come from averaging many trajectories with independent
RNG streams; a density-matrix simulator is deliberately out of scope (a
tiny exact-channel oracle lives in the test suite instead).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2_INV = 1.0 / math.sqrt(2.0)
T_PHASE = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))

GATE_KINDS = ("X", "Y", "Z", "H", "T", "TDG", "RX", "CNOT", "TOFFOLI")


@dataclass(frozen=True)
class Gate:
    """A gate from the simulator's small basis set.

    kind: one of X, Y, Z, H, T, TDG, RX (angle theta), CNOT (control,
    target), TOFFOLI (control, control, target).  RX(theta) is
    exp(+i theta/2 X), so RX on |0> gives cos(theta/2)|0> + i sin(theta/2)|1>.
    """
    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        expected = {"CNOT": 2, "TOFFOLI": 3}.get(self.kind, 1)
        if len(self.qubits) != expected:
            raise ValueError(f"{self.kind} acts on {expected} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in gate support {self.qubits}")
        if (self.kind == "RX") != (self.theta is not None):
            raise ValueError("theta is required for RX and only for RX")


class StateVector:
    """Normalized amplitudes over 2^m basis states, little-endian qubit order."""

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps: np.ndarray | None = None):
        self.num_qubits = num_qubits
        if amps is None:
            amps = np.zeros(1 << num_qubits, dtype=np.complex128)
            amps[0] = 1.0
        else:
            amps = np.asarray(amps, dtype=np.complex128)
            if amps.shape != (1 << num_qubits,):
                raise ValueError("amplitude array has the wrong length")
        self.amps = amps

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def _axes_view(self, qubits: tuple[int, ...]) -> np.ndarray:
        """View with the given qubits as the leading axes (no copy)."""
        full = self.amps.reshape((2,) * self.num_qubits)
        src = [self.num_qubits - 1 - q for q in qubits]
        return np.moveaxis(full, src, range(len(qubits)))


def _swap_halves(view: np.ndarray) -> None:
    tmp = view[0].copy()
    view[0] = view[1]
    view[1] = tmp


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply a gate in place and return the state."""
    kind = gate.kind
    if kind in ("CNOT", "TOFFOLI"):
        view = state._axes_view(gate.qubits)
        _swap_halves(view[(1,) * (len(gate.qubits) - 1)])
        return state
    v = state._axes_view(gate.qubits)
    if kind == "X":
        _swap_halves(v)
    elif kind == "Y":
        tmp = v[0].copy()
        v[0] = -1j * v[1]
        v[1] = 1j * tmp
    elif kind == "Z":
        v[1] *= -1.0
    elif kind == "H":
        tmp = v[0].copy()
        v[0] = (tmp + v[1]) * SQRT2_INV
        v[1] = (tmp - v[1]) * SQRT2_INV
    elif kind == "T":
        v[1] *= T_PHASE
    elif kind == "TDG":
        v[1] *= T_PHASE.conjugate()
    else:  # RX
        c = math.cos(gate.theta / 2.0)
        s = 1j * math.sin(gate.theta / 2.0)
        tmp = v[0].copy()
        v[0] = c * tmp + s * v[1]
        v[1] = s * tmp + c * v[1]
    return state


def apply_pauli_string(state: StateVector, qubits: tuple[int, ...], labels: str) -> StateVector:
    """Apply a Pauli on each listed qubit; '0' or 'I' in labels means skip."""
    for q, label in zip(qubits, labels):
        if label in ("0", "I"):
            continue
        apply_gate(state, Gate(label, (q,)))
    return state


# ---------------------------------------------------------------------------
# Noise channels (trajectory semantics)
# ---------------------------------------------------------------------------

def coherent_angle(p: float) -> float:
    """Rotation angle with sin^2(theta/2) = p."""
    return 2.0 * math.asin(math.sqrt(p))


@dataclass(frozen=True)
class NoiseModel:
    """One of: none, incoherent (bit flip w.p. p per now qubit per step),
    coherent (RX with sin^2(theta/2) = p on every now qubit), or
    depolarizing (uniform non-identity Pauli w.p. p after every gate)."""
    kind: str
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "incoherent", "coherent", "depolarizing"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind != "none" and not 0.0 <= self.p <= 1.0:
            raise ValueError("noise strength must lie in [0, 1]")

    @property
    def theta(self) -> float:
        return coherent_angle(self.p)


def apply_phenom_incoherent(state: StateVector, qubits: tuple[int, ...], p: float,
                            rng: np.random.Generator) -> StateVector:
    """Independent X flip with probability p on each listed qubit."""
    if p > 0.0:
        for q in qubits:
            if rng.random() < p:
                apply_gate(state, Gate("X", (q,)))
    return state


def apply_phenom_coherent(state: StateVector, qubits: tuple[int, ...], theta: float) -> StateVector:
    """RX(theta) on every listed qubit (a fixed unitary, no sampling)."""
    for q in qubits:
        apply_gate(state, Gate("RX", (q,), theta))
    return state


_PAULI_LABELS = "0XYZ"


def apply_depolarizing_after_gate(state: StateVector, support: tuple[int, ...], p: float,
                                  rng: np.random.Generator) -> StateVector:
    """Depolarizing kick on a gate's support.

    With probability p apply one Pauli string drawn uniformly from the
    4^k - 1 non-identity strings; the trajectory average is the uniform
    depolarizing channel on the support.
    """
    k = len(support)
    if k not in (2, 3):
        raise ValueError("depolarizing noise is defined on 2- or 3-qubit gate supports")
    if p <= 0.0 or rng.random() >= p:
        return state
    index = int(rng.integers(1, 4**k))
    labels = ""
    for _ in range(k):
        labels += _PAULI_LABELS[index & 3]
        index >>= 2
    return apply_pauli_string(state, support, labels)


# ---------------------------------------------------------------------------
# Expectations and measurement
# ---------------------------------------------------------------------------

_zsum_weights_cache: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}


def expectation_z_sum(state: StateVector, qubits: tuple[int, ...]) -> float:
    """Sum of <Z_q> over the listed qubits, in one pass over the probabilities."""
    key = (state.num_qubits, tuple(qubits))
    weights = _zsum_weights_cache.get(key)
    if weights is None:
        idx = np.arange(1 << state.num_qubits, dtype=np.uint64)
        weights = np.full(idx.size, len(qubits), dtype=np.int16)
        for q in qubits:
            weights -= 2 * ((idx >> np.uint64(q)) & np.uint64(1)).astype(np.int16)
        _zsum_weights_cache[key] = weights
    probs = np.abs(state.amps) ** 2
    return float(probs @ weights)


def measure_reset(state: StateVector, qubits: tuple[int, ...], rng: np.random.Generator) -> StateVector:
    """Measure a contiguous qubit range and reset it to |0...0>.

    The outcome is sampled jointly from the range's Born marginal in one
    pass; the state keeps the renormalized conditional amplitudes.
    """
    lo, count = min(qubits), len(qubits)
    if sorted(qubits) != list(range(lo, lo + count)):
        raise ValueError(f"measure_reset needs a contiguous qubit range, got {tuple(qubits)}")
    hi = state.num_qubits - lo - count  # qubits above the block
    block = state.amps.reshape(1 << hi, 1 << count, 1 << lo)
    probs = (np.abs(block) ** 2).sum(axis=(0, 2))
    total = probs.sum()
    outcome = int(rng.choice(probs.size, p=probs / total))
    column = block[:, outcome, :] / math.sqrt(probs[outcome])
    new_amps = np.zeros_like(state.amps).reshape(block.shape)
    new_amps[:, 0, :] = column
    state.amps = new_amps.reshape(-1)
    return state
