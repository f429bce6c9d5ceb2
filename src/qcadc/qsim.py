"""Statevector quantum-trajectory simulator.

Pure states only: noise channels are unravelled by sampling (bit flips and
depolarizing Pauli strings) or applied as the fixed unitary they are
(coherent X rotations).  Gates act in place through axis views of the
amplitude tensor; qubit 0 is the least-significant bit of the basis index.
A ``SparseRegister`` stores only the basis indices and amplitude magnitudes
of a register that sees nothing but signed basis permutations and resets.

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


class SparseRegister:
    """|amplitude| ``amps[j]`` on basis index ``index[j]``, for at most two indices.

    Signed basis permutations (X, Y, Z, CNOT, Toffoli) and projective resets
    add no term and make no two terms meet, so from a two-term state every
    sum over the register has at most two nonzero terms, which round the
    same in any order, and reads only magnitudes.  Amplitudes on the real or
    imaginary axis stay there, so each magnitude is exactly a component's
    absolute value.
    """

    __slots__ = ("num_qubits", "index", "amps")
    MAX_ENTRIES = 2

    def __init__(self, num_qubits: int, index, amps):
        index = [int(b) for b in index]
        amps = np.asarray(amps, dtype=np.float64)
        if amps.shape != (len(index),):
            raise ValueError("need one magnitude per basis index")
        if len(index) > self.MAX_ENTRIES:
            raise ValueError(f"a sparse register holds at most {self.MAX_ENTRIES} "
                             f"amplitudes, got {len(index)}")
        if len(set(index)) != len(index) or not all(0 <= b < 1 << num_qubits for b in index):
            raise ValueError(f"basis indices must be distinct and below 2^{num_qubits}")
        self.num_qubits = num_qubits
        self.index = index
        self.amps = amps

    def apply_pauli(self, qubit: int, label: str) -> None:
        """X, Y or Z on one qubit: X and Y flip its bit in every index; no magnitude changes."""
        if label not in ("X", "Y", "Z"):
            raise ValueError(f"unknown Pauli label {label!r}")
        if label != "Z":
            self.index = [b ^ (1 << qubit) for b in self.index]


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


def apply_pauli_string(state: StateVector | SparseRegister, qubits: tuple[int, ...],
                       labels: str) -> StateVector | SparseRegister:
    """Apply a Pauli on each listed qubit; '0' or 'I' in labels means skip."""
    for q, label in zip(qubits, labels):
        if label in ("0", "I"):
            continue
        if isinstance(state, SparseRegister):
            state.apply_pauli(q, label)
        else:
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
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("noise strength must lie in [0, 1]")

    @property
    def theta(self) -> float:
        return coherent_angle(self.p)


def apply_phenom_coherent(state: StateVector, qubits: tuple[int, ...], theta: float) -> StateVector:
    """RX(theta) on every listed qubit, in order (a fixed unitary, no sampling).

    One pass per qubit q over the view (2^(m-1-q), 2, 2^q) of the
    amplitudes: out = c * v + s * v with bit q flipped.  Each amplitude gets
    the two products and the one addition of ``apply_gate``'s RX, and IEEE
    addition commutes, so the result is bit-identical to it.  The input and
    the output array swap roles from one qubit to the next, so from the
    second qubit on the array ``state.amps`` held is overwritten;
    ``state.amps`` ends up pointing at the result.
    """
    m = state.num_qubits
    for q in qubits:
        if not 0 <= q < m:
            raise ValueError(f"qubit {q} outside a {m}-qubit register")
    c = math.cos(theta / 2.0)
    s = 1j * math.sin(theta / 2.0)
    src = state.amps  # 1-D, so every reshape below is a view
    out, tmp = np.empty((2, src.size), dtype=np.complex128)
    for q in qubits:
        shape = (1 << (m - 1 - q), 2, 1 << q)
        v, o, t = src.reshape(shape), out.reshape(shape), tmp.reshape(shape)
        np.multiply(v, c, out=o)
        np.multiply(v[:, ::-1, :], s, out=t)
        o += t
        src, out = out, src
    state.amps = src
    return state


# The Pauli string of each index j < 4^k on a k-qubit support: label i from bits
# 2i and 2i+1 of j ('0XYZ'), acting on the support's i-th qubit, '0' meaning identity.
_KICK_LABELS = {k: ["".join("0XYZ"[j >> 2 * i & 3] for i in range(k)) for j in range(4**k)]
                for k in (2, 3)}


def draw_depolarizing_kick(k: int, p: float, rng: np.random.Generator) -> str | None:
    """The Pauli string a depolarizing kick applies after a k-qubit gate, or None.

    With probability p (one ``rng.random()`` draw, none at p = 0) the kick
    is ``draw_kick_labels(k, rng)``.
    """
    if k not in (2, 3):
        raise ValueError("depolarizing noise is defined on 2- or 3-qubit gate supports")
    if p <= 0.0 or rng.random() >= p:
        return None
    return draw_kick_labels(k, rng)


def draw_kick_labels(k: int, rng: np.random.Generator) -> str:
    """One of the 4^k - 1 non-identity Pauli strings on k = 2 or 3 qubits, drawn uniformly.

    One ``rng.integers(1, 4**k)`` draw picks the string's index j; label i,
    taken from bits 2i and 2i+1 of j, acts on the gate's i-th qubit, '0'
    meaning identity.
    """
    return _KICK_LABELS[k][rng.integers(1, 4**k)]


def apply_depolarizing_after_gate(state: StateVector, support: tuple[int, ...], p: float,
                                  rng: np.random.Generator) -> StateVector:
    """Depolarizing kick on a gate's support.

    With probability p apply one Pauli string drawn uniformly from the
    4^k - 1 non-identity strings; the trajectory average is the uniform
    depolarizing channel on the support.
    """
    labels = draw_depolarizing_kick(len(support), p, rng)
    if labels is None:
        return state
    return apply_pauli_string(state, support, labels)


# ---------------------------------------------------------------------------
# Expectations and measurement
# ---------------------------------------------------------------------------

def expectation_z_sum(state: StateVector, qubits: tuple[int, ...]) -> float:
    """Sum of <Z_q> over the listed qubits, in one pass over the probabilities."""
    idx = np.arange(1 << state.num_qubits, dtype=np.uint64)
    weights = np.full(idx.size, len(qubits), dtype=np.int16)
    for q in qubits:
        weights -= 2 * ((idx >> np.uint64(q)) & np.uint64(1)).astype(np.int16)
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
