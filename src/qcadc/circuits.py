"""Quantum-circuit construction for the quantized voting rules and the
noisy trajectory loop.

One update step on n cells uses 2n qubits: the now register holds the
logical state, the future register starts in all-0, three Toffolis per
cell write each cell's majority onto its future cell, and a transversal
CNOT layer (future controls, now targets) decouples the registers.  After
a measurement-based reset of the now register the two register labels
swap; no qubit ever moves.

Toffoli layers are packed so every qubit is touched at most once per
layer: depth 6 for the Toffolis plus 1 for the CNOTs, for any even n.
When n/2-per-string (or n) is not a multiple of 4 the clean alternating
pattern leaves one odd cycle per string, so a fixed pair of
nearest-neighbor-controlled gates is promoted into the last two layers
and the displaced skip-controlled gates drop into the freed slots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# Bound at import: numpy loads numpy.random lazily, and the first trajectory
# should not pay for it.
from numpy.random import SeedSequence, default_rng

from . import qsim
from .qsim import (Gate, NoiseModel, SparseRegister, StateVector, apply_phenom_coherent,
                   draw_kick_labels)
# Gate-level names bound here for perfbench/tracing.py, which wraps them in this module.
from .qsim import (apply_depolarizing_after_gate, apply_gate,  # noqa: F401
                   expectation_z_sum, measure_reset)
from .rng import check_seed


@dataclass(frozen=True)
class Circuit:
    """Layered gate list; within a layer all gate supports are disjoint."""
    scheme: str
    n_cells: int
    layers: tuple[tuple[Gate, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)

    def gates(self):
        for layer in self.layers:
            yield from layer

    def count(self, kind: str) -> int:
        return sum(1 for g in self.gates() if g.kind == kind)

    def validate_layers(self) -> None:
        for k, layer in enumerate(self.layers):
            used: set[int] = set()
            for gate in layer:
                overlap = used.intersection(gate.qubits)
                if overlap:
                    raise ValueError(f"layer {k} reuses qubit(s) {sorted(overlap)}")
                used.update(gate.qubits)


@dataclass(frozen=True)
class LogicalRegisterMap:
    """Which physical qubits currently hold the now and future registers."""
    now: tuple[int, ...]
    future: tuple[int, ...]

    def swapped(self) -> "LogicalRegisterMap":
        return LogicalRegisterMap(self.future, self.now)

    @classmethod
    def initial(cls, n: int) -> "LogicalRegisterMap":
        return cls(tuple(range(n)), tuple(range(n, 2 * n)))


# ---------------------------------------------------------------------------
# Step-circuit construction
# ---------------------------------------------------------------------------
# Cell-level gate specs are (control_cell, control_cell, target_cell) with
# controls on the now slice and the target on the future slice; canonical
# qubits are now cell c -> qubit c, future cell c -> qubit n + c.

def _q232_toffoli_layers(n: int) -> list[list[tuple[int, int, int]]]:
    def A(k):  # skip-pair controls
        return ((k - 1) % n, (k + 1) % n, k)

    def B(k):
        return ((k - 1) % n, k, k)

    def C(k):
        return (k, (k + 1) % n, k)

    if n % 4 == 0:
        return [
            [B(k) for k in range(0, n, 2)],
            [B(k) for k in range(1, n, 2)],
            [C(k) for k in range(0, n, 2)],
            [C(k) for k in range(1, n, 2)],
            [A(k) for k in range(n) if k % 4 in (0, 1)],
            [A(k) for k in range(n) if k % 4 in (2, 3)],
        ]
    return [
        [B(k) for k in range(4, n, 2)] + [A(0), A(1)],
        [B(k) for k in range(1, n, 2)],
        [C(k) for k in range(0, n, 2)],
        [C(k) for k in range(1, n, 2)],
        [B(0)] + [A(k) for k in range(2, n) if k % 4 in (2, 3)],
        [B(2)] + [A(k) for k in range(4, n) if k % 4 in (0, 1)],
    ]


def _qtlv_toffoli_layers(n: int) -> list[list[tuple[int, int, int]]]:
    m = n // 2

    def p(i):  # upper-string now cell
        return i % m

    def q(i):  # lower-string now cell
        return m + (i % m)

    def Ap(k):
        return (p(k - 2), p(k - 1), k)

    def Bp(k):
        return (p(k - 1), q(k), k)

    def Cp(k):
        return (p(k - 2), q(k), k)

    def Am(k):
        return (q(k + 1), q(k + 2), m + k)

    def Bm(k):
        return (q(k + 1), p(k), m + k)

    def Cm(k):
        return (q(k + 2), p(k), m + k)

    if m % 2 == 0:
        return [
            [Bp(k) for k in range(0, m, 2)] + [Bm(k) for k in range(0, m, 2)],
            [Bp(k) for k in range(1, m, 2)] + [Bm(k) for k in range(1, m, 2)],
            [Cp(k) for k in range(0, m, 2)] + [Cm(k) for k in range(1, m, 2)],
            [Cp(k) for k in range(1, m, 2)] + [Cm(k) for k in range(0, m, 2)],
            [Ap(k) for k in range(0, m, 2)] + [Am(k) for k in range(0, m, 2)],
            [Ap(k) for k in range(1, m, 2)] + [Am(k) for k in range(1, m, 2)],
        ]
    return [
        [Bp(k) for k in range(1, m - 1)] + [Ap(0), Am(m - 2)],
        [Bm(k) for k in range(2, m)] + [Am(0), Ap(2)],
        [Cp(k) for k in range(m)],
        [Cm(k) for k in range(m)],
        [Ap(k) for k in range(1, m, 2)] + [Am(k) for k in range(1, m - 3, 2)]
        + [Bp(m - 1), Am(m - 1)],
        [Ap(k) for k in range(4, m, 2)] + [Am(k) for k in range(2, m - 2, 2)]
        + [Bp(0), Bm(0), Bm(1)],
    ]


def _assemble(scheme: str, n: int, toffoli_layers: list[list[tuple[int, int, int]]]) -> Circuit:
    layers = []
    for spec_layer in toffoli_layers:
        layers.append(tuple(Gate("TOFFOLI", (c1, c2, n + target))
                            for c1, c2, target in spec_layer))
    layers.append(tuple(Gate("CNOT", (n + c, c)) for c in range(n)))
    circuit = Circuit(scheme, n, tuple(layers))
    circuit.validate_layers()
    if circuit.count("TOFFOLI") != 3 * n or circuit.count("CNOT") != n:
        raise AssertionError("gate accounting broke during layer packing")
    return circuit


def build_q232_step(n: int) -> Circuit:
    """One quantized local-majority update: 3n Toffolis in 6 layers + n CNOTs."""
    if n % 2 or n < 4:
        raise ValueError("the quantized majority rule needs an even cell count >= 4")
    return _assemble("q232", n, _q232_toffoli_layers(n))


def build_qtlv_step(n: int) -> Circuit:
    """One quantized two-line-voting update on strings of n/2 cells."""
    if n % 2 or n < 4:
        raise ValueError("quantized two-line voting needs an even cell count >= 4")
    return _assemble("qtlv", n, _qtlv_toffoli_layers(n))


def build_step(scheme: str, n: int) -> Circuit:
    if scheme == "q232":
        return build_q232_step(n)
    if scheme == "qtlv":
        return build_qtlv_step(n)
    raise ValueError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Toffoli decomposition into single- and two-qubit gates
# ---------------------------------------------------------------------------

def _toffoli_network(c1: int, c2: int, t: int) -> list[list[Gate]]:
    """6 CNOTs, 2 Hadamards and 7 T/T-dagger gates, grouped into 12 slots."""
    return [
        [Gate("H", (t,))],
        [Gate("CNOT", (c2, t))],
        [Gate("TDG", (t,))],
        [Gate("CNOT", (c1, t))],
        [Gate("T", (t,))],
        [Gate("CNOT", (c2, t))],
        [Gate("TDG", (t,))],
        [Gate("CNOT", (c1, t))],
        [Gate("T", (c2,)), Gate("T", (t,))],
        [Gate("CNOT", (c1, c2)), Gate("H", (t,))],
        [Gate("T", (c1,)), Gate("TDG", (c2,))],
        [Gate("CNOT", (c1, c2))],
    ]


def decompose_toffoli(circuit: Circuit) -> Circuit:
    """Replace every Toffoli by its standard two-qubit network.

    Each Toffoli layer expands into 12 slots; Toffolis that were parallel
    stay parallel slot by slot, so layer disjointness is preserved.
    """
    layers: list[tuple[Gate, ...]] = []
    for layer in circuit.layers:
        toffolis = [g for g in layer if g.kind == "TOFFOLI"]
        others = tuple(g for g in layer if g.kind != "TOFFOLI")
        if not toffolis:
            layers.append(layer)
            continue
        networks = [_toffoli_network(*g.qubits) for g in toffolis]
        if others:
            layers.append(others)
        for slot in range(12):
            layers.append(tuple(g for net in networks for g in net[slot]))
    out = Circuit(circuit.scheme, circuit.n_cells, tuple(layers))
    out.validate_layers()
    return out


# ---------------------------------------------------------------------------
# Export and classical basis action
# ---------------------------------------------------------------------------

def circuit_to_text(circuit: Circuit) -> str:
    """One gate per line: ``LAYER k | GATE kind q0 [q1 [q2]] [theta]``."""
    lines = []
    for k, layer in enumerate(circuit.layers):
        for g in layer:
            line = f"LAYER {k} | GATE {g.kind} " + " ".join(str(q) for q in g.qubits)
            if g.theta is not None:
                line += f" {g.theta!r}"
            lines.append(line)
    return "\n".join(lines) + "\n"


def basis_action(indices: np.ndarray, gates) -> np.ndarray:
    """Image of each int64 basis index under a sequence of Toffoli/CNOT gates.

    Each gate is a qubit tuple ``(controls..., target)``: it flips the
    target bit of every index whose control bits are all set.
    """
    out = np.array(indices, dtype=np.int64)
    for *controls, target in gates:
        cmask = sum(1 << c for c in controls)
        np.bitwise_xor(out, 1 << target, out=out, where=(out & cmask) == cmask)
    return out


# ---------------------------------------------------------------------------
# Exact sums over a sparse probability block
# ---------------------------------------------------------------------------

_PAIRWISE_LEAF = 128  # numpy's pairwise-summation block size


class ExactBlockSum:
    """``block.sum(axis)`` of a sparse float block, bit for bit as numpy sums it dense.

    The block has the given ``shape`` and nonzero terms at (``rows``,
    ``cols``); the plan is built once and the call takes the terms' values.
    numpy reduces axis 0 of a C-ordered block row by row, a sequential sum
    per column.  It sums a contiguous run (a row for axis 1, the flattened
    block for the full sum) pairwise: 8 strided accumulators per 128-element
    leaf, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and leaves
    combined as a balanced binary tree.  Zero terms add exactly, so the
    same tree over the nonzero terms alone gives the same float, one
    ``np.add.reduceat`` per tree level since every node has at most two
    children.  Runs shorter than 8 are summed sequentially by numpy, and
    other lengths split differently, so both dimensions must be powers of
    two and rows at least 8 long.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int],
                 axis: int | None):
        n_rows, n_cols = shape
        if n_cols < 8 or any(d < 1 or d & (d - 1) for d in shape):
            raise ValueError(f"exact sums need power-of-two dimensions and rows of at "
                             f"least 8, got shape {shape}")
        if axis not in (0, 1, None):
            raise ValueError(f"axis must be 0, 1 or None, got {axis!r}")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        self._axis = axis
        self._size = n_cols if axis == 0 else n_rows if axis == 1 else 1
        if axis == 0:
            self._order = np.argsort(rows, kind="stable")
            self._keys = cols[self._order]
            return
        flat = rows * n_cols + cols
        run = n_cols if axis == 1 else n_rows * n_cols
        leaf = min(run, _PAIRWISE_LEAF)
        self._order = np.argsort(flat, kind="stable")
        flat = flat[self._order]
        keys, self._keys = np.unique((flat // leaf) * 8 + flat % 8, return_inverse=True)
        self._levels = []
        for _ in range(3 + (run // leaf).bit_length() - 1):
            parents = keys >> 1
            starts = np.flatnonzero(np.diff(parents, prepend=-1))
            if starts.size < keys.size:  # a level of lone children adds nothing
                self._levels.append(starts)
            keys = parents[starts]
        self._runs = keys  # run index of each surviving tree root

    def __call__(self, values: np.ndarray):
        values = values[self._order]
        if self._axis == 0:
            return np.bincount(self._keys, weights=values, minlength=self._size)
        acc = np.bincount(self._keys, weights=values)  # the strided accumulators
        for starts in self._levels:
            acc = np.add.reduceat(acc, starts)
        out = np.zeros(self._size)
        out[self._runs] = acc
        return out if self._axis == 1 else float(out[0])


# ---------------------------------------------------------------------------
# Trajectory loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QcaRunSpec:
    """One trajectory's worth of configuration.

    The initial state is cos(phi)|0..0> + i sin(phi)|1..1> on the now
    register with |phi| < pi/4, the future register all-0.
    """
    scheme: str
    n: int
    noise: NoiseModel
    phi: float
    seed: int
    trial_index: int = 0
    max_steps: int = 10_000

    def __post_init__(self):
        if not abs(self.phi) < math.pi / 4:
            raise ValueError("the logical angle must satisfy |phi| < pi/4")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


class QcaStepper:
    """Owns one scheme's step circuit and drives noisy trajectories on it.

    The future register is all-0 between steps, so a trajectory's state is
    an n-qubit vector psi(b) over the now register's cell bits b.  The
    Toffoli/CNOT block maps |b>|0> to |b ^ M(b)>|M(b)>, M the classical
    rule, so the now-register reset has outcome o = b ^ M(b) and leaves
    psi'(M(b)) = psi(b) / sqrt(P(o)) behind, with P(o) the summed |psi(b)|^2
    of that outcome: O(2^n) work per step.

    P and its total are summed in the order numpy sums the dense
    2^n x 2^n probability block of the 2n-qubit register (rows: upper-half
    qubits), so outcomes and sum<Z> are bit-identical to a dense reset of
    that register, including where an exact tie leaves the flip test to
    float rounding.

    Per-gate depolarizing noise hits the future register mid-circuit, so
    those trajectories apply the step gate by gate on the 2n-qubit
    register.  Every gate and kick there is a signed basis permutation and
    the reset keeps a subset of the terms, so the register never holds more
    than the initial state's two nonzero amplitudes, which never meet: it is
    a ``SparseRegister`` of indices and magnitudes, and each gate is a bit
    operation on its indices.  The reset sums at most two nonzero terms,
    which round the same in any order, so outcomes and magnitudes are
    bit-identical to a dense register.
    """

    def __init__(self, scheme: str, n: int):
        self.scheme = scheme
        self.n = n
        self.circuit = build_step(scheme, n)
        size = 1 << n
        self._index = np.arange(size, dtype=np.int64)
        # |b>|0> -> |b ^ M(b)>|M(b)>, the now register in the low n bits.
        image = basis_action(self._index, (g.qubits for g in self.circuit.gates()))
        self._rule = image >> n                                      # M(b)
        self._outcome = image & (size - 1)                           # o = b ^ M(b)
        self._weights = n - 2.0 * np.bitwise_count(self._index)     # sum_i <Z_i> of |b>
        shape = (size, size)
        # (marginal, total) for each labeling: the now register is the lower
        # half (block columns) when now_is_lower, else the upper half (rows).
        self._sums = {
            True: (ExactBlockSum(self._rule, self._outcome, shape, axis=0),
                   ExactBlockSum(self._rule, self._outcome, shape, axis=None)),
            False: (ExactBlockSum(self._outcome, self._rule, shape, axis=1),
                    ExactBlockSum(self._outcome, self._rule, shape, axis=None)),
        }
        # Per labeling, each gate's (control mask, target bit, physical support):
        # a Toffoli or CNOT flips the target bit where every control bit is set.
        self._gates = {}
        initial = LogicalRegisterMap.initial(n)
        for regmap in (initial, initial.swapped()):
            physical = regmap.now + regmap.future
            gates = []
            for gate in self.circuit.gates():
                support = tuple(physical[q] for q in gate.qubits)
                *controls, target = support
                gates.append((sum(1 << c for c in controls), 1 << target, support))
            self._gates[regmap.now[0] == 0] = tuple(gates)

    def initial_state(self, phi: float) -> StateVector:
        """cos(phi)|0..0> + i sin(phi)|1..1> on the n now qubits."""
        state = StateVector(self.n, np.zeros(1 << self.n, dtype=np.complex128))
        state.amps[0] = math.cos(phi)
        state.amps[-1] = 1j * math.sin(phi)
        return state

    def initial_register(self, phi: float) -> SparseRegister:
        """``initial_state(phi)`` as magnitudes on the 2n-qubit register, zero terms dropped."""
        terms = [(0, math.cos(phi)), ((1 << self.n) - 1, abs(math.sin(phi)))]
        return SparseRegister(2 * self.n, *zip(*(term for term in terms if term[1])))

    def ideal_fidelity(self, state: StateVector, phi: float) -> float:
        """Overlap with the undisturbed logical state."""
        return abs(math.cos(phi) * state.amps[0] - 1j * math.sin(phi) * state.amps[-1])

    def step_with_zsum(self, state: StateVector | SparseRegister, regmap: LogicalRegisterMap,
                       noise: NoiseModel, rng: np.random.Generator) -> float:
        """One full step; returns sum_i <Z_i> over the post-step now register.

        ``state`` holds the n now qubits, except under depolarizing noise,
        where it is the 2n-qubit ``SparseRegister`` (see ``run_trajectory``).
        ``regmap`` says which half of the 2n-qubit register the now qubits
        occupy, which also fixes the summation order of the reset.
        """
        depolarizing = noise.kind == "depolarizing"
        expected, qubits = (SparseRegister, 2 * self.n) if depolarizing else (StateVector, self.n)
        if not isinstance(state, expected) or state.num_qubits != qubits:
            raise ValueError(f"{noise.kind} steps need a {qubits}-qubit {expected.__name__}, "
                             f"got {state.num_qubits} qubits in a {type(state).__name__}")
        if depolarizing:
            return self._depolarizing_step(state, regmap, noise.p, rng)
        amps = state.amps
        if noise.kind == "incoherent":
            flips = 0
            for i in range(self.n):
                if rng.random() < noise.p:
                    flips |= 1 << i
            if flips:
                amps = amps[self._index ^ flips]
        elif noise.kind == "coherent":
            amps = apply_phenom_coherent(state, tuple(range(self.n)), noise.theta).amps
        probs = amps.real**2 + amps.imag**2
        marginal_sum, total_sum = self._sums[regmap.now[0] == 0]
        total = total_sum(probs)
        if abs(total - 1.0) > 1e-10:
            raise AssertionError("statevector norm drifted past 1e-10")
        marginal = marginal_sum(probs)
        cum = np.cumsum(marginal)
        outcome = int(np.searchsorted(cum, rng.random() * total, side="right"))
        outcome = min(outcome, marginal.size - 1)
        kept = np.flatnonzero(self._outcome == outcome)
        new = np.zeros_like(amps)
        new[self._rule[kept]] = amps[kept] / math.sqrt(marginal[outcome])
        state.amps = new
        return float((new.real**2 + new.imag**2) @ self._weights)

    def _depolarizing_step(self, register: SparseRegister, regmap: LogicalRegisterMap,
                           p: float, rng: np.random.Generator) -> float:
        """The step's gates, each followed by its kick draw, then the now-register reset.

        The register's one or two basis indices are held as ints while the
        gates run; a kick only flips index bits.  The reset outcome is
        ``two_term_outcome``'s draw, and the kept magnitudes are scaled by
        1 / sqrt(weight) as numpy divides complex amplitudes by a real
        scalar, so both match ``measure_reset`` on a dense register bit for bit.
        """
        draw = rng.random
        count = len(register.index)
        a, b = register.index[0], register.index[-1]  # b == a on a one-term register
        for cmask, tmask, support in self._gates[regmap.now[0] == 0]:
            if a & cmask == cmask:
                a ^= tmask
            if b & cmask == cmask:
                b ^= tmask
            if p > 0.0 and draw() < p:
                register.index = [a, b][:count]
                # Looked up on the module, so a wrapper installed there sees the kick.
                qsim.apply_pauli_string(register, support, draw_kick_labels(len(support), rng))
                a, b = register.index[0], register.index[-1]
        index = [a, b][:count]
        shift, mask = regmap.now[0], (1 << self.n) - 1
        mags = register.amps
        weights = (mags * mags).tolist()
        if abs(math.sqrt(sum(weights)) - 1.0) > 1e-10:
            raise AssertionError("statevector norm drifted past 1e-10")
        bins = [(i >> shift) & mask for i in index]
        outcome, weight = two_term_outcome(bins, weights, draw)
        keep = [j for j, o in enumerate(bins) if o == outcome]
        mags = (mags if len(keep) == count else mags[keep]) * (1.0 / math.sqrt(weight))
        register.amps = mags
        register.index = [index[j] & ~(mask << shift) for j in keep]
        future = [(index[j] >> regmap.future[0]) & mask for j in keep]
        return float((mags ** 2) @ self._weights[future])

    def run_trajectory(self, noise: NoiseModel, phi: float, max_steps: int,
                       rng: np.random.Generator) -> int | None:
        """First step t with sum_i <Z_i> < 0 on the post-step now register."""
        regmap = LogicalRegisterMap.initial(self.n)
        state = (self.initial_register(phi) if noise.kind == "depolarizing"
                 else self.initial_state(phi))
        for t in range(1, max_steps + 1):
            zsum = self.step_with_zsum(state, regmap, noise, rng)
            regmap = regmap.swapped()
            if zsum < 0.0:
                return t
        return None


def two_term_outcome(bins: list[int], weights: list[float], draw) -> tuple[int, float]:
    """The bin ``Generator.choice`` draws from one or two weighted terms, and its weight.

    ``choice(size, p=marginal / total)``, marginal the per-bin sums, takes
    a right ``searchsorted`` of one ``random()`` draw in the cumulative sum
    of p divided by its last entry.  Zeros add exactly, so with bins
    o_lo < o_hi of summed weights m_lo, m_hi that is o_lo iff the draw is
    below p_lo / (p_lo + p_hi).  Terms sharing a bin add in index order,
    and ``draw()`` is called once even when there is one bin.
    """
    lo, hi = min(bins), max(bins)
    m_lo = m_hi = 0.0
    for o, w in zip(bins, weights):
        if o == lo:
            m_lo += w
        else:
            m_hi += w
    total = m_lo + m_hi
    p_lo, p_hi = m_lo / total, m_hi / total
    return (lo, m_lo) if draw() < p_lo / (p_lo + p_hi) else (hi, m_hi)


def trajectory_rng(seed: int, trial_index: int) -> np.random.Generator:
    check_seed(seed, trial_index)
    return default_rng(SeedSequence(entropy=seed, spawn_key=(trial_index,)))


def run_qca_trajectory(spec: QcaRunSpec) -> int | None:
    """Run one noisy trajectory to its logical flip (None if censored)."""
    stepper = QcaStepper(spec.scheme, spec.n)
    rng = trajectory_rng(spec.seed, spec.trial_index)
    return stepper.run_trajectory(spec.noise, spec.phi, spec.max_steps, rng)


def noiseless_preservation(scheme: str, n: int, phi: float, steps: int) -> tuple[float, bool]:
    """(final logical fidelity, whether a flip was ever signalled) without noise."""
    stepper = QcaStepper(scheme, n)
    rng = default_rng(0)  # reset outcomes are deterministic here
    regmap = LogicalRegisterMap.initial(n)
    state = stepper.initial_state(phi)
    flipped = False
    for _ in range(steps):
        zsum = stepper.step_with_zsum(state, regmap, NoiseModel("none"), rng)
        regmap = regmap.swapped()
        if zsum < 0.0:
            flipped = True
    return stepper.ideal_fidelity(state, phi), flipped
