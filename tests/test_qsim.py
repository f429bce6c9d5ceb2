"""Statevector simulator: gates, channels vs exact density-matrix oracle,
measurement-based reset."""
import math
import zlib
from collections import Counter

import numpy as np
import pytest

from qcadc import qsim
from qcadc.qsim import Gate, SparseRegister, StateVector
from oracles import (PAULI, apply_phenom_incoherent, bitflip_channel, cnot_matrix,
                     depolarizing_channel, expectation, kicked_moments, kron_all,
                     pauli_string_op, toffoli_matrix)


def basis(num_qubits, index):
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def test_x_and_toffoli_on_basis_states():
    state = qsim.apply_gate(basis(1, 0), Gate("X", (0,)))
    assert state.amps[1] == 1.0
    # controls on qubits 2 and 1 set, target 0: |110> -> |111>
    state = qsim.apply_gate(basis(3, 0b110), Gate("TOFFOLI", (2, 1, 0)))
    assert state.amps[0b111] == 1.0


def test_cnot_toffoli_are_basis_permutations():
    for gate, matrix in ((Gate("CNOT", (1, 0)), cnot_matrix()),
                         (Gate("TOFFOLI", (2, 1, 0)), toffoli_matrix())):
        m = len(gate.qubits)
        for b in range(1 << m):
            out = qsim.apply_gate(basis(m, b), gate).amps
            assert np.allclose(out, matrix[:, b])


def test_gate_matrix_identities():
    state = StateVector(1, np.array([0.6, 0.8j]))
    twice = qsim.apply_gate(qsim.apply_gate(state.copy(), Gate("H", (0,))), Gate("H", (0,)))
    assert np.allclose(twice.amps, state.amps, atol=1e-12)
    t4 = state.copy()
    for _ in range(4):
        qsim.apply_gate(t4, Gate("T", (0,)))
    z = qsim.apply_gate(state.copy(), Gate("Z", (0,)))
    assert np.allclose(t4.amps, z.amps, atol=1e-12)
    rx = qsim.apply_gate(state.copy(), Gate("RX", (0,), 0.7))
    qsim.apply_gate(rx, Gate("RX", (0,), -0.7))
    assert np.allclose(rx.amps, state.amps, atol=1e-12)


def test_rx_convention():
    p = 0.3
    theta = qsim.coherent_angle(p)
    state = qsim.apply_gate(basis(1, 0), Gate("RX", (0,), theta))
    assert state.amps[0] == pytest.approx(math.cos(theta / 2))
    assert state.amps[1] == pytest.approx(1j * math.sin(theta / 2))
    assert abs(state.amps[1]) ** 2 == pytest.approx(p)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("SWAP", (0, 1))
    with pytest.raises(ValueError):
        Gate("X", (0,), theta=1.0)
    with pytest.raises(ValueError):
        Gate("RX", (0,))


def test_norm_preserved_by_random_circuit():
    rng = np.random.default_rng(7)
    state = StateVector(5)
    for _ in range(60):
        kind = rng.choice(["X", "H", "T", "TDG", "RX", "CNOT", "TOFFOLI"])
        qubits = tuple(rng.choice(5, size={"CNOT": 2, "TOFFOLI": 3}.get(kind, 1),
                                  replace=False))
        theta = float(rng.uniform(0, math.pi)) if kind == "RX" else None
        qsim.apply_gate(state, Gate(kind, qubits, theta))
    assert abs(state.norm() - 1.0) < 1e-10


def test_expectation_z_sum():
    n = 5
    assert qsim.expectation_z_sum(StateVector(n), tuple(range(n))) == pytest.approx(n)
    phi = 0.4
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = math.cos(phi)
    amps[-1] = 1j * math.sin(phi)
    state = StateVector(n, amps)
    assert qsim.expectation_z_sum(state, tuple(range(n))) == pytest.approx(n * math.cos(2 * phi))
    plus = qsim.apply_gate(StateVector(1), Gate("H", (0,)))
    assert qsim.expectation_z_sum(plus, (0,)) == pytest.approx(0.0, abs=1e-12)


def test_measure_reset_bell_pair():
    rng = np.random.default_rng(3)
    ones = 0
    for _ in range(10_000):
        amps = np.array([1, 0, 0, 1]) / math.sqrt(2)
        state = StateVector(2, amps.astype(complex))
        qsim.measure_reset(state, (1,), rng)
        assert abs(state.norm() - 1.0) < 1e-10
        # qubit 1 ends in |0>, qubit 0 collapsed to 0 or 1
        assert abs(state.amps[2]) < 1e-12 and abs(state.amps[3]) < 1e-12
        outcome = int(abs(state.amps[1]) > 0.5)
        ones += outcome
    sigma = math.sqrt(10_000 * 0.25)
    assert abs(ones - 5000) < 3 * sigma


def test_measure_reset_identity_on_zero():
    state = StateVector(4)
    qsim.measure_reset(state, (0, 1, 2, 3), np.random.default_rng(0))
    assert state.amps[0] == pytest.approx(1.0)


def test_block_and_sequential_reset_agree_in_distribution():
    # Reset two contiguous qubits of an entangled 3-qubit state; the
    # surviving qubit's average weight must match its unconditional Born
    # marginal (averaging the conditional state over outcomes recovers it).
    # A non-contiguous range is refused.
    base = np.array([0.5, 0.1, 0.3, 0.2, 0.4, 0.25, 0.35, 0.45], dtype=complex)
    base /= np.linalg.norm(base)
    probs = np.abs(base) ** 2
    runs = 20_000
    rng = np.random.default_rng(11)

    weight = 0.0
    for _ in range(runs):
        state = StateVector(3, base.copy())
        qsim.measure_reset(state, (0, 1), rng)
        assert abs(state.norm() - 1.0) < 1e-10
        weight += abs(state.amps[0b100]) ** 2
    expect = probs[4:].sum()  # P(qubit 2 = 1)
    assert abs(weight / runs - expect) < 4 * math.sqrt(0.25 / runs)

    with pytest.raises(ValueError):
        qsim.measure_reset(StateVector(3, base.copy()), (0, 2), rng)


def test_incoherent_channel_edges():
    rng = np.random.default_rng(0)
    state = apply_phenom_incoherent(StateVector(3), (0, 1, 2), 0.0, rng)
    assert state.amps[0] == 1.0
    state = apply_phenom_incoherent(StateVector(3), (0, 1, 2), 1.0, rng)
    assert state.amps[0b111] == 1.0


def test_incoherent_channel_matches_exact():
    p = 1 / 6
    rng = np.random.default_rng(42)
    runs = 100_000
    # apply_phenom_incoherent flips on one rng.random() < p per run: count those draws,
    # then weight the flipped and the kept state's <Z> (exact +-1 sums in any order)
    flips = int(np.count_nonzero(rng.random(runs) < p))
    flipped, kept = (qsim.expectation_z_sum(apply_phenom_incoherent(StateVector(1), (0,), q, rng),
                                            (0,)) for q in (1.0, 0.0))
    total_z = flips * flipped + (runs - flips) * kept
    rho = bitflip_channel(np.diag([1.0 + 0j, 0]), 0, 1, p)
    exact = expectation(rho, PAULI["Z"])
    assert exact == pytest.approx(1 - 2 * p)
    sigma = math.sqrt(4 * p * (1 - p) / runs)
    assert abs(total_z / runs - exact) < 3 * sigma


def test_coherent_channel_edges_and_exactness():
    state = qsim.apply_phenom_coherent(StateVector(2), (0, 1), 0.0)
    assert state.amps[0] == pytest.approx(1.0)
    state = qsim.apply_phenom_coherent(StateVector(2), (0, 1), math.pi)
    assert abs(state.amps[0b11]) == pytest.approx(1.0)  # X on both, up to phase
    # deterministic unitary: matches the exact channel without sampling
    p = 0.2
    theta = qsim.coherent_angle(p)
    state = qsim.apply_phenom_coherent(StateVector(2), (0, 1), theta)
    rho = np.outer(state.amps, state.amps.conj())
    RX = np.array([[math.cos(theta / 2), 1j * math.sin(theta / 2)],
                   [1j * math.sin(theta / 2), math.cos(theta / 2)]])
    U = kron_all([RX, RX])
    rho_exact = U @ np.diag([1.0 + 0j, 0, 0, 0]) @ U.conj().T
    assert np.allclose(rho, rho_exact, atol=1e-12)
    assert abs(state.amps[1]) ** 2 == pytest.approx(p * (1 - p))


@pytest.mark.parametrize("m", range(1, 11))
def test_coherent_pass_is_bit_identical_to_gate_by_gate_rx(m):
    rng = np.random.default_rng(zlib.crc32(f"coherent-{m}".encode()))
    for case in range(24):
        amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        if case % 2:  # mostly zero, with signed zeros in both parts
            amps[rng.random(amps.size) < 0.9] = 0.0
            amps.real[rng.random(amps.size) < 0.2] = -0.0
            amps.imag[rng.random(amps.size) < 0.2] = -0.0
        qubits = tuple(int(q) for q in rng.integers(0, m, size=rng.integers(0, 2 * m + 1)))
        theta = (0.0, math.pi, qsim.coherent_angle(11 / 72))[case % 3] if case < 6 \
            else float(rng.uniform(-4.0, 4.0))
        expected = StateVector(m, amps.copy())
        for q in qubits:
            qsim.apply_gate(expected, Gate("RX", (q,), theta))
        # A strided input array reshapes to views too, and the passes write into it.
        strided = np.repeat(amps, 2)[::2]
        for start in (amps.copy(), strided):
            state = qsim.apply_phenom_coherent(StateVector(m, start), qubits, theta)
            assert state.amps.tobytes() == expected.amps.tobytes(), (qubits, theta)


def test_coherent_pass_refuses_qubits_outside_the_register():
    for qubits in ((3,), (0, -1), (1, 4)):
        with pytest.raises(ValueError, match="outside a 3-qubit register"):
            qsim.apply_phenom_coherent(StateVector(3), qubits, 0.3)


def test_depolarizing_requires_gate_support():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        qsim.apply_depolarizing_after_gate(StateVector(2), (0,), 0.1, rng)


def test_depolarizing_p_zero_is_identity():
    rng = np.random.default_rng(1)
    state = qsim.apply_depolarizing_after_gate(StateVector(2), (0, 1), 0.0, rng)
    assert state.amps[0] == 1.0


def test_depolarizing_sampling_is_uniform():
    # conditioned on a kick, the 15 non-identity two-qubit Pauli strings are uniform
    rng = np.random.default_rng(123)
    runs = 100_000
    counts = Counter(qsim.draw_depolarizing_kick(2, 0.9, rng) for _ in range(runs))
    strings = [a + b for a in "0XYZ" for b in "0XYZ"][1:]
    assert set(counts) <= {None, *strings}
    assert abs(counts[None] - 0.1 * runs) < 5 * math.sqrt(runs * 0.1 * 0.9)
    kicked = np.array([counts[label] for label in strings])
    expected = kicked.sum() / 15
    sigma = math.sqrt(expected * (1 - 1 / 15))
    assert (np.abs(kicked - expected) < 5 * sigma).all()


def test_depolarizing_kick_applies_the_drawn_string():
    # a generic probe state makes every string's action distinguishable
    probe = np.array([0.5 + 0.1j, -0.25 + 0.45j, 0.35 - 0.2j, 0.15 + 0.5j])
    probe /= np.linalg.norm(probe)
    draws, kicks = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(200):
        labels = qsim.draw_depolarizing_kick(2, 0.9, draws)
        state = qsim.apply_depolarizing_after_gate(StateVector(2, probe.copy()), (0, 1), 0.9, kicks)
        expect = StateVector(2, probe.copy())
        if labels is not None:
            qsim.apply_pauli_string(expect, (0, 1), labels)
        assert np.array_equal(state.amps, expect.amps)


@pytest.mark.parametrize("label", ["X", "Y", "Z"])
@pytest.mark.parametrize("qubit", [0, 1])
def test_sparse_pauli_is_bit_identical_to_the_dense_gate(label, qubit):
    # Amplitudes on either axis, signed zeros included: the dense gate moves them
    # to the indices the kick leaves, and their magnitudes stay the same bits.
    pairs = [(0.6, -0.8j), (complex(-0.0, 0.6), complex(0.8, -0.0)),
             (complex(0.0, -0.6), complex(-0.8, 0.0)), (complex(-0.6, -0.0), 0.8j)]
    for a, b in pairs:
        for index in ([0, 3], [1, 2], [3, 1]):
            register = SparseRegister(2, index, [abs(a), abs(b)])
            mags = register.amps.tobytes()
            dense = np.zeros(4, dtype=complex)
            dense[index] = [a, b]
            state = qsim.apply_gate(StateVector(2, dense), Gate(label, (qubit,)))
            register.apply_pauli(qubit, label)
            assert register.amps.tobytes() == mags
            assert np.abs(state.amps[register.index]).tobytes() == mags
            assert np.count_nonzero(state.amps) == 2


def test_pauli_strings_refuse_unknown_labels():
    register = SparseRegister(4, [1, 2], [0.6, 0.8])
    with pytest.raises(ValueError, match="unknown Pauli label 'W'"):
        register.apply_pauli(0, "W")
    assert register.index == [1, 2] and register.amps.tolist() == [0.6, 0.8]
    for state in (SparseRegister(4, [1, 2], [0.6, 0.8]), StateVector(4)):
        with pytest.raises(ValueError):
            qsim.apply_pauli_string(state, (0, 1), "XW")


@pytest.mark.parametrize("p", [0.05, 0.2])
def test_depolarizing_trajectories_match_exact_channel_cnot(p):
    _check_depolarizing("CNOT", (1, 0), 0b10, p, runs=30_000)


@pytest.mark.parametrize("p", [0.05, 0.2])
def test_depolarizing_trajectories_match_exact_channel_toffoli(p):
    _check_depolarizing("TOFFOLI", (2, 1, 0), 0b110, p, runs=30_000)


def _check_depolarizing(kind, qubits, start, p, runs):
    """Trajectory average of Pauli expectations vs the exact channel."""
    num_qubits = len(qubits)
    rng = np.random.default_rng(zlib.crc32(f"{kind}-{p}".encode()))
    observables = {"Z0": {0: "Z"}, "Z_top": {num_qubits - 1: "Z"},
                   "X0": {0: "X"}, "ZZ": {0: "Z", 1: "Z"}}
    ops = {name: pauli_string_op(num_qubits, placement)
           for name, placement in observables.items()}
    moments = kicked_moments(kind, qubits, start, p, runs, rng, ops)

    gate = toffoli_matrix() if kind == "TOFFOLI" else cnot_matrix()
    rho = np.zeros((1 << num_qubits, 1 << num_qubits), dtype=complex)
    rho[start, start] = 1.0
    rho = gate @ rho @ gate.conj().T
    rho = depolarizing_channel(rho, num_qubits, p)
    for name, op in ops.items():
        total, squares = moments[name]
        mean = total / runs
        var = max(squares / runs - mean**2, 0.0)
        stderr = math.sqrt(var / runs)
        exact = expectation(rho, op)
        assert abs(mean - exact) <= 3 * stderr + 1e-12, (name, mean, exact)
