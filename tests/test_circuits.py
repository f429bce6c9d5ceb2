"""Step-circuit construction, packing, decomposition, and the trajectory loop."""
import math

import numpy as np
import pytest

from qcadc import ca
from qcadc.circuits import (Circuit, NoiseModel, QcaStepper,
                            build_q232_step, build_qtlv_step, build_step,
                            basis_action, circuit_to_text,
                            decompose_toffoli, noiseless_preservation,
                            run_qca_trajectory, QcaRunSpec, trajectory_rng,
                            _toffoli_network)
from qcadc.qsim import Gate, StateVector, apply_gate, expectation_z_sum
from oracles import step_elementary, step_tlv, toffoli_matrix


def all_basis_rows(n):
    return ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)


def gate_qubits(circuit):
    return [g.qubits for g in circuit.gates()]


def circuit_unitary(circuit, num_qubits):
    dim = 1 << num_qubits
    U = np.eye(dim, dtype=complex)
    for k in range(dim):
        state = StateVector(num_qubits, U[:, k].copy())
        for gate in circuit.gates():
            apply_gate(state, gate)
        U[:, k] = state.amps
    return U


def test_gate_counts_and_depth():
    c = build_q232_step(8)
    assert c.count("TOFFOLI") == 24 and c.count("CNOT") == 8 and c.depth == 7
    c = build_qtlv_step(12)
    assert c.count("TOFFOLI") == 36 and c.count("CNOT") == 12 and c.depth == 7


@pytest.mark.parametrize("scheme", ["q232", "qtlv"])
@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14, 16])
def test_depth_seven_both_packing_regimes(scheme, n):
    circuit = build_step(scheme, n)
    assert circuit.depth == 7
    circuit.validate_layers()  # disjoint supports in every layer


def test_odd_or_tiny_n_rejected():
    for builder in (build_q232_step, build_qtlv_step):
        with pytest.raises(ValueError):
            builder(7)
        with pytest.raises(ValueError):
            builder(2)


def test_layer_validation_catches_overlap():
    bad = Circuit("q232", 4, ((Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2))),))
    with pytest.raises(ValueError):
        bad.validate_layers()


@pytest.mark.parametrize("scheme", ["q232", "qtlv"])
@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_circuit_matches_classical_rule_exhaustively(scheme, n):
    circuit = build_step(scheme, n)
    inputs = all_basis_rows(n)
    image = basis_action(np.arange(2**n), gate_qubits(circuit))  # |b>|0>, now bits low
    out = ((image[:, None] >> np.arange(2 * n)) & 1).astype(np.uint8)
    for row_in, row_out in zip(inputs, out):
        expect = step_elementary(row_in, 232) if scheme == "q232" else step_tlv(row_in)
        assert np.array_equal(row_out[n:], expect)
        # decoupling: the now register carries input XOR update
        assert np.array_equal(row_out[:n], row_in ^ expect)


def test_all_zero_input_is_fixed():
    circuit = build_q232_step(6)
    assert not basis_action(np.zeros(1, dtype=np.int64), gate_qubits(circuit)).any()


@pytest.mark.parametrize("scheme", ["q232", "qtlv"])
def test_gate_order_within_blocks_is_irrelevant(scheme):
    # The encoding Toffolis all commute (Z-diagonal controls on now,
    # disjoint future targets), as do the decouple CNOTs; shuffling within
    # each block leaves the step map invariant.  (Full exchange symmetry
    # between the blocks holds for the past-targeting local unitaries and
    # is verified on the finite windows.)
    n = 6
    circuit = build_step(scheme, n)
    toffolis = [g for g in circuit.gates() if g.kind == "TOFFOLI"]
    cnots = [g for g in circuit.gates() if g.kind == "CNOT"]
    indices = np.arange(1 << (2 * n))
    perm = basis_action(indices, [g.qubits for g in toffolis + cnots])
    rng = np.random.default_rng(5)
    for _ in range(5):
        tof, cn = list(toffolis), list(cnots)
        rng.shuffle(tof)
        rng.shuffle(cn)
        assert np.array_equal(perm, basis_action(indices, [g.qubits for g in tof + cn]))


def test_basis_action_matches_dense_gates():
    # random Toffoli/CNOT sequences on 6 qubits, every basis state at once
    rng = np.random.default_rng(11)
    num_qubits = 6
    for _ in range(20):
        gates = []
        for _ in range(int(rng.integers(1, 12))):
            kind = "TOFFOLI" if rng.random() < 0.5 else "CNOT"
            size = 3 if kind == "TOFFOLI" else 2
            gates.append(Gate(kind, tuple(int(q) for q in
                                          rng.choice(num_qubits, size, replace=False))))
        perm = basis_action(np.arange(1 << num_qubits), [g.qubits for g in gates])
        U = circuit_unitary(Circuit("x", 1, tuple((g,) for g in gates)), num_qubits)
        expect = np.zeros_like(U)
        expect[perm, np.arange(1 << num_qubits)] = 1.0  # U|b> = |perm[b]>
        assert np.array_equal(U, expect)


def test_toffoli_decomposition_exact():
    network = Circuit("x", 1, tuple(tuple(slot) for slot in _toffoli_network(2, 1, 0)))
    U = circuit_unitary(network, 3)
    assert np.abs(U - toffoli_matrix()).max() < 1e-12


def test_decomposed_circuit_on_basis_state():
    network = Circuit("x", 1, tuple(tuple(slot) for slot in _toffoli_network(2, 1, 0)))
    state = StateVector(3, np.eye(8, dtype=complex)[0b110].copy())
    for gate in network.gates():
        apply_gate(state, gate)
    assert abs(state.amps[0b111]) == pytest.approx(1.0)


def test_decomposed_q232_step_matches_undecomposed():
    n = 4
    plain = build_q232_step(n)
    decomposed = decompose_toffoli(plain)
    decomposed.validate_layers()
    assert decomposed.count("TOFFOLI") == 0
    assert decomposed.count("CNOT") == 6 * 3 * n + n
    assert decomposed.count("H") == 2 * 3 * n
    assert decomposed.count("T") + decomposed.count("TDG") == 7 * 3 * n
    U_plain = circuit_unitary(plain, 2 * n)
    U_dec = circuit_unitary(decomposed, 2 * n)
    assert np.abs(U_plain - U_dec).max() < 1e-10


def test_circuit_export_format():
    text = circuit_to_text(build_q232_step(4))
    lines = text.strip().split("\n")
    assert len(lines) == 16
    assert all(line.startswith("LAYER ") and " | GATE " in line for line in lines)
    assert lines[-1].split(" | GATE ")[1].startswith("CNOT ")


def test_statevector_decoupling_exhaustive_small():
    # after one full step from a basis input the registers factorize exactly
    n = 4
    stepper = QcaStepper("q232", n)
    for s in range(2**n):
        amps = np.zeros(1 << (2 * n), dtype=complex)
        amps[s] = 1.0
        state = StateVector(2 * n, amps)
        for gate in stepper.circuit.gates():  # canonical qubits: the initial register map
            apply_gate(state, gate)
        nonzero = np.nonzero(np.abs(state.amps) > 1e-12)[0]
        assert nonzero.size == 1  # still a basis state: registers factorized
        bits = np.array([(s >> i) & 1 for i in range(n)], dtype=np.uint8)
        expect = step_elementary(bits, 232)
        future_bits = (nonzero[0] >> n) & ((1 << n) - 1)
        assert future_bits == sum(int(b) << i for i, b in enumerate(expect))


@pytest.mark.parametrize("scheme", ["q232", "qtlv"])
def test_noiseless_preservation_unit(scheme):
    fid, flipped = noiseless_preservation(scheme, 6, 0.47, 5)
    assert fid >= 1 - 1e-10
    assert not flipped


def test_initial_state_and_phi_validation():
    stepper = QcaStepper("q232", 4)
    state = stepper.initial_state(0.3)
    assert state.amps[0] == pytest.approx(math.cos(0.3))
    assert state.amps[0b1111] == pytest.approx(1j * math.sin(0.3))
    assert expectation_z_sum(state, (0, 1, 2, 3)) == pytest.approx(4 * math.cos(0.6))
    with pytest.raises(ValueError):
        QcaRunSpec("q232", 4, NoiseModel("none"), phi=math.pi / 4, seed=0)
    with pytest.raises(ValueError):
        QcaRunSpec("q232", 4, NoiseModel("none"), phi=0.1, seed=0, max_steps=0)


@pytest.mark.parametrize("seed, trial, message", [
    (-1, 0, "seed must be non-negative, got -1"),
    (0, -7, "trial index must be non-negative, got -7"),
])
def test_trajectory_streams_refuse_negative_seeds_and_trials(seed, trial, message):
    spec = QcaRunSpec("q232", 4, NoiseModel("depolarizing", 0.1), phi=0.2, seed=seed,
                      trial_index=trial, max_steps=5)
    with pytest.raises(ValueError, match=message):
        run_qca_trajectory(spec)


def test_run_qca_trajectory_deterministic():
    spec = QcaRunSpec("q232", 4, NoiseModel("incoherent", 0.3), phi=0.2, seed=9,
                      trial_index=3, max_steps=500)
    assert run_qca_trajectory(spec) == run_qca_trajectory(spec)


def test_incoherent_trajectories_match_classical_distribution():
    # incoherent bit flips keep trajectories classical: flip-time means of the
    # quantum run and the classical engine agree within sampling error
    n, p, trials = 6, 0.25, 400
    stepper = QcaStepper("q232", n)
    times = []
    for k in range(trials):
        rng = trajectory_rng(31, k)
        phi = rng.uniform(-math.pi / 4, math.pi / 4)
        times.append(stepper.run_trajectory(NoiseModel("incoherent", p), phi, 5000, rng))
    times = np.array([t for t in times if t is not None], dtype=float)
    classical = ca.flip_time_stats(n, 232, p, trials=20_000, seed=77)
    stderr = math.hypot(times.std(ddof=1) / math.sqrt(times.size), classical.stderr)
    assert abs(times.mean() - classical.mean) < 3 * stderr


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("gaussian", 0.1)
    with pytest.raises(ValueError):
        NoiseModel("incoherent", 1.5)
    assert NoiseModel("coherent", 0.25).theta == pytest.approx(2 * math.asin(0.5))


def test_depolarizing_step_path_runs():
    spec = QcaRunSpec("qtlv", 4, NoiseModel("depolarizing", 0.05), phi=0.1, seed=2,
                      max_steps=2000)
    t = run_qca_trajectory(spec)
    assert t is None or t >= 1
