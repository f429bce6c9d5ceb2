"""The trajectory stepper: recorded flip times, exact reset sums, and a
gate-level oracle on the full 2n-qubit register for the n-qubit and the
sparse depolarizing steps."""
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcadc import qsim
from qcadc.circuits import (ExactBlockSum, LogicalRegisterMap, NoiseModel, QcaStepper,
                            build_step, trajectory_rng, two_term_outcome)
from qcadc.experiments import _qca_flip_times
from qcadc.qsim import (Gate, SparseRegister, StateVector, apply_depolarizing_after_gate,
                        apply_gate, expectation_z_sum, measure_reset)

RECORDED = json.loads((Path(__file__).parent / "data" / "qca_flip_times.json").read_text())


@pytest.mark.parametrize("case", RECORDED,
                         ids=[f"{c['scheme']}-{c['n']}-{c['noise']}" for c in RECORDED])
def test_flip_times_match_recorded_arrays(case):
    # Recorded with the 2n-qubit permutation stepper.  Several trajectories
    # reach sum<Z> = 0 up to rounding, so a reset summed in any other order
    # changes their flip times.
    times = _qca_flip_times(case["scheme"], case["n"], float(Fraction(case["p"])),
                            case["noise"], case["trials"], case["seed"], case["max_steps"])
    assert times.tolist() == case["times"]


@settings(max_examples=150, deadline=None)
@given(row_bits=st.integers(0, 7), col_bits=st.integers(3, 10),
       density=st.sampled_from([1.0, 0.5, 0.1, 0.01, 0.0]), seed=st.integers(0, 2**32 - 1))
def test_exact_block_sum_matches_numpy_bit_for_bit(row_bits, col_bits, density, seed):
    rng = np.random.default_rng(seed)
    shape = (1 << row_bits, 1 << col_bits)
    dense = np.zeros(shape)
    mask = rng.random(shape) < density
    dense[mask] = rng.random(int(mask.sum())) * 10.0 ** rng.integers(-9, 3, int(mask.sum()))
    rows, cols = np.nonzero(dense)
    shuffle = rng.permutation(rows.size)
    rows, cols = rows[shuffle], cols[shuffle]
    values = dense[rows, cols]
    total = ExactBlockSum(rows, cols, shape, axis=None)(values)
    assert np.float64(total).tobytes() == dense.sum().tobytes()
    for axis in (0, 1):
        sums = ExactBlockSum(rows, cols, shape, axis=axis)(values)
        assert sums.tobytes() == dense.sum(axis=axis).tobytes()


def test_exact_block_sum_refuses_shapes_numpy_sums_differently():
    for shape in ((4, 4), (8, 12), (3, 16)):
        with pytest.raises(ValueError):
            ExactBlockSum([0], [0], shape, axis=None)
    with pytest.raises(ValueError):
        ExactBlockSum([0], [0], (8, 8), axis=2)


@settings(max_examples=500, deadline=None)
@given(n=st.integers(1, 10), data=st.data(), seed=st.integers(0, 2**32 - 1),
       terms=st.integers(1, 2), at_boundary=st.booleans(),
       exponents=st.lists(st.floats(-30.0, 0.0), min_size=2, max_size=2),
       nudge=st.integers(-2, 2))
def test_two_term_outcome_draws_what_choice_draws(n, data, seed, terms, at_boundary,
                                                   exponents, nudge):
    size = 1 << n
    bins = data.draw(st.lists(st.integers(0, size - 1), min_size=terms, max_size=terms))
    if at_boundary and terms == 2:
        # Weights u and 1 - u, u the draw itself: the cut sits within ulps of it.
        u = np.random.default_rng(seed).random()
        weights = [u * 10.0 ** exponents[0], (1.0 - u) * 10.0 ** exponents[0]]
        for _ in range(abs(nudge)):
            weights[0] = math.nextafter(weights[0], math.copysign(math.inf, nudge))
    else:
        weights = [10.0 ** e for e in exponents[:terms]]
    marginal = np.bincount(bins, weights=weights, minlength=size)
    rng, choice_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    outcome, weight = two_term_outcome(bins, weights, rng.random)
    expected = int(choice_rng.choice(size, p=marginal / marginal.sum()))
    assert outcome == expected
    assert np.float64(weight).tobytes() == marginal[expected].tobytes()
    assert rng.random() == choice_rng.random()  # one draw taken by each


# ---------------------------------------------------------------------------
# Oracle: the step circuit applied gate by gate to the 2n-qubit register
# ---------------------------------------------------------------------------

def _physical(gate, regmap, n):
    return Gate(gate.kind, tuple(regmap.now[q] if q < n else regmap.future[q - n]
                                 for q in gate.qubits))


def _oracle_step(scheme, n, register, regmap, noise, rng):
    """Noise, gates, measure-reset; returns (pre-reset amplitudes, sum<Z>)."""
    if noise.kind == "incoherent":
        for q in regmap.now:
            if rng.random() < noise.p:
                apply_gate(register, Gate("X", (q,)))
    elif noise.kind == "coherent":
        for q in regmap.now:
            apply_gate(register, Gate("RX", (q,), noise.theta))
    for gate in build_step(scheme, n).gates():
        physical = _physical(gate, regmap, n)
        apply_gate(register, physical)
        if noise.kind == "depolarizing":
            apply_depolarizing_after_gate(register, physical.qubits, noise.p, rng)
    assert abs(register.norm() - 1.0) < 1e-10
    pre = register.amps.copy()
    measure_reset(register, regmap.now, rng)
    return pre, expectation_z_sum(register, regmap.future)


def _future_columns(amps, n, now_is_lower):
    """columns[o][f]: amplitude with now bits o and future bits f."""
    block = amps.reshape(1 << n, 1 << n)  # rows: upper-half qubits
    return block.T if now_is_lower else block


def _dense_register(n, phi):
    """cos(phi)|0..0> + i sin(phi)|1..1> on the now qubits of the 2n-qubit register."""
    register = StateVector(2 * n, np.zeros(1 << 2 * n, dtype=complex))
    register.amps[0] = math.cos(phi)
    register.amps[(1 << n) - 1] = 1j * math.sin(phi)
    return register


def _future_state(state, n, regmap):
    """The post-step now register as an n-qubit vector; a sparse register's now qubits are 0
    and its entries are magnitudes."""
    if not isinstance(state, SparseRegister):
        return state.amps
    assert all(b >> regmap.now[0] & ((1 << n) - 1) == 0 for b in state.index)
    amps = np.zeros(1 << n)
    amps[[b >> regmap.future[0] & ((1 << n) - 1) for b in state.index]] = state.amps
    return amps


def _outcomes_leaving(pre, post, n, now_is_lower):
    """Reset outcomes whose renormalized future state is ``post``."""
    found = []
    for o, column in enumerate(_future_columns(pre, n, now_is_lower)):
        weight = np.linalg.norm(column)
        if weight > 1e-9 and np.abs(column / weight - post).max() < 1e-12:
            found.append(o)
    return found


@pytest.mark.parametrize("scheme", ["q232", "qtlv"])
@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("noise", [NoiseModel("none"), NoiseModel("incoherent", 0.2),
                                   NoiseModel("coherent", 0.1), NoiseModel("depolarizing", 0.1),
                                   NoiseModel("depolarizing", 1.0)],
                         ids=lambda m: f"{m.kind}-{m.p}" if m.kind == "depolarizing" else m.kind)
def test_step_matches_gate_level_register(scheme, n, noise):
    stepper = QcaStepper(scheme, n)
    for trial in range(3):
        rng, oracle_rng = trajectory_rng(11, trial), trajectory_rng(11, trial)
        phi = rng.uniform(-math.pi / 4, math.pi / 4)
        oracle_rng.uniform(-math.pi / 4, math.pi / 4)
        regmap = LogicalRegisterMap.initial(n)
        if noise.kind == "depolarizing":
            state = stepper.initial_register(phi)
        else:
            state = stepper.initial_state(phi)
        register = _dense_register(n, phi)
        for _ in range(25):
            now_is_lower = regmap.now[0] == 0
            zsum = stepper.step_with_zsum(state, regmap, noise, rng)
            pre, oracle_zsum = _oracle_step(scheme, n, register, regmap, noise, oracle_rng)
            post = _future_columns(register.amps, n, now_is_lower)[0]
            future = _future_state(state, n, regmap)
            if noise.kind == "depolarizing":  # the sparse register holds magnitudes
                pre, post = np.abs(pre), np.abs(post)
            assert np.abs(future - post).max() < 1e-12
            assert abs(zsum - oracle_zsum) < 1e-12
            outcomes = _outcomes_leaving(pre, post, n, now_is_lower)
            assert outcomes and outcomes == _outcomes_leaving(pre, future, n, now_is_lower)
            if noise.kind == "depolarizing":  # the same terms, bit for bit
                nonzero = np.flatnonzero(register.amps)
                order = np.argsort(state.index)
                assert nonzero.tolist() == sorted(state.index)
                amps = register.amps[nonzero]
                assert np.abs(amps).tobytes() == state.amps[order].tobytes()
                # Each amplitude lies on the real or the imaginary axis, so its
                # magnitude is one component's absolute value, exactly.
                assert ((amps.real == 0) | (amps.imag == 0)).all()
            regmap = regmap.swapped()


@pytest.mark.parametrize("scheme", ["q232", "qtlv"])
def test_depolarizing_step_without_kicks_matches_noiseless_step(scheme):
    # At p = 0 the gate-by-gate path draws only the reset, like the n-qubit path.
    n = 6
    stepper = QcaStepper(scheme, n)
    rng, register_rng = np.random.default_rng(3), np.random.default_rng(3)
    regmap = LogicalRegisterMap.initial(n)
    state = stepper.initial_state(0.4)
    register = stepper.initial_register(0.4)
    for _ in range(6):
        zsum = stepper.step_with_zsum(state, regmap, NoiseModel("none"), rng)
        register_zsum = stepper.step_with_zsum(register, regmap,
                                               NoiseModel("depolarizing", 0.0), register_rng)
        future = _future_state(register, n, regmap)
        assert np.abs(state.amps).tobytes() == future.tobytes()
        assert abs(zsum - register_zsum) < 1e-12
        regmap = regmap.swapped()


def test_step_refuses_a_state_of_the_wrong_size():
    stepper = QcaStepper("q232", 4)
    regmap = LogicalRegisterMap.initial(4)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        stepper.step_with_zsum(stepper.initial_state(0.1), regmap,
                               NoiseModel("depolarizing", 0.1), rng)
    with pytest.raises(ValueError):
        stepper.step_with_zsum(stepper.initial_register(0.1), regmap,
                               NoiseModel("coherent", 0.1), rng)


def test_sparse_register_refuses_a_third_amplitude():
    with pytest.raises(ValueError):
        SparseRegister(4, [0, 1, 2], [0.6, 0.6, 0.52915026])
    with pytest.raises(ValueError):
        SparseRegister(4, [3, 3], [0.6, 0.8])
    with pytest.raises(ValueError):
        SparseRegister(4, [16], [1.0])
    register = SparseRegister(4, [0, 3], [0.6, 0.8])
    assert register.index == [0, 3] and register.amps.tolist() == [0.6, 0.8]
    assert register.amps.dtype == np.float64


@pytest.mark.parametrize("phi", [0.3, -0.3, 0.0, -0.0])
def test_initial_register_holds_the_dense_initial_magnitudes(phi):
    stepper = QcaStepper("q232", 4)
    register = stepper.initial_register(phi)
    dense = _dense_register(4, phi).amps
    assert register.index == np.flatnonzero(dense).tolist()
    assert register.amps.tobytes() == np.abs(dense[register.index]).tobytes()


@pytest.mark.parametrize("scheme", ["q232", "qtlv"])
def test_every_depolarizing_kick_goes_through_apply_pauli_string(monkeypatch, scheme):
    # Tracing counts kicks by wrapping qsim.apply_pauli_string, so the step must call it
    # once for every string the dense oracle's kick draw returns on the same stream.
    n, noise, phi, steps = 4, NoiseModel("depolarizing", 0.2), 0.3, 12
    drawn, draw_kick = [], qsim.draw_depolarizing_kick
    monkeypatch.setattr(qsim, "draw_depolarizing_kick",
                        lambda *args: drawn.append(draw_kick(*args)) or drawn[-1])
    for trial in range(3):
        rng, register = trajectory_rng(5, trial), _dense_register(n, phi)
        regmap = LogicalRegisterMap.initial(n)
        for _ in range(steps):
            _oracle_step(scheme, n, register, regmap, noise, rng)
            regmap = regmap.swapped()
    monkeypatch.undo()
    applied, apply = [], qsim.apply_pauli_string
    monkeypatch.setattr(qsim, "apply_pauli_string",
                        lambda state, support, labels: applied.append(labels)
                        or apply(state, support, labels))
    stepper = QcaStepper(scheme, n)
    for trial in range(3):
        rng, state = trajectory_rng(5, trial), stepper.initial_register(phi)
        regmap = LogicalRegisterMap.initial(n)
        for _ in range(steps):
            stepper.step_with_zsum(state, regmap, noise, rng)
            regmap = regmap.swapped()
    kicks = [labels for labels in drawn if labels is not None]
    assert len(kicks) > 20 and applied == kicks
