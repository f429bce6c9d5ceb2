"""QCA trajectories: recorded flip times, exact reset sums, and a gate-level
oracle on the full 2n-qubit register for the n-qubit and the sparse
depolarizing steps and for the incoherent runs, which are trials of the
classical flip-time Monte Carlo, with a plain-int register as the
reference for wide depolarizing runs."""
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcadc import ca, circuits, packed, qsim
from qcadc.circuits import (ExactBlockSum, NoiseModel, QcaStepper, build_step, trajectory_rng,
                            two_term_outcome)
from qcadc.experiments import qca_flip_times
from qcadc.qsim import (Gate, SparseRegister, StateVector, apply_depolarizing_after_gate,
                        apply_gate, expectation_z_sum, measure_reset)
from qcadc.rng import bernoulli_matrix
from oracles import LogicalRegisterMap, depolarizing_flip_time, step_elementary, step_tlv

RECORDED = json.loads((Path(__file__).parent / "data" / "qca_flip_times.json").read_text())


@pytest.mark.parametrize("case", RECORDED,
                         ids=[f"{c['scheme']}-{c['n']}-{c['noise']}" for c in RECORDED])
def test_flip_times_match_recorded_arrays(case):
    # Coherent and depolarizing arrays were recorded with the 2n-qubit
    # permutation stepper.  Several of their trajectories reach sum<Z> = 0 up
    # to rounding, so a reset summed in any other order changes their flip
    # times.  The incoherent array is the flip-time Monte Carlo at its seed.
    times = qca_flip_times(case["scheme"], case["n"], float(Fraction(case["p"])),
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

def _oracle_step(scheme, n, register, regmap, noise, rng, flips=()):
    """Noise, gates, measure-reset; returns (pre-reset amplitudes, sum<Z>).
    Incoherent noise is X on now cell c wherever ``flips[c]`` is set."""
    if noise.kind == "incoherent":
        for q, flip in zip(regmap.now, flips, strict=True):
            if flip:
                apply_gate(register, Gate("X", (q,)))
    elif noise.kind == "coherent":
        for q in regmap.now:
            apply_gate(register, Gate("RX", (q,), noise.theta))
    for gate in build_step(scheme, n).gates():
        physical = Gate(gate.kind, tuple(regmap.physical(q) for q in gate.qubits))
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


def _future_state(state, n):
    """The post-step now register as an n-qubit vector; a sparse register holds it in its
    low n bits, the high n bits 0, and its entries are magnitudes."""
    if not isinstance(state, SparseRegister):
        return state.amps
    assert all(b >> n == 0 for b in state.index)
    amps = np.zeros(1 << n)
    amps[state.index] = state.amps
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
@pytest.mark.parametrize("noise", [NoiseModel("none"),
                                   NoiseModel("coherent", 0.1), NoiseModel("depolarizing", 0.1),
                                   NoiseModel("depolarizing", 1.0)],
                         ids=lambda m: f"{m.kind}-{m.p}" if m.kind == "depolarizing" else m.kind)
def test_step_matches_gate_level_register(scheme, n, noise):
    stepper = QcaStepper(scheme, n, noise)
    for trial in range(3):
        rng, oracle_rng = trajectory_rng(11, trial), trajectory_rng(11, trial)
        phi = rng.uniform(-math.pi / 4, math.pi / 4)
        oracle_rng.uniform(-math.pi / 4, math.pi / 4)
        regmap = LogicalRegisterMap.initial(n)
        state = stepper.initial_state(phi)
        register = _dense_register(n, phi)
        for t in range(1, 26):
            now_is_lower = regmap.now[0] == 0
            zsum = stepper.step_with_zsum(state, t, rng)
            pre, oracle_zsum = _oracle_step(scheme, n, register, regmap, noise, oracle_rng)
            post = _future_columns(register.amps, n, now_is_lower)[0]
            future = _future_state(state, n)
            if noise.kind == "depolarizing":  # the sparse register holds magnitudes
                pre, post = np.abs(pre), np.abs(post)
            assert np.abs(future - post).max() < 1e-12
            assert abs(zsum - oracle_zsum) < 1e-12
            outcomes = _outcomes_leaving(pre, post, n, now_is_lower)
            assert outcomes and outcomes == _outcomes_leaving(pre, future, n, now_is_lower)
            if noise.kind == "depolarizing":  # the same terms, bit for bit
                nonzero = np.flatnonzero(register.amps)
                order = np.argsort(state.index)
                # The dense register's now bits are 0, so its future bits order its terms.
                assert [b >> regmap.future[0] for b in nonzero] == sorted(state.index)
                amps = register.amps[nonzero]
                assert np.abs(amps).tobytes() == state.amps[order].tobytes()
                # Each amplitude lies on the real or the imaginary axis, so its
                # magnitude is one component's absolute value, exactly.
                assert ((amps.real == 0) | (amps.imag == 0)).all()
            regmap = regmap.swapped()


def _oracle_flip_time(scheme, n, p, phi, seed, trial, max_steps):
    """First step at which the gate-level register's sum<Z> < 0, -1 if none by max_steps,
    under X flips from trial ``trial``'s hashed rows at ``seed``.  Each reset outcome
    has probability 1, so any generator draws it."""
    if phi is None:
        phi = np.random.default_rng(trial).uniform(-math.pi / 4, math.pi / 4)
    register, regmap = _dense_register(n, phi), LogicalRegisterMap.initial(n)
    noise, reset_rng = NoiseModel("incoherent", p), np.random.default_rng(0)
    for t in range(1, max_steps + 1):
        flips = packed.unpack_bits(bernoulli_matrix(seed, np.array([trial]), t, n, p), n)[0]
        _, zsum = _oracle_step(scheme, n, register, regmap, noise, reset_rng, flips)
        regmap = regmap.swapped()
        if zsum < 0.0:
            return t
    return -1


@pytest.mark.parametrize("scheme", ["232", "tlv"])
@pytest.mark.parametrize("n, p", [(4, 0.1), (4, 0.3), (6, 1 / 7)], ids=["4-0.1", "4-0.3", "6-1/7"])
@pytest.mark.parametrize("phi", [None, 0.3, math.nextafter(math.pi / 4, 0)],
                         ids=["drawn-phi", "phi-0.3", "phi-below-pi/4"])
def test_incoherent_flip_times_match_the_gate_level_register(scheme, n, p, phi):
    # Incoherent trajectory k is trial k of the flip-time Monte Carlo at the same seed,
    # whatever its angle; the dense 2n-qubit register takes the same hashed flips.
    trials, seed, max_steps = 10, 23, 40
    times = qca_flip_times(scheme, n, p, "incoherent", trials, seed, max_steps, phi)
    expected = [_oracle_flip_time("q" + scheme, n, p, phi, seed, k, max_steps)
                for k in range(trials)]
    assert times.tolist() == expected
    rule = 232 if scheme == "232" else "tlv"
    assert times.tolist() == ca._batch_flip_times(n, rule, p, seed, np.arange(trials),
                                                  max_steps).tolist()
    assert (times > 0).any()


def _classical_flip_time(scheme, n, p, seed, trial, max_steps):
    """Trial ``trial`` of the flip-time Monte Carlo on plain arrays: per step, its
    hashed flip row, then the plain-array rule and a strict-majority test."""
    cells = np.zeros(n, dtype=np.uint8)
    for t in range(1, max_steps + 1):
        cells ^= packed.unpack_bits(bernoulli_matrix(seed, np.array([trial]), t, n, p), n)[0]
        cells = step_tlv(cells) if scheme == "tlv" else step_elementary(cells, 232)
        if 2 * int(cells.sum()) > n:
            return t
    return -1


@pytest.mark.parametrize("scheme, n, p", [("232", 64, 0.3), ("tlv", 64, 0.3),
                                          ("232", 256, 0.45), ("tlv", 256, 0.45)])
def test_incoherent_runs_at_wide_lattices(scheme, n, p):
    # A 2^n-amplitude state cannot be held here; the classical route needs n bits.
    trials, seed, max_steps = 6, 5, 60
    times = qca_flip_times(scheme, n, p, "incoherent", trials, seed, max_steps)
    assert times.tolist() == [_classical_flip_time(scheme, n, p, seed, k, max_steps)
                              for k in range(trials)]
    assert (times > 0).any()


@pytest.mark.parametrize("scheme", ["232", "tlv"])
@pytest.mark.parametrize("n", [4, 6, 64])
def test_noiseless_runs_end_censored(scheme, n):
    assert qca_flip_times(scheme, n, 0.5, "none", 5, seed=3, max_steps=30).tolist() == [-1] * 5


def test_zero_trajectories_take_no_steps_and_fewer_are_refused():
    for noise in ("none", "incoherent", "coherent", "depolarizing"):
        assert qca_flip_times("tlv", 6, 0.1, noise, 0, seed=0, max_steps=10**12).size == 0
        with pytest.raises(ValueError, match="trajectory count must be non-negative, got -1"):
            qca_flip_times("tlv", 6, 0.1, noise, -1, seed=0, max_steps=5)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            qca_flip_times("232", 8, 0.1, noise, 0, seed=-1, max_steps=10)


def test_stepper_refuses_incoherent_steps():
    with pytest.raises(ValueError, match="qca_flip_times"):
        QcaStepper("q232", 4, NoiseModel("incoherent", 0.1))


@pytest.mark.parametrize("n", [30, 64])
def test_stepper_refuses_sizes_over_the_memory_budget(n):
    with pytest.raises(ValueError, match=f"n = {n} cells needs ~[0-9,]+ bytes"):
        QcaStepper("qtlv", n, NoiseModel("coherent", 0.1))


def test_depolarizing_stepper_refuses_n_over_its_estimate_before_building(monkeypatch):
    def build_step(*args):
        raise AssertionError("the step circuit was built")
    monkeypatch.setattr(circuits, "build_step", build_step)
    n = 40_000
    assert circuits.DEPOLARIZING_BYTES_PER_CELL_SQUARED * n * n > circuits.STEPPER_BYTES_BUDGET
    with pytest.raises(ValueError, match=f"n = {n} cells needs ~[0-9,]+ bytes"):
        QcaStepper("qtlv", n, NoiseModel("depolarizing", 0.1))


# (scheme, n, p, noise, trajectories, seed, max_steps): runs with both flipped and
# censored trajectories.
LOOP_RUNS = [("tlv", 6, 0.15, "coherent", 12, 4, 30), ("232", 6, 0.1, "depolarizing", 20, 3, 15)]


@pytest.mark.parametrize("scheme, n, p, noise, trials, seed, max_steps", LOOP_RUNS,
                         ids=["coherent", "depolarizing"])
def test_each_live_trajectory_is_stepped_once_per_step(monkeypatch, scheme, n, p, noise,
                                                       trials, seed, max_steps):
    steps = []
    step_with_zsum = QcaStepper.step_with_zsum

    def counted(self, state, t, rng):
        steps.append(t)
        return step_with_zsum(self, state, t, rng)
    monkeypatch.setattr(QcaStepper, "step_with_zsum", counted)
    times = qca_flip_times(scheme, n, p, noise, trials, seed, max_steps).tolist()
    assert min(times) == -1 and max(times) > 0
    assert len(steps) == sum(t if t > 0 else max_steps for t in times)
    # Step t takes exactly the trajectories that had not flipped before it.
    for t in range(1, max_steps + 1):
        assert steps.count(t) == sum(1 for time in times if time < 0 or time >= t)


def _budget_for_group(n, noise, group):
    """A budget that leaves a stepper's tables room for exactly ``group`` trajectories."""
    if noise == "depolarizing":
        tables, state = circuits.DEPOLARIZING_BYTES_PER_CELL_SQUARED * n * n, n // 2
    else:
        tables, state = circuits.STEPPER_BYTES_PER_STATE << n, 16 << n
    return tables + group * (circuits.TRAJECTORY_BYTES + state)


@pytest.mark.parametrize("scheme, n, p, noise, trials, seed, max_steps", LOOP_RUNS,
                         ids=["coherent", "depolarizing"])
def test_trajectory_groups_leave_flip_times_unchanged(monkeypatch, scheme, n, p, noise,
                                                      trials, seed, max_steps):
    assert QcaStepper("q" + scheme, n, NoiseModel(noise, p)).group_size >= trials
    whole = qca_flip_times(scheme, n, p, noise, trials, seed, max_steps).tolist()
    for group in (1, 3):
        monkeypatch.setattr(circuits, "STEPPER_BYTES_BUDGET", _budget_for_group(n, noise, group))
        assert QcaStepper("q" + scheme, n, NoiseModel(noise, p)).group_size == group
        assert qca_flip_times(scheme, n, p, noise, trials, seed, max_steps).tolist() == whole


def test_tables_and_live_trajectories_stay_within_the_budget(monkeypatch):
    # Coherent QTLV at n = 12 holds 64 KiB per state; 40 trajectories in one group
    # would hold 2.6 MB next to the tables.
    budget = _budget_for_group(12, "coherent", 4)
    monkeypatch.setattr(circuits, "STEPPER_BYTES_BUDGET", budget)
    tracemalloc.start()
    try:
        times = qca_flip_times("tlv", 12, 11 / 72, "coherent", 40, seed=5, max_steps=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (times > 0).any()
    assert peak <= budget, f"traced peak {peak:,} bytes over the {budget:,}-byte budget"


@pytest.mark.parametrize("n", [3, 7, 2, 0])
def test_odd_or_tiny_lattices_are_refused_for_every_noise_kind(n):
    for noise in ("none", "incoherent", "coherent", "depolarizing"):
        with pytest.raises(ValueError, match="needs an even cell count >= 4"):
            qca_flip_times("tlv", n, 0.1, noise, 2, seed=0, max_steps=5)


def test_qca_flip_times_refuses_the_stepper_scheme_names():
    for scheme in ("q232", "qtlv"):
        with pytest.raises(ValueError, match=f"scheme must be '232' or 'tlv', got '{scheme}'"):
            qca_flip_times(scheme, 4, 0.1, "incoherent", 2, seed=0, max_steps=5)


@pytest.mark.parametrize("scheme", ["q232", "qtlv"])
def test_depolarizing_step_without_kicks_matches_noiseless_step(scheme):
    # At p = 0 the gate-by-gate path draws only the reset, like the n-qubit path.
    n = 6
    stepper = QcaStepper(scheme, n, NoiseModel("none"))
    sparse_stepper = QcaStepper(scheme, n, NoiseModel("depolarizing", 0.0))
    rng, register_rng = np.random.default_rng(3), np.random.default_rng(3)
    state = stepper.initial_state(0.4)
    register = sparse_stepper.initial_state(0.4)
    for t in range(1, 7):
        zsum = stepper.step_with_zsum(state, t, rng)
        register_zsum = sparse_stepper.step_with_zsum(register, t, register_rng)
        future = _future_state(register, n)
        assert np.abs(state.amps).tobytes() == future.tobytes()
        assert abs(zsum - register_zsum) < 1e-12


def test_step_refuses_a_state_of_the_wrong_size():
    coherent = QcaStepper("q232", 4, NoiseModel("coherent", 0.1))
    depolarizing = QcaStepper("q232", 4, NoiseModel("depolarizing", 0.1))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        depolarizing.step_with_zsum(coherent.initial_state(0.1), 1, rng)
    with pytest.raises(ValueError):
        coherent.step_with_zsum(depolarizing.initial_state(0.1), 1, rng)
    with pytest.raises(ValueError):
        coherent.step_with_zsum(QcaStepper("q232", 6, NoiseModel("none")).initial_state(0.1),
                                1, rng)


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
    register = QcaStepper("q232", 4, NoiseModel("depolarizing", 0.1)).initial_state(phi)
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
    stepper = QcaStepper(scheme, n, noise)
    for trial in range(3):
        rng, state = trajectory_rng(5, trial), stepper.initial_state(phi)
        for t in range(1, steps + 1):
            stepper.step_with_zsum(state, t, rng)
    kicks = [labels for labels in drawn if labels is not None]
    assert len(kicks) > 20 and applied == kicks


@pytest.mark.parametrize("scheme", ["232", "tlv"])
@pytest.mark.parametrize("n, p", [(64, 0.0), (64, 0.1), (256, 0.0), (256, 0.2)])
def test_depolarizing_runs_at_wide_lattices_match_the_plain_int_register(scheme, n, p):
    # The sparse register holds two 2n-bit indices at any n; the reference steps the same
    # trajectories in the dense register's alternating labeling.
    trials, seed, max_steps = 4, 13, 12
    times = qca_flip_times(scheme, n, p, "depolarizing", trials, seed, max_steps)
    circuit = build_step("q" + scheme, n)
    expected = []
    for k in range(trials):
        rng = trajectory_rng(seed, k)
        phi = rng.uniform(-math.pi / 4, math.pi / 4)
        expected.append(depolarizing_flip_time(circuit, p, phi, max_steps, rng))
    assert times.tolist() == expected
    assert (times > 0).any() == (p > 0)
