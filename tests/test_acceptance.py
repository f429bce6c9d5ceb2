"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.

Criterion 1 is expected to fail: the faithful implementation gives a mean
flip time of 24.15 at (n=12, p=11/72), while the quoted 28.8 corresponds
to the rounded probability 1/7 (see the companion reconciliation test and
the repository notes).
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from qcadc import ca, voting
from qcadc import heisenberg as hz
from qcadc.circuits import build_step
from qcadc.experiments import (CampaignConfig, compare_backends, evaluate_fit,
                               run_campaign)
from qcadc.qsim import StateVector, apply_gate
from qcadc.reversible import extend_rule, is_involution, is_permutation, is_self_dual
from qcadc.ca import rule_from_wolfram
from oracles import (cnot_matrix, depolarizing_channel, enumerate_logical_flip,
                     exact_flip_law, expectation, geometric_mean_mc, kicked_moments,
                     noiseless_preservation, pauli_string_op, step_elementary, step_tlv,
                     toffoli_matrix)

pytestmark = pytest.mark.acceptance


def report(number: int, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE criterion {number:>2}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


@pytest.fixture(scope="module")
def tlv_anchor():
    return ca.flip_time_stats(12, "tlv", 11 / 72, trials=10_000, seed=7,
                              max_steps=1_000_000)


@pytest.fixture(scope="module")
def qca_incoherent():
    """500-trajectory QCA flip-time rows at n=8 for both schemes and both p."""
    grid_p = (1 / 6, 1 / 12)
    rows = {}
    for scheme in ("232", "tlv"):
        config = CampaignConfig("qca", scheme, tuple((8, p) for p in grid_p),
                                noise="incoherent", trials=500, seed=41,
                                max_steps=200_000)
        for (n, p), row in zip(config.grid, run_campaign(config)):
            rows[(scheme, p)] = row
    return rows


@pytest.fixture(scope="module")
def ca_reference():
    rows = {}
    for scheme in ("232", "tlv"):
        config = CampaignConfig("ca", scheme, tuple((8, p) for p in (1 / 6, 1 / 12)),
                                trials=20_000, seed=17, max_steps=200_000)
        for (n, p), row in zip(config.grid, run_campaign(config)):
            rows[(scheme, p)] = row
    return rows


def test_criterion_01_classical_tlv_anchor(tlv_anchor):
    """Expected red: see the module docstring and the reconciliation below."""
    deviation = abs(tlv_anchor.mean - 28.8) / 28.8
    passed = report(1, deviation <= 0.10,
                    f"mean {tlv_anchor.mean:.2f} vs quoted 28.8 "
                    f"(deviation {deviation:.1%}, tolerance 10%)")
    assert passed, (
        "the faithful rule at p=11/72 gives ~24.15; the quoted 28.8 matches "
        "the rounded p=1/7 (reconciliation test passes)")


def test_criterion_01_reconciliation_rounded_p():
    stats = ca.flip_time_stats(12, "tlv", 1 / 7, trials=10_000, seed=7,
                               max_steps=1_000_000)
    deviation = abs(stats.mean - 28.8) / 28.8
    print(f"ACCEPTANCE criterion  1 (reconciliation): mean {stats.mean:.2f} at the "
          f"rounded p=1/7 vs 28.8 (deviation {deviation:.1%})")
    assert deviation <= 0.10


def test_criterion_02_qca_equals_ca_incoherent(qca_incoherent, ca_reference):
    # Both rows come from the classical Monte Carlo (incoherent QCA runs are
    # its trials), so each is also held to the exact absorbing-chain mean.
    details = []
    passed = True
    for scheme in ("232", "tlv"):
        for p in (1 / 6, 1 / 12):
            qca, classical = qca_incoherent[(scheme, p)], ca_reference[(scheme, p)]
            comparison = compare_backends(qca, classical)
            exact = exact_flip_law(232 if scheme == "232" else "tlv", 8, p, 1)[2]
            off = [abs(row.mean - exact) / row.stderr for row in (qca, classical)]
            details.append(f"{scheme}@1/{round(1/p)}: z={comparison.z_score:.2f}, "
                           f"QCA {qca.mean:.2f} ({off[0]:.2f} se) and CA {classical.mean:.2f} "
                           f"({off[1]:.2f} se) vs exact {exact:.4f}")
            passed = passed and comparison.passed and max(off) < 4
    assert report(2, passed, "QCA vs CA flip-time means, " + "; ".join(details))


def test_criterion_03_noiseless_preservation():
    rng = np.random.default_rng(2024)
    worst = 1.0
    flips = 0
    for scheme in ("q232", "qtlv"):
        for n in (4, 6, 8):
            for phi in rng.uniform(-math.pi / 4 + 1e-9, math.pi / 4 - 1e-9, size=20):
                fid, flipped = noiseless_preservation(scheme, n, float(phi), 10)
                worst = min(worst, fid)
                flips += flipped
    passed = worst >= 1 - 1e-10 and flips == 0
    assert report(3, passed, f"worst fidelity {worst:.2e} over 120 runs, {flips} flips")


def test_criterion_04_circuit_basis_equivalence():
    from qcadc.circuits import basis_action
    passed = True
    for scheme in ("q232", "qtlv"):
        for n in (4, 6, 8, 10):
            inputs = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)
            gates = [g.qubits for g in build_step(scheme, n).gates()]
            future = basis_action(np.arange(2**n), gates) >> n  # |b>|0> -> |b ^ M(b)>|M(b)>
            out = ((future[:, None] >> np.arange(n)) & 1).astype(np.uint8)
            for row_in, got in zip(inputs, out):
                expect = step_elementary(row_in, 232) if scheme == "q232" else step_tlv(row_in)
                passed = passed and np.array_equal(got, expect)
    assert report(4, passed, "future register == classical update, all 2^n inputs, n <= 10")


def test_criterion_05_reversibilization():
    ok = True
    for code in range(256):
        ext = extend_rule(rule_from_wolfram(code))
        ok = ok and is_involution(ext) and is_permutation(ext)
    verdicts = (is_self_dual(rule_from_wolfram(232)),
                not is_self_dual(rule_from_wolfram(184)),
                is_self_dual(rule_from_wolfram(51)))
    passed = ok and all(verdicts)
    assert report(5, passed, "256 involutive permutations; self-duality 232/184/51 verdicts")


def test_criterion_06_global_voting_exactness():
    worst = 0.0
    for n in range(1, 13):
        for t in (1, 2, 3):
            for p in (0.07, 0.21):
                pt = voting.flip_prob_after(t, p)
                worst = max(worst, abs(voting.logical_flip_prob(n, t, p)
                                       - enumerate_logical_flip(n, pt)))
    exact_ok = voting.flip_prob_after(2, Fraction(1, 12)) == Fraction(11, 72)
    mc_ok = True
    for prob, seed in ((0.05, 11), (0.2, 12)):
        mean, err = geometric_mean_mc(prob, 100_000, seed)
        mc_ok = mc_ok and abs(mean - 1 / prob) < 3 * err
    passed = worst < 1e-12 and exact_ok and mc_ok
    assert report(6, passed, f"enumeration max dev {worst:.2e}; p(2)=11/72 exact; "
                             f"geometric MC within 3 stderr")


def test_criterion_07_heisenberg_checks():
    results = hz.heisenberg_report("q232") + hz.heisenberg_report("qtlv")
    passed = all(r.passed for r in results)
    failed = [r.name for r in results if not r.passed]
    assert report(7, passed, f"{len(results)} window checks" +
                  (f"; failed: {failed}" if failed else ""))


def test_criterion_08_depth_and_decomposition():
    depth_ok = all(build_step(scheme, n).depth == 7
                   for scheme in ("q232", "qtlv") for n in range(4, 17, 2))
    from qcadc.circuits import Circuit, _toffoli_network
    network = Circuit("x", 1, tuple(tuple(s) for s in _toffoli_network(2, 1, 0)))
    U = np.eye(8, dtype=complex)
    for k in range(8):
        state = StateVector(3, U[:, k].copy())
        for gate in network.gates():
            apply_gate(state, gate)
        U[:, k] = state.amps
    decomposition_dev = float(np.abs(U - toffoli_matrix()).max())
    passed = depth_ok and decomposition_dev < 1e-12
    assert report(8, passed, f"depth 7 for even n in 4..16 both regimes; "
                             f"decomposition dev {decomposition_dev:.1e}")


def test_criterion_09_island_growth():
    two = ca.island_growth_enumeration(2)
    three = ca.island_growth_enumeration(3)
    five = ca.island_growth_enumeration(5)
    passed = (two.growth_probability == Fraction(2, 3)
              and three.growth_probability == Fraction(4, 7)
              and five.grow_ways == five.shrink_ways)
    assert report(9, passed, f"k=2: {two.growth_probability}, k=3: "
                             f"{three.growth_probability}, k=5: {five.grow_ways}="
                             f"{five.shrink_ways}")


def test_criterion_10_depolarizing_equivalence():
    worst_z = 0.0
    for kind, qubits, start in (("TOFFOLI", (2, 1, 0), 0b110), ("CNOT", (1, 0), 0b10)):
        num_qubits = len(qubits)
        obs = {"Z0": {0: "Z"}, "Ztop": {num_qubits - 1: "Z"},
               "X0": {0: "X"}, "ZZ": {0: "Z", 1: "Z"}}
        ops = {name: pauli_string_op(num_qubits, pl) for name, pl in obs.items()}
        for p in (0.05, 0.2):
            rng = np.random.default_rng(int(p * 1000) + num_qubits)
            runs = 100_000
            moments = kicked_moments(kind, qubits, start, p, runs, rng, ops)
            gate = toffoli_matrix() if kind == "TOFFOLI" else cnot_matrix()
            rho = np.zeros((1 << num_qubits, 1 << num_qubits), dtype=complex)
            rho[start, start] = 1.0
            rho = depolarizing_channel(gate @ rho @ gate.conj().T, num_qubits, p)
            for name, op in ops.items():
                total, squares = moments[name]
                mean = total / runs
                stderr = math.sqrt(max(squares / runs - mean**2, 0.0) / runs)
                z = abs(mean - expectation(rho, op)) / max(stderr, 1e-12)
                worst_z = max(worst_z, z)
    assert report(10, worst_z <= 3.0,
                  f"trajectory vs exact channel, worst z = {worst_z:.2f} over "
                  f"Toffoli/CNOT x p in {{0.05, 0.2}} x 4 observables")


def test_criterion_11_circuit_noise_damping(qca_incoherent):
    config = CampaignConfig("qca", "232", ((8, 1 / 12),), noise="depolarizing",
                            trials=500, seed=43, max_steps=200_000)
    depol = run_campaign(config)[0]
    incoherent = qca_incoherent[("232", 1 / 12)]
    z = abs(depol.mean - incoherent.mean) / math.hypot(depol.stderr, incoherent.stderr)
    passed = depol.mean < incoherent.mean and z > 3.0
    assert report(11, passed, f"depolarizing mean {depol.mean:.1f} < incoherent "
                              f"{incoherent.mean:.1f} with z = {z:.1f}")


def test_criterion_12_fit_consistency(tlv_anchor):
    fit_anchor = evaluate_fit(11 / 72, 12)
    anchor_dev = abs(fit_anchor - tlv_anchor.mean) / tlv_anchor.mean
    sweep_devs = {}
    for inv_p, trials, seed in ((10, 4000, 110), (16, 1500, 116)):
        stats = ca.flip_time_stats(20, "tlv", 1 / inv_p, trials, seed,
                                   max_steps=2_000_000)
        sweep_devs[inv_p] = abs(evaluate_fit(1 / inv_p, 20) - stats.mean) / stats.mean
    passed = anchor_dev <= 0.15 and all(d <= 0.35 for d in sweep_devs.values())
    assert report(12, passed,
                  f"fit vs MC: anchor dev {anchor_dev:.1%} (<=15%), sweep devs "
                  + ", ".join(f"1/p={k}: {v:.1%}" for k, v in sweep_devs.items())
                  + " (<=35%)")


def test_criterion_13_coherent_qtlv_anchor():
    """500 coherent QTLV trajectories on 12 cells (the n-qubit stepper takes ~1 ms a step)."""
    config = CampaignConfig("qca", "tlv", ((12, 11 / 72),), noise="coherent",
                            trials=500, seed=47, max_steps=100_000)
    row = run_campaign(config)[0]
    deviation = abs(row.mean - 28.3) / 28.3
    passed = report(13, deviation <= 0.15,
                    f"coherent QTLV mean {row.mean:.1f} vs quoted 28.3 "
                    f"(deviation {deviation:.1%}, tolerance 15%)")
    assert passed
