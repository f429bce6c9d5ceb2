"""Finite-window Heisenberg checks: invariance, locality, expansions."""
import numpy as np
import pytest

from qcadc import heisenberg as hz
from qcadc.circuits import build_step
from oracles import dense_support, densify, pauli_string_op, reference_window_locals


def test_q232_window_shape():
    spec = hz.q232_window()
    assert spec.num_qubits == 9
    assert ("past", 0, 0) in spec and ("now", 0, -2) in spec and ("future", 0, 1) in spec


def test_qtlv_window_shape():
    spec = hz.qtlv_window()
    assert spec.num_qubits == 12
    assert ("now", -1, 2) in spec and ("future", -1, 0) in spec


def test_q232_window_unitary_and_commutation():
    spec = hz.q232_window()
    perm = hz.build_window_unitary(spec)
    assert np.array_equal(np.sort(perm), np.arange(512))
    assert hz.locals_pairwise_commute(spec)


def test_thirteen_qubit_window_builds_a_bijection():
    # past center, now -3..3, future -2..2: five full locals on 13 qubits
    cells = [("past", 0, 0)] + [("now", 0, d) for d in range(-3, 4)]
    cells += [("future", 0, d) for d in range(-2, 3)]
    spec = hz.WindowSpec("q232", tuple(cells))
    assert spec.num_qubits == 13 and len(hz.window_locals(spec)) == 5
    perm = hz.build_window_unitary(spec)
    assert np.array_equal(np.sort(perm), np.arange(1 << 13))
    # the extra cells leave the center's sigma-x expansion unchanged
    ox = hz.conjugate_pauli(perm, spec.qubit(("now", 0, 0)), "X")
    expansion = hz.projector_expansion(ox, 13)
    assert expansion.term_count == 16 and expansion.residual < 1e-10


@pytest.mark.parametrize("scheme", ["q232", "qtlv"])
@pytest.mark.parametrize("n", [8, 10, 12])
def test_step_toffolis_are_the_shifted_stencil(scheme, n):
    # n = 8 and 12 pack q232 in its n % 4 == 0 layers, n = 10 in the other;
    # qtlv strings of 4 and 6 cells take its even layers, 5 its odd ones.
    width = n if scheme == "q232" else n // 2

    def cell(qubit):  # (string, site) of a now or future qubit
        c = qubit % n
        return (0 if scheme == "q232" else 1 if c < width else -1), c % width

    written = {}
    for gate in build_step(scheme, n).gates():
        if gate.kind == "TOFFOLI":
            controls = frozenset(map(cell, gate.qubits[:-1]))
            written.setdefault(cell(gate.qubits[-1]), set()).add(controls)
    stencils = hz.toffoli_stencils(scheme)
    assert len(written) == n
    for (j, k), pairs in written.items():
        assert pairs == {frozenset((s, (k + d) % width) for s, d in pair) for pair in stencils[j]}


def _gate_sets(locals_):
    """Each local as a set of gates, a Toffoli's two controls unordered."""
    return [{(frozenset(gate[:-1]), gate[-1]) for gate in local} for local in locals_]


@pytest.mark.parametrize("spec, strings", [
    (hz.q232_window(), (1, -1)),
    (hz.qtlv_window(), (1, -1)), (hz.qtlv_window(), (1,)), (hz.qtlv_window(), (-1,)),
    (hz.WindowSpec("q232", tuple([("past", 0, 0)] + [("now", 0, d) for d in range(-3, 4)]
                                 + [("future", 0, d) for d in range(-2, 3)])), (1, -1)),
])
def test_window_locals_match_the_reference_neighbourhoods(spec, strings):
    locals_ = hz.window_locals(spec, strings)
    assert locals_ and _gate_sets(locals_) == _gate_sets(reference_window_locals(spec, strings))


def test_q232_basis_action_majority():
    # now = 01110 around the center writes majority 1 onto the future center
    spec = hz.q232_window()
    perm = hz.build_window_unitary(spec)
    index = sum(1 << spec.qubit(("now", 0, d)) for d in (-1, 0, 1))
    image = perm[index]
    assert (image >> spec.qubit(("future", 0, 0))) & 1 == 1
    # all-zero window is fixed
    assert perm[0] == 0


def test_q232_sigma_z_invariant():
    spec = hz.q232_window()
    U = hz.build_window_unitary(spec)
    center = spec.qubit(("now", 0, 0))
    oz = hz.conjugate_pauli(U, center, "Z")
    assert oz.support == (center,)
    signs = 1.0 - 2.0 * ((np.arange(512) >> center) & 1)
    assert np.array_equal(oz.rows, np.arange(512))
    assert np.array_equal(oz.values, signs)


@pytest.mark.parametrize("kind", "XYZ")
def test_q232_conjugation_matches_dense_oracle(kind):
    spec = hz.q232_window()
    perm = hz.build_window_unitary(spec)
    U = densify(perm, np.ones(perm.size))
    for q in range(spec.num_qubits):
        op = hz.conjugate_pauli(perm, q, kind)
        dense = U.T @ pauli_string_op(9, {q: kind}) @ U
        assert np.array_equal(densify(op.rows, op.values), dense)
        assert op.support == dense_support(dense, 9)


@pytest.mark.parametrize("kind", "XYZ")
def test_conjugation_by_a_cyclic_shift_matches_dense_oracle(kind):
    # window unitaries are involutions; b -> b + 1 mod 8 is not, so this
    # separates U^dagger P U from U P U^dagger
    perm = (np.arange(8) + 1) % 8
    U = densify(perm, np.ones(8))
    for q in range(3):
        op = hz.conjugate_pauli(perm, q, kind)
        dense = U.T @ pauli_string_op(3, {q: kind}) @ U
        assert np.array_equal(densify(op.rows, op.values), dense)
        assert op.support == dense_support(dense, 3)


def test_q232_sigma_x_expansion():
    spec = hz.q232_window()
    U = hz.build_window_unitary(spec)
    ox = hz.conjugate_pauli(U, spec.qubit(("now", 0, 0)), "X")
    assert set(ox.support) <= set(range(9))
    future = {spec.qubit(("future", 0, d)) for d in (-1, 0, 1)}
    assert len(future & set(ox.support)) <= 3
    expansion = hz.projector_expansion(ox, 9)
    assert expansion.term_count == 16
    assert expansion.residual < 1e-10
    # every term flips the center and the past cell
    center = spec.qubit(("now", 0, 0))
    past = spec.qubit(("past", 0, 0))
    for term in expansion.terms:
        assert center in term.flip_pattern and past in term.flip_pattern
    # reconstruction from term entries
    total = np.zeros((512, 512), dtype=complex)
    for term in expansion.terms:
        rows, cols, values = hz.term_entries(term, 9)
        total[rows, cols] += values
    assert np.abs(total - densify(ox.rows, ox.values)).max() < 1e-10


def test_expansion_flags_corrupted_operator():
    spec = hz.q232_window()
    U = hz.build_window_unitary(spec)
    ox = hz.conjugate_pauli(U, spec.qubit(("now", 0, 0)), "X")
    corrupted = ox.values.copy()
    corrupted[5] += 1e-6
    bad = hz.SupportedOperator(ox.rows, corrupted, ox.support)
    assert hz.projector_expansion(bad, 9).residual > 1e-8


def test_expansion_residual_counts_entries_the_operator_lacks():
    # three columns flip qubit 0 and one is empty: the single kept term
    # (coefficient 3/4) also writes 3/4 into the empty column
    op = hz.SupportedOperator(np.array([1, 0, 3, 1]), np.array([1.0, 1.0, 1.0, 0.0]), ())
    expansion = hz.projector_expansion(op, 2)
    assert [t.coefficient for t in expansion.terms] == [0.75]
    assert expansion.residual == 0.75
    # two kept terms: the second (X on qubit 0, coefficient 5/4) also writes
    # 5/4 at row 3 of column 2, which holds only a diagonal entry
    op = hz.SupportedOperator(np.array([1, 0, 2, 2]), np.array([1.0, 2.0, 1.0, 2.0]), (0,))
    expansion = hz.projector_expansion(op, 2)
    assert [t.coefficient for t in expansion.terms] == [0.25, 1.25]
    assert expansion.residual == 1.25


def test_sigma_z_single_term_expansion():
    # sigma-z = pi+ - pi- on the center, with no flips
    spec = hz.q232_window()
    U = hz.build_window_unitary(spec)
    center = spec.qubit(("now", 0, 0))
    oz = hz.conjugate_pauli(U, center, "Z")
    expansion = hz.projector_expansion(oz, 9)
    assert [(t.projector_pattern, t.flip_pattern, t.coefficient) for t in expansion.terms] == [
        (((center, "+"),), (), 1), (((center, "-"),), (), -1)]
    assert expansion.residual == 0.0


def test_homomorphism_spot_check():
    spec = hz.q232_window()
    U = hz.build_window_unitary(spec)
    center = spec.qubit(("now", 0, 0))
    ox = hz.conjugate_pauli(U, center, "X")
    oy = hz.conjugate_pauli(U, center, "Y")
    oz = hz.conjugate_pauli(U, center, "Z")
    product = densify(ox.rows, ox.values) @ densify(oy.rows, oy.values)
    assert np.abs(product - 1j * densify(oz.rows, oz.values)).max() < 1e-10


def test_qtlv_expansions():
    spec = hz.qtlv_window()
    U_plus = hz.build_window_unitary(spec, strings=(1,))
    center = spec.qubit(("now", 1, 0))
    other = spec.qubit(("now", -1, 0))

    same = hz.projector_expansion(hz.conjugate_pauli(U_plus, center, "X"), 12)
    assert same.term_count == 16 and same.residual < 1e-10

    cross_op = hz.conjugate_pauli(U_plus, other, "X")
    cross = hz.projector_expansion(cross_op, 12)
    assert cross.term_count == 4 and cross.residual < 1e-10
    cells = {spec.cells[q] for q in cross_op.support}
    assert cells == {("now", 1, -2), ("now", 1, -1), ("now", -1, 0), ("future", 1, 0)}


def test_qtlv_total_expansion_composes_to_64():
    spec = hz.qtlv_window()
    U_both = hz.build_window_unitary(spec, strings=(1, -1))
    U_plus = hz.build_window_unitary(spec, strings=(1,))
    U_minus = hz.build_window_unitary(spec, strings=(-1,))
    center = spec.qubit(("now", 1, 0))

    outer = hz.projector_expansion(hz.conjugate_pauli(U_plus, center, "X"), 12)
    inner = hz.projector_expansion(hz.conjugate_pauli(U_minus, center, "X"), 12)
    target = hz.conjugate_pauli(U_both, center, "X")
    composed, residual = hz.compose_expansions(outer, inner, center, target)
    assert len(composed) == 64
    assert residual < 1e-10
    corrupted = target.values.copy()
    corrupted[7] += 1e-6
    bad = hz.SupportedOperator(target.rows, corrupted, target.support)
    assert abs(hz.compose_expansions(outer, inner, center, bad)[1] - 1e-6) < 1e-12
    # the orthogonal projector decomposition collapses the shared cells
    collapsed = hz.projector_expansion(target, 12)
    assert collapsed.term_count == 16


def test_qtlv_sigma_z_invariance_and_commutation():
    spec = hz.qtlv_window()
    U = hz.build_window_unitary(spec)
    assert hz.locals_pairwise_commute(spec)
    for cell in (("now", 1, 0), ("now", -1, 0)):
        q = spec.qubit(cell)
        oz = hz.conjugate_pauli(U, q, "Z")
        assert oz.support == (q,)


def test_report_all_pass():
    for scheme in ("q232", "qtlv"):
        results = hz.heisenberg_report(scheme)
        assert results and all(r.passed for r in results), [
            (r.name, r.detail) for r in results if not r.passed]
