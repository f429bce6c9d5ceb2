"""Brute-force Heisenberg-picture checks on finite lattice windows.

For each scheme a window collects every lattice cell (past / now / future
slice, string, site offset) that one step's local unitaries can couple to
the center cell.  The window unitary is the product of all local
Toffoli/CNOT factors supported inside the window, the Toffolis being
``circuits.build_step``'s own, placed by a translation-invariant stencil.
Conjugating a single Pauli through it must stay inside the locality
region, leave every sigma-z untouched, and expand into (pi+/pi- projector)
x (sigma-x flip) terms that sum back to the conjugated operator.

Every step gate is a basis permutation, so the window unitary is stored
as the permutation it applies to basis indices, and a conjugated Pauli as
one (row, value) pair per column.  Everything is exact index arithmetic
on arrays of about 2^w entries for a w-qubit window, so window size is
limited only by memory.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

import numpy as np

from .circuits import basis_action, build_step

Cell = tuple[str, int, int]  # (slice, string j, site offset); j = 0 for the single-string scheme

SUPPORT_TOL = 1e-10
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class WindowSpec:
    """An ordered list of lattice cells; list position = window qubit index."""
    scheme: str
    cells: tuple[Cell, ...]

    @property
    def num_qubits(self) -> int:
        return len(self.cells)

    def qubit(self, cell: Cell) -> int:
        return self.cells.index(cell)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells


def q232_window() -> WindowSpec:
    """Past center, five now cells, three future cells (9 qubits)."""
    cells = [("past", 0, 0)]
    cells += [("now", 0, d) for d in (-2, -1, 0, 1, 2)]
    cells += [("future", 0, d) for d in (-1, 0, 1)]
    return WindowSpec("q232", tuple(cells))


def qtlv_window() -> WindowSpec:
    """Closure of both strings' expansions around now(+1, 0) (12 qubits)."""
    cells = [("past", 1, 0)]
    cells += [("now", 1, d) for d in (-2, -1, 0, 1)]
    cells += [("now", -1, d) for d in (0, 1, 2)]
    cells += [("future", 1, d) for d in (0, 1, 2)]
    cells.append(("future", -1, 0))
    return WindowSpec("qtlv", tuple(cells))


# ---------------------------------------------------------------------------
# Local unitaries restricted to the window
# ---------------------------------------------------------------------------
# A "local" is one cell's update factor: the Toffoli trio writing that
# cell's future value plus (when the past cell is in the window) the
# decoupling CNOT.  Gates with any support cell outside the window are
# dropped; by construction of the windows nothing that could act on the
# center observable is lost.

# Ring the stencils are read from: 6 cells per qtlv string, so the control
# offsets +-1 and +-2 of either rule stay distinct.
_STENCIL_RING = 12


@cache
def toffoli_stencils(scheme: str) -> Mapping[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """Per string j, the control pairs of the three Toffolis that write future cell (j, 0).

    Each control is (string, site offset) on the now slice, read from
    ``build_step(scheme, 12)``, where now cell c is qubit c, future cell c
    is qubit 12 + c, and qtlv cells 0..5 form string +1, the rest string -1.
    The Toffolis writing future cell (j, k) are the same pairs shifted by k.
    The cached mapping is shared, so it is read-only.
    """
    n = _STENCIL_RING
    width = n if scheme == "q232" else n // 2

    def cell(qubit: int) -> tuple[int, int]:  # (string, site) of a now or future qubit
        c = qubit % n
        site = (c + width // 2) % width - width // 2  # sites past the middle read as negative
        return 0 if scheme == "q232" else 1 if c < width else -1, site

    stencils: dict[int, list] = {}
    for gate in build_step(scheme, n).gates():
        j, k = cell(gate.qubits[-1])
        if gate.kind == "TOFFOLI" and k == 0:
            stencils.setdefault(j, []).append(tuple(map(cell, gate.qubits[:-1])))
    return MappingProxyType({j: tuple(pairs) for j, pairs in stencils.items()})


def window_locals(spec: WindowSpec, strings: tuple[int, ...] = (1, -1)) -> list[list[tuple]]:
    """Per-site local gate lists of window-qubit tuples ``(controls..., target)``.

    A site's list holds its three Toffolis and, when the past cell is in
    the window, the decoupling CNOT (now cell controls the past cell).
    """
    if spec.scheme == "q232":
        strings = (0,)
    stencils = toffoli_stencils(spec.scheme)
    locals_: list[list[tuple]] = []
    for cell in spec.cells:
        slice_, j, k = cell
        if slice_ != "future" or j not in strings:
            continue
        pairs = [[("now", s, k + d) for s, d in pair] for pair in stencils[j]]
        if any(c not in spec for pair in pairs for c in pair):
            continue
        t = spec.qubit(cell)
        gates = [tuple(spec.qubit(c) for c in pair) + (t,) for pair in pairs]
        past = ("past", j, k)
        if past in spec and ("now", j, k) in spec:
            gates.append((spec.qubit(("now", j, k)), spec.qubit(past)))
        locals_.append(gates)
    return locals_


def build_window_unitary(spec: WindowSpec, strings: tuple[int, ...] = (1, -1)) -> np.ndarray:
    """perm with U|b> = |perm[b]> for the product of all window locals."""
    gates = [gate for local in window_locals(spec, strings) for gate in local]
    return basis_action(np.arange(1 << spec.num_qubits), gates)


def _is_bijection(perm: np.ndarray) -> bool:
    return np.array_equal(np.sort(perm), np.arange(perm.size))


def locals_pairwise_commute(spec: WindowSpec, strings: tuple[int, ...] = (1, -1)) -> bool:
    """Exact commutation of every pair of local unitaries on the window."""
    locs = window_locals(spec, strings)
    indices = np.arange(1 << spec.num_qubits)
    for i in range(len(locs)):
        for j in range(i + 1, len(locs)):
            ab = basis_action(indices, locs[i] + locs[j])
            ba = basis_action(indices, locs[j] + locs[i])
            if not np.array_equal(ab, ba):
                return False
    return True


# ---------------------------------------------------------------------------
# Conjugation and support detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportedOperator:
    """A window operator with one nonzero per column, plus its detected support.

    Entry (rows[c], c) equals values[c]; every other entry is zero.
    """
    rows: np.ndarray
    values: np.ndarray
    support: tuple[int, ...]


def _pauli_entries(kind: str, qubit: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column -> (row, value) of a single-qubit Pauli on basis indices."""
    bit = (indices >> qubit) & 1
    if kind == "X":
        return indices ^ (1 << qubit), np.ones(indices.size)
    if kind == "Y":
        return indices ^ (1 << qubit), 1j * (1.0 - 2.0 * bit)
    if kind == "Z":
        return indices, 1.0 - 2.0 * bit
    raise ValueError(f"unknown Pauli {kind!r}")


def conjugate_pauli(perm: np.ndarray, qubit: int, kind: str = "X") -> SupportedOperator:
    """U^dagger P U for a single-qubit Pauli P on a window qubit, U|b> = |perm[b]>.

    U^dagger P U maps |c> to a multiple of one basis state |inv[row of P at perm[c]]>.
    """
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    pauli_rows, values = _pauli_entries(kind, qubit, perm)
    rows = inv[pauli_rows]
    return SupportedOperator(rows, values, operator_support(rows, values))


def operator_support(rows: np.ndarray, values: np.ndarray) -> tuple[int, ...]:
    """Qubits where the operator (rows, values) fails the partial-trace triviality test.

    Qubit q is trivial iff O = tr_q(O)/2 (x) 1_q, i.e. both off-diagonal
    blocks in q vanish (no entry flips q) and the two diagonal blocks agree
    (columns c and c ^ 2^q hold the same value on rows that differ in q).
    """
    cols = np.arange(rows.size)
    support = []
    for q in range(rows.size.bit_length() - 1):
        e = 1 << q
        if np.any(((rows ^ cols) >> q) & 1):
            support.append(q)  # some entry crosses the q block boundary
            continue
        same_rows = np.array_equal(rows[cols ^ e], rows ^ e)
        if not same_rows or np.abs(values[cols ^ e] - values).max() > SUPPORT_TOL:
            support.append(q)
    return tuple(support)


# ---------------------------------------------------------------------------
# Projector / flip-pattern expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionTerm:
    """One summand: pi(+/-) pattern on the diagonal cells, X pattern elsewhere."""
    projector_pattern: tuple[tuple[int, str], ...]  # (qubit, '+'/'-')
    flip_pattern: tuple[int, ...]                   # qubits carrying sigma-x
    coefficient: complex


@dataclass(frozen=True)
class Expansion:
    terms: tuple[ExpansionTerm, ...]
    residual: float

    @property
    def term_count(self) -> int:
        return len(self.terms)


def _gather_bits(indices: np.ndarray, qubits: list[int]) -> np.ndarray:
    """The bits of ``indices`` at ``qubits``, the first listed qubit most significant."""
    out = np.zeros_like(indices)
    for i, q in enumerate(qubits):
        out |= ((indices >> q) & 1) << (len(qubits) - 1 - i)
    return out


def projector_expansion(op: SupportedOperator, num_qubits: int) -> Expansion:
    """Decompose a conjugated Pauli into projector-times-flip terms.

    Diagonal cells are the support qubits that no entry flips (they commute
    with their sigma-z); the remaining qubits carry sigma-x / identity
    factors.  A term's coefficient is the mean over its diagonal block of
    the entries with its flip mask; entries are +-1 or +-i, so these sums
    are exact in any order.  Terms come ordered by diagonal pattern, then
    flip mask.  The residual is the max-abs difference between the term sum
    and the operator; anything above 1e-10 marks a failed decomposition.
    """
    cols = np.arange(op.rows.size)
    flipped = op.rows ^ cols
    diag_cells = [q for q in op.support if not np.any((flipped >> q) & 1)]
    flip_cells = [q for q in range(num_qubits) if q not in diag_cells]
    d, f = len(diag_cells), len(flip_cells)
    block = _gather_bits(cols, diag_cells)
    mask = _gather_bits(flipped, flip_cells)
    key = (block << f) | mask
    sums = (np.bincount(key, op.values.real, 1 << num_qubits)
            + 1j * np.bincount(key, op.values.imag, 1 << num_qubits))
    coeffs = (sums / (1 << f)).reshape(1 << d, 1 << f)
    kept = np.where(np.abs(coeffs) > SUPPORT_TOL, coeffs, 0.0)

    terms: list[ExpansionTerm] = []
    for s, m in zip(*np.nonzero(kept)):
        pattern = tuple((q, "-" if (s >> (d - 1 - i)) & 1 else "+")
                        for i, q in enumerate(diag_cells))
        flips = tuple(sorted(flip_cells[f - 1 - j] for j in range(f) if (m >> j) & 1))
        terms.append(ExpansionTerm(pattern, flips, complex(kept[s, m])))

    # Each entry against its own term, then every other kept term of the
    # column's block, which writes at a position the operator leaves zero.
    residual = float(np.abs(op.values - kept[block, mask]).max())
    for m in np.flatnonzero(kept.any(axis=0)):
        stray = np.where(mask == m, 0.0, kept[block, m])
        residual = max(residual, float(np.abs(stray).max()))
    return Expansion(tuple(terms), residual)


def term_entries(term: ExpansionTerm, num_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries (rows, cols, values) of one expansion term."""
    dim = 1 << num_qubits
    cols = np.arange(dim)
    keep = np.ones(dim, dtype=bool)
    for q, label in term.projector_pattern:
        keep &= ((cols >> q) & 1) == (label == "-")
    mask = 0
    for q in term.flip_pattern:
        mask |= 1 << q
    sel = cols[keep]
    return sel ^ mask, sel, np.full(sel.size, term.coefficient)


def compose_expansions(outer: Expansion, inner: Expansion, at_qubit: int,
                       target: SupportedOperator) -> tuple[list[ExpansionTerm], float]:
    """Substitute an inner expansion for the flip factor at one qubit.

    Every outer term must carry a flip on ``at_qubit``; each of the
    ``len(outer) * len(inner)`` formal products replaces that factor by an
    inner term (projector products on shared cells may annihilate, so
    composed terms can be zero as matrices).  Returns the composed terms
    and the max-abs residual against ``target``.
    """
    composed: list[ExpansionTerm] = []
    dim = target.rows.size
    num_qubits = dim.bit_length() - 1
    keys: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for t_out in outer.terms:
        if at_qubit not in t_out.flip_pattern:
            raise ValueError("outer terms must all flip the substitution qubit")
        alone = ExpansionTerm(t_out.projector_pattern,
                              tuple(q for q in t_out.flip_pattern if q != at_qubit),
                              t_out.coefficient)
        for t_in in inner.terms:
            merged = ExpansionTerm(
                alone.projector_pattern + t_in.projector_pattern,
                tuple(sorted(set(alone.flip_pattern) ^ set(t_in.flip_pattern))),
                alone.coefficient * t_in.coefficient,
            )
            composed.append(merged)
            rows, cols, vals = term_entries(merged, num_qubits)
            keys.append(rows * dim + cols)
            values.append(vals)
    keys.append(target.rows * dim + np.arange(dim))
    values.append(-target.values)
    _, slot = np.unique(np.concatenate(keys), return_inverse=True)
    entries = np.concatenate(values)
    diff = np.bincount(slot, entries.real) + 1j * np.bincount(slot, entries.imag)
    return composed, float(np.abs(diff).max())


# ---------------------------------------------------------------------------
# Property report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _max_deviation(rows_a: np.ndarray, values_a: np.ndarray,
                   rows_b: np.ndarray, values_b: np.ndarray) -> float:
    """Max-abs entrywise difference of two one-nonzero-per-column operators."""
    dev = np.where(rows_a == rows_b, np.abs(values_a - values_b),
                   np.maximum(np.abs(values_a), np.abs(values_b)))
    return float(dev.max())


def _pauli_deviation(op: SupportedOperator, kind: str, qubit: int) -> float:
    """Max-abs elementwise difference between op and a single-qubit Pauli."""
    rows, values = _pauli_entries(kind, qubit, np.arange(op.rows.size))
    return _max_deviation(op.rows, op.values, rows, values)


def _q232_checks() -> list[CheckResult]:
    spec = q232_window()
    w = spec.num_qubits
    U = build_window_unitary(spec)
    results = []

    # A 0/1 matrix with one 1 per column has U^T U = 1 if it is a bijection;
    # otherwise two columns share a row and max |U^T U - 1| = 1.
    dev = 0.0 if _is_bijection(U) else 1.0
    results.append(CheckResult("window unitary is unitary", dev < 1e-12, f"max dev {dev:.2e}"))
    results.append(CheckResult("local unitaries pairwise commute",
               locals_pairwise_commute(spec), "exact permutation comparison"))

    center = spec.qubit(("now", 0, 0))
    oz = conjugate_pauli(U, center, "Z")
    z_dev = _pauli_deviation(oz, "Z", center)
    results.append(CheckResult("conjugated sigma-z equals sigma-z", z_dev == 0.0,
                               f"max dev {z_dev:.2e}"))

    ox = conjugate_pauli(U, center, "X")
    future = {spec.qubit(("future", 0, d)) for d in (-1, 0, 1)}
    fut_support = len(future.intersection(ox.support))
    results.append(CheckResult("sigma-x support inside the 9-cell region",
                               set(ox.support) <= set(range(w)) and fut_support <= 3,
                               f"support {len(ox.support)} cells, {fut_support} future"))
    exp = projector_expansion(ox, w)
    results.append(CheckResult("sigma-x expansion has 16 terms",
                               exp.term_count == 16 and exp.residual < RESIDUAL_TOL,
                               f"{exp.term_count} terms, residual {exp.residual:.2e}"))

    oy = conjugate_pauli(U, center, "Y")
    # u(X) u(Y) = u(XY) = i u(Z); the product of two one-per-column operators is one too.
    hom_dev = _max_deviation(ox.rows[oy.rows], ox.values[oy.rows] * oy.values,
                             oz.rows, 1j * oz.values)
    results.append(CheckResult("automorphism respects products (u(x)u(y) = u(xy))",
                               hom_dev < 1e-10, f"max dev {hom_dev:.2e}"))
    return results


def _qtlv_checks() -> list[CheckResult]:
    spec = qtlv_window()
    w = spec.num_qubits
    U_both = build_window_unitary(spec, strings=(1, -1))
    U_plus = build_window_unitary(spec, strings=(1,))
    U_minus = build_window_unitary(spec, strings=(-1,))
    results = []

    results.append(CheckResult("window unitary is a basis bijection", _is_bijection(U_both),
                               "exact"))
    results.append(CheckResult("local unitaries pairwise commute",
               locals_pairwise_commute(spec), "exact permutation comparison"))

    center = spec.qubit(("now", 1, 0))
    other = spec.qubit(("now", -1, 0))
    z_ok = True
    z_dev = 0.0
    for q in (center, other):
        oz = conjugate_pauli(U_both, q, "Z")
        z_dev = max(z_dev, _pauli_deviation(oz, "Z", q))
        z_ok = z_ok and z_dev == 0.0
    results.append(CheckResult("conjugated sigma-z equals sigma-z (both strings)",
                               z_ok, f"max dev {z_dev:.2e}"))

    ox_single = conjugate_pauli(U_plus, center, "X")
    e_single = projector_expansion(ox_single, w)
    results.append(CheckResult("same-string sigma-x expansion has 16 terms",
                               e_single.term_count == 16 and e_single.residual < RESIDUAL_TOL,
                               f"{e_single.term_count} terms, residual {e_single.residual:.2e}"))

    ox_cross = conjugate_pauli(U_plus, other, "X")
    e_cross = projector_expansion(ox_cross, w)
    expected_cross = {("now", 1, -2), ("now", 1, -1), ("now", -1, 0), ("future", 1, 0)}
    cross_cells = {spec.cells[q] for q in ox_cross.support}
    results.append(CheckResult("cross-string sigma-x expansion has 4 terms",
                               e_cross.term_count == 4 and cross_cells == expected_cross
                               and e_cross.residual < RESIDUAL_TOL,
                               f"{e_cross.term_count} terms on {sorted(cross_cells)}"))

    ox_full = conjugate_pauli(U_both, center, "X")
    e_inner = projector_expansion(conjugate_pauli(U_minus, center, "X"), w)
    composed, residual = compose_expansions(e_single, e_inner, center, ox_full)
    e_full = projector_expansion(ox_full, w)
    results.append(CheckResult("total expansion composes to 64 terms",
                               len(composed) == 64 and residual < RESIDUAL_TOL,
                               f"16 x 4 = {len(composed)} composed terms "
                               f"({e_full.term_count} distinct projector patterns), "
                               f"residual {residual:.2e}"))
    return results


def heisenberg_report(scheme: str) -> list[CheckResult]:
    """Run every locality/invariance check for one scheme."""
    if scheme == "q232":
        return _q232_checks()
    if scheme == "qtlv":
        return _qtlv_checks()
    raise ValueError(f"unknown scheme {scheme!r}")
