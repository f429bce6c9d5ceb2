"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written against the definitions rather
than the package internals: dense Kronecker operators, explicit Kraus
sums, and exhaustive enumerations.  Small and slow by design.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = {
    "0": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_all(mats) -> np.ndarray:
    """Little-endian Kronecker product: qubit 0 is the last factor."""
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(m, out)
    return out


def pauli_string_op(num_qubits: int, placement: dict[int, str]) -> np.ndarray:
    return kron_all([PAULI[placement.get(q, "0")] for q in range(num_qubits)])


def densify(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Dense matrix whose column c holds values[c] at row rows[c] and zeros elsewhere.

    With values all 1 this is the permutation matrix U|c> = |rows[c]>.
    """
    out = np.zeros((rows.size, rows.size), dtype=complex)
    out[rows, np.arange(rows.size)] = values
    return out


def dense_support(O: np.ndarray, num_qubits: int, tol: float = 1e-10) -> tuple[int, ...]:
    """Qubits q where O differs from tr_q(O)/2 (x) 1_q, from the block structure."""
    support = []
    for q in range(num_qubits):
        pre, post = 1 << (num_qubits - 1 - q), 1 << q
        blocks = O.reshape(pre, 2, post, pre, 2, post)
        off = max(np.abs(blocks[:, 0, :, :, 1, :]).max(), np.abs(blocks[:, 1, :, :, 0, :]).max())
        diag = np.abs(blocks[:, 0, :, :, 0, :] - blocks[:, 1, :, :, 1, :]).max()
        if off > tol or diag > tol:
            support.append(q)
    return tuple(support)


def neighbourhood(scheme: str, j: int, k: int) -> list[tuple[str, int, int]]:
    """The now cells (slice, string, site) whose majority writes future cell (j, k).

    q232 reads sites k-1, k, k+1 of its one string (j = 0); qtlv string j
    reads its own sites k-j and k-2j and the other string's site k.
    """
    if scheme == "q232":
        return [("now", 0, k - 1), ("now", 0, k), ("now", 0, k + 1)]
    return [("now", j, k - j), ("now", j, k - 2 * j), ("now", -j, k)]


def reference_window_locals(spec, strings: tuple[int, ...]) -> list[list[tuple]]:
    """Window locals of a ``heisenberg.WindowSpec`` built from ``neighbourhood``.

    A future cell of a listed string whose three controls all lie in the
    window gets the Toffolis of each control pair onto it, then the CNOT
    from its now cell onto its past cell when both are in the window.
    """
    strings = (0,) if spec.scheme == "q232" else strings
    locals_ = []
    for slice_, j, k in spec.cells:
        controls = neighbourhood(spec.scheme, j, k)
        if slice_ != "future" or j not in strings or not all(c in spec for c in controls):
            continue
        a, b, c = (spec.qubit(cell) for cell in controls)
        t = spec.qubit((slice_, j, k))
        gates = [(a, c, t), (a, b, t), (b, c, t)]
        if ("past", j, k) in spec and ("now", j, k) in spec:
            gates.append((spec.qubit(("now", j, k)), spec.qubit(("past", j, k))))
        locals_.append(gates)
    return locals_


def toffoli_matrix() -> np.ndarray:
    """Controls on qubits 2 and 1, target qubit 0."""
    U = np.eye(8, dtype=complex)
    U[[6, 7]] = U[[7, 6]]
    return U


def cnot_matrix() -> np.ndarray:
    """Control qubit 1, target qubit 0."""
    U = np.eye(4, dtype=complex)
    U[[2, 3]] = U[[3, 2]]
    return U


def depolarizing_channel(rho: np.ndarray, support_size: int, p: float) -> np.ndarray:
    """Uniform depolarizing channel on all qubits of rho's register.

    (1 - 4^k/(4^k-1) p) rho + p/(4^k-1) * sum over ALL 4^k Pauli strings.
    """
    k = support_size
    total = np.zeros_like(rho)
    labels = "0XYZ"
    for index in range(4**k):
        ops = []
        value = index
        for _ in range(k):
            ops.append(PAULI[labels[value & 3]])
            value >>= 2
        P = kron_all(ops)
        total += P @ rho @ P.conj().T
    frac = 4**k / (4**k - 1)
    return (1 - frac * p) * rho + (p / (4**k - 1)) * total


def kicked_moments(kind: str, qubits: tuple[int, ...], start: int, p: float, runs: int,
                   rng: np.random.Generator, ops: dict[str, np.ndarray]) -> dict[str, tuple[float, float]]:
    """Per observable, the sums of <O> and <O>^2 over ``runs`` trajectories of one noisy gate.

    A trajectory applies the gate to basis state ``start`` and then the
    kick ``qsim.draw_depolarizing_kick`` draws, the draw
    ``apply_depolarizing_after_gate`` makes, so ``rng`` is consumed as by
    a run-by-run loop.  Each distinct kick's state is evaluated once and
    its values are weighted by the kick's count.
    """
    from qcadc import qsim

    counts = Counter(qsim.draw_depolarizing_kick(len(qubits), p, rng) for _ in range(runs))
    sums = {name: [0.0, 0.0] for name in ops}
    for labels, count in counts.items():
        amps = np.zeros(1 << len(qubits), dtype=complex)
        amps[start] = 1.0
        state = qsim.apply_gate(qsim.StateVector(len(qubits), amps), qsim.Gate(kind, qubits))
        qsim.apply_pauli_string(state, qubits, labels or "")
        for name, op in ops.items():
            value = float(np.vdot(state.amps, op @ state.amps).real)
            sums[name][0] += count * value
            sums[name][1] += count * value * value
    return {name: tuple(pair) for name, pair in sums.items()}


def bitflip_channel(rho: np.ndarray, qubit: int, num_qubits: int, p: float) -> np.ndarray:
    X = pauli_string_op(num_qubits, {qubit: "X"})
    return (1 - p) * rho + p * (X @ rho @ X)


def expectation(rho: np.ndarray, op: np.ndarray) -> float:
    return float(np.trace(rho @ op).real)


def apply_phenom_incoherent(state, qubits: tuple[int, ...], p: float,
                            rng: np.random.Generator):
    """Independent X flip with probability p on each listed qubit of a StateVector.

    X on qubit q maps basis index b to b ^ 2^q, so a flip is that gather.
    """
    if p > 0.0:
        index = np.arange(state.amps.size)
        for q in qubits:
            if rng.random() < p:
                state.amps = state.amps[index ^ (1 << q)]
    return state


def enumerate_logical_flip(n: int, p_cell: float) -> float:
    """Exact P(majority flipped) over all 2^n i.i.d. flip patterns.

    Ties (even n, exactly n/2 flips) count with weight 1/2.
    """
    total = 0.0
    for pattern in range(2**n):
        k = bin(pattern).count("1")
        weight = p_cell**k * (1 - p_cell) ** (n - k)
        if 2 * k > n:
            total += weight
        elif 2 * k == n:
            total += weight / 2
    return total


def enumerate_logical_flip_exact(n: int, p_cell: Fraction) -> Fraction:
    total = Fraction(0)
    for pattern in range(2**n):
        k = bin(pattern).count("1")
        weight = p_cell**k * (1 - p_cell) ** (n - k)
        if 2 * k > n:
            total += weight
        elif 2 * k == n:
            total += weight / 2
    return total


def binomial_logical_flip_exact(n: int, p_cell: Fraction) -> Fraction:
    """P[X > n/2] + P[X = n/2] / 2 for X ~ Bin(n, p_cell), summed term by term as Fractions."""
    tail = sum(Fraction(math.comb(n, j)) * p_cell**j * (1 - p_cell) ** (n - j)
               for j in range(n // 2 + 1, n + 1))
    if n % 2 == 0:
        tail += Fraction(math.comb(n, n // 2), 2) * (p_cell * (1 - p_cell)) ** (n // 2)
    return tail


def geometric_mean_mc(prob: float, runs: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean of the first-success time of Bernoulli(prob) periods."""
    rng = np.random.default_rng(seed)
    draws = rng.geometric(prob, size=runs)
    return float(draws.mean()), float(draws.std(ddof=1) / math.sqrt(runs))


def rotate_int(value: int, k: int, n: int) -> int:
    """Cyclic rotation of an n-bit integer: result bit i = bit (i-k) mod n."""
    k %= n
    mask = (1 << n) - 1
    return ((value << k) | (value >> (n - k))) & mask if k else value & mask


_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix(x):
    """splitmix64 finalizer, out of place, on a uint64 array or a Python int."""
    if isinstance(x, int):
        x &= _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        return x ^ (x >> 31)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def uniform_words(seed: int, trials: np.ndarray, step: int, cells: np.ndarray) -> np.ndarray:
    """The classical noise stream's 64-bit hash words, one (trials, cells) array at once.

    Word (i, c) is mix(mix(mix(key + trial_i + G) + step + G) + c + G) with
    key = mix(seed + G); a cell flips at probability p when its word is
    below p * 2^64.
    """
    key = np.uint64(_splitmix((seed & _MASK) + _GOLDEN))
    golden = np.uint64(_GOLDEN)
    h = _splitmix(key + trials.astype(np.uint64)[:, None] + golden)
    h = _splitmix(h + np.uint64(step & _MASK) + golden)
    return _splitmix(h + cells.astype(np.uint64)[None, :] + golden)


def step_elementary(cells: np.ndarray, code: int) -> np.ndarray:
    """One synchronous update of a uint8 ring under Wolfram rule ``code``.

    Cell i reads the neighborhood (cells[i-1], cells[i], cells[i+1]) as a
    3-bit number b and takes bit b of the code.
    """
    index = (np.roll(cells, 1).astype(np.intp) << 2) | (cells.astype(np.intp) << 1) \
        | np.roll(cells, -1)
    return ((code >> index) & 1).astype(np.uint8)


def step_tlv(cells: np.ndarray) -> np.ndarray:
    """One synchronous two-line-voting update of 2m uint8 cells, upper string first.

    upper[i] <- maj(upper[i-1], upper[i-2], lower[i]) and
    lower[i] <- maj(lower[i+1], lower[i+2], upper[i]), indices mod m.
    """
    m = cells.size // 2
    upper, lower = cells[:m], cells[m:]

    def maj(a, b, c):
        return (a & b) | (a & c) | (b & c)
    return np.concatenate([maj(np.roll(upper, 1), np.roll(upper, 2), lower),
                           maj(np.roll(lower, -1), np.roll(lower, -2), upper)])


def noisy_orbit(rule, n: int, p: float, steps: int, seed: int, trial: int) -> list[np.ndarray]:
    """States of one noisy orbit from all-0, starting state first; rule is a code or "tlv".

    Each step flips the cells whose noise word is below p * 2^64 (every
    cell when p >= 1), then applies the rule.
    """
    cells = np.zeros(n, dtype=np.uint8)
    states = [cells]
    for t in range(1, steps + 1):
        if p >= 1:
            flips = np.ones(n, dtype=bool)
        else:
            words = uniform_words(seed, np.array([trial]), t, np.arange(n))[0]
            flips = words < np.uint64(int(p * 2.0**64))
        cells = cells ^ flips.astype(np.uint8)
        cells = step_tlv(cells) if rule == "tlv" else step_elementary(cells, rule)
        states.append(cells)
    return states


def exact_flip_law(rule, n: int, p: float, max_steps: int) -> tuple[np.ndarray, float, float]:
    """Exact flip-time law of the noisy CA on n <= 8 cells from its absorbing Markov chain.

    A state is a post-update configuration, cell i at bit i of its index.
    A step from configuration c flips each cell with probability p, so it
    reaches z with probability p^d (1-p)^(n-d) for d = popcount(c ^ z), and
    then applies the plain-array rule to z.  The transient states are the
    configurations whose own popcount is at most n/2; the others absorb.
    Returns (pmf, censored, mean): pmf[t-1] = P(T = t) for t = 1..max_steps,
    censored = P(T > max_steps), and E[T] from (I - Q) tau = 1 on the
    transient block Q.
    """
    size = 1 << n
    cells = ((np.arange(size)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    images = np.array([step_tlv(c) if rule == "tlv" else step_elementary(c, rule)
                       for c in cells])
    image_index = images.astype(np.int64) @ (1 << np.arange(n))
    flips = cells.sum(axis=1)[np.arange(size)[:, None] ^ np.arange(size)[None, :]]
    noise = p ** flips * (1 - p) ** (n - flips)
    rule_map = np.zeros((size, size))
    rule_map[np.arange(size), image_index] = 1.0
    kernel = noise @ rule_map
    transient = 2 * cells.sum(axis=1) <= n  # index 0, all-0, is the first transient state
    block = kernel[np.ix_(transient, transient)]
    absorb = kernel[np.ix_(transient, ~transient)].sum(axis=1)
    survival = np.zeros(block.shape[0])
    survival[0] = 1.0
    pmf = np.empty(max_steps)
    for t in range(max_steps):
        pmf[t] = survival @ absorb
        survival = survival @ block
    tau = np.linalg.solve(np.eye(block.shape[0]) - block, np.ones(block.shape[0]))
    return pmf, float(survival.sum()), float(tau[0])


def pooled_chi_square(observed: np.ndarray, expected: np.ndarray,
                      least: float = 5.0) -> tuple[float, int]:
    """Pearson X^2 and its degrees of freedom over consecutive bins pooled,
    left to right, until each expects at least ``least``; a short remainder
    joins the last pooled bin."""
    bins: list[list[float]] = []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc, e_acc = o_acc + o, e_acc + e
        if e_acc >= least:
            bins.append([o_acc, e_acc])
            o_acc = e_acc = 0.0
    if e_acc > 0 or o_acc > 0:
        bins[-1][0] += o_acc
        bins[-1][1] += e_acc
    x2 = sum((o - e) ** 2 / e for o, e in bins)
    return x2, len(bins) - 1


@dataclass(frozen=True)
class LogicalRegisterMap:
    """Which physical qubits of the dense 2n-qubit register hold the now and future registers.

    Step circuits are written with now cell c on qubit c and future cell c on
    qubit n + c.  After each reset the two register labels swap and no qubit
    moves, so on even steps the circuit's qubit q acts on ``physical(q)``.
    """
    now: tuple[int, ...]
    future: tuple[int, ...]

    def swapped(self) -> "LogicalRegisterMap":
        return LogicalRegisterMap(self.future, self.now)

    def physical(self, q: int) -> int:
        n = len(self.now)
        return self.now[q] if q < n else self.future[q - n]

    @classmethod
    def initial(cls, n: int) -> "LogicalRegisterMap":
        return cls(tuple(range(n)), tuple(range(n, 2 * n)))


def depolarizing_flip_time(circuit, p: float, phi: float, max_steps: int,
                           rng: np.random.Generator) -> int:
    """First step whose sum<Z> < 0 in a per-gate depolarizing trajectory, -1 if none.

    The 2n-qubit register is a list of plain-int basis indices with a numpy
    complex amplitude each, starting at cos(phi)|0..0> + i sin(phi)|1..1> on
    the now qubits, in the dense register's alternating labeling.  A
    Toffoli or CNOT flips the target bit of every index whose control bits
    are set; after each gate ``qsim.draw_depolarizing_kick`` draws the kick,
    whose X and Y labels flip index bits (a Pauli's phase never changes a
    magnitude, so it is dropped).  The reset draws with ``Generator.choice``
    over the outcomes present, which is its draw over all 2^n outcomes
    because zero weights add exactly, and divides the kept amplitudes by
    the square root of the outcome's weight as the dense reset does.
    sum<Z> is read from the popcount of the future half.
    """
    from qcadc import qsim

    n = circuit.n_cells
    mask = (1 << n) - 1
    terms = [(0, math.cos(phi)), (mask, 1j * math.sin(phi))]
    index = [b for b, a in terms if a]
    amps = np.array([a for _, a in terms if a], dtype=complex)
    regmap = LogicalRegisterMap.initial(n)
    for t in range(1, max_steps + 1):
        for gate in circuit.gates():
            support = tuple(regmap.physical(q) for q in gate.qubits)
            *controls, target = support
            for j, b in enumerate(index):
                if all(b >> c & 1 for c in controls):
                    index[j] = b ^ 1 << target
            labels = qsim.draw_depolarizing_kick(len(support), p, rng)
            for q, label in zip(support, labels or ""):
                if label in ("X", "Y"):
                    index = [b ^ 1 << q for b in index]
        outcome_of = [b >> regmap.now[0] & mask for b in index]
        probs = np.abs(amps) ** 2
        outcomes = sorted(set(outcome_of))
        weights = [sum(w for w, o in zip(probs, outcome_of) if o == out) for out in outcomes]
        chosen = outcomes[rng.choice(len(outcomes), p=np.array(weights) / sum(weights))]
        kept = [j for j, o in enumerate(outcome_of) if o == chosen]
        amps = amps[kept] / math.sqrt(weights[outcomes.index(chosen)])
        index = [index[j] & ~(mask << regmap.now[0]) for j in kept]
        future = [b >> regmap.future[0] & mask for b in index]
        zsum = float(np.abs(amps) ** 2 @ np.array([n - 2.0 * bin(f).count("1") for f in future]))
        if zsum < 0.0:
            return t
        regmap = regmap.swapped()
    return -1


def noiseless_preservation(scheme: str, n: int, phi: float, steps: int) -> tuple[float, bool]:
    """(final logical fidelity, whether a flip was ever signalled) of ``steps`` noiseless
    ``QcaStepper`` steps from cos(phi)|0..0> + i sin(phi)|1..1>."""
    from qcadc.circuits import NoiseModel, QcaStepper

    stepper = QcaStepper(scheme, n, NoiseModel("none"))
    rng = np.random.default_rng(0)  # reset outcomes are deterministic here
    state = stepper.initial_state(phi)
    flipped = any([stepper.step_with_zsum(state, t, rng) < 0.0 for t in range(1, steps + 1)])
    overlap = math.cos(phi) * state.amps[0] - 1j * math.sin(phi) * state.amps[-1]
    return abs(overlap), flipped
