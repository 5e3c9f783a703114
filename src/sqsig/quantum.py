"""Dense state-vector simulation for small qubit registers.

A register is its amplitude vector, and its qubit count follows from the
amplitude count. Registers hold one to four qubits. Supported operations:
preparation in the Z and X bases, Bell-pair preparation, unitary
application, ancilla attachment, the probe's CNOT, projective Z/X
measurement with Born-rule collapse, partial trace, trace distance, and
tensor products. Every operation is pure: it returns a new state (or an
outcome plus a post-measurement state) and never mutates its inputs, so
states may be shared.

A state keeps its amplitudes as a tuple of Python complex (`amps`), and
`amplitudes` builds a fresh ndarray from it on each read, so no caller can
change a state in place. Measurement, gates, ancilla attachment and the
unitarity check work on that tuple and on the matrix entries as Python
complex numbers over precomputed index tables: at one to four qubits that
costs less than the numpy calls it would take.

A `Gate` is a one- or two-qubit unitary, checked once when it is built:
every entry of u^dagger u - I, the diagonal included, must lie within
UNITARY_ATOL (1e-10) in absolute value. `apply_unitary` takes only a Gate,
so no application checks again. X, Y, Z and H each equal their own
conjugate transpose and are one shared Gate each, in `GATES`.

Every op the protocol uses (Bell and Z/X preparation, Pauli noise, H,
the probe's CNOT and ancilla, Z/X reads) is Clifford, so every state it
reaches is a stabilizer state (Aaronson & Gottesman, PRA 70, 052328,
2004): its nonzero amplitudes are 1, -1, i or -i times 2^(-r/2) on a
support of 2^r amplitudes. Scaled by 2^(r/2) and rounded, within
KEY_ATOL, those amplitudes are the state's exact key, and the state
table holds one state per key, with the key's amplitudes. It starts from
the six seeds, the four one-qubit preparations and the two Bell states,
and fills on first use. A gate, ancilla or CNOT whose result has a key
returns the table's state for it; on a state in the table, that is kept
as the transition from (state, op), except for a Gate not in GATES.
`measure` and `measure_stage` read the table alone: a state gets its
branch rows on its first read, per qubit and basis p0 and the outcome of
each bit that can occur, and a copy with a key reads as the table's
state. Building the rows is the stabilizer check: a p0 not within
KEY_ATOL of 0, 1/2 or 1, or a post-state with no key, refuses the state
with ValueError, as does a state with no key (one a non-Clifford matrix
reaches); `measurement_branches` projects any state. So every p0 a row
holds is exactly 0, 1/2 or 1. `measure` takes its uniform as a float, so no
operation here draws from a generator; `measure_stage` reads a stage of a
slot list's qubits, each as `measure` would, with no call for a state
whose branch rows are built. A stage's bases are basis bits, Z = 0 and
X = 1, as bytes, and index the branch rows directly; `measure` and
`measurement_branches` take a Basis member and refuse anything else,
such as the str "X", with ValueError (`basis_bit`).

Index convention: qubit 0 is the most significant bit of the amplitude
index, so for two qubits the amplitude order is |00>, |01>, |10>, |11>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import count
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

MAX_REGISTER_QUBITS = 4

# Numeric tolerances; single source of truth for the whole package.
DENSITY_ATOL = 1e-12
PSD_ATOL = 1e-10
UNITARY_ATOL = 1e-10
PHASE_FIDELITY_ATOL = 1e-10
KEY_ATOL = 1e-9


class Basis(str, Enum):
    Z = "Z"
    X = "X"


_SQRT2_INV = 1.0 / math.sqrt(2.0)
_Z, _X = Basis.Z, Basis.X


def basis_bit(basis: Basis) -> int:
    """0 for Basis.Z and 1 for Basis.X; ValueError for anything else, the
    str "X" included, though it compares equal to Basis.X."""
    if basis is _X:
        return 1
    if basis is _Z:
        return 0
    raise ValueError(f"basis must be Basis.Z or Basis.X, got {basis!r}")


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)


class RegisterSizeError(ValueError):
    """Register would exceed the supported qubit count."""


class NonUnitaryError(ValueError):
    """Matrix passed as a gate is not unitary within tolerance."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class StateVector:
    """Normalized complex amplitudes of a 1..4 qubit register.

    `amps` is the tuple of Python complex that the core ops read; with
    check=False a tuple is kept as given, so it must hold complex values.
    """

    __slots__ = ("amps",)

    def __init__(
        self, amplitudes: Sequence[complex] | np.ndarray, check: bool = True
    ) -> None:
        if check or type(amplitudes) is not tuple:
            arr = np.asarray(amplitudes, dtype=complex)
            if check:
                size = arr.size
                if arr.ndim != 1 or size & (size - 1):
                    raise DimensionMismatchError(
                        f"amplitude count must be a power of two, got {arr.shape}"
                    )
                n = size.bit_length() - 1
                if not 1 <= n <= MAX_REGISTER_QUBITS:
                    raise RegisterSizeError(
                        f"register must hold 1..{MAX_REGISTER_QUBITS} qubits, got {n}"
                    )
                norm = float(np.sum(np.abs(arr) ** 2))
                if not abs(norm - 1.0) <= 1e-9:  # a NaN norm fails too
                    raise ValueError(f"state not normalized: |amps|^2 = {norm}")
            amplitudes = tuple(arr.tolist())
        self.amps = amplitudes

    @property
    def amplitudes(self) -> np.ndarray:
        """A new ndarray of the amplitudes; writing into it changes no state."""
        return np.array(self.amps, dtype=complex)

    @property
    def num_qubits(self) -> int:
        return len(self.amps).bit_length() - 1

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def __repr__(self) -> str:
        return f"StateVector(n={self.num_qubits})"


@dataclass
class DensityMatrix:
    """A dim x dim density operator (Hermitian, unit trace, PSD)."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        return cls(np.outer(state.amplitudes, state.amplitudes.conj()))

    @classmethod
    def maximally_mixed(cls, num_qubits: int = 1) -> "DensityMatrix":
        d = 2 ** num_qubits
        return cls(np.eye(d, dtype=complex) / d)

    def validate(self) -> None:
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise DimensionMismatchError(
                f"entries are not square: {self.entries.shape}"
            )
        if not np.allclose(self.entries, self.entries.conj().T, atol=DENSITY_ATOL):
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(self.entries))
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace is {tr}, expected 1")
        eigvals = np.linalg.eigvalsh(self.entries)
        if eigvals.min() < -PSD_ATOL:
            raise ValueError(f"density matrix not PSD: min eigenvalue {eigvals.min()}")


class MeasurementOutcome(NamedTuple):
    """Result of a projective measurement: sampled bit and collapsed state."""

    bit: int
    post_state: StateVector


# The state table: each state by its key, each state's branch rows (None
# until its first read), and the transitions from each state by (state, op).
_STATES: dict[tuple[complex, ...], StateVector] = {}
_ROWS: dict[StateVector, tuple | None] = {}
_NEXT: dict[tuple, StateVector] = {}
_KEY_ENTRIES = {0, 1, -1, 1j, -1j}


def _key(amps: tuple[complex, ...]) -> tuple[complex, ...] | None:
    """The amplitudes times 2^(r/2), rounded to Gaussian integers, where
    2^-r is the largest |amplitude|^2; None unless each lies within
    KEY_ATOL of its rounding, which is 0, 1, -1, i or -i, and 2^r of those
    are nonzero."""
    support = 1 << round(-2 * math.log2(max(map(abs, amps))))
    scale = math.sqrt(support)
    key = tuple(complex(round(a.real * scale), round(a.imag * scale)) for a in amps)
    if (len(key) - key.count(0) == support and _KEY_ENTRIES.issuperset(key)
            and all(abs(a * scale - k) <= KEY_ATOL for a, k in zip(amps, key))):
        return key
    return None


def _intern(state: StateVector) -> StateVector | None:
    """The table's state with the key of `state`, entered with the key's
    amplitudes when it is new; None when `state` has no key."""
    key = _key(state.amps)
    if key is None:
        return None
    found = _STATES.get(key)
    if found is None:
        scale = 1.0 / math.sqrt(len(key) - key.count(0))
        found = _STATES[key] = StateVector(
            tuple(complex(k.real * scale, k.imag * scale) for k in key), check=False)
        _ROWS[found] = None
    return found


def _transition(key: tuple, out: StateVector, keep: bool = True) -> StateVector:
    """`out`, the result of the op `key` names as (state, *op), or the
    table's state for it when it has a key; that is kept as the transition
    `key` when `keep` and the state is in the table."""
    found = _intern(out)
    if found is None:
        return out
    if keep and key[0] in _ROWS:
        _NEXT[key] = found
    return found


# The seeds. The single-qubit preparation states by bit: |0>, |1> and |+>, |->.
_Z_STATES = (_intern(StateVector([1, 0])), _intern(StateVector([0, 1])))
_X_STATES = (_intern(StateVector([_SQRT2_INV, _SQRT2_INV])),
             _intern(StateVector([_SQRT2_INV, -_SQRT2_INV])))


def prepare_single(basis: Basis, bit: int) -> StateVector:
    """Prepare |0>, |1>, |+> or |-> as a one-qubit register."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    if basis is _X:
        return _X_STATES[bit]
    if basis is _Z:
        return _Z_STATES[bit]
    raise ValueError(f"basis must be Basis.Z or Basis.X, got {basis!r}")


# Every pair shares one of these two.
_BELL = (
    _intern(StateVector([_SQRT2_INV, 0, 0, _SQRT2_INV])),
    _intern(StateVector([0, _SQRT2_INV, _SQRT2_INV, 0])),
)


def prepare_bell(g_bit: int) -> StateVector:
    """Prepare (|00>+|11>)/sqrt2 for g_bit=0, (|01>+|10>)/sqrt2 for g_bit=1.

    Qubit 0 carries the half destined for Trent, qubit 1 the half for Bob.
    """
    if g_bit not in (0, 1):
        raise ValueError(f"g_bit must be 0 or 1, got {g_bit}")
    return _BELL[g_bit]


def _blocks(n: int, targets: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Where a gate on `targets` of an n-qubit register reads and writes.

    Returns the amplitude indices whose target bits all read 0, and for
    each row of the gate (the first target is the row's most significant
    bit) the offset from such an index to the amplitude that row addresses.
    """
    offsets = (0,)
    for t in targets:
        offsets = tuple(o + b for o in offsets for b in (0, 1 << (n - 1 - t)))
    return tuple(i for i in range(1 << n) if not i & offsets[-1]), offsets


# Keyed by amplitude count and target tuple, for one or two distinct targets.
_BLOCKS = {
    (1 << n, targets): _blocks(n, targets)
    for n in range(1, MAX_REGISTER_QUBITS + 1)
    for targets in [(a,) for a in range(n)]
    + [(a, b) for a in range(n) for b in range(n) if a != b]
}


def _check_unitary(u: np.ndarray) -> list[list[complex]]:
    """Raise unless every entry of u^dagger u - I lies within UNITARY_ATOL.

    The test is absolute on every entry, the diagonal included, and a NaN
    or infinite entry fails it. Returns the rows of u as Python complex.
    """
    rows = u.tolist()
    dim = len(rows)
    for i in range(dim):
        for j in range(i, dim):  # u^dagger u is Hermitian: the upper half decides
            dot = 0j
            for row in rows:
                dot += row[i].conjugate() * row[j]
            if not abs(dot - (i == j)) <= UNITARY_ATOL:
                raise NonUnitaryError("matrix is not unitary within tolerance")
    return rows


class Gate:
    """A unitary on one or two qubits, checked once, when it is built.

    `rows` holds the matrix rows as tuples of Python complex. Raises
    DimensionMismatchError unless u is 2x2 or 4x4, and NonUnitaryError
    unless it is unitary within tolerance.
    """

    __slots__ = ("rows",)

    def __init__(self, u: np.ndarray | Sequence[Sequence[complex]]) -> None:
        u = np.asarray(u, dtype=complex)
        if u.shape not in ((2, 2), (4, 4)):
            raise DimensionMismatchError(f"gate must be 2x2 or 4x4, got {u.shape}")
        self.rows = tuple(map(tuple, _check_unitary(u)))


# One Gate each: X, Y, Z and H equal their own conjugate transpose, entry
# for entry, so a probe undoes each with the Gate it applied.
GATES = {"X": Gate(PAULI_X), "Y": Gate(PAULI_Y), "Z": Gate(PAULI_Z), "H": Gate(HADAMARD)}
_SHARED_GATES = frozenset(GATES.values())


def _apply_gate_unchecked(
    state: StateVector, rows: Sequence[Sequence[complex]], targets: tuple[int, ...]
) -> StateVector:
    """Apply the gate whose rows of Python complex are `rows`, unchecked."""
    amps = state.amps
    base, offsets = _BLOCKS[len(amps), targets]
    out = [0j] * len(amps)
    for i in base:
        block = [amps[i + o] for o in offsets]
        for o, row in zip(offsets, rows):
            acc = 0j
            for c, a in zip(row, block):
                acc += c * a
            out[i + o] = acc
    return StateVector(tuple(out), check=False)


def apply_unitary(state: StateVector, gate: Gate, targets: Sequence[int]) -> StateVector:
    """Apply a Gate to the listed target qubits.

    Raises TypeError for anything but a Gate, and ValueError for invalid
    or repeated targets or a target count the gate does not act on.
    """
    if not isinstance(gate, Gate):
        raise TypeError(f"apply_unitary takes a Gate, got {type(gate).__name__}")
    targets = tuple(targets)
    key = (state, gate, targets)
    out = _NEXT.get(key)
    if out is not None:
        return out
    k = len(targets)
    if len(gate.rows) != 1 << k:
        raise DimensionMismatchError(
            f"a {len(gate.rows)}x{len(gate.rows)} gate cannot act on {k} targets")
    if len(set(targets)) != k:
        raise ValueError(f"targets must be distinct, got {targets}")
    n = state.num_qubits
    if any(t < 0 or t >= n for t in targets):
        raise ValueError(f"targets {targets} out of range for {n} qubits")
    # Only the shared Gates keep transitions: a Gate built from a matrix may
    # be new in every trial, and its transitions would hold it forever.
    out = _apply_gate_unchecked(state, gate.rows, targets)
    return _transition(key, out, gate in _SHARED_GATES)


def append_ancilla(state: StateVector) -> StateVector:
    """The state with a |0> qubit appended after its last qubit."""
    key = (state,)
    out = _NEXT.get(key)
    if out is not None:
        return out
    n = state.num_qubits + 1
    if n > MAX_REGISTER_QUBITS:
        raise RegisterSizeError(
            f"register of {n} qubits exceeds cap {MAX_REGISTER_QUBITS}")
    # Appending |0> interleaves the old amplitudes with zeros.
    amps = [0j] * (2 * len(state.amps))
    amps[0::2] = state.amps
    return _transition(key, StateVector(tuple(amps), check=False))


def cnot(state: StateVector, control: int, target: int) -> StateVector:
    """CNOT as the swap it is: where the control reads 1, the amplitudes of
    target 0 and target 1 trade places. No matrix, so no unitarity check."""
    key = (state, control, target)
    out = _NEXT.get(key)
    if out is not None:
        return out
    amps = state.amps
    blocks = _BLOCKS.get((len(amps), (control, target)))
    if blocks is None:
        raise ValueError(
            f"CNOT needs two distinct qubits of the register, got {control}, {target}")
    # Offsets 2 and 3 of a block address control 1 with target 0 and 1.
    base, (_, _, on, flip) = blocks
    out = list(amps)
    for i in base:
        out[i + on], out[i + flip] = amps[i + flip], amps[i + on]
    return _transition(key, StateVector(tuple(out), check=False))


def measurement_branches(
    state: StateVector, qubit: int, basis: Basis
) -> tuple[tuple[float, StateVector | None], tuple[float, StateVector | None]]:
    """Deterministic projection of a measurement: ((p0, post0), (p1, post1)).

    A branch with zero probability carries post-state None. The exact
    oracle that outcome-enumeration tests check `measure` against.
    """
    n = state.num_qubits
    if qubit < 0 or qubit >= n:
        raise ValueError(f"qubit {qubit} out of range for {n}-qubit register")
    in_x = basis_bit(basis)
    work = state
    hadamard = GATES["H"].rows
    if in_x:
        work = _apply_gate_unchecked(state, hadamard, (qubit,))
    amps = work.amplitudes.reshape((2,) * n)
    branches = []
    for bit in (0, 1):
        proj = np.zeros_like(amps)
        sel = [slice(None)] * n
        sel[qubit] = bit
        proj[tuple(sel)] = amps[tuple(sel)]
        p = float(np.sum(np.abs(proj) ** 2))
        if p > 1e-15:
            post = StateVector(proj.reshape(2 ** n) / np.sqrt(p), check=False)
            if in_x:
                post = _apply_gate_unchecked(post, hadamard, (qubit,))
            branches.append((p, post))
        else:
            branches.append((0.0, None))
    return branches[0], branches[1]


def _p0(amps: tuple[complex, ...], qubit: int, in_x: bool) -> float:
    """Born probability of reading 0 on `qubit`, in X when `in_x`, else Z."""
    zero, (_, stride) = _BLOCKS[len(amps), (qubit,)]
    p0 = 0.0
    for i in zero:
        w = (amps[i] + amps[i + stride]) * _SQRT2_INV if in_x else amps[i]
        p0 += w.real * w.real + w.imag * w.imag
    return p0


def _collapse(amps: tuple[complex, ...], qubit: int, in_x: bool, bit: int) -> StateVector:
    """The normalized post-state of the outcome `bit` on `qubit`, in X when
    `in_x`, else Z, for a bit of nonzero probability."""
    zero, (_, stride) = _BLOCKS[len(amps), (qubit,)]
    if not in_x:
        w = [amps[i + stride * bit] for i in zero]
    elif bit:
        w = [(amps[i] - amps[i + stride]) * _SQRT2_INV for i in zero]
    else:
        w = [(amps[i] + amps[i + stride]) * _SQRT2_INV for i in zero]
    p = 0.0
    for c in w:
        p += c.real * c.real + c.imag * c.imag
    scale = 1.0 / math.sqrt(p)
    out = [0j] * len(amps)
    for i, c in zip(zero, w):
        c *= scale
        if in_x:
            out[i] = c * _SQRT2_INV
            out[i + stride] = c * (-_SQRT2_INV if bit else _SQRT2_INV)
        else:
            out[i + stride * bit] = c
    return StateVector(tuple(out), check=False)


_OFF_TABLE = "a read takes a state of the table; measurement_branches projects any state"

# p0 and the outcomes of bits 0 and 1 for one (qubit, basis).
_Branches = tuple[float, MeasurementOutcome | None, MeasurementOutcome | None]


def _branch_rows(state: StateVector) -> tuple[tuple[_Branches, _Branches], ...]:
    """Per qubit and then per basis (Z, X), p0 and the outcome of each bit,
    None for a bit of probability 0, each post-state the table's.

    The stabilizer check: ValueError unless every p0 lies within KEY_ATOL
    of 0, 1/2 or 1, which it then is exactly, and every post-state has a key.
    """
    amps = state.amps
    rows = []
    for qubit in range(state.num_qubits):
        row = []
        for in_x in (False, True):
            p0 = _p0(amps, qubit, in_x)
            exact = round(2 * p0) / 2
            if not abs(p0 - exact) <= KEY_ATOL:
                raise ValueError(f"p0 {p0} is not 0, 1/2 or 1: {_OFF_TABLE}")
            outcomes = [None, None]
            for bit, p in ((0, exact), (1, 1.0 - exact)):
                if p:
                    post = _intern(_collapse(amps, qubit, in_x, bit))
                    if post is None:
                        raise ValueError(f"a post-state has no key: {_OFF_TABLE}")
                    outcomes[bit] = MeasurementOutcome(bit, post)
            row.append((exact, *outcomes))
        rows.append(tuple(row))
    return tuple(rows)


def measure(state: StateVector, qubit: int, basis: Basis, u: float) -> MeasurementOutcome:
    """Born-rule projective measurement of one qubit with collapse.

    The bit is 0 when the uniform `u` lies below the probability of 0. p0
    and both outcomes come from the state's branch rows, built on its first
    read; a state with a key reads as the table's. ValueError for a state
    with no key or off the stabilizer set, a qubit out of range, or a basis
    other than Basis.Z or Basis.X.
    """
    in_x = basis_bit(basis)
    rows = _ROWS.get(state)
    if rows is None:  # a first read, or a state that is not the table's object
        if state not in _ROWS and (state := _intern(state)) is None:
            raise ValueError(f"the state has no key: {_OFF_TABLE}")
        rows = _ROWS[state] = _ROWS[state] or _branch_rows(state)
    if not 0 <= qubit < len(rows):
        raise ValueError(f"qubit {qubit} out of range for {len(rows)}-qubit register")
    p0, zero, one = rows[qubit][in_x]
    return zero if u < p0 else one


_BASES = (_Z, _X)  # by basis bit


def measure_stage(
    states: list[StateVector], handles: Sequence[int], basis_bits: bytes,
    us: Sequence[float],
) -> bytes:
    """`measure` of qubit h & 3 of states[h >> 2] in the basis of bit
    basis_bits[i] (0 for Z, 1 for X) with the uniform us[i], for each
    h = handles[i] in order, each post-state replacing its state, so a
    later read of a slot sees the collapse. One basis bit and one uniform
    a handle; the caller checks that each bit is 0 or 1."""
    bits = bytearray(len(handles))
    rows_of = _ROWS.get
    for i, h, b, u in zip(count(), handles, basis_bits, us):
        s = h >> 2
        rows = rows_of(states[s])
        if rows is None:  # a first read, or a state the table has not met
            bits[i], states[s] = measure(states[s], h & 3, _BASES[b], u)
        else:
            p0, zero, one = rows[h & 3][b]
            bits[i], states[s] = zero if u < p0 else one
    return bytes(bits)


def partial_trace(
    obj: Union[StateVector, DensityMatrix], keep: Iterable[int]
) -> DensityMatrix:
    """Reduced density matrix over the kept qubit indices (in ascending order)."""
    if isinstance(obj, StateVector):
        rho = np.outer(obj.amplitudes, obj.amplitudes.conj())
        n = obj.num_qubits
    else:
        rho = obj.entries
        n = int(round(np.log2(obj.dim)))
    keep = tuple(sorted(set(keep)))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} qubits")

    tensor_form = rho.reshape((2,) * (2 * n))
    traced = [q for q in range(n) if q not in keep]
    # Trace out each discarded qubit by contracting its row/column axes.
    for q in sorted(traced, reverse=True):
        cur_n = int(len(tensor_form.shape) / 2)
        tensor_form = np.trace(tensor_form, axis1=q, axis2=cur_n + q)
    k = len(keep)
    reduced = tensor_form.reshape(2 ** k, 2 ** k)
    return DensityMatrix(reduced)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Trace distance 0.5 * tr|rho - sigma| via singular values."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(
            f"dimension mismatch: {rho.dim} vs {sigma.dim}"
        )
    diff = rho.entries - sigma.entries
    return float(0.5 * np.sum(np.linalg.svd(diff, compute_uv=False)))


def tensor(states: Sequence[StateVector]) -> StateVector:
    """Kronecker product of registers in the given order."""
    if not states:
        raise ValueError("tensor of zero states is undefined")
    total = sum(s.num_qubits for s in states)
    if total > MAX_REGISTER_QUBITS:
        raise RegisterSizeError(
            f"combined register of {total} qubits exceeds cap {MAX_REGISTER_QUBITS}"
        )
    amps = states[0].amplitudes
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
    return StateVector(amps, check=False)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for equal-size registers."""
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatchError("fidelity requires equal register sizes")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def equal_up_to_phase(a: StateVector, b: StateVector) -> bool:
    """States compare equal when fidelity is 1 within tolerance."""
    return fidelity(a, b) >= 1.0 - PHASE_FIDELITY_ATOL
