"""Mutable qubit handles layered over the pure state-vector core.

The protocol moves individual qubits around (halves of Bell pairs, decoy
particles, adversary ancillas) while the underlying registers stay put.
A Register owns one StateVector; a QubitRef names one qubit inside it.
Operations on refs replace the register's state with the pure-core result,
so every holder of a ref to the same register observes the update. Each
is one call of a pure op of `quantum`: `apply_gate` of `apply_unitary`
with a checked `Gate`, `attach_ancilla` of `append_ancilla`, `probe_cnot`
of `cnot` and `measure_qubit` of `measure`, with the uniform it is
given. `measure_qubits` measures a whole stage in one loop of `measure`,
the stage's uniforms from one draw of the generator.

A strategy may touch a protocol qubit only inside its tap. The channel
lends it refs of its own (`_lend`) under a lease that is revoked when the
tap returns, and every gate, measurement or ancilla through a revoked ref
raises RevokedHandleError; a list sliced or joined from the lent refs holds
the same revoked refs, which are built once a tap, on its first read.
The ref `attach_ancilla` returns names only the ancilla and stays
usable, so a probe may read its ancilla later.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .quantum import Basis, Gate, StateVector, append_ancilla, apply_unitary, cnot, measure


class Register:
    """Mutable slot holding the current state of one qubit register."""

    __slots__ = ("state",)

    def __init__(self, state: StateVector) -> None:
        self.state = state


class RevokedHandleError(RuntimeError):
    """A qubit ref was used after the tap it was lent for returned."""


class QubitRef:
    """Handle to one qubit of a (possibly shared) register.

    A ref lent to a strategy carries its tap's lease and names the caller's
    ref it stands for as its owner; other refs carry neither and never
    expire.
    """

    __slots__ = ("register", "index", "lease", "owner")

    def __init__(self, register: Register, index: int,
                 lease: _LentRefs | None = None, owner: QubitRef | None = None) -> None:
        self.register = register
        self.index = index
        self.lease = lease
        self.owner = owner


def _live(ref: QubitRef) -> Register:
    """The ref's register; RevokedHandleError once its lease is revoked."""
    if ref.lease is not None and not ref.lease.live:
        raise RevokedHandleError("qubit ref used after its tap returned")
    return ref.register


class _LentRefs:
    """The refs of one tap, as a list the strategy reads, and the tap's
    lease: on the tap's first read, one ref is issued under this lease for
    each caller's ref, its owner, and every read gives those same refs."""

    __slots__ = ("owners", "live", "issued")

    def __init__(self, owners: list[QubitRef]) -> None:
        self.owners, self.live, self.issued = owners, True, None

    def _refs(self) -> list[QubitRef]:
        if self.issued is None:
            self.issued = [QubitRef(_live(owner), owner.index, self, owner)
                           for owner in self.owners]
        return self.issued

    def __len__(self) -> int:
        return len(self.owners)

    def __getitem__(self, key):
        return self._refs()[key]

    def __iter__(self):
        return iter(self._refs())


def _lend(
    refs: Sequence[QubitRef], tap: Callable[[Sequence[QubitRef]], Sequence[QubitRef]]
) -> list[QubitRef]:
    """Call `tap` with the refs lent for the call alone.

    Every ref `tap` reads from what it is lent is revoked when `tap`
    returns. Returns the refs `tap` hands back, each lent one replaced by
    its owner, the caller's ref to the same qubit.
    """
    lent = _LentRefs(list(refs))
    out = tap(lent)
    lent.live = False
    if out is lent:
        return lent.owners
    return [r.owner if r.lease is lent else r for r in out]


def new_qubit(state: StateVector) -> QubitRef:
    if len(state.amps) != 2:
        raise ValueError("new_qubit expects a one-qubit state")
    return QubitRef(Register(state), 0)


def apply_gate(ref: QubitRef, gate: Gate) -> None:
    """Apply a single-qubit Gate in place."""
    reg = _live(ref)
    reg.state = apply_unitary(reg.state, gate, (ref.index,))


def attach_ancilla(ref: QubitRef) -> QubitRef:
    """Append a fresh |0> ancilla to the ref's register and return its handle.

    The returned ref names the ancilla alone and carries no lease.
    """
    reg = _live(ref)
    reg.state = append_ancilla(reg.state)
    return QubitRef(reg, reg.state.num_qubits - 1)


def probe_cnot(control: QubitRef, target: QubitRef) -> None:
    """CNOT from `control` onto `target`, two qubits of one register."""
    reg = _live(control)
    if _live(target) is not reg:
        raise ValueError("CNOT requires qubits in the same register")
    reg.state = cnot(reg.state, control.index, target.index)


def measure_qubit(ref: QubitRef, basis: Basis, u: float) -> int:
    """Projective measurement with collapse, the bit 0 when the uniform `u`
    lies below the probability of 0; updates the shared register."""
    reg = _live(ref)
    bit, reg.state = measure(reg.state, ref.index, basis, u)
    return bit


def measure_qubits(
    refs: Sequence[QubitRef], bases: Sequence[Basis], rng: np.random.Generator
) -> bytes:
    """measure_qubit of refs[i] in bases[i], in order, with uniform i of
    one draw of len(refs) uniforms; the bits as bytes."""
    bits = bytearray()
    for ref, basis, u in zip(refs, bases, rng.random(len(refs)).tolist()):
        lease = ref.lease
        if lease is not None and not lease.live:
            raise RevokedHandleError("qubit ref used after its tap returned")
        reg = ref.register
        bit, reg.state = measure(reg.state, ref.index, basis, u)
        bits.append(bit)
    return bytes(bits)
