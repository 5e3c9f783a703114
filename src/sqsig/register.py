"""A protocol round's qubits, as slots of one list, over the pure core.

A round keeps its registers in one `Slots`: `states[s]` is register s,
and the int handle `s << 2 | index` names qubit `index` of it. Parties,
detection and the channel pass lists of handles; a preparing stage fills
its fresh slots with one `new_qubit` call, an op replaces the state in
its slot with the pure-core result, and a read stage is one
`quantum.measure_stage` over the slot list.

A strategy acts only through a `QubitRef`, a (slots, handle) pair: each
op is one pure op of `quantum` (`apply_gate` of `apply_unitary`,
`attach_ancilla` of `append_ancilla`, `probe_cnot` of `cnot`,
`measure_qubit` of `measure`, `measure_qubits` a stage from one draw).
The slot list, not the ref, decides who may act: `lent` holds what the
running tap is lent (`_lend`) and `ancillas` what the strategy attached,
and an op on any other handle, however its ref was built, raises
RevokedHandleError. A tap's refs are built once, on its first read, and
`measure_qubits` over the running tap's own lent list reads its handles
with one lease check and builds no ref.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .quantum import (Basis, Gate, StateVector, append_ancilla, apply_unitary, cnot,
                      measure, measure_stage)


class Slots:
    """The registers of one round by slot, and who may act on which qubit."""

    __slots__ = ("states", "lent", "ancillas")

    def __init__(self) -> None:
        self.states: list[StateVector] = []
        self.lent: _LentRefs | None = None  # the running tap's
        self.ancillas: set[int] = set()  # attached by the strategy


class RevokedHandleError(RuntimeError):
    """A strategy acted on a qubit that its running tap does not hold."""


class QubitRef:
    """A strategy's handle to one qubit of a round's slot list."""

    __slots__ = ("slots", "handle")

    def __init__(self, slots: Slots, handle: int) -> None:
        self.slots, self.handle = slots, handle


def _held(slots: Slots, ref: QubitRef) -> int:
    """The ref's handle; RevokedHandleError unless the ref is into `slots`
    and the running tap lends its handle or the strategy attached it."""
    handle = ref.handle
    if ref.slots is slots:
        lent = slots.lent
        if lent is not None:
            if lent.held is None:  # built on the tap's first check
                lent.held = set(lent.handles)
            if handle in lent.held:
                return handle
        if handle in slots.ancillas:
            return handle
    raise RevokedHandleError("qubit used outside the tap that holds it")


class _LentRefs:
    """A tap's refs as a list: one per lent handle, built on the first read."""

    __slots__ = ("slots", "handles", "issued", "held")

    def __init__(self, slots: Slots, handles: Sequence[int]) -> None:
        self.slots, self.handles, self.issued, self.held = slots, handles, None, None

    def _refs(self) -> list[QubitRef]:
        if self.issued is None:
            self.issued = [QubitRef(self.slots, h) for h in self.handles]
        return self.issued

    def __len__(self) -> int:
        return len(self.handles)

    def __getitem__(self, key):
        return self._refs()[key]

    def __iter__(self):
        return iter(self._refs())


def _lend(
    slots: Slots, handles: Sequence[int],
    tap: Callable[[object, Sequence[QubitRef], np.random.Generator], Sequence[QubitRef]],
    point: object, rng: np.random.Generator,
) -> Sequence[int]:
    """Call `tap(point, refs, rng)`, a strategy's `tap_qubits`, with
    `handles` lent to it as `refs` for the call alone; the handles of the
    refs it hands back, each lent or an ancilla it attached."""
    lent = slots.lent = _LentRefs(slots, handles)
    try:
        out = tap(point, lent, rng)
        return handles if out is lent else [_held(slots, ref) for ref in out]
    finally:
        slots.lent = None


def new_qubit(slots: Slots, states: Sequence[StateVector]) -> list[int]:
    """The handles of fresh slots holding the one-qubit `states`, in order:
    qubit 0 of each."""
    first = len(slots.states)
    slots.states += states
    return list(range(first << 2, len(slots.states) << 2, 4))


def gate_handle(slots: Slots, handle: int, gate: Gate) -> None:
    """Apply a single-qubit Gate to the qubit `handle` names, in place."""
    states, s = slots.states, handle >> 2
    states[s] = apply_unitary(states[s], gate, (handle & 3,))


def apply_gate(ref: QubitRef, gate: Gate) -> None:
    """Apply a single-qubit Gate in place."""
    gate_handle(ref.slots, _held(ref.slots, ref), gate)


def attach_ancilla(ref: QubitRef) -> QubitRef:
    """Append a |0> ancilla to the ref's register; its ref stays usable
    for the rest of the round."""
    slots = ref.slots
    s = _held(slots, ref) >> 2
    state = slots.states[s] = append_ancilla(slots.states[s])
    handle = s << 2 | state.num_qubits - 1
    slots.ancillas.add(handle)
    return QubitRef(slots, handle)


def probe_cnot(control: QubitRef, target: QubitRef) -> None:
    """CNOT from `control` onto `target`, two qubits of one register."""
    slots = control.slots
    c, t = _held(slots, control), _held(slots, target)
    if c >> 2 != t >> 2:
        raise ValueError("CNOT requires qubits in the same register")
    slots.states[c >> 2] = cnot(slots.states[c >> 2], c & 3, t & 3)


def measure_qubit(ref: QubitRef, basis: Basis, u: float) -> int:
    """Projective measurement with collapse, the bit 0 when the uniform `u`
    lies below the probability of 0."""
    states, handle = ref.slots.states, _held(ref.slots, ref)
    bit, states[handle >> 2] = measure(states[handle >> 2], handle & 3, basis, u)
    return bit


def measure_qubits(
    refs: Sequence[QubitRef], bases: Sequence[Basis], rng: np.random.Generator
) -> bytes:
    """measure_qubit of refs[i] in bases[i], in order, with uniform i of
    one draw of len(refs) uniforms; the bits as bytes. The running tap's
    own lent list is read by its handles, with no ref built."""
    if type(refs) is _LentRefs and refs.slots.lent is refs:
        slots, handles = refs.slots, refs.handles
    else:
        slots = refs[0].slots if len(refs) else Slots()
        handles = [_held(slots, ref) for ref in refs]
    return measure_stage(slots.states, handles, bases, rng.random(len(handles)).tolist())
