"""Participant capability model.

A quantum party may prepare arbitrary states and measure in any basis.
A classical party is restricted to Z-basis preparation and measurement,
reflection, reordering, delaying, and classical computation. Every
primitive operation a party performs is appended to its op_log, and a
classical party attempting a non-classical operation is rejected at the
interface with CapabilityError. Preparation, Bell pairs included, and
measurement take a whole stage of qubits, and every check of a stage runs
before it logs anything or touches a qubit; its ops are then logged in
stage order, one OpKind a qubit, from per-kind tables. A qubit's basis is
one bit, Z = 0 and X = 1: a preparing stage takes its codes, basis bit
<< 1 | value, as bytes, and a measuring stage its basis bits as bytes, so
a classical party's capability check is one bytes test against the codes
and bits whose op CLASSICAL_ALLOWED holds. A qubit is its
int handle into the round's `register.Slots`; a preparing stage prepares
each distinct code's state once and fills its slots with one
`register.new_qubit` call, and a measuring stage is one
`quantum.measure_stage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .keys import Bits
from .quantum import Basis, StateVector, measure_stage, prepare_bell, prepare_single

# measure_qubit is not called here: the benchmark tracer binds it in this module.
from .register import Slots, measure_qubit, new_qubit


class OpKind(str, Enum):
    PREPARE_Z = "prepare_z"
    PREPARE_X = "prepare_x"
    PREPARE_ENTANGLED = "prepare_entangled"
    MEASURE_Z = "measure_z"
    MEASURE_X = "measure_x"
    REFLECT = "reflect"
    REORDER = "reorder"
    DELAY = "delay"
    CLASSICAL_COMPUTE = "classical_compute"


CLASSICAL_ALLOWED = frozenset(
    {
        OpKind.PREPARE_Z,
        OpKind.MEASURE_Z,
        OpKind.REFLECT,
        OpKind.REORDER,
        OpKind.DELAY,
        OpKind.CLASSICAL_COMPUTE,
    }
)


class PartyKind(str, Enum):
    QUANTUM = "quantum"
    CLASSICAL = "classical"


# Enum member reads, done once: they sit on the path of every party op.
_QUANTUM, _CLASSICAL = PartyKind.QUANTUM, PartyKind.CLASSICAL
_ENTANGLED_OPS = (OpKind.PREPARE_ENTANGLED,)
_REFLECT_OPS, _REORDER_OPS = (OpKind.REFLECT,), (OpKind.REORDER,)
_DELAY_OPS, _COMPUTE_OPS = (OpKind.DELAY,), (OpKind.CLASSICAL_COMPUTE,)


# By code, basis bit << 1 | value (Z = 0, X = 1): a preparing stage's
# op and basis. By basis bit: a measuring stage's op. The codes and bits
# whose op CLASSICAL_ALLOWED holds: all a classical party may send.
_PREPARE_OPS = (OpKind.PREPARE_Z, OpKind.PREPARE_Z, OpKind.PREPARE_X, OpKind.PREPARE_X)
_CODE_BASIS = (Basis.Z, Basis.Z, Basis.X, Basis.X)
_MEASURE_OPS = (OpKind.MEASURE_Z, OpKind.MEASURE_X)
_CLASSICAL_CODES = bytes(c for c, op in enumerate(_PREPARE_OPS) if op in CLASSICAL_ALLOWED)
_CLASSICAL_BITS = bytes(b for b, op in enumerate(_MEASURE_OPS) if op in CLASSICAL_ALLOWED)


def _prepare(made: list, code: int) -> StateVector:
    """The state of `code`, kept in made[code]."""
    state = made[code] = prepare_single(_CODE_BASIS[code], code & 1)
    return state


class CapabilityError(RuntimeError):
    """A classical party attempted an operation outside its capability set."""


@dataclass
class Party:
    name: str
    kind: PartyKind
    op_log: list[OpKind] = field(default_factory=list)

    def _refuse(self, op: OpKind) -> None:
        raise CapabilityError(f"classical party {self.name} may not perform {op.value}")

    def _record(self, ops: Sequence[OpKind]) -> None:
        if self.kind is _CLASSICAL and not CLASSICAL_ALLOWED.issuperset(ops):
            self._refuse(next(op for op in ops if op not in CLASSICAL_ALLOWED))
        self.op_log.extend(ops)

    def prepare(self, slots: Slots, codes: bytes) -> list[int]:
        """One fresh qubit per code, in stage order: their handles."""
        if type(codes) is not bytes:
            raise TypeError(f"a stage's codes are bytes, got {type(codes).__name__}")
        try:
            logged = [_PREPARE_OPS[c] for c in codes]
        except IndexError:
            raise ValueError(f"a code is not 0..3: {max(codes)}") from None
        if self.kind is _CLASSICAL:
            refused = codes.translate(None, _CLASSICAL_CODES)
            if refused:
                self._refuse(_PREPARE_OPS[refused[0]])
        made = [None, None, None, None]  # by code, prepared on its first use
        states = [made[c] or _prepare(made, c) for c in codes]
        self.op_log += logged
        return new_qubit(slots, states)

    def prepare_bell_pair(
        self, slots: Slots, g: Sequence[int]
    ) -> tuple[list[int], list[int]]:
        """One fresh Bell pair per bit of g: the (trent_halves, bob_halves)."""
        made = {bit: prepare_bell(bit) for bit in dict.fromkeys(g)}  # each value once
        self._record(_ENTANGLED_OPS * len(g))
        states = slots.states
        first = len(states) << 2
        states += map(made.__getitem__, g)
        t_halves = list(range(first, len(states) << 2, 4))
        return t_halves, [h | 1 for h in t_halves]

    def measure(
        self, slots: Slots, handles: Sequence[int], basis_bits: bytes,
        rng: np.random.Generator,
    ) -> Bits:
        """Measure handles[i] in the basis of bit basis_bits[i] (0 for Z,
        1 for X), in order, from one draw of uniforms."""
        k = len(handles)
        if type(basis_bits) is not bytes:
            raise TypeError(f"a stage's basis bits are bytes, got {type(basis_bits).__name__}")
        if len(basis_bits) != k:
            raise ValueError("a stage needs one basis bit per qubit")
        try:
            logged = [_MEASURE_OPS[b] for b in basis_bits]
        except IndexError:
            raise ValueError(f"a basis bit is not 0 or 1: {max(basis_bits)}") from None
        if self.kind is _CLASSICAL:
            refused = basis_bits.translate(None, _CLASSICAL_BITS)
            if refused:
                self._refuse(_MEASURE_OPS[refused[0]])
        self.op_log += logged
        return measure_stage(slots.states, handles, basis_bits, rng.random(k).tolist())

    def reflect(self, handles: Sequence[int]) -> list[int]:
        """Send qubits back undisturbed."""
        self._record(_REFLECT_OPS)
        return list(handles)

    def reorder(self, handles: Sequence[int], perm: Sequence[int]) -> list[int]:
        """Return handles permuted so that result[j] = handles[perm[j]]."""
        if sorted(perm) != list(range(len(handles))):
            raise ValueError("perm is not a bijection on the qubits")
        self._record(_REORDER_OPS)
        return list(map(handles.__getitem__, perm))

    def delay(self) -> None:
        self._record(_DELAY_OPS)

    def classical_compute(self) -> None:
        self._record(_COMPUTE_OPS)


def quantum_party(name: str) -> Party:
    return Party(name, _QUANTUM)


def classical_party(name: str) -> Party:
    return Party(name, _CLASSICAL)
