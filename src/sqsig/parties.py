"""Participant capability model.

A quantum party may prepare arbitrary states and measure in any basis.
A classical party is restricted to Z-basis preparation and measurement,
reflection, reordering, delaying, and classical computation. Every
primitive operation a party performs is appended to its op_log, and a
classical party attempting a non-classical operation is rejected at the
interface with CapabilityError. Preparation, Bell pairs included, and
measurement take a whole stage of qubits: its ops are checked before any
qubit is touched, then logged in stage order. A qubit is its int handle
into the round's `register.Slots`; a preparing stage fills its slots with
one `register.new_qubit` call, and a measuring stage is one
`quantum.measure_stage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .keys import Bits
from .quantum import Basis, measure_stage, prepare_bell, prepare_single

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
_Z = Basis.Z
_QUANTUM, _CLASSICAL = PartyKind.QUANTUM, PartyKind.CLASSICAL
_PREPARE_Z, _PREPARE_X = OpKind.PREPARE_Z, OpKind.PREPARE_X
_MEASURE_Z, _MEASURE_X = OpKind.MEASURE_Z, OpKind.MEASURE_X
_ENTANGLED_OPS = (OpKind.PREPARE_ENTANGLED,)
_REFLECT_OPS, _REORDER_OPS = (OpKind.REFLECT,), (OpKind.REORDER,)
_DELAY_OPS, _COMPUTE_OPS = (OpKind.DELAY,), (OpKind.CLASSICAL_COMPUTE,)


class CapabilityError(RuntimeError):
    """A classical party attempted an operation outside its capability set."""


@dataclass
class Party:
    name: str
    kind: PartyKind
    op_log: list[OpKind] = field(default_factory=list)

    def _record(self, ops: Sequence[OpKind]) -> None:
        if self.kind is _CLASSICAL and not CLASSICAL_ALLOWED.issuperset(ops):
            op = next(op for op in ops if op not in CLASSICAL_ALLOWED)
            raise CapabilityError(
                f"classical party {self.name} may not perform {op.value}"
            )
        self.op_log.extend(ops)

    def prepare(
        self, slots: Slots, bases: Sequence[Basis], bits: Sequence[int]
    ) -> list[int]:
        """One fresh qubit per (basis, bit), in stage order: their handles."""
        if len(bases) != len(bits):
            raise ValueError("a stage needs one basis per bit")
        self._record([_PREPARE_Z if b is _Z else _PREPARE_X for b in bases])
        return new_qubit(slots, list(map(prepare_single, bases, bits)))

    def prepare_bell_pair(
        self, slots: Slots, g: Sequence[int]
    ) -> tuple[list[int], list[int]]:
        """One fresh Bell pair per bit of g: the (trent_halves, bob_halves)."""
        self._record(_ENTANGLED_OPS * len(g))
        made = {bit: prepare_bell(bit) for bit in dict.fromkeys(g)}  # each value once
        states = slots.states
        first = len(states) << 2
        states += map(made.__getitem__, g)
        t_halves = list(range(first, len(states) << 2, 4))
        return t_halves, [h | 1 for h in t_halves]

    def measure(
        self, slots: Slots, handles: Sequence[int], bases: Sequence[Basis],
        rng: np.random.Generator,
    ) -> Bits:
        """Measure handles[i] in bases[i], in order, from one draw of uniforms."""
        k = len(handles)
        if len(bases) != k:
            raise ValueError("a stage needs one basis per qubit")
        self._record([_MEASURE_Z if b is _Z else _MEASURE_X for b in bases])
        return measure_stage(slots.states, handles, bases, rng.random(k).tolist())

    def reflect(self, handles: Sequence[int]) -> list[int]:
        """Send qubits back undisturbed."""
        self._record(_REFLECT_OPS)
        return list(handles)

    def reorder(self, handles: Sequence[int], perm: Sequence[int]) -> list[int]:
        """Return handles permuted so that result[j] = handles[perm[j]]."""
        self._record(_REORDER_OPS)
        if sorted(perm) != list(range(len(handles))):
            raise ValueError("perm is not a bijection on the qubits")
        return list(map(handles.__getitem__, perm))

    def delay(self) -> None:
        self._record(_DELAY_OPS)

    def classical_compute(self) -> None:
        self._record(_COMPUTE_OPS)


def quantum_party(name: str) -> Party:
    return Party(name, _QUANTUM)


def classical_party(name: str) -> Party:
    return Party(name, _CLASSICAL)
