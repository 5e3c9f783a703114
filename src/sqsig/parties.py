"""Participant capability model.

A quantum party may prepare arbitrary states and measure in any basis.
A classical party is restricted to Z-basis preparation and measurement,
reflection, reordering, delaying, and classical computation. Every
primitive operation a party performs is appended to its op_log, and a
classical party attempting a non-classical operation is rejected at the
interface with CapabilityError. Preparation, Bell pairs included, and
measurement take a whole stage of qubits: its ops are checked before any
qubit is touched, then logged in stage order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .keys import Bits
from .quantum import Basis, prepare_bell, prepare_single

# measure_qubit is not called here: the benchmark tracer binds it in this module.
from .register import QubitRef, Register, measure_qubit, measure_qubits, new_qubit


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
_CLASSICAL = PartyKind.CLASSICAL
_PREPARE_Z, _PREPARE_X = OpKind.PREPARE_Z, OpKind.PREPARE_X
_MEASURE_Z, _MEASURE_X = OpKind.MEASURE_Z, OpKind.MEASURE_X
_ENTANGLED_OPS = (OpKind.PREPARE_ENTANGLED,)


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

    def prepare(self, bases: Sequence[Basis], bits: Sequence[int]) -> list[QubitRef]:
        """One fresh qubit per (basis, bit), in stage order."""
        if len(bases) != len(bits):
            raise ValueError("a stage needs one basis per bit")
        self._record([_PREPARE_Z if b is _Z else _PREPARE_X for b in bases])
        return list(map(new_qubit, map(prepare_single, bases, bits)))

    def prepare_bell_pair(
        self, g: Sequence[int]
    ) -> tuple[list[QubitRef], list[QubitRef]]:
        """One fresh Bell pair per bit of g: the (trent_halves, bob_halves) handles."""
        self._record(_ENTANGLED_OPS * len(g))
        registers = list(map(Register, map(prepare_bell, g)))
        return ([QubitRef(reg, 0) for reg in registers],
                [QubitRef(reg, 1) for reg in registers])

    def measure(
        self, refs: Sequence[QubitRef], bases: Sequence[Basis],
        rng: np.random.Generator,
    ) -> Bits:
        """Measure refs[i] in bases[i], in order, from one draw of len(refs) uniforms."""
        if len(bases) != len(refs):
            raise ValueError("a stage needs one basis per qubit")
        self._record([_MEASURE_Z if b is _Z else _MEASURE_X for b in bases])
        return measure_qubits(refs, bases, rng)

    def reflect(self, refs: Sequence[QubitRef]) -> list[QubitRef]:
        """Send qubits back undisturbed."""
        self._record((OpKind.REFLECT,))
        return list(refs)

    def reorder(self, refs: Sequence[QubitRef], perm: Sequence[int]) -> list[QubitRef]:
        """Return refs permuted so that result[j] = refs[perm[j]]."""
        self._record((OpKind.REORDER,))
        if sorted(perm) != list(range(len(refs))):
            raise ValueError("perm is not a bijection on the refs")
        return [refs[p] for p in perm]

    def delay(self) -> None:
        self._record((OpKind.DELAY,))

    def classical_compute(self) -> None:
        self._record((OpKind.CLASSICAL_COMPUTE,))


def quantum_party(name: str) -> Party:
    return Party(name=name, kind=PartyKind.QUANTUM)


def classical_party(name: str) -> Party:
    return Party(name=name, kind=PartyKind.CLASSICAL)
