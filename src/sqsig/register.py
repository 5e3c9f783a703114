"""Mutable qubit handles layered over the pure state-vector core.

The protocol moves individual qubits around (halves of Bell pairs, decoy
particles, adversary ancillas) while the underlying registers stay put.
A Register owns one StateVector; a QubitRef names one qubit inside it.
Operations on refs replace the register's state with the pure-core result,
so every holder of a ref to the same register observes the update.
"""

from __future__ import annotations

import numpy as np

from .quantum import (
    CNOT,
    MAX_REGISTER_QUBITS,
    Basis,
    RegisterSizeError,
    StateVector,
    _apply_gate_unchecked,
    apply_unitary,
    measure,
)


class Register:
    """Mutable slot holding the current state of one qubit register."""

    __slots__ = ("state",)

    def __init__(self, state: StateVector) -> None:
        self.state = state

    def refs(self) -> list["QubitRef"]:
        return [QubitRef(self, i) for i in range(self.state.num_qubits)]


class QubitRef:
    """Handle to one qubit of a (possibly shared) register."""

    __slots__ = ("register", "index")

    def __init__(self, register: Register, index: int) -> None:
        self.register = register
        self.index = index


def new_qubit(state: StateVector) -> QubitRef:
    if state.num_qubits != 1:
        raise ValueError("new_qubit expects a one-qubit state")
    return QubitRef(Register(state), 0)


def apply_gate(ref: QubitRef, u: np.ndarray) -> None:
    """Apply a single-qubit unitary in place."""
    reg = ref.register
    reg.state = apply_unitary(reg.state, u, (ref.index,))


def attach_ancilla(ref: QubitRef) -> QubitRef:
    """Append a fresh |0> ancilla to the ref's register and return its handle."""
    reg = ref.register
    old = reg.state
    if old.num_qubits + 1 > MAX_REGISTER_QUBITS:
        raise RegisterSizeError(
            f"register of {old.num_qubits + 1} qubits exceeds cap "
            f"{MAX_REGISTER_QUBITS}"
        )
    # Appending |0> interleaves the old amplitudes with zeros.
    amps = np.zeros(old.amplitudes.size * 2, dtype=complex)
    amps[0::2] = old.amplitudes
    reg.state = StateVector(amps, check=False)
    return QubitRef(reg, reg.state.num_qubits - 1)


def probe_cnot(control: QubitRef, target: QubitRef) -> None:
    """CNOT with trusted constant matrix (skips the unitarity check)."""
    if control.register is not target.register:
        raise ValueError("CNOT requires qubits in the same register")
    reg = control.register
    reg.state = _apply_gate_unchecked(reg.state, CNOT, (control.index, target.index))


def measure_qubit(ref: QubitRef, basis: Basis, rng: np.random.Generator) -> int:
    """Projective measurement with collapse; updates the shared register."""
    reg = ref.register
    outcome = measure(reg.state, ref.index, basis, rng)
    reg.state = outcome.post_state
    return outcome.bit
