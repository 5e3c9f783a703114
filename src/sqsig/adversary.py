"""Attack strategies injected at channel tap points.

Every transmission in a run passes through the channel, which applies
optional depolarizing noise and then hands the payload to the active
strategy exactly once per direction. Strategies mutate in-flight qubits
through their refs (measurement, unitaries, probe ancillas) or rewrite
classical bit payloads, and may keep per-run memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .keys import Bits
from .quantum import Basis, HADAMARD, PAULI_X, PAULI_Y, PAULI_Z
from .register import (
    QubitRef,
    apply_gate,
    attach_ancilla,
    measure_qubit,
    probe_cnot,
)


class TapPoint(str, Enum):
    FORWARD_ALICE_TO_TRENT = "forward_alice_to_trent"
    RETURN_TRENT_TO_ALICE = "return_trent_to_alice"
    ALICE_TO_BOB_QUANTUM = "alice_to_bob_quantum"
    ALICE_TO_BOB_CLASSICAL = "alice_to_bob_classical"
    BOB_TO_TRENT_CLASSICAL = "bob_to_trent_classical"


@dataclass
class AdversaryMemory:
    """Ancillas and classical observations the adversary holds in one run."""

    ancillas: list[QubitRef] = field(default_factory=list)
    measured_bits: list[int] = field(default_factory=list)
    observed_classical: list[tuple[str, Bits]] = field(default_factory=list)


class AttackStrategy:
    """Base strategy: observe classical traffic, leave qubits untouched."""

    kind = "no_attack"

    def __init__(self) -> None:
        self.memory = AdversaryMemory()

    def tap_qubits(
        self, point: TapPoint, refs: Sequence[QubitRef], rng: np.random.Generator
    ) -> list[QubitRef]:
        return list(refs)

    def tap_classical(
        self, point: TapPoint, name: str, bits: Bits, rng: np.random.Generator
    ) -> Bits:
        self.memory.observed_classical.append((name, bits))
        return bits


class NoAttack(AttackStrategy):
    kind = "no_attack"


class InterceptMeasureResendZ(AttackStrategy):
    """Z-measure every forward qubit and forward the collapsed state."""

    kind = "intercept_resend_z"

    def tap_qubits(self, point, refs, rng):
        if point is TapPoint.FORWARD_ALICE_TO_TRENT:
            for ref in refs:
                self.memory.measured_bits.append(measure_qubit(ref, Basis.Z, rng))
        return list(refs)


_NAMED_UNITARIES = {
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "H": HADAMARD,
}


class UnitaryTamperThenUndo(AttackStrategy):
    """Apply U to every forward qubit, U-dagger to every returned qubit."""

    kind = "unitary_tamper_then_undo"

    def __init__(self, u: np.ndarray | str) -> None:
        super().__init__()
        if isinstance(u, str):
            u = _NAMED_UNITARIES[u]
        self.u = np.asarray(u, dtype=complex)

    def tap_qubits(self, point, refs, rng):
        if point is TapPoint.FORWARD_ALICE_TO_TRENT:
            for ref in refs:
                apply_gate(ref, self.u)
        elif point is TapPoint.RETURN_TRENT_TO_ALICE:
            for ref in refs:
                apply_gate(ref, self.u.conj().T)
        return list(refs)


class PauliXTamper(UnitaryTamperThenUndo):
    """The bit-flip instance of tamper-then-undo."""

    kind = "pauli_x_tamper"

    def __init__(self) -> None:
        super().__init__("X")


class EntangleProbe(AttackStrategy):
    """Couple a CNOT ancilla to each forward qubit; measure probes later.

    measure_time: "after_return" (default, once the returned decoys are
    observed) or "immediate" (right after coupling).
    """

    kind = "entangle_probe"
    MEASURE_TIMES = ("after_return", "immediate")

    def __init__(self, measure_time: str = "after_return") -> None:
        super().__init__()
        if measure_time not in self.MEASURE_TIMES:
            raise ValueError(f"unknown measure_time {measure_time!r}")
        self.measure_time = measure_time

    def _measure_probes(self, rng: np.random.Generator) -> None:
        while self.memory.ancillas:
            probe = self.memory.ancillas.pop(0)
            self.memory.measured_bits.append(measure_qubit(probe, Basis.Z, rng))

    def tap_qubits(self, point, refs, rng):
        if point is TapPoint.FORWARD_ALICE_TO_TRENT:
            for ref in refs:
                probe = attach_ancilla(ref)
                probe_cnot(ref, probe)
                self.memory.ancillas.append(probe)
            if self.measure_time == "immediate":
                self._measure_probes(rng)
        elif point is TapPoint.RETURN_TRENT_TO_ALICE:
            if self.measure_time == "after_return":
                self._measure_probes(rng)
        return list(refs)


class TamperSignatureB(AttackStrategy):
    """Bit-flip the in-flight signature qubits at the listed positions."""

    kind = "tamper_signature_b"

    def __init__(self, positions: Sequence[int]) -> None:
        super().__init__()
        self.positions = tuple(sorted(set(int(p) for p in positions)))

    def tap_qubits(self, point, refs, rng):
        if point is TapPoint.ALICE_TO_BOB_QUANTUM:
            for p in self.positions:
                if p < 0 or p >= len(refs):
                    raise IndexError(f"tamper position {p} out of range")
                apply_gate(refs[p], PAULI_X)
        return list(refs)


class TamperClassicalMessage(AttackStrategy):
    """Flip bits of the plaintext message on its way to Bob."""

    kind = "tamper_classical_message"

    def __init__(self, positions: Sequence[int]) -> None:
        super().__init__()
        self.positions = tuple(sorted(set(int(p) for p in positions)))

    def tap_classical(self, point, name, bits, rng):
        bits = super().tap_classical(point, name, bits, rng)
        if point is TapPoint.ALICE_TO_BOB_CLASSICAL and name == "message":
            out = list(bits)
            for p in self.positions:
                if p < 0 or p >= len(out):
                    raise IndexError(f"tamper position {p} out of range")
                out[p] ^= 1
            return tuple(out)
        return bits


_PAULI_CYCLE = (PAULI_X, PAULI_Y, PAULI_Z)


class Channel:
    """Transmission medium: depolarizing noise, adversary tap, transcript log."""

    def __init__(
        self,
        strategy: AttackStrategy,
        noise_p: float = 0.0,
        transcript: list | None = None,
    ) -> None:
        if not 0.0 <= noise_p < 1.0:
            raise ValueError(f"noise_p must lie in [0,1), got {noise_p}")
        self.strategy = strategy
        self.noise_p = noise_p
        # A None transcript disables logging entirely (bulk Monte Carlo runs).
        self.transcript = transcript

    def _log(self, event: str, **detail) -> None:
        if self.transcript is not None:
            self.transcript.append({"event": event, **detail})

    def send_qubits(
        self, point: TapPoint, refs: Sequence[QubitRef], rng: np.random.Generator
    ) -> list[QubitRef]:
        if self.noise_p > 0.0:
            for ref in refs:
                if rng.random() < self.noise_p:
                    apply_gate(ref, _PAULI_CYCLE[rng.integers(0, 3)])
        out = self.strategy.tap_qubits(point, refs, rng)
        if self.transcript is not None:
            self._log("quantum_send", point=point.value, count=len(out),
                      tap=self.strategy.kind)
        return out

    def send_classical(
        self, point: TapPoint, name: str, bits: Sequence[int],
        rng: np.random.Generator,
    ) -> Bits:
        out = self.strategy.tap_classical(point, name, tuple(bits), rng)
        if self.transcript is not None:
            self._log("classical", point=point.value, name=name,
                      bits="".join(str(b) for b in out))
        return out
