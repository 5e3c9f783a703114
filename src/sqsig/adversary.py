"""Attack strategies injected at channel tap points.

Every transmission in a run passes through the channel, which applies
optional depolarizing noise and then hands the payload to the active
strategy exactly once per direction. Strategies mutate in-flight qubits
through their refs or rewrite classical payloads. The protocol sends int
handles into the round's `register.Slots`, which the channel carries,
and only a strategy sees `QubitRef`s. A classical payload reaches
`tap_classical` as its fields: `keys.Bits`, one 0/1 byte per bit, on a
bit wire (`message`, `message_to_trent`, `b_string`, the receipt
confirmations), and a tuple of ints on an announcement (18-bit LOC
records, 16-bit permutation entries; a list of ciphertext fields under
inline OTP). The tap may return any sequence, and the receiver refuses
what is not fields of its wire: an item on an announcement that is not
an int in [0, 2**width) aborts the round, and an item on a bit wire that
is not an int 0 or 1 (a bool, a float or a numpy integer included)
leaves Trent's No or Bob's rejection. The transcript renders each field
as `width` binary digits, and any other item, an int outside
[0, 2**width) included, as `width` question marks. A strategy may touch
a protocol qubit only inside its tap: an op on a qubit that the running
tap is not lent raises RevokedHandleError, however its ref was built.
Ancillas the strategy attached stay usable for the whole round.

The four quantum attacks on the Alice->Trent->Alice leg are one
`QubitProbe` family (Boyer, Kenigsberg & Mor, PRL 99, 140501, 2007),
whose only per-run state is its unread ancillas. Every gate a strategy or
the channel applies is one of the shared Clifford Gates of
`quantum.GATES`, each its own undo: the named unitaries, the tamper flip
and the noise Paulis. `register.gate_handle` refuses any other Gate, so
every state a round reaches stays in the state table.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .quantum import GATES, Basis
from .register import (QubitRef, Slots, _lend, apply_gate, attach_ancilla, gate_handle,
                       measure_qubit, measure_qubits, probe_cnot)


class TapPoint(str, Enum):
    FORWARD_ALICE_TO_TRENT = "forward_alice_to_trent"
    RETURN_TRENT_TO_ALICE = "return_trent_to_alice"
    ALICE_TO_BOB_QUANTUM = "alice_to_bob_quantum"
    ALICE_TO_BOB_CLASSICAL = "alice_to_bob_classical"
    BOB_TO_TRENT_CLASSICAL = "bob_to_trent_classical"


# Enum member reads, done once: they sit on the path of every send.
_FORWARD = TapPoint.FORWARD_ALICE_TO_TRENT
_RETURN = TapPoint.RETURN_TRENT_TO_ALICE
_BOB_QUANTUM = TapPoint.ALICE_TO_BOB_QUANTUM
_BOB_CLASSICAL = TapPoint.ALICE_TO_BOB_CLASSICAL
_Z = Basis.Z


class AttackStrategy:
    """Base strategy: pass qubits and classical traffic through untouched."""

    kind = "no_attack"

    def tap_qubits(
        self, point: TapPoint, refs: Sequence[QubitRef], rng: np.random.Generator
    ) -> Sequence[QubitRef]:
        return refs

    def tap_classical(
        self, point: TapPoint, name: str, payload: Sequence[int],
        rng: np.random.Generator,
    ) -> Sequence[int]:
        return payload


class NoAttack(AttackStrategy):
    kind = "no_attack"


class QubitProbe(AttackStrategy):
    """One action on every qubit of the Alice->Trent->Alice round trip.

    `action` is one of:
    - a name in `quantum.GATES` (X, Y, Z, H): that shared Gate, applied to
      the forward qubits and again on return, where it undoes itself, one
      `apply_gate` stage a tap;
    - "immediate": a Z measurement of each forward qubit (intercept-resend),
      one `measure_qubits` stage;
    - "after_return": a CNOT from each forward qubit onto a fresh |0>
      ancilla, whose Z value is read once the qubits have returned.
    Anything else, a matrix included, raises ValueError.
    """

    READ_TIMES = ("after_return", "immediate")

    def __init__(self, kind: str, action: str = "after_return") -> None:
        if not isinstance(action, str) or action not in (*GATES, *self.READ_TIMES):
            raise ValueError(f"unknown probe action {action!r}: a name in GATES or "
                             f"one of {self.READ_TIMES}")
        self.kind = kind  # the attack name that transcripts show
        self.u = GATES.get(action)
        self.read = action if self.u is None else None
        self.pending: list[QubitRef] = []  # ancillas still to be read

    def tap_qubits(self, point, refs, rng):
        # Each tap's reads take their uniforms from one draw.
        if point is _FORWARD:
            if self.u is not None:
                apply_gate(refs, self.u)
            elif self.read == "immediate":
                measure_qubits(refs, (_Z,) * len(refs), rng)
            else:
                for ref in refs:
                    probe = attach_ancilla(ref)
                    probe_cnot(ref, probe)
                    self.pending.append(probe)
        elif point is _RETURN:
            if self.u is not None:
                apply_gate(refs, self.u)  # its own undo
            if self.pending:
                for probe, u in zip(self.pending, rng.random(len(self.pending)).tolist()):
                    measure_qubit(probe, _Z, u)
                self.pending.clear()
        return refs


class TamperSignatureB(AttackStrategy):
    """Bit-flip the in-flight signature qubits at the listed positions."""

    kind = "tamper_signature_b"

    def __init__(self, positions: Sequence[int]) -> None:
        self.positions = tuple(sorted(set(int(p) for p in positions)))

    def tap_qubits(self, point, refs, rng):
        if point is _BOB_QUANTUM:
            for p in self.positions:
                if p < 0 or p >= len(refs):
                    raise IndexError(f"tamper position {p} out of range")
            apply_gate([refs[p] for p in self.positions], GATES["X"])
        return refs


class TamperClassicalMessage(AttackStrategy):
    """Flip bits of the plaintext message on its way to Bob."""

    kind = "tamper_classical_message"

    def __init__(self, positions: Sequence[int]) -> None:
        self.positions = tuple(sorted(set(int(p) for p in positions)))

    def tap_classical(self, point, name, bits, rng):
        if point is _BOB_CLASSICAL and name == "message":
            out = bytearray(bits)
            for p in self.positions:
                if p < 0 or p >= len(out):
                    raise IndexError(f"tamper position {p} out of range")
                out[p] ^= 1
            return bytes(out)
        return bits


_PAULI_CYCLE = (GATES["X"], GATES["Y"], GATES["Z"])


class Channel:
    """Transmission medium: depolarizing noise, adversary tap, transcript log."""

    def __init__(
        self,
        strategy: AttackStrategy,
        slots: Slots,
        noise_p: float = 0.0,
        transcript: list | None = None,
    ) -> None:
        if not 0.0 <= noise_p < 1.0:
            raise ValueError(f"noise_p must lie in [0,1), got {noise_p}")
        self.strategy = strategy
        self.slots = slots  # the registers of the round the channel carries
        self.noise_p = noise_p
        # A None transcript disables logging entirely (bulk Monte Carlo runs).
        self.transcript = transcript

    def _log(self, event: str, **detail) -> None:
        if self.transcript is not None:
            self.transcript.append({"event": event, **detail})

    def send_qubits(
        self, point: TapPoint, handles: Sequence[int], rng: np.random.Generator
    ) -> Sequence[int]:
        p = self.noise_p
        if p > 0.0:
            # One uniform u a qubit, from one draw a send: the qubit is hit
            # when u < p, and u / p, uniform on [0, 1) then, picks its Pauli
            # (3u / p can round up to 3 for u just below p).
            for handle, u in zip(handles, rng.random(len(handles)).tolist()):
                if u < p:
                    gate_handle(self.slots, handle, _PAULI_CYCLE[min(int(3 * u / p), 2)])
        out = _lend(self.slots, handles, self.strategy.tap_qubits, point, rng)
        if self.transcript is not None:
            self._log("quantum_send", point=point.value, count=len(out),
                      tap=self.strategy.kind)
        return out

    def send_classical(
        self, point: TapPoint, name: str, payload: Sequence[int],
        rng: np.random.Generator, width: int = 1,
    ) -> Sequence[int]:
        """The payload of `width`-bit fields as the tap hands it on: any sequence."""
        out = self.strategy.tap_classical(point, name, payload, rng)
        if self.transcript is not None:
            digits = f"0{width}b"
            # f >> width is 0 exactly for an int f in [0, 2**width).
            self._log("classical", point=point.value, name=name, bits="".join(
                format(f, digits) if type(f) is int and not f >> width else "?" * width
                for f in out))
        return out
