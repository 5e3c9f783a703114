"""End-to-end orchestration of one signing + verification round."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import AttackStrategy, Channel, TapPoint
from .detection import (
    MODE_SPECS,
    POSITION_FIELD_BITS,
    RECORD_BITS,
    DetectionMode,
    DetectionReport,
    Verdict,
    is_fields,
    run_detection_round,
)
from .keys import Bits, KeyStore, keygen_init
from .parties import Party, classical_party, quantum_party
from .register import Slots
from .roles import (
    _DIGITS,
    alice_sign,
    bob_accept,
    bob_measure,
    hash_message,
    trent_conclude,
    trent_receive,
    VerificationOutcome,
)

# Enum member reads, done once: they sit on the path of every round.
_FORWARD = TapPoint.FORWARD_ALICE_TO_TRENT
_BOB_QUANTUM = TapPoint.ALICE_TO_BOB_QUANTUM
_BOB_CLASSICAL = TapPoint.ALICE_TO_BOB_CLASSICAL
_B_TO_TRENT = TapPoint.BOB_TO_TRENT_CLASSICAL
_ABORT = Verdict.ABORT


def key_budget(n: int, d_z: int, d_x: int, mode: DetectionMode) -> int:
    """Key bits one run consumes: the signing pad plus inline OTP traffic."""
    if MODE_SPECS[mode].encrypted:  # one LOC record and permutation entry a decoy
        return n + (RECORD_BITS + POSITION_FIELD_BITS) * (d_z + d_x)
    return n


@dataclass
class TrialResult:
    detection: DetectionReport
    aborted: bool
    outcome: VerificationOutcome | None
    accepted: bool
    alice: Party
    bob: Party
    trent: Party
    store: KeyStore
    transcript: list | None


def run_protocol_round(
    message: Bits,
    mode: DetectionMode,
    strategy: AttackStrategy,
    rng: np.random.Generator,
    d_z: int,
    d_x: int,
    threshold: float = 0.0,
    noise_p: float = 0.0,
    record_transcript: bool = True,
) -> TrialResult:
    """One full protocol run of len(message) signature qubits.

    Signing, the eavesdropping-detection round on the Trent leg, carrier
    measurement, the Bob leg, and both verification steps. Aborted
    detection short-circuits the rest of the round.
    """
    message = bytes(message)
    n = len(message)
    alice = quantum_party("alice")
    bob = classical_party("bob")
    trent = classical_party("trent")
    transcript: list | None = [] if record_transcript else None
    slots = Slots()  # every register of the round
    channel = Channel(strategy, slots, noise_p=noise_p, transcript=transcript)
    store = keygen_init(key_budget(n, d_z, d_x, mode), rng)

    transmission, b_halves = alice_sign(slots, message, store, alice, rng, d_z=d_z, d_x=d_x)
    detection = run_detection_round(
        mode, channel, transmission, threshold, alice, trent, store, rng
    )
    if detection.report.verdict is _ABORT:
        return TrialResult(
            detection=detection.report, aborted=True, outcome=None,
            accepted=False, alice=alice, bob=bob, trent=trent, store=store,
            transcript=transcript,
        )

    recovered_m = detection.recovered_m
    if recovered_m is None:
        # Reflected decoys cannot carry the message; it travels in clear.
        recovered_m = channel.send_classical(_FORWARD, "message_to_trent", message, rng)

    # Trent cannot verify a message, T or B string of the wrong length, nor
    # one holding an item other than an int 0 or 1: No.
    well_formed = (len(recovered_m) == len(detection.carriers) == n
                   and is_fields(recovered_m, 1))
    if well_formed:
        t_bits, g_trent = trent_receive(
            slots, detection.carriers, recovered_m, store, trent, rng
        )

    m_received = channel.send_classical(_BOB_CLASSICAL, "message", message, rng)
    b_halves = channel.send_qubits(_BOB_QUANTUM, b_halves, rng)
    b_bits = bob_measure(slots, b_halves, bob, rng)
    b_received = channel.send_classical(_B_TO_TRENT, "b_string", b_bits, rng)

    if well_formed and len(b_received) == n and is_fields(b_received, 1):
        outcome = trent_conclude(
            g_trent, t_bits, b_received, recovered_m, hash_message
        )
    else:
        outcome = VerificationOutcome(verdict=False)
    accepted = bob_accept(m_received, outcome, hash_message)
    if transcript is not None:
        digest = outcome.digest.translate(_DIGITS).decode() if outcome.digest else ""
        transcript.append({"event": "verdict",
                           "verdict": "yes" if outcome.verdict else "no",
                           "digest": digest})
        transcript.append({"event": "bob_decision",
                           "accepted": "accept" if accepted else "reject"})

    return TrialResult(
        detection=detection.report, aborted=False, outcome=outcome,
        accepted=accepted, alice=alice, bob=bob, trent=trent,
        store=store, transcript=transcript,
    )
