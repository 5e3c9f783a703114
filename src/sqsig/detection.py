"""Decoy-based eavesdropping detection rounds.

The sender's decoy state is one list of DecoyRecords in position order;
the first n Z-decoys in that order carry the message. The receiver works
only from the announcements it decodes, and the sender rechecks every
returned decoy against its own records. Each DetectionMode has one
ModeSpec in MODE_SPECS, which run_detection_round reads:

- improved: Z-decoy values and X-decoy positions in clear; the receiver
  checks the Z-decoys, then returns all decoys shuffled for the sender's
  final Z/X check.
- improved_inline_otp: the same, announced as one-time-pad ciphertext.
- measure_then_return (baseline): the receiver measures, never compares.
- direct_reflection (baseline): the receiver delays and reflects the
  decoys unmeasured (semi-quantum model of Boyer, Kenigsberg & Mor 2007).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .adversary import Channel, TapPoint
from .keys import Bits, KeyStore, otp_decrypt, otp_encrypt
from .parties import Party
from .quantum import Basis, Uniforms
from .register import QubitRef


class DetectionMode(str, Enum):
    IMPROVED = "improved"
    IMPROVED_INLINE_OTP = "improved_inline_otp"
    DIRECT_REFLECTION = "direct_reflection"
    MEASURE_THEN_RETURN = "measure_then_return"


class Verdict(str, Enum):
    CONTINUE = "continue"
    ABORT = "abort"


@dataclass(frozen=True)
class ModeSpec:
    """The protocol facts that tell the detection modes apart."""

    # Forward announcements: (wire name, decoy bases listed, with values).
    announcements: tuple[tuple[str, tuple[Basis, ...], bool], ...]
    # OTP ciphertext under the shared key: no receipt confirmations, and
    # one classical_compute by the receiver.
    encrypted: bool
    # The receiver measures the Z-decoys and returns all decoys shuffled;
    # otherwise it delays and reflects them in their original order.
    measures: bool
    compares: bool  # the receiver checks its Z results against the values


_Z, _X, _ALL = (Basis.Z,), (Basis.X,), (Basis.Z, Basis.X)
_BASIS_Z = Basis.Z

MODE_SPECS = {
    DetectionMode.IMPROVED: ModeSpec(
        (("loc_z", _Z, True), ("decoy_positions_x", _X, False)),
        encrypted=False, measures=True, compares=True),
    DetectionMode.IMPROVED_INLINE_OTP: ModeSpec(
        (("loc_ciphertext", _ALL, True),),
        encrypted=True, measures=True, compares=True),
    DetectionMode.MEASURE_THEN_RETURN: ModeSpec(
        (("decoy_positions_z", _Z, False), ("decoy_positions_x", _X, False)),
        encrypted=False, measures=True, compares=False),
    DetectionMode.DIRECT_REFLECTION: ModeSpec(
        (("decoy_positions", _ALL, False),),
        encrypted=False, measures=False, compares=False),
}


@dataclass
class DecoyRecord:
    position: int  # index in the transmitted sequence; -1 until interleaved
    basis: Basis
    bit: int


@dataclass
class PermutationRecord:
    mapping: tuple[int, ...]  # mapping[j] = original index of j-th returned decoy

    def __post_init__(self) -> None:
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("mapping is not a bijection")


CHECKS = ("bob_z", "alice_z", "alice_x")  # receiver's Z check, sender's Z/X recheck


@dataclass
class DetectionReport:
    bob_z_errors: int = 0
    bob_z_checked: int = 0
    alice_z_errors: int = 0
    alice_z_checked: int = 0
    alice_x_errors: int = 0
    alice_x_checked: int = 0
    verdict: Verdict = Verdict.CONTINUE

    def rate(self, check: str) -> float:
        """Error rate of one of CHECKS; 0 when nothing was checked."""
        checked = getattr(self, f"{check}_checked")
        return getattr(self, f"{check}_errors") / checked if checked else 0.0


@dataclass
class TrentTransmission:
    """Interleaved carrier + decoy sequence plus the sender's private records."""

    sequence: list[QubitRef]
    records: list[DecoyRecord]  # all decoys, sorted by position


@dataclass
class DetectionResult:
    report: DetectionReport
    carriers: list[QubitRef]
    recovered_m: Bits | None


# ---------------------------------------------------------------------------
# Wire encodings (bit-exact external interface)
# ---------------------------------------------------------------------------

POSITION_FIELD_BITS = 16
RECORD_BITS = POSITION_FIELD_BITS + 2


# Turns bit values 0/1 into the ASCII digits of a binary string.
_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@lru_cache(maxsize=None)
def _int_to_bits(value: int, width: int) -> Bits:
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def _digits(bits: Sequence[int]) -> str:
    """The bits as binary digits; ValueError for a value other than 0 or 1."""
    digits = bytes(bits).translate(_BITS_TO_DIGITS)
    if digits.translate(None, b"01"):
        raise ValueError("wire bits must be 0 or 1")
    return digits.decode()


def encode_loc(entries: Sequence[DecoyRecord], include_values: bool = True) -> Bits:
    """18 bits per decoy: 16-bit big-endian position, basis bit (0=Z), value."""
    out: list[int] = []
    for e in sorted(entries, key=lambda r: r.position):
        out.extend(_int_to_bits(e.position, POSITION_FIELD_BITS))
        out.append(0 if e.basis is Basis.Z else 1)
        out.append(e.bit if include_values else 0)
    return tuple(out)


def decode_loc(bits: Sequence[int]) -> list[DecoyRecord]:
    if len(bits) % RECORD_BITS != 0:
        raise ValueError("LOC payload length is not a multiple of 18 bits")
    digits = _digits(bits)
    return [
        DecoyRecord(position=int(digits[i:i + POSITION_FIELD_BITS], 2),
                    basis=Basis.Z if digits[i + POSITION_FIELD_BITS] == "0" else Basis.X,
                    bit=int(digits[i + POSITION_FIELD_BITS + 1], 2))
        for i in range(0, len(digits), RECORD_BITS)
    ]


def encode_permutation(perm: PermutationRecord) -> Bits:
    """d entries of 16-bit big-endian original indices, in returned order."""
    out: list[int] = []
    for orig in perm.mapping:
        out.extend(_int_to_bits(orig, POSITION_FIELD_BITS))
    return tuple(out)


def decode_permutation(bits: Sequence[int]) -> PermutationRecord:
    if len(bits) % POSITION_FIELD_BITS != 0:
        raise ValueError("permutation payload length is not a multiple of 16 bits")
    d = len(bits) // POSITION_FIELD_BITS
    digits = _digits(bits)
    mapping = tuple(int(digits[i:i + POSITION_FIELD_BITS], 2)
                    for i in range(0, len(digits), POSITION_FIELD_BITS))
    if d and max(mapping) >= d:
        raise ValueError(f"permutation entry {max(mapping)} out of range for d={d}")
    return PermutationRecord(mapping=mapping)


def loc_announcement_bits(d_z: int, d_x: int) -> int:
    """Key budget for the inline-OTP announcement of all decoy records."""
    return RECORD_BITS * (d_z + d_x)


def permutation_announcement_bits(d_total: int) -> int:
    return POSITION_FIELD_BITS * d_total


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def build_decoys(
    d_z: int,
    d_x: int,
    embedded_m: Sequence[int] | None,
    rng: np.random.Generator,
    preparer: Party,
) -> tuple[list[QubitRef], list[DecoyRecord]]:
    """Prepare the mixed decoy sequence D, message bits leading the Z-decoys.

    Returned records are in decoy-sequence order with position unset (-1);
    assemble_transmission() sets the transmitted positions.
    """
    embedded = tuple(embedded_m) if embedded_m is not None else ()
    if len(embedded) > d_z:
        raise ValueError(
            f"cannot embed {len(embedded)} message bits into {d_z} Z-decoys"
        )
    bases = [Basis.Z] * d_z + [Basis.X] * d_x
    order = rng.permutation(d_z + d_x)
    fill_bits = rng.integers(0, 2, size=d_z + d_x).tolist()
    refs: list[QubitRef] = []
    records: list[DecoyRecord] = []
    message = iter(embedded)
    for slot, idx in enumerate(order.tolist()):
        basis = bases[idx]
        bit = next(message, fill_bits[slot]) if basis is _BASIS_Z else fill_bits[slot]
        refs.append(preparer.prepare(basis, bit))
        records.append(DecoyRecord(position=-1, basis=basis, bit=bit))
    return refs, records


def interleave(
    carriers: Sequence[QubitRef],
    decoys: Sequence[QubitRef],
    rng: np.random.Generator,
) -> tuple[list[QubitRef], tuple[int, ...]]:
    """Insert decoys uniformly among the carriers, preserving both orders.

    Returns (sequence, decoy positions in decoy order).
    """
    n, d = len(carriers), len(decoys)
    total = n + d
    if d:
        decoy_pos = sorted(int(p) for p in rng.choice(total, size=d, replace=False))
    else:
        decoy_pos = []
    decoy_set = set(decoy_pos)
    carrier_pos = [p for p in range(total) if p not in decoy_set]
    sequence: list[QubitRef] = [None] * total  # type: ignore[list-item]
    for p, ref in zip(decoy_pos, decoys):
        sequence[p] = ref
    for p, ref in zip(carrier_pos, carriers):
        sequence[p] = ref
    return sequence, tuple(decoy_pos)


def assemble_transmission(
    carriers: Sequence[QubitRef],
    decoy_refs: Sequence[QubitRef],
    records: Sequence[DecoyRecord],
    rng: np.random.Generator,
) -> TrentTransmission:
    """Interleave the decoys; each record gets its position, in order."""
    sequence, decoy_pos = interleave(carriers, decoy_refs, rng)
    for pos, rec in zip(decoy_pos, records):
        rec.position = pos
    return TrentTransmission(sequence=sequence, records=list(records))


def bob_z_check(
    receiver: Party,
    sequence: Sequence[QubitRef],
    z_records: Sequence[DecoyRecord],
    rng: np.random.Generator,
    compare: bool = True,
) -> tuple[int, int, list[int]]:
    """Measure announced Z-decoys; optionally compare against announced bits.

    Returns (errors, checked, measured bits in record order). The decoys
    stay in their post-measurement states. With compare=False (the
    prior-scheme baseline) nothing counts as checked.
    """
    draws = Uniforms(rng, len(z_records))
    measured = [receiver.measure(sequence[rec.position], _BASIS_Z, draws)
                for rec in z_records]
    if not compare:
        return 0, 0, measured
    errors = sum(bit != rec.bit for bit, rec in zip(measured, z_records))
    return errors, len(z_records), measured


def extract_decoys(
    sequence: Sequence[QubitRef], decoy_positions: Sequence[int]
) -> tuple[list[QubitRef], list[QubitRef]]:
    """Split the received sequence into (decoys in position order, carriers)."""
    decoy_set = set(decoy_positions)
    decoys = [sequence[p] for p in sorted(decoy_set)]
    carriers = [ref for p, ref in enumerate(sequence) if p not in decoy_set]
    return decoys, carriers


def alice_final_check(
    alice: Party,
    returned: Sequence[QubitRef],
    perm: PermutationRecord,
    records: Sequence[DecoyRecord],
    rng: np.random.Generator,
) -> tuple[int, int, int, int]:
    """Restore decoy order, measure each in its recorded basis, count errors.

    `records` are the sender's own, in position order. Returns
    (z_errors, z_checked, x_errors, x_checked).
    """
    if len(perm.mapping) != len(returned) or len(returned) != len(records):
        raise ValueError("permutation inconsistent with decoy count")
    restored: list[QubitRef] = [None] * len(returned)  # type: ignore[list-item]
    for j, ref in enumerate(returned):
        restored[perm.mapping[j]] = ref
    tally = {Basis.Z: [0, 0], Basis.X: [0, 0]}  # basis -> [errors, checked]
    draws = Uniforms(rng, len(records))
    for rec, ref in zip(records, restored):
        counts = tally[rec.basis]
        counts[0] += alice.measure(ref, rec.basis, draws) != rec.bit
        counts[1] += 1
    return (*tally[Basis.Z], *tally[Basis.X])


# ---------------------------------------------------------------------------
# Round orchestration
# ---------------------------------------------------------------------------

def _announce(
    channel: Channel, point: TapPoint, wire: str, payload: Bits,
    pad: KeyStore | None, purpose: str, rng: np.random.Generator,
) -> Bits:
    """Send one classical announcement, under the one-time pad if `pad` is set."""
    if pad is None:
        return channel.send_classical(point, wire, payload, rng)
    cipher = otp_encrypt(pad, purpose, payload)
    return otp_decrypt(pad, purpose, channel.send_classical(point, wire, cipher, rng))


def _abort(report: DetectionReport) -> DetectionResult:
    report.verdict = Verdict.ABORT
    return DetectionResult(report, [], None)


def run_detection_round(
    mode: DetectionMode,
    channel: Channel,
    transmission: TrentTransmission,
    threshold: float,
    sender: Party,
    receiver: Party,
    store: KeyStore | None,
    rng: np.random.Generator,
) -> DetectionResult:
    """Run the chosen detection mode end to end over the adversarial channel.

    The forward transmission, all classical announcements, the receiver's
    check (where the mode has one), the decoy return, and the sender's
    final check all happen here. The receiver knows the decoys only from
    the announcements it decodes; the message it recovers is the first
    len(carriers) of its Z results. The verdict is Abort as soon as any
    checked error rate exceeds the threshold, and, whatever the threshold,
    when an announcement was tampered into nonsense: one that does not
    decrypt or decode (a wrong length), a decoy position outside the
    received sequence or named twice, or a returned permutation that is
    not a bijection over the sender's decoys.
    """
    spec = MODE_SPECS[mode]
    if spec.encrypted and store is None:
        raise ValueError("encrypted announcements require the shared key store")
    pad = store if spec.encrypted else None
    report = DetectionReport()
    records = transmission.records

    seq = channel.send_qubits(
        TapPoint.FORWARD_ALICE_TO_TRENT, transmission.sequence, rng
    )
    if not spec.encrypted:
        channel.send_classical(
            TapPoint.RETURN_TRENT_TO_ALICE, "confirm_receipt", (1,), rng
        )
    announced: list[DecoyRecord] = []
    for wire_name, bases, values in spec.announcements:
        payload = encode_loc([r for r in records if r.basis in bases], include_values=values)
        try:
            announced += decode_loc(_announce(
                channel, TapPoint.FORWARD_ALICE_TO_TRENT, wire_name, payload,
                pad, "loc_announce", rng,
            ))
        except ValueError:  # a length that does not decrypt or decode
            return _abort(report)
    if spec.encrypted:
        receiver.classical_compute()
    positions = {r.position for r in announced}
    if len(positions) < len(announced) or any(p >= len(seq) for p in positions):
        return _abort(report)
    decoys, carriers = extract_decoys(seq, positions)

    recovered_m: Bits | None = None
    if spec.measures:
        report.bob_z_errors, report.bob_z_checked, z_bits = bob_z_check(
            receiver, seq, [r for r in announced if r.basis is _BASIS_Z], rng,
            compare=spec.compares,
        )
        if report.rate("bob_z") > threshold:
            return _abort(report)
        recovered_m = tuple(z_bits[:len(carriers)])
        mapping = [int(p) for p in rng.permutation(len(decoys))]
        returned = receiver.reorder(decoys, mapping)
    else:
        receiver.delay()
        returned = receiver.reflect(decoys)
        mapping = list(range(len(records)))
    perm = PermutationRecord(mapping=tuple(mapping))

    returned = channel.send_qubits(TapPoint.RETURN_TRENT_TO_ALICE, returned, rng)

    if spec.measures:  # the shuffle must be announced; a reflection keeps order
        if not spec.encrypted:
            channel.send_classical(
                TapPoint.FORWARD_ALICE_TO_TRENT, "confirm_return_receipt", (1,), rng
            )
        try:
            perm = decode_permutation(_announce(
                channel, TapPoint.RETURN_TRENT_TO_ALICE,
                "perm_ciphertext" if spec.encrypted else "permutation",
                encode_permutation(perm), pad, "perm_announce", rng,
            ))
        except ValueError:  # a wrong length, entries out of range or repeated
            return _abort(report)
    if not len(perm.mapping) == len(returned) == len(records):
        return _abort(report)

    (report.alice_z_errors, report.alice_z_checked,
     report.alice_x_errors, report.alice_x_checked) = alice_final_check(
        sender, returned, perm, records, rng
    )
    if max(report.rate("alice_z"), report.rate("alice_x")) > threshold:
        return _abort(report)

    return DetectionResult(report, carriers, recovered_m)
