"""Decoy-based eavesdropping detection rounds.

A decoy record is the 18-bit LOC field it is announced as: position << 2
| basis bit (Z = 0, X = 1) << 1 | value. The sender's decoy state is one
list of records in position order, with their low two bits, the decoy
codes, as bytes, so its recheck is one XOR of codes and bits; the first
n Z-decoys in that order carry the message. An announcement travels as
its fields, a tuple of ints: 18-bit LOC records and 16-bit permutation
entries, each read as `width` big-endian bits wherever bits matter (the
transcript, the inline pad). A receiver decodes a payload only if every item is an int in
[0, 2**width) (`is_fields`, the rule of a bit wire at width 1); anything
else aborts the round. The sender's encoders do not check: each
announcement is checked once, when the receiver decodes it. The receiver
works only from the announcements it receives, and the sender rechecks
every returned decoy against its own records. Qubits travel as int
handles into the channel's `register.Slots`. Each DetectionMode has one
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
from functools import reduce
from itertools import compress
from operator import and_, attrgetter, or_
from typing import Callable, Sequence

import numpy as np

from .adversary import Channel, TapPoint
from .keys import Bits, KeyStore, otp_decrypt, otp_encrypt, random_bits, xor_bits
from .parties import Party
from .quantum import Basis
from .register import Slots


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

    # Forward announcements: (wire name, basis flags (record & 2) of the
    # decoys listed, with values).
    announcements: tuple[tuple[str, tuple[int, ...], bool], ...]
    # OTP ciphertext under the shared key: no receipt confirmations, and
    # one classical_compute by the receiver.
    encrypted: bool
    # The receiver measures the Z-decoys and returns all decoys shuffled;
    # otherwise it delays and reflects them in their original order.
    measures: bool
    compares: bool  # the receiver checks its Z results against the values


_Z, _X, _ALL = (0,), (2,), (0, 2)
# Enum member reads, done once: they sit on the path of every round.
_BASIS_Z = Basis.Z
_FORWARD = TapPoint.FORWARD_ALICE_TO_TRENT
_RETURN = TapPoint.RETURN_TRENT_TO_ALICE
_ABORT = Verdict.ABORT
# By a record's low bits, basis bit << 1 | value: the whole record before
# assembly adds its position.
_BASIS_OF = (Basis.Z, Basis.Z, Basis.X, Basis.X)

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


CHECKS = ("bob_z", "alice_z", "alice_x")  # receiver's Z check, sender's Z/X recheck
# A report's six counts: errors and checked of each of CHECKS in turn.
REPORT_COUNTS = attrgetter(*(f"{k}_{count}" for k in CHECKS
                             for count in ("errors", "checked")))


def error_rate(errors: int, checked: int) -> float:
    """Errors over checked; 0 when nothing was checked."""
    return errors / checked if checked else 0.0


@dataclass
class DetectionReport:
    bob_z_errors: int = 0
    bob_z_checked: int = 0
    alice_z_errors: int = 0
    alice_z_checked: int = 0
    alice_x_errors: int = 0
    alice_x_checked: int = 0
    verdict: Verdict = Verdict.CONTINUE


@dataclass
class TrentTransmission:
    """Interleaved carrier + decoy handles plus the sender's private records."""

    sequence: list[int]
    records: list[int]  # every decoy's LOC field, in position order
    codes: bytes  # every decoy's basis bit << 1 | value, in position order


@dataclass
class DetectionResult:
    report: DetectionReport
    carriers: list[int]
    recovered_m: Bits | None


# ---------------------------------------------------------------------------
# Wire encodings: fixed-width int fields
# ---------------------------------------------------------------------------

POSITION_FIELD_BITS = 16
RECORD_BITS = POSITION_FIELD_BITS + 2

_INT = {int}
# Swaps the 0 and 1 bytes of a position mask: decoys for carriers.
_INVERT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def is_fields(items: Sequence, width: int) -> bool:
    """Whether every item is an int in [0, 2**width); an int subclass such
    as bool, or a numpy integer, is not an int here."""
    return len(items) == 0 or (set(map(type, items)) == _INT
                               and min(items) >= 0 and not max(items) >> width)


def _fields(payload: Sequence[int], width: int) -> list[int]:
    """The payload's fields; ValueError unless they are `is_fields`."""
    fields = list(payload)
    if not is_fields(fields, width):
        raise ValueError(f"a field is not an int of {width} bits")
    return fields


def encode_loc(records: Sequence[int], include_values: bool = True) -> tuple[int, ...]:
    """One 18-bit field per decoy, in position order; the value bit is 0
    when withheld. The receiver's decode checks the fields."""
    return tuple(sorted(records if include_values else [r & ~1 for r in records]))


def decode_loc(payload: Sequence[int]) -> list[int]:
    """The announced records, in wire order."""
    return _fields(payload, RECORD_BITS)


def encode_permutation(mapping: Sequence[int]) -> tuple[int, ...]:
    """One 16-bit field per entry; mapping[j] is returned decoy j's original
    index. The receiver's decode checks the fields."""
    return tuple(mapping)


def decode_permutation(payload: Sequence[int]) -> tuple[int, ...]:
    """The announced mapping; the round checks that it is a bijection."""
    return tuple(_fields(payload, POSITION_FIELD_BITS))


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def build_decoys(
    slots: Slots,
    d_z: int,
    d_x: int,
    embedded_m: Sequence[int],
    rng: np.random.Generator,
    preparer: Party,
) -> tuple[list[int], list[int]]:
    """Prepare the mixed decoy sequence D, message bits leading the Z-decoys.

    Shuffles `list(range(d_z + d_x))` with `rng.shuffle`, the draws of
    `rng.permutation(d_z + d_x)`, which places the X-decoys, then draws
    `random_bits(rng, d_z + d_x)` for the values the message leaves free.
    Returned records are in decoy-sequence order with position 0;
    assemble_transmission() adds the transmitted positions.
    """
    if len(embedded_m) > d_z:
        raise ValueError(
            f"cannot embed {len(embedded_m)} message bits into {d_z} Z-decoys"
        )
    order = list(range(d_z + d_x))
    rng.shuffle(order)
    fill = random_bits(rng, d_z + d_x)
    message = iter(embedded_m)
    # Decoy i is an X-decoy when order[i] >= d_z; a Z-decoy takes the next
    # message bit while one is left.
    records = [2 | f if i >= d_z else next(message, f) for i, f in zip(order, fill)]
    bases = [_BASIS_OF[r] for r in records]
    return preparer.prepare(slots, bases, [r & 1 for r in records]), records


def assemble_transmission(
    carriers: Sequence[int],
    decoys: Sequence[int],
    records: Sequence[int],
    rng: np.random.Generator,
) -> TrentTransmission:
    """Insert the decoys uniformly among the carriers, keeping both orders.

    The decoy positions are the sorted first d entries of
    `list(range(total))` after one `rng.shuffle` (the draws of
    `rng.permutation(total)`): a uniform d-subset of the transmitted
    positions. Each record gains its decoy's position, in order.
    """
    d = len(decoys)
    total = len(carriers) + d
    order = list(range(total))
    rng.shuffle(order)
    decoy_pos = sorted(order[:d])
    sequence = [0] * total
    for p, handle in zip(decoy_pos, decoys):
        sequence[p] = handle
    for p, handle in zip(sorted(order[d:]), carriers):  # the other positions
        sequence[p] = handle
    placed = [p << 2 | r for p, r in zip(decoy_pos, records)]
    return TrentTransmission(sequence, placed, bytes(records))


# ---------------------------------------------------------------------------
# Round orchestration
# ---------------------------------------------------------------------------

def _announce(
    channel: Channel, point: TapPoint, wire: str, fields: tuple[int, ...], width: int,
    pad: KeyStore | None, purpose: str, rng: np.random.Generator,
    decode: Callable[[Sequence[int]], Sequence[int]],
) -> Sequence[int]:
    """Send one announcement of `width`-bit fields, under the one-time pad
    if `pad` is set, `decode` what arrives and decrypt that. ValueError for
    a payload that does not decode or decrypt."""
    sent = fields if pad is None else otp_encrypt(pad, purpose, fields, width)
    received = decode(channel.send_classical(point, wire, sent, rng, width))
    return received if pad is None else otp_decrypt(pad, purpose, received, width)


def _abort(report: DetectionReport) -> DetectionResult:
    report.verdict = _ABORT
    return DetectionResult(report, [], None)


def run_detection_round(
    mode: DetectionMode,
    channel: Channel,
    transmission: TrentTransmission,
    threshold: float,
    sender: Party,
    receiver: Party,
    store: KeyStore,
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
    decrypt or decode (a ciphertext of the wrong length, an item that is
    not an int of its field width), a record
    in a basis its wire does not announce, a decoy position outside the
    received sequence or named twice, a returned permutation that is not
    a bijection over the sender's decoys, or a return that does not hold
    one qubit per decoy.
    """
    spec = MODE_SPECS[mode]
    slots = channel.slots
    pad = store if spec.encrypted else None
    report = DetectionReport()
    records = transmission.records

    seq = channel.send_qubits(_FORWARD, transmission.sequence, rng)
    if not spec.encrypted:
        channel.send_classical(_RETURN, "confirm_receipt", b"\x01", rng)
    announced: list[int] = []
    for wire_name, bases, values in spec.announcements:
        listed = records if bases is _ALL else [r for r in records if r & 2 in bases]
        try:
            received = _announce(
                channel, _FORWARD, wire_name,
                encode_loc(listed, include_values=values), RECORD_BITS,
                pad, "loc_announce", rng, decode_loc,
            )
        except ValueError:  # a payload that does not decrypt or decode
            return _abort(report)
        # Every record of a Z-only wire has basis bit 0, so their OR does;
        # every record of an X-only wire has it 1, so their AND does.
        if (bases is _Z and reduce(or_, received, 0) & 2
                or bases is _X and not reduce(and_, received, 2) & 2):
            return _abort(report)
        announced += received
    if spec.encrypted:
        receiver.classical_compute()
    positions = [r >> 2 for r in announced]
    if max(positions, default=-1) >= len(seq):
        return _abort(report)
    mask = bytearray(len(seq))  # 1 where an announced decoy is
    for p in positions:
        mask[p] = 1
    if mask.count(1) < len(positions):  # a position named twice
        return _abort(report)
    decoys = list(compress(seq, mask))
    carriers = list(compress(seq, mask.translate(_INVERT)))

    recovered_m: Bits | None = None
    if spec.measures:
        z_announced = [r for r in announced if not r & 2]
        z_bits = receiver.measure(slots, [seq[r >> 2] for r in z_announced],
                                  (_BASIS_Z,) * len(z_announced), rng)
        if spec.compares:
            checked = report.bob_z_checked = len(z_announced)
            errors = report.bob_z_errors = sum(
                [(r ^ bit) & 1 for bit, r in zip(z_bits, z_announced)])
            # Abort when errors / checked exceeds the threshold (which is >= 0).
            if errors and errors / checked > threshold:
                return _abort(report)
        recovered_m = z_bits[:len(carriers)]
        mapping = list(range(len(decoys)))
        rng.shuffle(mapping)  # the draws of rng.permutation(len(decoys))
        returned = receiver.reorder(decoys, mapping)
    else:
        receiver.delay()
        returned = receiver.reflect(decoys)
        mapping = tuple(range(len(records)))

    returned = channel.send_qubits(_RETURN, returned, rng)

    if spec.measures:  # the shuffle must be announced; a reflection keeps order
        if not spec.encrypted:
            channel.send_classical(_FORWARD, "confirm_return_receipt", b"\x01", rng)
        try:
            mapping = _announce(
                channel, _RETURN,
                "perm_ciphertext" if spec.encrypted else "permutation",
                encode_permutation(mapping), POSITION_FIELD_BITS,
                pad, "perm_announce", rng, decode_permutation,
            )
        except ValueError:  # a payload that does not decrypt or decode
            return _abort(report)
    # The one check of the return: a bijection over the sender's decoys
    # (d distinct entries, none past the last decoy, none negative once
    # decoded), and one returned qubit for each of them.
    d = len(records)
    if not (len(set(mapping)) == len(mapping) == len(returned) == d
            and max(mapping, default=-1) < d):
        return _abort(report)

    # Returned decoy j goes back to position mapping[j].
    restored = [None] * d
    for original, handle in zip(mapping, returned):
        restored[original] = handle
    codes = transmission.codes
    bits = sender.measure(slots, restored, [_BASIS_OF[c] for c in codes], rng)
    # Code ^ bit is the decoy's basis bit << 1 | whether its bit missed.
    kinds = xor_bits(codes, bits)
    z_errors = report.alice_z_errors = kinds.count(1)
    x_errors = report.alice_x_errors = kinds.count(3)
    z_checked = report.alice_z_checked = kinds.count(0) + z_errors
    x_checked = report.alice_x_checked = kinds.count(2) + x_errors
    if (z_errors and z_errors / z_checked > threshold
            or x_errors and x_errors / x_checked > threshold):
        return _abort(report)

    return DetectionResult(report, carriers, recovered_m)
