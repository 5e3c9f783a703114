"""Signing and verification for the three participants.

Alice (quantum) signs by encoding g = m XOR k into Bell pairs; Trent and
Bob (classical) verify through Z-basis measurements only. Qubits are int
handles into the round's `register.Slots`. The message
digest check binds the plaintext message Bob received to the message
Trent recovered.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .detection import TrentTransmission, assemble_transmission, build_decoys, is_fields
from .keys import Bits, KeyStore, compute_g, int_to_bits
from .parties import Party
from .register import Slots

HashFn = Callable[[Sequence[int]], Bits]

DEFAULT_DIGEST_BITS = 256

# The text of a bit byte: 0 -> "0", 1 -> "1".
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def hash_message(m: Sequence[int]) -> Bits:
    """Fixed public 256-bit digest of a bit string: SHA-256 of the decimal
    text of its items. Bytes of 0s and 1s are that text by one translate."""
    if type(m) is bytes and is_fields(m, 1):
        text = m.translate(_DIGITS)
    else:
        text = "".join(map(str, m)).encode("ascii")
    digest = hashlib.sha256(text).digest()
    return int_to_bits(int.from_bytes(digest, "big"), DEFAULT_DIGEST_BITS)


@dataclass
class VerificationOutcome:
    verdict: bool  # True = Yes
    digest: Bits | None = None
    failing_positions: tuple[int, ...] = ()


def alice_sign(
    slots: Slots,
    m: Sequence[int],
    store: KeyStore,
    alice: Party,
    rng: np.random.Generator,
    d_z: int,
    d_x: int,
) -> tuple[TrentTransmission, list[int]]:
    """Encode g into Bell pairs and build the decoy-laden Trent transmission.

    The message rides in the leading Z-decoys. Returns the transmission
    and the Bob halves, which with the plaintext message form the signature.
    """
    g = compute_g(m, store)
    t_halves, b_halves = alice.prepare_bell_pair(slots, g)
    decoys, records = build_decoys(slots, d_z, d_x, m, rng, alice)
    return assemble_transmission(t_halves, decoys, records, rng), b_halves


def trent_receive(
    slots: Slots,
    carriers: Sequence[int],
    recovered_m: Sequence[int],
    store: KeyStore,
    trent: Party,
    rng: np.random.Generator,
) -> tuple[Bits, Bits]:
    """Measure the carrier halves and recompute g from the shared key.

    Returns (T, g).
    """
    t_bits = trent.measure(slots, carriers, bytes(len(carriers)), rng)
    trent.classical_compute()
    return t_bits, compute_g(recovered_m, store)


def bob_measure(
    slots: Slots, bundle_qubits: Sequence[int], bob: Party, rng: np.random.Generator
) -> Bits:
    """Z-measure every signature qubit in order."""
    return bob.measure(slots, bundle_qubits, bytes(len(bundle_qubits)), rng)


def trent_verify(g: Sequence[int], t: Sequence[int], b: Sequence[int]) -> VerificationOutcome:
    """Position i of the bit strings passes iff b_i = t_i XOR g_i; verdict
    Yes iff all pass.

    The digest is left unset; the caller attaches it on Yes once the
    message is known.
    """
    if not len(g) == len(t) == len(b):
        raise ValueError("g, T, B must have equal length")
    # One XOR of the three bit strings: its byte i is 1 where position i fails.
    miss = int.from_bytes(g, "big") ^ int.from_bytes(t, "big") ^ int.from_bytes(b, "big")
    failing = tuple(compress(range(len(g)), miss.to_bytes(len(g), "big")))
    return VerificationOutcome(verdict=not failing, failing_positions=failing)


def trent_conclude(
    g: Sequence[int],
    t: Sequence[int],
    b: Sequence[int],
    m: Sequence[int],
    hash_fn: HashFn = hash_message,
) -> VerificationOutcome:
    """Full verification step: verdict, and the digest of m on Yes."""
    outcome = trent_verify(g, t, b)
    if outcome.verdict:
        outcome.digest = hash_fn(m)
    return outcome


def bob_accept(
    m_received: Sequence[int],
    outcome: VerificationOutcome,
    hash_fn: HashFn = hash_message,
) -> bool:
    """Accept iff Trent said Yes, m is a bit string (every item an int 0
    or 1) and the digest matches Bob's own hash of m.

    The digest hashes the decimal text of each value, so an item other than
    an int 0 or 1 could spell the text of one or several bits: (101,) hashes
    as (1, 0, 1), and numpy's int64(1) as 1.
    """
    if not outcome.verdict or outcome.digest is None or not is_fields(m_received, 1):
        return False
    return hash_fn(m_received) == outcome.digest
