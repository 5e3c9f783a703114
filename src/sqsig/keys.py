"""Shared key store with one-time-pad segment accounting.

Every bit string (the key, the message, T and B, the receipt
confirmations and the digest) is `Bits`: bytes holding one 0/1 byte per
bit, read most significant first where it stands for an integer. The
announcements of the detection round are not bit strings but lists of
fixed-width int fields. The one-time pad of `width`-bit fields XORs
field j with key field j, bits [j * width, (j + 1) * width) of the
segment read big-endian: the value the bitwise pad gives on the fields'
bits, from the same key bits. It returns the fields as a list of ints at
every width, 1 included.

The signer and the trusted third party hold the same key string. Segments
are allocated for named purposes (signing pad, announcement encryption)
at the cursor, which only advances, so no two segments overlap. Either
holder can read back an already-designated segment by purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import xor
from typing import Sequence

import numpy as np

Bits = bytes  # one 0/1 byte per bit

# Turn the ASCII digits of a binary string into bit values 0/1.
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
# By width (up to 32), the weight of each bit of a big-endian field: one
# matrix product turns a segment's key bits into its key fields.
_FIELD_WEIGHTS = [1 << np.arange(w - 1, -1, -1, dtype=np.int64) for w in range(33)]


class KeyExhaustedError(RuntimeError):
    """Allocation request exceeds the remaining key bits."""


def random_bits(rng: np.random.Generator, k: int) -> Bits:
    """k uniform bits from one draw: bit i is 1 when `rng.random(k)[i] < 0.5`."""
    return (rng.random(k) < 0.5).tobytes()


def int_to_bits(value: int, k: int) -> Bits:
    """The k bits of 0 <= value < 2**k, most significant first."""
    return format(1 << k | value, "b")[1:].encode().translate(_DIGITS_TO_BITS)


def xor_bits(a: Sequence[int], b: Sequence[int]) -> Bits:
    """Bytewise XOR; ValueError for unequal lengths or a value outside 0..255."""
    n = len(a)
    if n != len(b):
        raise ValueError(f"length mismatch: {n} vs {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


@dataclass
class Segment:
    purpose: str
    start: int
    stop: int


@dataclass
class KeyStore:
    key_bits: Bits
    cursor: int = 0
    segments: list[Segment] = field(default_factory=list)

    def allocate(self, purpose: str, nbits: int) -> Segment:
        """The next nbits of the key, past every segment allocated so far."""
        stop = self.cursor + nbits
        if stop > len(self.key_bits):
            raise KeyExhaustedError(
                f"need {nbits} bits at offset {self.cursor}, "
                f"key holds {len(self.key_bits)}"
            )
        seg = Segment(purpose, self.cursor, stop)
        self.segments.append(seg)
        self.cursor = stop
        return seg

    def segment_bits(self, seg: Segment) -> Bits:
        return self.key_bits[seg.start:seg.stop]

    def find(self, purpose: str) -> Segment | None:
        for seg in self.segments:
            if seg.purpose == purpose:
                return seg
        return None


def keygen_init(n_total: int, rng: np.random.Generator) -> KeyStore:
    """Trusted stand-in for the key agreement phase: uniform shared bits."""
    return KeyStore(key_bits=random_bits(rng, n_total))


def otp_encrypt(
    store: KeyStore, purpose: str, plaintext: Sequence[int], width: int,
) -> list[int]:
    """The `width`-bit fields of `plaintext` under the next segment of the key."""
    return _pad(store, store.allocate(purpose, width * len(plaintext)), plaintext, width)


def otp_decrypt(
    store: KeyStore, purpose: str, ciphertext: Sequence[int], width: int,
) -> list[int]:
    """The inverse of otp_encrypt over the segment allocated for `purpose`;
    ValueError when the ciphertext does not fill that segment."""
    seg = store.find(purpose)
    if seg is None:
        raise KeyError(f"no segment allocated for purpose {purpose!r}")
    if seg.stop - seg.start != width * len(ciphertext):
        raise ValueError("ciphertext length does not match the allocated segment")
    return _pad(store, seg, ciphertext, width)


def _pad(store: KeyStore, seg: Segment, fields: Sequence[int], width: int) -> list[int]:
    """Each field XOR its key field; every key field of the segment from one call."""
    key = np.frombuffer(store.key_bits, np.uint8, seg.stop - seg.start, seg.start)
    key_fields = key.reshape(-1, width) @ _FIELD_WEIGHTS[width]
    return list(map(xor, fields, key_fields.tolist()))


def compute_g(m: Sequence[int], store: KeyStore) -> Bits:
    """g = m XOR k over the first-n signing segment of the shared key.

    The first caller designates the segment; later callers (the other key
    holder) read the same range back.
    """
    seg = store.find("signing")
    if seg is None:
        seg = store.allocate("signing", len(m))
    if seg.stop - seg.start != len(m):
        raise ValueError("message length does not match the signing segment")
    return xor_bits(m, store.segment_bits(seg))
