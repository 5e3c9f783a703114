"""Shared key store with one-time-pad segment accounting.

Every classical payload, the key included, is `Bits`: bytes holding one
0/1 byte per bit, read most significant first where it stands for an
integer. A pad is one XOR of the payload and its key segment, each read
as a big-endian integer of bytes.

The signer and the trusted third party hold the same key string. Segments
are allocated for named purposes (signing pad, announcement encryption)
at the cursor, which only advances, so no two segments overlap. Either
holder can read back an already-designated segment by purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

Bits = bytes  # one 0/1 byte per bit

# Turn bit values 0/1 into the ASCII digits of a binary string, and back.
# The digit bytes themselves become "x", so that they cannot pass for bits.
_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x0101", b"01xx")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


class KeyExhaustedError(RuntimeError):
    """Allocation request exceeds the remaining key bits."""


def random_bits(rng: np.random.Generator, k: int) -> Bits:
    """k uniform bits from one draw: bit i is 1 when `rng.random(k)[i] < 0.5`."""
    return (rng.random(k) < 0.5).tobytes()


def int_to_bits(value: int, k: int) -> Bits:
    """The k bits of 0 <= value < 2**k, most significant first."""
    return format(1 << k | value, "b")[1:].encode().translate(_DIGITS_TO_BITS)


def bits_to_int(bits: Sequence[int]) -> int:
    """The integer `bits` spell, most significant first; ValueError for a
    value other than 0 or 1."""
    # bytes() returns a bytes payload itself, and refuses a value outside 0..255.
    digits = bytes(bits).translate(_BITS_TO_DIGITS)
    if digits.translate(None, b"01"):
        raise ValueError("wire bits must be 0 or 1")
    return int(b"0" + digits, 2)


def xor_bits(a: Sequence[int], b: Sequence[int]) -> Bits:
    """Bytewise XOR; ValueError for unequal lengths or a value outside 0..255."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


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


def otp_encrypt(store: KeyStore, purpose: str, plaintext: Sequence[int]) -> Bits:
    seg = store.allocate(purpose, len(plaintext))
    return xor_bits(plaintext, store.segment_bits(seg))


def otp_decrypt(store: KeyStore, purpose: str, ciphertext: Sequence[int]) -> Bits:
    seg = store.find(purpose)
    if seg is None:
        raise KeyError(f"no segment allocated for purpose {purpose!r}")
    if seg.stop - seg.start != len(ciphertext):
        raise ValueError("ciphertext length does not match the allocated segment")
    return xor_bits(ciphertext, store.segment_bits(seg))


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
