"""Shared key store with one-time-pad segment accounting.

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

Bits = tuple[int, ...]


class KeyExhaustedError(RuntimeError):
    """Allocation request exceeds the remaining key bits."""


def random_bits(rng: np.random.Generator, k: int) -> Bits:
    return tuple(rng.integers(0, 2, size=k).tolist())


def xor_bits(a: Sequence[int], b: Sequence[int]) -> Bits:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(map(xor, a, b))


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
