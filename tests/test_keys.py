"""Key store, one-time pad, and signing-pad tests.

A bit string is bytes with one 0/1 byte per bit, the key included; the
pad takes and returns its fields as a list of ints.
"""

import copy
import math
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsig.keys import (
    KeyExhaustedError,
    KeyStore,
    compute_g,
    keygen_init,
    otp_decrypt,
    otp_encrypt,
    random_bits,
    xor_bits,
)

bitstrings = st.lists(st.integers(0, 1), min_size=1, max_size=64).map(bytes)
long_bitstrings = st.binary(max_size=5000).map(lambda b: bytes(x & 1 for x in b))


class TestKeygen:
    def test_deterministic_under_fixed_seed(self):
        a = keygen_init(8, np.random.default_rng(99))
        b = keygen_init(8, np.random.default_rng(99))
        assert a.key_bits == b.key_bits
        assert len(a.key_bits) == 8
        assert a.cursor == 0

    def test_different_seeds_differ(self):
        # 64 bits colliding across seeds would be a broken generator.
        a = keygen_init(64, np.random.default_rng(1))
        b = keygen_init(64, np.random.default_rng(2))
        assert a.key_bits != b.key_bits

    def test_bits_are_bits(self):
        store = keygen_init(128, np.random.default_rng(5))
        assert set(store.key_bits) <= {0, 1}


class TestAllocation:
    def test_sequential_allocations_disjoint(self):
        store = keygen_init(8, np.random.default_rng(0))
        first = store.allocate("a", 4)
        second = store.allocate("b", 4)
        assert (first.start, first.stop) == (0, 4)
        assert (second.start, second.stop) == (4, 8)

    def test_exhaustion_rejected(self):
        store = keygen_init(8, np.random.default_rng(0))
        store.allocate("a", 8)
        with pytest.raises(KeyExhaustedError):
            store.allocate("b", 1)

    def test_allocations_tile_the_key(self):
        store = keygen_init(12, np.random.default_rng(0))
        segments = [store.allocate(f"p{i}", size) for i, size in enumerate((3, 1, 5, 3))]
        assert [(s.start, s.stop) for s in segments] == [(0, 3), (3, 4), (4, 9), (9, 12)]
        with pytest.raises(KeyExhaustedError):
            store.allocate("past_end", 1)
        assert store.segments == segments
        assert store.cursor == 12

    def test_cursor_never_decreases(self):
        store = keygen_init(16, np.random.default_rng(0))
        cursors = [store.cursor]
        for i in range(4):
            store.allocate(f"p{i}", 3)
            cursors.append(store.cursor)
        assert cursors == sorted(cursors)


class TestOtp:
    """The pad at width 1: each field is one bit, and the fields come back
    as a list of ints, as at every width."""

    def test_xor_definition(self):
        store = KeyStore(key_bits=bytes((1, 1, 1, 1)))
        assert otp_encrypt(store, "p", [1, 0, 1, 0], 1) == [0, 1, 0, 1]

    def test_roundtrip(self):
        rng = np.random.default_rng(17)
        store = keygen_init(32, rng)
        plaintext = list(random_bits(rng, 20))
        cipher = otp_encrypt(store, "msg", plaintext, 1)
        assert otp_decrypt(store, "msg", cipher, 1) == plaintext

    def test_decrypt_unknown_purpose_rejected(self):
        store = keygen_init(8, np.random.default_rng(0))
        with pytest.raises(KeyError):
            otp_decrypt(store, "nothing", [0, 1], 1)

    def test_ciphertext_hides_plaintext(self):
        # Same plaintext under fresh segments yields unrelated ciphertexts.
        rng = np.random.default_rng(23)
        store = keygen_init(64, rng)
        plaintext = [1] * 16
        c1 = otp_encrypt(store, "a", plaintext, 1)
        c2 = otp_encrypt(store, "b", plaintext, 1)
        assert c1 != c2  # 2^-16 collision chance under this seed: none

    @given(bitstrings)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, plaintext):
        store = keygen_init(len(plaintext), np.random.default_rng(3))
        cipher = otp_encrypt(store, "p", list(plaintext), 1)
        assert otp_decrypt(store, "p", cipher, 1) == list(plaintext)

    @given(long_bitstrings, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property_up_to_5000_bits(self, plaintext, seed):
        store = keygen_init(len(plaintext), np.random.default_rng(seed))
        cipher = otp_encrypt(store, "p", list(plaintext), 1)
        assert cipher == list(map(xor, plaintext, store.key_bits))
        assert all(type(c) is int for c in cipher)
        assert otp_decrypt(store, "p", cipher, 1) == list(plaintext)


def binomial_band(trials: int, p: float, alpha: float = 1e-7) -> tuple[int, int]:
    """Smallest [lo, hi] with P(X < lo) <= alpha/2 and P(X > hi) <= alpha/2,
    X ~ Binomial(trials, p), from the exact probability mass."""
    log_p, log_q = math.log(p), math.log1p(-p)
    pmf = [math.exp(math.lgamma(trials + 1) - math.lgamma(k + 1)
                    - math.lgamma(trials - k + 1) + k * log_p + (trials - k) * log_q)
           for k in range(trials + 1)]
    lo, below = 0, 0.0
    while below + pmf[lo] <= alpha / 2:
        below += pmf[lo]
        lo += 1
    hi, above = trials, 0.0
    while above + pmf[hi] <= alpha / 2:
        above += pmf[hi]
        hi -= 1
    return lo, hi


class TestRandomBits:
    def test_length_and_alphabet(self):
        rng = np.random.default_rng(9)
        bits = random_bits(rng, 16)
        assert len(bits) == 16
        assert set(bits) <= {0, 1}

    def test_guesses_are_uniform(self):
        rng = np.random.default_rng(10)
        trials = 5000
        ones = sum(random_bits(rng, 1)[0] for _ in range(trials))
        assert abs(ones / trials - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_degenerate_empty(self):
        assert random_bits(np.random.default_rng(0), 0) == b""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_same_draws_as_its_derivation(self, seed, k):
        # Bit i is 1 when the i-th uniform of one random(k) draw is below
        # 1/2, and the generator ends where that draw leaves it.
        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        bits = random_bits(rng, k)
        assert type(bits) is bytes
        assert list(bits) == [int(u < 0.5) for u in clone.random(k).tolist()]
        assert rng.bit_generator.state == clone.bit_generator.state

    def test_bits_and_pairs_in_exact_binomial_bands(self):
        # 10^5 bits hold Binomial(10^5, 1/2) ones, and each 2-bit pattern
        # of their 5 * 10^4 disjoint pairs Binomial(5 * 10^4, 1/4) times.
        bits = random_bits(np.random.default_rng(2024), 100_000)
        lo, hi = binomial_band(100_000, 0.5)
        assert lo <= sum(bits) <= hi
        pairs = [2 * a + b for a, b in zip(bits[::2], bits[1::2])]
        lo, hi = binomial_band(len(pairs), 0.25)
        assert all(lo <= pairs.count(pattern) <= hi for pattern in range(4))


class TestXorBits:
    def test_known_values(self):
        assert xor_bits(bytes((1, 1, 0, 0)), bytes((1, 0, 1, 0))) == bytes((0, 1, 1, 0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            xor_bits(bytes((0, 1)), bytes((0,)))

    @given(bitstrings)
    @settings(max_examples=50, deadline=None)
    def test_self_inverse(self, bits):
        key = bytes(1 - b for b in bits)
        assert xor_bits(xor_bits(bits, key), key) == bits

    @given(st.data(), st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_matches_elementwise_xor(self, data, k):
        a, b = (data.draw(st.binary(min_size=k, max_size=k)) for _ in range(2))
        assert tuple(xor_bits(a, b)) == tuple(map(xor, a, b))
        # Any sequence of byte values is read the same as its bytes.
        assert xor_bits(tuple(a), list(b)) == xor_bits(a, b)


class TestComputeG:
    def test_zero_message_reveals_key(self):
        store = KeyStore(key_bits=bytes((1, 0, 1, 0)))
        assert compute_g(bytes((0, 0, 0, 0)), store) == bytes((1, 0, 1, 0))

    def test_message_equal_to_key_cancels(self):
        store = KeyStore(key_bits=bytes((1, 0, 1, 0)))
        assert compute_g(bytes((1, 0, 1, 0)), store) == bytes((0, 0, 0, 0))

    def test_bitwise_xor_oracle(self):
        store = KeyStore(key_bits=bytes((1, 0, 1, 0)))
        m = bytes((1, 1, 0, 0))
        expected = bytes(mi ^ ki for mi, ki in zip(m, store.key_bits))
        assert compute_g(m, store) == expected == bytes((0, 1, 1, 0))

    def test_both_holders_read_same_segment(self):
        store = keygen_init(12, np.random.default_rng(8))
        m = (1, 0, 1, 1)
        assert compute_g(m, store) == compute_g(m, store)
        assert len(store.segments) == 1  # second call reads, not allocates

    def test_length_mismatch_rejected(self):
        store = keygen_init(8, np.random.default_rng(8))
        compute_g((1, 0, 1, 0), store)
        with pytest.raises(ValueError):
            compute_g((1, 0), store)

