"""Signing, verification, hashing, and capability-model tests."""

import numpy as np
import pytest

from sqsig.keys import KeyStore, compute_g, keygen_init
from sqsig.parties import (
    CLASSICAL_ALLOWED,
    CapabilityError,
    OpKind,
    classical_party,
    quantum_party,
)
from sqsig.quantum import Basis, equal_up_to_phase, prepare_bell
from sqsig.roles import (
    alice_sign,
    bob_accept,
    bob_measure,
    hash_message,
    trent_conclude,
    trent_receive,
    trent_verify,
)


def toy_hash8(m):
    """8-bit truncation for property tests that need reachable collisions."""
    return hash_message(m)[:8]


class TestTrentVerify:
    def test_exhaustive_eight_combinations(self):
        # Exactly the four (g,t,b) combinations with b = t xor g pass.
        expected_pass = {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
        seen_pass = set()
        for g in (0, 1):
            for t in (0, 1):
                for b in (0, 1):
                    outcome = trent_verify((g,), (t,), (b,))
                    if outcome.verdict:
                        seen_pass.add((g, t, b))
                        assert outcome.failing_positions == ()
                    else:
                        assert outcome.failing_positions == (0,)
        assert seen_pass == expected_pass

    def test_failing_positions_reported(self):
        outcome = trent_verify((0, 1, 0), (0, 1, 1), (1, 0, 1))
        assert not outcome.verdict
        assert outcome.failing_positions == (0,)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            trent_verify((0, 1), (0,), (0, 1))

    def test_digest_unset_before_conclusion(self):
        assert trent_verify((0,), (0,), (0,)).digest is None


class TestHash:
    def test_deterministic(self):
        m = (1, 0, 1, 1, 0)
        assert hash_message(m) == hash_message(m)

    def test_digest_length(self):
        assert len(hash_message((0, 1))) == 256
        assert len(toy_hash8((0, 1))) == 8

    def test_one_bit_flip_changes_digest(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            m = tuple(int(b) for b in rng.integers(0, 2, size=16))
            flip = int(rng.integers(0, 16))
            m_prime = tuple(b ^ (i == flip) for i, b in enumerate(m))
            assert hash_message(m) != hash_message(m_prime)

    def test_empty_message_defined(self):
        digest = hash_message(())
        assert len(digest) == 256
        assert set(digest) <= {0, 1}

    def test_length_extension_inputs_distinct(self):
        assert hash_message((0,)) != hash_message((0, 0))


class TestAliceSign:
    @pytest.mark.parametrize("m_bit,k_bit", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_bell_choice_follows_g(self, m_bit, k_bit):
        store = KeyStore(key_bits=(k_bit,) + (0,) * 8)
        alice = quantum_party("alice")
        rng = np.random.default_rng(0)
        _, b_refs = alice_sign((m_bit,), store, alice, rng, d_z=1, d_x=1)
        g = m_bit ^ k_bit
        assert compute_g((m_bit,), store) == (g,)
        pair_state = b_refs[0].register.state
        assert equal_up_to_phase(pair_state, prepare_bell(g))

    def test_bundle_lengths_match(self):
        store = keygen_init(32, np.random.default_rng(1))
        transmission, b_refs = alice_sign(
            (1, 0, 1, 1), store, quantum_party("alice"),
            np.random.default_rng(2), d_z=4, d_x=4,
        )
        assert len(b_refs) == 4
        # 4 carriers + 8 decoys in the outgoing sequence
        assert len(transmission.sequence) == 12
        assert len(transmission.records) == 8

    def test_embedding_too_large_rejected(self):
        store = keygen_init(32, np.random.default_rng(1))
        with pytest.raises(ValueError):
            alice_sign((1, 0, 1), store, quantum_party("alice"),
                       np.random.default_rng(2), d_z=2, d_x=2)


class TestTrentReceive:
    def test_carrier_measurements_uniform(self):
        # Each carrier half is maximally mixed: frequency 1/2 within
        # 3 * sqrt(0.25 / N) at N = 10^5.
        rng = np.random.default_rng(77)
        trent = classical_party("trent")
        store = KeyStore(key_bits=(0,))
        trials = 100_000
        ones = 0
        for _ in range(trials):
            alice = quantum_party("alice")
            t_half, _ = alice.prepare_bell_pair(0)
            ones += trent.measure(t_half, Basis.Z, rng)
        assert abs(ones / trials - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_recomputed_g_matches_alice(self):
        rng = np.random.default_rng(4)
        store = keygen_init(24, rng)
        alice = quantum_party("alice")
        trent = classical_party("trent")
        m = (1, 0, 1, 1, 0, 0)
        transmission, _ = alice_sign(m, store, alice, rng, d_z=6, d_x=6)
        positions = {r.position for r in transmission.records}
        carriers = [ref for p, ref in enumerate(transmission.sequence)
                    if p not in positions]
        t_bits, g_trent = trent_receive(carriers, m, store, trent, rng)
        # Alice's pad is the first n key bits.
        assert g_trent == tuple(mi ^ ki for mi, ki in zip(m, store.key_bits))
        assert len(t_bits) == len(m)


class TestBobMeasure:
    def test_correlation_after_partner_measured(self):
        rng = np.random.default_rng(6)
        for g in (0, 1):
            for _ in range(100):
                alice = quantum_party("alice")
                bob = classical_party("bob")
                trent = classical_party("trent")
                t_half, b_half = alice.prepare_bell_pair(g)
                t = trent.measure(t_half, Basis.Z, rng)
                (b,) = bob_measure([b_half], bob, rng)
                assert b == t ^ g

    def test_unmeasured_partner_marginal_uniform(self):
        rng = np.random.default_rng(8)
        bob = classical_party("bob")
        trials = 100_000
        ones = 0
        for _ in range(trials):
            alice = quantum_party("alice")
            _, b_half = alice.prepare_bell_pair(1)
            ones += bob.measure(b_half, Basis.Z, rng)
        assert abs(ones / trials - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_op_log_only_z(self):
        rng = np.random.default_rng(9)
        bob = classical_party("bob")
        alice = quantum_party("alice")
        halves = [alice.prepare_bell_pair(0)[1] for _ in range(3)]
        bob_measure(halves, bob, rng)
        assert set(bob.op_log) == {OpKind.MEASURE_Z}


class TestTrentConclude:
    def test_yes_attaches_digest(self):
        m = (1, 0)
        outcome = trent_conclude((0, 1), (1, 0), (1, 1), m)
        assert outcome.verdict
        assert outcome.digest == hash_message(m)
        assert outcome.failing_positions == ()

    def test_no_keeps_nothing(self):
        outcome = trent_conclude((0,), (0,), (1,), (1,))
        assert not outcome.verdict
        assert outcome.digest is None
        assert outcome.failing_positions == (0,)

    def test_evidence_satisfies_correlation(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            g = tuple(int(x) for x in rng.integers(0, 2, size=4))
            t = tuple(int(x) for x in rng.integers(0, 2, size=4))
            b = tuple(ti ^ gi for ti, gi in zip(t, g))
            outcome = trent_conclude(g, t, b, (0, 0, 0, 0))
            assert outcome.verdict
            assert outcome.digest == hash_message((0, 0, 0, 0))
            # One flipped B bit breaks the correlation at that position only.
            i = int(rng.integers(0, 4))
            flipped = tuple(bj ^ (j == i) for j, bj in enumerate(b))
            assert trent_conclude(g, t, flipped, (0,) * 4).failing_positions == (i,)


class TestBobAccept:
    def test_matching_digest_accepts(self):
        m = (1, 1, 0)
        outcome = trent_conclude((0,) * 3, (1, 0, 1), (1, 0, 1), m)
        assert bob_accept(m, outcome)

    def test_no_verdict_rejects(self):
        outcome = trent_conclude((0,), (0,), (1,), (1,))
        assert not bob_accept((1,), outcome)

    def test_tampered_message_rejects(self):
        m = (1, 1, 0)
        outcome = trent_conclude((0,) * 3, (1, 0, 1), (1, 0, 1), m)
        assert not bob_accept((1, 0, 0), outcome)

    def test_pluggable_hash(self):
        m = (0, 1, 0, 1)
        outcome = trent_conclude(
            (0,) * 4, (0,) * 4, (0,) * 4, m, hash_fn=toy_hash8
        )
        assert bob_accept(m, outcome, hash_fn=toy_hash8)


class TestCapabilities:
    def test_classical_cannot_prepare_x(self):
        with pytest.raises(CapabilityError):
            classical_party("bob").prepare(Basis.X, 0)

    def test_classical_cannot_measure_x(self):
        rng = np.random.default_rng(0)
        alice = quantum_party("alice")
        ref = alice.prepare(Basis.X, 0)
        with pytest.raises(CapabilityError):
            classical_party("trent").measure(ref, Basis.X, rng)

    def test_classical_cannot_prepare_entangled(self):
        with pytest.raises(CapabilityError):
            classical_party("bob").prepare_bell_pair(0)

    def test_classical_allowed_set(self):
        rng = np.random.default_rng(0)
        bob = classical_party("bob")
        ref = bob.prepare(Basis.Z, 1)
        bob.measure(ref, Basis.Z, rng)
        bob.reflect([ref])
        bob.reorder([ref], [0])
        bob.delay()
        bob.classical_compute()
        assert set(bob.op_log) <= CLASSICAL_ALLOWED

    def test_quantum_party_unrestricted(self):
        rng = np.random.default_rng(0)
        alice = quantum_party("alice")
        ref = alice.prepare(Basis.X, 1)
        alice.measure(ref, Basis.X, rng)
        alice.prepare_bell_pair(1)

    def test_rejected_op_not_logged(self):
        bob = classical_party("bob")
        with pytest.raises(CapabilityError):
            bob.prepare(Basis.X, 0)
        assert OpKind.PREPARE_X not in bob.op_log
