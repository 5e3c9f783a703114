"""Signing, verification, hashing, and capability-model tests."""

import copy
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsig.keys import KeyStore, compute_g, keygen_init
from sqsig.parties import (
    CLASSICAL_ALLOWED,
    CapabilityError,
    OpKind,
    classical_party,
    quantum_party,
)
from sqsig.quantum import (
    MAX_REGISTER_QUBITS,
    Basis,
    StateVector,
    _ROWS,
    equal_up_to_phase,
    prepare_bell,
    prepare_single,
)
from sqsig.register import (
    QubitRef,
    Register,
    RevokedHandleError,
    _lend,
    measure_qubit,
)
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

    def test_digest_is_sha256_of_the_bit_text(self):
        # The digest's bits, most significant first, as one 0/1 byte each;
        # a bytes message and the same bits in a tuple hash alike.
        digest = hashlib.sha256(b"1011").digest()
        expected = bytes(byte >> (7 - i) & 1 for byte in digest for i in range(8))
        assert hash_message(bytes((1, 0, 1, 1))) == hash_message((1, 0, 1, 1)) == expected


class TestAliceSign:
    @pytest.mark.parametrize("m_bit,k_bit", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_bell_choice_follows_g(self, m_bit, k_bit):
        store = KeyStore(key_bits=bytes((k_bit,) + (0,) * 8))
        alice = quantum_party("alice")
        rng = np.random.default_rng(0)
        _, b_refs = alice_sign((m_bit,), store, alice, rng, d_z=1, d_x=1)
        g = m_bit ^ k_bit
        assert compute_g((m_bit,), store) == bytes((g,))
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
        store = KeyStore(key_bits=b"\x00")
        trials = 100_000
        ones = 0
        for _ in range(trials):
            alice = quantum_party("alice")
            [t_half], _ = alice.prepare_bell_pair((0,))
            (t,) = trent.measure([t_half], [Basis.Z], rng)
            ones += t
        assert abs(ones / trials - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_recomputed_g_matches_alice(self):
        rng = np.random.default_rng(4)
        store = keygen_init(24, rng)
        alice = quantum_party("alice")
        trent = classical_party("trent")
        m = (1, 0, 1, 1, 0, 0)
        transmission, _ = alice_sign(m, store, alice, rng, d_z=6, d_x=6)
        positions = {r >> 2 for r in transmission.records}
        carriers = [ref for p, ref in enumerate(transmission.sequence)
                    if p not in positions]
        t_bits, g_trent = trent_receive(carriers, m, store, trent, rng)
        # Alice's pad is the first n key bits.
        assert g_trent == bytes(mi ^ ki for mi, ki in zip(m, store.key_bits))
        assert len(t_bits) == len(m)


class TestBobMeasure:
    def test_correlation_after_partner_measured(self):
        rng = np.random.default_rng(6)
        for g in (0, 1):
            for _ in range(100):
                alice = quantum_party("alice")
                bob = classical_party("bob")
                trent = classical_party("trent")
                [t_half], [b_half] = alice.prepare_bell_pair((g,))
                (t,) = trent.measure([t_half], [Basis.Z], rng)
                (b,) = bob_measure([b_half], bob, rng)
                assert b == t ^ g

    def test_unmeasured_partner_marginal_uniform(self):
        rng = np.random.default_rng(8)
        bob = classical_party("bob")
        trials = 100_000
        ones = 0
        for _ in range(trials):
            alice = quantum_party("alice")
            _, [b_half] = alice.prepare_bell_pair((1,))
            (b,) = bob.measure([b_half], [Basis.Z], rng)
            ones += b
        assert abs(ones / trials - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_op_log_only_z(self):
        rng = np.random.default_rng(9)
        bob = classical_party("bob")
        alice = quantum_party("alice")
        _, halves = alice.prepare_bell_pair((0, 0, 0))
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
            classical_party("bob").prepare([Basis.X], [0])

    def test_classical_cannot_measure_x(self):
        rng = np.random.default_rng(0)
        alice = quantum_party("alice")
        refs = alice.prepare([Basis.X], [0])
        with pytest.raises(CapabilityError):
            classical_party("trent").measure(refs, [Basis.X], rng)

    def test_classical_cannot_prepare_entangled(self):
        with pytest.raises(CapabilityError):
            classical_party("bob").prepare_bell_pair((0,))

    def test_classical_allowed_set(self):
        rng = np.random.default_rng(0)
        bob = classical_party("bob")
        refs = bob.prepare([Basis.Z], [1])
        bob.measure(refs, [Basis.Z], rng)
        bob.reflect(refs)
        bob.reorder(refs, [0])
        bob.delay()
        bob.classical_compute()
        assert set(bob.op_log) <= CLASSICAL_ALLOWED

    def test_quantum_party_unrestricted(self):
        rng = np.random.default_rng(0)
        alice = quantum_party("alice")
        refs = alice.prepare([Basis.X], [1])
        alice.measure(refs, [Basis.X], rng)
        alice.prepare_bell_pair((1,))

    def test_rejected_op_not_logged(self):
        bob = classical_party("bob")
        with pytest.raises(CapabilityError):
            bob.prepare([Basis.X], [0])
        assert OpKind.PREPARE_X not in bob.op_log


@st.composite
def measuring_stages(draw):
    """States of 1..4 registers of 1..MAX_REGISTER_QUBITS qubits each, a
    stage of (register, qubit, basis) in any order, a seed, and the
    position of one X basis in the stage."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, MAX_REGISTER_QUBITS))
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        states.append(StateVector(amps / np.linalg.norm(amps)))
    slots = [(r, q) for r, state in enumerate(states) for q in range(state.num_qubits)]
    order = draw(st.permutations(slots))
    stage = order[:draw(st.integers(1, len(order)))]
    bases = draw(st.lists(st.sampled_from([Basis.Z, Basis.X]),
                          min_size=len(stage), max_size=len(stage)))
    return states, stage, bases, seed, draw(st.integers(0, len(stage) - 1))


def stage_refs(states, stage):
    registers = [Register(state) for state in states]
    return registers, [QubitRef(registers[r], q) for r, q in stage]


class TestPartyStages:
    """A stage is its qubits, in order: the same bits, post-states, op log
    and generator state as one measure_qubit (or prepare_single) a qubit."""

    @given(measuring_stages())
    @settings(max_examples=150, deadline=None)
    def test_measure_is_its_qubits_in_order(self, case):
        states, stage, bases, seed, _ = case
        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        alice = quantum_party("alice")
        registers, refs = stage_refs(states, stage)
        bits = alice.measure(refs, bases, rng)
        expected_registers, expected_refs = stage_refs(states, stage)
        expected = bytes(measure_qubit(ref, b, clone.random())
                         for ref, b in zip(expected_refs, bases))
        assert bits == expected
        assert ([reg.state.amps for reg in registers]
                == [reg.state.amps for reg in expected_registers])
        assert alice.op_log == [OpKind.MEASURE_Z if b is Basis.Z else OpKind.MEASURE_X
                                for b in bases]
        assert rng.bit_generator.state == clone.bit_generator.state

    @given(measuring_stages())
    @settings(max_examples=100, deadline=None)
    def test_classical_stage_with_one_x_touches_nothing(self, case):
        states, stage, bases, seed, x_at = case
        bases = [Basis.Z] * len(stage)
        bases[x_at] = Basis.X
        rng = np.random.default_rng(seed)
        before = rng.bit_generator.state
        trent = classical_party("trent")
        trent.delay()
        registers, refs = stage_refs(states, stage)
        with pytest.raises(CapabilityError):
            trent.measure(refs, bases, rng)
        assert [reg.state for reg in registers] == states  # the same objects
        assert trent.op_log == [OpKind.DELAY]
        assert rng.bit_generator.state == before

    @given(st.lists(st.tuples(st.sampled_from([Basis.Z, Basis.X]), st.integers(0, 1)),
                    min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_prepare_is_its_qubits_in_order(self, stage):
        bases, bits = zip(*stage)
        alice = quantum_party("alice")
        refs = alice.prepare(bases, bits)
        assert [ref.register.state for ref in refs] == [
            prepare_single(b, bit) for b, bit in stage]
        assert len({id(ref.register) for ref in refs}) == len(stage)  # fresh registers
        assert alice.op_log == [OpKind.PREPARE_Z if b is Basis.Z else OpKind.PREPARE_X
                                for b in bases]
        bob = classical_party("bob")
        bob.delay()
        if Basis.X in bases:
            with pytest.raises(CapabilityError):
                bob.prepare(bases, bits)
            assert bob.op_log == [OpKind.DELAY]
        else:
            assert len(bob.prepare(bases, bits)) == len(stage)

    @given(st.integers(0, 2 ** 32 - 1), st.permutations(range(6)),
           st.lists(st.sampled_from([Basis.Z, Basis.X]), min_size=6, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_stage_of_tabled_and_unshared_states_is_its_qubits(self, seed, order, bases):
        # Tabled: both halves of a Bell pair and a |+>; unshared, so computed:
        # a fresh one-qubit state and both qubits of a fresh two-qubit state.
        def stage():
            alice = quantum_party("alice")
            [t_half], [b_half] = alice.prepare_bell_pair((1,))
            pair = Register(StateVector([0.6, 0, 0, 0.8]))
            refs = [t_half, b_half, *alice.prepare([Basis.X], [0]),
                    QubitRef(Register(StateVector([0.6, 0.8])), 0),
                    QubitRef(pair, 0), QubitRef(pair, 1)]
            return [refs[i] for i in order]

        refs = stage()
        tabled = [ref.register.state in _ROWS for ref in refs]
        assert sorted(tabled) == [False] * 3 + [True] * 3
        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        alice = quantum_party("alice")
        bits = alice.measure(refs, bases, rng)
        expected_refs = stage()
        expected = bytes(measure_qubit(ref, b, clone.random())
                         for ref, b in zip(expected_refs, bases))
        assert bits == expected
        assert ([ref.register.state.amps for ref in refs]
                == [ref.register.state.amps for ref in expected_refs])
        assert rng.bit_generator.state == clone.bit_generator.state

    def test_stage_refuses_a_revoked_ref(self):
        [ref] = quantum_party("alice").prepare([Basis.Z], [0])
        lent = []
        _lend([ref], lambda refs: lent.extend(refs) or refs)
        with pytest.raises(RevokedHandleError):
            quantum_party("alice").measure(lent, [Basis.Z], np.random.default_rng(0))

    @given(st.lists(st.integers(0, 1), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_bell_pairs_are_one_per_bit(self, g):
        alice = quantum_party("alice")
        t_halves, b_halves = alice.prepare_bell_pair(g)
        assert [ref.register.state for ref in t_halves] == [prepare_bell(bit) for bit in g]
        assert [ref.register for ref in b_halves] == [ref.register for ref in t_halves]
        assert len({id(ref.register) for ref in t_halves}) == len(g)  # fresh registers
        assert {ref.index for ref in t_halves} <= {0} and {ref.index for ref in b_halves} <= {1}
        assert alice.op_log == [OpKind.PREPARE_ENTANGLED] * len(g)

    def test_stage_lengths_must_agree(self):
        alice = quantum_party("alice")
        with pytest.raises(ValueError):
            alice.prepare([Basis.Z], [0, 1])
        refs = alice.prepare([Basis.Z] * 2, [0, 1])
        with pytest.raises(ValueError):
            alice.measure(refs, [Basis.Z], np.random.default_rng(0))
        assert alice.op_log == [OpKind.PREPARE_Z] * 2
