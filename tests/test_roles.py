"""Signing, verification, hashing, and capability-model tests."""

import copy
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqsig.parties as parties
import sqsig.register as register
from sqsig.adversary import Channel, NoAttack
from sqsig.detection import DetectionMode
from sqsig.keys import KeyStore, compute_g, keygen_init
from sqsig.parties import (
    CLASSICAL_ALLOWED,
    CapabilityError,
    OpKind,
    Party,
    classical_party,
    quantum_party,
)
from sqsig.protocol import run_protocol_round
from sqsig.quantum import (
    GATES,
    MAX_REGISTER_QUBITS,
    Basis,
    StateVector,
    _ROWS,
    append_ancilla,
    apply_unitary,
    cnot,
    equal_up_to_phase,
    measure,
    prepare_bell,
    prepare_single,
)
from sqsig.register import RevokedHandleError, Slots, _lend, measure_qubits, new_qubit
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

    @given(st.one_of(st.lists(st.integers(0, 1), max_size=64).map(bytes),
                     st.binary(max_size=16)),
           st.sampled_from([bytes, list, tuple]))
    @settings(max_examples=300, deadline=None)
    def test_every_sequence_hashes_its_decimal_text(self, m, kind):
        # Bytes of 0s and 1s take the one-pass path; any other bytes, and
        # every list or tuple, the generic one. Both hash the same text.
        digest = hashlib.sha256("".join(map(str, m)).encode("ascii")).digest()
        expected = bytes(byte >> (7 - i) & 1 for byte in digest for i in range(8))
        assert hash_message(kind(m)) == expected

    def test_a_byte_above_1_hashes_as_its_digits(self):
        assert hash_message(b"\x0a") == hash_message((1, 0)) == hash_message(b"\x01\x00")
        assert hash_message(bytes((101,))) == hash_message((101,)) == hash_message((1, 0, 1))


class TestAliceSign:
    @pytest.mark.parametrize("m_bit,k_bit", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_bell_choice_follows_g(self, m_bit, k_bit):
        store = KeyStore(key_bits=bytes((k_bit,) + (0,) * 8))
        alice = quantum_party("alice")
        rng = np.random.default_rng(0)
        slots = Slots()
        _, b_halves = alice_sign(slots, (m_bit,), store, alice, rng, d_z=1, d_x=1)
        g = m_bit ^ k_bit
        assert compute_g((m_bit,), store) == bytes((g,))
        pair_state = slots.states[b_halves[0] >> 2]
        assert equal_up_to_phase(pair_state, prepare_bell(g))

    def test_bundle_lengths_match(self):
        store = keygen_init(32, np.random.default_rng(1))
        transmission, b_halves = alice_sign(
            Slots(), (1, 0, 1, 1), store, quantum_party("alice"),
            np.random.default_rng(2), d_z=4, d_x=4,
        )
        assert len(b_halves) == 4
        # 4 carriers + 8 decoys in the outgoing sequence
        assert len(transmission.sequence) == 12
        assert len(transmission.records) == 8

    def test_embedding_too_large_rejected(self):
        store = keygen_init(32, np.random.default_rng(1))
        with pytest.raises(ValueError):
            alice_sign(Slots(), (1, 0, 1), store, quantum_party("alice"),
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
            slots = Slots()
            [t_half], _ = alice.prepare_bell_pair(slots, (0,))
            (t,) = trent.measure(slots, [t_half], b"\x00", rng)
            ones += t
        assert abs(ones / trials - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_recomputed_g_matches_alice(self):
        rng = np.random.default_rng(4)
        store = keygen_init(24, rng)
        alice = quantum_party("alice")
        trent = classical_party("trent")
        m = (1, 0, 1, 1, 0, 0)
        slots = Slots()
        transmission, _ = alice_sign(slots, m, store, alice, rng, d_z=6, d_x=6)
        positions = {r >> 2 for r in transmission.records}
        carriers = [handle for p, handle in enumerate(transmission.sequence)
                    if p not in positions]
        t_bits, g_trent = trent_receive(slots, carriers, m, store, trent, rng)
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
                slots = Slots()
                [t_half], [b_half] = alice.prepare_bell_pair(slots, (g,))
                (t,) = trent.measure(slots, [t_half], b"\x00", rng)
                (b,) = bob_measure(slots, [b_half], bob, rng)
                assert b == t ^ g

    def test_unmeasured_partner_marginal_uniform(self):
        rng = np.random.default_rng(8)
        bob = classical_party("bob")
        trials = 100_000
        ones = 0
        for _ in range(trials):
            alice = quantum_party("alice")
            slots = Slots()
            _, [b_half] = alice.prepare_bell_pair(slots, (1,))
            (b,) = bob.measure(slots, [b_half], b"\x00", rng)
            ones += b
        assert abs(ones / trials - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_op_log_only_z(self):
        rng = np.random.default_rng(9)
        bob = classical_party("bob")
        alice = quantum_party("alice")
        slots = Slots()
        _, halves = alice.prepare_bell_pair(slots, (0, 0, 0))
        bob_measure(slots, halves, bob, rng)
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
            classical_party("bob").prepare(Slots(), b"\x02")

    def test_classical_cannot_measure_x(self):
        rng = np.random.default_rng(0)
        alice = quantum_party("alice")
        slots = Slots()
        handles = alice.prepare(slots, b"\x02")
        with pytest.raises(CapabilityError):
            classical_party("trent").measure(slots, handles, b"\x01", rng)

    def test_classical_cannot_prepare_entangled(self):
        slots = Slots()
        with pytest.raises(CapabilityError):
            classical_party("bob").prepare_bell_pair(slots, (0,))
        assert slots.states == []

    def test_classical_allowed_set(self):
        rng = np.random.default_rng(0)
        bob = classical_party("bob")
        slots = Slots()
        handles = bob.prepare(slots, b"\x01")
        bob.measure(slots, handles, b"\x00", rng)
        bob.reflect(handles)
        bob.reorder(handles, [0])
        bob.delay()
        bob.classical_compute()
        assert set(bob.op_log) <= CLASSICAL_ALLOWED

    def test_quantum_party_unrestricted(self):
        rng = np.random.default_rng(0)
        alice = quantum_party("alice")
        slots = Slots()
        handles = alice.prepare(slots, b"\x03")
        alice.measure(slots, handles, b"\x01", rng)
        alice.prepare_bell_pair(slots, (1,))

    # (party, the refused op on a slot list holding one |+> at handle 0,
    # the error it raises).
    REFUSED = {
        "classical-prepares-x": (
            classical_party, lambda p, s, rng: p.prepare(s, b"\x00\x02"), CapabilityError),
        "code-names-no-state": (
            quantum_party, lambda p, s, rng: p.prepare(s, b"\x00\x04"), ValueError),
        "codes-not-bytes": (
            quantum_party, lambda p, s, rng: p.prepare(s, [0, 2]), TypeError),
        "classical-bell-pair": (
            classical_party, lambda p, s, rng: p.prepare_bell_pair(s, (0,)), CapabilityError),
        "bell-bit-not-0-or-1": (
            quantum_party, lambda p, s, rng: p.prepare_bell_pair(s, (0, 2)), ValueError),
        "classical-measures-x": (
            classical_party, lambda p, s, rng: p.measure(s, [0, 0], b"\x00\x01", rng),
            CapabilityError),
        "basis-bit-not-0-or-1": (
            quantum_party, lambda p, s, rng: p.measure(s, [0], b"\x02", rng), ValueError),
        "basis-bit-as-the-byte-of-z": (
            classical_party, lambda p, s, rng: p.measure(s, [0], b"Z", rng), ValueError),
        "bases-not-bytes": (
            classical_party, lambda p, s, rng: p.measure(s, [0], ["Z"], rng), TypeError),
        "one-basis-bit-a-qubit": (
            quantum_party, lambda p, s, rng: p.measure(s, [0], b"\x00\x00", rng), ValueError),
        "perm-not-a-bijection": (
            classical_party, lambda p, s, rng: p.reorder([0, 0], [1, 1]), ValueError),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_rejected_op_not_logged(self, case):
        # Every check of an op runs before it is logged: a refused op logs
        # nothing, touches no slot and draws nothing.
        make, op, error = self.REFUSED[case]
        party = make("p")
        slots = Slots()
        plus = prepare_single(Basis.X, 0)
        slots.states.append(plus)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(error):
            op(party, slots, rng)
        assert party.op_log == []
        assert slots.states == [plus] and slots.states[0] is plus
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("code", range(4))
    def test_classical_prepare_follows_the_allowed_set(self, code):
        # A code's op is PREPARE_X when its basis bit (code >> 1) is 1: a
        # classical party may send the code exactly when CLASSICAL_ALLOWED
        # holds that op.
        op = OpKind.PREPARE_X if code >> 1 else OpKind.PREPARE_Z
        bob = classical_party("bob")
        if op in CLASSICAL_ALLOWED:
            bob.prepare(Slots(), bytes([0, code]))
            assert bob.op_log == [OpKind.PREPARE_Z, op]
        else:
            with pytest.raises(CapabilityError, match=op.value):
                bob.prepare(Slots(), bytes([0, code]))
            assert bob.op_log == []

    @pytest.mark.parametrize("bit", range(2))
    def test_classical_measure_follows_the_allowed_set(self, bit):
        op = OpKind.MEASURE_X if bit else OpKind.MEASURE_Z
        slots = Slots()
        handles = quantum_party("alice").prepare(slots, b"\x00\x02")
        trent = classical_party("trent")
        rng = np.random.default_rng(0)
        if op in CLASSICAL_ALLOWED:
            trent.measure(slots, handles, bytes([0, bit]), rng)
            assert trent.op_log == [OpKind.MEASURE_Z, op]
        else:
            with pytest.raises(CapabilityError, match=op.value):
                trent.measure(slots, handles, bytes([0, bit]), rng)
            assert trent.op_log == []


@st.composite
def measuring_stages(draw):
    """States of 1..4 registers of 1..MAX_REGISTER_QUBITS qubits each, a
    stage of (register, qubit, basis) in any order, a seed, and the
    position of one X basis in the stage. Each register is a preparation
    with ancillas, walked through shared Gates and CNOTs, so it is a state
    of the table."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    states = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, MAX_REGISTER_QUBITS))
        state = prepare_single(draw(st.sampled_from([Basis.Z, Basis.X])), draw(st.integers(0, 1)))
        while state.num_qubits < n:
            state = append_ancilla(state)
        for gate, a, b in draw(st.lists(st.tuples(
                st.sampled_from(sorted(GATES)), st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=8)):
            state = apply_unitary(state, GATES[gate], (a,))
            if a != b:
                state = cnot(state, a, b)
        states.append(state)
    qubits = [(r, q) for r, state in enumerate(states) for q in range(state.num_qubits)]
    order = draw(st.permutations(qubits))
    stage = order[:draw(st.integers(1, len(order)))]
    bases = draw(st.lists(st.sampled_from([Basis.Z, Basis.X]),
                          min_size=len(stage), max_size=len(stage)))
    return states, stage, bases, seed, draw(st.integers(0, len(stage) - 1))


def basis_bits(bases):
    """A measuring stage's basis bits: 0 for Z, 1 for X."""
    return bytes(b is Basis.X for b in bases)


def stage_handles(states, stage):
    """A slot list holding `states`, and the handles of the stage's qubits."""
    slots = Slots()
    slots.states.extend(states)
    return slots, [r << 2 | q for r, q in stage]


def read_one_by_one(states, stage, bases, rng):
    """The bits and the post-states of one quantum.measure a qubit, in order."""
    states = list(states)
    bits = bytearray()
    for (r, q), basis in zip(stage, bases):
        bit, states[r] = measure(states[r], q, basis, rng.random())
        bits.append(bit)
    return bytes(bits), states


class TestPartyStages:
    """A stage is its qubits, in order: the same bits, post-states, op log
    and generator state as one quantum.measure (or prepare_single) a qubit."""

    @given(measuring_stages())
    @settings(max_examples=150, deadline=None)
    def test_measure_is_its_qubits_in_order(self, case):
        states, stage, bases, seed, _ = case
        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        alice = quantum_party("alice")
        slots, handles = stage_handles(states, stage)
        bits = alice.measure(slots, handles, basis_bits(bases), rng)
        expected, expected_states = read_one_by_one(states, stage, bases, clone)
        assert bits == expected
        assert [s.amps for s in slots.states] == [s.amps for s in expected_states]
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
        slots, handles = stage_handles(states, stage)
        with pytest.raises(CapabilityError):
            trent.measure(slots, handles, basis_bits(bases), rng)
        assert slots.states == states  # the same objects
        assert trent.op_log == [OpKind.DELAY]
        assert rng.bit_generator.state == before

    @given(st.lists(st.tuples(st.sampled_from([Basis.Z, Basis.X]), st.integers(0, 1)),
                    min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_prepare_is_its_qubits_in_order(self, stage):
        bases, bits = zip(*stage)
        codes = bytes((b is Basis.X) << 1 | bit for b, bit in stage)
        alice = quantum_party("alice")
        slots = Slots()
        slots.states.append(prepare_bell(0))  # a slot the stage leaves alone
        handles = alice.prepare(slots, codes)
        assert handles == [s << 2 for s in range(1, len(stage) + 1)]  # fresh slots
        assert slots.states == [prepare_bell(0), *(prepare_single(b, bit) for b, bit in stage)]
        assert alice.op_log == [OpKind.PREPARE_Z if b is Basis.Z else OpKind.PREPARE_X
                                for b in bases]
        bob = classical_party("bob")
        bob.delay()
        if Basis.X in bases:
            with pytest.raises(CapabilityError):
                bob.prepare(slots, codes)
            assert bob.op_log == [OpKind.DELAY]
            assert len(slots.states) == len(stage) + 1
        else:
            assert len(bob.prepare(slots, codes)) == len(stage)

    @given(st.integers(0, 2 ** 32 - 1), st.permutations(range(6)),
           st.lists(st.sampled_from([Basis.Z, Basis.X]), min_size=6, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_stage_of_tabled_and_unshared_states_is_its_qubits(self, seed, order, bases):
        # Tabled: both halves of a Bell pair and a |+>; unshared copies of
        # keyed states, read as the table's: a fresh |-> and both qubits of
        # a fresh H|0> H|1>.
        def stage():
            alice = quantum_party("alice")
            slots = Slots()
            [t_half], [b_half] = alice.prepare_bell_pair(slots, (1,))
            handles = [t_half, b_half, *alice.prepare(slots, b"\x02"),
                       *new_qubit(slots, [StateVector([0.5 ** 0.5, -0.5 ** 0.5])])]
            slots.states.append(StateVector([0.5, -0.5, 0.5, -0.5]))
            handles += [len(slots.states) - 1 << 2, len(slots.states) - 1 << 2 | 1]
            return slots, [handles[i] for i in order]

        slots, handles = stage()
        tabled = [slots.states[h >> 2] in _ROWS for h in handles]
        assert sorted(tabled) == [False] * 3 + [True] * 3
        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        bits = quantum_party("alice").measure(slots, handles, basis_bits(bases), rng)
        expected_slots, expected_handles = stage()
        expected, expected_states = read_one_by_one(
            expected_slots.states, [(h >> 2, h & 3) for h in expected_handles], bases, clone)
        assert bits == expected
        assert [s.amps for s in slots.states] == [s.amps for s in expected_states]
        assert rng.bit_generator.state == clone.bit_generator.state

    def test_a_stage_refuses_a_state_with_no_key(self):
        slots = Slots()
        handles = new_qubit(slots, [StateVector([0.6, 0.8])])
        with pytest.raises(ValueError, match="measurement_branches"):
            quantum_party("alice").measure(slots, handles, b"\x00", np.random.default_rng(0))

    def test_stage_refuses_a_revoked_ref(self):
        slots = Slots()
        handles = quantum_party("alice").prepare(slots, b"\x00")
        lent = []
        _lend(slots, handles, lambda point, refs, rng: lent.extend(refs) or refs, None, None)
        with pytest.raises(RevokedHandleError):
            measure_qubits(lent, [Basis.Z], np.random.default_rng(0))

    @given(st.lists(st.integers(0, 1), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_bell_pairs_are_one_per_bit(self, g):
        alice = quantum_party("alice")
        slots = Slots()
        slots.states.append(prepare_single(Basis.Z, 0))  # a slot the pairs leave alone
        t_halves, b_halves = alice.prepare_bell_pair(slots, g)
        assert slots.states == [prepare_single(Basis.Z, 0), *map(prepare_bell, g)]
        assert t_halves == [s << 2 for s in range(1, len(g) + 1)]  # fresh slots, qubit 0
        assert b_halves == [h | 1 for h in t_halves]  # the same slots, qubit 1
        assert alice.op_log == [OpKind.PREPARE_ENTANGLED] * len(g)

    def test_stage_lengths_must_agree(self):
        # A code is a qubit's basis and value at once, so a preparing stage
        # cannot disagree with itself; a measuring stage has one basis bit a
        # qubit.
        alice = quantum_party("alice")
        slots = Slots()
        handles = alice.prepare(slots, b"\x00\x01")
        for stage, bits in ((handles, b"\x00"), (handles[:1], b"\x00\x00")):
            with pytest.raises(ValueError):
                alice.measure(slots, stage, bits, np.random.default_rng(0))
        assert alice.op_log == [OpKind.PREPARE_Z] * 2


class TestHonestRoundHoldsInts:
    """An honest round passes int handles from stage to stage and builds
    no QubitRef: refs are for strategies alone."""

    @pytest.mark.parametrize("mode", list(DetectionMode))
    def test_no_ref_and_only_int_handles(self, monkeypatch, mode):
        refs_built, stages = [], []

        def refuse_refs(ref, slots, handle):
            refs_built.append(handle)

        def watched(fn, *, arg, out):
            # Keep the handle list at position `arg` and, when `out`, the
            # handle lists `fn` returns.
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if arg is not None:
                    stages.append(args[arg])
                if out:
                    stages.extend(result if isinstance(result, tuple) else (result,))
                return result
            return wrapper

        monkeypatch.setattr(register.QubitRef, "__init__", refuse_refs)
        for name, arg, out in (("prepare", None, True), ("prepare_bell_pair", None, True),
                               ("measure", 2, False), ("reflect", 1, True),
                               ("reorder", 1, True)):
            monkeypatch.setattr(Party, name, watched(getattr(Party, name), arg=arg, out=out))
        monkeypatch.setattr(Channel, "send_qubits",
                            watched(Channel.send_qubits, arg=2, out=True))
        result = run_protocol_round(message=(1, 0, 1, 1), mode=mode, strategy=NoAttack(),
                                    rng=np.random.default_rng(0), d_z=4, d_x=4)
        assert result.accepted
        assert refs_built == []
        assert len(stages) >= 8 and any(stages)
        assert all(type(h) is int for stage in stages for h in stage)

    def test_one_new_qubit_call_a_preparing_stage(self, monkeypatch):
        # An honest n = 64 round prepares its 128 decoys as one stage, and
        # the stage fills its slots with one register.new_qubit call.
        calls = {"prepare": 0, "new_qubit": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Party, "prepare", counted("prepare", Party.prepare))
        monkeypatch.setattr(parties, "new_qubit", counted("new_qubit", parties.new_qubit))
        result = run_protocol_round(message=bytes(64), mode=DetectionMode.IMPROVED,
                                    strategy=NoAttack(), rng=np.random.default_rng(0),
                                    d_z=64, d_x=64)
        assert result.accepted
        assert calls == {"prepare": 1, "new_qubit": 1}
        assert result.alice.op_log.count(OpKind.PREPARE_Z) == 64
        assert result.alice.op_log.count(OpKind.PREPARE_X) == 64
