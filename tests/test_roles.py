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
    MAX_REGISTER_QUBITS,
    Basis,
    StateVector,
    _ROWS,
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
            (t,) = trent.measure(slots, [t_half], [Basis.Z], rng)
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
                (t,) = trent.measure(slots, [t_half], [Basis.Z], rng)
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
            (b,) = bob.measure(slots, [b_half], [Basis.Z], rng)
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
            classical_party("bob").prepare(Slots(), [Basis.X], [0])

    def test_classical_cannot_measure_x(self):
        rng = np.random.default_rng(0)
        alice = quantum_party("alice")
        slots = Slots()
        handles = alice.prepare(slots, [Basis.X], [0])
        with pytest.raises(CapabilityError):
            classical_party("trent").measure(slots, handles, [Basis.X], rng)

    def test_classical_cannot_prepare_entangled(self):
        slots = Slots()
        with pytest.raises(CapabilityError):
            classical_party("bob").prepare_bell_pair(slots, (0,))
        assert slots.states == []

    def test_classical_allowed_set(self):
        rng = np.random.default_rng(0)
        bob = classical_party("bob")
        slots = Slots()
        handles = bob.prepare(slots, [Basis.Z], [1])
        bob.measure(slots, handles, [Basis.Z], rng)
        bob.reflect(handles)
        bob.reorder(handles, [0])
        bob.delay()
        bob.classical_compute()
        assert set(bob.op_log) <= CLASSICAL_ALLOWED

    def test_quantum_party_unrestricted(self):
        rng = np.random.default_rng(0)
        alice = quantum_party("alice")
        slots = Slots()
        handles = alice.prepare(slots, [Basis.X], [1])
        alice.measure(slots, handles, [Basis.X], rng)
        alice.prepare_bell_pair(slots, (1,))

    def test_rejected_op_not_logged(self):
        bob = classical_party("bob")
        slots = Slots()
        with pytest.raises(CapabilityError):
            bob.prepare(slots, [Basis.X], [0])
        assert OpKind.PREPARE_X not in bob.op_log
        assert slots.states == []


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
    qubits = [(r, q) for r, state in enumerate(states) for q in range(state.num_qubits)]
    order = draw(st.permutations(qubits))
    stage = order[:draw(st.integers(1, len(order)))]
    bases = draw(st.lists(st.sampled_from([Basis.Z, Basis.X]),
                          min_size=len(stage), max_size=len(stage)))
    return states, stage, bases, seed, draw(st.integers(0, len(stage) - 1))


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
        bits = alice.measure(slots, handles, bases, rng)
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
            trent.measure(slots, handles, bases, rng)
        assert slots.states == states  # the same objects
        assert trent.op_log == [OpKind.DELAY]
        assert rng.bit_generator.state == before

    @given(st.lists(st.tuples(st.sampled_from([Basis.Z, Basis.X]), st.integers(0, 1)),
                    min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_prepare_is_its_qubits_in_order(self, stage):
        bases, bits = zip(*stage)
        alice = quantum_party("alice")
        slots = Slots()
        slots.states.append(prepare_bell(0))  # a slot the stage leaves alone
        handles = alice.prepare(slots, bases, bits)
        assert handles == [s << 2 for s in range(1, len(stage) + 1)]  # fresh slots
        assert slots.states == [prepare_bell(0), *(prepare_single(b, bit) for b, bit in stage)]
        assert alice.op_log == [OpKind.PREPARE_Z if b is Basis.Z else OpKind.PREPARE_X
                                for b in bases]
        bob = classical_party("bob")
        bob.delay()
        if Basis.X in bases:
            with pytest.raises(CapabilityError):
                bob.prepare(slots, bases, bits)
            assert bob.op_log == [OpKind.DELAY]
            assert len(slots.states) == len(stage) + 1
        else:
            assert len(bob.prepare(slots, bases, bits)) == len(stage)

    @given(st.integers(0, 2 ** 32 - 1), st.permutations(range(6)),
           st.lists(st.sampled_from([Basis.Z, Basis.X]), min_size=6, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_stage_of_tabled_and_unshared_states_is_its_qubits(self, seed, order, bases):
        # Tabled: both halves of a Bell pair and a |+>; unshared, so computed:
        # a fresh one-qubit state and both qubits of a fresh two-qubit state.
        def stage():
            alice = quantum_party("alice")
            slots = Slots()
            [t_half], [b_half] = alice.prepare_bell_pair(slots, (1,))
            handles = [t_half, b_half, *alice.prepare(slots, [Basis.X], [0]),
                       *new_qubit(slots, [StateVector([0.6, 0.8])])]
            slots.states.append(StateVector([0.6, 0, 0, 0.8]))
            handles += [len(slots.states) - 1 << 2, len(slots.states) - 1 << 2 | 1]
            return slots, [handles[i] for i in order]

        slots, handles = stage()
        tabled = [slots.states[h >> 2] in _ROWS for h in handles]
        assert sorted(tabled) == [False] * 3 + [True] * 3
        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        bits = quantum_party("alice").measure(slots, handles, bases, rng)
        expected_slots, expected_handles = stage()
        expected, expected_states = read_one_by_one(
            expected_slots.states, [(h >> 2, h & 3) for h in expected_handles], bases, clone)
        assert bits == expected
        assert [s.amps for s in slots.states] == [s.amps for s in expected_states]
        assert rng.bit_generator.state == clone.bit_generator.state

    def test_stage_refuses_a_revoked_ref(self):
        slots = Slots()
        handles = quantum_party("alice").prepare(slots, [Basis.Z], [0])
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
        alice = quantum_party("alice")
        slots = Slots()
        with pytest.raises(ValueError):
            alice.prepare(slots, [Basis.Z], [0, 1])
        handles = alice.prepare(slots, [Basis.Z] * 2, [0, 1])
        with pytest.raises(ValueError):
            alice.measure(slots, handles, [Basis.Z], np.random.default_rng(0))
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
