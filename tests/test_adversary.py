"""Attack-strategy and channel-tap tests."""

import copy
import operator

import numpy as np
import pytest

from sqsig import adversary
from sqsig.adversary import (
    AttackStrategy,
    Channel,
    NoAttack,
    QubitProbe,
    TamperClassicalMessage,
    TamperSignatureB,
    TapPoint,
)
from sqsig.detection import DetectionMode
from sqsig.harness import parse_attack, strategy_factory
from sqsig.parties import quantum_party
from sqsig.protocol import run_protocol_round
from sqsig.quantum import (
    Basis,
    GATES,
    Gate,
    RegisterSizeError,
    append_ancilla,
    cnot,
    equal_up_to_phase,
    measure,
    partial_trace,
    prepare_bell,
    prepare_single,
    trace_distance,
    DensityMatrix,
)
from sqsig.register import (
    QubitRef,
    RevokedHandleError,
    Slots,
    _lend,
    apply_gate,
    attach_ancilla,
    measure_qubit,
    measure_qubits,
    new_qubit,
    probe_cnot,
)

SQRT2_INV = 1.0 / np.sqrt(2.0)
FORWARD, RETURN = TapPoint.FORWARD_ALICE_TO_TRENT, TapPoint.RETURN_TRENT_TO_ALICE


def fresh_qubit(slots, basis, bit):
    [handle] = new_qubit(slots, [prepare_single(basis, bit)])
    return handle


def attack(text):
    return strategy_factory(parse_attack(text))()


def send(strategy, point, slots, handles, rng):
    """The handles `strategy` hands on when the channel lends them at `point`."""
    return Channel(strategy, slots).send_qubits(point, handles, rng)


def state_of(slots, handle):
    return slots.states[handle >> 2]


def z_value(slots, handle):
    """b when the handle's register is the 1-qubit state |b>, else None."""
    for bit in (0, 1):
        if equal_up_to_phase(state_of(slots, handle), prepare_single(Basis.Z, bit)):
            return bit
    return None


class TestNoAttack:
    def test_qubits_untouched(self):
        rng = np.random.default_rng(0)
        slots = Slots()
        handle = fresh_qubit(slots, Basis.X, 1)
        before = state_of(slots, handle)
        refs = [QubitRef(slots, handle)]
        assert NoAttack().tap_qubits(FORWARD, refs, rng) is refs
        assert send(NoAttack(), FORWARD, slots, [handle], rng) == [handle]
        assert state_of(slots, handle) is before

    def test_classical_passthrough_observed(self):
        rng = np.random.default_rng(0)
        strategy = NoAttack()
        bits = strategy.tap_classical(
            TapPoint.ALICE_TO_BOB_CLASSICAL, "message", bytes((1, 0, 1)), rng
        )
        assert bits == bytes((1, 0, 1))


class TestInterceptMeasureResendZ:
    def test_plus_collapses_to_z_eigenstate(self):
        rng = np.random.default_rng(1)
        zeros = ones = 0
        trials = 2000
        for _ in range(trials):
            slots = Slots()
            handle = fresh_qubit(slots, Basis.X, 0)
            send(attack("intercept_resend_z"), FORWARD, slots, [handle], rng)
            bit = z_value(slots, handle)
            assert bit is not None
            zeros += bit == 0
            ones += bit == 1
        assert abs(zeros / trials - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_z_eigenstates_pass_unchanged(self):
        rng = np.random.default_rng(2)
        for bit in (0, 1):
            slots = Slots()
            handle = fresh_qubit(slots, Basis.Z, bit)
            send(attack("intercept_resend_z"), FORWARD, slots, [handle], rng)
            assert z_value(slots, handle) == bit

    def test_return_leg_untouched(self):
        rng = np.random.default_rng(3)
        slots = Slots()
        handle = fresh_qubit(slots, Basis.X, 0)
        send(attack("intercept_resend_z"), RETURN, slots, [handle], rng)
        assert equal_up_to_phase(state_of(slots, handle), prepare_single(Basis.X, 0))

    def test_forward_tap_builds_no_ref(self, monkeypatch):
        # The tap reads its own lent list by handle, with one lease check,
        # and builds no QubitRef.
        built = []
        monkeypatch.setattr(QubitRef, "__init__",
                            lambda ref, slots, handle: built.append(handle))
        slots = Slots()
        handles = [fresh_qubit(slots, Basis.X, 0), fresh_qubit(slots, Basis.Z, 1)]
        out = send(attack("intercept_resend_z"), FORWARD, slots, handles,
                   np.random.default_rng(4))
        assert out is handles and built == []
        assert z_value(slots, handles[0]) is not None and z_value(slots, handles[1]) == 1


class TestUnitaryTamperThenUndo:
    def test_x_forward_flips(self):
        rng = np.random.default_rng(4)
        slots = Slots()
        handle = fresh_qubit(slots, Basis.Z, 0)
        send(attack("pauli_x_tamper"), FORWARD, slots, [handle], rng)
        assert equal_up_to_phase(state_of(slots, handle), prepare_single(Basis.Z, 1))

    def test_forward_then_return_is_identity(self):
        rng = np.random.default_rng(5)
        for name in ("X", "Y", "Z", "H"):
            strategy = attack(f"unitary_tamper_then_undo:{name}")
            slots = Slots()
            handle = fresh_qubit(slots, Basis.X, 1)
            send(strategy, FORWARD, slots, [handle], rng)
            send(strategy, RETURN, slots, [handle], rng)
            assert equal_up_to_phase(
                state_of(slots, handle), prepare_single(Basis.X, 1)
            )

    @pytest.mark.parametrize("matrix", [
        np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]),  # unitary
        np.array([[1, 1], [0, 1]]),  # not unitary
        np.eye(4),  # a two-qubit unitary
        [[0, 1], [1, 0]],  # X as nested lists
    ])
    def test_a_matrix_action_is_refused(self, matrix):
        # A probe applies only a shared Clifford Gate, by name; whether the
        # matrix is unitary or of the right size is Gate's question, not the
        # probe's.
        with pytest.raises(ValueError, match="unknown probe action"):
            QubitProbe("unitary_tamper_then_undo", matrix)

    def test_apply_gate_takes_only_a_shared_gate(self):
        # A Gate built from a matrix is refused before any qubit changes,
        # even one whose rows equal a shared Gate's.
        slots = Slots()
        handles = [fresh_qubit(slots, Basis.Z, 0), fresh_qubit(slots, Basis.X, 0)]
        before = list(slots.states)

        def tap(point, refs, rng):
            for gate in (Gate(np.array(GATES["X"].rows)), Gate(np.diag([1, 1j]))):
                with pytest.raises(ValueError, match="shared"):
                    apply_gate(refs, gate)
            return refs

        _lend(slots, handles, tap, FORWARD, None)
        assert slots.states == before

    @pytest.mark.parametrize("action", ["X", "H"])
    def test_each_tap_is_one_gate_stage_with_no_ref(self, monkeypatch, action):
        # The gate on the way out and again on the way back, its own undo,
        # is one apply_gate call a tap, over the tap's own lent list, which
        # builds no ref.
        calls, built = [], []
        monkeypatch.setattr(adversary, "apply_gate",
                            lambda refs, gate: calls.append(gate) or apply_gate(refs, gate))
        monkeypatch.setattr(QubitRef, "__init__",
                            lambda ref, slots, handle: built.append(handle))
        strategy = QubitProbe("unitary_tamper_then_undo", action)
        slots = Slots()
        handles = [fresh_qubit(slots, Basis.X, 1), fresh_qubit(slots, Basis.Z, 0),
                   fresh_qubit(slots, Basis.Z, 1)]
        before = list(slots.states)
        rng = np.random.default_rng(0)
        assert send(strategy, FORWARD, slots, handles, rng) is handles
        assert send(strategy, RETURN, slots, handles, rng) is handles
        assert calls == [GATES[action]] * 2 and built == []
        assert slots.states == before  # the same table states


class TestEntangleProbe:
    def test_probe_on_zero_gives_product_state(self):
        rng = np.random.default_rng(0)
        slots = Slots()
        handle = fresh_qubit(slots, Basis.Z, 0)
        strategy = attack("entangle_probe")
        send(strategy, FORWARD, slots, [handle], rng)
        np.testing.assert_allclose(
            state_of(slots, handle).amplitudes, [1, 0, 0, 0], atol=1e-12
        )
        # Reading the ancilla on return leaves the product state as it was.
        send(strategy, RETURN, slots, [handle], rng)
        np.testing.assert_allclose(
            state_of(slots, handle).amplitudes, [1, 0, 0, 0], atol=1e-12
        )

    def test_probe_on_plus_creates_entangled_pair(self):
        rng = np.random.default_rng(0)
        slots = Slots()
        handle = fresh_qubit(slots, Basis.X, 0)
        strategy = attack("entangle_probe")
        send(strategy, FORWARD, slots, [handle], rng)
        np.testing.assert_allclose(
            state_of(slots, handle).amplitudes,
            [SQRT2_INV, 0, 0, SQRT2_INV], atol=1e-12,
        )
        # Reading the ancilla on return collapses the pair to |00> or |11>.
        send(strategy, RETURN, slots, [handle], rng)
        amps = np.abs(state_of(slots, handle).amplitudes)
        assert any(np.allclose(amps, target, atol=1e-12)
                   for target in ([1, 0, 0, 0], [0, 0, 0, 1]))

    def test_probed_plus_fails_x_recheck_half_the_time(self):
        rng = np.random.default_rng(7)
        alice = quantum_party("alice")
        trials = 2000
        errors = 0
        for _ in range(trials):
            slots = Slots()
            handle = fresh_qubit(slots, Basis.X, 0)
            strategy = attack("entangle_probe")
            send(strategy, FORWARD, slots, [handle], rng)
            send(strategy, RETURN, slots, [handle], rng)
            errors += alice.measure(slots, [handle], b"\x01", rng) != b"\x00"
        assert abs(errors / trials - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_immediate_measure_time(self):
        rng = np.random.default_rng(8)
        slots = Slots()
        handle = fresh_qubit(slots, Basis.Z, 1)
        send(attack("entangle_probe:immediate"), FORWARD, slots, [handle], rng)
        assert z_value(slots, handle) == 1  # read at once: no ancilla, |1> kept

    def test_bad_measure_time_rejected(self):
        with pytest.raises(ValueError):
            QubitProbe("entangle_probe", "whenever")

    def test_named_unitary_is_its_own_undo(self):
        for name, gate in GATES.items():
            assert QubitProbe("unitary_tamper_then_undo", name).u is gate
            rows = np.array(gate.rows)
            assert (rows.conj().T == rows).all()  # entry for entry

    def test_ancilla_budget_enforced(self):
        slots = Slots()

        def tap(point, refs, rng):
            attach_ancilla(refs[0])
            attach_ancilla(refs[0])
            attach_ancilla(refs[0])
            with pytest.raises(RegisterSizeError):
                attach_ancilla(refs[0])
            return refs

        _lend(slots, [fresh_qubit(slots, Basis.Z, 0)], tap, FORWARD, None)
        assert slots.states[0].num_qubits == 4


class TestOneDrawPerTap:
    # A tap's reads take their uniforms from one rng.random(k) call, which
    # gives the values and generator state of k scalar draws, each read
    # the one quantum.measure it stands for.
    PREPARED = [(Basis.X, 0), (Basis.X, 1), (Basis.Z, 1), (Basis.X, 0), (Basis.Z, 0)]

    def tapped(self):
        slots = Slots()
        return slots, [fresh_qubit(slots, b, v) for b, v in self.PREPARED]

    @pytest.mark.parametrize("seed", range(8))
    def test_intercept_forward_tap_equals_scalar_draws(self, seed):
        slots, handles = self.tapped()
        rng = np.random.default_rng(seed)
        send(attack("intercept_resend_z"), FORWARD, slots, handles, rng)
        scalar = np.random.default_rng(seed)
        read = [measure(prepare_single(b, v), 0, Basis.Z, scalar.random()).post_state
                for b, v in self.PREPARED]
        assert [s.amps for s in slots.states] == [s.amps for s in read]
        assert rng.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("seed", range(8))
    def test_probe_ancilla_reads_equal_scalar_draws(self, seed):
        slots, handles = self.tapped()
        rng = np.random.default_rng(seed)
        probe = attack("entangle_probe")
        send(probe, FORWARD, slots, handles, rng)
        send(probe, RETURN, slots, handles, rng)
        assert probe.pending == []
        assert slots.ancillas == {h | 1 for h in handles}
        scalar = np.random.default_rng(seed)
        read = [measure(cnot(append_ancilla(prepare_single(b, v)), 0, 1), 1, Basis.Z,
                        scalar.random()).post_state for b, v in self.PREPARED]
        assert [s.amps for s in slots.states] == [s.amps for s in read]
        assert rng.bit_generator.state == scalar.bit_generator.state


class TestTamperSignatureB:
    def test_single_flip_fails_exactly_that_position(self):
        rng = np.random.default_rng(11)
        result = run_protocol_round(
            message=(1, 0, 1, 1), mode=DetectionMode.IMPROVED,
            strategy=TamperSignatureB([2]), rng=rng,
            d_z=4, d_x=4,
        )
        assert not result.aborted
        assert not result.outcome.verdict
        assert result.outcome.failing_positions == (2,)
        assert not result.accepted

    def test_all_positions_flipped_all_fail(self):
        rng = np.random.default_rng(12)
        result = run_protocol_round(
            message=(0, 1, 0), mode=DetectionMode.IMPROVED,
            strategy=TamperSignatureB([0, 1, 2]), rng=rng,
            d_z=3, d_x=3,
        )
        assert result.outcome.failing_positions == (0, 1, 2)

    def test_zero_positions_is_noop(self):
        rng = np.random.default_rng(13)
        result = run_protocol_round(
            message=(0, 1, 0), mode=DetectionMode.IMPROVED,
            strategy=TamperSignatureB([]), rng=rng,
            d_z=3, d_x=3,
        )
        assert result.outcome.verdict and result.accepted

    def test_helper_flips_bell_pairing(self):
        rng = np.random.default_rng(14)
        alice = quantum_party("alice")
        slots = Slots()
        [t_half], [b_half] = alice.prepare_bell_pair(slots, (0,))
        send(TamperSignatureB([0]), TapPoint.ALICE_TO_BOB_QUANTUM, slots, [b_half], rng)
        assert equal_up_to_phase(state_of(slots, b_half), prepare_bell(1))

    def test_out_of_range_position_rejected(self):
        with pytest.raises(IndexError):
            TamperSignatureB([0]).tap_qubits(
                TapPoint.ALICE_TO_BOB_QUANTUM, [], np.random.default_rng(0)
            )

    def test_out_of_range_position_flips_nothing(self):
        slots = Slots()
        handles = [fresh_qubit(slots, Basis.Z, 0) for _ in range(3)]
        before = list(slots.states)
        with pytest.raises(IndexError):
            send(TamperSignatureB([0, 3]), TapPoint.ALICE_TO_BOB_QUANTUM, slots, handles,
                 np.random.default_rng(0))
        assert slots.states == before

    def test_flips_are_one_gate_stage(self, monkeypatch):
        calls = []
        monkeypatch.setattr(adversary, "apply_gate",
                            lambda refs, gate: calls.append(len(refs)) or apply_gate(refs, gate))
        slots = Slots()
        handles = [fresh_qubit(slots, Basis.Z, 0) for _ in range(4)]
        send(TamperSignatureB([3, 0, 2]), TapPoint.ALICE_TO_BOB_QUANTUM, slots, handles,
             np.random.default_rng(0))
        assert calls == [3]
        assert [z_value(slots, h) for h in handles] == [1, 0, 1, 1]


class TestTamperClassicalMessage:
    def test_flips_only_named_payload(self):
        rng = np.random.default_rng(15)
        strategy = TamperClassicalMessage([0])
        out = strategy.tap_classical(
            TapPoint.ALICE_TO_BOB_CLASSICAL, "message", bytes((0, 1, 1)), rng
        )
        assert out == bytes((1, 1, 1))
        untouched = strategy.tap_classical(
            TapPoint.BOB_TO_TRENT_CLASSICAL, "b_string", bytes((0, 1, 1)), rng
        )
        assert untouched == bytes((0, 1, 1))

    def test_bob_rejects_in_full_round(self):
        rng = np.random.default_rng(16)
        result = run_protocol_round(
            message=(1, 1, 0, 0), mode=DetectionMode.IMPROVED,
            strategy=TamperClassicalMessage([1]), rng=rng,
            d_z=4, d_x=4,
        )
        assert result.outcome.verdict  # Trent sees a consistent signature
        assert not result.accepted  # digest mismatch at Bob


class TestBlindness:
    def test_signature_qubits_reveal_nothing(self):
        # For every (message bit, key bit) pair the transmitted half is
        # maximally mixed, so two messages are perfectly indistinguishable.
        mixed = np.eye(2) / 2
        for m_bit in (0, 1):
            rho_entries = np.zeros((2, 2), dtype=complex)
            for k_bit in (0, 1):
                rho_entries += 0.5 * partial_trace(
                    prepare_bell(m_bit ^ k_bit), (1,)
                ).entries
            np.testing.assert_allclose(rho_entries, mixed, atol=1e-12)
        rho0 = DensityMatrix(mixed.astype(complex))
        assert trace_distance(rho0, rho0) < 1e-12


class StashForwardRefs(AttackStrategy):
    """Keep refs from the forward tap, as `keep` picks them, and flip a
    qubit through them later, when the returned permutation goes by."""

    kind = "stash_forward_refs"

    def __init__(self, keep=lambda refs: refs[:1]):
        self.keep = keep
        self.stashed = None

    def tap_qubits(self, point, refs, rng):
        if point is TapPoint.FORWARD_ALICE_TO_TRENT:
            self.stashed = self.keep(refs)
        return list(refs)

    def tap_classical(self, point, name, bits, rng):
        if name == "permutation":
            apply_gate(self.stashed, GATES["X"])
        return bits


class RebuildForwardRefs(AttackStrategy):
    """Rebuild each lent ref from its fields in the forward tap, and read
    the rebuilt refs in X when the returned permutation goes by."""

    kind = "rebuild_forward_refs"

    def __init__(self):
        self.rebuilt = None

    def tap_qubits(self, point, refs, rng):
        if point is TapPoint.FORWARD_ALICE_TO_TRENT:
            self.rebuilt = [QubitRef(ref.slots, ref.handle) for ref in refs]
        return refs

    def tap_classical(self, point, name, bits, rng):
        if name == "permutation":
            for ref in self.rebuilt:
                measure_qubit(ref, Basis.X, rng.random())
        return bits


class KeepAncillas(AttackStrategy):
    """Attach an ancilla to every forward qubit inside the tap; flip and
    read the ancillas only when the returned permutation goes by."""

    kind = "keep_ancillas"

    def __init__(self):
        self.ancillas = self.read = None

    def tap_qubits(self, point, refs, rng):
        if point is TapPoint.FORWARD_ALICE_TO_TRENT:
            self.ancillas = [attach_ancilla(ref) for ref in refs]
        return list(refs)

    def tap_classical(self, point, name, bits, rng):
        if name == "permutation":
            apply_gate(self.ancillas, GATES["X"])
            self.read = [measure_qubit(ancilla, Basis.Z, rng.random())
                         for ancilla in self.ancillas]
        return bits


class TestTapOnlyRule:
    def test_stashed_forward_ref_is_revoked(self):
        with pytest.raises(RevokedHandleError):
            run_protocol_round(
                message=(1, 0), mode=DetectionMode.IMPROVED,
                strategy=StashForwardRefs(), rng=np.random.default_rng(3),
                d_z=2, d_x=2,
            )

    @pytest.mark.parametrize("seed", range(20))
    def test_a_ref_rebuilt_from_its_fields_is_revoked(self, seed):
        # The slot list, not the ref, says who holds a qubit: a ref built
        # again from the fields of a lent one is refused once the tap returns.
        strategy = RebuildForwardRefs()
        with pytest.raises(RevokedHandleError):
            run_protocol_round(
                message=(1, 0), mode=DetectionMode.IMPROVED,
                strategy=strategy, rng=np.random.default_rng(seed),
                d_z=2, d_x=2,
            )
        assert len(strategy.rebuilt) == 6

    def test_inside_a_tap_only_its_own_qubits_are_held(self):
        # A ref rebuilt inside a tap reaches a qubit that tap lends, and no
        # other qubit of the round.
        slots = Slots()
        lent = [fresh_qubit(slots, Basis.Z, 0), fresh_qubit(slots, Basis.Z, 1)]
        kept = fresh_qubit(slots, Basis.Z, 1)

        def tap(point, refs, rng):
            apply_gate([QubitRef(slots, lent[1])], GATES["X"])
            with pytest.raises(RevokedHandleError):
                apply_gate([QubitRef(slots, kept)], GATES["X"])
            with pytest.raises(RevokedHandleError):
                attach_ancilla(QubitRef(slots, kept))
            with pytest.raises(RevokedHandleError):
                probe_cnot(refs[0], QubitRef(slots, kept))
            with pytest.raises(RevokedHandleError):
                measure_qubits([QubitRef(slots, kept)], [Basis.Z], rng)
            return refs

        rng = np.random.default_rng(0)
        assert _lend(slots, lent, tap, FORWARD, rng) is lent
        assert [z_value(slots, h) for h in (*lent, kept)] == [0, 0, 1]

    def test_joined_lent_refs_are_revoked(self):
        # A list joined from slices of the lent refs holds the same refs.
        strategy = StashForwardRefs(keep=lambda refs: refs[1:] + refs[:1])
        slots = Slots()
        handles = [fresh_qubit(slots, Basis.Z, 0), fresh_qubit(slots, Basis.Z, 1)]
        received = send(strategy, FORWARD, slots, handles, np.random.default_rng(0))
        for ref in strategy.stashed:
            with pytest.raises(RevokedHandleError):
                measure_qubit(ref, Basis.Z, 0.5)
        # The handles the receiver got are the sender's, and a party reads them.
        assert received == handles
        assert quantum_party("alice").measure(
            slots, received, bytes(2), np.random.default_rng(0)) == bytes((0, 1))

    def test_own_ancillas_stay_usable_and_reach_only_themselves(self):
        # The flips land on the ancillas alone: the decoys still pass
        # Alice's final check and the round goes through.
        strategy = KeepAncillas()
        result = run_protocol_round(
            message=(1, 0), mode=DetectionMode.IMPROVED,
            strategy=strategy, rng=np.random.default_rng(3),
            d_z=2, d_x=2,
        )
        assert strategy.read == [1] * 6  # one ancilla per forward qubit
        assert not result.aborted and result.accepted


class ReturnReversed(AttackStrategy):
    """Hand the lent refs back in reverse order, followed by an ancilla
    attached to the first of them when `ancilla` is set."""

    kind = "return_reversed"

    def __init__(self, ancilla=False):
        self.ancilla = ancilla

    def tap_qubits(self, point, refs, rng):
        return list(refs)[::-1] + ([attach_ancilla(refs[0])] if self.ancilla else [])


class HandBack(AttackStrategy):
    """Hand back the refs `make(refs)` builds, at `point` alone when one is
    given."""

    kind = "hand_back"

    def __init__(self, make, point=None):
        self.make, self.point = make, point

    def tap_qubits(self, point, refs, rng):
        return self.make(refs) if self.point in (None, point) else refs


def _ancilla_twice(refs):
    ancilla = attach_ancilla(refs[0])
    return [ancilla, ancilla]


class TestLentRefsReturn:
    def test_reversed_lent_refs_come_back_as_the_callers_handles(self):
        slots = Slots()
        handles = [fresh_qubit(slots, Basis.Z, bit) for bit in (0, 1, 1)]
        received = send(ReturnReversed(), FORWARD, slots, handles, np.random.default_rng(0))
        assert received == handles[::-1]

    def test_an_own_ancilla_comes_back_as_its_handle(self):
        slots = Slots()
        handles = [fresh_qubit(slots, Basis.Z, 0), fresh_qubit(slots, Basis.Z, 1)]
        received = send(ReturnReversed(ancilla=True), FORWARD, slots, handles,
                        np.random.default_rng(0))
        assert received == [handles[1], handles[0], handles[0] | 1]
        assert z_value(slots, handles[1]) == 1
        assert state_of(slots, handles[0]).amps == (1, 0, 0, 0)  # |0> and its ancilla

    @pytest.mark.parametrize("make", [
        lambda refs: [QubitRef(refs[0].slots, refs[0].handle + 4)],  # a qubit not lent
        lambda refs: [QubitRef(Slots(), refs[0].handle)],  # a ref of another round
    ])
    def test_a_ref_the_tap_does_not_hold_is_refused(self, make):
        slots = Slots()
        handles = [fresh_qubit(slots, Basis.Z, 0), fresh_qubit(slots, Basis.Z, 1)]
        with pytest.raises(RevokedHandleError):
            send(HandBack(lambda refs: make(refs[:1])), FORWARD, slots, handles[:1],
                 np.random.default_rng(0))
        assert slots.lent is None


    @pytest.mark.parametrize("make", [
        lambda refs: [refs[0]] * len(refs),  # one lent qubit in place of each
        lambda refs: [refs[1], refs[0], refs[1]],
        _ancilla_twice,
    ])
    def test_a_qubit_handed_back_twice_is_refused(self, make):
        slots = Slots()
        handles = [fresh_qubit(slots, Basis.Z, bit) for bit in (0, 1, 1)]
        with pytest.raises(RevokedHandleError, match="twice"):
            send(HandBack(make), FORWARD, slots, handles, np.random.default_rng(0))
        assert slots.lent is None

    @pytest.mark.parametrize("point, mode", [
        (TapPoint.ALICE_TO_BOB_QUANTUM, DetectionMode.IMPROVED),
        (RETURN, DetectionMode.DIRECT_REFLECTION),
    ])
    def test_a_round_refuses_one_qubit_handed_on_for_all(self, point, mode):
        # Bob, or Alice's check of the reflected decoys, would read one
        # qubit k times, and the round could go on.
        for seed in range(5):
            with pytest.raises(RevokedHandleError, match="twice"):
                run_protocol_round(
                    message=bytes((1, 0, 1, 1)), mode=mode, rng=np.random.default_rng(seed),
                    strategy=HandBack(lambda refs: [refs[0]] * len(refs), point),
                    d_z=4, d_x=4)

    def test_an_ancilla_handed_on_is_the_strategys_no_longer(self):
        # Handed on in place of a forward qubit, the ancilla is a protocol
        # qubit: a later tap lent only the other qubit cannot flip it.
        slots = Slots()
        handles = [fresh_qubit(slots, Basis.Z, 0), fresh_qubit(slots, Basis.Z, 0)]
        handed = []

        def forward(point, refs, rng):
            handed.append(attach_ancilla(refs[0]))
            return [handed[0], refs[1]]

        def later(point, refs, rng):
            with pytest.raises(RevokedHandleError):
                apply_gate(handed, GATES["X"])
            return refs

        received = _lend(slots, handles, forward, FORWARD, None)
        assert received == [handles[0] | 1, handles[1]] and slots.ancillas == set()
        _lend(slots, received[1:], later, RETURN, None)
        assert slots.states[0].amps == (1, 0, 0, 0)  # |00>, as the receiver holds it
        # Lent like any protocol qubit, it is held again.
        _lend(slots, received[:1], lambda point, refs, rng: apply_gate(refs, GATES["X"]) or refs,
              RETURN, None)
        assert slots.states[0].amps == (0, 1, 0, 0)


class ReadLentRefsEveryWay(AttackStrategy):
    """Read the lent refs by iteration, index, slice and unpacking; pass them on."""

    kind = "read_lent_refs_every_way"

    def __init__(self):
        self.views = {}

    def tap_qubits(self, point, refs, rng):
        self.views[point] = (list(refs), [refs[i] for i in range(len(refs))],
                             refs[:], refs[::-1][::-1], [*refs], [refs[-3], *refs[1:]])
        return refs


class TestLentRefsIssuedOnce:
    def test_every_read_of_a_tap_gives_the_same_refs(self):
        strategy = ReadLentRefsEveryWay()
        slots = Slots()
        channel = Channel(strategy, slots)
        handles = [fresh_qubit(slots, Basis.Z, bit) for bit in (0, 1, 1)]
        rng = np.random.default_rng(0)
        forward = channel.send_qubits(FORWARD, handles, rng)
        channel.send_qubits(RETURN, forward, rng)
        lent_forward, lent_return = (strategy.views[point] for point in (FORWARD, RETURN))
        for views in (lent_forward, lent_return):
            first = views[0]
            assert [ref.handle for ref in first] == handles
            assert all(len(view) == 3 and all(map(operator.is_, view, first))
                       for view in views)
        # A new tap lends new refs; the caller's handles come back as they were.
        assert not any(a is b for a in lent_forward[0] for b in lent_return[0])
        assert forward is handles
        for ref in lent_forward[0]:
            with pytest.raises(RevokedHandleError):
                measure_qubit(ref, Basis.Z, rng.random())

    def test_a_tap_that_reads_no_ref_builds_none(self):
        lent = []
        slots = Slots()
        handles = [fresh_qubit(slots, Basis.X, 0), fresh_qubit(slots, Basis.Z, 1)]
        out = _lend(slots, handles, lambda point, refs, rng: lent.append(refs) or refs,
                    FORWARD, None)
        assert out is handles
        assert len(lent[0]) == 2 and lent[0].issued is None


class TestChannel:
    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            Channel(NoAttack(), Slots(), noise_p=1.0)

    def test_transcript_records_order(self):
        rng = np.random.default_rng(17)
        transcript: list = []
        slots = Slots()
        channel = Channel(NoAttack(), slots, transcript=transcript)
        channel.send_qubits(FORWARD, [fresh_qubit(slots, Basis.Z, 0)], rng)
        channel.send_classical(FORWARD, "loc_z", (1, 0), rng)
        assert [ev["event"] for ev in transcript] == ["quantum_send", "classical"]
        assert transcript[1]["bits"] == "10"

    def test_disabled_transcript_stays_none(self):
        rng = np.random.default_rng(18)
        channel = Channel(NoAttack(), Slots(), transcript=None)
        channel.send_classical(FORWARD, "x", (1,), rng)
        assert channel.transcript is None

    def test_noise_flips_eigenstates(self):
        # Depolarizing: X or Y flips a Z eigenstate, Z does not, so the
        # flip probability per transit is 2p/3.
        rng = np.random.default_rng(19)
        p = 0.3
        trials = 4000
        flips = 0
        for _ in range(trials):
            slots = Slots()
            handle = fresh_qubit(slots, Basis.Z, 0)
            Channel(NoAttack(), slots, noise_p=p).send_qubits(FORWARD, [handle], rng)
            flips += equal_up_to_phase(
                state_of(slots, handle), prepare_single(Basis.Z, 1)
            )
        expected = 2 * p / 3
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(flips / trials - expected) < 3 * sigma

    @pytest.mark.parametrize("seed", range(3))
    def test_noise_is_one_draw_a_send(self, monkeypatch, seed):
        # Qubit j is hit when the j-th uniform u of one random(k) draw is
        # below p, by X, Y or Z as int(3u / p) is 0, 1 or 2.
        p, k = 0.4, 50
        hits = []
        monkeypatch.setattr(adversary, "gate_handle",
                            lambda slots, handle, gate: hits.append((handle, gate)))
        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        slots = Slots()
        handles = [fresh_qubit(slots, Basis.Z, 0) for _ in range(k)]
        Channel(NoAttack(), slots, noise_p=p).send_qubits(FORWARD, handles, rng)
        paulis = (GATES["X"], GATES["Y"], GATES["Z"])
        assert hits == [(handle, paulis[int(3 * u / p)])
                        for handle, u in zip(handles, clone.random(k).tolist()) if u < p]
        assert rng.bit_generator.state == clone.bit_generator.state

    def test_noise_just_below_p_is_z(self, monkeypatch):
        # For p = 0.021 and u one ulp below it, 3u / p rounds up to 3.0.
        p = 0.021
        u = np.nextafter(p, 0.0)
        assert u < p and 3 * u / p == 3.0

        class JustBelow:
            def random(self, k):
                return np.full(k, u)

        hits = []
        monkeypatch.setattr(adversary, "gate_handle",
                            lambda slots, handle, gate: hits.append(gate))
        slots = Slots()
        Channel(NoAttack(), slots, noise_p=p).send_qubits(
            FORWARD, [fresh_qubit(slots, Basis.Z, 0)], JustBelow())
        assert hits == [GATES["Z"]]
