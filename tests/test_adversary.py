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
from sqsig.harness import build_strategy, parse_attack
from sqsig.parties import quantum_party
from sqsig.protocol import run_protocol_round
from sqsig.quantum import (
    Basis,
    GATES,
    DimensionMismatchError,
    Gate,
    NonUnitaryError,
    RegisterSizeError,
    equal_up_to_phase,
    partial_trace,
    prepare_bell,
    prepare_single,
    trace_distance,
    DensityMatrix,
)
from sqsig.register import (
    RevokedHandleError,
    _lend,
    apply_gate,
    attach_ancilla,
    measure_qubit,
    new_qubit,
    probe_cnot,
)

SQRT2_INV = 1.0 / np.sqrt(2.0)


def fresh_qubit(basis, bit):
    return new_qubit(prepare_single(basis, bit))


def attack(text):
    return build_strategy(parse_attack(text))


def z_value(ref):
    """b when the ref's register is the 1-qubit state |b>, else None."""
    for bit in (0, 1):
        if equal_up_to_phase(ref.register.state, prepare_single(Basis.Z, bit)):
            return bit
    return None


class TestNoAttack:
    def test_qubits_untouched(self):
        rng = np.random.default_rng(0)
        ref = fresh_qubit(Basis.X, 1)
        before = ref.register.state.amplitudes.copy()
        out = NoAttack().tap_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, [ref], rng)
        assert out == [ref]
        np.testing.assert_array_equal(ref.register.state.amplitudes, before)

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
            ref = fresh_qubit(Basis.X, 0)
            strategy = attack("intercept_resend_z")
            strategy.tap_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, [ref], rng)
            bit = z_value(ref)
            assert bit is not None
            zeros += bit == 0
            ones += bit == 1
        assert abs(zeros / trials - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_z_eigenstates_pass_unchanged(self):
        rng = np.random.default_rng(2)
        for bit in (0, 1):
            ref = fresh_qubit(Basis.Z, bit)
            strategy = attack("intercept_resend_z")
            strategy.tap_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, [ref], rng)
            assert z_value(ref) == bit

    def test_return_leg_untouched(self):
        rng = np.random.default_rng(3)
        ref = fresh_qubit(Basis.X, 0)
        attack("intercept_resend_z").tap_qubits(
            TapPoint.RETURN_TRENT_TO_ALICE, [ref], rng
        )
        assert equal_up_to_phase(ref.register.state, prepare_single(Basis.X, 0))


class TestUnitaryTamperThenUndo:
    def test_x_forward_flips(self):
        rng = np.random.default_rng(4)
        ref = fresh_qubit(Basis.Z, 0)
        attack("pauli_x_tamper").tap_qubits(
            TapPoint.FORWARD_ALICE_TO_TRENT, [ref], rng
        )
        assert equal_up_to_phase(ref.register.state, prepare_single(Basis.Z, 1))

    def test_forward_then_return_is_identity(self):
        rng = np.random.default_rng(5)
        for name in ("X", "Y", "Z", "H"):
            strategy = attack(f"unitary_tamper_then_undo:{name}")
            ref = fresh_qubit(Basis.X, 1)
            strategy.tap_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, [ref], rng)
            strategy.tap_qubits(TapPoint.RETURN_TRENT_TO_ALICE, [ref], rng)
            assert equal_up_to_phase(
                ref.register.state, prepare_single(Basis.X, 1)
            )

    def test_custom_matrix_accepted(self):
        theta = 0.3
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        strategy = QubitProbe("unitary_tamper_then_undo", rot)
        rng = np.random.default_rng(6)
        ref = fresh_qubit(Basis.Z, 0)
        strategy.tap_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, [ref], rng)
        strategy.tap_qubits(TapPoint.RETURN_TRENT_TO_ALICE, [ref], rng)
        assert equal_up_to_phase(ref.register.state, prepare_single(Basis.Z, 0))


class TestEntangleProbe:
    def test_probe_on_zero_gives_product_state(self):
        rng = np.random.default_rng(0)
        ref = fresh_qubit(Basis.Z, 0)
        strategy = attack("entangle_probe")
        strategy.tap_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, [ref], rng)
        np.testing.assert_allclose(
            ref.register.state.amplitudes, [1, 0, 0, 0], atol=1e-12
        )
        # Reading the ancilla on return leaves the product state as it was.
        strategy.tap_qubits(TapPoint.RETURN_TRENT_TO_ALICE, [ref], rng)
        np.testing.assert_allclose(
            ref.register.state.amplitudes, [1, 0, 0, 0], atol=1e-12
        )

    def test_probe_on_plus_creates_entangled_pair(self):
        rng = np.random.default_rng(0)
        ref = fresh_qubit(Basis.X, 0)
        strategy = attack("entangle_probe")
        strategy.tap_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, [ref], rng)
        np.testing.assert_allclose(
            ref.register.state.amplitudes,
            [SQRT2_INV, 0, 0, SQRT2_INV], atol=1e-12,
        )
        # Reading the ancilla on return collapses the pair to |00> or |11>.
        strategy.tap_qubits(TapPoint.RETURN_TRENT_TO_ALICE, [ref], rng)
        amps = np.abs(ref.register.state.amplitudes)
        assert any(np.allclose(amps, target, atol=1e-12)
                   for target in ([1, 0, 0, 0], [0, 0, 0, 1]))

    def test_probed_plus_fails_x_recheck_half_the_time(self):
        rng = np.random.default_rng(7)
        alice = quantum_party("alice")
        trials = 2000
        errors = 0
        for _ in range(trials):
            ref = fresh_qubit(Basis.X, 0)
            strategy = attack("entangle_probe")
            strategy.tap_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, [ref], rng)
            strategy.tap_qubits(TapPoint.RETURN_TRENT_TO_ALICE, [ref], rng)
            errors += alice.measure([ref], [Basis.X], rng) != b"\x00"
        assert abs(errors / trials - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_immediate_measure_time(self):
        rng = np.random.default_rng(8)
        strategy = attack("entangle_probe:immediate")
        ref = fresh_qubit(Basis.Z, 1)
        strategy.tap_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, [ref], rng)
        assert z_value(ref) == 1  # read at once: no ancilla, |1> kept

    def test_bad_measure_time_rejected(self):
        with pytest.raises(ValueError):
            QubitProbe("entangle_probe", "whenever")

    def test_non_unitary_matrix_rejected_when_built(self):
        with pytest.raises(NonUnitaryError):
            QubitProbe("unitary_tamper_then_undo", np.array([[1, 1], [0, 1]]))
        with pytest.raises(NonUnitaryError):
            QubitProbe("unitary_tamper_then_undo", np.eye(2) * (1 + 2e-6))

    def test_matrix_whose_undo_fails_the_check_rejected_when_built(self):
        # u passes the entrywise check and u-dagger does not, so the undo is
        # refused when the probe is built, not on its first return tap
        # (where a direct_reflection round used to raise NonUnitaryError).
        u = np.array([
            [-0.44754781686863204 - 0.7519717425177289j, 0.3117910406015707 - 0.37016995700142535j],
            [0.36322925860984406 - 0.3198498957295838j, -0.7616246184270078 - 0.43091587417139693j],
        ])
        Gate(u)
        with pytest.raises(NonUnitaryError):
            Gate(u.conj().T)
        with pytest.raises(NonUnitaryError):
            QubitProbe("unitary_tamper_then_undo", u)

    def test_named_unitary_is_its_own_undo(self):
        for name, gate in GATES.items():
            probe = QubitProbe("unitary_tamper_then_undo", name)
            assert probe.u is probe.undo is gate
            rows = np.array(gate.rows)
            assert (rows.conj().T == rows).all()  # entry for entry

    def test_wrong_size_matrix_rejected_when_built(self):
        with pytest.raises(DimensionMismatchError):
            QubitProbe("unitary_tamper_then_undo", np.eye(4))

    def test_ancilla_budget_enforced(self):
        ref = fresh_qubit(Basis.Z, 0)
        attach_ancilla(ref)
        attach_ancilla(ref)
        attach_ancilla(ref)
        with pytest.raises(RegisterSizeError):
            attach_ancilla(ref)


class TestOneDrawPerTap:
    # A tap's reads take their uniforms from one rng.random(k) call, which
    # gives the values and generator state of k scalar draws.
    PREPARED = [(Basis.X, 0), (Basis.X, 1), (Basis.Z, 1), (Basis.X, 0), (Basis.Z, 0)]

    @pytest.mark.parametrize("seed", range(8))
    def test_intercept_forward_tap_equals_scalar_draws(self, seed):
        tapped = [fresh_qubit(b, v) for b, v in self.PREPARED]
        rng = np.random.default_rng(seed)
        attack("intercept_resend_z").tap_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, tapped, rng)
        scalar = np.random.default_rng(seed)
        read = [fresh_qubit(b, v) for b, v in self.PREPARED]
        for ref in read:
            measure_qubit(ref, Basis.Z, scalar.random())
        assert [r.register.state.amps for r in tapped] == [r.register.state.amps for r in read]
        assert rng.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("seed", range(8))
    def test_probe_ancilla_reads_equal_scalar_draws(self, seed):
        tapped = [fresh_qubit(b, v) for b, v in self.PREPARED]
        rng = np.random.default_rng(seed)
        probe = attack("entangle_probe")
        probe.tap_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, tapped, rng)
        probe.tap_qubits(TapPoint.RETURN_TRENT_TO_ALICE, tapped, rng)
        assert probe.pending == []
        scalar = np.random.default_rng(seed)
        read = [fresh_qubit(b, v) for b, v in self.PREPARED]
        ancillas = []
        for ref in read:
            ancillas.append(attach_ancilla(ref))
            probe_cnot(ref, ancillas[-1])
        for ancilla in ancillas:
            measure_qubit(ancilla, Basis.Z, scalar.random())
        assert [r.register.state.amps for r in tapped] == [r.register.state.amps for r in read]
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
        [t_half], [b_half] = alice.prepare_bell_pair((0,))
        TamperSignatureB([0]).tap_qubits(
            TapPoint.ALICE_TO_BOB_QUANTUM, [b_half], rng
        )
        assert equal_up_to_phase(b_half.register.state, prepare_bell(1))

    def test_out_of_range_position_rejected(self):
        with pytest.raises(IndexError):
            TamperSignatureB([0]).tap_qubits(
                TapPoint.ALICE_TO_BOB_QUANTUM, [], np.random.default_rng(0)
            )


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
            for ref in self.stashed:
                apply_gate(ref, GATES["X"])
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
            for ancilla in self.ancillas:
                apply_gate(ancilla, GATES["X"])
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

    def test_joined_lent_refs_are_revoked(self):
        # A list joined from slices of the lent refs holds the same refs.
        strategy = StashForwardRefs(keep=lambda refs: refs[1:] + refs[:1])
        channel = Channel(strategy)
        refs = [fresh_qubit(Basis.Z, 0), fresh_qubit(Basis.Z, 1)]
        received = channel.send_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, refs,
                                       np.random.default_rng(0))
        for ref in strategy.stashed:
            with pytest.raises(RevokedHandleError):
                measure_qubit(ref, Basis.Z, 0.5)
        # The sender's refs and the refs the receiver got stay usable.
        assert [measure_qubit(ref, Basis.Z, 0.5) for ref in refs] == [0, 1]
        assert [z_value(ref) for ref in received] == [0, 1]

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
    """Hand the lent refs back in reverse order, followed by `extra`."""

    kind = "return_reversed"

    def __init__(self, extra=()):
        self.extra = list(extra)

    def tap_qubits(self, point, refs, rng):
        return list(refs)[::-1] + self.extra


class TestLentRefsReturn:
    def test_reversed_lent_refs_come_back_as_the_callers_refs(self):
        refs = [fresh_qubit(Basis.Z, bit) for bit in (0, 1, 1)]
        received = Channel(ReturnReversed()).send_qubits(
            TapPoint.FORWARD_ALICE_TO_TRENT, refs, np.random.default_rng(0))
        assert len(received) == 3
        assert all(got is own for got, own in zip(received, refs[::-1]))

    def test_a_ref_that_was_not_lent_comes_back_as_it_is(self):
        own = fresh_qubit(Basis.X, 0)
        refs = [fresh_qubit(Basis.Z, 0), fresh_qubit(Basis.Z, 1)]
        received = Channel(ReturnReversed([own])).send_qubits(
            TapPoint.FORWARD_ALICE_TO_TRENT, refs, np.random.default_rng(0))
        assert [id(r) for r in received] == [id(refs[1]), id(refs[0]), id(own)]
        assert [z_value(r) for r in received[:2]] == [1, 0]


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
        channel = Channel(strategy)
        refs = [fresh_qubit(Basis.Z, bit) for bit in (0, 1, 1)]
        rng = np.random.default_rng(0)
        forward = channel.send_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, refs, rng)
        channel.send_qubits(TapPoint.RETURN_TRENT_TO_ALICE, forward, rng)
        lent_forward, lent_return = (strategy.views[point] for point in (
            TapPoint.FORWARD_ALICE_TO_TRENT, TapPoint.RETURN_TRENT_TO_ALICE))
        for views in (lent_forward, lent_return):
            first = views[0]
            assert len(first) == 3
            assert all(len(view) == 3 and all(map(operator.is_, view, first))
                       for view in views)
            assert not any(lent is own for lent in first for own in refs)
        # A new tap lends new refs; the caller's come back as they were.
        assert not any(a is b for a in lent_forward[0] for b in lent_return[0])
        assert all(map(operator.is_, forward, refs))
        for ref in lent_forward[0]:
            with pytest.raises(RevokedHandleError):
                measure_qubit(ref, Basis.Z, rng.random())

    def test_a_tap_that_reads_no_ref_builds_none(self):
        lent = []
        refs = [fresh_qubit(Basis.X, 0), fresh_qubit(Basis.Z, 1)]
        out = _lend(refs, lambda refs: lent.append(refs) or refs)
        assert out == refs and all(map(operator.is_, out, refs))
        assert len(lent[0]) == 2 and lent[0].issued is None


class TestChannel:
    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            Channel(NoAttack(), noise_p=1.0)

    def test_transcript_records_order(self):
        rng = np.random.default_rng(17)
        transcript: list = []
        channel = Channel(NoAttack(), transcript=transcript)
        ref = fresh_qubit(Basis.Z, 0)
        channel.send_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, [ref], rng)
        channel.send_classical(
            TapPoint.FORWARD_ALICE_TO_TRENT, "loc_z", (1, 0), rng
        )
        assert [ev["event"] for ev in transcript] == ["quantum_send", "classical"]
        assert transcript[1]["bits"] == "10"

    def test_disabled_transcript_stays_none(self):
        rng = np.random.default_rng(18)
        channel = Channel(NoAttack(), transcript=None)
        channel.send_classical(TapPoint.FORWARD_ALICE_TO_TRENT, "x", (1,), rng)
        assert channel.transcript is None

    def test_noise_flips_eigenstates(self):
        # Depolarizing: X or Y flips a Z eigenstate, Z does not, so the
        # flip probability per transit is 2p/3.
        rng = np.random.default_rng(19)
        p = 0.3
        channel = Channel(NoAttack(), noise_p=p, transcript=None)
        trials = 4000
        flips = 0
        for _ in range(trials):
            ref = fresh_qubit(Basis.Z, 0)
            channel.send_qubits(TapPoint.FORWARD_ALICE_TO_TRENT, [ref], rng)
            flips += equal_up_to_phase(
                ref.register.state, prepare_single(Basis.Z, 1)
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
        monkeypatch.setattr(adversary, "apply_gate",
                            lambda ref, gate: hits.append((ref, gate)))
        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        refs = [fresh_qubit(Basis.Z, 0) for _ in range(k)]
        Channel(NoAttack(), noise_p=p).send_qubits(
            TapPoint.FORWARD_ALICE_TO_TRENT, refs, rng)
        paulis = (GATES["X"], GATES["Y"], GATES["Z"])
        assert hits == [(ref, paulis[int(3 * u / p)])
                        for ref, u in zip(refs, clone.random(k).tolist()) if u < p]
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
        monkeypatch.setattr(adversary, "apply_gate",
                            lambda ref, gate: hits.append(gate))
        Channel(NoAttack(), noise_p=p).send_qubits(
            TapPoint.FORWARD_ALICE_TO_TRENT, [fresh_qubit(Basis.Z, 0)], JustBelow())
        assert hits == [GATES["Z"]]
