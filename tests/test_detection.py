"""Decoy construction, wire encodings, and detection-round tests.

A decoy record is its 18-bit LOC field, position << 2 | basis bit (X = 1)
<< 1 | value. An announcement travels as a tuple of its int fields (18-bit
LOC records, 16-bit permutation entries; a list of ciphertext fields
under inline OTP); every other classical payload is bytes with one 0/1
byte per bit.
"""

import copy
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqsig.detection as detection
from sqsig.adversary import AttackStrategy, Channel, NoAttack, TapPoint
from sqsig.detection import (
    MODE_SPECS,
    POSITION_FIELD_BITS,
    RECORD_BITS,
    DetectionMode,
    Verdict,
    assemble_transmission,
    build_decoys,
    decode_loc,
    decode_permutation,
    encode_loc,
    encode_permutation,
    run_detection_round,
)
from sqsig.harness import parse_attack, strategy_factory
from sqsig.keys import KeyStore, compute_g, keygen_init, otp_decrypt, otp_encrypt, random_bits
from sqsig.parties import classical_party, quantum_party
from sqsig.protocol import key_budget, run_protocol_round
from sqsig.quantum import Basis, measure
from sqsig.register import Slots
from sqsig.roles import alice_sign, bob_measure, hash_message, trent_receive


def attack(text):
    return strategy_factory(parse_attack(text))()


def run_round(mode, strategy, seed, n=2, d_z=2, d_x=2, message=None,
              threshold=0.0, transcript=None):
    """One signing plus detection round under the given mode and attack."""
    rng = np.random.default_rng(seed)
    message = message if message is not None else tuple(
        int(b) for b in rng.integers(0, 2, size=n)
    )
    store = keygen_init(key_budget(n, d_z, d_x, mode), rng)
    alice = quantum_party("alice")
    trent = classical_party("trent")
    slots = Slots()
    transmission, _ = alice_sign(slots, message, store, alice, rng, d_z=d_z, d_x=d_x)
    channel = Channel(strategy, slots, transcript=transcript)
    result = run_detection_round(
        mode, channel, transmission, threshold, alice, trent, store, rng
    )
    return result, transmission, alice, trent


def record(position, basis, bit):
    """The LOC field of one decoy."""
    return position << 2 | (basis is Basis.X) << 1 | bit


def basis_of(r):
    return Basis.X if r & 2 else Basis.Z


def z_records(transmission):
    """The sender's Z-decoy records, as the honest loc_z announcement lists them."""
    return [r for r in transmission.records if basis_of(r) is Basis.Z]


def split_sequence(transmission):
    """(decoys in position order, carriers) of an assembled transmission."""
    positions = {r >> 2 for r in transmission.records}
    seq = transmission.sequence
    return ([seq[p] for p in sorted(positions)],
            [ref for p, ref in enumerate(seq) if p not in positions])


def unplaced(basis, bit, count):
    """Sender records for `count` decoys not yet given a position."""
    return [record(0, basis, bit)] * count


# The field width of each announcement wire; every other wire carries bits.
WIDTHS = {
    **dict.fromkeys(("loc_z", "decoy_positions_x", "decoy_positions_z",
                     "decoy_positions", "loc_ciphertext"), RECORD_BITS),
    **dict.fromkeys(("permutation", "perm_ciphertext"), POSITION_FIELD_BITS),
}

# Each announcement wire, in the mode that sends it.
ANNOUNCEMENT_WIRES = [
    (DetectionMode.IMPROVED, "loc_z"),
    (DetectionMode.IMPROVED, "decoy_positions_x"),
    (DetectionMode.IMPROVED, "permutation"),
    (DetectionMode.MEASURE_THEN_RETURN, "decoy_positions_z"),
    (DetectionMode.DIRECT_REFLECTION, "decoy_positions"),
    (DetectionMode.IMPROVED_INLINE_OTP, "loc_ciphertext"),
    (DetectionMode.IMPROVED_INLINE_OTP, "perm_ciphertext"),
]


def reference_field(value, width):
    """`value` as `width` bits, most significant first, one shift at a time."""
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def width_of(wire):
    return WIDTHS.get(wire, 1)


def reference_bits(fields, width):
    """The fields as one bit list, each through the reference codec."""
    return [b for f in fields for b in reference_field(f, width)]


def flip_bit(fields, width, j):
    """The fields with bit j of their big-endian bit string flipped."""
    fields = list(fields)
    fields[j // width] ^= 1 << (width - 1 - j % width)
    return fields


def transcript_fields(bits, width):
    """The fields a transcript's `bits` string spells, `width` digits each."""
    return [int(bits[i:i + width], 2) for i in range(0, len(bits), width)]


class FlipWireBit(AttackStrategy):
    """Flip bit `index` of the named wire, as its big-endian fields spell it;
    leave qubits alone."""

    kind = "flip_wire_bit"

    def __init__(self, wire, index):
        super().__init__()
        self.wire, self.index = wire, index

    def tap_classical(self, point, name, payload, rng):
        payload = super().tap_classical(point, name, payload, rng)
        if name == self.wire:
            payload = flip_bit(payload, width_of(name), self.index)
        return payload


class WriteWireValue(AttackStrategy):
    """Write `value`, which need not be a field, at `index` of the named wire."""

    kind = "write_wire_value"

    def __init__(self, wire, index, value):
        super().__init__()
        self.wire, self.index, self.value = wire, index, value

    def tap_classical(self, point, name, payload, rng):
        payload = super().tap_classical(point, name, payload, rng)
        if name == self.wire:
            # A tuple: the value need not fit in a byte.
            payload = (*payload[:self.index], self.value, *payload[self.index + 1:])
        return payload


class ResizeWire(AttackStrategy):
    """Append `delta` 0 fields to the named wire, or drop the last -delta."""

    kind = "resize_wire"

    def __init__(self, wire, delta):
        super().__init__()
        self.wire, self.delta = wire, delta

    def tap_classical(self, point, name, payload, rng):
        payload = super().tap_classical(point, name, payload, rng)
        if name == self.wire:
            payload = list(payload)
            payload = payload + [0] * self.delta if self.delta > 0 else payload[:self.delta]
        return payload


class RecordWires(AttackStrategy):
    """Pass everything on, keeping the last payload of each classical wire."""

    kind = "record_wires"

    def __init__(self):
        super().__init__()
        self.seen = {}

    def tap_classical(self, point, name, payload, rng):
        self.seen[name] = list(payload)
        return payload


class ReplaceWire(AttackStrategy):
    """Replace the named announcement's payload with `payload`."""

    kind = "replace_wire"

    def __init__(self, wire, payload):
        super().__init__()
        self.wire, self.payload = wire, payload

    def tap_classical(self, point, name, bits, rng):
        bits = super().tap_classical(point, name, bits, rng)
        return self.payload if name == self.wire else bits


class WithholdReturnedDecoy(AttackStrategy):
    """Keep the last decoy of the return leg instead of passing it on."""

    kind = "withhold_returned_decoy"

    def tap_qubits(self, point, refs, rng):
        if point is TapPoint.RETURN_TRENT_TO_ALICE:
            return list(refs)[:-1]
        return list(refs)


class WithholdForwardQubit(AttackStrategy):
    """Keep the last qubit of the forward leg instead of passing it on."""

    kind = "withhold_forward_qubit"

    def tap_qubits(self, point, refs, rng):
        if point is TapPoint.FORWARD_ALICE_TO_TRENT:
            return list(refs)[:-1]
        return list(refs)


class TestBuildDecoys:
    def test_message_leads_z_decoys(self):
        rng = np.random.default_rng(2)
        alice = quantum_party("alice")
        slots = Slots()
        decoys, records = build_decoys(slots, 3, 2, (1, 0, 1), rng, alice)
        assert all(r >> 2 == 0 for r in records)  # no position yet
        z_bits = [r & 1 for r in records if basis_of(r) is Basis.Z]
        assert z_bits[:3] == [1, 0, 1]
        # Interleaving keeps the decoy order, so the message still leads
        # the Z-decoys once the records are in position order.
        carriers = alice.prepare(slots, bytes(3))
        tx = assemble_transmission(carriers, decoys, records, rng)
        positions = [r >> 2 for r in tx.records]
        assert positions == sorted(set(positions))
        assert [r & 3 for r in tx.records] == records
        assert [tx.sequence[p] for p in positions] == decoys
        assert [r & 1 for r in z_records(tx)][:3] == [1, 0, 1]

    def test_empty_decoy_set(self):
        decoys, records = build_decoys(
            Slots(), 0, 0, (), np.random.default_rng(0), quantum_party("alice")
        )
        assert decoys == [] and records == []

    def test_deterministic_draws(self):
        alice = quantum_party("alice")
        _, a = build_decoys(Slots(), 4, 4, (), np.random.default_rng(5), alice)
        _, b = build_decoys(Slots(), 4, 4, (), np.random.default_rng(5), alice)
        assert a == b

    def test_basis_counts(self):
        _, records = build_decoys(
            Slots(), 5, 3, (), np.random.default_rng(1), quantum_party("alice")
        )
        assert sum(basis_of(r) is Basis.Z for r in records) == 5
        assert sum(basis_of(r) is Basis.X for r in records) == 3

    def test_embedding_overflow_rejected(self):
        with pytest.raises(ValueError):
            build_decoys(Slots(), 2, 2, (1, 0, 1), np.random.default_rng(0),
                         quantum_party("alice"))


class TestInterleave:
    def test_no_decoys_identity(self):
        alice = quantum_party("alice")
        carriers = alice.prepare(Slots(), bytes(2))
        tx = assemble_transmission(carriers, [], [], np.random.default_rng(0))
        assert tx.sequence == carriers and tx.records == []

    def test_no_carriers(self):
        alice = quantum_party("alice")
        decoys = alice.prepare(Slots(), b"\x01" * 3)
        tx = assemble_transmission([], decoys, unplaced(Basis.Z, 1, 3),
                                   np.random.default_rng(0))
        assert tx.sequence == decoys
        assert tx.records == [record(p, Basis.Z, 1) for p in (0, 1, 2)]

    def test_partition_roundtrip(self):
        rng = np.random.default_rng(3)
        alice = quantum_party("alice")
        slots = Slots()
        for _ in range(20):
            carriers = alice.prepare(slots, bytes(4))
            decoys = alice.prepare(slots, b"\x02" * 3)
            tx = assemble_transmission(carriers, decoys, unplaced(Basis.X, 0, 3), rng)
            assert split_sequence(tx) == (decoys, carriers)

    def test_relative_orders_preserved(self):
        rng = np.random.default_rng(4)
        alice = quantum_party("alice")
        slots = Slots()
        carriers = alice.prepare(slots, bytes(3))
        decoys = alice.prepare(slots, b"\x01" * 3)
        tx = assemble_transmission(carriers, decoys, unplaced(Basis.Z, 1, 3), rng)
        decoy_pos = [r >> 2 for r in tx.records]
        assert decoy_pos == sorted(set(decoy_pos))
        carrier_pos = [p for p in range(6) if p not in decoy_pos]
        assert [tx.sequence[p] for p in carrier_pos] == carriers
        assert [tx.sequence[p] for p in decoy_pos] == decoys

    @pytest.mark.parametrize("seed", range(5))
    def test_positions_are_the_sorted_head_of_one_permutation(self, seed):
        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        tx = assemble_transmission(["c"] * 4, ["d"] * 3, [0] * 3, rng)
        assert [r >> 2 for r in tx.records] == sorted(clone.permutation(7)[:3].tolist())
        assert rng.bit_generator.state == clone.bit_generator.state

    @pytest.mark.parametrize("total", range(1, 7))
    def test_every_decoy_subset_equally_likely(self, total):
        # Fed each of the total! equally likely shuffles once, the
        # positions hit every d-subset equally often.
        class Replay:
            def shuffle(self, x):
                x[:] = next(perms)

        for d in range(total + 1):
            perms = itertools.permutations(range(total))
            counts = Counter(
                tuple(r >> 2 for r in assemble_transmission(
                    ["c"] * (total - d), ["d"] * d, [0] * d, Replay()).records)
                for _ in range(math.factorial(total))
            )
            assert sorted(counts) == list(itertools.combinations(range(total), d))
            assert set(counts.values()) == {math.factorial(d) * math.factorial(total - d)}


class TestShuffleStream:
    """The round's shuffles are `rng.shuffle` of a list of range(k); the
    random streams (rng_scheme 2) rest on that making the draws of
    `rng.permutation(k)`: the same order and the same generator state."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 32 + 5])
    def test_shuffle_of_a_list_is_permutation(self, seed):
        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        for k in range(301):
            order = list(range(k))
            rng.shuffle(order)
            assert order == clone.permutation(k).tolist()
            assert rng.bit_generator.state == clone.bit_generator.state


class TestWireEncodings:
    def test_loc_roundtrip(self):
        records = [record(7, Basis.Z, 0), record(0, Basis.Z, 1), record(3, Basis.X, 0)]
        # Encoded in position order; decoded as the fields on the wire.
        assert decode_loc(encode_loc(records)) == [
            record(0, Basis.Z, 1), record(3, Basis.X, 0), record(7, Basis.Z, 0),
        ]

    def test_loc_field_per_record(self):
        fields = encode_loc([record(5, Basis.X, 1)])
        assert type(fields) is tuple and fields == (5 << 2 | 2 | 1,)
        bits = reference_field(fields[0], RECORD_BITS)
        assert bits[:16] == [0] * 13 + [1, 0, 1]  # 5 big-endian
        assert bits[16] == 1  # X basis flag

    def test_values_withheld_option(self):
        [field] = encode_loc([record(2, Basis.X, 1)], include_values=False)
        assert field == record(2, Basis.X, 0)
        assert reference_field(field, RECORD_BITS)[17] == 0

    @pytest.mark.parametrize("item", [1 << RECORD_BITS, -1, 1.0, None, "1", True,
                                      np.int64(1)])
    def test_loc_item_not_a_field_rejected(self, item):
        with pytest.raises(ValueError):
            decode_loc([record(0, Basis.Z, 0), item])

    def test_permutation_roundtrip(self):
        assert decode_permutation(encode_permutation((2, 0, 1))) == (2, 0, 1)

    def test_permutation_entry_out_of_range_rejected(self):
        fields = encode_permutation((0, 1))
        # Rewrite the second entry to the value 7 (out of range for d=2).
        tampered = [*fields[:1], 7]
        # The codec reads the entry as sent; the round is what refuses it.
        assert decode_permutation(tampered) == (0, 7)
        for mode in (DetectionMode.IMPROVED, DetectionMode.MEASURE_THEN_RETURN):
            result, _, _, _ = run_round(
                mode, FlipWireBit("permutation", 0), seed=3, threshold=1.0
            )
            assert result.report.verdict is Verdict.ABORT
            assert result.carriers == [] and result.recovered_m is None

    @pytest.mark.parametrize("position",[1 << POSITION_FIELD_BITS, -1])
    def test_position_outside_field_rejected(self, position):
        # The encoders take the sender's fields as they are; a position
        # outside the 16-bit field, written onto a LOC record or a
        # permutation entry in transit, aborts the round at the receiver.
        for wire, value in (("loc_z", record(position, Basis.Z, 0)), ("permutation", position)):
            result, _, _, _ = run_round(
                DetectionMode.IMPROVED, WriteWireValue(wire, 0, value), seed=3, threshold=1.0
            )
            assert result.report.verdict is Verdict.ABORT
            assert result.carriers == [] and result.recovered_m is None

    def test_budget_helpers(self):
        # One 18-bit LOC record and one 16-bit permutation entry per decoy.
        assert key_budget(4, 3, 2, DetectionMode.IMPROVED_INLINE_OTP) == 4 + 34 * 5
        for mode in (DetectionMode.IMPROVED, DetectionMode.MEASURE_THEN_RETURN,
                     DetectionMode.DIRECT_REFLECTION):
            assert key_budget(4, 3, 2, mode) == 4
        # An honest inline round consumes exactly the budgeted key.
        result = run_protocol_round(
            message=(1, 0, 0, 1), mode=DetectionMode.IMPROVED_INLINE_OTP,
            strategy=NoAttack(), rng=np.random.default_rng(7), d_z=5, d_x=2,
        )
        assert result.accepted
        assert result.store.cursor == len(result.store.key_bits) == 4 + 34 * 7

    @given(st.permutations(list(range(6))))
    @settings(max_examples=40, deadline=None)
    def test_permutation_roundtrip_property(self, mapping):
        assert decode_permutation(encode_permutation(mapping)) == tuple(mapping)

    @given(st.one_of(st.binary(max_size=40), st.lists(st.integers(0, 1), max_size=40).map(bytes)),
           st.sampled_from([1, 16, 18]))
    @settings(max_examples=300, deadline=None)
    def test_bytes_are_fields_as_their_items_are(self, payload, width):
        # The one-pass answer for bytes is the generic rule's on their items.
        assert detection.is_fields(payload, width) == detection.is_fields(list(payload), width)
        assert detection.is_fields(payload, width) is (max(payload, default=0) < 1 << width)


records_strategy = st.lists(
    st.tuples(st.integers(0, (1 << POSITION_FIELD_BITS) - 1),
              st.sampled_from(list(Basis)), st.integers(0, 1)),
    max_size=40, unique_by=lambda t: t[0],
).map(lambda ts: [record(p, basis, bit) for p, basis, bit in ts])


# Items that are not a field of either width: not an int (bool and numpy
# integers included), negative, or too wide for an 18-bit record.
non_fields = st.one_of(
    st.none(), st.booleans(), st.floats(), st.complex_numbers(), st.text(max_size=3),
    st.binary(max_size=3), st.decimals(), st.fractions(),
    st.integers(max_value=-1), st.integers(min_value=1 << RECORD_BITS),
    st.integers(0, 3).map(np.int64), st.lists(st.integers(0, 1), max_size=2),
    st.tuples(st.integers(0, 3)),
)


class TestWireLayout:
    """The fields match the documented layout bit for bit: big-endian
    fields, 18 bits a LOC record (16-bit position, basis bit with X = 1,
    value bit, 0 when withheld) in position order, and 16 bits a
    permutation entry. The transcript spells each field in those bits, and
    the inline pad of a field is the bitwise pad of its bits."""

    @given(records_strategy, st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_loc_matches_reference_and_decodes_back(self, records, values, shuffler):
        shuffler.shuffle(records)
        expected = []
        for r in sorted(records):
            expected += reference_field(r >> 2, POSITION_FIELD_BITS)
            expected += [int(basis_of(r) is Basis.X), r & 1 if values else 0]
        fields = encode_loc(records, include_values=values)
        assert reference_bits(fields, RECORD_BITS) == expected
        assert decode_loc(fields) == [r if values else r & ~1 for r in sorted(records)]

    @given(st.lists(st.integers(0, (1 << POSITION_FIELD_BITS) - 1), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_permutation_matches_reference_and_decodes_back(self, mapping):
        expected = [bit for entry in mapping
                    for bit in reference_field(entry, POSITION_FIELD_BITS)]
        fields = encode_permutation(mapping)
        assert reference_bits(fields, POSITION_FIELD_BITS) == expected
        assert decode_permutation(fields) == tuple(mapping)

    @pytest.mark.parametrize("value", [-1, 1 << RECORD_BITS])
    def test_transcript_marks_an_int_outside_its_field(self, value):
        # An int a tap writes outside [0, 2**18) shows as 18 question marks,
        # so the wire keeps 18 characters a record.
        transcript = []
        result, transmission, _, _ = run_round(
            DetectionMode.IMPROVED, WriteWireValue("loc_z", 0, value), seed=3,
            transcript=transcript)
        assert result.report.verdict is Verdict.ABORT
        [bits] = [ev["bits"] for ev in transcript if ev.get("name") == "loc_z"]
        rest = reference_bits(z_records(transmission)[1:], RECORD_BITS)
        assert bits == "?" * RECORD_BITS + "".join(map(str, rest))
        assert len(bits) == 2 * RECORD_BITS

    @given(st.sampled_from(list(DetectionMode)), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_transcript_spells_each_field_in_reference_bits(self, mode, seed, n, d_z, d_x):
        # Every classical wire of the round, the bit wires included: its
        # transcript bits are the reference encoding of the fields sent.
        transcript = []
        recorder = RecordWires()
        d_z = max(d_z, n)
        result, transmission, _, _ = run_round(mode, recorder, seed, n=n, d_z=d_z,
                                               d_x=d_x, transcript=transcript)
        assert result.report.verdict is Verdict.CONTINUE
        wire = {ev["name"]: ev["bits"] for ev in transcript if ev["event"] == "classical"}
        assert set(wire) == set(recorder.seen)
        for name, fields in recorder.seen.items():
            assert wire[name] == "".join(map(str, reference_bits(fields, width_of(name))))
        # The plaintext LOC wires list the sender's records as documented.
        records = transmission.records
        z = [r for r in records if basis_of(r) is Basis.Z]
        x = [r & ~1 for r in records if basis_of(r) is Basis.X]
        expected = {
            DetectionMode.IMPROVED: {"loc_z": z, "decoy_positions_x": x},
            DetectionMode.MEASURE_THEN_RETURN: {
                "decoy_positions_z": [r & ~1 for r in z], "decoy_positions_x": x},
            DetectionMode.DIRECT_REFLECTION: {
                "decoy_positions": [r & ~1 for r in records]},
            DetectionMode.IMPROVED_INLINE_OTP: {},
        }[mode]
        assert {name: recorder.seen[name] for name in expected} == expected

    @given(st.sampled_from([POSITION_FIELD_BITS, RECORD_BITS]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_field_pad_is_the_bitwise_pad(self, width, data):
        fields = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))
        skip = data.draw(st.integers(0, 40))  # key bits an earlier segment used
        key = data.draw(st.lists(st.integers(0, 1), min_size=skip + width * len(fields),
                                 max_size=skip + width * len(fields)))
        store = KeyStore(key_bits=bytes(key))
        store.allocate("earlier", skip)
        cipher = otp_encrypt(store, "p", fields, width)
        assert reference_bits(cipher, width) == [
            b ^ k for b, k in zip(reference_bits(fields, width), key[skip:])]
        assert otp_decrypt(store, "p", cipher, width) == fields
        assert store.cursor == len(key)

    @given(st.sampled_from([POSITION_FIELD_BITS, RECORD_BITS]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_decode_refuses_an_item_that_is_not_a_field(self, width, data):
        fields = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=5))
        fields.insert(data.draw(st.integers(0, len(fields))), data.draw(st.one_of(
            non_fields, st.integers(1 << width, 1 << RECORD_BITS))))
        decode = decode_loc if width == RECORD_BITS else decode_permutation
        with pytest.raises(ValueError):
            decode(fields)

    @pytest.mark.parametrize("value", ["too_wide", -1, 1.0, None, "1", True, np.int64(1)])
    @pytest.mark.parametrize("mode, wire", ANNOUNCEMENT_WIRES)
    def test_item_other_than_a_field_aborts(self, mode, wire, value):
        # A wire entry one past the largest field, negative, or not an int
        # (a bool and a numpy integer included) aborts the round rather
        # than raising.
        if value == "too_wide":
            value = 1 << WIDTHS[wire]
        result, _, _, _ = run_round(
            mode, WriteWireValue(wire, 0, value), seed=3, threshold=1.0
        )
        assert result.report.verdict is Verdict.ABORT
        assert result.carriers == [] and result.recovered_m is None

    @given(st.sampled_from(ANNOUNCEMENT_WIRES), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_payload_with_a_non_field_aborts(self, mode_wire, whole, data):
        # Either one entry of the honest payload is overwritten, or the whole
        # payload is replaced by a sequence holding at least one non-field.
        # The round aborts whatever the threshold, and the transcript
        # renders every item the same way twice.
        mode, wire = mode_wire
        bad = data.draw(non_fields)
        if whole:
            items = data.draw(st.lists(st.one_of(non_fields, st.integers(0, 7)),
                                       max_size=4))
            items.insert(data.draw(st.integers(0, len(items))), bad)
            payload = data.draw(st.sampled_from([list, tuple]))(items)
            strategy = ReplaceWire(wire, payload)
        else:  # every announcement of this round holds at least two fields
            strategy = WriteWireValue(wire, data.draw(st.integers(0, 1)), bad)
        transcripts = []
        for _ in range(2):
            transcript = []
            result, _, _, _ = run_round(mode, strategy, seed=3, threshold=1.0,
                                        transcript=transcript)
            assert result.report.verdict is Verdict.ABORT
            assert result.carriers == [] and result.recovered_m is None
            transcripts.append(transcript)
        assert transcripts[0] == transcripts[1]


class CopyWires(AttackStrategy):
    """Run `inner`, then hand on an equal but new list or tuple on each of
    the named wires."""

    def __init__(self, inner, wires, make):
        super().__init__()
        self.inner, self.wires, self.make = inner, wires, make
        self.kind = inner.kind  # the transcripts name the inner attack
        self.copied = 0

    def tap_qubits(self, point, refs, rng):
        return self.inner.tap_qubits(point, refs, rng)

    def tap_classical(self, point, name, payload, rng):
        payload = self.inner.tap_classical(point, name, payload, rng)
        if name in self.wires:
            copy = self.make(payload)
            assert copy == self.make(list(payload))
            # An empty tuple is one object in CPython; any other copy is new.
            assert copy is not payload or not payload
            self.copied += 1
            return copy
        return payload


class TestOneCheckPerAnnouncement:
    @pytest.mark.parametrize("mode, widths", [
        (DetectionMode.IMPROVED, [RECORD_BITS, RECORD_BITS, POSITION_FIELD_BITS]),
        (DetectionMode.IMPROVED_INLINE_OTP, [RECORD_BITS, POSITION_FIELD_BITS]),
        (DetectionMode.DIRECT_REFLECTION, [RECORD_BITS]),
        (DetectionMode.MEASURE_THEN_RETURN, [RECORD_BITS, RECORD_BITS, POSITION_FIELD_BITS]),
    ])
    def test_each_announcement_is_checked_once(self, monkeypatch, mode, widths):
        # The receiver checks each payload that arrives, and nothing more:
        # under inline OTP the plaintext, the XOR of two fields, is not
        # checked again.
        checked, check = [], detection.is_fields
        monkeypatch.setattr(detection, "is_fields",
                            lambda items, width: checked.append(width) or check(items, width))
        result, _, _, _ = run_round(mode, NoAttack(), seed=3)
        assert result.report.verdict is Verdict.CONTINUE
        assert checked == widths


class TestUntouchedAnnouncements:
    """A receiver decodes whatever object arrives: an equal payload in a new
    list or tuple gives the same round as the very tuple the sender encoded."""

    @given(st.sampled_from(list(DetectionMode)),
           st.sampled_from(["none", "intercept_resend_z", "entangle_probe",
                            "pauli_x_tamper", "unitary_tamper_then_undo:H"]),
           st.sets(st.sampled_from(sorted(WIDTHS)), min_size=1),
           st.sampled_from([list, lambda fields: tuple(list(fields))]),
           st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(0, 3),
           st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 0.2]))
    @settings(max_examples=150, deadline=None)
    def test_an_equal_new_payload_gives_the_same_round(
            self, mode, attack_text, wires, make, seed, n, d_x, threshold, noise_p):
        def run(strategy):
            rng = np.random.default_rng(seed)
            result = run_protocol_round(
                message=random_bits(rng, n), mode=mode, strategy=strategy, rng=rng,
                d_z=n, d_x=d_x, threshold=threshold, noise_p=noise_p,
            )
            outcome = result.outcome
            return (result.aborted, outcome and (outcome.verdict, outcome.digest),
                    result.accepted, result.detection, result.transcript,
                    rng.bit_generator.state)

        copying = CopyWires(attack(attack_text), wires, make)
        assert run(copying) == run(attack(attack_text))
        if attack_text == "none" and noise_p == 0.0:  # every wire of the mode is sent
            spec = MODE_SPECS[mode]
            sent = {wire for wire, _, _ in spec.announcements}
            if spec.measures:
                sent.add("perm_ciphertext" if spec.encrypted else "permutation")
            assert copying.copied == len(sent & wires)


class TestChecks:
    def test_honest_receiver_check_clean(self):
        rng = np.random.default_rng(10)
        alice = quantum_party("alice")
        slots = Slots()
        tx, _ = alice_sign(slots, (1, 0), keygen_init(4, rng), alice, rng, d_z=3, d_x=3)
        z = z_records(tx)
        z_decoys = [tx.sequence[r >> 2] for r in z]
        assert classical_party("trent").measure(
            slots, z_decoys, bytes(len(z)), rng) == bytes(r & 1 for r in z)
        decoys, _ = split_sequence(tx)
        assert alice.measure(slots, decoys, bytes(r >> 1 & 1 for r in tx.records), rng) == bytes(
            r & 1 for r in tx.records)

    def test_bit_flip_on_every_qubit_all_errors(self):
        result, _, _, _ = run_round(DetectionMode.IMPROVED, attack("pauli_x_tamper"),
                                    seed=11, d_z=3, threshold=1.0)
        rep = result.report
        assert rep.bob_z_errors == rep.bob_z_checked == 3

    def test_z_measurement_attack_invisible_to_z_check(self):
        result, _, _, _ = run_round(DetectionMode.IMPROVED, attack("intercept_resend_z"),
                                    seed=12, d_z=3, threshold=1.0)
        rep = result.report
        assert (rep.bob_z_errors, rep.bob_z_checked) == (0, 3)

    def test_compare_disabled_counts_nothing(self):
        # The receiver of measure_then_return measures every Z-decoy (its
        # recovered message is the flipped one) but compares none of them.
        result, _, _, _ = run_round(DetectionMode.MEASURE_THEN_RETURN,
                                    attack("pauli_x_tamper"), seed=13,
                                    message=(1, 0))
        rep = result.report
        assert rep.bob_z_errors == rep.bob_z_checked == 0
        assert result.recovered_m == bytes((0, 1))


class TestRunDetectionRound:
    @pytest.mark.parametrize("mode", list(DetectionMode))
    def test_honest_round_continues_with_zero_errors(self, mode):
        result, _, _, _ = run_round(mode, NoAttack(), seed=20)
        rep = result.report
        assert rep.verdict is Verdict.CONTINUE
        assert rep.bob_z_errors == rep.alice_z_errors == rep.alice_x_errors == 0

    def test_improved_aborts_on_bit_flip_with_full_rate(self):
        result, _, _, _ = run_round(
            DetectionMode.IMPROVED, attack("pauli_x_tamper"), seed=21
        )
        rep = result.report
        assert rep.verdict is Verdict.ABORT
        assert rep.bob_z_errors == rep.bob_z_checked == 2

    def test_receiver_checks_the_announced_values(self):
        # The qubits arrive intact, but the first announced Z value is
        # flipped: the receiver compares against what it was told.
        result, _, _, _ = run_round(
            DetectionMode.IMPROVED, FlipWireBit("loc_z", RECORD_BITS - 1), seed=3
        )
        rep = result.report
        assert rep.bob_z_errors == 1
        assert rep.verdict is Verdict.ABORT

    @pytest.mark.parametrize("mode, wire, tamper", [
        (DetectionMode.IMPROVED, "loc_z", 0),  # position out of range
        (DetectionMode.IMPROVED, "loc_z", 15),  # position named twice
        (DetectionMode.IMPROVED, "permutation", 0),  # entry out of range
        # Flipping the low bit of the first of four entries repeats another.
        (DetectionMode.IMPROVED, "permutation", 15),
        (DetectionMode.MEASURE_THEN_RETURN, "permutation", 15),
        (DetectionMode.IMPROVED_INLINE_OTP, "perm_ciphertext", 15),
        (DetectionMode.IMPROVED, "permutation", "drop_entry"),  # wrong count
        (DetectionMode.MEASURE_THEN_RETURN, "permutation", "drop_entry"),
        (DetectionMode.IMPROVED_INLINE_OTP, "perm_ciphertext", "drop_entry"),
        (DetectionMode.DIRECT_REFLECTION, "decoy_positions", 0),
        (DetectionMode.IMPROVED_INLINE_OTP, "loc_ciphertext", 0),
    ])
    def test_tampered_announcement_aborts(self, mode, wire, tamper):
        # Threshold 1.0 lets no error rate abort: only the malformed
        # announcement itself can. A tamper is a bit to flip, or
        # "drop_entry" to announce one permutation entry too few.
        if tamper == "drop_entry":
            strategy = ResizeWire(wire, -1)
        else:
            strategy = FlipWireBit(wire, tamper)
        result, _, _, _ = run_round(mode, strategy, seed=3, threshold=1.0)
        assert result.report.verdict is Verdict.ABORT
        assert result.carriers == [] and result.recovered_m is None

    @pytest.mark.parametrize("mode, wire", [
        (DetectionMode.IMPROVED, "loc_z"),
        (DetectionMode.IMPROVED, "decoy_positions_x"),
        (DetectionMode.MEASURE_THEN_RETURN, "decoy_positions_z"),
    ])
    def test_record_in_the_other_basis_aborts(self, mode, wire):
        # Bit 16 is the basis bit of the first record: the wire now lists
        # a decoy in a basis it does not announce.
        for seed in range(200):
            result, _, _, _ = run_round(
                mode, FlipWireBit(wire, POSITION_FIELD_BITS), seed=seed, threshold=1.0
            )
            assert result.report.verdict is Verdict.ABORT, seed
            assert result.carriers == [] and result.recovered_m is None

    @pytest.mark.parametrize("grow", [False, True])
    @pytest.mark.parametrize("mode, wire", [
        (DetectionMode.IMPROVED, "loc_z"),
        (DetectionMode.IMPROVED, "decoy_positions_x"),
        (DetectionMode.IMPROVED, "permutation"),
        (DetectionMode.IMPROVED_INLINE_OTP, "loc_ciphertext"),
        (DetectionMode.IMPROVED_INLINE_OTP, "perm_ciphertext"),
        (DetectionMode.MEASURE_THEN_RETURN, "decoy_positions_z"),
        (DetectionMode.DIRECT_REFLECTION, "decoy_positions"),
    ])
    def test_resized_announcement_aborts(self, mode, wire, grow):
        # An announcement one field short or long does not decrypt, or names
        # a decoy too few or too many (an appended field names position 0
        # in the Z basis); the round aborts whatever the threshold.
        result, _, _, _ = run_round(
            mode, ResizeWire(wire, 1 if grow else -1), seed=3, threshold=1.0
        )
        assert result.report.verdict is Verdict.ABORT
        assert result.carriers == [] and result.recovered_m is None

    @pytest.mark.parametrize("mode", list(DetectionMode))
    def test_withheld_decoy_aborts(self, mode):
        result, _, _, _ = run_round(
            mode, WithholdReturnedDecoy(), seed=3, threshold=1.0
        )
        assert result.report.verdict is Verdict.ABORT

    def test_measure_then_return_misses_flip_then_unflip(self):
        result, _, _, _ = run_round(
            DetectionMode.MEASURE_THEN_RETURN, attack("pauli_x_tamper"), seed=22
        )
        assert result.report.verdict is Verdict.CONTINUE

    @pytest.mark.parametrize("u", ["X", "Z", "H"])
    def test_direct_reflection_misses_tamper_then_undo(self, u):
        result, _, _, _ = run_round(
            DetectionMode.DIRECT_REFLECTION,
            attack(f"unitary_tamper_then_undo:{u}"), seed=23,
        )
        rep = result.report
        assert rep.verdict is Verdict.CONTINUE
        assert rep.alice_z_errors == rep.alice_x_errors == 0

    def test_intercept_x_error_rate_half(self):
        # Z-measured |+>/|-> decoys fail Alice's X check half the time.
        errors = checked = 0
        for seed in range(300):
            result, _, _, _ = run_round(
                DetectionMode.IMPROVED, attack("intercept_resend_z"), seed=seed,
                n=1, d_z=1, d_x=2,
            )
            rep = result.report
            errors += rep.alice_x_errors
            checked += rep.alice_x_checked
            assert rep.bob_z_errors == 0
        rate = errors / checked
        assert abs(rate - 0.5) < 3 * np.sqrt(0.25 / checked)

    def test_recovered_message_in_measuring_modes(self):
        for mode in (DetectionMode.IMPROVED, DetectionMode.IMPROVED_INLINE_OTP,
                     DetectionMode.MEASURE_THEN_RETURN):
            result, _, _, _ = run_round(
                mode, NoAttack(), seed=24, n=3, d_z=3, d_x=3, message=(1, 1, 0)
            )
            assert result.recovered_m == bytes((1, 1, 0))

    def test_carriers_survive_detection(self):
        result, _, _, _ = run_round(DetectionMode.IMPROVED, NoAttack(),
                                    seed=25, n=4, d_z=4, d_x=4)
        assert len(result.carriers) == 4

    def test_threshold_tolerates_errors(self):
        # With threshold 1.0 even a full bit-flip round continues.
        result, _, _, _ = run_round(DetectionMode.IMPROVED, attack("pauli_x_tamper"),
                                    seed=26, threshold=1.0)
        assert result.report.verdict is Verdict.CONTINUE

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_honest_completeness_property(self, seed):
        for mode in (DetectionMode.IMPROVED, DetectionMode.DIRECT_REFLECTION):
            result, _, _, _ = run_round(mode, NoAttack(), seed=seed, n=1,
                                        d_z=1, d_x=1)
            assert result.report.verdict is Verdict.CONTINUE


class TestInlineAnnouncements:
    def _channel_round(self, seed):
        rng = np.random.default_rng(seed)
        n, d_z, d_x = 2, 2, 2
        mode = DetectionMode.IMPROVED_INLINE_OTP
        store = keygen_init(key_budget(n, d_z, d_x, mode), rng)
        alice = quantum_party("alice")
        trent = classical_party("trent")
        message = (1, 0)
        slots = Slots()
        transmission, _ = alice_sign(slots, message, store, alice, rng, d_z=d_z, d_x=d_x)
        transcript: list = []
        channel = Channel(NoAttack(), slots, transcript=transcript)
        result = run_detection_round(
            mode, channel, transmission, 0.0, alice, trent, store, rng
        )
        return result, transmission, store, transcript

    def test_announcements_are_ciphertext(self):
        result, transmission, store, transcript = self._channel_round(30)
        wire = {ev["name"]: ev["bits"] for ev in transcript
                if ev["event"] == "classical"}
        plain_loc = "".join(map(str, reference_bits(encode_loc(transmission.records),
                                                    RECORD_BITS)))
        assert wire["loc_ciphertext"] != plain_loc
        seg = store.find("loc_announce")
        assert seg is not None and seg.stop - seg.start == len(plain_loc)

    def test_permutation_announcement_encrypted_and_consumed(self):
        result, _, store, transcript = self._channel_round(31)
        assert result.report.verdict is Verdict.CONTINUE
        seg = store.find("perm_announce")
        assert seg is not None
        ranges = sorted((s.start, s.stop) for s in store.segments)
        for (a_start, a_stop), (b_start, b_stop) in zip(ranges, ranges[1:]):
            assert a_stop <= b_start  # pairwise disjoint

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ciphertext_is_the_bitwise_pad_of_the_reference_bits(self, seed):
        result, transmission, store, transcript = self._channel_round(seed)
        assert result.report.verdict is Verdict.CONTINUE
        wire = {ev["name"]: ev["bits"] for ev in transcript
                if ev["event"] == "classical"}

        def plain_bits(name, purpose):
            seg = store.find(purpose)
            key = store.key_bits[seg.start:seg.stop]
            assert len(wire[name]) == len(key)
            return [int(c) ^ k for c, k in zip(wire[name], key)]

        plain_loc = plain_bits("loc_ciphertext", "loc_announce")
        assert plain_loc == reference_bits(sorted(transmission.records), RECORD_BITS)
        # The receiver's shuffle is its own draw: the pad must uncover a
        # bijection over the four decoys, spelled in reference bits.
        plain_perm = plain_bits("perm_ciphertext", "perm_announce")
        mapping = transcript_fields("".join(map(str, plain_perm)), POSITION_FIELD_BITS)
        assert sorted(mapping) == [0, 1, 2, 3]
        assert plain_perm == reference_bits(mapping, POSITION_FIELD_BITS)

    def test_ciphertext_bit_flip_never_silently_valid(self):
        # Flipping a wire bit changes the mapping; it can never decode
        # back to the original permutation.
        mapping = (1, 2, 0)
        fields = encode_permutation(mapping)
        for i in range(POSITION_FIELD_BITS * len(fields)):
            tampered = flip_bit(fields, POSITION_FIELD_BITS, i)
            assert decode_permutation(tampered) != mapping


class TestAliceFinalCheck:
    def test_shuffled_return_restores_and_passes(self):
        transcript: list = []
        result, _, _, _ = run_round(DetectionMode.IMPROVED, NoAttack(), seed=40,
                                    d_z=4, d_x=4, transcript=transcript)
        wire = next(ev["bits"] for ev in transcript if ev.get("name") == "permutation")
        mapping = decode_permutation(transcript_fields(wire, POSITION_FIELD_BITS))
        assert mapping != tuple(range(8))  # the receiver did shuffle
        rep = result.report
        assert rep.verdict is Verdict.CONTINUE
        assert (rep.alice_z_errors, rep.alice_z_checked,
                rep.alice_x_errors, rep.alice_x_checked) == (0, 4, 0, 4)


def advanced(seed, k):
    """The state of a fresh generator on `seed` after k scalar uniforms."""
    rng = np.random.default_rng(seed)
    for _ in range(k):
        rng.random()
    return rng.bit_generator.state


def signed_round(seed):
    """Alice's signature on three bits, with four Z- and three X-decoys."""
    rng = np.random.default_rng(seed)
    alice = quantum_party("alice")
    store = keygen_init(12, rng)
    slots = Slots()
    transmission, b_halves = alice_sign(slots, (1, 0, 1), store, alice, rng, d_z=4, d_x=3)
    return alice, store, slots, transmission, b_halves


def scalar_reads(slots, handles, bases, rng):
    """One quantum.measure a qubit, in order, each with one scalar draw."""
    bits = bytearray()
    for handle, basis in zip(handles, bases):
        s = handle >> 2
        bit, slots.states[s] = measure(slots.states[s], handle & 3, basis, rng.random())
        bits.append(bit)
    return bytes(bits)


class TestOneDrawPerStage:
    """Each stage that measures k qubits back to back takes k uniforms,
    and they give the bits that k scalar draws give."""

    @pytest.mark.parametrize("seed", range(6))
    def test_receiver_checks_take_one_uniform_per_qubit(self, seed):
        def measured(read):
            # Each decoy in the other basis, so each bit is a fresh coin.
            alice, _, slots, transmission, _ = signed_round(seed)
            decoys, _ = split_sequence(transmission)
            return read(alice, slots, decoys,
                        [basis_of(r ^ 2) for r in transmission.records])

        stage = np.random.default_rng(100 + seed)
        bits = measured(lambda party, slots, handles, bases: party.measure(
            slots, handles, bytes(b is Basis.X for b in bases), stage))
        assert stage.bit_generator.state == advanced(100 + seed, 7)
        scalar = np.random.default_rng(100 + seed)
        assert bits == measured(lambda party, slots, handles, bases: scalar_reads(
            slots, handles, bases, scalar))

    @pytest.mark.parametrize("seed", range(6))
    def test_bell_half_stages_match_scalar_draws(self, seed):
        m = (1, 0, 1)
        _, store, slots, transmission, b_halves = signed_round(seed)
        _, carriers = split_sequence(transmission)
        stage = np.random.default_rng(300 + seed)
        t_bits, _ = trent_receive(slots, carriers, m, store, classical_party("trent"), stage)
        b_bits = bob_measure(slots, b_halves, classical_party("bob"), stage)
        assert stage.bit_generator.state == advanced(300 + seed, 6)
        # The same round, measured one scalar draw at a time.
        _, store, slots, transmission, b_halves = signed_round(seed)
        _, carriers = split_sequence(transmission)
        scalar = np.random.default_rng(300 + seed)
        z = [Basis.Z] * 3
        assert t_bits == scalar_reads(slots, carriers, z, scalar)
        assert b_bits == scalar_reads(slots, b_halves, z, scalar)
        assert bytes(t ^ b for t, b in zip(t_bits, b_bits)) == compute_g(m, store)


class TestWrongLengthClassicalMessage:
    @pytest.mark.parametrize("grow", [False, True])
    @pytest.mark.parametrize("mode, wire", [
        (DetectionMode.IMPROVED, "b_string"),
        (DetectionMode.DIRECT_REFLECTION, "message_to_trent"),
    ])
    def test_trent_says_no(self, mode, wire, grow):
        # A message or B string one bit short or long cannot verify: the
        # round completes with Trent's No, and Bob rejects.
        result = run_protocol_round(
            message=(1, 0), mode=mode, strategy=ResizeWire(wire, 1 if grow else -1),
            rng=np.random.default_rng(3), d_z=2, d_x=2,
        )
        assert not result.aborted
        assert result.outcome.verdict is False
        assert not result.accepted

    @pytest.mark.parametrize("value", [2, -1, 256])
    @pytest.mark.parametrize("mode, wire", [
        *((mode, wire) for wire in ("message", "b_string") for mode in DetectionMode),
        (DetectionMode.DIRECT_REFLECTION, "message_to_trent"),
    ])
    def test_value_other_than_a_bit_gives_no(self, mode, wire, value):
        # A message wire is not an announcement: a value that is not a bit
        # leaves the round to complete. Trent, who never reads `message`,
        # says Yes on it and Bob's digest check rejects; on the B string
        # and on the message to Trent, Trent says No.
        result = run_protocol_round(
            message=(1, 0), mode=mode, strategy=WriteWireValue(wire, 0, value),
            rng=np.random.default_rng(3), d_z=2, d_x=2,
        )
        assert not result.aborted
        assert result.outcome.verdict is (wire == "message")
        assert not result.accepted

    @pytest.mark.parametrize("value", [1.0, 0.0, None, "1", True, np.int64(1), 2, -1])
    @pytest.mark.parametrize("mode, wire", [
        *((mode, wire) for wire in ("message", "b_string") for mode in DetectionMode),
        (DetectionMode.DIRECT_REFLECTION, "message_to_trent"),
    ])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_item_not_an_int_bit_gives_no(self, mode, wire, value, seed):
        # One rule for every bit wire: an item counts only as an int 0 or 1,
        # not as a bool, a float or a numpy integer, whatever it equals. The
        # round completes; Trent says No on the B string and on the message
        # to Trent, and Bob refuses such a message.
        result = run_protocol_round(
            message=(1, 0), mode=mode, strategy=WriteWireValue(wire, 0, value),
            rng=np.random.default_rng(seed), d_z=2, d_x=2,
        )
        assert not result.aborted
        assert result.outcome.verdict is (wire == "message")
        assert not result.accepted

    @pytest.mark.parametrize("mode", list(DetectionMode))
    def test_one_value_spelling_the_message_is_rejected(self, mode):
        # The digest hashes the decimal text of each value, so (101,) hashes
        # as (1, 0, 1) does. Trent, who never reads `message`, says Yes; Bob
        # refuses a message that is not a bit string before hashing it.
        result = run_protocol_round(
            message=(1, 0, 1), mode=mode, strategy=ReplaceWire("message", (101,)),
            rng=np.random.default_rng(3), d_z=3, d_x=3,
        )
        assert not result.aborted
        assert result.outcome.verdict is True
        assert hash_message((101,)) == result.outcome.digest
        assert not result.accepted

    def test_missing_carrier_gives_no(self):
        # The first seed whose announced decoy positions leave the last of
        # the 6 qubits a carrier: withholding it keeps every decoy, so the
        # decoy checks pass and Trent measures one T bit too few.
        for seed in range(50):
            result = run_protocol_round(
                message=(1, 0), mode=DetectionMode.DIRECT_REFLECTION,
                strategy=WithholdForwardQubit(), rng=np.random.default_rng(seed),
                d_z=2, d_x=2,
            )
            [announced] = [ev["bits"] for ev in result.transcript
                           if ev.get("name") == "decoy_positions"]
            positions = {r >> 2 for r in decode_loc(transcript_fields(announced,
                                                                      RECORD_BITS))}
            if 5 not in positions:
                break
        assert len(positions) == 4 and 5 not in positions
        assert not result.aborted
        assert result.outcome.verdict is False
        assert not result.accepted
