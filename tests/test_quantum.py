"""Tests for the dense state-vector core.

Oracles here are independent of the code paths under test: full
Kronecker-expanded matrices for unitaries, eigenvalue arithmetic for
trace distance, and exact Born probabilities computed straight from
amplitudes for the frequency checks.
"""

import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import sqsig.quantum as quantum
import sqsig.register as register
from sqsig.adversary import QubitProbe
from sqsig.detection import DetectionMode
from sqsig.harness import run_matrix
from sqsig.protocol import run_protocol_round
from sqsig.quantum import (
    CNOT,
    GATES,
    HADAMARD,
    MAX_REGISTER_QUBITS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Basis,
    DensityMatrix,
    DimensionMismatchError,
    Gate,
    NonUnitaryError,
    RegisterSizeError,
    StateVector,
    UNITARY_ATOL,
    append_ancilla,
    apply_unitary,
    cnot,
    equal_up_to_phase,
    fidelity,
    measure,
    measure_stage,
    measurement_branches,
    partial_trace,
    prepare_bell,
    prepare_single,
    tensor,
    trace_distance,
    _BELL,
    _X_STATES,
    _Z_STATES,
    _apply_gate_unchecked,
    _p0,
)
from sqsig.register import Slots, _lend, attach_ancilla, probe_cnot

SQRT2_INV = 1.0 / np.sqrt(2.0)
I2 = np.eye(2, dtype=complex)


def kron_expand(u: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Oracle: full 2^n x 2^n matrix for u on targets, identity elsewhere.

    Built by summing outer products over the computational basis, which
    shares no code with the index-table kernel in apply_unitary.
    """
    dim = 2 ** n
    full = np.zeros((dim, dim), dtype=complex)
    k = len(targets)
    for col in range(dim):
        col_bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_col = 0
        for t in targets:
            sub_col = (sub_col << 1) | col_bits[t]
        for sub_row in range(2 ** k):
            amp = u[sub_row, sub_col]
            if amp == 0:
                continue
            row_bits = list(col_bits)
            for j, t in enumerate(targets):
                row_bits[t] = (sub_row >> (k - 1 - j)) & 1
            row = 0
            for b in row_bits:
                row = (row << 1) | b
            full[row, col] += amp
    return full


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Q of the QR decomposition of a complex Gaussian matrix."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(raw)
    return q


def random_state(rng: np.random.Generator, n: int) -> StateVector:
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps /= np.linalg.norm(amps)
    return StateVector(amps)


class TestPreparation:
    def test_z_zero(self):
        np.testing.assert_allclose(
            prepare_single(Basis.Z, 0).amplitudes, [1, 0], atol=1e-15
        )

    def test_z_one(self):
        np.testing.assert_allclose(
            prepare_single(Basis.Z, 1).amplitudes, [0, 1], atol=1e-15
        )

    def test_x_plus(self):
        np.testing.assert_allclose(
            prepare_single(Basis.X, 0).amplitudes,
            [SQRT2_INV, SQRT2_INV], atol=1e-15,
        )

    def test_x_minus(self):
        np.testing.assert_allclose(
            prepare_single(Basis.X, 1).amplitudes,
            [SQRT2_INV, -SQRT2_INV], atol=1e-15,
        )

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            prepare_single(Basis.Z, 2)

    def test_bell_zero_amplitudes(self):
        np.testing.assert_allclose(
            prepare_bell(0).amplitudes, [SQRT2_INV, 0, 0, SQRT2_INV], atol=1e-15
        )

    def test_bell_one_amplitudes(self):
        np.testing.assert_allclose(
            prepare_bell(1).amplitudes, [0, SQRT2_INV, SQRT2_INV, 0], atol=1e-15
        )

    def test_writing_into_returned_arrays_changes_no_state(self):
        # Preparations, Bell states and 1-qubit post-states are shared, so
        # a write into any array they hand out must not reach the state.
        rng = np.random.default_rng(0)
        prepare_single(Basis.Z, 0).amplitudes[:] = [0, 1]
        prepare_single(Basis.X, 1).amplitudes[:] = [1, 0]
        prepare_bell(0).amplitudes[:] = [0, 1, 0, 0]
        for state in (prepare_single(Basis.X, 0), prepare_bell(1)):
            measure(state, 0, Basis.Z, rng.random()).post_state.amplitudes[:] = 0.5
        np.testing.assert_array_equal(prepare_single(Basis.Z, 0).amplitudes, [1, 0])
        np.testing.assert_array_equal(prepare_single(Basis.Z, 1).amplitudes, [0, 1])
        np.testing.assert_array_equal(
            prepare_single(Basis.X, 1).amplitudes, [SQRT2_INV, -SQRT2_INV])
        np.testing.assert_array_equal(
            prepare_bell(0).amplitudes, [SQRT2_INV, 0, 0, SQRT2_INV])
        np.testing.assert_array_equal(
            prepare_bell(1).amplitudes, [0, SQRT2_INV, SQRT2_INV, 0])
        for bit in (0, 1):
            assert measure(prepare_single(Basis.Z, bit), 0, Basis.Z, rng.random()).bit == bit

    def test_all_preparations_normalized(self):
        for basis in (Basis.Z, Basis.X):
            for bit in (0, 1):
                assert abs(prepare_single(basis, bit).norm() - 1.0) < 1e-12
        for g in (0, 1):
            assert abs(prepare_bell(g).norm() - 1.0) < 1e-12


class TestStateVectorValidation:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 1.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatchError):
            StateVector([1.0, 0.0, 0.0])

    def test_register_cap(self):
        with pytest.raises(RegisterSizeError):
            StateVector(np.zeros(32))

    @pytest.mark.parametrize("amps", [
        [np.nan, 0.0], [np.nan, 0.0, 0.0, 0.0], [1.0, np.nan], [np.inf, 0.0],
    ])
    def test_non_finite_amplitudes_rejected(self, amps):
        with pytest.raises(ValueError):
            StateVector(amps)

    def test_amplitudes_are_python_complex(self):
        for amps in ([1, 0], np.array([0.6, 0.8j]), (SQRT2_INV, 0, 0, SQRT2_INV)):
            state = StateVector(amps)
            assert type(state.amps) is tuple
            assert all(type(a) is complex for a in state.amps)
            np.testing.assert_array_equal(state.amplitudes, np.asarray(amps, dtype=complex))

    def test_non_square_density_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(2, 4, dtype=complex) / 2).validate()


class TestApplyUnitary:
    def test_x_flips_zero(self):
        out = apply_unitary(prepare_single(Basis.Z, 0), GATES["X"], (0,))
        assert equal_up_to_phase(out, prepare_single(Basis.Z, 1))

    def test_x_on_bob_half_toggles_bell(self):
        out = apply_unitary(prepare_bell(0), GATES["X"], (1,))
        assert equal_up_to_phase(out, prepare_bell(1))

    def test_x_fixes_plus_up_to_phase(self):
        plus = prepare_single(Basis.X, 0)
        assert equal_up_to_phase(apply_unitary(plus, GATES["X"], (0,)), plus)

    def test_bare_matrix_refused(self):
        for u in (PAULI_X, PAULI_X.tolist()):
            with pytest.raises(TypeError):
                apply_unitary(prepare_single(Basis.Z, 0), u, (0,))

    def test_repeated_targets_rejected(self):
        with pytest.raises(ValueError):
            apply_unitary(prepare_bell(0), Gate(CNOT), (0, 0))

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError):
            apply_unitary(prepare_single(Basis.Z, 0), GATES["X"], (1,))

    def test_target_count_must_fit_the_gate(self):
        with pytest.raises(DimensionMismatchError):
            apply_unitary(prepare_bell(0), Gate(CNOT), (0,))
        with pytest.raises(DimensionMismatchError):
            apply_unitary(prepare_bell(0), GATES["X"], (0, 1))

    def test_check_runs_once_per_gate_built(self, monkeypatch):
        # Over a whole attack x mode grid, and a round with a matrix probe,
        # the unitarity check runs when a Gate is built, never when one is
        # applied.
        counts = {"checks": 0, "built": 0, "applied": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(quantum, "_check_unitary",
                            counted("checks", quantum._check_unitary))
        monkeypatch.setattr(Gate, "__init__", counted("built", Gate.__init__))
        monkeypatch.setattr(register, "apply_unitary",
                            counted("applied", quantum.apply_unitary))
        run_matrix(n=2, trials=5)
        assert counts["applied"] > 0
        assert counts["checks"] == counts["built"] == 0
        applied = counts["applied"]
        probe = QubitProbe("unitary_tamper_then_undo",
                           random_unitary(np.random.default_rng(5), 2))
        run_protocol_round(message=b"\x01\x00\x01", mode=DetectionMode.IMPROVED,
                           strategy=probe, rng=np.random.default_rng(0), d_z=3, d_x=3)
        assert counts["applied"] > applied
        assert counts["checks"] == counts["built"] == 2  # u and its undo

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "gate", [PAULI_X, PAULI_Y, PAULI_Z, HADAMARD], ids=["X", "Y", "Z", "H"]
    )
    def test_single_qubit_matches_kron_oracle(self, n, gate):
        rng = np.random.default_rng(11 * n + int(abs(gate).sum()))
        for target in range(n):
            state = random_state(rng, n)
            got = apply_unitary(state, Gate(gate), (target,)).amplitudes
            want = kron_expand(gate, (target,), n) @ state.amplitudes
            np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_qubit_matches_kron_oracle(self, n):
        rng = np.random.default_rng(23 + n)
        for targets in [(a, b) for a in range(n) for b in range(n) if a != b]:
            state = random_state(rng, n)
            got = apply_unitary(state, Gate(CNOT), targets).amplitudes
            want = kron_expand(CNOT, targets, n) @ state.amplitudes
            np.testing.assert_allclose(got, want, atol=1e-12)

    @given(st.integers(1, MAX_REGISTER_QUBITS), st.sampled_from([1, 2]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_random_unitary_matches_kron_oracle_on_every_target(self, n, k, seed):
        assume(k <= n)
        rng = np.random.default_rng(seed)
        state = random_state(rng, n)
        u = random_unitary(rng, 2 ** k)
        for targets in itertools.permutations(range(n), k):
            got = apply_unitary(state, Gate(u), targets).amplitudes
            want = kron_expand(u, targets, n) @ state.amplitudes
            np.testing.assert_allclose(got, want, atol=1e-12)

    @given(st.integers(1, MAX_REGISTER_QUBITS - 1), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_attach_ancilla_appends_zero(self, n, seed):
        state = random_state(np.random.default_rng(seed), n)
        slots = Slots()
        slots.states += [prepare_single(Basis.Z, 0), state]
        ancillas = []
        _lend(slots, [1 << 2],
              lambda point, refs, rng: ancillas.append(attach_ancilla(refs[0])) or refs,
              None, None)
        assert ancillas[0].handle == 1 << 2 | n  # slot 1, qubit n
        assert slots.ancillas == {1 << 2 | n}
        np.testing.assert_array_equal(
            slots.states[1].amplitudes, np.kron(state.amplitudes, [1, 0])
        )

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_norm_preserved_under_random_unitaries(self, seed, n):
        rng = np.random.default_rng(seed)
        state = random_state(rng, n)
        q = random_unitary(rng, 2)
        out = apply_unitary(state, Gate(q), (int(rng.integers(0, n)),))
        assert abs(out.norm() - 1.0) < 1e-12


class TestUnitarityTolerance:
    """A Gate is built only when every entry of u^dagger u - I is within
    UNITARY_ATOL, and only from a 2x2 or 4x4 matrix."""

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            Gate(np.array([[1, 1], [0, 1]]))

    def test_diagonal_error_beyond_tolerance_rejected(self):
        with pytest.raises(NonUnitaryError):
            Gate(np.eye(2) * (1 + 2e-6))

    def test_rounding_error_accepted(self):
        for u in (PAULI_Y + 1e-13, HADAMARD * (1 + 1e-13)):
            apply_unitary(prepare_single(Basis.X, 1), Gate(u), (0,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entry_rejected(self, bad):
        u = np.eye(2, dtype=complex)
        u[1, 0] = bad
        with pytest.raises(NonUnitaryError):
            Gate(u)

    @pytest.mark.parametrize("u", [np.eye(1), np.eye(3), np.eye(8), np.ones(2), np.eye(4)[:2]])
    def test_only_one_and_two_qubit_squares_accepted(self, u):
        with pytest.raises(DimensionMismatchError):
            Gate(u)

    @given(st.sampled_from([1, 2]), st.sampled_from([-1.1, -0.9, 0.9, 1.1]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_numpy_reference_at_the_edge(self, k, edge, seed):
        # u^dagger u = (1 + edge * UNITARY_ATOL) I up to rounding, so the
        # matrix lies just inside the tolerance for |edge| < 1, else outside.
        q = random_unitary(np.random.default_rng(seed), 2 ** k)
        u = q * np.sqrt(1 + edge * UNITARY_ATOL)
        reference = np.all(np.abs(u.conj().T @ u - np.eye(2 ** k)) <= UNITARY_ATOL)
        assert reference == (abs(edge) < 1)
        if reference:
            Gate(u)
        else:
            with pytest.raises(NonUnitaryError):
                Gate(u)


class TestMeasurement:
    def test_eigenstate_is_deterministic(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert measure(prepare_single(Basis.Z, 1), 0, Basis.Z, rng.random()).bit == 1
            assert measure(prepare_single(Basis.X, 1), 0, Basis.X, rng.random()).bit == 1

    def test_plus_in_z_is_fair_coin(self):
        # 10^5 samples; tolerance 3 * sqrt(p(1-p)/N) around p = 1/2.
        rng = np.random.default_rng(42)
        trials = 100_000
        plus = prepare_single(Basis.X, 0)
        ones = sum(measure(plus, 0, Basis.Z, rng.random()).bit for _ in range(trials))
        p_hat = ones / trials
        assert abs(p_hat - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_frequency_matches_amplitudes_for_biased_state(self):
        rng = np.random.default_rng(7)
        amps = np.array([0.6, 0.8], dtype=complex)
        state = StateVector(amps)
        trials = 100_000
        ones = sum(measure(state, 0, Basis.Z, rng.random()).bit for _ in range(trials))
        p1 = 0.64
        assert abs(ones / trials - p1) < 3 * np.sqrt(p1 * (1 - p1) / trials)

    def test_repeat_measurement_is_stable(self):
        rng = np.random.default_rng(3)
        state = prepare_single(Basis.X, 0)
        for basis in (Basis.Z, Basis.X):
            out = measure(state, 0, basis, rng.random())
            again = measure(out.post_state, 0, basis, rng.random())
            assert again.bit == out.bit

    def test_post_state_normalized(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = random_state(rng, 3)
            out = measure(state, int(rng.integers(0, 3)), Basis.X, rng.random())
            assert abs(out.post_state.norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("g", [0, 1])
    def test_bell_halves_correlate(self, g):
        rng = np.random.default_rng(100 + g)
        for _ in range(200):
            first = measure(prepare_bell(g), 0, Basis.Z, rng.random())
            second = measure(first.post_state, 1, Basis.Z, rng.random())
            assert second.bit == first.bit ^ g

    def test_branches_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            state = random_state(rng, 2)
            for basis in (Basis.Z, Basis.X):
                (p0, _), (p1, _) = measurement_branches(state, 0, basis)
                assert abs(p0 + p1 - 1.0) < 1e-12

    def test_branches_agree_with_sampling_probability(self):
        # The sampled frequency must track the enumerated branch weight.
        rng = np.random.default_rng(13)
        state = random_state(rng, 2)
        (p0, _), _ = measurement_branches(state, 1, Basis.X)
        trials = 100_000
        zeros = sum(
            measure(state, 1, Basis.X, rng.random()).bit == 0 for _ in range(trials)
        )
        assert abs(zeros / trials - p0) < 3 * np.sqrt(p0 * (1 - p0) / trials)

    def test_bad_index_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            measure(prepare_bell(0), 2, Basis.Z, rng.random())
        for qubit in (1, -1):
            for basis in (Basis.Z, Basis.X):
                with pytest.raises(ValueError):
                    measure(prepare_single(Basis.Z, 0), qubit, basis, rng.random())


@st.composite
def measured_registers(draw):
    """A random register of 1..MAX_REGISTER_QUBITS qubits, the measured
    qubit, a basis and a generator seed."""
    n = draw(st.integers(1, MAX_REGISTER_QUBITS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return (StateVector(amps / np.linalg.norm(amps)), draw(st.integers(0, n - 1)),
            draw(st.sampled_from([Basis.Z, Basis.X])), draw(st.integers(0, 2 ** 32 - 1)))


class TestMeasurementAgainstBranches:
    @given(measured_registers())
    @settings(max_examples=150, deadline=None)
    def test_outcome_and_post_state_match_branches(self, case):
        # The generator's next uniform picks 0 exactly below the enumerated
        # P(0), and the register collapses onto that branch.
        state, qubit, basis, seed = case
        (p0, post0), (_, post1) = measurement_branches(state, qubit, basis)
        u = np.random.default_rng(seed).random()
        assume(abs(u - p0) > 1e-12)
        out = measure(state, qubit, basis, u)
        assert out.bit == (0 if u < p0 else 1)
        assert equal_up_to_phase(out.post_state, post0 if out.bit == 0 else post1)

    @given(measured_registers())
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_reference_loop_exactly(self, case):
        # Every size branch of the kernel, the written-out Bell-half case
        # included, does the same float operations as one plain loop.
        state, qubit, basis, seed = case
        u = np.random.default_rng(seed).random()
        bit, post = reference_measure(state.amps, qubit, basis, u)
        out = measure(state, qubit, basis, u)
        assert out.bit == bit
        assert out.post_state.amps == post
        assert all(type(a) is complex for a in out.post_state.amps)


def reference_measure(amps, qubit, basis, u):
    """The measurement arithmetic as one loop over amplitude pairs: P(0) and
    P(1) as sums of squares, the kept branch scaled by 1 / sqrt(P)."""
    n = len(amps).bit_length() - 1
    stride = 1 << (n - 1 - qubit)
    zero = [i for i in range(len(amps)) if not i & stride]
    if basis is Basis.X:
        w0 = [(amps[i] + amps[i + stride]) * SQRT2_INV for i in zero]
        w1 = [(amps[i] - amps[i + stride]) * SQRT2_INV for i in zero]
    else:
        w0 = [amps[i] for i in zero]
        w1 = [amps[i + stride] for i in zero]
    p0 = 0.0
    for w in w0:
        p0 += w.real * w.real + w.imag * w.imag
    bit = 0 if u < p0 else 1
    w, p = (w0, p0) if bit == 0 else (w1, 0.0)
    if bit:
        for c in w1:
            p += c.real * c.real + c.imag * c.imag
    if n == 1:  # the post-state is the shared preparation
        return bit, prepare_single(basis, bit).amps
    scale = 1.0 / math.sqrt(p)
    out = [0j] * len(amps)
    for i, c in zip(zero, w):
        c *= scale
        if basis is Basis.X:
            out[i] = c * SQRT2_INV
            out[i + stride] = c * (SQRT2_INV if bit == 0 else -SQRT2_INV)
        else:
            out[i + stride * bit] = c
    return bit, tuple(out)


class TestUniforms:
    @pytest.mark.parametrize("k", [0, 1, 2, 7, 64])
    def test_one_draw_equals_k_scalar_draws(self, k):
        # rng.random(k).tolist() gives the values of k rng.random() calls and
        # leaves the generator where they leave it, so a stage that takes
        # its k uniforms from one draw keeps the streams of rng_scheme 2.
        for seed in range(20):
            batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            assert batched.random(k).tolist() == [scalar.random() for _ in range(k)]
            assert batched.bit_generator.state == scalar.bit_generator.state
            assert batched.random() == scalar.random()


# The largest uniform a generator gives.
TOP = math.nextafter(1.0, 0.0)


def _measured(state, qubit, basis, u):
    """The record of one measurement with the uniform `u`, (error, bit,
    post amplitudes), and the state after it. On a ValueError or
    RuntimeError the record holds its repr, bit and amplitudes are None,
    and the state is unchanged."""
    try:
        bit, post = measure(state, qubit, basis, u)
    except (ValueError, RuntimeError) as err:
        return (repr(err), None, None), state
    assert all(type(a) is complex for a in post.amps)
    return (None, bit, post.amps), post


def _agree(a, b):
    """Whether two records give the same error and bit, and amplitudes
    within 1e-12."""
    (error_a, bit_a, amps_a), (error_b, bit_b, amps_b) = a, b
    if (error_a, bit_a) != (error_b, bit_b):
        return False
    if amps_a is None or amps_b is None:
        return amps_a is amps_b
    return len(amps_a) == len(amps_b) and np.allclose(amps_a, amps_b, rtol=0, atol=1e-12)


SEEDS = _Z_STATES + _X_STATES + _BELL


@pytest.fixture
def fresh_table(monkeypatch):
    """The state table as a fresh process starts it, the six seeds with no
    rows and no transitions, for this test alone."""
    monkeypatch.setattr(quantum, "_STATES", {
        key: state for key, state in quantum._STATES.items() if state in SEEDS})
    monkeypatch.setattr(quantum, "_ROWS", dict.fromkeys(SEEDS))
    monkeypatch.setattr(quantum, "_NEXT", {})


def _follow(path):
    """The state a path of reads (seed index, ((qubit, basis, bit), ...)) ends in."""
    seed, reads = path
    state = SEEDS[seed]
    for qubit, basis, bit in reads:
        out = measure(state, qubit, basis, TOP if bit else 0.0)
        assert out.bit == bit
        state = out.post_state
    return state


def _follow_computed(path):
    """The state the float kernel reaches along a path of reads, unshared."""
    seed, reads = path
    state = StateVector(SEEDS[seed].amps, check=False)
    for qubit, basis, bit in reads:
        state = quantum._collapse(state.amps, qubit, basis is Basis.X, bit).post_state
    return StateVector(state.amps, check=False)


def _read_cases():
    """(path, qubit, basis) for each qubit and basis of every state that the
    float kernel's Z/X reads reach from the seeds, states told apart by the
    repr of their amplitudes, with one path of reads to each. Rounding makes
    many of them one state of the table."""
    cases, seen = [], set()
    todo = [(i, ()) for i in range(len(SEEDS))]
    while todo:
        path = todo.pop(0)
        amps = _follow_computed(path).amps
        if repr(amps) in seen:
            continue
        seen.add(repr(amps))
        for qubit in range(len(amps).bit_length() - 1):
            for basis in (Basis.Z, Basis.X):
                cases.append((path, qubit, basis))
                for bit in (0, 1):
                    try:
                        quantum._collapse(amps, qubit, basis is Basis.X, bit)
                    except RuntimeError:
                        continue
                    todo.append((path[0], path[1] + ((qubit, basis, bit),)))
    return cases


READ_CASES = _read_cases()
READ_CASE_IDS = [
    f"{path[0]}" + "".join(f"-{q}{b.value}{bit}" for q, b, bit in path[1]) + f"/{q}{b.value}"
    for path, q, b in READ_CASES
]
UNIFORMS = {"zero": 0.0, "quarter": 0.25, "half": 0.5, "three_quarters": 0.75, "top": TOP}


# An op of a walk: a named gate on a target, an ancilla, a CNOT, or a Z/X read
# with one of UNIFORMS.
WALK_OPS = st.one_of(
    st.tuples(st.just("gate"), st.sampled_from(sorted(GATES)), st.integers(-1, 4)),
    st.tuples(st.just("attach")),
    st.tuples(st.just("cnot"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("read"), st.integers(-1, 4), st.sampled_from([Basis.Z, Basis.X]),
              st.sampled_from(sorted(UNIFORMS))),
)


def _step(state, op):
    """The record one walk op gives on `state`, in the form of `_measured`'s,
    and the state after it. A read whose uniform lies within 1e-9 of P(0) is
    skipped; an error leaves the state."""
    kind, *args = op
    if kind == "read":
        qubit, basis, where = args
        u = UNIFORMS[where]
        if 0 <= qubit < state.num_qubits and abs(u - _p0(state.amps, qubit, basis is Basis.X)) < 1e-9:
            return ("skipped", None, None), state
        return _measured(state, qubit, basis, u)
    try:
        if kind == "gate":
            out = apply_unitary(state, GATES[args[0]], (args[1],))
        elif kind == "attach":
            out = append_ancilla(state)
        else:
            out = cnot(state, *args)
    except ValueError as err:
        return (repr(err), None, None), state
    assert all(type(a) is complex for a in out.amps)
    return (None, None, out.amps), out


def _closure():
    """Every state a BFS from the seeds reaches over X/Y/Z/H on each target,
    an ancilla up to three qubits, CNOT on each pair and Z/X reads."""
    seen, todo = set(), list(SEEDS)
    while todo:
        state = todo.pop()
        if state in seen:
            continue
        seen.add(state)
        n = state.num_qubits
        todo += [apply_unitary(state, gate, (t,)) for gate in GATES.values() for t in range(n)]
        todo += [cnot(state, c, t) for c, t in itertools.permutations(range(n), 2)]
        todo += [measure(state, t, basis, u).post_state for t in range(n)
                 for basis in (Basis.Z, Basis.X) for u in (0.0, TOP)]
        if n < 3:
            todo.append(append_ancilla(state))
    return seen


class TestBranchTables:
    """A state in the table gives what the float kernel gives an unshared
    copy of it, to within 1e-12, except where a uniform lies within 1e-9 of
    a float p0 that is exactly 0, 1/2 or 1."""

    def test_the_table_closes_at_the_stabilizer_states(self, fresh_table):
        # 1072 states, 16, 96 and 960 by size, each in the table once; every
        # p0 the rows hold is exactly 0, 1/2 or 1.
        reached = _closure()
        assert collections.Counter(s.num_qubits for s in reached) == {1: 16, 2: 96, 3: 960}
        assert set(quantum._STATES.values()) == set(quantum._ROWS) == reached
        assert len(quantum._STATES) == 1072
        assert {branches[0] for rows in quantum._ROWS.values() for row in rows
                for branches in row} == {0.0, 0.5, 1.0}
        assert all(quantum._STATES[quantum._key(s.amps)] is s for s in reached)

    def test_states_with_equal_keys_are_one_object(self, fresh_table):
        # H twice is the seed itself, and a state whose amplitudes differ from
        # a seed's only in the sign of a zero or by rounding is the seed.
        h = GATES["H"]
        for seed in SEEDS:
            for t in range(seed.num_qubits):
                assert apply_unitary(apply_unitary(seed, h, (t,)), h, (t,)) is seed
            z = apply_unitary(apply_unitary(seed, GATES["Z"], (0,)), GATES["Z"], (0,))
            assert z is seed and quantum._intern(StateVector(
                [complex(-0.0, -0.0) if a == 0 else a * (1 + 1e-12) for a in seed.amps],
                check=False)) is seed

    @pytest.mark.parametrize("undo", ["H", "matrix"])
    @pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
    def test_h_twice_reads_as_the_state_it_started_from(self, basis, undo):
        # H twice on |0> read in Z, or on |+> read in X, gives 0 for every
        # uniform: in floats p0 is 0.9999999999999998 and 0.9999999999999993,
        # and the largest uniform below 1 would read 1. So does a matrix u,
        # a rotation times H that leaves the table, followed by u-dagger:
        # in floats p0 is 0.9999999999999993 and 0.9999999999999991.
        if undo == "H":
            u = u_dagger = GATES["H"]
        else:
            c, s = math.cos(0.3), math.sin(0.3)
            m = np.array([[c, -s], [s, c]]) @ HADAMARD
            u, u_dagger = Gate(m), Gate(m.conj().T)
        state = apply_unitary(apply_unitary(prepare_single(basis, 0), u, (0,)), u_dagger, (0,))
        for r in (0.0, 0.5, TOP):
            assert measure(state, 0, basis, r).bit == 0
        assert state is prepare_single(basis, 0)

    def test_matrix_gates_keep_no_transitions(self, fresh_table):
        # A diagonal phase gate leaves |0> where it is, in the table, for
        # every angle; the transition map holds none of the 200 matrices.
        zero = prepare_single(Basis.Z, 0)
        for theta in np.linspace(0.0, 2 * np.pi, 200):
            gate = Gate(np.diag([1, np.exp(1j * theta)]))
            assert apply_unitary(zero, gate, (0,)) is zero
        assert quantum._NEXT == {} and len(quantum._STATES) == len(SEEDS)

    def test_a_state_without_a_key_is_outside_the_table(self, fresh_table):
        for amps in ([0.6, 0.8], [0.6, 0, 0, 0.8j], [0.5, 0.5, 0.5, -0.5 + 1e-6]):
            state = StateVector(np.array(amps) / np.linalg.norm(amps))
            assert quantum._key(state.amps) is None
            assert state not in quantum._ROWS
        u = Gate(random_unitary(np.random.default_rng(1), 2))
        out = apply_unitary(prepare_single(Basis.Z, 0), u, (0,))
        assert out not in quantum._ROWS and quantum._NEXT == {}
        assert len(quantum._STATES) == len(SEEDS)

    def test_a_keyed_state_off_the_stabilizer_set_keeps_its_float_p0(self, fresh_table):
        # Controlled-S on |++> has a key, (1, 1, 1, i) / 2, but is not a
        # stabilizer state: reading qubit 0 in X gives 0 with probability 3/4.
        plus_plus = apply_unitary(append_ancilla(prepare_single(Basis.X, 0)), GATES["H"], (1,))
        state = apply_unitary(plus_plus, Gate(np.diag([1, 1, 1, 1j])), (0, 1))
        assert state in quantum._ROWS
        fresh = StateVector(state.amps, check=False)
        for u in (0.7, 0.8):
            assert _agree(_measured(state, 0, Basis.X, u)[0], _measured(fresh, 0, Basis.X, u)[0])
        assert abs(quantum._ROWS[state][0][1][0] - 0.75) < 1e-12

    @given(st.sampled_from(range(len(SEEDS))), st.lists(WALK_OPS, max_size=12))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_walk_over_edges_equals_the_computed_walk(
            self, fresh_table, monkeypatch, seed, ops):
        # The same ops from a seed and from an unshared copy of it give the
        # same bits and errors, and amplitudes within 1e-12. The copy's walk
        # runs the float kernel alone, with no result interned. The walk in
        # the table runs twice: the second time along the transitions and
        # rows the first one built.
        computed, state = [], StateVector(SEEDS[seed].amps, check=False)
        with monkeypatch.context() as patch:
            patch.setattr(quantum, "_intern", lambda state: None)
            for op in ops:
                assert state not in quantum._ROWS
                got, state = _step(state, op)
                computed.append(got)
                state = StateVector(state.amps, check=False)
        for _ in range(2):
            tabled, state = [], SEEDS[seed]
            for op in ops:
                got, state = _step(state, op)
                tabled.append(got)
                assert state in quantum._ROWS
            assert all(map(_agree, tabled, computed))

    @pytest.mark.parametrize("path, qubit, basis", READ_CASES, ids=READ_CASE_IDS)
    def test_tabled_measure_equals_the_computed_path(self, fresh_table, path, qubit, basis):
        # Every state Z/X reads reach from the seeds, read on every qubit and
        # basis from the rows a fresh table builds, against the unshared state
        # the float kernel reaches along the same path.
        state = _follow(path)
        fresh = _follow_computed(path)
        assert state in quantum._ROWS and fresh not in quantum._ROWS
        assert np.allclose(state.amps, fresh.amps, rtol=0, atol=1e-12)
        for u in UNIFORMS.values():
            tabled, _ = _measured(state, qubit, basis, u)
            p0 = quantum._ROWS[state][qubit][basis is Basis.X][0]
            if abs(u - p0) >= 1e-9:
                assert _agree(tabled, _measured(fresh, qubit, basis, u)[0])
        assert p0 in (0.0, 0.5, 1.0)
        assert abs(p0 - _p0(fresh.amps, qubit, basis is Basis.X)) < 1e-12

    def test_a_tabled_read_returns_a_shared_state(self):
        bell = prepare_bell(0)
        out = measure(bell, 0, Basis.Z, 0.0)
        assert out.post_state in quantum._ROWS
        # An unshared copy reads through the float kernel, and its post-state,
        # which has a key, comes back as the table's.
        fresh = measure(StateVector(bell.amps, check=False), 0, Basis.Z, 0.0)
        assert fresh.post_state is out.post_state

    def test_outcome_is_a_named_tuple(self):
        out = measure(prepare_bell(1), 1, Basis.Z, 0.9)
        bit, post = out
        assert (out.bit, out.post_state) == (bit, post) == (1, out[1])

    def test_qubit_out_of_range_rejected_on_a_tabled_state(self):
        for qubit in (-1, 2):
            with pytest.raises(ValueError):
                measure(prepare_bell(0), qubit, Basis.Z, 0.5)


class TestProbeCnotSwap:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_swap_equals_the_cnot_product(self, n):
        # Every control/target pair, on random registers: the swap gives the
        # amplitudes the 4x4 product gives, compared with ==.
        rng = np.random.default_rng(n)
        for control, target in itertools.permutations(range(n), 2):
            for _ in range(5):
                state = random_state(rng, n)
                slots = Slots()
                slots.states.append(state)
                _lend(slots, [control, target],
                      lambda point, refs, rng: probe_cnot(*refs) or refs, None, None)
                want = _apply_gate_unchecked(state, CNOT.tolist(), (control, target))
                assert slots.states[0].amps == want.amps

    def test_swap_needs_one_register(self):
        slots = Slots()
        slots.states += [prepare_bell(0), prepare_bell(0)]

        def tap(point, refs, rng):
            with pytest.raises(ValueError):
                probe_cnot(*refs)
            return refs

        _lend(slots, [0 << 2, 1 << 2 | 1], tap, None, None)
        assert slots.states == [prepare_bell(0), prepare_bell(0)]


# A step of a register's walk from a seed: a shared Gate on a target, an
# ancilla, or a CNOT; a step the register cannot take is skipped.
TABLE_STEPS = st.one_of(
    st.tuples(st.just("gate"), st.sampled_from(sorted(GATES)), st.integers(0, 3)),
    st.tuples(st.just("attach")),
    st.tuples(st.just("cnot"), st.integers(0, 3), st.integers(0, 3)),
)


def _walked(seed, steps):
    state = SEEDS[seed]
    for kind, *args in steps:
        n = state.num_qubits
        if kind == "gate" and args[1] < n:
            state = apply_unitary(state, GATES[args[0]], (args[1],))
        elif kind == "attach" and n < MAX_REGISTER_QUBITS:
            state = append_ancilla(state)
        elif kind == "cnot" and args[0] != args[1] and max(args) < n:
            state = cnot(state, *args)
    return state


@st.composite
def read_stages(draw):
    """Registers walked from the seeds, one state outside the table among
    them, and a stage of (slot, qubit, basis, uniform) reads: one or more
    reads may share a slot, and a qubit may be read twice."""
    states = [_walked(draw(st.integers(0, len(SEEDS) - 1)),
                      draw(st.lists(TABLE_STEPS, max_size=8)))
              for _ in range(draw(st.integers(1, 5)))]
    outside = StateVector(draw(st.sampled_from([[0.6, 0.8], [0.6, 0, 0, 0.8]])))
    states.insert(draw(st.integers(0, len(states))), outside)
    reads = draw(st.lists(st.tuples(
        st.integers(0, len(states) - 1), st.integers(0, MAX_REGISTER_QUBITS - 1),
        st.sampled_from([Basis.Z, Basis.X]),
        st.one_of(st.sampled_from([0.0, 0.5, TOP]), st.floats(0.0, 1.0, exclude_max=True))),
        max_size=12))
    return states, [(r, q % states[r].num_qubits, b, u) for r, q, b, u in reads]


class TestStageRead:
    """`measure_stage` is one `measure` a qubit, in order, each read seeing
    the collapse of the reads before it."""

    @given(read_stages())
    @settings(max_examples=300, deadline=None)
    def test_a_stage_is_one_measure_a_qubit_in_order(self, case):
        states, reads = case
        expected_states, expected_bits = list(states), bytearray()
        got = list(states)
        stage = ([slot << 2 | qubit for slot, qubit, _, _ in reads],
                 [basis for _, _, basis, _ in reads], [u for *_, u in reads])
        for slot, qubit, basis, u in reads:
            bit, expected_states[slot] = measure(expected_states[slot], qubit, basis, u)
            expected_bits.append(bit)
        bits = measure_stage(got, *stage)
        assert bits == bytes(expected_bits)
        assert [s.amps for s in got] == [s.amps for s in expected_states]
        # A tabled post-state is the table's own state.
        assert all(a is b for a, b in zip(got, expected_states) if b in quantum._ROWS)

    def test_a_float_read_never_samples_a_zero_probability_branch(self):
        # Outside the table, Z then X reads of (0.6, 0, 0, 0.8) leave qubit 0
        # with a float p0 one ulp short of 1; the uniform 1 - 1 ulp must
        # still read 0. The Z read's post-state |00> has a key, so it is the
        # table's, and the reads after it follow the table.
        state = StateVector([0.6, 0, 0, 0.8])
        assert state not in quantum._ROWS
        bit, state = measure(state, 0, Basis.Z, 0.0)
        assert bit == 0 and state in quantum._ROWS
        bit, state = measure(state, 1, Basis.X, 0.0)
        assert bit == 0 and state in quantum._ROWS
        assert measure(state, 0, Basis.Z, TOP).bit == 0
        states = [StateVector([0.6, 0, 0, 0.8])]
        bits = measure_stage(states, [0, 1, 0], [Basis.Z, Basis.X, Basis.Z], [0.0, 0.0, TOP])
        assert bits == bytes(3) and states[0] is state

    def test_a_float_p0_within_the_cut_reads_as_exact(self):
        # A state no key reaches, whose qubit 0 reads 1 in Z with probability
        # below the 1e-15 cut: every uniform reads 0, and the post-state has
        # a key, so it is the table's |0>.
        eps = 1e-8  # amplitude; probability 1e-16
        state = StateVector([math.sqrt(1 - eps * eps), eps], check=False)
        assert state not in quantum._ROWS
        for u in (0.0, 0.5, TOP):
            bit, post = measure(state, 0, Basis.Z, u)
            assert bit == 0 and post is prepare_single(Basis.Z, 0)

    def test_a_second_read_of_a_slot_sees_the_first_collapse(self):
        # Both halves of one Bell pair: the second Z read repeats the first.
        for g in (0, 1):
            for u in (0.2, 0.7):
                states = [prepare_bell(g)]
                bits = measure_stage(states, [0, 1], [Basis.Z, Basis.Z], [u, 0.99])
                assert bits[1] == bits[0] ^ g
                assert states[0] is measure(measure(prepare_bell(g), 0, Basis.Z, u)[1],
                                            1, Basis.Z, 0.99)[1]


class TestPartialTrace:
    def test_bell_halves_are_maximally_mixed(self):
        mixed = np.eye(2) / 2
        for g in (0, 1):
            for keep in (0, 1):
                rho = partial_trace(prepare_bell(g), (keep,))
                np.testing.assert_allclose(rho.entries, mixed, atol=1e-12)

    def test_product_state_reduces_to_factor(self):
        state = tensor([prepare_single(Basis.Z, 0), prepare_single(Basis.Z, 1)])
        rho = partial_trace(state, (0,))
        np.testing.assert_allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-12)

    def test_trace_is_one(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            state = random_state(rng, 3)
            rho = partial_trace(state, (0, 2))
            assert abs(np.trace(rho.entries) - 1.0) < 1e-12
            rho.validate()

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(prepare_bell(0), ())

    def test_density_matrix_input(self):
        rho4 = DensityMatrix.from_state(prepare_bell(1))
        reduced = partial_trace(rho4, (1,))
        np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)


class TestTraceDistance:
    def test_identical_states_distance_zero(self):
        rho = DensityMatrix.from_state(prepare_single(Basis.X, 0))
        assert trace_distance(rho, rho) < 1e-12

    def test_orthogonal_pure_states_distance_one(self):
        rho = DensityMatrix.from_state(prepare_single(Basis.Z, 0))
        sigma = DensityMatrix.from_state(prepare_single(Basis.Z, 1))
        assert abs(trace_distance(rho, sigma) - 1.0) < 1e-12

    def test_mixed_vs_zero_is_half(self):
        # Oracle: eigenvalues of I/2 - |0><0| are -1/2 and 1/2, so the
        # distance is (1/2)(1/2 + 1/2) = 1/2.
        mixed = DensityMatrix.maximally_mixed()
        zero = DensityMatrix.from_state(prepare_single(Basis.Z, 0))
        diff_eigs = np.linalg.eigvalsh(mixed.entries - zero.entries)
        oracle = 0.5 * np.sum(np.abs(diff_eigs))
        got = trace_distance(mixed, zero)
        assert abs(got - oracle) < 1e-12
        assert abs(got - 0.5) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        a = DensityMatrix.from_state(random_state(rng, 2))
        b = DensityMatrix.from_state(random_state(rng, 2))
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(
                DensityMatrix.maximally_mixed(1), DensityMatrix.maximally_mixed(2)
            )


class TestTensor:
    def test_zero_one(self):
        out = tensor([prepare_single(Basis.Z, 0), prepare_single(Basis.Z, 1)])
        np.testing.assert_allclose(out.amplitudes, [0, 1, 0, 0], atol=1e-15)

    def test_plus_zero_matches_kron_oracle(self):
        a = prepare_single(Basis.X, 0)
        b = prepare_single(Basis.Z, 0)
        out = tensor([a, b])
        np.testing.assert_allclose(
            out.amplitudes, np.kron(a.amplitudes, b.amplitudes), atol=1e-15
        )
        np.testing.assert_allclose(
            out.amplitudes, [SQRT2_INV, 0, SQRT2_INV, 0], atol=1e-15
        )

    def test_single_state_identity(self):
        state = prepare_single(Basis.X, 1)
        out = tensor([state])
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_cap_enforced(self):
        singles = [prepare_single(Basis.Z, 0)] * 5
        with pytest.raises(RegisterSizeError):
            tensor(singles)


class TestFidelity:
    def test_global_phase_ignored(self):
        state = prepare_single(Basis.X, 0)
        rotated = StateVector(state.amplitudes * np.exp(1j * 0.7))
        assert equal_up_to_phase(state, rotated)

    def test_distinct_states_not_equal(self):
        assert not equal_up_to_phase(
            prepare_single(Basis.Z, 0), prepare_single(Basis.X, 0)
        )

    def test_fidelity_range(self):
        rng = np.random.default_rng(41)
        a, b = random_state(rng, 2), random_state(rng, 2)
        f = fidelity(a, b)
        assert 0.0 <= f <= 1.0 + 1e-12


class TestGateConstants:
    @pytest.mark.parametrize(
        "gate", [I2, PAULI_X, PAULI_Y, PAULI_Z, HADAMARD],
        ids=["I", "X", "Y", "Z", "H"],
    )
    def test_single_qubit_constants_unitary(self, gate):
        np.testing.assert_allclose(gate.conj().T @ gate, np.eye(2), atol=1e-12)

    def test_cnot_unitary(self):
        np.testing.assert_allclose(CNOT.conj().T @ CNOT, np.eye(4), atol=1e-12)
