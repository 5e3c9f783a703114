"""Tests for the dense state-vector core.

Oracles here are independent of the code paths under test: full
Kronecker-expanded matrices for unitaries, eigenvalue arithmetic for
trace distance, and exact Born probabilities computed straight from
amplitudes for the frequency checks.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    MAX_SHARED_STATES,
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
    Uniforms,
    append_ancilla,
    apply_unitary,
    cnot,
    equal_up_to_phase,
    fidelity,
    measure,
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
from sqsig.register import QubitRef, Register, attach_ancilla, probe_cnot

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
        measure(prepare_single(Basis.X, 0), 0, Basis.Z, rng).post_state.amplitudes[:] = 0.5
        measure(prepare_bell(1), 0, Basis.Z, rng).post_state.amplitudes[:] = 0.5
        np.testing.assert_array_equal(prepare_single(Basis.Z, 0).amplitudes, [1, 0])
        np.testing.assert_array_equal(prepare_single(Basis.Z, 1).amplitudes, [0, 1])
        np.testing.assert_array_equal(
            prepare_single(Basis.X, 1).amplitudes, [SQRT2_INV, -SQRT2_INV])
        np.testing.assert_array_equal(
            prepare_bell(0).amplitudes, [SQRT2_INV, 0, 0, SQRT2_INV])
        np.testing.assert_array_equal(
            prepare_bell(1).amplitudes, [0, SQRT2_INV, SQRT2_INV, 0])
        for bit in (0, 1):
            assert measure(prepare_single(Basis.Z, bit), 0, Basis.Z, rng).bit == bit

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
        reg = Register(state)
        ancilla = attach_ancilla(QubitRef(reg, 0))
        assert ancilla.index == n
        np.testing.assert_array_equal(
            reg.state.amplitudes, np.kron(state.amplitudes, [1, 0])
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
            assert measure(prepare_single(Basis.Z, 1), 0, Basis.Z, rng).bit == 1
            assert measure(prepare_single(Basis.X, 1), 0, Basis.X, rng).bit == 1

    def test_plus_in_z_is_fair_coin(self):
        # 10^5 samples; tolerance 3 * sqrt(p(1-p)/N) around p = 1/2.
        rng = np.random.default_rng(42)
        trials = 100_000
        plus = prepare_single(Basis.X, 0)
        ones = sum(measure(plus, 0, Basis.Z, rng).bit for _ in range(trials))
        p_hat = ones / trials
        assert abs(p_hat - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_frequency_matches_amplitudes_for_biased_state(self):
        rng = np.random.default_rng(7)
        amps = np.array([0.6, 0.8], dtype=complex)
        state = StateVector(amps)
        trials = 100_000
        ones = sum(measure(state, 0, Basis.Z, rng).bit for _ in range(trials))
        p1 = 0.64
        assert abs(ones / trials - p1) < 3 * np.sqrt(p1 * (1 - p1) / trials)

    def test_repeat_measurement_is_stable(self):
        rng = np.random.default_rng(3)
        state = prepare_single(Basis.X, 0)
        for basis in (Basis.Z, Basis.X):
            out = measure(state, 0, basis, rng)
            again = measure(out.post_state, 0, basis, rng)
            assert again.bit == out.bit

    def test_post_state_normalized(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = random_state(rng, 3)
            out = measure(state, int(rng.integers(0, 3)), Basis.X, rng)
            assert abs(out.post_state.norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("g", [0, 1])
    def test_bell_halves_correlate(self, g):
        rng = np.random.default_rng(100 + g)
        for _ in range(200):
            first = measure(prepare_bell(g), 0, Basis.Z, rng)
            second = measure(first.post_state, 1, Basis.Z, rng)
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
            measure(state, 1, Basis.X, rng).bit == 0 for _ in range(trials)
        )
        assert abs(zeros / trials - p0) < 3 * np.sqrt(p0 * (1 - p0) / trials)

    def test_bad_index_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            measure(prepare_bell(0), 2, Basis.Z, rng)
        for qubit in (1, -1):
            for basis in (Basis.Z, Basis.X):
                with pytest.raises(ValueError):
                    measure(prepare_single(Basis.Z, 0), qubit, basis, rng)


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
        out = measure(state, qubit, basis, np.random.default_rng(seed))
        assert out.bit == (0 if u < p0 else 1)
        assert equal_up_to_phase(out.post_state, post0 if out.bit == 0 else post1)

    @given(measured_registers())
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_reference_loop_exactly(self, case):
        # Every size branch of the kernel, the written-out Bell-half case
        # included, does the same float operations as one plain loop.
        state, qubit, basis, seed = case
        bit, post = reference_measure(state.amps, qubit, basis,
                                      np.random.default_rng(seed).random())
        out = measure(state, qubit, basis, np.random.default_rng(seed))
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
        # rng.random(k) gives the values of k rng.random() calls and leaves
        # the generator where they leave it.
        for seed in range(20):
            batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = Uniforms(batched, k)
            assert [draws.random() for _ in range(k)] == [scalar.random() for _ in range(k)]
            assert batched.bit_generator.state == scalar.bit_generator.state
            assert batched.random() == scalar.random()

    def test_measure_through_uniforms_matches_generator(self):
        # The same registers read through a stage's draws or straight from
        # the generator give the same bits and post-states.
        states = [prepare_single(Basis.X, 0), prepare_bell(0), prepare_bell(1),
                  tensor([prepare_bell(1), prepare_single(Basis.X, 1)])]
        for seed in range(10):
            direct, batched = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = Uniforms(batched, 2 * len(states))
            for state in states:
                for basis in (Basis.Z, Basis.X):
                    a = measure(state, 0, basis, direct)
                    b = measure(state, 0, basis, draws)
                    assert (a.bit, a.post_state.amps) == (b.bit, b.post_state.amps)


class FixedUniform:
    """Stands in for the generator: hands out `u` and counts the draws."""

    def __init__(self, u):
        self.u, self.draws = u, 0

    def random(self):
        self.draws += 1
        return self.u


def _measured(state, qubit, basis, u):
    """(bit, post amplitudes, draws) of one measurement, or the RuntimeError."""
    draws = FixedUniform(u)
    try:
        out = measure(state, qubit, basis, draws)
    except RuntimeError as err:
        return repr(err), draws.draws
    return out.bit, out.post_state.amps, draws.draws


SEEDS = _Z_STATES + _X_STATES + _BELL
SHARED_MAPS = [(quantum, "_SHARED"), (quantum, "_TABLES"), (quantum, "_ANCILLA_EDGES"),
               (quantum, "_CNOT_EDGES")] + [(gate, "edges") for gate in GATES.values()]
# The shared set and edge maps as this module found them when it was imported,
# before any test ran: the seeds and the states their reads reach, all tabled,
# and no edges.
AT_IMPORT = [dict(getattr(owner, name)) for owner, name in SHARED_MAPS]


@contextmanager
def import_time_shared_set():
    """Run with copies of the import-time shared set, tables and edge maps,
    whatever earlier tests added; the maps in use come back afterwards."""
    saved = [getattr(owner, name) for owner, name in SHARED_MAPS]
    for (owner, name), value in zip(SHARED_MAPS, AT_IMPORT):
        setattr(owner, name, dict(value))
    try:
        yield
    finally:
        for (owner, name), value in zip(SHARED_MAPS, saved):
            setattr(owner, name, value)


def _follow(path):
    """The state a path of reads (seed index, ((qubit, basis, bit), ...)) ends in."""
    seed, reads = path
    state = SEEDS[seed]
    for qubit, basis, bit in reads:
        p0 = _p0(state.amps, qubit, basis is Basis.X)
        state = measure(state, qubit, basis, FixedUniform(p0 if bit else 0.0)).post_state
    return state


def _read_cases():
    """(path, qubit, basis) for each qubit and basis of every state that Z/X
    reads reach from the seeds, with one path of reads to the state."""
    cases, seen = [], set()
    with import_time_shared_set():
        todo = [(i, ()) for i in range(len(SEEDS))]
        while todo:
            path = todo.pop(0)
            state = _follow(path)
            if state in seen:
                continue
            seen.add(state)
            for qubit, row in enumerate(quantum._TABLES[state]):
                for basis, (_, *outcomes) in zip((Basis.Z, Basis.X), row):
                    cases.append((path, qubit, basis))
                    todo += [(path[0], path[1] + ((qubit, basis, out.bit),))
                             for out in outcomes if out is not None]
    return cases


READ_CASES = _read_cases()
READ_CASE_IDS = [
    f"{path[0]}" + "".join(f"-{q}{b.value}{bit}" for q, b, bit in path[1]) + f"/{q}{b.value}"
    for path, q, b in READ_CASES
]


# An op of a walk: a named gate on a target, an ancilla, a CNOT, or a Z/X read
# whose uniform is 0, P(0) or one ulp either side of it, or 1 - 1 ulp.
WALK_OPS = st.one_of(
    st.tuples(st.just("gate"), st.sampled_from(sorted(GATES)), st.integers(-1, 4)),
    st.tuples(st.just("attach")),
    st.tuples(st.just("cnot"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("read"), st.integers(-1, 4), st.sampled_from([Basis.Z, Basis.X]),
              st.sampled_from(["zero", "below", "at", "above", "top"])),
)


def _step(state, op):
    """What one walk op gives on `state`, and the state after it. A read
    also gives its bit and the uniforms it drew; an error leaves the state."""
    kind, *args = op
    draws = None
    try:
        if kind == "gate":
            out = apply_unitary(state, GATES[args[0]], (args[1],))
        elif kind == "attach":
            out = append_ancilla(state)
        elif kind == "cnot":
            out = cnot(state, *args)
        else:
            qubit, basis, where = args
            in_range = 0 <= qubit < state.num_qubits
            p0 = _p0(state.amps, qubit, basis is Basis.X) if in_range else 0.5
            draws = FixedUniform({
                "zero": 0.0, "below": math.nextafter(p0, -1.0), "at": p0,
                "above": math.nextafter(p0, 2.0), "top": math.nextafter(1.0, 0.0),
            }[where])
            bit, out = measure(state, qubit, basis, draws)
    except (ValueError, RuntimeError) as err:
        got, out = repr(err), state
    else:
        assert all(type(a) is complex for a in out.amps)
        got = repr(out.amps) if draws is None else (bit, repr(out.amps))
    return (got, None if draws is None else draws.draws), out


class TestBranchTables:
    """Every op on a shared state gives exactly what the computed path gives
    a fresh state with the same amplitudes."""

    def test_the_seeds_reads_are_tabled_at_import(self):
        # At import the shared set holds the seeds and every state Z/X reads
        # reach from them, each with its table; no op has an edge yet.
        shared, tables, *edges = AT_IMPORT
        assert set(SEEDS) <= set(tables)
        assert all(table is not None for table in tables.values())
        posts = {out.post_state for table in tables.values() for row in table
                 for _, *outcomes in row for out in outcomes if out is not None}
        assert posts <= set(tables)
        assert set(tables) == set(shared.values())
        assert all(shared[repr(s.amps)] is s for s in tables)
        assert edges == [{}] * len(edges)

    @given(st.sampled_from(range(len(SEEDS))), st.lists(WALK_OPS, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_a_walk_over_edges_equals_the_computed_walk(self, seed, ops):
        # The same ops from a seed and from an unshared copy of it give the
        # same amplitudes, bits, errors and uniform counts, to the repr. The
        # shared walk runs twice: the second time along the edges and tables
        # the first one built.
        with import_time_shared_set():
            computed, state = [], StateVector(SEEDS[seed].amps, check=False)
            for op in ops:
                assert state not in quantum._TABLES
                got, state = _step(state, op)
                computed.append(got)
                state = StateVector(state.amps, check=False)
            for _ in range(2):
                shared, state = [], SEEDS[seed]
                for op in ops:
                    got, state = _step(state, op)
                    shared.append(got)
                    assert state in quantum._TABLES  # far below the ceiling
                assert shared == computed

    def test_the_shared_set_stops_at_its_ceiling(self):
        # H drifts, so every application reaches a new state. Past the
        # ceiling, gates and reads still give the computed results, and
        # neither the set nor its tables grow.
        with import_time_shared_set():
            state = prepare_single(Basis.X, 0)
            for step in range(MAX_SHARED_STATES):
                fresh = StateVector(state.amps, check=False)
                state = apply_unitary(state, GATES["H"], (0,))
                assert state.amps == apply_unitary(fresh, GATES["H"], (0,)).amps
            assert len(quantum._SHARED) == len(quantum._TABLES) == MAX_SHARED_STATES
            tables = sum(t is not None for t in quantum._TABLES.values())
            last = [s for s in quantum._TABLES if quantum._TABLES[s] is None][-1]
            for state in (state, last):
                fresh = StateVector(state.amps, check=False)
                for gate in GATES.values():
                    assert repr(apply_unitary(state, gate, (0,)).amps) == repr(
                        apply_unitary(fresh, gate, (0,)).amps)
                    for u in (0.25, 0.75):
                        for basis in (Basis.Z, Basis.X):
                            assert _measured(state, 0, basis, u) == _measured(
                                fresh, 0, basis, u)
            assert len(quantum._SHARED) == MAX_SHARED_STATES
            assert sum(t is not None for t in quantum._TABLES.values()) == tables

    @pytest.mark.parametrize("path, qubit, basis", READ_CASES, ids=READ_CASE_IDS)
    def test_tabled_measure_equals_the_computed_path(self, path, qubit, basis):
        # Every state Z/X reads reach from the seeds, read on every qubit and
        # basis from its import-time table.
        with import_time_shared_set():
            state = _follow(path)
            fresh = StateVector(state.amps, check=False)
            assert state in quantum._TABLES and fresh not in quantum._TABLES
            p0 = _p0(state.amps, qubit, basis is Basis.X)
            for u in (0.0, math.nextafter(p0, -1.0), p0, math.nextafter(p0, 2.0),
                      math.nextafter(1.0, 0.0)):
                tabled = _measured(state, qubit, basis, u)
                computed = _measured(fresh, qubit, basis, u)
                assert tabled == computed
                assert tabled[-1] == 1  # one uniform, whichever path
                if len(tabled) == 3:  # same bits to the sign of a zero
                    assert repr(tabled[1]) == repr(computed[1])
                    assert all(type(a) is complex for a in tabled[1])
            assert quantum._TABLES[state][qubit][basis is Basis.X][0] == p0

    def test_a_tabled_read_returns_a_shared_state(self):
        bell = prepare_bell(0)
        out = measure(bell, 0, Basis.Z, FixedUniform(0.0))
        assert out.post_state in quantum._TABLES
        fresh = measure(StateVector(bell.amps, check=False), 0, Basis.Z, FixedUniform(0.0))
        assert fresh.post_state not in quantum._TABLES
        assert fresh.post_state.amps == out.post_state.amps

    def test_outcome_is_a_named_tuple(self):
        out = measure(prepare_bell(1), 1, Basis.Z, FixedUniform(0.9))
        bit, post = out
        assert (out.bit, out.post_state) == (bit, post) == (1, out[1])

    def test_qubit_out_of_range_rejected_on_a_tabled_state(self):
        for qubit in (-1, 2):
            with pytest.raises(ValueError):
                measure(prepare_bell(0), qubit, Basis.Z, FixedUniform(0.5))


class TestProbeCnotSwap:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_swap_equals_the_cnot_product(self, n):
        # Every control/target pair, on random registers: the swap gives the
        # amplitudes the 4x4 product gives, compared with ==.
        rng = np.random.default_rng(n)
        for control, target in itertools.permutations(range(n), 2):
            for _ in range(5):
                state = random_state(rng, n)
                reg = Register(state)
                probe_cnot(QubitRef(reg, control), QubitRef(reg, target))
                want = _apply_gate_unchecked(state, CNOT.tolist(), (control, target))
                assert reg.state.amps == want.amps

    def test_swap_needs_one_register(self):
        with pytest.raises(ValueError):
            probe_cnot(QubitRef(Register(prepare_bell(0)), 0),
                       QubitRef(Register(prepare_bell(0)), 1))


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
