"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line. Monte Carlo checks use 3-sigma binomial
tolerances around analytically derived probabilities; exact checks use
direct equality.
"""

import itertools
import time
from fractions import Fraction

import numpy as np

import sqsig.protocol
from sqsig.adversary import NoAttack
from sqsig.detection import DetectionMode
from sqsig.harness import (
    MATRIX_ATTACKS,
    MATRIX_MODES,
    ScenarioConfig,
    compute_efficiency,
    density_check,
    emit_report,
    parse_attack,
    run_trials,
    strategy_factory,
)
from sqsig.keys import KeyStore
from sqsig.parties import CLASSICAL_ALLOWED
from sqsig.protocol import run_protocol_round
from sqsig.quantum import (
    CNOT,
    Basis,
    Gate,
    apply_unitary,
    measurement_branches,
    prepare_single,
    tensor,
)
from sqsig.roles import trent_verify


def report(capsys, criterion: str, ok: bool) -> None:
    # capsys.disabled keeps the line visible under default capture
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {criterion}"


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * np.sqrt(p * (1.0 - p) / n)


def test_correctness_honest_runs(capsys, monkeypatch):
    config = ScenarioConfig(n=64, trials=1000, seed=101)
    stats, _ = run_trials(config)
    ok = (
        stats.detection_aborts == 0
        and stats.trent_yes == 1000
        and stats.bob_accepts == 1000
    )

    # Exhaustive message/key sweep for short signatures. The round's key
    # agreement is replaced to hand out the chosen key, drawing nothing.
    for n in (1, 2, 3, 4):
        for m in itertools.product((0, 1), repeat=n):
            for key in itertools.product((0, 1), repeat=n):
                monkeypatch.setattr(sqsig.protocol, "keygen_init",
                                    lambda n_total, rng: KeyStore(key_bits=key))
                rng = np.random.default_rng(hash((n, m, key)) % (2 ** 32))
                result = run_protocol_round(
                    message=m, mode=DetectionMode.IMPROVED,
                    strategy=NoAttack(), rng=rng, d_z=n, d_x=n,
                    record_transcript=False,
                )
                ok = ok and not result.aborted and result.accepted
    report(capsys, "1 correctness", ok)


def test_verification_table_oracle(capsys):
    expected_pass = {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    passed = set()
    failed = set()
    for combo in itertools.product((0, 1), repeat=3):
        g, t, b = combo
        outcome = trent_verify((g,), (t,), (b,))
        (passed if outcome.verdict else failed).add(combo)
    ok = passed == expected_pass and len(failed) == 4
    report(capsys, "2 verification-table", ok)


def test_forgery_bound(capsys):
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 4, 8):
        config = ScenarioConfig(
            n=n, trials=1_000_000, seed=500 + n, attack=parse_attack("forge")
        )
        stats, _ = run_trials(config)
        p = 0.5 ** n
        ok = ok and abs(stats.forgery_acceptance_rate - p) < binomial_3sigma(
            p, config.trials
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(capsys, "3 forgery-bound", ok)


def test_ciphertext_blindness(capsys):
    rng = np.random.default_rng(9)
    ok = True
    for n in (1, 4, 16):
        m = tuple(int(b) for b in rng.integers(0, 2, size=n))
        m_prime = tuple(1 - b for b in m)
        rep = density_check(m, m_prime)
        ok = (
            ok
            and rep.max_deviation_from_mixed <= 1e-12
            and rep.max_trace_distance <= 1e-12
            and rep.decoy_mixture_deviation <= 1e-12
        )
    report(capsys, "4 ciphertext-blindness", ok)


def _abort_rate(attack: str, mode: DetectionMode, trials: int, seed: int,
                n: int = 2, d_z: int | None = None, d_x: int | None = None) -> float:
    config = ScenarioConfig(
        n=n, d_z=d_z, d_x=d_x, mode=mode, attack=parse_attack(attack),
        trials=trials, seed=seed,
    )
    stats, _ = run_trials(config)
    return stats.detection_aborts / stats.trials_run


def test_detection_separation_flip_then_unflip(capsys):
    ok = _abort_rate("pauli_x_tamper", DetectionMode.IMPROVED, 300, 1) == 1.0
    ok = ok and _abort_rate(
        "pauli_x_tamper", DetectionMode.MEASURE_THEN_RETURN, 300, 2
    ) == 0.0
    ok = ok and _abort_rate(
        "pauli_x_tamper", DetectionMode.DIRECT_REFLECTION, 300, 3
    ) == 0.0
    report(capsys, "5a bit-flip separation", ok)


def test_detection_separation_reflection_blind_spot(capsys):
    ok = True
    for i, u in enumerate(("X", "Z", "H")):
        rate = _abort_rate(
            f"unitary_tamper_then_undo:{u}", DetectionMode.DIRECT_REFLECTION,
            300, 10 + i,
        )
        ok = ok and rate == 0.0
    report(capsys, "5b reflection blind spot", ok)


def test_detection_intercept_continue_probability(capsys):
    ok = True
    trials = 100_000
    for d_x in (1, 2, 4, 8, 16):
        config = ScenarioConfig(
            n=1, d_z=1, d_x=d_x, attack=parse_attack("intercept_resend_z"),
            trials=trials, seed=700 + d_x,
        )
        stats, _ = run_trials(config)
        continue_rate = 1.0 - stats.detection_aborts / stats.trials_run
        p = 0.5 ** d_x
        ok = ok and abs(continue_rate - p) < binomial_3sigma(p, trials)
    report(capsys, "5c intercept continue-probability", ok)


def _probe_round_detection_oracle(records: list[tuple[Basis, int]]) -> float:
    """Brute-force outcome enumeration for one probed detection round.

    Each decoy is coupled to a fresh |0> ancilla by a controlled-NOT.
    Z-decoys are measured by the receiver (compared against the record),
    the ancilla is measured, and the sender remeasures in the recorded
    basis. The round is clean only if every comparison matches.
    """
    no_error = 1.0
    for basis, bit in records:
        joint = tensor([
            prepare_single(basis, bit),
            prepare_single(Basis.Z, 0),
        ])
        joint = apply_unitary(joint, Gate(CNOT), (0, 1))
        receiver_branches = (
            measurement_branches(joint, 0, Basis.Z)
            if basis is Basis.Z else ((1.0, joint), (0.0, None))
        )
        clean = 0.0
        for recv_bit, (p_recv, state_recv) in enumerate(receiver_branches):
            if state_recv is None or p_recv == 0.0:
                continue
            if basis is Basis.Z and recv_bit != bit:
                continue  # receiver comparison already failed
            for p_eve, state_eve in measurement_branches(state_recv, 1, Basis.Z):
                if state_eve is None or p_eve == 0.0:
                    continue
                final = measurement_branches(state_eve, 0, basis)
                p_match = final[bit][0]
                clean += p_recv * p_eve * p_match
        no_error *= clean
    return 1.0 - no_error


def test_entangle_probe_matches_enumeration_oracle(capsys):
    ok = True
    trials = 100_000
    for d_x, seed in ((1, 900), (2, 901)):
        # One Z-decoy plus d_x X-decoys: d <= 3 decoys in total.
        records = [(Basis.Z, 1)] + [(Basis.X, 0)] * d_x
        p_oracle = _probe_round_detection_oracle(records)
        config = ScenarioConfig(
            n=1, d_z=1, d_x=d_x, attack=parse_attack("entangle_probe"),
            trials=trials, seed=seed,
        )
        stats, _ = run_trials(config)
        rate = stats.detection_aborts / stats.trials_run
        ok = ok and p_oracle > 0.0
        ok = ok and abs(rate - p_oracle) < binomial_3sigma(p_oracle, trials)
    report(capsys, "6 entangle-probe oracle", ok)


def test_tamper_detectability(capsys):
    ok = True
    rng = np.random.default_rng(42)
    for positions in ((0,), (1, 3), (0, 1, 2, 3)):
        for trial in range(50):
            trial_rng = np.random.default_rng(rng.integers(0, 2 ** 32))
            m = tuple(int(b) for b in trial_rng.integers(0, 2, size=4))
            result = run_protocol_round(
                message=m, mode=DetectionMode.IMPROVED,
                strategy=strategy_factory(parse_attack(
                    "tamper_b:" + ",".join(str(p) for p in positions)
                ))(),
                rng=trial_rng, d_z=4, d_x=4, record_transcript=False,
            )
            ok = (
                ok
                and not result.outcome.verdict
                and result.outcome.failing_positions == positions
                and not result.accepted
            )
    for positions in ((0,), (2, 5), (7,)):
        for trial in range(50):
            trial_rng = np.random.default_rng(rng.integers(0, 2 ** 32))
            m = tuple(int(b) for b in trial_rng.integers(0, 2, size=8))
            result = run_protocol_round(
                message=m, mode=DetectionMode.IMPROVED,
                strategy=strategy_factory(parse_attack(
                    "tamper_m:" + ",".join(str(p) for p in positions)
                ))(),
                rng=trial_rng, d_z=8, d_x=8, record_transcript=False,
            )
            ok = ok and result.outcome.verdict and not result.accepted
    report(capsys, "7 tamper detectability", ok)


def test_qubit_efficiency_constant(capsys):
    ok = all(
        compute_efficiency(n).eta == Fraction(1, 3) for n in (1, 8, 64, 256)
    )
    report(capsys, "8 qubit efficiency", ok)


def test_infrastructure_properties(capsys):
    # Reproducibility: byte-identical reports for a fixed seed.
    def render() -> str:
        config = ScenarioConfig(
            n=4, trials=25, seed=77, attack=parse_attack("intercept_resend_z")
        )
        stats, transcript = run_trials(config)
        return emit_report(stats, transcript, format="jsonl")

    ok = render() == render()

    # Capability enforcement and pad non-reuse over the attack/mode grid.
    for attack_text in MATRIX_ATTACKS:
        for mode in MATRIX_MODES:
            for seed in range(5):
                rng = np.random.default_rng(10_000 + seed)
                result = run_protocol_round(
                    message=(1, 0), mode=mode,
                    strategy=strategy_factory(parse_attack(attack_text))(),
                    rng=rng, d_z=2, d_x=2, record_transcript=False,
                )
                for party in (result.bob, result.trent):
                    ok = ok and set(party.op_log) <= CLASSICAL_ALLOWED
                ranges = sorted(
                    (seg.start, seg.stop) for seg in result.store.segments
                )
                for (_, a_stop), (b_start, _) in zip(ranges, ranges[1:]):
                    ok = ok and a_stop <= b_start
    report(capsys, "9 infrastructure", ok)
