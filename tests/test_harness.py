"""Scenario parsing, Monte Carlo aggregation, reports, and CLI tests."""

import json
import re
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqsig import harness
from sqsig.adversary import QubitProbe
from sqsig.cli import main
from sqsig.detection import CHECKS, DetectionMode, DetectionReport
from sqsig.harness import (
    ATTACKS,
    AttackSpec,
    ConfigError,
    RNG_SCHEME,
    ScenarioConfig,
    attack_spec_text,
    compute_efficiency,
    density_check,
    emit_report,
    load_scenario,
    parse_attack,
    run_trials,
    strategy_factory,
)
from sqsig.keys import random_bits
from sqsig.protocol import TrialResult, run_protocol_round


_positions = st.lists(st.integers(0, 99), min_size=1, max_size=4).map(tuple)
_ARGS = {
    "unitary_tamper_then_undo": st.sampled_from("XYZH"),
    # The default timing, after_return, parses to None.
    "entangle_probe": st.sampled_from(
        [None] + [t for t in QubitProbe.READ_TIMES if t != "after_return"]),
    "tamper_b": _positions,
    "tamper_m": _positions,
}
attack_specs = st.sampled_from(sorted(ATTACKS)).flatmap(
    lambda name: _ARGS.get(name, st.none()).map(
        lambda arg: AttackSpec(name=name, arg=arg))
)


def write_scenario(tmp_path, text, name="scenario.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseAttack:
    def test_plain_names(self):
        assert parse_attack("none").name == "none"
        assert parse_attack("intercept_resend_z").name == "intercept_resend_z"

    def test_unitary_argument(self):
        spec = parse_attack("unitary_tamper_then_undo:H")
        assert spec.arg == "H"

    def test_unitary_requires_named_gate(self):
        with pytest.raises(ConfigError):
            parse_attack("unitary_tamper_then_undo:Q")

    def test_position_lists(self):
        assert parse_attack("tamper_b:0,3,1").arg == (0, 3, 1)
        assert parse_attack("tamper_m:2").arg == (2,)

    def test_positions_required(self):
        with pytest.raises(ConfigError):
            parse_attack("tamper_b")

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigError) as err:
            parse_attack("quantum_hammer")
        assert "intercept_resend_z" in str(err.value)

    def test_probe_time_argument(self):
        assert parse_attack("entangle_probe:immediate").arg == "immediate"
        # Timings are case-insensitive, as gate names are.
        assert parse_attack("entangle_probe:IMMEDIATE").arg == "immediate"
        assert parse_attack("entangle_probe:After_Return").arg is None
        assert parse_attack("unitary_tamper_then_undo:h").arg == "H"

    @given(attack_specs)
    @example(AttackSpec(name="entangle_probe", arg="immediate"))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_text(self, spec):
        assert parse_attack(attack_spec_text(spec)) == spec
        for text in ("none", "unitary_tamper_then_undo:Z", "tamper_b:1,2",
                     "entangle_probe:immediate"):
            assert attack_spec_text(parse_attack(text)) == text
        default = parse_attack("entangle_probe:after_return")
        assert default == parse_attack("entangle_probe")
        assert attack_spec_text(default) == "entangle_probe"

    def test_strategy_factory_makes_fresh_instances(self):
        make = strategy_factory(parse_attack("entangle_probe"))
        a, b = make(), make()
        assert a is not b and a.pending is not b.pending

    def test_forge_has_no_strategy(self):
        with pytest.raises(ConfigError, match="own experiment"):
            strategy_factory(parse_attack("forge"))


class TestLoadScenario:
    def test_minimal_with_defaults(self, tmp_path):
        config = load_scenario(write_scenario(tmp_path, "n = 8\nattack = none\n"))
        assert config.n == 8
        assert config.d_z == 8 and config.d_x == 8
        assert config.mode is DetectionMode.IMPROVED
        assert config.threshold == 0.0 and config.noise_p == 0.0
        assert config.trials == 1 and config.seed == 0
        assert config.message is None

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# a comment\n\nn = 4  # trailing\ntrials = 3\n"
        assert load_scenario(write_scenario(tmp_path, text)).trials == 3

    def test_explicit_message(self, tmp_path):
        config = load_scenario(write_scenario(tmp_path, "n = 4\nmessage = 1010\n"))
        assert config.message == bytes((1, 0, 1, 0))

    def test_values_case_insensitive(self, tmp_path):
        text = "n = 2\nmode = IMPROVED\nmessage = RANDOM\n"
        config = load_scenario(write_scenario(tmp_path, text))
        assert config.mode is DetectionMode.IMPROVED
        assert config.message is None

    @pytest.mark.parametrize("text, error", [
        ("n = abc\n", "n must be an integer"),
        ("n = 2\nthreshold = x\n", "threshold must be a number"),
        ("n = 2\nmessage = 1x\n", "message must be a bit string or 'random'"),
    ])
    def test_bad_value_named(self, tmp_path, text, error):
        with pytest.raises(ConfigError, match=re.escape(error)):
            load_scenario(write_scenario(tmp_path, text))

    def test_threshold_out_of_range(self, tmp_path):
        with pytest.raises(ConfigError, match="threshold"):
            load_scenario(write_scenario(tmp_path, "n = 2\nthreshold = 1.5\n"))

    def test_unknown_attack(self, tmp_path):
        with pytest.raises(ConfigError, match="valid kinds"):
            load_scenario(write_scenario(tmp_path, "n = 2\nattack = warp\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_scenario(write_scenario(tmp_path, "n = 2\ncolour = red\n"))

    def test_unknown_mode_lists_choices(self, tmp_path):
        with pytest.raises(ConfigError, match="valid modes"):
            load_scenario(write_scenario(tmp_path, "n = 2\nmode = telepathy\n"))

    def test_missing_n(self, tmp_path):
        with pytest.raises(ConfigError, match="'n'"):
            load_scenario(write_scenario(tmp_path, "trials = 5\n"))

    def test_parse_error_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match=":2:"):
            load_scenario(write_scenario(tmp_path, "n = 2\nnot a pair\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            load_scenario(write_scenario(tmp_path, "n = 2\nn = 3\n"))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_scenario("/nonexistent/scenario.txt")

    def test_message_length_mismatch(self, tmp_path):
        with pytest.raises(ConfigError, match="message"):
            load_scenario(write_scenario(tmp_path, "n = 4\nmessage = 10\n"))

    def test_small_d_z_rejected_for_embedding(self, tmp_path):
        with pytest.raises(ConfigError, match="d_z"):
            load_scenario(write_scenario(tmp_path, "n = 4\nd_z = 2\n"))


class TestRunTrials:
    def test_honest_runs_all_accept(self):
        config = ScenarioConfig(n=8, trials=40, seed=5)
        stats, transcript = run_trials(config)
        assert stats.trials_run == 40
        assert stats.detection_aborts == 0
        assert stats.trent_yes == stats.bob_accepts == 40
        assert stats.error_rate_means["bob_z"] == 0.0
        assert transcript  # first trial retained

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 40])
    def test_trial_is_its_jump_ahead_substream(self, monkeypatch, seed):
        # Trial i is a round run alone on PCG64(seed) advanced by i * 2**64,
        # its random message drawn first: the same message, key, report and
        # party ops, and the generator left in the same state.
        def seen(result, rng):
            return (result.store.key_bits, result.detection,
                    [p.op_log for p in (result.alice, result.bob, result.trent)],
                    rng.bit_generator.state)

        trials = []

        def recording_round(**kwargs):
            result = run_protocol_round(**kwargs)
            trials.append((kwargs["message"], *seen(result, kwargs["rng"])))
            return result

        monkeypatch.setattr(harness, "run_protocol_round", recording_round)
        config = ScenarioConfig(n=3, mode=DetectionMode.IMPROVED_INLINE_OTP,
                                attack=parse_attack("entangle_probe"),
                                noise_p=0.1, threshold=1.0, trials=6, seed=seed)
        run_trials(config)
        assert len(trials) == 6
        for i, trial in enumerate(trials):
            rng = np.random.Generator(np.random.PCG64(seed).advance(i << 64))
            message = random_bits(rng, config.n)
            alone = run_protocol_round(
                message=message, mode=config.mode,
                strategy=strategy_factory(config.attack)(), rng=rng,
                d_z=config.d_z, d_x=config.d_x, threshold=config.threshold,
                noise_p=config.noise_p, record_transcript=False,
            )
            assert trial == (message, *seen(alone, rng))

    def test_shorter_run_is_a_prefix(self):
        def records(trials):
            config = ScenarioConfig(n=2, attack=parse_attack("intercept_resend_z"),
                                    trials=trials, seed=4)
            return run_trials(config)[0].per_trial

        assert records(5)[:3] == records(3)

    def test_constant_rate_has_zero_variance(self, monkeypatch):
        # A naive sumsq / m - mean**2 gives 3.15e-15 here; Welford's update 0.
        report = DetectionReport(bob_z_errors=1, bob_z_checked=3,
                                 alice_z_errors=1, alice_z_checked=3,
                                 alice_x_errors=1, alice_x_checked=3)
        result = TrialResult(detection=report, aborted=False, outcome=None,
                             accepted=False, alice=None, bob=None, trent=None,
                             store=None, transcript=[])
        monkeypatch.setattr(harness, "run_protocol_round", lambda **_: result)
        stats, _ = run_trials(ScenarioConfig(n=1, trials=1000, seed=0))
        # The means stay sums / m, the rates added in trial order.
        mean = reduce(add, [1 / 3] * 1000) / 1000
        assert stats.error_rate_means == dict.fromkeys(CHECKS, mean)
        assert stats.error_rate_vars == dict.fromkeys(CHECKS, 0.0)

    @pytest.mark.parametrize("mode", list(DetectionMode))
    def test_generator_calls_per_trial_do_not_grow_with_n(self, monkeypatch, mode):
        # Each stage makes one draw whatever its qubit count; a noisy round
        # under a probe, at a threshold that never aborts, runs every stage.
        def calls(n):
            counts = Counter()

            class Counting:
                def __init__(self, bit_generator):
                    self.rng = np.random.default_rng(bit_generator)

                def __getattr__(self, name):
                    counts[name] += 1
                    return getattr(self.rng, name)

            monkeypatch.setattr(np.random, "Generator", Counting)
            config = ScenarioConfig(n=n, mode=mode, attack=parse_attack("entangle_probe"),
                                    noise_p=0.1, threshold=1.0, trials=1, seed=3)
            stats, _ = run_trials(config)
            monkeypatch.undo()
            assert stats.detection_aborts == 0
            return counts

        assert calls(64) == calls(1)

    def test_bit_flip_attack_always_aborts(self):
        config = ScenarioConfig(
            n=4, trials=30, seed=6, attack=parse_attack("pauli_x_tamper")
        )
        stats, _ = run_trials(config)
        assert stats.detection_aborts == 30
        assert stats.error_rate_means["bob_z"] == 1.0

    def test_forgery_path_sets_rate(self):
        config = ScenarioConfig(
            n=2, trials=20_000, seed=7, attack=parse_attack("forge")
        )
        stats, _ = run_trials(config)
        p = 0.25
        assert stats.forgery_acceptance_rate is not None
        assert abs(stats.forgery_acceptance_rate - p) < 3 * np.sqrt(
            p * (1 - p) / config.trials
        )

    def test_reproducible_statistics(self):
        config = ScenarioConfig(
            n=3, trials=10, seed=9, attack=parse_attack("intercept_resend_z")
        )
        a, _ = run_trials(config)
        b, _ = run_trials(config)
        assert a.per_trial == b.per_trial
        assert a.detection_aborts == b.detection_aborts

    @pytest.mark.parametrize("attack, same_as", [
        ("intercept_resend_z", "entangle_probe:immediate"),
        ("pauli_x_tamper", "unitary_tamper_then_undo:X"),
    ])
    @pytest.mark.parametrize("mode", list(DetectionMode))
    @pytest.mark.parametrize("n, seed", [(1, 3), (4, 8)])
    def test_probe_equivalences(self, attack, same_as, mode, n, seed):
        # A Z read of an ancilla CNOT-coupled and read at once is a Z read
        # of the qubit itself; pauli_x_tamper is tamper-then-undo with X.
        def records(text):
            config = ScenarioConfig(n=n, mode=mode, attack=parse_attack(text),
                                    trials=100, seed=seed)
            stats, _ = run_trials(config)
            lines = emit_report(stats, [], format="jsonl").splitlines()
            records = [json.loads(line) for line in lines[1:]]  # no config line
            del records[-1]["config"]  # the summary echoes the config too
            return records

        assert records(attack) == records(same_as)

    def test_fixed_message_honored(self):
        config = ScenarioConfig(n=2, message=(1, 1), trials=5, seed=1)
        stats, _ = run_trials(config)
        assert stats.bob_accepts == 5

    def test_aborts_plus_completions_balance(self):
        config = ScenarioConfig(
            n=2, trials=50, seed=11, attack=parse_attack("intercept_resend_z")
        )
        stats, _ = run_trials(config)
        completed = stats.trent_yes + sum(
            1 for rec in stats.per_trial
            if not rec["aborted"] and not rec["trent_yes"]
        )
        assert stats.detection_aborts + completed == stats.trials_run

    def test_noise_monotonicity(self):
        rates = []
        for noise_p in (0.0, 0.02, 0.2):
            config = ScenarioConfig(n=2, trials=60, seed=13, noise_p=noise_p)
            stats, _ = run_trials(config)
            rates.append(stats.detection_aborts / stats.trials_run)
        assert rates[0] == 0.0
        assert rates[0] <= rates[1] <= rates[2]
        assert rates[2] > rates[0]


class TestScenarioValidation:
    def test_trials_floor(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(n=2, trials=0)

    def test_n_floor_except_forgery(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(n=0)
        config = ScenarioConfig(n=0, attack=parse_attack("forge"), trials=3)
        stats, _ = run_trials(config)
        assert stats.forgery_acceptance_rate == 1.0  # empty conjunction

    def test_noise_range(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(n=2, noise_p=1.0)


class TestEfficiency:
    def test_one_third_exact(self):
        for n in (1, 7, 64):
            eff = compute_efficiency(n)
            assert eff.eta == Fraction(1, 3)
            assert (eff.c, eff.q, eff.b) == (n, 2 * n, n)

    def test_with_digest_at_matching_length(self):
        eff = compute_efficiency(256)
        assert eff.eta_with_digest == Fraction(256, 512 + 256 + 256)
        assert float(eff.eta_with_digest) == 0.25

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            compute_efficiency(0)


class TestDensityCheck:
    def test_deviation_and_distance_bounds(self):
        report = density_check((0, 1, 1, 0), (1, 1, 0, 0))
        assert report.max_deviation_from_mixed <= 1e-12
        assert report.max_trace_distance <= 1e-12
        assert report.decoy_mixture_deviation <= 1e-12

    def test_identical_messages_identical_report(self):
        m = (1, 0, 1)
        a = density_check(m, m)
        b = density_check(m, m)
        assert a == b

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            density_check((0, 1), (0,))


class TestEmitReport:
    def _stats(self, **overrides):
        config = ScenarioConfig(n=2, trials=4, seed=2, **overrides)
        return config, run_trials(config)

    def test_record_per_line_structure(self):
        config, (stats, transcript) = self._stats()
        lines = emit_report(stats, transcript, format="jsonl").strip().split("\n")
        # one config record, one per trial, one summary
        assert len(lines) == 1 + 4 + 1
        assert '"record": "config"' in lines[0]
        assert '"record": "summary"' in lines[-1]

    def test_deterministic_across_runs(self):
        for fmt in ("jsonl", "tsv"):
            _, (stats_a, tr_a) = self._stats()
            _, (stats_b, tr_b) = self._stats()
            assert emit_report(stats_a, tr_a, format=fmt) == emit_report(
                stats_b, tr_b, format=fmt
            )

    def test_human_report_contents(self):
        _, (stats, transcript) = self._stats()
        text = emit_report(stats, transcript, format="human")
        for needle in ("trials run", "detection aborts", "qubit efficiency",
                       "3-sigma CI", "seed"):
            assert needle in text

    @pytest.mark.parametrize("overrides", [
        {"n": 0, "attack": "forge"},
        {"attack": "forge"},
        {"attack": "intercept_resend_z"},
        {"noise_p": 0.05, "threshold": 0.25},
    ], ids=["forge/n0", "forge", "intercept_resend_z", "noise"])
    def test_formats_agree(self, overrides):
        # The tsv and human reports print the jsonl summary's values, each at
        # its own precision; tsv leaves out the means and variances.
        overrides = {"n": 2, **overrides}
        if "attack" in overrides:
            overrides["attack"] = parse_attack(overrides["attack"])
        stats, transcript = run_trials(ScenarioConfig(trials=20, seed=7, **overrides))
        report = {fmt: emit_report(stats, transcript, format=fmt).splitlines()
                  for fmt in ("jsonl", "tsv", "human")}
        summary = json.loads(report["jsonl"][-1])
        echo = summary.pop("config")
        del summary["record"]

        def tsv_text(value):
            if isinstance(value, list):
                return ",".join(f"{x:.9f}" for x in value)
            return f"{value:.9f}" if isinstance(value, float) else str(value)

        rows = [line.split("\t") for line in report["tsv"]]
        assert rows[0] == ["metric", "value"]
        config_rows = [row for row in rows[1:] if row[0].startswith("config.")]
        assert dict(config_rows) == {f"config.{k}": str(v) for k, v in echo.items()}
        metrics = rows[1 + len(config_rows):]
        for metric, value in metrics:
            head, _, sub = metric.partition(".")
            assert value == tsv_text(summary[head][sub] if sub else summary[head]), metric
        assert {m.partition(".")[0] for m, _ in metrics} == {
            key for key in summary if not key.endswith(("_mean", "_var"))}

        human = report["human"]
        blank = human.index("")
        assert dict(line.split(": ", 1) for line in human[1:blank]) == {
            f"{k:>12}": str(v) for k, v in echo.items()}
        body = human[blank + 1:]
        body = body[:body.index("")] if "" in body else body
        lines = dict(line.split(": ", 1) for line in body)
        assert lines.pop("wall time (s)     ")
        expected = {f"{label:<18}": str(summary[key]) for label, key in (
            ("trials run", "trials_run"), ("detection aborts", "detection_aborts"),
            ("trent yes", "trent_yes"), ("bob accepts", "bob_accepts"))}
        for k in CHECKS:
            lo, hi = summary[f"{k}_rate_ci3"]
            expected[f"{k:>8} rate     "] = (
                f"{summary[f'{k}_rate']:.6f} (3-sigma CI [{lo:.6f}, {hi:.6f}])")
        if "forgery_acceptance_rate" in summary:
            expected["forgery accept    "] = f"{summary['forgery_acceptance_rate']:.3e}"
        if "efficiency" in summary:
            eff = summary["efficiency"]
            expected["qubit efficiency  "] = (
                f"{eff['eta']:.6f} (with digest: {eff['eta_with_digest']:.6f})")
        assert lines == expected

    def test_forge_trial_records(self):
        config = ScenarioConfig(n=2, trials=40, seed=3, attack=parse_attack("forge"))
        stats, transcript = run_trials(config)
        lines = emit_report(stats, transcript, format="jsonl").splitlines()
        trials = [json.loads(line) for line in lines[1:-1]]
        assert [sorted(rec) for rec in trials] == [["accepted", "record", "trial"]] * 40
        assert [rec["trial"] for rec in trials] == list(range(40))
        accepted = sum(rec["accepted"] for rec in trials)
        assert accepted / 40 == stats.forgery_acceptance_rate

    def test_unknown_format_rejected(self):
        _, (stats, transcript) = self._stats()
        with pytest.raises(ValueError):
            emit_report(stats, transcript, format="yaml")


def reference_records(config):
    """Each trial's record built the way the per-trial loop once built it:
    one dict a trial, from the round run alone on its substream (or, for
    forge, from the run's whole g, T and B draws)."""
    if config.attack.name == "forge":
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        shape = (config.trials, config.n)
        g, t, b = (rng.integers(0, 2, size=shape, dtype=np.uint8) for _ in range(3))
        return [{"accepted": bool(np.array_equal(bi, ti ^ gi))} for gi, ti, bi in zip(g, t, b)]
    records = []
    for i in range(config.trials):
        rng = np.random.Generator(np.random.PCG64(config.seed).advance(i << 64))
        message = config.message
        if message is None:
            message = random_bits(rng, config.n)
        result = run_protocol_round(
            message=message, mode=config.mode,
            strategy=strategy_factory(config.attack)(), rng=rng,
            d_z=config.d_z, d_x=config.d_x, threshold=config.threshold,
            noise_p=config.noise_p, record_transcript=False,
        )
        report = result.detection
        rates = {}
        for k in CHECKS:
            errors, checked = (getattr(report, f"{k}_{c}") for c in ("errors", "checked"))
            rates[f"{k}_rate"] = errors / checked if checked else 0.0
        records.append({
            "aborted": result.aborted,
            "trent_yes": bool(result.outcome.verdict) if result.outcome else False,
            "accepted": result.accepted,
            **rates,
        })
    return records


class TestTrialRecords:
    """`per_trial` reads back, as dicts, what a per-trial loop builds, and
    each jsonl trial line is `json.dumps` of its record."""

    @pytest.mark.parametrize("config", [
        # noisy, some trials with errors that a threshold of 0 aborts
        ScenarioConfig(n=2, noise_p=0.1, trials=30, seed=13),
        # thresholded: errors counted, rates kept, rounds continue
        ScenarioConfig(n=2, d_x=3, attack=parse_attack("intercept_resend_z"),
                       threshold=0.5, trials=30, seed=5),
        # aborting, with a fixed message, under every check
        ScenarioConfig(n=1, message=b"\x01", mode=DetectionMode.IMPROVED_INLINE_OTP,
                       attack=parse_attack("entangle_probe"), trials=30, seed=2),
        ScenarioConfig(n=2, mode=DetectionMode.DIRECT_REFLECTION,
                       attack=parse_attack("tamper_b:1"), trials=20, seed=8),
        ScenarioConfig(n=0, attack=parse_attack("forge"), trials=10, seed=4),
        ScenarioConfig(n=2, attack=parse_attack("forge"), trials=50, seed=4),
    ], ids=["noisy", "thresholded", "aborting", "trent_no", "forge_n0", "forge"])
    def test_records_equal_the_reference_loop(self, config):
        stats, transcript = run_trials(config)
        expected = reference_records(config)
        records = stats.per_trial
        assert len(records) == len(expected) == stats.trials_run
        # Same keys in the same order, same types, same values.
        for got in (list(records), [records[i] for i in range(len(records))]):
            assert [list(rec.items()) for rec in got] == [list(r.items()) for r in expected]
            assert [[type(v) for v in rec.values()] for rec in got] == [
                [type(v) for v in r.values()] for r in expected]
        assert records == expected and expected == records
        assert records[3:7] == expected[3:7] and records[-1] == expected[-1]
        assert records[::-2] == expected[::-2]
        with pytest.raises(IndexError):
            records[len(expected)]
        with pytest.raises(TypeError):
            records[0] = expected[0]
        if config.attack.name == "forge":
            assert sum(r["accepted"] for r in expected) / config.trials == (
                stats.forgery_acceptance_rate)
        else:
            assert (stats.detection_aborts, stats.trent_yes, stats.bob_accepts) == tuple(
                sum(r[key] for r in expected) for key in ("aborted", "trent_yes", "accepted"))
        lines = emit_report(stats, transcript, format="jsonl").splitlines()
        assert lines[1:-1] == [
            json.dumps({"record": "trial", "trial": i, **rec}, sort_keys=True)
            for i, rec in enumerate(expected)]

    def test_equal_runs_compare_equal(self):
        config = ScenarioConfig(n=2, attack=parse_attack("intercept_resend_z"),
                                trials=12, seed=3)
        a, b = run_trials(config)[0].per_trial, run_trials(config)[0].per_trial
        assert a == b and list(a) == list(b)
        other = run_trials(ScenarioConfig(n=2, attack=parse_attack("intercept_resend_z"),
                                          trials=12, seed=4))[0].per_trial
        assert a != other and a != list(other)
        assert a != list(a)[:-1]


class TestCli:
    def test_run_writes_report(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, "n = 2\ntrials = 3\n")
        out = tmp_path / "report.txt"
        assert main(["run", scenario, "--out", str(out)]) == 0
        assert "trials run" in out.read_text()

    def test_run_stdout_jsonl(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, "n = 2\ntrials = 2\n")
        assert main(["run", scenario, "--format", "jsonl"]) == 0
        assert '"record": "summary"' in capsys.readouterr().out

    def test_flag_overrides(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, "n = 2\ntrials = 2\nseed = 1\n")
        assert main(["run", scenario, "--trials", "5", "--format", "jsonl"]) == 0
        assert '"trials_run": 5' in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, "n = 2\nthreshold = 7\n")
        assert main(["run", scenario]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "n = 2\nattack = entangle_probe:bogus\n",
        "n = 2\nattack = tamper_b:9\n",
        "n = 2\nattack = tamper_m:-1\n",
        "n = 1\nd_x = 65535\n",  # decoy positions overflow the 16-bit field
        "n = 2\nd_x = -1\n",
        "n = 2\nd_z = 1\nmode = direct_reflection\n",
        "n = -1\nd_x = 0\nattack = forge\n",
        "n = 2\nattack = pauli_x_tamper:1\n",
        "n = 2\nseed = -1\n",
        "n = abc\n",
        "n = 2\nthreshold = x\n",
        "n = 2\nmessage = 1x\n",
    ])
    def test_bad_scenario_exit_code(self, tmp_path, capsys, text):
        assert main(["run", write_scenario(tmp_path, text)]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_rng_scheme_is_echoed_and_cannot_be_set(self, tmp_path, capsys):
        assert main(["run", write_scenario(tmp_path, "n = 2\n"), "--format", "jsonl"]) == 0
        config = json.loads(capsys.readouterr().out.splitlines()[0])
        assert config["rng_scheme"] == RNG_SCHEME == 2
        scenario = write_scenario(tmp_path, "n = 2\nrng_scheme = 2\n")
        assert main(["run", scenario]) == 1
        assert "unknown key 'rng_scheme'" in capsys.readouterr().err

    def test_negative_seed_flag_exit_code(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, "n = 2\n")
        assert main(["run", scenario, "--seed", "-5"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_matrix_negative_seed_exit_code(self, capsys):
        assert main(["matrix", "--n", "1", "--trials", "1", "--seed", "-1"]) == 1
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["matrix", "--n", "abc"],
        ["bogus"],
        ["run", "scenario.scn", "--format", "bogus"],
    ])
    def test_usage_error_exit_code(self, capsys, argv):
        assert main(argv) == 1
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["matrix", "--help"]])
    def test_help_exit_code(self, capsys, argv):
        assert main(argv) == 0
        assert "usage: sqsig" in capsys.readouterr().out

    def test_non_utf8_scenario_exit_code(self, tmp_path, capsys):
        path = tmp_path / "latin1.scn"
        path.write_bytes("n = 2  # caf\u00e9\n".encode("latin-1"))
        assert main(["run", str(path)]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        path = tmp_path / "bom.scn"
        path.write_bytes(b"\xef\xbb\xbfn=2\ntrials=1\n")
        assert main(["run", str(path), "--format", "jsonl"]) == 0
        assert '"n": 2' in capsys.readouterr().out

    def test_internal_error_exit_code(self, tmp_path, capsys, monkeypatch):
        # A failure inside the simulator is not a config problem.
        def broken(config):
            raise RuntimeError("invariant violated")

        monkeypatch.setattr("sqsig.cli.run_trials", broken)
        scenario = write_scenario(tmp_path, "n = 2\n")
        assert main(["run", scenario]) == 2
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("debug", [False, True])
    def test_debug_prints_traceback(self, tmp_path, capsys, monkeypatch, debug):
        def broken(config):
            raise RuntimeError("invariant violated")

        monkeypatch.setattr("sqsig.cli.run_trials", broken)
        scenario = write_scenario(tmp_path, "n = 2\n")
        assert main(["--debug", "run", scenario] if debug else ["run", scenario]) == 2
        err = capsys.readouterr().err
        assert "internal error: invariant violated" in err
        assert ("Traceback" in err) is debug

    def test_matrix_table(self, capsys):
        assert main(["matrix", "--n", "2", "--trials", "8", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "pauli_x_tamper" in out
        assert "DETECT" in out and "miss" in out

    def test_density_command(self, capsys):
        assert main(["density", "--n", "3"]) == 0
        assert "deviation" in capsys.readouterr().out

    def test_efficiency_command(self, capsys):
        assert main(["efficiency", "--n", "16"]) == 0
        assert "1/3" in capsys.readouterr().out

    def test_density_requires_positive_n(self, capsys):
        assert main(["density", "--n", "0"]) == 1


class TestReadme:
    def test_attack_specs_name_every_attack(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme.split("Attack specs:", 1)[1].split("\n\n", 1)[0]
        assert re.findall(r"`([a-z_]+)", paragraph) == list(ATTACKS)
