"""Benchmark workloads: their scenarios, one timed pass, and the checks.

A workload is built from a workload seed, from which every scenario seed is
derived. One pass runs all of the workload's scenarios back to back at a
fixed trial count, through the library calls that `sqsig run` and
`sqsig matrix` make. Every pass of a run repeats the same seeds, so each
pass does the same work and must produce the same bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sqsig import harness
from sqsig.detection import DetectionMode

# Trials per scenario (per matrix cell for attack_matrix) in one pass. The
# counts are fixed, so every pass answers to the same statistical accuracy
# on every commit; they are sized for a pass of about 1.5 s at the seed
# commit. --smoke uses the tiny counts to exercise the benchmark quickly.
TRIALS = {"mc_small_n": 500, "mc_large_n": 100, "attack_matrix": 40}
SMOKE_TRIALS = {"mc_small_n": 4, "mc_large_n": 2, "attack_matrix": 2}

# Probability that a correct simulator fails one binomial check, split
# evenly between the two exact binomial tails (about 5.3 sigma).
FALSE_ALARM = 1e-7

MATRIX_N = 4
MATRIX_MODES = ("improved", "improved_inline_otp", "measure_then_return", "direct_reflection")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class PassResult:
    """What one pass produced: its trial count and a digest of its output.

    `fingerprint` covers every emitted report (or every matrix row) and the
    run counts, so two passes with equal fingerprints produced equal bytes.
    """

    trials: int
    fingerprint: str
    summaries: list[dict]


def binomial_band(trials: int, p: float, alpha: float = FALSE_ALARM) -> tuple[int, int]:
    """Smallest [lo, hi] with P(X < lo) <= alpha/2 and P(X > hi) <= alpha/2.

    X ~ Binomial(trials, p), computed from the exact probability mass, so the
    band stays honest at p near 0 or 1 where a normal band is not.
    """
    if p <= 0.0:
        return 0, 0
    if p >= 1.0:
        return trials, trials
    log_p, log_q = math.log(p), math.log1p(-p)
    pmf = [
        math.exp(math.lgamma(trials + 1) - math.lgamma(k + 1)
                 - math.lgamma(trials - k + 1) + k * log_p + (trials - k) * log_q)
        for k in range(trials + 1)
    ]
    lo, below = 0, 0.0
    while below + pmf[lo] <= alpha / 2:
        below += pmf[lo]
        lo += 1
    hi, above = trials, 0.0
    while above + pmf[hi] <= alpha / 2:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def _band_check(name: str, hits: int, trials: int, p: float) -> Check:
    lo, hi = binomial_band(trials, p)
    return Check(name, lo <= hits <= hi,
                 f"{hits}/{trials}, expected p={p:g}, band [{lo}, {hi}]")


def _exact_check(name: str, got, want) -> Check:
    return Check(name, got == want, f"got {got}, want {want}")


def _summary(stats) -> dict:
    echo = stats.config.echo()
    return {
        "attack": echo["attack"],
        "mode": echo["mode"],
        "d_x": echo["d_x"],
        "trials": stats.trials_run,
        "aborts": stats.detection_aborts,
        "trent_yes": stats.trent_yes,
        "bob_accepts": stats.bob_accepts,
    }


@dataclass
class ReportWorkload:
    """Scenarios run as `sqsig run --format jsonl` runs them."""

    configs: list[harness.ScenarioConfig]
    check_fn: Callable[[list[dict]], list[Check]]

    def warm_up(self) -> None:
        config = dataclasses.replace(self.configs[0], trials=1)
        stats, transcript = harness.run_trials(config)
        harness.emit_report(stats, transcript, format="jsonl")

    def run_pass(self) -> PassResult:
        digest = hashlib.sha256()
        summaries = []
        for config in self.configs:
            # Looked up on the module at call time so the traced run's
            # wrappers are seen.
            stats, transcript = harness.run_trials(config)
            digest.update(harness.emit_report(stats, transcript, format="jsonl").encode())
            summaries.append(_summary(stats))
        digest.update(json.dumps(summaries, sort_keys=True).encode())
        trials = sum(s["trials"] for s in summaries)
        return PassResult(trials, digest.hexdigest(), summaries)

    def checks(self, result: PassResult) -> list[Check]:
        return self.check_fn(result.summaries)


@dataclass
class MatrixWorkload:
    """The attack x mode grid as `sqsig matrix` runs it; no report."""

    trials: int
    seed: int

    def warm_up(self) -> None:
        harness.run_trials(harness.ScenarioConfig(
            n=MATRIX_N, attack=harness.parse_attack("entangle_probe"),
            trials=1, seed=self.seed,
        ))

    def run_pass(self) -> PassResult:
        rows = harness.run_matrix(n=MATRIX_N, trials=self.trials, seed=self.seed)
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
        return PassResult(self.trials * len(rows), digest.hexdigest(), rows)

    def checks(self, result: PassResult) -> list[Check]:
        aborts = {
            (row["attack"], row["mode"]): round(row["abort_rate"] * self.trials)
            for row in result.summaries
        }
        exact = {("none", mode): 0 for mode in MATRIX_MODES}
        for mode in MATRIX_MODES:
            improved = mode in ("improved", "improved_inline_otp")
            exact[("pauli_x_tamper", mode)] = self.trials if improved else 0
        for u in "XZH":
            exact[(f"unitary_tamper_then_undo:{u}", "direct_reflection")] = 0
        out = [
            _exact_check(f"aborts/{attack}/{mode}", aborts[(attack, mode)], want)
            for (attack, mode), want in exact.items()
        ]
        # Every mode checks the d_x = n X-decoys, each of which a Z-basis
        # intercept or a CNOT probe flips with probability 1/2.
        for attack in ("intercept_resend_z", "entangle_probe"):
            for mode in MATRIX_MODES:
                out.append(_band_check(
                    f"continue_rate/{attack}/{mode}",
                    self.trials - aborts[(attack, mode)], self.trials,
                    0.5 ** MATRIX_N,
                ))
        return out


def _continue_rate_checks(summaries: list[dict]) -> list[Check]:
    # Intercept-resend continues with probability 2^-d_x. A CNOT probe never
    # flips a Z-decoy and flips each X-decoy with probability 1/2, so the
    # enumeration oracle of the acceptance suite gives the same 2^-d_x.
    return [
        _band_check(f"continue_rate/{s['attack']}/d_x={s['d_x']}",
                    s["trials"] - s["aborts"], s["trials"], 0.5 ** s["d_x"])
        for s in summaries
    ]


def _honest_checks(summaries: list[dict]) -> list[Check]:
    out = []
    for s in summaries:
        out.append(_exact_check(f"no_aborts/{s['mode']}", s["aborts"], 0))
        out.append(_exact_check(
            f"trent_yes=bob_accepts=trials/{s['mode']}",
            (s["trent_yes"], s["bob_accepts"]), (s["trials"], s["trials"]),
        ))
    return out


def build(name: str, seed: int, smoke: bool = False):
    """The named workload with every scenario seed derived from `seed`."""
    trials = (SMOKE_TRIALS if smoke else TRIALS)[name]
    seeds = iter(int(s) for s in np.random.SeedSequence(seed).generate_state(8))
    if name == "mc_small_n":
        sweep = [("intercept_resend_z", d_x) for d_x in (1, 2, 4, 8, 16)]
        sweep += [("entangle_probe", d_x) for d_x in (1, 2)]
        configs = [
            harness.ScenarioConfig(
                n=1, d_z=1, d_x=d_x, mode=DetectionMode.IMPROVED,
                attack=harness.parse_attack(attack), trials=trials, seed=next(seeds),
            )
            for attack, d_x in sweep
        ]
        return ReportWorkload(configs, _continue_rate_checks)
    if name == "mc_large_n":
        configs = [
            harness.ScenarioConfig(n=64, mode=mode, trials=trials, seed=next(seeds))
            for mode in (DetectionMode.IMPROVED, DetectionMode.IMPROVED_INLINE_OTP)
        ]
        return ReportWorkload(configs, _honest_checks)
    if name == "attack_matrix":
        return MatrixWorkload(trials, next(seeds))
    raise ValueError(f"unknown workload {name!r}")
