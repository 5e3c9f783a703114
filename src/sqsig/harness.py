"""Scenario loading, Monte Carlo execution, statistics, and reports."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .adversary import (
    _NAMED_UNITARIES,
    AttackStrategy,
    EntangleProbe,
    InterceptMeasureResendZ,
    NoAttack,
    PauliXTamper,
    TamperClassicalMessage,
    TamperSignatureB,
    UnitaryTamperThenUndo,
)
from .detection import CHECKS, POSITION_FIELD_BITS, DetectionMode
from .protocol import TrialResult, run_protocol_round
from .quantum import (
    Basis,
    DensityMatrix,
    partial_trace,
    prepare_bell,
    prepare_single,
    trace_distance,
)
from .roles import DEFAULT_DIGEST_BITS

Bits = tuple[int, ...]


class ConfigError(ValueError):
    """Scenario file failed to parse or violated a field invariant."""


# ---------------------------------------------------------------------------
# Attack specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackSpec:
    name: str
    unitary: str | None = None
    positions: tuple[int, ...] = ()
    probe_measure_time: str = "after_return"


def _no_argument(name: str, arg: str) -> AttackSpec:
    if arg:
        raise ConfigError(f"{name} takes no argument; got {arg!r}")
    return AttackSpec(name=name)


def _one_of(name: str, arg: str, choices: Sequence[str]) -> str:
    if arg not in choices:
        raise ConfigError(f"{name} needs one of {', '.join(choices)}; got {arg!r}")
    return arg


def _unitary(name: str, arg: str) -> AttackSpec:
    return AttackSpec(name=name, unitary=_one_of(name, arg.upper(), _NAMED_UNITARIES))


def _positions(name: str, arg: str) -> AttackSpec:
    if not arg:
        raise ConfigError(f"{name} needs a comma-separated position list")
    try:
        positions = tuple(int(p) for p in arg.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {name} positions {arg!r}") from exc
    return AttackSpec(name=name, positions=positions)


def _probe_time(name: str, arg: str) -> AttackSpec:
    if not arg:
        return AttackSpec(name=name)
    times = EntangleProbe.MEASURE_TIMES
    return AttackSpec(name=name, probe_measure_time=_one_of(name, arg, times))


def _no_strategy(spec: AttackSpec) -> AttackStrategy:
    raise ConfigError(f"{spec.name} runs its own experiment, not a channel strategy")


@dataclass(frozen=True)
class AttackKind:
    """How one attack is parsed from text, built, and written back."""

    parse: Callable[[str, str], AttackSpec]  # (name, argument) -> spec
    build: Callable[[AttackSpec], AttackStrategy]
    argument: Callable[[AttackSpec], str] = lambda spec: ""  # "" prints bare


def _positions_text(spec: AttackSpec) -> str:
    return ",".join(str(p) for p in spec.positions)


ATTACKS = {
    "none": AttackKind(_no_argument, lambda spec: NoAttack()),
    "intercept_resend_z": AttackKind(
        _no_argument, lambda spec: InterceptMeasureResendZ()),
    "unitary_tamper_then_undo": AttackKind(
        _unitary, lambda spec: UnitaryTamperThenUndo(spec.unitary),
        lambda spec: spec.unitary),
    "pauli_x_tamper": AttackKind(_no_argument, lambda spec: PauliXTamper()),
    "entangle_probe": AttackKind(
        _probe_time, lambda spec: EntangleProbe(spec.probe_measure_time),
        # The default timing prints bare.
        lambda spec: "" if spec == AttackSpec(spec.name) else spec.probe_measure_time),
    "forge": AttackKind(_no_argument, _no_strategy),
    "tamper_b": AttackKind(
        _positions, lambda spec: TamperSignatureB(spec.positions), _positions_text),
    "tamper_m": AttackKind(
        _positions, lambda spec: TamperClassicalMessage(spec.positions),
        _positions_text),
}


def parse_attack(text: str) -> AttackSpec:
    head, _, arg = text.strip().partition(":")
    head = head.lower()
    if head not in ATTACKS:
        raise ConfigError(
            f"unknown attack {head!r}; valid kinds: {', '.join(ATTACKS)}"
        )
    return ATTACKS[head].parse(head, arg)


def build_strategy(spec: AttackSpec) -> AttackStrategy:
    """Fresh strategy instance (adversary memory is per-run)."""
    return ATTACKS[spec.name].build(spec)


def attack_spec_text(spec: AttackSpec) -> str:
    arg = ATTACKS[spec.name].argument(spec)
    return f"{spec.name}:{arg}" if arg else spec.name


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    n: int
    message: Bits | None = None  # None = fresh random message per trial
    d_z: int | None = None
    d_x: int | None = None
    mode: DetectionMode = DetectionMode.IMPROVED
    attack: AttackSpec = field(default_factory=lambda: AttackSpec(name="none"))
    trials: int = 1
    seed: int = 0
    threshold: float = 0.0
    noise_p: float = 0.0
    output: str | None = None

    def __post_init__(self) -> None:
        if self.d_z is None:
            self.d_z = self.n
        if self.d_x is None:
            self.d_x = self.n
        self.validate()

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials: must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.n < (0 if self.attack.name == "forge" else 1):
            raise ConfigError("n: must be >= 1 (>= 0 for forge)")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold: {self.threshold} not in [0,1]")
        if not 0.0 <= self.noise_p < 1.0:
            raise ConfigError(f"noise_p: {self.noise_p} not in [0,1)")
        if self.message is not None and len(self.message) != self.n:
            raise ConfigError("message: length must equal n")
        if self.d_z < self.n:
            raise ConfigError("d_z: must be >= n to embed the message")
        if self.d_x < 0:
            raise ConfigError("d_x: must be >= 0")
        if self.n + self.d_z + self.d_x > 1 << POSITION_FIELD_BITS:
            raise ConfigError(f"n + d_z + d_x: must fit {POSITION_FIELD_BITS}-bit positions")
        bad = [p for p in self.attack.positions if not 0 <= p < self.n]
        if bad:
            raise ConfigError(f"attack: positions {bad} not in [0, {self.n})")

    def echo(self) -> dict:
        return {
            "n": self.n,
            "message": "".join(str(b) for b in self.message)
            if self.message is not None else "random",
            "d_z": self.d_z,
            "d_x": self.d_x,
            "mode": self.mode.value,
            "attack": attack_spec_text(self.attack),
            "trials": self.trials,
            "seed": self.seed,
            "threshold": self.threshold,
            "noise_p": self.noise_p,
        }


_MODE_NAMES = {m.value: m for m in DetectionMode}


def load_scenario(path: str) -> ScenarioConfig:
    """Parse the flat key=value scenario format, applying defaults."""
    fields: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key in fields:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        fields[key] = value

    known = {f.name for f in dataclass_fields(ScenarioConfig)}
    for key in fields:
        if key not in known:
            raise ConfigError(f"{path}: unknown key {key!r}")
    if "n" not in fields:
        raise ConfigError(f"{path}: missing required key 'n'")

    def as_int(key: str, default: int | None = None) -> int | None:
        if key not in fields:
            return default
        try:
            return int(fields[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: {key} must be an integer") from exc

    def as_float(key: str, default: float) -> float:
        if key not in fields:
            return default
        try:
            return float(fields[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: {key} must be a number") from exc

    message: Bits | None = None
    if "message" in fields and fields["message"].lower() != "random":
        text = fields["message"]
        if not set(text) <= {"0", "1"}:
            raise ConfigError(f"{path}: message must be a bit string or 'random'")
        message = tuple(int(c) for c in text)

    mode_text = fields.get("mode", DetectionMode.IMPROVED.value).lower()
    if mode_text not in _MODE_NAMES:
        raise ConfigError(
            f"{path}: unknown mode {mode_text!r}; "
            f"valid modes: {', '.join(_MODE_NAMES)}"
        )

    return ScenarioConfig(
        n=as_int("n"),
        message=message,
        d_z=as_int("d_z"),
        d_x=as_int("d_x"),
        mode=_MODE_NAMES[mode_text],
        attack=parse_attack(fields.get("attack", "none")),
        trials=as_int("trials", 1),
        seed=as_int("seed", 0),
        threshold=as_float("threshold", 0.0),
        noise_p=as_float("noise_p", 0.0),
        output=fields.get("output"),
    )


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

@dataclass
class EfficiencyCounts:
    c: int
    q: int
    b: int
    eta: Fraction
    digest_bits: int
    eta_with_digest: Fraction


def compute_efficiency(n: int, digest_bits: int = DEFAULT_DIGEST_BITS) -> EfficiencyCounts:
    """Signed bits over transmitted qubits plus verification classical bits.

    Detection-only traffic is excluded. Reported with the digest counted
    and with it treated as negligible.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    c, q, b = n, 2 * n, n
    return EfficiencyCounts(
        c=c, q=q, b=b,
        eta=Fraction(c, q + b),
        digest_bits=digest_bits,
        eta_with_digest=Fraction(c, q + b + digest_bits),
    )


@dataclass
class RunTranscript:
    events: list[dict] = field(default_factory=list)


@dataclass
class AggregateStats:
    config: ScenarioConfig
    trials_run: int = 0
    detection_aborts: int = 0
    trent_yes: int = 0
    bob_accepts: int = 0
    error_rate_means: dict[str, float] = field(default_factory=dict)
    error_rate_vars: dict[str, float] = field(default_factory=dict)
    error_totals: dict[str, tuple[int, int]] = field(default_factory=dict)
    forgery_acceptance_rate: float | None = None
    qubit_efficiency: EfficiencyCounts | None = None
    wall_time: float = 0.0
    per_trial: list[dict] = field(default_factory=list)
    forge_accepts: np.ndarray | None = None


def _trial_record(index: int, result: TrialResult) -> dict:
    return {
        "trial": index,
        "aborted": result.aborted,
        "trent_yes": bool(result.outcome.verdict) if result.outcome else False,
        "accepted": result.accepted,
        **{f"{k}_rate": result.detection.rate(k) for k in CHECKS},
    }


def run_single_trial(
    config: ScenarioConfig, rng: np.random.Generator,
    record_transcript: bool = True,
) -> TrialResult:
    if config.message is not None:
        message = config.message
    else:
        message = tuple(int(b) for b in rng.integers(0, 2, size=config.n))
    strategy = build_strategy(config.attack)
    return run_protocol_round(
        n=config.n,
        message=message,
        mode=config.mode,
        strategy=strategy,
        rng=rng,
        d_z=config.d_z,
        d_x=config.d_x,
        threshold=config.threshold,
        noise_p=config.noise_p,
        record_transcript=record_transcript,
    )


def _run_forgery_trials(config: ScenarioConfig) -> AggregateStats:
    """Vectorized forgery experiment: uniform guesses against fresh (g, T)."""
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    n, trials = config.n, config.trials
    if n == 0:
        accepts = np.ones(trials, dtype=bool)  # empty conjunction
    else:
        g = rng.integers(0, 2, size=(trials, n), dtype=np.uint8)
        t = rng.integers(0, 2, size=(trials, n), dtype=np.uint8)
        b = rng.integers(0, 2, size=(trials, n), dtype=np.uint8)
        accepts = np.all(b == (t ^ g), axis=1)
    stats = AggregateStats(config=config)
    stats.trials_run = trials
    stats.forgery_acceptance_rate = float(accepts.mean())
    stats.forge_accepts = accepts
    if n >= 1:
        stats.qubit_efficiency = compute_efficiency(n)
    stats.wall_time = time.perf_counter() - start
    return stats


def run_trials(config: ScenarioConfig) -> tuple[AggregateStats, RunTranscript]:
    """Run all trials with split seeds and aggregate the statistics.

    The transcript of the first trial is retained for inspection.
    """
    if config.attack.name == "forge":
        return _run_forgery_trials(config), RunTranscript()

    start = time.perf_counter()
    children = np.random.SeedSequence(config.seed).spawn(config.trials)
    stats = AggregateStats(config=config)
    first_transcript = RunTranscript()
    sums = {k: 0.0 for k in CHECKS}
    sumsq = {k: 0.0 for k in CHECKS}
    totals = {k: [0, 0] for k in CHECKS}

    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        result = run_single_trial(config, rng, record_transcript=(i == 0))
        stats.trials_run += 1
        if result.aborted:
            stats.detection_aborts += 1
        if result.outcome is not None and result.outcome.verdict:
            stats.trent_yes += 1
        if result.accepted:
            stats.bob_accepts += 1
        record = _trial_record(i, result)
        for k in CHECKS:
            r = record[f"{k}_rate"]
            sums[k] += r
            sumsq[k] += r * r
            totals[k][0] += getattr(result.detection, f"{k}_errors")
            totals[k][1] += getattr(result.detection, f"{k}_checked")
        stats.per_trial.append(record)
        if i == 0 and result.transcript is not None:
            first_transcript = RunTranscript(events=list(result.transcript))

    m = stats.trials_run
    stats.error_rate_means = {k: sums[k] / m for k in CHECKS}
    stats.error_rate_vars = {
        k: max(sumsq[k] / m - (sums[k] / m) ** 2, 0.0) for k in CHECKS
    }
    stats.error_totals = {k: (totals[k][0], totals[k][1]) for k in CHECKS}
    stats.qubit_efficiency = compute_efficiency(config.n)
    stats.wall_time = time.perf_counter() - start
    return stats, first_transcript


# ---------------------------------------------------------------------------
# Ciphertext density checks
# ---------------------------------------------------------------------------

@dataclass
class DensityCheckReport:
    max_deviation_from_mixed: float
    max_trace_distance: float
    decoy_mixture_deviation: float


def _signature_position_density(m_bit: int, keep: int) -> DensityMatrix:
    """Exact reduced state of one carrier qubit, averaged over the key bit."""
    rho = np.zeros((2, 2), dtype=complex)
    for k in (0, 1):
        rho += 0.5 * partial_trace(prepare_bell(m_bit ^ k), (keep,)).entries
    return DensityMatrix(rho)


def decoy_mixture_density() -> DensityMatrix:
    """Adversary-visible mixture of the four hidden decoy preparations."""
    rho = np.zeros((2, 2), dtype=complex)
    for basis in (Basis.Z, Basis.X):
        for bit in (0, 1):
            state = prepare_single(basis, bit)
            rho += 0.25 * np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityMatrix(rho)


def density_check(m: Sequence[int], m_prime: Sequence[int]) -> DensityCheckReport:
    """Per-position reduced ciphertext states for two messages.

    Computed analytically via the partial trace, averaged over the uniform
    key bit.
    """
    m = tuple(int(b) for b in m)
    m_prime = tuple(int(b) for b in m_prime)
    if len(m) != len(m_prime):
        raise ValueError("messages must have equal length")
    mixed = np.eye(2, dtype=complex) / 2
    max_dev = max_dist = 0.0
    for mi, mpi in zip(m, m_prime):
        rho_m = _signature_position_density(mi, keep=1)
        rho_mp = _signature_position_density(mpi, keep=1)
        max_dev = max(
            max_dev,
            float(np.max(np.abs(rho_m.entries - mixed))),
            float(np.max(np.abs(rho_mp.entries - mixed))),
        )
        max_dist = max(max_dist, trace_distance(rho_m, rho_mp))
    decoy_dev = float(np.max(np.abs(decoy_mixture_density().entries - mixed)))
    return DensityCheckReport(
        max_deviation_from_mixed=max_dev,
        max_trace_distance=max_dist,
        decoy_mixture_deviation=decoy_dev,
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

REPORT_FORMATS = ("human", "tsv", "jsonl")


def _ci3(rate: float, n: int) -> tuple[float, float]:
    if n == 0:
        return 0.0, 0.0
    half = 3.0 * np.sqrt(rate * (1.0 - rate) / n)
    return max(rate - half, 0.0), min(rate + half, 1.0)


def _summary_dict(stats: AggregateStats) -> dict:
    m = stats.trials_run
    summary = {
        "record": "summary",
        "config": stats.config.echo(),
        "trials_run": m,
        "detection_aborts": stats.detection_aborts,
        "trent_yes": stats.trent_yes,
        "bob_accepts": stats.bob_accepts,
    }
    for k in CHECKS:
        errors, checked = stats.error_totals.get(k, (0, 0))
        rate = errors / checked if checked else 0.0
        lo, hi = _ci3(rate, checked)
        summary[f"{k}_rate"] = rate
        summary[f"{k}_rate_ci3"] = [lo, hi]
        summary[f"{k}_mean"] = stats.error_rate_means.get(k, 0.0)
        summary[f"{k}_var"] = stats.error_rate_vars.get(k, 0.0)
    if stats.forgery_acceptance_rate is not None:
        summary["forgery_acceptance_rate"] = stats.forgery_acceptance_rate
    if stats.qubit_efficiency is not None:
        eff = stats.qubit_efficiency
        summary["efficiency"] = {
            "c": eff.c, "q": eff.q, "b": eff.b,
            "eta": float(eff.eta),
            "digest_bits": eff.digest_bits,
            "eta_with_digest": float(eff.eta_with_digest),
        }
    return summary


def _iter_trial_records(stats: AggregateStats):
    if stats.forge_accepts is not None:
        for i, acc in enumerate(stats.forge_accepts):
            yield {"record": "trial", "trial": i, "accepted": bool(acc)}
    else:
        for rec in stats.per_trial:
            yield {"record": "trial", **rec}


def emit_report(
    stats: AggregateStats, transcript: RunTranscript, format: str = "human"
) -> str:
    """Deterministic serialization of a run (wall time excluded)."""
    if format not in REPORT_FORMATS:
        raise ValueError(
            f"unknown format {format!r}; choose from {REPORT_FORMATS}"
        )
    summary = _summary_dict(stats)
    if format == "jsonl":
        lines = [json.dumps({"record": "config", **stats.config.echo()},
                            sort_keys=True)]
        lines += [json.dumps(rec, sort_keys=True)
                  for rec in _iter_trial_records(stats)]
        lines.append(json.dumps(summary, sort_keys=True))
        return "\n".join(lines) + "\n"

    if format == "tsv":
        rows = [("metric", "value")]
        for key, value in stats.config.echo().items():
            rows.append((f"config.{key}", str(value)))
        for key in ("trials_run", "detection_aborts", "trent_yes", "bob_accepts"):
            rows.append((key, str(summary[key])))
        for k in CHECKS:
            rows.append((f"{k}_rate", f"{summary[f'{k}_rate']:.9f}"))
            lo, hi = summary[f"{k}_rate_ci3"]
            rows.append((f"{k}_rate_ci3", f"{lo:.9f},{hi:.9f}"))
        if "forgery_acceptance_rate" in summary:
            rows.append(("forgery_acceptance_rate",
                         f"{summary['forgery_acceptance_rate']:.9f}"))
        if "efficiency" in summary:
            eff = summary["efficiency"]
            rows.append(("efficiency.eta", f"{eff['eta']:.9f}"))
            rows.append(("efficiency.eta_with_digest",
                         f"{eff['eta_with_digest']:.9f}"))
        return "\n".join("\t".join(r) for r in rows) + "\n"

    # human
    lines = ["=== run report ==="]
    for key, value in stats.config.echo().items():
        lines.append(f"{key:>12}: {value}")
    lines.append("")
    lines.append(f"trials run        : {summary['trials_run']}")
    lines.append(f"detection aborts  : {summary['detection_aborts']}")
    lines.append(f"trent yes         : {summary['trent_yes']}")
    lines.append(f"bob accepts       : {summary['bob_accepts']}")
    for k in CHECKS:
        lo, hi = summary[f"{k}_rate_ci3"]
        lines.append(
            f"{k:>8} rate     : {summary[f'{k}_rate']:.6f} "
            f"(3-sigma CI [{lo:.6f}, {hi:.6f}])"
        )
    if "forgery_acceptance_rate" in summary:
        lines.append(
            f"forgery accept    : {summary['forgery_acceptance_rate']:.3e}"
        )
    if "efficiency" in summary:
        eff = summary["efficiency"]
        lines.append(
            f"qubit efficiency  : {eff['eta']:.6f} "
            f"(with digest: {eff['eta_with_digest']:.6f})"
        )
    lines.append(f"wall time (s)     : {stats.wall_time:.3f}")
    if transcript.events:
        lines.append("")
        lines.append("--- first trial transcript ---")
        for ev in transcript.events:
            lines.append(json.dumps(ev, sort_keys=True))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Attack x mode grid
# ---------------------------------------------------------------------------

MATRIX_ATTACKS = (
    "none",
    "pauli_x_tamper",
    "unitary_tamper_then_undo:X",
    "unitary_tamper_then_undo:Z",
    "unitary_tamper_then_undo:H",
    "intercept_resend_z",
    "entangle_probe",
)

MATRIX_MODES = (
    DetectionMode.IMPROVED,
    DetectionMode.IMPROVED_INLINE_OTP,
    DetectionMode.MEASURE_THEN_RETURN,
    DetectionMode.DIRECT_REFLECTION,
)


def run_matrix(
    n: int = 4, trials: int = 200, seed: int = 0
) -> list[dict]:
    """Abort rate for every attack under every detection mode."""
    rows = []
    for attack_text in MATRIX_ATTACKS:
        for m in MATRIX_MODES:
            config = ScenarioConfig(
                n=n, d_z=n, d_x=n, mode=m,
                attack=parse_attack(attack_text),
                trials=trials, seed=seed,
            )
            stats, _ = run_trials(config)
            rows.append({
                "attack": attack_text,
                "mode": m.value,
                "abort_rate": stats.detection_aborts / stats.trials_run,
                "trent_yes_rate": stats.trent_yes / stats.trials_run,
            })
    return rows
