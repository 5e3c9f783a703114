"""Scenario loading, Monte Carlo execution, statistics, and reports; a
run keeps its trial records as columns, read as dicts (`TrialRecords`)."""

from __future__ import annotations

import json
import time
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .adversary import (
    AttackStrategy,
    NoAttack,
    QubitProbe,
    TamperClassicalMessage,
    TamperSignatureB,
)
from .detection import (
    CHECKS,
    POSITION_FIELD_BITS,
    REPORT_COUNTS,
    DetectionMode,
    error_rate,
)
from .keys import Bits, random_bits
from .protocol import run_protocol_round
from .quantum import (
    GATES,
    Basis,
    DensityMatrix,
    partial_trace,
    prepare_bell,
    prepare_single,
    trace_distance,
)
from .roles import DEFAULT_DIGEST_BITS


# The version of the random streams a seed gives; echoed, never set. Scheme
# 2 cuts trial i's stream from PCG64(seed) by jump-ahead (see run_trials).
RNG_SCHEME = 2


class ConfigError(ValueError):
    """Scenario file failed to parse or violated a field invariant."""


# ---------------------------------------------------------------------------
# Attack specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackSpec:
    name: str
    # The parsed argument: a unitary name, a probe timing or a position
    # tuple; None when the attack takes none or uses its default.
    arg: str | tuple[int, ...] | None = None


def _no_argument(name: str, text: str) -> None:
    if text:
        raise ConfigError(f"{name} takes no argument; got {text!r}")


def _one_of(name: str, text: str, choices: Sequence[str]) -> str:
    if text not in choices:
        raise ConfigError(f"{name} needs one of {', '.join(choices)}; got {text!r}")
    return text


def _unitary(name: str, text: str) -> str:
    return _one_of(name, text.upper(), GATES)


def _positions(name: str, text: str) -> tuple[int, ...]:
    if not text:
        raise ConfigError(f"{name} needs a comma-separated position list")
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {name} positions {text!r}") from exc


def _probe_time(name: str, text: str) -> str | None:
    text = text.lower()
    if text in ("", "after_return"):  # the default timing prints bare
        return None
    return _one_of(name, text, QubitProbe.READ_TIMES)


@dataclass(frozen=True)
class AttackKind:
    """One attack: its channel strategy and the parser of its argument."""

    strategy: Callable[..., AttackStrategy] | None  # None: runs its own experiment
    parse: Callable[[str, str], object] = _no_argument  # (name, text) -> arg


# intercept_resend_z is entangle_probe:immediate; pauli_x_tamper is tamper-then-undo:X.
ATTACKS = {
    "none": AttackKind(NoAttack),
    "intercept_resend_z": AttackKind(
        partial(QubitProbe, "intercept_resend_z", "immediate")),
    "unitary_tamper_then_undo": AttackKind(
        partial(QubitProbe, "unitary_tamper_then_undo"), _unitary),
    "pauli_x_tamper": AttackKind(partial(QubitProbe, "pauli_x_tamper", "X")),
    "entangle_probe": AttackKind(
        partial(QubitProbe, "entangle_probe"), _probe_time),
    "forge": AttackKind(None),
    "tamper_b": AttackKind(TamperSignatureB, _positions),
    "tamper_m": AttackKind(TamperClassicalMessage, _positions),
}


def parse_attack(text: str) -> AttackSpec:
    head, _, arg = text.strip().partition(":")
    head = head.lower()
    if head not in ATTACKS:
        raise ConfigError(
            f"unknown attack {head!r}; valid kinds: {', '.join(ATTACKS)}"
        )
    return AttackSpec(head, ATTACKS[head].parse(head, arg))


def strategy_factory(spec: AttackSpec) -> Callable[[], AttackStrategy]:
    """A maker of fresh strategy instances, one a call (a probe's pending
    ancillas are per-run)."""
    strategy = ATTACKS[spec.name].strategy
    if strategy is None:
        raise ConfigError(f"{spec.name} runs its own experiment, not a channel strategy")
    return strategy if spec.arg is None else partial(strategy, spec.arg)


def attack_spec_text(spec: AttackSpec) -> str:
    if spec.arg is None:
        return spec.name
    arg = spec.arg if isinstance(spec.arg, str) else ",".join(map(str, spec.arg))
    return f"{spec.name}:{arg}"


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
        positions = self.attack.arg if isinstance(self.attack.arg, tuple) else ()
        bad = [p for p in positions if not 0 <= p < self.n]
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
            "rng_scheme": RNG_SCHEME,
        }


def _message(text: str) -> Bits | None:
    if text.lower() == "random":
        return None
    if not set(text) <= {"0", "1"}:
        raise ValueError
    return bytes(int(c) for c in text)


# Each key a scenario file may set: its converter, and the complaint when
# the converter raises ValueError ({value} is lowercased). parse_attack
# raises its own ConfigError. A key left out takes the ScenarioConfig default.
_INTEGER = (int, "{key} must be an integer")
_NUMBER = (float, "{key} must be a number")
_SCENARIO_KEYS = {
    "n": _INTEGER,
    "message": (_message, "message must be a bit string or 'random'"),
    "d_z": _INTEGER,
    "d_x": _INTEGER,
    "mode": (lambda text: DetectionMode(text.lower()),
             "unknown mode {value!r}; valid modes: "
             + ", ".join(m.value for m in DetectionMode)),
    "attack": (parse_attack, ""),
    "trials": _INTEGER,
    "seed": _INTEGER,
    "threshold": _NUMBER,
    "noise_p": _NUMBER,
    "output": (str, ""),
}


def load_scenario(path: str) -> ScenarioConfig:
    """Parse the flat key=value scenario format; ScenarioConfig holds the defaults."""
    fields: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
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

    for key in fields:
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"{path}: unknown key {key!r}")
    if "n" not in fields:
        raise ConfigError(f"{path}: missing required key 'n'")

    parsed = {}
    for key, text in fields.items():
        convert, complaint = _SCENARIO_KEYS[key]
        try:
            parsed[key] = convert(text)
        except ConfigError:
            raise
        except ValueError as exc:
            detail = complaint.format(key=key, value=text.lower())
            raise ConfigError(f"{path}: {detail}") from exc
    return ScenarioConfig(**parsed)


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


def compute_efficiency(n: int) -> EfficiencyCounts:
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
        digest_bits=DEFAULT_DIGEST_BITS,
        eta_with_digest=Fraction(c, q + b + DEFAULT_DIGEST_BITS),
    )


class TrialRecords(Sequence):
    """A run's per-trial records as columns, read-only: record i maps each
    key to its column's i-th value, a bytes column holding bools as 0/1."""

    def __init__(self, columns: dict[str, Sequence]) -> None:
        self.columns = columns  # in record key order

    def __len__(self) -> int:
        return min(map(len, self.columns.values()), default=0)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self.__getitem__, range(len(self))[i]))
        return {key: bool(c[i]) if type(c) is bytes else c[i] for key, c in self.columns.items()}

    def __iter__(self) -> Iterator[dict]:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented

    def json_lines(self) -> Iterator[str]:
        """Trial i's line, `json.dumps({"record": "trial", "trial": i, **self[i]},
        sort_keys=True)`, each from one template built for the run."""
        columns = {**self.columns, "trial": range(len(self))}
        fields = {**dict.fromkeys(columns, "%s"), "record": '"trial"'}
        template = "{" + ", ".join(f'"{k}": {fields[k]}' for k in sorted(fields)) + "}"
        return map(template.__mod__, zip(*(
            map(("false", "true").__getitem__, c) if type(c) is bytes else map(repr, c)
            for c in map(columns.__getitem__, sorted(columns)))))


@dataclass
class AggregateStats:
    config: ScenarioConfig
    trials_run: int = 0
    detection_aborts: int = 0
    trent_yes: int = 0
    bob_accepts: int = 0
    # Per check; a run that checks no decoys (forge) keeps these zeros.
    error_rate_means: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(CHECKS, 0.0))
    error_rate_vars: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(CHECKS, 0.0))
    error_totals: dict[str, tuple[int, int]] = field(
        default_factory=lambda: dict.fromkeys(CHECKS, (0, 0)))
    forgery_acceptance_rate: float | None = None
    qubit_efficiency: EfficiencyCounts | None = None
    wall_time: float = 0.0
    per_trial: TrialRecords = field(default_factory=lambda: TrialRecords({}))


def _run_forgery_trials(config: ScenarioConfig) -> AggregateStats:
    """Vectorized forgery experiment: uniform guesses against fresh (g, T)."""
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    n, trials = config.n, config.trials
    g, t, b = (rng.integers(0, 2, size=(trials, n), dtype=np.uint8) for _ in range(3))
    accepts = np.all(b == (t ^ g), axis=1)  # at n = 0, the empty conjunction
    stats = AggregateStats(config=config)
    stats.trials_run = trials
    stats.forgery_acceptance_rate = float(accepts.mean())
    stats.per_trial = TrialRecords({"accepted": accepts.tobytes()})
    if n >= 1:
        stats.qubit_efficiency = compute_efficiency(n)
    stats.wall_time = time.perf_counter() - start
    return stats


def run_trials(config: ScenarioConfig) -> tuple[AggregateStats, list[dict]]:
    """Run all trials, each on its own substream, and aggregate the statistics.

    Trial i draws from `PCG64(seed)` advanced by i * 2**64: a disjoint
    substream of 2**64 outputs, so trial i depends on (seed, i) alone and
    the first k trials of a run are those of any longer run. A trial with
    a random message draws it first, with `random_bits(rng, n)`.

    A trial appends its three outcomes and its report's six counts to two
    flat columns, read into the records and statistics after the last
    trial. Returns the statistics and the first trial's transcript events.
    """
    if config.attack.name == "forge":
        return _run_forgery_trials(config), []

    start = time.perf_counter()
    stats = AggregateStats(config=config)
    transcript: list[dict] = []
    outcomes = bytearray()  # aborted, trent_yes, accepted of each trial in turn
    counts = array("q")  # REPORT_COUNTS of each trial in turn

    new_strategy = strategy_factory(config.attack)
    bit_generator = np.random.PCG64(config.seed)
    base = bit_generator.state
    rng = np.random.Generator(bit_generator)
    for i in range(config.trials):
        # Restoring the base state also drops the buffered 32-bit half.
        bit_generator.state = base
        bit_generator.advance(i << 64)
        message = config.message
        if message is None:
            message = random_bits(rng, config.n)
        result = run_protocol_round(
            message=message, mode=config.mode,
            strategy=new_strategy(), rng=rng,
            d_z=config.d_z, d_x=config.d_x, threshold=config.threshold,
            noise_p=config.noise_p, record_transcript=(i == 0),
        )
        if i == 0:
            transcript = result.transcript
        outcome = result.outcome
        outcomes.extend((result.aborted, bool(outcome.verdict) if outcome else False,
                         result.accepted))
        counts.extend(REPORT_COUNTS(result.detection))

    m = stats.trials_run = config.trials
    columns = {key: bytes(outcomes[j::3])
               for j, key in enumerate(("aborted", "trent_yes", "accepted"))}
    stats.detection_aborts, stats.trent_yes, stats.bob_accepts = (
        column.count(1) for column in columns.values())
    for j, k in enumerate(CHECKS):
        errors, checked = counts[2 * j::6], counts[2 * j + 1::6]
        rates = columns[f"{k}_rate"] = array("d", map(error_rate, errors, checked))
        # The means are sums / m; the variances come from Welford's update
        # (Technometrics 4, 419, 1962), which keeps a constant rate's at 0.
        total = mean = m2 = 0.0
        for t, r in enumerate(rates, 1):
            total += r
            delta = r - mean
            mean += delta / t
            m2 += delta * (r - mean)
        stats.error_rate_means[k], stats.error_rate_vars[k] = total / m, m2 / m
        stats.error_totals[k] = (sum(errors), sum(checked))
    stats.per_trial = TrialRecords(columns)
    stats.qubit_efficiency = compute_efficiency(config.n)
    stats.wall_time = time.perf_counter() - start
    return stats, transcript


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


def _efficiency(stats: AggregateStats) -> dict | None:
    eff = stats.qubit_efficiency
    return None if eff is None else {
        **asdict(eff), "eta": float(eff.eta), "eta_with_digest": float(eff.eta_with_digest)
    }


def _check_fields(k: str) -> tuple:
    rate = f"{k}_rate"
    return (
        (rate, lambda s: error_rate(*s.error_totals[k]), rate + "\t{v:.9f}", None),
        (f"{rate}_ci3",
         lambda s: list(_ci3(error_rate(*s.error_totals[k]), s.error_totals[k][1])),
         rate + "_ci3\t{v[0]:.9f},{v[1]:.9f}",
         f"{k:>8} rate     : {{{rate}:.6f}} (3-sigma CI [{{v[0]:.6f}}, {{v[1]:.6f}}])"),
        (f"{k}_mean", lambda s: s.error_rate_means[k], None, None),
        (f"{k}_var", lambda s: s.error_rate_vars[k], None, None),
    )


# The run summary in report order: (jsonl key, its value from the stats,
# tsv row template, human line template). A value of None leaves the field
# out of every format; a template of None leaves it out of that format. A
# template formats the field's value as {v} and any other field by its key.
# The renderers print the config echo as their own header.
SUMMARY_FIELDS = (
    ("config", lambda s: s.config.echo(), None, None),
    ("trials_run", lambda s: s.trials_run,
     "trials_run\t{v}", "trials run        : {v}"),
    ("detection_aborts", lambda s: s.detection_aborts,
     "detection_aborts\t{v}", "detection aborts  : {v}"),
    ("trent_yes", lambda s: s.trent_yes,
     "trent_yes\t{v}", "trent yes         : {v}"),
    ("bob_accepts", lambda s: s.bob_accepts,
     "bob_accepts\t{v}", "bob accepts       : {v}"),
    *(f for k in CHECKS for f in _check_fields(k)),
    ("forgery_acceptance_rate", lambda s: s.forgery_acceptance_rate,
     "forgery_acceptance_rate\t{v:.9f}", "forgery accept    : {v:.3e}"),
    ("efficiency", _efficiency,
     "efficiency.eta\t{v[eta]:.9f}\n"
     "efficiency.eta_with_digest\t{v[eta_with_digest]:.9f}",
     "qubit efficiency  : {v[eta]:.6f} (with digest: {v[eta_with_digest]:.6f})"),
)


def _render(summary: dict, format: str) -> list[str]:
    """The summary's tsv rows or human lines, in table order."""
    lines = []
    for key, _, tsv, human in SUMMARY_FIELDS:
        template = tsv if format == "tsv" else human
        if template is not None and key in summary:
            lines.append(template.format(v=summary[key], **summary))
    return lines


def emit_report(
    stats: AggregateStats, transcript: list[dict], format: str = "human"
) -> str:
    """Serialize a run; the same seed gives the same bytes.

    The one exception is the human report's `wall time (s)` line.
    """
    if format not in REPORT_FORMATS:
        raise ValueError(
            f"unknown format {format!r}; choose from {REPORT_FORMATS}"
        )
    summary = {key: v for key, value, _, _ in SUMMARY_FIELDS
               if (v := value(stats)) is not None}
    config = summary["config"]
    if format == "jsonl":
        lines = [json.dumps({"record": "config", **config}, sort_keys=True)]
        lines += stats.per_trial.json_lines()
        lines.append(json.dumps({"record": "summary", **summary}, sort_keys=True))
    elif format == "tsv":
        lines = ["metric\tvalue"]
        lines += [f"config.{key}\t{value}" for key, value in config.items()]
        lines += _render(summary, format)
    else:
        lines = ["=== run report ==="]
        lines += [f"{key:>12}: {value}" for key, value in config.items()]
        lines.append("")
        lines += _render(summary, format)
        lines.append(f"wall time (s)     : {stats.wall_time:.3f}")
        if transcript:
            lines += ["", "--- first trial transcript ---"]
            lines += [json.dumps(ev, sort_keys=True) for ev in transcript]
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
                n=n, mode=m, attack=parse_attack(attack_text),
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
