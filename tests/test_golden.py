"""Byte identity of reports and transcripts against recorded digests.

Most scenarios run at n=2 with 20 trials and a fixed seed. A second set
runs at n=16 (d_z = d_x = 16), where each protocol stage acts on many
qubits at once, and one run has uneven decoy counts. Three runs of 3
trials at n=64 pin 128-record wires and the 4416-bit inline pad. The jsonl and tsv
reports, the human report without its `wall time (s)` line, and
`json.dumps` of the first trial's transcript are hashed with sha256 and
compared with `golden_digests.json`.

A change that alters the random streams on purpose bumps
`harness.RNG_SCHEME`, regenerates the file with
`PYTHONPATH=src python tests/test_golden.py --regenerate` and names
itself in CHANGES.md. The file records the scheme its digests were made
under, and every test here fails while that differs from the harness's.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from sqsig.detection import DetectionMode
from sqsig.harness import (
    MATRIX_ATTACKS,
    MATRIX_MODES,
    RNG_SCHEME,
    ScenarioConfig,
    emit_report,
    parse_attack,
    run_trials,
)

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
N, TRIALS, SEED = 2, 20, 7
LARGE_N = 16
LARGE_N_ATTACKS = ("none", "intercept_resend_z", "entangle_probe",
                   "unitary_tamper_then_undo:H", "tamper_b:0,15", "tamper_m:3")
XL_N, XL_TRIALS = 64, 3


def _scenarios() -> dict[str, ScenarioConfig]:
    out = {}
    for attack in MATRIX_ATTACKS + ("tamper_b:1", "tamper_m:0",
                                    "entangle_probe:immediate",
                                    "unitary_tamper_then_undo:Y"):
        for mode in MATRIX_MODES:
            out[f"{attack}/{mode.value}"] = ScenarioConfig(
                n=N, mode=mode, attack=parse_attack(attack),
                trials=TRIALS, seed=SEED,
            )
    out["forge"] = ScenarioConfig(
        n=N, attack=parse_attack("forge"), trials=TRIALS, seed=SEED
    )
    # n = 0 is the one forge run without an efficiency field.
    out["forge/n0"] = ScenarioConfig(
        n=0, attack=parse_attack("forge"), trials=TRIALS, seed=SEED
    )
    out["noise"] = ScenarioConfig(
        n=N, noise_p=0.05, threshold=0.25, trials=TRIALS, seed=SEED
    )
    # The config echo prints a fixed message as its bit string, not "random".
    out["fixed_message"] = ScenarioConfig(
        n=N, message=(1, 0), trials=TRIALS, seed=SEED
    )
    for attack in LARGE_N_ATTACKS:
        for mode in MATRIX_MODES:
            out[f"n{LARGE_N}/{attack}/{mode.value}"] = ScenarioConfig(
                n=LARGE_N, mode=mode, attack=parse_attack(attack),
                trials=TRIALS, seed=SEED,
            )
    out[f"n{LARGE_N}/noise"] = ScenarioConfig(
        n=LARGE_N, noise_p=0.05, threshold=0.25, trials=TRIALS, seed=SEED
    )
    out["uneven_decoys/entangle_probe"] = ScenarioConfig(
        n=3, d_z=5, d_x=9, attack=parse_attack("entangle_probe"),
        trials=TRIALS, seed=SEED,
    )
    # n = 64: the first-trial transcript holds every bit of 128-record wires
    # and, under the inline pad, of all 4416 key bits' ciphertext.
    for attack, mode in (("none", "improved"), ("none", "improved_inline_otp"),
                         ("entangle_probe", "improved_inline_otp")):
        out[f"n{XL_N}/{attack}/{mode}"] = ScenarioConfig(
            n=XL_N, mode=DetectionMode(mode), attack=parse_attack(attack),
            trials=XL_TRIALS, seed=SEED,
        )
    return out


SCENARIOS = _scenarios()


def _digests(config: ScenarioConfig) -> dict[str, str]:
    stats, transcript = run_trials(config)
    human = emit_report(stats, transcript, format="human").splitlines(keepends=True)
    texts = {
        "jsonl": emit_report(stats, transcript, format="jsonl"),
        "tsv": emit_report(stats, transcript, format="tsv"),
        "human": "".join(line for line in human if not line.startswith("wall time (s)")),
        "transcript": json.dumps(transcript),
    }
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()}


def _golden() -> dict:
    """The recorded digests by scenario; fails unless they were made under
    the harness's random-stream scheme."""
    golden = json.loads(DIGEST_FILE.read_text())
    scheme = golden.pop("rng_scheme", None)
    if scheme != RNG_SCHEME:
        pytest.fail(f"{DIGEST_FILE.name} holds rng_scheme {scheme}, the harness "
                    f"{RNG_SCHEME}: regenerate it with "
                    "`PYTHONPATH=src python tests/test_golden.py --regenerate`")
    return golden


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_output_bytes_unchanged(name):
    assert _digests(SCENARIOS[name]) == _golden()[name]


def test_digest_file_lists_every_scenario():
    # A digest whose scenario was removed would otherwise never be checked.
    assert sorted(_golden()) == sorted(SCENARIOS)


def test_other_scheme_names_the_regenerate_command(tmp_path, monkeypatch):
    stale = tmp_path / DIGEST_FILE.name
    stale.write_text(json.dumps({**_golden(), "rng_scheme": RNG_SCHEME - 1}))
    monkeypatch.setitem(globals(), "DIGEST_FILE", stale)
    with pytest.raises(pytest.fail.Exception, match="tests/test_golden.py --regenerate"):
        _golden()


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: python tests/test_golden.py --regenerate")
    table = {name: _digests(config) for name, config in sorted(SCENARIOS.items())}
    table["rng_scheme"] = RNG_SCHEME
    DIGEST_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
