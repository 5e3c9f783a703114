"""Fast self-test of the benchmark, at tiny trial counts (--smoke).

    python3 -m pytest benchmarks

It checks that every workload prints each metric of BENCHMARK.json with its
unit, that every correctness check runs and passes, that traced counts
repeat exactly for one seed, and that the benchmark fails cleanly where
the package source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MODES = ("improved", "improved_inline_otp", "measure_then_return", "direct_reflection")

CHECKS = {
    "mc_small_n": [f"continue_rate/intercept_resend_z/d_x={d}" for d in (1, 2, 4, 8, 16)]
    + [f"continue_rate/entangle_probe/d_x={d}" for d in (1, 2)],
    "mc_large_n": [f"{name}/{mode}" for mode in MODES[:2]
                   for name in ("no_aborts", "trent_yes=bob_accepts=trials")],
    "attack_matrix": [f"aborts/{attack}/{mode}" for attack in ("none", "pauli_x_tamper")
                      for mode in MODES]
    + [f"aborts/unitary_tamper_then_undo:{u}/direct_reflection" for u in "XZH"]
    + [f"continue_rate/{attack}/{mode}" for attack in ("intercept_resend_z", "entangle_probe")
       for mode in MODES],
}
REPEAT_CHECKS = {0: ["output_identical_across_passes"],
                 1: ["output_identical_across_passes", "traced_output_identical_to_untraced",
                     "trace_counts_repeat"]}


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(workload: str, trace: int, seed: int = 3):
    proc = _run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return proc.stdout, result, record


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_every_check_run(workload, trace):
    stdout, result, record = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    table = [line.split() for line in stdout.splitlines()[:-1] if not line.startswith("#")]
    printed = {row[1]: row[3] for row in table if row[0] == workload}
    assert printed == {**{m["name"]: m["unit"] for m in spec}, "failed_ratio": "ratio"}
    names = [c["name"] for c in record["checks"]]
    assert sorted(names) == sorted(CHECKS[workload] + REPEAT_CHECKS[trace])
    failed = [c for c in record["checks"] if not c["ok"]]
    assert not failed
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    def counts():
        _, result, _ = _result(workload, 1, seed=11)
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] in ("count", "bytes")}

    first = counts()
    assert first["protocol.rounds"] > 0
    assert counts() == first


def test_every_layer_has_calls_and_self_time():
    names = {m["name"] for m in SPEC["per_layer"]}
    for layer in ("quantum", "register", "parties", "keys", "detection",
                  "adversary", "roles", "protocol", "harness"):
        assert {f"{layer}.calls", f"{layer}.self_s"} <= names


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_binomial_band_tails():
    stats = pytest.importorskip("scipy.stats")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import FALSE_ALARM, binomial_band

    for trials, p in ((500, 0.5), (500, 2 ** -16), (40, 2 ** -4), (3, 0.25)):
        lo, hi = binomial_band(trials, p)
        dist = stats.binom(trials, p)
        assert dist.cdf(lo - 1) <= FALSE_ALARM / 2 < dist.cdf(lo)
        assert dist.sf(hi) <= FALSE_ALARM / 2 < dist.sf(hi - 1)
