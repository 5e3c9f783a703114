"""The benchmark's bindings still resolve, and its workloads still pass.

`benchmarks/tracer.py` wraps package functions by module and attribute
name. A rename in `src/sqsig` that breaks one of those names, or a call
path that no longer goes through one, would otherwise show only in
`python3 -m pytest benchmarks`. This test installs the recorder, runs a
tiny traced workload and checks that every span was called.

`benchmarks/workloads.py` holds each workload's checks. A benchmark run
counts its outputs as incorrect when a check fails or two passes differ,
so the same is tested here, at the benchmark's own trial counts.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import sqsig.harness as harness
from sqsig.harness import ScenarioConfig, parse_attack

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("bench_workloads", BENCHMARKS / "workloads.py")


def test_every_binding_is_called():
    recorder = _load("bench_tracer", BENCHMARKS / "tracer.py").SpanRecorder()
    config = ScenarioConfig(n=2, attack=parse_attack("entangle_probe"),
                            trials=2, seed=0)
    with recorder.installed():
        stats, transcript = harness.run_trials(config)
        harness.emit_report(stats, transcript, format="jsonl")
        harness.run_matrix(n=1, trials=1)
    _, counts = recorder.pass_figures()
    uncalled = [name for name in recorder.names if counts[f"{name}.calls"] == 0]
    assert uncalled == []


@pytest.mark.parametrize("name", sorted(WORKLOADS.TRIALS))
def test_workload_checks_hold_and_passes_repeat(name):
    workload = WORKLOADS.build(name, seed=0)
    first, second = workload.run_pass(), workload.run_pass()
    assert [c for c in workload.checks(first) if not c.ok] == []
    assert first.fingerprint == second.fingerprint
