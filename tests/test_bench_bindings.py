"""The traced benchmark's bindings still resolve and are all reached.

`benchmarks/tracer.py` wraps package functions by module and attribute
name. A rename in `src/sqsig` that breaks one of those names, or a call
path that no longer goes through one, would otherwise show only in
`python3 -m pytest benchmarks`. This test installs the recorder, runs a
tiny traced workload and checks that every span was called.
"""

import importlib.util
from pathlib import Path

import sqsig.harness as harness
from sqsig.harness import ScenarioConfig, parse_attack

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_is_called():
    recorder = _load_tracer().SpanRecorder()
    config = ScenarioConfig(n=2, attack=parse_attack("entangle_probe"),
                            trials=2, seed=0)
    with recorder.installed():
        stats, transcript = harness.run_trials(config)
        harness.emit_report(stats, transcript, format="jsonl")
        harness.run_matrix(n=1, trials=1)
    _, counts = recorder.pass_figures()
    uncalled = [name for name in recorder.names if counts[f"{name}.calls"] == 0]
    assert uncalled == []
