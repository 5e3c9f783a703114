"""One benchmark process: set up a workload, then time or trace its passes.

Started by run.py with sqsig's source on PYTHONPATH and BLAS/OpenMP pinned
to one thread. It prints {"ready": true} once set up (import sqsig, build
the scenarios, run one warm-up trial), and with --mode measure or trace a
result object as its last line.

  measure  untraced passes for --seconds; wall time of each pass.
  trace    untraced and traced passes in turn for --seconds; per-layer
           figures of the traced passes and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import sqsig
import workloads
from tracer import SpanRecorder, layer_metrics
from workloads import Check

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Every pass of a run repeats the same seeds; at least this many passes run
# so that the repeat check always has a pair to compare.
MIN_PASSES = 2


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _measure(workload, seconds: float) -> dict:
    times, results = [], []
    begin = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - begin < seconds:
        t0 = time.perf_counter()
        result = workload.run_pass()
        times.append(time.perf_counter() - t0)
        results.append(result)
    first = results[0]
    checks = workload.checks(first) + [Check(
        "output_identical_across_passes",
        all(r.fingerprint == first.fingerprint for r in results),
        f"{len(results)} passes of the same seeds",
    )]
    return {"trials_per_pass": first.trials, "pass_seconds": times,
            "checks": [asdict(c) for c in checks],
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def _trace(workload, seconds: float, spans_path: Path) -> dict:
    recorder = SpanRecorder()
    plain_times, traced_times, plain, traced = [], [], [], []
    pass_times, pass_counts = [], []
    begin = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - begin < seconds:
        t0 = time.perf_counter()
        plain.append(workload.run_pass())
        plain_times.append(time.perf_counter() - t0)
        recorder.reset()
        with recorder.installed():
            t0 = time.perf_counter()
            traced.append(workload.run_pass())
            traced_times.append(time.perf_counter() - t0)
        times, counts = recorder.pass_figures()
        pass_times.append(times)
        pass_counts.append(counts)
    first = plain[0]
    checks = workload.checks(first) + [
        Check("output_identical_across_passes",
              all(r.fingerprint == first.fingerprint for r in plain),
              f"{len(plain)} untraced passes of the same seeds"),
        Check("traced_output_identical_to_untraced",
              all(r.fingerprint == first.fingerprint for r in traced),
              f"{len(traced)} traced passes against the untraced output"),
        Check("trace_counts_repeat",
              all(c == pass_counts[0] for c in pass_counts),
              f"{len(pass_counts)} traced passes"),
    ]
    median_times = {key: statistics.median(t[key] for t in pass_times)
                    for key in pass_times[0]}
    metrics = layer_metrics(recorder.names, recorder.layer_of,
                            median_times, pass_counts[0])
    overhead = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(spans_path, names=np.array(recorder.names), **recorder.spans())
    return {"trials_per_pass": first.trials, "checks": [asdict(c) for c in checks],
            "untraced_pass_seconds": plain_times, "traced_pass_seconds": traced_times,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if Path(sqsig.__file__).resolve().parent != SRC / "sqsig":
        raise SystemExit(f"imported sqsig from {sqsig.__file__}, not from {SRC}")
    workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    workload.warm_up()
    _emit({"ready": True})
    if args.mode == "measure":
        _emit(_measure(workload, args.seconds))
    elif args.mode == "trace":
        spans_path = HERE / "out" / f"spans-{args.workload}.npz"
        _emit(_trace(workload, args.seconds, spans_path))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
