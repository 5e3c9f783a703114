"""Benchmark of sqsig: trials/s, set-up time and peak memory per workload.

  python3 benchmarks/run.py --workload mc_small_n --seed 1 --seconds 10 --trace 0
  python3 benchmarks/run.py --workload all

--trace 0 prints the end-to-end metrics: trials_per_s (median over passes),
setup_s (median over several fresh processes) and peak_rss_mb (ru_maxrss of
the measuring process). --trace 1 prints the per-layer metrics of a traced
run instead. Either way the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; attempted and
failed count correctness checks, so failed_ratio = failed / attempted.
The lines before it give the run environment and a table of the metrics.

Each workload runs in fresh single-threaded child processes (worker.py),
one caller running its scenarios back to back. The full record of a run,
with every check and every pass time, goes to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is timed in this many fresh processes besides the measuring one.
SETUP_REPEATS = 7
SMOKE_SETUP_REPEATS = 1

# Children use one BLAS/OpenMP thread, so a workload is one thread.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _loadavg_1m() -> float | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_sha256() -> str:
    """Digest of the package source, which names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sqsig").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_environment() -> dict:
    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": _loadavg_1m(),
    }


def _run_child(workload: str, seed: int, seconds: float, mode: str,
               smoke: bool) -> tuple[float, dict | None]:
    """Start worker.py; return its set-up time and its result object."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if smoke:
        cmd.append("--smoke")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": path}
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=2 * seconds + 60)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or json.loads(ready or "{}").get("ready") is not True:
        raise BenchError(f"worker {mode} {workload} exited with {proc.returncode}")
    return setup_s, (json.loads(rest.splitlines()[-1]) if mode != "setup" else None)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload; return the full record, whose 'result' is printed."""
    env = run_environment()
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "smoke": smoke, "env": env}
    if trace:
        _, child = _run_child(workload, seed, seconds, "trace", smoke)
        metrics = child["metrics"]
    else:
        repeats = SMOKE_SETUP_REPEATS if smoke else SETUP_REPEATS
        setups = [_run_child(workload, seed, seconds, "setup", smoke)[0]
                  for _ in range(repeats)]
        setup_s, child = _run_child(workload, seed, seconds, "measure", smoke)
        setups.append(setup_s)
        rates = [child["trials_per_pass"] / s for s in child["pass_seconds"]]
        metrics = {
            "trials_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_kb"] / 1024, "unit": "MB"},
        }
        record["setup_seconds"] = setups
    env["loadavg_1m_end"] = _loadavg_1m()
    checks = child.pop("checks")
    failed = sum(not c["ok"] for c in checks)
    record.update(child=child, checks=checks, result={
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": metrics,
    })
    return record


def _print_record(record: dict) -> None:
    result = record["result"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"env={json.dumps(record['env'], sort_keys=True)}")
    for check in record["checks"]:
        if not check["ok"]:
            print(f"# FAILED {check['name']}: {check['detail']}")
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    rows.append(("failed_ratio", result["failed"] / result["attempted"], "ratio"))
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"{record['workload']:<14} {name:<{width}} {value:>16.6f} {unit}")


def _save(record: dict) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (out / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny trial counts, to exercise the benchmark quickly")
    args = parser.parse_args(argv)
    if not (SRC / "sqsig" / "__init__.py").is_file():
        print(f"error: no sqsig source under {SRC}", file=sys.stderr)
        return 2

    workloads = names if args.workload == "all" else [args.workload]
    records = []
    try:
        for workload in workloads:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                  args.smoke)
            _save(record)
            _print_record(record)
            records.append(record)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
