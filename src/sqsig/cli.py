"""Command-line interface.

Subcommands:
  run <scenario>   run a scenario file (flags: --seed --trials --out --format)
  matrix           full attack x detection-mode grid, detect/miss table
  density --n N    ciphertext density check for two distinct messages
  efficiency --n N qubit-efficiency counts

Exit codes: 0 success, 1 configuration or usage error, 2 internal invariant
failure.
The top-level --debug flag prints the traceback of an internal failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .harness import (
    ConfigError,
    REPORT_FORMATS,
    compute_efficiency,
    density_check,
    emit_report,
    load_scenario,
    run_matrix,
    run_trials,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqsig",
        description="Semi-quantum signature protocol simulator",
    )
    parser.add_argument("--debug", action="store_true",
                        help="print the traceback of an internal error (exit 2)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="path to a key=value scenario file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--trials", type=int, default=None)
    p_run.add_argument("--out", default=None, help="write the report here")
    p_run.add_argument("--format", choices=REPORT_FORMATS, default="human")

    p_matrix = sub.add_parser("matrix", help="attack x mode detect/miss grid")
    p_matrix.add_argument("--n", type=int, default=4)
    p_matrix.add_argument("--trials", type=int, default=200)
    p_matrix.add_argument("--seed", type=int, default=0)

    p_density = sub.add_parser("density", help="ciphertext density check")
    p_density.add_argument("--n", type=int, required=True)

    p_eff = sub.add_parser("efficiency", help="qubit efficiency counts")
    p_eff.add_argument("--n", type=int, required=True)
    return parser


def _cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config.seed = args.seed
    if args.trials is not None:
        config.trials = args.trials
    config.validate()
    stats, transcript = run_trials(config)
    report = emit_report(stats, transcript, format=args.format)
    out_path = args.out or config.output
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {out_path}: {exc}")
    else:
        sys.stdout.write(report)
    return 0


def _cmd_matrix(args) -> int:
    rows = run_matrix(n=args.n, trials=args.trials, seed=args.seed)
    width = max(len(r["attack"]) for r in rows)
    print(f"{'attack':<{width}}  {'mode':<22}  {'abort_rate':>10}  result")
    for row in rows:
        flag = "DETECT" if row["abort_rate"] > 0.5 else "miss"
        if row["attack"] == "none":
            flag = "-"
        print(
            f"{row['attack']:<{width}}  {row['mode']:<22}  "
            f"{row['abort_rate']:>10.4f}  {flag}"
        )
    return 0


def _cmd_density(args) -> int:
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    m = tuple([0] * args.n)
    m_prime = tuple([1] * args.n)
    report = density_check(m, m_prime)
    print(f"positions checked          : {args.n}")
    print(f"max deviation from I/2     : {report.max_deviation_from_mixed:.3e}")
    print(f"max per-position distance  : {report.max_trace_distance:.3e}")
    print(f"decoy mixture deviation    : {report.decoy_mixture_deviation:.3e}")
    return 0


def _cmd_efficiency(args) -> int:
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    eff = compute_efficiency(args.n)
    print(f"message bits c             : {eff.c}")
    print(f"transmitted qubits q       : {eff.q}")
    print(f"classical bits b           : {eff.b}")
    print(f"eta (digest excluded)      : {eff.eta} = {float(eff.eta):.6f}")
    print(f"eta (digest {eff.digest_bits} bits)      : "
          f"{float(eff.eta_with_digest):.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; argparse's usage error 2 becomes 1
        return 1 if exc.code else 0
    handlers = {
        "run": _cmd_run,
        "matrix": _cmd_matrix,
        "density": _cmd_density,
        "efficiency": _cmd_efficiency,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant failure
        if args.debug:
            traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
