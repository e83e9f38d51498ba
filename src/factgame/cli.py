"""Command-line entry points.

Exit codes: 0 on success, 1 when a bound or invariant check fails, 2 on
configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from .adversaries import PigeonholeError
from .harness import (
    BudgetViolationError,
    ConfigError,
    RunConfig,
    emit_outputs,
    format_summary,
    load_grid,
    run_game,
    sweep,
)
from .invariants import verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factgame",
        description="Memory-bounded fact-retention games against expert panels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="play one game and report the ledger")
    run.add_argument("--learner", required=True,
                     help="mwu | lazy | value-lazy | full-sim | random-evict")
    run.add_argument("--adversary", required=True,
                     help="random:universe=U,T=T,teach=F,seed=S | "
                          "lowerbound:c=C,N=N,M=M,opt=K | file:PATH")
    run.add_argument("--experts", default=None,
                     help="expert-suite file, scripted:<name>,N=<int>, or "
                          "values:N=<int>,universe=<int>[,seed=<int>]")
    run.add_argument("--M", dest="capacity", type=int, required=True,
                     help="per-expert fact capacity")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--gamma", type=float, default=0.5,
                     help="decay rate for the mwu learner")
    run.add_argument("--backing", default="auto",
                     choices=("auto", "simulation", "threshold"),
                     help="oracle backing for value-based suites")
    run.add_argument("--csv", dest="csv_path", default=None)
    run.add_argument("--summary", dest="summary_path", default=None)
    run.add_argument("--check-bounds", action="store_true",
                     help="exit nonzero if any gating bound fails")

    ver = sub.add_parser("verify", help="run the invariant and property battery")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--quick", action="store_true")

    sw = sub.add_parser("sweep", help="run a parameter grid from a JSON file")
    sw.add_argument("--grid", required=True)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = RunConfig(
        learner=args.learner,
        adversary=args.adversary,
        experts=args.experts,
        capacity=args.capacity,
        seed=args.seed,
        gamma=args.gamma,
        oracle_backing=args.backing,
        csv_path=args.csv_path,
        summary_path=args.summary_path,
        verify_soundness=args.check_bounds,
    )
    ledger, report = run_game(config)
    emit_outputs(ledger, report, config)
    sys.stdout.write(format_summary(ledger, report))
    if args.check_bounds:
        for line in report.format_lines():
            print(line)
        if not report.passed:
            return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    ok, lines = verify(seed=args.seed, quick=args.quick)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = load_grid(args.grid)
    failures = 0

    def report_line(config, ledger, report):
        nonlocal failures
        status = "PASS" if report.passed else "FAIL"
        if not report.passed:
            failures += 1
        print(
            f"{status} learner={config.learner} adversary={config.adversary} "
            f"experts={config.experts} M={config.capacity} seed={config.seed} "
            f"T={len(ledger)} L={ledger.learner_mistakes} OPT={ledger.opt} "
            f"max_mem={ledger.max_fact_memory()}"
        )

    sweep(grid, on_result=report_line)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (BudgetViolationError, PigeonholeError) as err:
        print(f"invariant failure: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
