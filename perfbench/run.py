#!/usr/bin/env python3
"""The factgame benchmark.

    python3 perfbench/run.py [--workload all|small-panel|large-panel|fresh-writes]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each workload's games run back to back in one
process (``all`` starts one fresh process per workload). A run first plays
the workload once in a child process with another string-hash seed, for the
reference bytes. It then repeats the workload in passes over the same inputs
until ``--seconds`` (by default BENCHMARK.json's ``run_seconds``) have passed
since the start, and makes at least three passes; a time is each game's
median over the passes, summed over the games. With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics, including the tracing overhead.

Every game of every pass is checked: its bounds must pass, its CSV plus
summary bytes must match the reference pass (run-twice determinism, across
processes and hash seeds), games of one pair must emit identical bytes, and
at the default seed the bytes must hash to the value in golden.json. A
failing or raising game counts toward ``failed`` and the run carries on. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import os

# Pin every BLAS and OpenMP pool before numpy loads, so that mwu's
# `know @ w` stays on one thread on a two-core machine.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"  # CSV scratch and span files, inside the checkout
MIN_PASSES = 3  # untraced run
MIN_TRACED_PASSES = 2  # traced run: at least this many traced and untraced passes each

E2E_METRICS = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class GameResult:
    name: str
    steps: int
    passed: bool  # report.passed
    digest: str | None  # sha256 of CSV plus summary bytes; None if the game raised
    error: str | None
    wall: float  # run_game plus emit_outputs
    loop: float  # run_game minus set-up
    setup: float  # the three builders (untraced passes only)


def run_pass(games, scratch: Path, tracer=None) -> list[GameResult]:
    """Play every game of the workload once, in order."""
    from factgame import harness
    from tracing import SetupTimer

    clock = time.perf_counter
    run_game, emit_outputs = harness.run_game, harness.emit_outputs
    timer = SetupTimer()
    if tracer is not None:
        run_game = tracer.wrap("harness.run_game", run_game)
        emit_outputs = tracer.wrap("harness.emit_outputs", emit_outputs)
    results = []
    with (tracer or timer).installed():
        for game_id, game in enumerate(games):
            if tracer is not None:
                tracer.start_game(game_id)
            csv_path, summary_path = scratch / f"{game_id}.csv", scratch / f"{game_id}.txt"
            config = game.config(str(csv_path), str(summary_path))
            setup_before = timer.seconds
            start = clock()
            ran = None
            try:
                ledger, report = run_game(config)
                ran = clock()
                emit_outputs(ledger, report, config)
                done = clock()
            except Exception as err:  # a failing game is counted, not fatal
                done = clock()
                traceback.print_exc(file=sys.stderr)
                steps, passed, digest, error = 0, False, None, f"{type(err).__name__}: {err}"
            else:
                digest = hashlib.sha256(csv_path.read_bytes() + summary_path.read_bytes()).hexdigest()
                steps, passed, error = len(ledger), report.passed, None
            # Unlink rather than overwrite next pass: opening a file with
            # unwritten data for truncation can wait on the disk.
            csv_path.unlink(missing_ok=True)
            summary_path.unlink(missing_ok=True)
            setup = timer.seconds - setup_before
            results.append(GameResult(
                game.name, steps, passed, digest, error,
                wall=done - start, loop=(ran or done) - start - setup, setup=setup,
            ))
    return results


def pass_digests(name: str, seed: int) -> dict[str, str | None]:
    """Each game's ledger digest from one pass of the workload."""
    from workloads import WORKLOADS

    scratch = OUT_DIR / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return {r.name: r.digest for r in run_pass(WORKLOADS[name](seed), scratch)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def reference_digests(name: str, seed: int) -> dict[str, str | None]:
    """``pass_digests`` run in a child process whose string hashes differ
    from this one's, so that bytes depending on set or dict order of string
    keys show up as a mismatch."""
    parent = os.environ.get("PYTHONHASHSEED", "")
    env = dict(os.environ)
    # Hash seed 0 turns randomisation off; a randomised parent differs from it.
    env["PYTHONHASHSEED"] = str((int(parent) + 1) % 2**32) if parent.isdigit() else "0"
    env["PYTHONPATH"] = os.pathsep.join([str(BENCH_DIR), str(SRC)])
    code = "import json, sys, run; print(json.dumps(run.pass_digests(sys.argv[1], int(sys.argv[2]))))"
    proc = subprocess.run(
        [sys.executable, "-c", code, name, str(seed)],
        stdout=subprocess.PIPE, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"the reference pass of {name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def game_medians(passes: list[list[GameResult]], field: str) -> list[float]:
    """Each game's figure, as the median over passes. Taking the median per
    game rather than per pass keeps a burst of machine noise in one game from
    moving the whole pass."""
    return [statistics.median(getattr(p[i], field) for p in passes) for i in range(len(passes[0]))]


def pass_failures(games, results: list[GameResult], reference: dict, golden: dict | None) -> dict[str, str]:
    """Why each failing game of a pass failed, by game name."""
    pair_digest: dict[str, str | None] = {}
    failed = {}
    for game, r in zip(games, results):
        first_of_pair = pair_digest.setdefault(game.pair, r.digest) if game.pair else r.digest
        if r.error is not None:
            failed[r.name] = f"raised {r.error}"
        elif not r.passed:
            failed[r.name] = "a gating bound failed"
        elif golden is not None and golden.get(r.name) != r.digest:
            failed[r.name] = "ledger bytes differ from the golden hash"
        elif reference.get(r.name) != r.digest:
            failed[r.name] = "ledger bytes differ from the reference pass"
        elif first_of_pair != r.digest:
            failed[r.name] = f"ledger bytes differ from the other backing of {game.pair}"
    return failed


def run_workload(name: str, seed: int, seconds: float, trace: bool, write_golden: bool) -> int:
    from tracing import LAYER_METRICS, Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    games = WORKLOADS[name](seed)
    golden = None
    if write_golden:
        if seed != DEFAULT_SEED:
            print(f"golden hashes are recorded at the default seed {DEFAULT_SEED}", file=sys.stderr)
            return 2
    elif seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN_PATH.read_text()).get(name, {})

    deadline = time.perf_counter() + seconds
    reference = reference_digests(name, seed)
    scratch = OUT_DIR / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    plain: list[list[GameResult]] = []
    traced: list[list[GameResult]] = []
    layer_passes: list[dict] = []
    last_tracer = None
    attempted = 0
    failures: list[str] = []
    try:
        while True:
            if trace:
                enough = min(len(plain), len(traced)) >= MIN_TRACED_PASSES
            else:
                enough = len(plain) >= MIN_PASSES
            if enough and time.perf_counter() >= deadline:
                break
            if trace and len(traced) < len(plain):
                last_tracer = Tracer()
                result = run_pass(games, scratch, last_tracer)
                traced.append(result)
                layer_passes.append(last_tracer.layer_metrics())
            else:
                result = run_pass(games, scratch)
                plain.append(result)
            attempted += len(result)
            for game, reason in pass_failures(games, result, reference, golden).items():
                failures.append(f"pass {len(plain) + len(traced)}: {game}: {reason}")
        if last_tracer is not None:
            last_tracer.save(str(OUT_DIR / f"spans-{name}.npz"), [g.name for g in games])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    mode = "on" if trace else "off"
    print(
        f"workload {name}, seed {seed}: {len(plain) + len(traced)} passes of "
        f"{len(games)} games, trace {mode}"
    )
    for line in failures:
        print(f"FAIL {line}")
    failed = len(failures)
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} games failed)")

    if trace:
        values = {key: statistics.median(p[key] for p in layer_passes) for key in layer_passes[0]}
        values["trace.overhead_s"] = sum(game_medians(traced, "wall")) - sum(game_medians(plain, "wall"))
        units = LAYER_METRICS
        print(f"  per-layer figures are per pass, median of {len(traced)} traced passes")
        ratios = ", ".join(
            f"{backing} {changed / offers:.6g} ({changed} of {offers})"
            for backing, (offers, changed) in last_tracer.offers.items()
        )
        print(f"  experts.offer_changed_ratio by suite backing: {ratios}")
    else:
        steps = sum(r.steps for r in plain[0])
        values = {
            "wall_s": sum(game_medians(plain, "wall")),
            "steps_per_s": steps / sum(game_medians(plain, "loop")),
            "setup_s": sum(game_medians(plain, "setup")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_METRICS
        walls = [sum(r.wall for r in p) for p in plain]
        print(f"  {steps} steps per pass; times are per pass, summed over games of each "
              f"game's median over {len(plain)} passes (pass wall min {min(walls):.6g} s, "
              f"max {max(walls):.6g} s)")
    for key, unit in units.items():
        print(f"  {key} = {values[key]:.6g} {unit}")

    if write_golden:
        if failures:
            print("golden hashes not written: some games failed", file=sys.stderr)
            return 1
        table = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        table[name] = reference
        GOLDEN_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"  golden hashes for {name} written to {GOLDEN_PATH.name}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


def run_all(args, names) -> int:
    """Run every workload in a fresh process of its own, one after another."""
    metrics = {}
    attempted = failed = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.write_golden:
            cmd.append("--write-golden")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": m for key, m in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (golden hashes at 0)")
    parser.add_argument("--seconds", type=float,
                        help="time per workload run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record the ledger hashes of the default seed in golden.json")
    args = parser.parse_args(argv)

    if not (SRC / "factgame" / "__init__.py").is_file():
        print(f"factgame sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose all or one of {list(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.write_golden)


if __name__ == "__main__":
    sys.exit(main())
