"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The two big sweeps (criteria 1-4) run once per session, parallelized over
disjoint configurations, and carry the ``slow`` marker (``-m "not slow"``
skips them); every other criterion is self-contained. Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines live.

Criterion 6 checks the forced-mistake floor at each learner's own memory
class: the lower-bound instance is built for c = fact budget / M, which is
c=1 for the budgeted strawman and c=2 for the majority-vote learners (they
hold up to 2M facts). An instance built for a smaller class than the learner
holds raises ``PigeonholeError`` by design, and the test counts it as a
failure.
"""

from __future__ import annotations

import copy
import itertools
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from factgame.adversaries import random_stream
from factgame.experts import SimulatedValueSuite, ThresholdValueSuite, ValueTable
from factgame.harness import RunConfig, run_game
from factgame.invariants import (
    check_backings_agree,
    check_majority_cap,
    check_top_m_replay,
    forced_floor_failures,
    kth_largest,
    top_m_replay,
)
from factgame.model import Fact

GRID_N = (2, 8, 64)
GRID_M = (1, 4, 16)
SWEEP_T = 100_000
TEACH_FRACTION = 0.5
SCRIPTED_SUITES = ("recency", "first-vs-last", "striped")
SCRIPTED_SEEDS = (101, 102, 103, 104)
VALUE_SEEDS = tuple(range(201, 213))

_stream_cache: dict = {}


def _universe(capacity: int) -> int:
    return max(16, 8 * capacity)


def _cached_stream(universe: int, seed: int):
    key = (universe, SWEEP_T, TEACH_FRACTION, seed)
    if key not in _stream_cache:
        _stream_cache[key] = random_stream(universe, SWEEP_T, TEACH_FRACTION, seed)
    return _stream_cache[key]


def _run_scripted(task):
    n, capacity, suite, seed = task
    config = RunConfig(
        learner="lazy",
        adversary=_cached_stream(_universe(capacity), seed),
        experts=f"scripted:{suite},N={n}",
        capacity=capacity,
        seed=seed,
    )
    ledger, report = run_game(config)
    return {
        "n": n,
        "m": capacity,
        "suite": suite,
        "seed": seed,
        "L": ledger.learner_mistakes,
        "opt": ledger.opt,
        "max_fact": ledger.max_fact_memory(),
        "fact_ok": report.check("fact_memory").passed,
        "aux_ok": report.check("aux_state").passed,
        "derived_ok": report.check("mistake_derived").passed,
        "literal_ok": report.check("mistake_literal").passed,
    }


def _run_value(task):
    n, capacity, seed = task
    universe = _universe(capacity)
    config = RunConfig(
        learner="value-lazy",
        adversary=_cached_stream(universe, seed),
        experts=f"values:N={n},universe={universe},seed={seed + 5000}",
        capacity=capacity,
        seed=seed,
        verify_soundness=True,
    )
    ledger, report = run_game(config)
    return {
        "n": n,
        "m": capacity,
        "seed": seed,
        "L": ledger.learner_mistakes,
        "opt": ledger.opt,
        "max_fact": ledger.max_fact_memory(),
        "max_question": ledger.max_question_memory(),
        "fact_ok": report.check("fact_memory").passed,
        "question_ok": report.check("question_memory").passed,
        "aux_ok": report.check("aux_state").passed,
        "derived_ok": report.check("mistake_derived").passed,
        "literal_ok": report.check("mistake_literal").passed,
        "t_sound": report.check("threshold_underestimates").passed,
        "tpre_sound": report.check("pre_threshold_underestimates").passed,
        "err_sound": report.check("perceived_errors_underestimate").passed,
    }


def _parallel(worker, tasks):
    tasks = sorted(tasks, key=lambda t: -(t[0] * t[1]))  # heavy cells first
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(worker, tasks, chunksize=1))


@pytest.fixture(scope="session")
def scripted_sweep():
    tasks = [
        (n, m, suite, seed)
        for n, m, suite, seed in itertools.product(
            GRID_N, GRID_M, SCRIPTED_SUITES, SCRIPTED_SEEDS
        )
    ]
    start = time.perf_counter()
    results = _parallel(_run_scripted, tasks)
    elapsed = time.perf_counter() - start
    return results, elapsed


@pytest.fixture(scope="session")
def value_sweep():
    tasks = [
        (n, m, seed) for n, m, seed in itertools.product(GRID_N, GRID_M, VALUE_SEEDS)
    ]
    start = time.perf_counter()
    results = _parallel(_run_value, tasks)
    elapsed = time.perf_counter() - start
    return results, elapsed


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.mark.slow
def test_criterion_1_memory_bound_oracle_learner(scripted_sweep) -> None:
    results, elapsed = scripted_sweep
    assert len(results) >= 100
    bad = [r for r in results if not r["fact_ok"] or r["max_fact"] > 2 * r["m"]]
    ok = not bad and elapsed < 120.0
    _report(
        "criterion 1 (fact memory <= 2M, oracle learner)",
        ok,
        f"{len(results)} runs of T={SWEEP_T}, max |mem|/2M = "
        f"{max(r['max_fact'] / (2 * r['m']) for r in results):.2f}, {elapsed:.0f}s",
    )
    assert not bad, f"fact memory exceeded 2M in: {bad[:3]}"
    assert elapsed < 120.0, f"sweep took {elapsed:.0f}s, budget is 120s"


@pytest.mark.slow
def test_criterion_2_memory_bound_value_learner(value_sweep) -> None:
    results, elapsed = value_sweep
    assert len(results) >= 100
    bad = [
        r
        for r in results
        if not r["fact_ok"]
        or not r["question_ok"]
        or r["max_fact"] > 2 * r["m"]
        or r["max_question"] > 2 * r["m"]
    ]
    _report(
        "criterion 2 (fact memory <= 2M and parked questions <= 2M, value learner)",
        not bad,
        f"{len(results)} runs, max facts {max(r['max_fact'] for r in results)}, "
        f"max parked {max(r['max_question'] for r in results)}, {elapsed:.0f}s",
    )
    assert not bad, f"memory class exceeded in: {bad[:3]}"


@pytest.mark.slow
def test_criterion_3_mistake_bounds(scripted_sweep, value_sweep) -> None:
    scripted, _ = scripted_sweep
    value, _ = value_sweep
    bad = [r for r in scripted + value if not r["derived_ok"]]
    literal_holds = sum(1 for r in scripted + value if r["literal_ok"])
    total = len(scripted) + len(value)
    _report(
        "criterion 3 (mistake bound, safe form; literal form reported)",
        not bad,
        f"safe form on {total}/{total} runs; literal base-2 form on "
        f"{literal_holds}/{total} runs",
    )
    assert not bad, f"derived-safe mistake bound failed in: {bad[:3]}"


@pytest.mark.slow
def test_criterion_4_threshold_soundness(value_sweep) -> None:
    results, _ = value_sweep
    bad = [
        r
        for r in results
        if not (r["t_sound"] and r["tpre_sound"] and r["err_sound"])
    ]
    _report(
        "criterion 4 (estimated cutoffs and error counts never exceed truth)",
        not bad,
        f"{len(results)} runs, three per-step checks each",
    )
    assert not bad, f"soundness violated in: {bad[:3]}"


def _threshold_answers(table, seen, capacity):
    """Reference oracle: membership iff seen and valued at or above the
    capacity-th largest seen value (recomputed by sorting, independent of the
    eviction-based route); one row per expert, columns in universe order."""
    out = []
    for row in table.values.tolist():
        vf = dict(zip(table.universe, row))
        cutoff = kth_largest([vf[q] for q in seen], capacity)
        out.append(tuple(q in seen and vf[q] >= cutoff for q in table.universe))
    return tuple(out)


def _suite_answers(suite, universe):
    """What a suite answers: its membership rows, one per expert."""
    return tuple(map(tuple, suite.knows_many(universe).T.tolist()))


def test_criterion_5_oracle_equivalence() -> None:
    # Exhaustive over every stream of length <= 8 on a 3-question universe,
    # with six experts covering all value orderings, played on both runtime
    # backings at once. Two prefixes on which the suites answer alike (the
    # seen set, every membership bit and every cutoff) have identical
    # subtrees; memoizing on those answers walks the full 6^8 event tree
    # while comparing each distinct reachable state once per depth. A bad
    # suite that answers differently after the same seen set is walked down
    # each of its paths. Teach children offer to a copy of the suites;
    # evaluate children re-offer a seen fact, which is asserted to return
    # () and move no answer, and continue on the same suites.
    universe = ("q0", "q1", "q2")
    table = ValueTable(universe, list(itertools.permutations((1, 2, 3))))
    checked = 0

    def answers(suites):
        return tuple(
            (_suite_answers(s, universe), tuple(s.true_thresholds().tolist()))
            for s in suites
        )

    for capacity in (1, 2, 3):
        verified: dict[tuple, int] = {}

        def compare(suites, seen) -> None:
            nonlocal checked
            expected = _threshold_answers(table, seen, capacity)
            for suite in suites:
                assert _suite_answers(suite, universe) == expected, suite.backing
            checked += 1

        def walk(suites, seen, depth) -> None:
            key = (seen, answers(suites))
            if verified.get(key, -1) >= depth:
                return
            verified[key] = depth
            if depth == 0:
                return
            for q in universe:
                fact = Fact(q, f"a-{q}")
                taught = copy.deepcopy(suites)
                for suite in taught:
                    suite.offer(fact)
                compare(taught, seen | {q})
                walk(taught, seen | {q}, depth - 1)
                if q in seen:  # evaluating a taught question re-offers its fact
                    before = answers(suites)
                    assert all(suite.offer(fact) == () for suite in suites)
                    assert answers(suites) == before
                compare(suites, seen)
                walk(suites, seen, depth - 1)

        start = (
            SimulatedValueSuite(table.value_functions(), capacity),
            ThresholdValueSuite(table, capacity),
        )
        compare(start, frozenset())
        walk(start, frozenset(), 8)

    ok, detail = check_backings_agree(seed=55, rounds=10_000)
    _report(
        "criterion 5 (simulation vs cutoff oracle backings agree)",
        ok,
        f"{checked} exhaustive states; {detail}",
    )
    assert ok, detail


FLOOR_CASES = [
    (n, m, opt) for n in (4, 8, 16) for m in (2, 4) for opt in (0, 2)
]


# Memory multiplier c of each learner's declared fact budget c*M. The test
# checks it against the fact cap the harness reports for every game.
MEMORY_CLASS = {"random-evict": 1, "mwu": 2, "lazy": 2, "value-lazy": 2}


@pytest.mark.parametrize("learner", list(MEMORY_CLASS))
def test_criterion_6_lower_bound(learner: str) -> None:
    # Each case must reach the floor depth * (M // 2) + opt with a survivor
    # at <= opt mistakes, and the learner must report a fact cap of c*M.
    c = MEMORY_CLASS[learner]
    failures = forced_floor_failures(learner, c, FLOOR_CASES, seed=13)
    _report(
        f"criterion 6 (forced-mistake floor at c={c}, learner={learner})",
        not failures,
        f"{len(FLOOR_CASES)} instances"
        + ("" if not failures else f"; first failure: {failures[0]}"),
    )
    assert not failures, (
        f"The c={c} construction did not force the floor on {learner}, or the "
        "learner's fact budget is not the c*M facts the instance targets. "
        "Failures:\n"
        + "\n".join(failures)
    )


def test_criterion_7_majority_kept_set_cap() -> None:
    ok, detail = check_majority_cap(seed=77, rounds=10_000)
    _report("criterion 7 (weighted-majority kept set <= 2M)", ok, detail)
    assert ok, detail


def test_criterion_8_value_expert_semantics() -> None:
    # Exhaustive: all teach orders over a 5-question universe, every prefix,
    # played on a one-expert simulation suite against the sort-based replay
    # oracle.
    questions = [f"q{i}" for i in range(5)]
    table = ValueTable(questions, [[1, 3, 5, 7, 9]])
    values = table.value_function(0)
    exhaustive_checked = 0
    for capacity in (1, 2, 3, 4, 5):
        for order in itertools.permutations(questions):
            suite = SimulatedValueSuite([values], capacity)
            offered: list[str] = []
            for q in order:
                suite.offer(Fact(q, "a"))
                offered.append(q)
                member = suite.knows_many(questions)[:, 0]
                stored = {p for p, bit in zip(questions, member) if bit}
                assert stored == top_m_replay(offered, values, capacity)
                exhaustive_checked += 1
    ok, detail = check_top_m_replay(seed=88, rounds=2_000)
    _report(
        "criterion 8 (retention equals top-M-by-value replay)",
        ok,
        f"{exhaustive_checked} exhaustive prefixes; {detail}",
    )
    assert ok, detail


def test_criterion_9_deterministic_outputs(tmp_path) -> None:
    from factgame.cli import main

    contents = []
    for attempt in range(2):
        csv_path = tmp_path / f"run{attempt}.csv"
        sum_path = tmp_path / f"run{attempt}.txt"
        code = main(
            [
                "run",
                "--learner",
                "value-lazy",
                "--adversary",
                "random:universe=32,T=5000,teach=0.5,seed=42",
                "--experts",
                "values:N=8,universe=32,seed=6",
                "--M",
                "4",
                "--seed",
                "42",
                "--csv",
                str(csv_path),
                "--summary",
                str(sum_path),
            ]
        )
        assert code == 0
        contents.append((csv_path.read_bytes(), sum_path.read_bytes()))
    ok = contents[0] == contents[1]
    _report(
        "criterion 9 (identical seeds give byte-identical outputs)",
        ok,
        f"{len(contents[0][0])} CSV bytes compared",
    )
    assert ok
