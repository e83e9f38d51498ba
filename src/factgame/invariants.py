"""Reference checkers for the invariants the guarantees rest on, and the
``factgame verify`` battery built from them.

Each invariant has one reference here and one seeded random driver that
returns ``(ok, detail)``: a value-based expert keeps the top-M facts by value,
``validate_sequential`` agrees with a quadratic scan, a weighted-majority kept
set holds at most 2M facts, the simulation and threshold oracle backings give
the same answers, and the lower-bound construction forces its mistake floor.
The acceptance suite and the unit tests call these same functions.

The top-M references (``top_m_replay``, ``kth_largest``) sort what was
shown; the replay check plays the runtime simulation backing,
:class:`~factgame.experts.SimulatedValueSuite`, one expert at a time
against them.
"""

from __future__ import annotations

import io
import random
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import adversaries as adv
from . import experts as exp
from .experts import SENTINEL_VALUE
from .harness import BudgetViolationError, RunConfig, run_game
from .model import EVALUATE, TEACH, Event, Fact, QuestionId, validate_sequential

# --- references ---------------------------------------------------------------


def kth_largest(values: Iterable[int], k: int) -> int:
    """The k-th largest element, or the sentinel 0 when fewer than k are
    present (so an under-full cutoff never excludes anything): the retention
    cutoff of a value-based expert over the values it has seen."""
    ordered = sorted(values)
    if len(ordered) < k:
        return SENTINEL_VALUE
    return ordered[-k]


def top_m_replay(
    offered: Iterable[QuestionId], values: Mapping[QuestionId, int], m: int
) -> set[QuestionId]:
    """Keep everything offered, then take the m highest-valued questions."""
    distinct = dict.fromkeys(offered)
    return set(sorted(distinct, key=values.__getitem__, reverse=True)[:m])


def sequential_scan_reference(events: Sequence[Event]) -> tuple[bool, int | None]:
    """Quadratic reference for ``validate_sequential``: scan all earlier
    events for a teach of each evaluated question."""
    for i, event in enumerate(events):
        if event.is_evaluate and not any(
            e.kind == TEACH and e.question == event.question for e in events[:i]
        ):
            return False, i
    return True, None


def majority_kept_count(weights: Sequence[int], stores: Sequence[set], n_facts: int) -> int:
    """How many of facts ``0..n_facts-1`` the weighted majority keeps: those
    stored by experts holding at least half the total weight."""
    total = sum(weights)
    return sum(
        1
        for f in range(n_facts)
        if 2 * sum(w for w, s in zip(weights, stores) if f in s) >= total
    )


# --- seeded random drivers ------------------------------------------------------


def check_sequential_scan(seed: int, rounds: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    for _ in range(rounds):
        events = []
        for _ in range(rng.randrange(0, 200)):
            q = f"q{rng.randrange(8)}"
            events.append(Event(TEACH, q, "a") if rng.random() < 0.6 else Event(EVALUATE, q))
        if validate_sequential(events) != sequential_scan_reference(events):
            return False, f"scan disagrees with quadratic reference on {events}"
    return True, f"{rounds} random streams"


def check_top_m_replay(seed: int, rounds: int) -> tuple[bool, str]:
    """Random universes up to 20 questions, capacities up to 5 and up to 39
    offers with re-offers, each played on a one-expert simulation suite:
    after every offer the memory is the top-M replay and the cutoff is the
    M-th largest value shown."""
    rng = random.Random(seed)
    steps = 0
    for _ in range(rounds):
        qs = [f"q{i}" for i in range(rng.randrange(2, 21))]
        capacity = rng.randrange(1, 6)
        table = exp.random_value_suite(1, qs, rng.randrange(10**9))
        values = table.value_function(0)
        suite = exp.SimulatedValueSuite(table, capacity)
        offered: list[QuestionId] = []
        for _ in range(rng.randrange(1, 40)):
            q = rng.choice(qs)
            suite.offer(Fact(q, f"a-{q}"))
            offered.append(q)
            steps += 1
            member = suite.knows_many(table.universe)[:, 0]
            stored = {p for p, bit in zip(table.universe, member) if bit}
            if stored != top_m_replay(offered, values, capacity):
                return False, f"memory after offers {offered} diverged from top-{capacity} replay"
            cutoff = int(suite.true_thresholds()[0])
            expected = kth_largest({values[p] for p in offered}, capacity)
            if cutoff != expected:
                return False, f"cutoff {cutoff}, not {expected}, after offers {offered}"
    return True, f"{rounds} random offer sequences, {steps} steps"


def check_backings_agree(seed: int, rounds: int) -> tuple[bool, str]:
    """Random suites over universes up to 20 questions, N up to 6 and
    capacities up to 5, fed 1-39 offers of which 40 % re-offer a taught fact:
    ``knows_many`` and ``true_thresholds`` agree after every offer, and
    per-probe ``knows`` agrees after each round's last offer. Each backing's
    ``offer`` names every question whose ``knows_many`` row moved (learners
    recount only those), names none twice, and returns ``()`` exactly when no
    row moved (the soundness refresh and the tracer's change ratio read
    that)."""
    rng = random.Random(seed)
    steps = 0
    for _ in range(rounds):
        qs = [f"q{i}" for i in range(rng.randrange(3, 21))]
        n = rng.randrange(1, 7)
        capacity = rng.randrange(1, 6)
        table = exp.random_value_suite(n, qs, rng.randrange(10**9))
        sim = exp.SimulatedValueSuite(table, capacity)
        thr = exp.ThresholdValueSuite(table, capacity)
        taught: list[QuestionId] = []
        before = sim.knows_many(qs)
        for _ in range(rng.randrange(1, 40)):
            if taught and rng.random() < 0.4:
                q = rng.choice(taught)  # evaluate: re-offer of a seen fact
            else:
                q = rng.choice(qs)
                taught.append(q)
            fact = Fact(q, f"a-{q}")
            returned = {"simulation": sim.offer(fact), "threshold": thr.offer(fact)}
            steps += 1
            after = sim.knows_many(qs)
            moved = {p for p, row in zip(qs, before != after) if row.any()}
            before = after
            for backing, changed in returned.items():
                if not isinstance(changed, tuple) or len(set(changed)) != len(changed):
                    return False, f"{backing} offer returned {changed} after teaching {taught}"
                named = set(changed)
                if not moved <= named:
                    return False, (
                        f"{backing} offer left {sorted(moved - named)} out "
                        f"after teaching {taught}"
                    )
                if (changed == ()) != (not moved):
                    return False, (
                        f"{backing} offer returned {changed} when {sorted(moved)} "
                        f"moved, after teaching {taught}"
                    )
            if not np.array_equal(after, thr.knows_many(qs)):
                return False, f"knows_many disagrees after teaching {taught}"
            if not np.array_equal(sim.true_thresholds(), thr.true_thresholds()):
                return False, f"true_thresholds disagrees after teaching {taught}"
        for probe in qs:
            if not np.array_equal(sim.knows(probe), thr.knows(probe)):
                return False, f"knows({probe!r}) disagrees after teaching {taught}"
    return True, f"{rounds} random suites, {steps} stream steps"


def check_majority_cap(seed: int, rounds: int) -> tuple[bool, str]:
    """Random 0/1 weightings of up to 11 experts, each storing at most M <= 6
    of up to 4M+9 facts: the majority keeps at most 2M."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(rounds):
        n = rng.randrange(1, 12)
        capacity = rng.randrange(1, 7)
        n_facts = rng.randrange(0, 4 * capacity + 10)
        weights = [rng.randrange(2) for _ in range(n)]
        if not any(weights):
            weights[rng.randrange(n)] = 1  # an all-zero weighting has no majority
        stores = []
        for _ in range(n):
            k = min(rng.randrange(0, capacity + 1), n_facts)
            stores.append(set(rng.sample(range(n_facts), k)))
        kept = majority_kept_count(weights, stores, n_facts)
        if kept > 2 * capacity:
            return False, f"kept {kept} facts with capacity {capacity} (N={n}, {n_facts} facts)"
        worst = max(worst, kept / (2 * capacity))
    return True, f"{rounds} random majority instances, tightest ratio {worst:.2f}"


def forced_floor_failures(
    learner: str, c: int, cases: Iterable[tuple[int, int, int]], seed: int
) -> list[str]:
    """Play the class-c lower-bound instance against ``learner`` for each
    (N, M, opt) case; returns one line per broken promise.

    The learner must make at least ``depth * (M // 2) + opt`` mistakes, and
    at least ``M - M // 2`` in each phase-1 evaluate run: the chosen block
    holds at most ``M // 2`` stored facts, and a fact left unstored can be
    stored again only at its own evaluate, after its cost. Some surviving
    expert must make at most ``opt``, and the learner's reported fact cap
    must be c*M. A ``PigeonholeError`` (the learner holds more facts than the
    instance targets) and a ``BudgetViolationError`` (more than it declares)
    are failures too.
    """
    failures = []
    for n, capacity, opt in cases:
        where = f"N={n} M={capacity} opt={opt}"
        instance = adv.build_lower_bound_instance(c, n, capacity, opt)
        adversary = adv.LowerBoundAdversary(instance)
        config = RunConfig(learner=learner, adversary=adversary, capacity=capacity, seed=seed)
        try:
            ledger, report = run_game(config)
        except (adv.PigeonholeError, BudgetViolationError) as err:
            failures.append(f"{where}: {err}")
            continue
        if report.params["fact_cap"] != c * capacity:
            failures.append(
                f"{where}: {learner} declares a fact budget of "
                f"{report.params['fact_cap']}, not c*M = {c * capacity}"
            )
        floor = instance.depth * (capacity // 2) + opt
        if ledger.learner_mistakes < floor:
            failures.append(f"{where}: L={ledger.learner_mistakes} < {floor}")
        # Collection k teaches arity*M facts, then evaluates one block of M.
        span = (instance.arity + 1) * capacity
        for k in range(instance.depth):
            start = k * span + instance.arity * capacity
            run = sum(ledger.costs[start : start + capacity])
            if run < capacity - capacity // 2:
                failures.append(
                    f"{where}: collection {k + 1} evaluates cost {run} < {capacity - capacity // 2}"
                )
        survivors = adversary.surviving_experts()
        if not survivors:
            failures.append(f"{where}: no expert survives")
            continue
        best = min(int(ledger.expert_mistakes[e]) for e in survivors)
        if best > opt:
            failures.append(f"{where}: survivor made {best} > {opt}")
    return failures


# --- the `verify` battery -------------------------------------------------------


def _check_run_bounds(seed: int, quick: bool) -> tuple[bool, str]:
    length = 4000 if quick else 20000
    failures = []
    for learner, experts in (
        ("lazy", "scripted:striped,N=8"),
        ("lazy", "values:N=8,universe=32"),
        ("value-lazy", "values:N=8,universe=32"),
    ):
        config = RunConfig(
            learner=learner,
            adversary=f"random:universe=32,T={length},teach=0.5,seed={seed}",
            experts=experts,
            capacity=4,
            seed=seed,
            verify_soundness=True,
        )
        try:
            _, report = run_game(config)
        except BudgetViolationError as err:
            failures.append(f"{learner}/{experts}: {err}")
            continue
        if not report.passed:
            failed = [c.name for c in report.checks if c.gating and not c.passed]
            failures.append(f"{learner}/{experts}: {failed}")
    if failures:
        return False, "; ".join(failures)
    return True, f"3 seeded runs of length {length}"


def _check_lower_bound(seed: int) -> tuple[bool, str]:
    # The construction's memory class must match the learner: the lazy
    # learners hold up to 2M facts, so they face c=2 instances; the budgeted
    # strawman faces c=1. At M=2 a block choice is one mistake either way;
    # the M=4 case can tell a wrong one.
    failures = []
    for learner, c, n in (("lazy", 2, 16), ("value-lazy", 2, 16), ("random-evict", 1, 8)):
        cases = [(n, 2, 1), (16, 4, 1)]
        failures += [f"{learner} {f}" for f in forced_floor_failures(learner, c, cases, seed)]
    if failures:
        return False, "; ".join(failures)
    return True, "forced-mistake floor holds at matching memory class"


def _check_determinism(seed: int) -> tuple[bool, str]:
    outs = []
    for _ in range(2):
        config = RunConfig(
            learner="lazy",
            adversary=f"random:universe=16,T=2000,teach=0.5,seed={seed}",
            experts="scripted:recency,N=4",
            capacity=2,
            seed=seed,
        )
        ledger, _ = run_game(config)
        buf = io.StringIO()
        ledger.to_csv(buf)
        outs.append(buf.getvalue())
    if outs[0] != outs[1]:
        return False, "identical configs produced different CSVs"
    return True, "byte-identical repeat run"


def verify(seed: int = 0, quick: bool = False) -> tuple[bool, list[str]]:
    """Run the invariant battery; returns (all passed, report lines)."""
    rounds = 40 if quick else 200
    battery = [
        ("sequential-scan", lambda: check_sequential_scan(seed, rounds)),
        ("value-expert-replay", lambda: check_top_m_replay(seed, rounds)),
        ("oracle-backings", lambda: check_backings_agree(seed, max(20, rounds // 4))),
        ("majority-memory-cap", lambda: check_majority_cap(seed, rounds * 10)),
        ("run-bounds", lambda: _check_run_bounds(seed, quick)),
        ("lower-bound", lambda: _check_lower_bound(seed)),
        ("determinism", lambda: _check_determinism(seed)),
    ]
    lines = []
    all_ok = True
    for name, check in battery:
        ok, detail = check()
        all_ok &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok, lines
