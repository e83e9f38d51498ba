from __future__ import annotations

import io
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factgame.adversaries import random_stream
from factgame.experts import (
    SimulatedValueSuite,
    ThresholdValueSuite,
    ValueTable,
    build_scripted_suite,
    random_value_suite,
)
from factgame.harness import LEARNER_NAMES, RunConfig, format_summary, run_game
from factgame.invariants import kth_largest, majority_kept_count
from factgame.learners import (
    FullSimLearner,
    LazyLearner,
    MwuLearner,
    RandomEvictLearner,
    ValueLazyLearner,
    _ActiveSetLearner,
)
from factgame.model import Fact


class StubSuite:
    """Hand-set membership table for unit-driving learners: the suite
    protocol's membership queries, with no memories behind them."""

    def __init__(self, n: int):
        self.n = n
        self.table: dict[object, np.ndarray] = {}

    def set(self, question, bits) -> None:
        self.table[question] = np.asarray(bits, dtype=bool)

    def knows(self, question) -> np.ndarray:
        return self.table.get(question, np.zeros(self.n, dtype=bool))

    def knows_many(self, questions) -> np.ndarray:
        return np.asarray([self.knows(q) for q in questions], dtype=bool).reshape(
            len(questions), self.n
        )

    def count_active(self, question, active, token=None) -> int:
        return int((self.knows(question) & active).sum())


def test_kth_largest_sentinel_and_order() -> None:
    assert kth_largest([7, 5, 3], 2) == 5
    assert kth_largest([9], 2) == 0
    assert kth_largest([4], 1) == 4
    assert kth_largest([], 1) == 0


class TestMwu:
    def test_weight_formula(self) -> None:
        suite = StubSuite(2)
        learner = MwuLearner(suite, capacity=2, gamma=0.5)
        suite.set("q", [False, True])
        learner.observe_evaluation("q", suite.knows("q"))
        assert list(learner.errors) == [1, 0]
        w = (1.0 - learner.gamma) ** learner.errors
        assert list(w) == [0.5, 1.0]

    def test_half_weight_boundary_keeps_the_fact(self) -> None:
        suite = StubSuite(2)
        learner = MwuLearner(suite, capacity=1, gamma=0.5)
        suite.set("q", [True, False])  # exactly half of the (equal) weight
        learner.update_memory("q", "a", ("q",))
        assert "q" in learner.memory

    def test_unanimous_backing_removes_nothing(self) -> None:
        suite = StubSuite(3)
        learner = MwuLearner(suite, capacity=2)
        for q in ("q1", "q2"):
            suite.set(q, [True, True, True])
            learner.update_memory(q, "a", (q,))
        assert set(learner.memory) == {"q1", "q2"}

    def test_memory_stays_within_twice_capacity(self) -> None:
        rng = random.Random(2)
        for trial in range(5):
            capacity = rng.choice([1, 2, 4])
            suite = ThresholdValueSuite(
                random_value_suite(5, [f"q{i}" for i in range(24)], trial), capacity
            )
            learner = MwuLearner(suite, capacity)
            for event in random_stream(24, 3000, 0.5, trial):
                if event.is_evaluate:
                    learner.observe_evaluation(event.question, suite.knows(event.question))
                changed = suite.offer(Fact(event.question, event.answer))
                learner.update_memory(event.question, event.answer, changed)
                assert len(learner.memory) <= 2 * capacity

    def test_rejects_bad_gamma(self) -> None:
        with pytest.raises(ValueError):
            MwuLearner(StubSuite(1), capacity=1, gamma=1.0)


class NaiveMwu:
    """Direct restatement of the mwu update rules: weights and memberships
    recomputed from scratch on every step."""

    def __init__(self, suite, gamma: float):
        self.suite, self.gamma = suite, gamma
        self.errors = np.zeros(suite.n, dtype=np.int64)
        self.memory: dict = {}

    def observe(self, question) -> None:
        self.errors += ~self.suite.knows(question)

    def update(self, question, answer) -> None:
        if answer is not None:
            self.memory[question] = answer
        if self.memory:
            questions = list(self.memory)
            w = (1.0 - self.gamma) ** (self.errors - self.errors.min())
            saved = self.suite.knows_many(questions) @ w
            for q, s in zip(questions, saved):
                if s < 0.5 * w.sum():
                    del self.memory[q]


def make_suite(backing: str, n: int, capacity: int, universe: int, seed: int):
    """A fresh suite of the given backing; value panels derive from the seed."""
    if backing == "scripted":
        return build_scripted_suite(("recency", "first-vs-last", "striped")[seed % 3], n, capacity)
    table = random_value_suite(n, [f"q{i}" for i in range(universe)], seed + 1)
    if backing == "simulation":
        return SimulatedValueSuite(table, capacity)
    return ThresholdValueSuite(table, capacity)


def test_mwu_matches_naive_reference_on_random_streams() -> None:
    rng = random.Random(4)
    for trial in range(18):
        backing = ("scripted", "simulation", "threshold")[trial % 3]
        n, capacity = rng.choice([2, 3, 5, 8]), rng.choice([1, 2, 4])
        universe, gamma = rng.choice([8, 16]), rng.choice([0.5, 0.3, 0.9])
        fast_suite = make_suite(backing, n, capacity, universe, trial)
        slow_suite = make_suite(backing, n, capacity, universe, trial)
        fast = MwuLearner(fast_suite, capacity, gamma=gamma)
        slow = NaiveMwu(slow_suite, gamma)
        for event in random_stream(universe, 300, rng.choice([0.3, 0.5, 0.8]), trial):
            if event.is_evaluate:
                fast.observe_evaluation(event.question, fast_suite.knows(event.question))
                slow.observe(event.question)
            changed = fast_suite.offer(Fact(event.question, event.answer))
            slow_suite.offer(Fact(event.question, event.answer))
            fast.update_memory(event.question, event.answer, changed)
            slow.update(event.question, event.answer)
            assert fast.memory == slow.memory, (trial, backing)
            assert list(fast.errors) == list(slow.errors)


def test_mwu_re_tests_a_pruned_matrix_as_a_full_recompute_does() -> None:
    # A float product's per-row rounding depends on the row count: with these
    # weights (gamma 0.1) the 4-row product keeps q3 at a near tie, while the
    # 1-row product of the pruned matrix may drop it. Whatever this platform's
    # BLAS does, the learner must re-test the pruned matrix on the next step
    # and agree with the from-scratch reference. The first step names every
    # row that moved, as a suite's offer would; the second names none.
    rows = [[1, 0, 0, 0, 1, 1, 1, 0], [0, 1, 0, 1, 1, 0, 0, 0],
            [0, 1, 0, 1, 1, 0, 1, 0], [1, 1, 1, 0, 0, 1, 0, 0]]
    suite = StubSuite(8)
    fast = MwuLearner(suite, capacity=2, gamma=0.1)
    slow = NaiveMwu(suite, gamma=0.1)
    for i in range(4):
        suite.set(f"q{i}", [True] * 8)
        fast.update_memory(f"q{i}", "a", (f"q{i}",))
        slow.update(f"q{i}", "a")
    for i, bits in enumerate(rows):
        suite.set(f"q{i}", bits)
    errors = [3, 5, 1, 3, 5, 2, 2, 1]
    for k in range(max(errors)):  # expert e errs on the first errors[e] evaluations
        suite.set(f"e{k}", [k >= err for err in errors])
        fast.observe_evaluation(f"e{k}", suite.knows(f"e{k}"))
        slow.observe(f"e{k}")
    assert list(fast.errors) == errors
    for changed in (("q0", "q1", "q2", "q3"), ()):
        fast.update_memory("q3", None, changed)
        slow.update("q3", None)
        assert fast.memory == slow.memory


def play_twins(learner: str, backing: str, n: int, capacity: int, universe: int,
               length: int, teach: float, seed: int, gamma: float = 0.5) -> None:
    """Drive ``learner`` over one stream and one suite, in the harness's
    phase order and with the suite's ``changed``, beside a from-scratch
    reference over the same suite: ``NaiveMwu``, ``NaiveLazy``, or for
    ``full-sim`` the shown facts that some expert stores. Their memories,
    and ``lazy``'s saver counts recounted from ``knows & active``, must
    agree after every step."""
    suite = make_suite(backing, n, capacity, universe, seed)
    shown: dict = {}  # full-sim's reference: every fact offered so far
    if learner == "mwu":
        fast, full = MwuLearner(suite, capacity, gamma=gamma), NaiveMwu(suite, gamma)
    elif learner == "lazy":
        fast, full = LazyLearner(suite, capacity), NaiveLazy(suite, capacity)
    else:
        fast, full = FullSimLearner(suite), None
    for step, event in enumerate(random_stream(universe, length, teach, seed)):
        if event.is_evaluate:
            fast.observe_evaluation(event.question, suite.knows(event.question))
            if full is not None:
                full.observe(event.question)
        changed = suite.offer(Fact(event.question, event.answer))
        fast.update_memory(event.question, event.answer, changed)
        if full is None:
            shown[event.question] = event.answer
            union = {q: a for q, a in shown.items() if suite.knows(q).any()}
            assert fast.memory == union, (learner, backing, step)
            continue
        full.update(event.question, event.answer)
        assert fast.memory == full.memory, (learner, backing, step)
        assert list(fast.errors) == list(full.errors), (learner, backing, step)
        if learner == "lazy":
            assert list(fast.active) == full.active, (learner, backing, step)
            recount = {q: int((suite.knows(q) & fast.active).sum()) for q in fast.memory}
            assert fast._counts == recount, (learner, backing, step)


@given(
    learner=st.sampled_from(["mwu", "lazy", "full-sim"]),
    backing=st.sampled_from(["scripted", "simulation", "threshold"]),
    length=st.integers(0, 200),
    n=st.integers(1, 8),
    capacity=st.integers(1, 4),
    universe=st.integers(2, 16),
    teach=st.sampled_from([0.3, 0.5, 0.8]),
    seed=st.integers(0, 10**6),
    gamma=st.sampled_from([0.5, 0.3, 0.9]),
)
@settings(max_examples=100, deadline=None)
def test_incremental_memory_phase_matches_full_recompute(
    learner, backing, length, n, capacity, universe, teach, seed, gamma
) -> None:
    play_twins(learner, backing, n, capacity, universe, length, teach, seed, gamma)


def test_incremental_memory_phase_matches_full_recompute_on_seeded_streams() -> None:
    for learner in ("mwu", "lazy", "full-sim"):
        for seed, backing in enumerate(("scripted", "simulation", "threshold") * 2):
            play_twins(learner, backing, 6, 2, 12, 300, 0.5, seed)


_lazy_update = LazyLearner.update_memory
_value_lazy_raise_cutoffs = ValueLazyLearner._raise_cutoffs


def _mwu_observe_keeping_weights(self, question, know):
    self.errors += ~know


def _full_sim_ignoring_evictions(self, question, answer, changed):
    if question in changed and self.suite.knows(question).any():
        self.memory[question] = answer


def _lazy_ignoring_evictions(self, question, answer, changed):
    _lazy_update(self, question, answer, ())


def _raise_cutoffs_ignoring_active(self, *args):
    active, self.active = self.active, np.ones_like(self.active)
    try:
        return _value_lazy_raise_cutoffs(self, *args)
    finally:
        self.active = active


# One planted fault per incremental path, with the named test that must
# catch it.
MEMORY_PHASE_FAULTS = {
    "mwu keeps its weight cache across an evaluate": (
        MwuLearner, "observe_evaluation", _mwu_observe_keeping_weights,
        test_mwu_matches_naive_reference_on_random_streams,
    ),
    "full-sim ignores evictions": (
        FullSimLearner, "update_memory", _full_sim_ignoring_evictions,
        test_incremental_memory_phase_matches_full_recompute_on_seeded_streams,
    ),
    "lazy recounts only the step's fact": (
        LazyLearner, "update_memory", _lazy_ignoring_evictions,
        test_incremental_memory_phase_matches_full_recompute_on_seeded_streams,
    ),
    "value-lazy raises the cutoffs of inactive experts": (
        ValueLazyLearner, "_raise_cutoffs", _raise_cutoffs_ignoring_active,
        lambda: test_value_lazy_matches_naive_reference_on_random_streams(),  # defined below
    ),
}


@pytest.mark.parametrize("fault", list(MEMORY_PHASE_FAULTS))
def test_memory_phase_fault_is_caught(monkeypatch, fault) -> None:
    target, name, planted, catching_test = MEMORY_PHASE_FAULTS[fault]
    monkeypatch.setattr(target, name, planted)
    with pytest.raises(AssertionError):
        catching_test()


class TestLazy:
    def test_bulk_removal_boundary_triggers_at_equality(self) -> None:
        suite = StubSuite(3)
        learner = LazyLearner(suite, capacity=1)
        suite.set("q", [True, True, False])  # expert 2 keeps failing
        learner.observe_evaluation("q", suite.knows("q"))
        # 3 active <= 3 * 1 bad: the removal fires on the boundary
        assert list(learner.active) == [True, True, False]
        assert learner.active_count == 2

    def test_no_removal_above_the_boundary(self) -> None:
        suite = StubSuite(4)
        learner = LazyLearner(suite, capacity=1)
        suite.set("q", [True, True, True, False])
        learner.observe_evaluation("q", suite.knows("q"))
        assert learner.active_count == 4  # 4 > 3 * 1

    # value-lazy shares the deactivation rule: pin the same boundary there,
    # driving it with hand-set error counts and a parked (unstored) question.
    def test_value_lazy_bulk_removal_boundary_triggers_at_equality(self) -> None:
        learner = make_value_lazy([{"z": 1}] * 3, capacity=1)
        learner.errors[:] = [learner.M, 0, 0]
        learner.observe_evaluation("z", None)
        # 3 active <= 3 * 1 bad: the removal fires on the boundary
        assert list(learner.active) == [False, True, True]
        assert learner.active_count == 2
        assert learner.generation == 1

    def test_value_lazy_no_removal_above_the_boundary(self) -> None:
        learner = make_value_lazy([{"z": 1}] * 4, capacity=1)
        learner.errors[:] = [learner.M, 0, 0, 0]
        learner.observe_evaluation("z", None)
        assert learner.active_count == 4  # 4 > 3 * 1
        assert learner.generation == 0

    def test_hard_reset_reactivates_everyone(self) -> None:
        suite = StubSuite(2)
        learner = LazyLearner(suite, capacity=1)
        suite.set("q", [False, False])
        learner.observe_evaluation("q", suite.knows("q"))
        assert learner.active_count == 2
        assert list(learner.errors) == [0, 0]
        assert list(learner.active) == [True, True]

    def test_error_counts_cover_inactive_experts(self) -> None:
        suite = StubSuite(3)
        learner = LazyLearner(suite, capacity=2)
        learner.active[2] = False
        learner.active_count = 2
        suite.set("q", [True, True, False])
        learner.observe_evaluation("q", suite.knows("q"))
        assert list(learner.errors) == [0, 0, 1]

    def test_memory_tie_keeps_fact(self) -> None:
        suite = StubSuite(2)
        learner = LazyLearner(suite, capacity=1)
        suite.set("q", [True, False])  # one saver out of two active: a tie
        learner.update_memory("q", "a", ("q",))
        assert "q" in learner.memory
        suite.set("q", [False, False])
        learner.update_memory("q2", None, ("q",))
        assert "q" not in learner.memory

    def test_value_lazy_memory_tie_keeps_fact(self) -> None:
        learner = make_value_lazy([{"q": 2, "r": 1}, {"q": 1, "r": 2}], capacity=1)
        learner.update_memory("q", "a", None)
        learner.update_memory("r", "a", None)  # expert 1's cutoff rises to r's value
        # q and r each have one saver out of two active: both ties
        assert list(learner.threshold_values()) == [2, 2]
        assert set(learner.memory) == {"q", "r"}


_drop_bad_experts = _ActiveSetLearner._drop_bad_experts
_mwu_weights = MwuLearner.weights


def _drop_bad_experts_below_the_boundary(self):
    # Deactivation at active_count < 3 * nbad, which for integers is the
    # rule read with one more active expert.
    active_count, generation = self.active_count, self.generation
    self.active_count += 1
    _drop_bad_experts(self)
    if self.generation == generation:
        self.active_count = active_count


def _dropping_majority_ties(update_memory):
    # A fact goes at 2 * c <= active_count: the rule read with one more
    # active expert, which the memory phase reads only for that test.
    def planted(self, question, answer, changed):
        self.active_count += 1
        try:
            update_memory(self, question, answer, changed)
        finally:
            self.active_count -= 1

    return planted


def _mwu_weights_dropping_half_weight_ties(self):
    # A fact goes at exactly half the weight: below the next float up.
    fresh = self._weights is None
    weights = _mwu_weights(self)
    if fresh:
        self._half = np.nextafter(self._half, np.inf)
    return weights


# One planted fault per boundary of the majority and deactivation rules,
# with the named tests that must each catch it.
BOUNDARY_FAULTS = {
    "deactivation fires only below 3 * nbad": (
        _ActiveSetLearner, "_drop_bad_experts", _drop_bad_experts_below_the_boundary,
        [
            lambda: TestLazy().test_bulk_removal_boundary_triggers_at_equality(),
            lambda: TestLazy().test_value_lazy_bulk_removal_boundary_triggers_at_equality(),
        ],
    ),
    "lazy drops a fact at a majority tie": (
        LazyLearner, "update_memory", _dropping_majority_ties(LazyLearner.update_memory),
        [lambda: TestLazy().test_memory_tie_keeps_fact()],
    ),
    "value-lazy drops a fact at a majority tie": (
        ValueLazyLearner, "update_memory", _dropping_majority_ties(ValueLazyLearner.update_memory),
        [lambda: TestLazy().test_value_lazy_memory_tie_keeps_fact()],
    ),
    "mwu drops a fact at half the weight": (
        MwuLearner, "weights", _mwu_weights_dropping_half_weight_ties,
        [lambda: TestMwu().test_half_weight_boundary_keeps_the_fact()],
    ),
}


@pytest.mark.parametrize("fault", list(BOUNDARY_FAULTS))
def test_boundary_fault_is_caught(monkeypatch, fault) -> None:
    target, name, planted, catching_tests = BOUNDARY_FAULTS[fault]
    monkeypatch.setattr(target, name, planted)
    for catching_test in catching_tests:
        with pytest.raises(AssertionError):
            catching_test()


class NaiveLazy:
    """Direct restatement of the lazy update rules, no caching."""

    def __init__(self, suite, capacity: int):
        self.suite, self.M, self.n = suite, capacity, suite.n
        self.errors = [0] * self.n
        self.active = [True] * self.n
        self.memory: dict = {}

    def observe(self, question) -> None:
        know = self.suite.knows(question)
        for e in range(self.n):
            if not know[e]:
                self.errors[e] += 1
        bad = [e for e in range(self.n) if self.active[e] and self.errors[e] >= self.M]
        if bad and sum(self.active) <= 3 * len(bad):
            for e in bad:
                self.active[e] = False
            if not any(self.active):
                self.errors = [0] * self.n
                self.active = [True] * self.n

    def update(self, question, answer) -> None:
        if answer is not None:
            self.memory[question] = answer
        n_active = sum(self.active)
        for q in list(self.memory):
            know = self.suite.knows(q)
            savers = sum(1 for e in range(self.n) if self.active[e] and know[e])
            if 2 * savers < n_active:
                del self.memory[q]


def test_lazy_matches_naive_reference_on_random_streams() -> None:
    rng = random.Random(0)
    for trial in range(25):
        n = rng.choice([2, 3, 5, 8])
        capacity = rng.choice([1, 2, 4])
        universe = rng.choice([8, 16, 24])
        kind = rng.choice(["recency", "first-vs-last", "striped", "values"])
        stream = random_stream(universe, 350, rng.choice([0.3, 0.5, 0.8]), trial)
        if kind == "values":
            table = random_value_suite(n, [f"q{i}" for i in range(universe)], trial + 99)
            fast_suite = ThresholdValueSuite(table, capacity)
            slow_suite = ThresholdValueSuite(table, capacity)
        else:
            fast_suite = build_scripted_suite(kind, n, capacity)
            slow_suite = build_scripted_suite(kind, n, capacity)
        fast = LazyLearner(fast_suite, capacity)
        slow = NaiveLazy(slow_suite, capacity)
        for event in stream:
            if event.is_evaluate:
                fast.observe_evaluation(event.question, fast_suite.knows(event.question))
                slow.observe(event.question)
            changed = fast_suite.offer(Fact(event.question, event.answer))
            slow_suite.offer(Fact(event.question, event.answer))
            fast.update_memory(event.question, event.answer, changed)
            slow.update(event.question, event.answer)
            assert set(fast.memory) == set(slow.memory)
            assert list(fast.errors) == slow.errors
            assert list(fast.active) == slow.active
            assert len(fast.memory) <= 2 * capacity


class NaiveValueLazy:
    """Direct restatement of the threshold-estimating update rules."""

    def __init__(self, vfs, capacity: int):
        self.vfs, self.M, self.n = vfs, capacity, len(vfs)
        self.errors = [0] * self.n
        self.active = [True] * self.n
        self.cut = [0] * self.n
        self.pre = [0] * self.n
        self.minor: list = []
        self.memory: dict = {}

    def _drop_bad(self) -> None:
        bad = [e for e in range(self.n) if self.active[e] and self.errors[e] >= self.M]
        if bad and sum(self.active) <= 3 * len(bad):
            for e in bad:
                self.active[e] = False
            if not any(self.active):
                self.errors = [0] * self.n
                self.active = [True] * self.n

    def observe(self, question) -> None:
        if question in self.memory:
            return
        n_active = sum(self.active)
        failed = [
            e for e in range(self.n) if self.active[e] and self.vfs[e][question] < self.cut[e]
        ]
        if 2 * len(failed) < n_active:
            if question not in self.minor:
                self.minor.append(question)
            for e in range(self.n):
                if self.active[e]:
                    x = kth_largest([self.vfs[e][q] for q in self.minor], self.M)
                    self.pre[e] = max(x, self.pre[e])
            for q in list(self.minor):
                failing = [
                    e
                    for e in range(self.n)
                    if self.active[e] and self.vfs[e][q] < self.pre[e]
                ]
                if 2 * len(failing) >= n_active:
                    for e in failing:
                        self.errors[e] += 1
                    self.minor.remove(q)
        else:
            for e in failed:
                self.errors[e] += 1
        self._drop_bad()

    def update(self, question, answer) -> None:
        if answer is not None:
            self.memory[question] = answer
        pool = set(self.memory) | set(self.minor)
        if pool:
            for e in range(self.n):
                if self.active[e]:
                    x = kth_largest([self.vfs[e][q] for q in pool], self.M)
                    self.cut[e] = max(x, self.cut[e])
        n_active = sum(self.active)
        for q in list(self.memory):
            savers = sum(
                1 for e in range(self.n) if self.active[e] and self.vfs[e][q] >= self.cut[e]
            )
            if 2 * savers < n_active:
                del self.memory[q]


def test_value_lazy_matches_naive_reference_on_random_streams() -> None:
    rng = random.Random(1)
    for trial in range(30):
        n = rng.choice([2, 3, 5, 8])
        capacity = rng.choice([1, 2, 4])
        universe_size = rng.choice([8, 16, 24])
        universe = [f"q{i}" for i in range(universe_size)]
        table = random_value_suite(n, universe, trial + 7)
        stream = random_stream(universe_size, 350, rng.choice([0.3, 0.5, 0.8]), trial)
        fast = ValueLazyLearner(table, capacity)
        slow = NaiveValueLazy([table.value_function(e) for e in range(n)], capacity)
        for event in stream:
            if event.is_evaluate:
                fast.observe_evaluation(event.question, None)
                slow.observe(event.question)
            fast.update_memory(event.question, event.answer, None)
            slow.update(event.question, event.answer)
            assert set(fast.memory) == set(slow.memory)
            assert sorted(fast.minor.values()) == sorted(slow.minor)
            assert list(fast.errors) == slow.errors
            assert list(fast.active) == slow.active
            assert [int(v) for v in fast.threshold_values()] == slow.cut
            assert [int(v) for v in fast.pre_threshold_values()] == slow.pre
            assert len(fast.memory) <= 2 * capacity
            assert len(fast.minor) <= 2 * capacity


@given(
    n=st.integers(1, 64),
    capacity=st.integers(1, 4),
    universe=st.integers(1, 24),
    seed=st.integers(0, 10**6),
    events=st.integers(0, 200).flatmap(
        lambda t: st.lists(st.tuples(st.booleans(), st.integers(0, 23)), min_size=t, max_size=t)
    ),
)
@settings(max_examples=100, deadline=None)
def test_value_lazy_pool_counts_match_brute_force(n, capacity, universe, seed, events) -> None:
    # Teaches and evaluates over a small universe, answered as the harness
    # answers them (an evaluate of a taught question carries its answer), so
    # questions get parked, then taught while parked, and taught again.
    # After every step the kept counts must equal a recount over the pool,
    # and every cutoff the naive reference's.
    names = [f"q{i}" for i in range(universe)]
    table = random_value_suite(n, names, seed)
    fast = ValueLazyLearner(table, capacity)
    slow = NaiveValueLazy([table.value_function(e) for e in range(n)], capacity)
    values = table.values
    taught: dict = {}
    for is_teach, i in events:
        question = names[i % universe]
        if is_teach:
            answer = taught.setdefault(question, "a")
        else:
            answer = taught.get(question)
            fast.observe_evaluation(question, None)
            slow.observe(question)
        fast.update_memory(question, answer, None)
        slow.update(question, answer)
        pool = sorted(set(fast._mem_cols.values()) | set(fast.minor))
        parked = sorted(fast.minor)
        cut = fast.threshold_values()
        pre = fast.pre_threshold_values()
        assert list(fast.above) == list(
            np.count_nonzero(values[:, pool] > cut[:, None], axis=1)
        )
        assert list(fast.above_pre) == list(
            np.count_nonzero(values[:, parked] > pre[:, None], axis=1)
        )
        assert [int(v) for v in cut] == slow.cut
        assert [int(v) for v in pre] == slow.pre
        assert set(fast.memory) == set(slow.memory)
        assert sorted(fast.minor.values()) == sorted(slow.minor)
        assert list(fast.errors) == slow.errors


# value-lazy estimates memberships from its table and reads neither ``know``
# nor ``changed``, so the tests that drive it alone pass None for both.
def make_value_lazy(values_by_expert, capacity):
    return ValueLazyLearner(ValueTable.from_mappings(values_by_expert), capacity)


class TestValueLazyPhases:
    def test_cutoff_refresh_takes_kth_largest_of_pool(self) -> None:
        learner = make_value_lazy([{"a": 7, "b": 5, "c": 3, "d": 1}], capacity=2)
        for q in ("a", "b", "c"):
            learner.update_memory(q, "ans", None)
        # pool values 7,5,3: the 2nd largest is 5
        assert list(learner.threshold_values()) == [5]

    def test_underfull_pool_keeps_sentinel(self) -> None:
        learner = make_value_lazy([{"a": 7, "b": 5, "c": 3}], capacity=2)
        learner.update_memory("a", "ans", None)
        assert list(learner.threshold_values()) == [0]

    def test_cutoffs_never_move_down(self) -> None:
        learner = make_value_lazy([{"a": 9, "b": 8, "c": 1, "d": 2}], capacity=1)
        learner.update_memory("a", "ans", None)
        assert list(learner.threshold_values()) == [9]
        learner.update_memory("c", "ans", None)
        assert list(learner.threshold_values()) == [9]

    def test_evaluate_on_stored_question_is_a_noop(self) -> None:
        learner = make_value_lazy([{"a": 2, "b": 1}, {"a": 1, "b": 2}], capacity=1)
        learner.update_memory("a", "ans", None)
        before = (
            list(learner.errors),
            list(learner.threshold_values()),
            dict(learner.minor),
        )
        learner.observe_evaluation("a", None)
        assert before == (
            list(learner.errors),
            list(learner.threshold_values()),
            dict(learner.minor),
        )

    def test_missed_question_backed_by_estimates_joins_minor_buffer(self) -> None:
        # Both experts rank q highest, the learner never stored it: the miss
        # is parked rather than charged to the experts.
        learner = make_value_lazy(
            [{"q": 9, "x": 1, "y": 2}, {"q": 8, "x": 2, "y": 1}], capacity=1
        )
        learner.update_memory("x", "ans", None)
        learner.update_memory("y", "ans", None)
        learner.observe_evaluation("q", None)
        assert list(learner.minor.values()) == ["q"]
        assert list(learner.errors) == [0, 0]

    def test_minor_buffer_resolution_charges_failing_experts(self) -> None:
        # Three experts, capacity 1. Parking p then q raises the pre-cutoffs
        # to each expert's better of the two; q then sits below the cutoff for
        # experts 2 and 3 (a majority), so it resolves and charges exactly
        # those two, which also deactivates them.
        learner = make_value_lazy(
            [
                {"p": 5, "q": 9, "x": 1, "y": 2},
                {"p": 9, "q": 5, "x": 1, "y": 2},
                {"p": 8, "q": 7, "x": 1, "y": 2},
            ],
            capacity=1,
        )
        learner.update_memory("x", "ans", None)
        learner.update_memory("y", "ans", None)
        learner.observe_evaluation("p", None)
        assert list(learner.minor.values()) == ["p"]
        assert list(learner.errors) == [0, 0, 0]
        learner.observe_evaluation("q", None)
        assert list(learner.minor.values()) == ["p"]  # p survives: only 1 of 3 below
        assert list(learner.errors) == [0, 1, 1]
        assert list(learner.active) == [True, False, False]

    def test_every_expert_charged_forces_a_reset(self) -> None:
        # capacity 1, two experts that rank p and q symmetrically: resolving
        # the buffer charges both, so both hit the error cap and the hard
        # reset clears the counters and reactivates everyone.
        learner = make_value_lazy(
            [{"p": 5, "q": 9, "x": 1, "y": 2}, {"p": 9, "q": 5, "x": 1, "y": 2}],
            capacity=1,
        )
        learner.update_memory("x", "ans", None)
        learner.update_memory("y", "ans", None)
        learner.observe_evaluation("p", None)
        learner.observe_evaluation("q", None)
        assert list(learner.errors) == [0, 0]
        assert list(learner.active) == [True, True]
        assert learner.generation > 0

    def test_hard_reset_preserves_cutoffs(self) -> None:
        learner = make_value_lazy(
            [{"a": 9, "b": 1, "z": 2}, {"a": 1, "b": 9, "z": 2}], capacity=1
        )
        learner.update_memory("a", "ans", None)
        learner.update_memory("b", "ans", None)
        cuts = list(learner.threshold_values())
        learner.errors[:] = learner.M  # both experts at the removal threshold
        learner.observe_evaluation("z", None)
        assert list(learner.active) == [True, True]  # reset reactivated everyone
        assert list(learner.errors) == [0, 0]
        assert list(learner.threshold_values()) == cuts

    def test_undefined_question_is_an_error(self) -> None:
        learner = make_value_lazy([{"a": 1}], capacity=1)
        with pytest.raises(KeyError):
            learner.update_memory("zzz", "ans", None)
        with pytest.raises(KeyError):
            learner.observe_evaluation("zzz", None)


@given(
    st.integers(1, 9),
    st.integers(1, 5),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_majority_kept_set_is_at_most_twice_capacity(n, capacity, data) -> None:
    # Any 0/1 weighting with at least one active expert, any per-expert
    # storage of at most `capacity` facts: the weighted-majority-kept subset
    # can never exceed twice the capacity.
    n_facts = data.draw(st.integers(0, 4 * capacity + 8))
    weights = data.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda w: any(w))
    )
    stores = [
        set(
            data.draw(
                st.lists(
                    st.integers(0, max(n_facts - 1, 0)),
                    max_size=capacity,
                    unique=True,
                )
            )
        )
        if n_facts
        else set()
        for _ in range(n)
    ]
    assert majority_kept_count(weights, stores, n_facts) <= 2 * capacity


class TestBaselines:
    def test_full_sim_mirrors_union(self) -> None:
        table = ValueTable.from_mappings(
            [{"a": 4, "b": 3, "c": 2, "d": 1}, {"a": 1, "b": 2, "c": 3, "d": 4}]
        )
        suite = SimulatedValueSuite(table, capacity=2)
        learner = FullSimLearner(suite)
        for q in ("a", "b", "c", "d"):
            learner.update_memory(q, "ans", suite.offer(Fact(q, "ans")))
        # disjoint top-2 memories: the union holds all four facts
        assert set(learner.memory) == {"a", "b", "c", "d"}

    def test_full_sim_identical_experts_store_capacity(self) -> None:
        table = ValueTable.from_mappings([{"a": 1, "b": 2, "c": 3}] * 3)
        suite = SimulatedValueSuite(table, capacity=1)
        learner = FullSimLearner(suite)
        for q in ("a", "b", "c"):
            learner.update_memory(q, "ans", suite.offer(Fact(q, "ans")))
        assert set(learner.memory) == {"c"}

    def test_full_sim_never_loses_to_the_best_expert(self) -> None:
        table = random_value_suite(4, [f"q{i}" for i in range(12)], 3)
        suite = ThresholdValueSuite(table, capacity=2)
        learner = FullSimLearner(suite)
        for event in random_stream(12, 600, 0.5, 5):
            if event.is_evaluate:
                # learner memory is a superset of each expert's memory
                learner_knows = event.question in learner.memory
                anyone_knows = bool(suite.knows(event.question).any())
                assert learner_knows == anyone_knows
            changed = suite.offer(Fact(event.question, event.answer))
            learner.update_memory(event.question, event.answer, changed)

    def test_random_evict_budget_and_determinism(self) -> None:
        runs = []
        for _ in range(2):
            learner = RandomEvictLearner(4, capacity=2, budget=3, seed=99)
            for i in range(50):
                learner.update_memory(f"q{i % 11}", "ans", ())
                assert len(learner.memory) <= 3
            runs.append(sorted(map(str, learner.memory)))
        assert runs[0] == runs[1]


@given(
    n=st.integers(1, 6),
    capacity=st.integers(1, 4),
    universe=st.integers(2, 16),
    length=st.integers(0, 150),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=25, deadline=None)
def test_every_learner_plays_identical_games_under_both_backings(
    n, capacity, universe, length, seed
) -> None:
    # The explicit simulation and the cutoff representation must drive every
    # learner to the same ledger and summary bytes.
    for learner in LEARNER_NAMES:
        outputs = []
        for backing in ("simulation", "threshold"):
            config = RunConfig(
                learner=learner,
                adversary=f"random:universe={universe},T={length},seed={seed}",
                experts=f"values:N={n},universe={universe}",
                capacity=capacity,
                seed=seed,
                oracle_backing=backing,
                verify_soundness=True,
            )
            ledger, report = run_game(config)
            buf = io.StringIO()
            ledger.to_csv(buf)
            outputs.append(buf.getvalue() + format_summary(ledger, report))
        assert outputs[0] == outputs[1], learner
