from __future__ import annotations

import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factgame.adversaries import build_lower_bound_instance
from factgame.experts import (
    KeepFirstPolicy,
    KeepLastPolicy,
    SCRIPTED_SUITES,
    ScriptedSuite,
    SimulatedValueSuite,
    StridePolicy,
    ThresholdValueSuite,
    ValueTable,
    _shuffle,
    build_scripted_suite,
    dump_expert_suite,
    load_expert_suite,
    random_value_suite,
)
from factgame.harness import RunConfig, build_adversary, build_learner, build_suite
from factgame.invariants import kth_largest, top_m_replay
from factgame.learners import FullSimLearner
from factgame.model import Fact


def fact(q: str) -> Fact:
    return Fact(q, f"ans-{q}")


class TestValueFunction:
    """An expert's value function, as a table row or as its lines in a suite
    file: injective, natural-valued, and defined only where declared."""

    def test_rejects_duplicates(self) -> None:
        with pytest.raises(ValueError, match="injective"):
            ValueTable.from_mappings([{"a": 3, "b": 3}])
        # A suite file is checked line by line, so a value repeated on a
        # question outside the shared set (e1's c) is still rejected.
        lines = [
            "expert e0 value a 1", "expert e0 value b 2",
            "expert e1 value a 1", "expert e1 value c 1",
        ]
        with pytest.raises(ValueError, match=r"line 4: expert e1 uses value 1 twice \(a and c\)"):
            load_expert_suite(lines)

    def test_rejects_non_natural_values(self) -> None:
        with pytest.raises(ValueError, match=">= 1"):
            ValueTable.from_mappings([{"a": 0}])
        with pytest.raises(ValueError, match="integers"):
            ValueTable.from_mappings([{"a": True}])
        with pytest.raises(ValueError, match="line 2: values must be >= 1"):
            load_expert_suite(["expert e0 value a 1", "expert e1 value b 0"])

    def test_undefined_question(self) -> None:
        table = ValueTable.from_mappings([{"a": 1}])
        with pytest.raises(KeyError):
            table.value_function(0)["b"]
        with pytest.raises(KeyError, match="outside the declared universe"):
            table.column("b")


def stored(suite: SimulatedValueSuite, questions: str) -> set[str]:
    """The questions of ``questions`` (space-separated) that the first expert
    of ``suite`` stores."""
    return {q for q in questions.split() if suite.knows(q)[0]}


class TestValueBasedExpert:
    """Worked examples of the top-M rule on a one-expert simulation suite."""

    def test_keeps_highest_valued(self) -> None:
        table = ValueTable.from_mappings([{"q5": 5, "q3": 3, "q7": 7}])
        suite = SimulatedValueSuite(table, capacity=2)
        for q in ("q5", "q3", "q7"):
            suite.offer(fact(q))
        assert stored(suite, "q5 q3 q7") == {"q5", "q7"}

    def test_reoffer_is_a_noop(self) -> None:
        suite = SimulatedValueSuite(ValueTable.from_mappings([{"q4": 4}]), capacity=1)
        assert suite.offer(fact("q4")) == ("q4",)
        assert suite.offer(fact("q4")) == ()
        assert stored(suite, "q4") == {"q4"}

    def test_underfull_keeps_everything(self) -> None:
        table = ValueTable.from_mappings([{"q1": 1, "q2": 2, "q9": 9}])
        suite = SimulatedValueSuite(table, capacity=3)
        suite.offer(fact("q1"))
        suite.offer(fact("q2"))
        assert stored(suite, "q1 q2 q9") == {"q1", "q2"}
        assert suite.true_thresholds().tolist() == [0]

    def test_true_threshold_examples(self) -> None:
        values = ValueTable.from_mappings([{"a": 5, "b": 3, "c": 7, "d": 9, "e": 4}])
        suite = SimulatedValueSuite(values, capacity=2)
        for q in ("a", "b", "c"):
            suite.offer(fact(q))
        # reference: sort all seen values and index the 2nd largest
        assert suite.true_thresholds().tolist() == [sorted([5, 3, 7])[-2]] == [5]
        single = SimulatedValueSuite(values, capacity=2)
        single.offer(fact("d"))
        assert single.true_thresholds().tolist() == [0]
        one = SimulatedValueSuite(values, capacity=1)
        one.offer(fact("e"))
        assert one.true_thresholds().tolist() == [4]


class TestOracleBackings:
    def test_membership_examples(self) -> None:
        suite = SimulatedValueSuite(ValueTable.from_mappings([{"q1": 2, "q2": 1}]), capacity=1)
        suite.offer(fact("q1"))
        assert suite.knows("q1")[0]
        assert not suite.knows("q2")[0]

    def test_unlisted_pair_is_illegal_to_query(self) -> None:
        # Expert 1 scores no q2, so the panel's table has no q2 column.
        ragged = ValueTable.from_mappings([{"q1": 1, "q2": 2}, {"q1": 4}])
        for suite in (SimulatedValueSuite(ragged, 1), ThresholdValueSuite(ragged, 1)):
            suite.offer(fact("q1"))
            assert suite.knows("q1").tolist() == [True, True]
            with pytest.raises(KeyError, match="'q2' is outside the declared universe"):
                suite.knows("q2")
            with pytest.raises(KeyError, match="'q2' is outside the declared universe"):
                suite.offer(fact("q2"))
            with pytest.raises(KeyError):
                suite.knows_many(["q1", "q9"])

    def test_rectangular_table_required_for_threshold_backing(self) -> None:
        with pytest.raises(ValueError, match="rectangular"):
            ThresholdValueSuite(ValueTable(["q1", "q2"], [[1, 2], [4]]), capacity=1)
        # Rows scoring different questions give the table of the shared ones.
        table = ValueTable.from_mappings([{"q1": 1, "q2": 2}, {"q1": 4, "q3": 1}])
        assert table.universe == ("q1",)
        assert table.values.tolist() == [[1], [4]]


class TestSimulatedSuiteErrors:
    def test_conflicting_answer_rejected(self) -> None:
        suite = SimulatedValueSuite(
            ValueTable.from_mappings([{"q1": 2, "q2": 1}, {"q1": 1, "q2": 2}]), capacity=1
        )
        suite.offer(fact("q1"))
        assert suite.offer(fact("q1")) == ()
        with pytest.raises(ValueError, match="conflicting answer"):
            suite.offer(Fact("q1", "other"))

    def test_a_question_no_expert_holds_keeps_its_first_answer(self) -> None:
        # Both backings bind a question's answer at its first show, whether
        # an expert kept the fact (a, evicted by b) or none did (a after b).
        table = ValueTable(["a", "b"], [[1, 2]])
        for order in ("ab", "ba"):
            for suite in (SimulatedValueSuite(table, 1), ThresholdValueSuite(table, 1)):
                for q in order:
                    suite.offer(Fact(q, {"a": "x", "b": "y"}[q]))
                assert not suite.knows("a")[0]
                assert suite.offer(Fact("a", "x")) == ()
                with pytest.raises(ValueError, match="conflicting answer"):
                    suite.offer(Fact("a", "z"))

    @pytest.mark.parametrize("backing", ["simulation", "threshold"])
    def test_capacity_below_one_rejected(self, backing) -> None:
        suite_class = {"simulation": SimulatedValueSuite, "threshold": ThresholdValueSuite}[backing]
        for capacity in (0, -1):
            with pytest.raises(ValueError, match="capacity must be >= 1"):
                suite_class(ValueTable.from_mappings([{"q1": 1}]), capacity=capacity)


def test_count_active_does_not_go_through_knows() -> None:
    # A wrapper on an instance's public knows (as a tracer installs) must
    # not see count_active's membership probes, on either value backing.
    universe = [f"q{i}" for i in range(12)]
    table = random_value_suite(6, universe, seed=5)
    active = np.array([True, False, True, True, False, True])
    answers = []
    for suite in (SimulatedValueSuite(table, 3), ThresholdValueSuite(table, 3)):
        for q in universe[:8]:
            suite.offer(fact(q))
        expected = [int((suite.knows(q) & active).sum()) for q in universe]

        def no_knows(question):
            raise AssertionError("count_active called the public knows")

        suite.knows = no_knows
        counts = [suite.count_active(q, active) for q in universe]
        assert counts == expected
        answers.append(counts)
    assert answers[0] == answers[1]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(1, 20),
    st.lists(st.integers(0, 19), min_size=1, max_size=40),
    st.integers(0, 2**32 - 1),
)
def test_simulated_suite_matches_the_per_expert_reference(n, m, size, picks, seed) -> None:
    """After every offer, each expert stores the top-M replay of what it was
    shown, each cutoff is the M-th largest distinct value shown, and
    ``offer`` returns exactly the questions whose membership moved."""
    universe = [f"q{i}" for i in range(size)]
    table = random_value_suite(n, universe, seed)
    value_functions = [table.value_function(e) for e in range(n)]
    suite = SimulatedValueSuite(table, capacity=m)
    offered: list[str] = []
    stored = [set() for _ in range(n)]
    for pick in picks:
        q = universe[pick % size]  # a repeated pick re-offers a shown fact
        changed = suite.offer(fact(q))
        offered.append(q)
        member = suite.knows_many(universe)
        moved: set[str] = set()
        for e, values in enumerate(value_functions):
            now = {p for p, bit in zip(universe, member[:, e]) if bit}
            assert now == top_m_replay(offered, values, m)
            moved |= now ^ stored[e]
            stored[e] = now
        assert set(changed) == moved
        assert len(changed) == len(moved)
        assert suite.true_thresholds().tolist() == [
            kth_largest({values[p] for p in offered}, m) for values in value_functions
        ]


def test_value_offers_name_the_newcomer_then_each_evictee_in_expert_order() -> None:
    """Both value backings return what an offer moved in one order: the
    newcomer if any expert kept it, then each evicted question once, in the
    order of the first expert by index to evict it (each expert's memory
    before and after the offer is its ``top_m_replay``)."""
    rng = random.Random(17)
    shared_evictees = 0
    for _ in range(60):
        universe = [f"q{i}" for i in range(rng.randrange(2, 16))]
        n, m = rng.randrange(1, 7), rng.randrange(1, 4)
        table = random_value_suite(n, universe, rng.randrange(10**9))
        value_functions = [table.value_function(e) for e in range(n)]
        suites = [ThresholdValueSuite(table, m), SimulatedValueSuite(table, m)]
        offered: list[str] = []
        for _ in range(30):
            q = rng.choice(universe)
            before = [top_m_replay(offered, values, m) for values in value_functions]
            offered.append(q)
            after = [top_m_replay(offered, values, m) for values in value_functions]
            kept = any(q in new and q not in old for old, new in zip(before, after))
            evicted = [gone for old, new in zip(before, after) for gone in old - new]
            shared_evictees += len(evicted) - len(set(evicted))
            expected = ((q,) if kept else ()) + tuple(dict.fromkeys(evicted))
            for suite in suites:
                assert suite.offer(fact(q)) == expected, suite.backing
    assert shared_evictees  # some offer evicted one question from several experts


def test_true_mistake_update_examples() -> None:
    table = ValueTable.from_mappings([{"q1": 2, "q2": 1}, {"q1": 1, "q2": 2}, {"q1": 3, "q2": 1}])
    suite = SimulatedValueSuite(table, capacity=1)
    assert list(~suite.knows("q1")) == [1, 1, 1]
    suite.offer(fact("q1"))
    assert list(~suite.knows("q1")) == [0, 0, 0]
    suite.offer(fact("q2"))  # middle expert trades q1 for q2
    assert list(~suite.knows("q1")) == [0, 1, 0]


class TestScriptedPolicies:
    def test_keep_last_matches_recency_replay(self) -> None:
        rng = random.Random(3)
        policy = KeepLastPolicy(capacity=3)
        last_shown: dict[str, int] = {}
        for t in range(200):
            q = f"q{rng.randrange(8)}"
            policy.offer(fact(q))
            last_shown[q] = t
            expected = set(sorted(last_shown, key=last_shown.__getitem__)[-3:])
            assert {f.question for f in policy.memory()} == expected
            assert len(policy.memory()) <= 3

    def test_keep_first_never_evicts(self) -> None:
        policy = KeepFirstPolicy(capacity=2)
        for q in ("a", "b", "c", "a"):
            policy.offer(fact(q))
        assert {f.question for f in policy.memory()} == {"a", "b"}

    def test_stride_selects_by_arrival_index(self) -> None:
        policy = StridePolicy(capacity=2, stride=2, offset=0)
        for q in ("a", "b", "c", "d", "e"):
            policy.offer(fact(q))
        # arrivals 0, 2, 4 are selected; capacity 2 keeps the newest two
        assert {f.question for f in policy.memory()} == {"c", "e"}

    @pytest.mark.parametrize("name", sorted(SCRIPTED_SUITES))
    def test_capacity_respected_on_random_streams(self, name: str) -> None:
        # Membership answers are expert i's policy's memory, read per expert.
        rng = random.Random(11)
        suite = build_scripted_suite(name, n_experts=6, capacity=3)
        universe = [f"q{i}" for i in range(12)]
        for _ in range(300):
            suite.offer(fact(rng.choice(universe)))
            assert all(len(p.memory()) <= 3 for p in suite.policies)
            expected = [
                [q in suite.policies[p]._memory for p in suite.expert_policy] for q in universe
            ]
            assert suite.knows_many(universe).tolist() == expected
            assert [suite.knows(q).tolist() for q in universe] == expected
        assert suite.knows_many([]).shape == (0, 6)

    def test_suite_delta_reports_every_membership_change(self) -> None:
        # Learners update from offer's tuple alone: it must name every
        # question whose membership moved, none twice, and be () exactly
        # when nothing moved, also with fewer experts than policies.
        rng = random.Random(5)
        universe = [f"q{i}" for i in range(9)]
        for name in SCRIPTED_SUITES:
            for n in range(1, 6):
                where = f"{name}, N={n}"
                suite = build_scripted_suite(name, n_experts=n, capacity=2)
                before = suite.knows_many(universe)
                for _ in range(200):
                    changed = suite.offer(fact(rng.choice(universe)))
                    after = suite.knows_many(universe)
                    moved = {p for p, row in zip(universe, before != after) if row.any()}
                    assert isinstance(changed, tuple), where
                    assert moved <= set(changed), where
                    assert len(set(changed)) == len(changed), where
                    assert (changed == ()) == (not moved), where
                    before = after

    def test_a_policy_backing_no_expert_is_rejected(self) -> None:
        with pytest.raises(ValueError, match=r"policies \[1\] back no expert"):
            ScriptedSuite([KeepFirstPolicy(2), KeepLastPolicy(2)], [0, 0])
        # With two experts, striped holds only the first two of its policies.
        assert len(build_scripted_suite("striped", n_experts=2, capacity=2).policies) == 2

    def test_union_memory_holds_only_what_some_expert_stores(self) -> None:
        # full-sim's memory is the union of the expert memories, so a shown
        # fact that every expert has evicted leaves it.
        suite = build_scripted_suite("striped", n_experts=2, capacity=2)
        learner = FullSimLearner(suite)
        universe = [f"q{i}" for i in range(6)]
        shown, evicted = set(), set()
        for q in universe + universe[:3]:
            learner.update_memory(q, f"ans-{q}", suite.offer(fact(q)))
            shown.add(q)
            union = {p for p in universe if suite.knows(p).any()}
            assert set(learner.memory) == union
            assert all(learner.memory[p] == f"ans-{p}" for p in union)
            evicted |= shown - union
        assert evicted


class TestSuiteFile:
    def test_roundtrip(self) -> None:
        table = {"e1": {"q1": 3, "q2": 1}, "e2": {"q1": 2, "q2": 5}}
        buf = io.StringIO()
        dump_expert_suite(table, buf)
        assert load_expert_suite(io.StringIO(buf.getvalue())) == table

    def test_rejects_duplicates_and_bad_values(self) -> None:
        with pytest.raises(ValueError):
            load_expert_suite(io.StringIO("expert e1 value q1 1\nexpert e1 value q1 2\n"))
        with pytest.raises(ValueError):
            load_expert_suite(io.StringIO("expert e1 value q1 0\n"))
        with pytest.raises(ValueError):
            load_expert_suite(io.StringIO("expert e1 q1 1\n"))
        with pytest.raises(ValueError):
            load_expert_suite(io.StringIO(""))


def test_random_value_suite_deterministic_and_injective() -> None:
    universe = [f"q{i}" for i in range(10)]
    first = random_value_suite(4, universe, seed=9)
    second = random_value_suite(4, universe, seed=9)
    assert np.array_equal(first.values, second.values)
    other = random_value_suite(4, universe, seed=10)
    assert not np.array_equal(first.values, other.values)
    for row in first.values:
        assert sorted(row) == list(range(1, 11))


SHUFFLE_LENGTHS = [*range(301), 511, 512, 513, 1023, 1024, 1025, 20000]


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5])
def test_shuffle_matches_random_shuffle_draw_for_draw(seed) -> None:
    for length in SHUFFLE_LENGTHS:
        expected, got = list(range(length)), list(range(length))
        reference, rng = random.Random(seed), random.Random(seed)
        reference.shuffle(expected)
        _shuffle(got, rng)
        assert got == expected, length
        # The generator made the same draws: its next output is the same.
        assert rng.random() == reference.random(), length


def test_shuffle_twice_from_one_generator() -> None:
    reference, rng = random.Random(11), random.Random(11)
    for length in (1000, 37, 20000):
        expected, got = list(range(length)), list(range(length))
        reference.shuffle(expected)
        reference.shuffle(expected)
        _shuffle(got, rng)
        _shuffle(got, rng)
        assert got == expected, length
        assert rng.random() == reference.random()


def _dict_random_value_suite(n_experts, universe, seed) -> list[dict]:
    """Reference: the per-expert dict construction the table replaces."""
    rng = random.Random(seed)
    out = []
    for _ in range(n_experts):
        scores = list(range(1, len(universe) + 1))
        rng.shuffle(scores)
        out.append(dict(zip(universe, scores)))
    return out


class TestValueTable:
    # 300 x 1024 fills nine 32-row staging blocks and a partial tenth.
    @pytest.mark.parametrize(
        "n,size,seed",
        [(1, 1, 0), (3, 12, 5), (7, 23, 11), (4, 101, 2), (6, 2, 3), (300, 1024, 7)],
    )
    def test_random_table_matches_dict_construction(self, n, size, seed) -> None:
        universe = [f"q{i}" for i in range(size)]
        random.Random(seed).shuffle(universe)  # input order need not be column order
        table = random_value_suite(n, universe, seed)
        assert table.universe == tuple(sorted(universe, key=str))
        assert table.values.shape == (n, size)
        assert table.values.dtype == np.int64
        assert table.column(table.universe[-1]) == size - 1
        expected = _dict_random_value_suite(n, universe, seed)
        for e in range(n):
            assert dict(zip(table.universe, table.values[e].tolist())) == expected[e]
            assert table.value_function(e) == expected[e]

    def test_rejects_non_natural_values(self) -> None:
        with pytest.raises(ValueError, match=">= 1"):
            ValueTable(["a", "b"], [[1, 2], [2, 0]])
        with pytest.raises(ValueError, match="integers"):
            ValueTable(["a", "b"], [[True, False]])

    def test_rejects_a_value_repeated_within_a_row(self) -> None:
        with pytest.raises(ValueError, match="injective"):
            ValueTable(["a", "b", "c"], [[1, 2, 3], [3, 1, 3]])
        # the same value in different rows is legal
        ValueTable(["a", "b"], [[1, 2], [1, 2]])
        # rows are checked in blocks of at most 256 KiB (eight 4096-column
        # rows); the error names the row in the table
        rows = np.tile(np.arange(1, 4097), (20, 1))
        rows[17, 5] = 2
        with pytest.raises(ValueError, match="expert 17: .* 2 is used twice"):
            ValueTable([f"q{i}" for i in range(4096)], rows)

    def test_validation_sorts_a_bounded_block_at_a_time(self) -> None:
        # A 64 x 20000 panel (every fresh-writes game): validating it takes
        # under 2 MB on top of what the built table holds (its 9.8 MB array
        # is taken over, not copied), where one sorted copy would take 10 MB.
        u = 20000
        universe = [f"q{i}" for i in range(u)]
        values = np.asfortranarray(np.tile(np.arange(1, u + 1, dtype=np.int64), (64, 1)))
        tracemalloc.start()
        try:
            table = ValueTable(universe, values)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.values is values
        assert peak - held < 2 * 2**20

    def test_rejects_a_ragged_table(self) -> None:
        with pytest.raises(ValueError, match="rectangular"):
            ValueTable(["a", "b"], [[1, 2], [1]])
        with pytest.raises(ValueError):
            ValueTable(["a", "b"], [1, 2])
        with pytest.raises(ValueError):
            ValueTable(["a", "b", "c"], [[1, 2]])
        with pytest.raises(ValueError, match="no question is scored by every expert"):
            ValueTable.from_mappings([{"a": 1, "b": 2}, {"c": 1}])

    def test_table_is_read_only(self) -> None:
        table = random_value_suite(3, ["a", "b", "c"], seed=1)
        assert not table.values.flags.writeable
        with pytest.raises(ValueError):
            table.values[0, 0] = 7
        with pytest.raises(ValueError):
            table.values.sort(axis=1)

    def test_unknown_question_is_outside_the_universe(self) -> None:
        table = ValueTable.from_mappings([{"a": 2, "b": 1}])
        assert table.universe == ("a", "b")
        with pytest.raises(KeyError, match="outside the declared universe"):
            table.column("z")

    @pytest.mark.parametrize(
        "producer",
        ["random_value_suite", "lower_bound", "from_mappings", "nested_list"],
    )
    def test_every_producer_stores_the_table_question_major(self, producer) -> None:
        if producer == "random_value_suite":
            table = random_value_suite(5, [f"q{i}" for i in range(7)], seed=3)
        elif producer == "lower_bound":
            table = build_lower_bound_instance(2, 9, 2, 1).table
        elif producer == "from_mappings":
            table = ValueTable.from_mappings([{"a": 2, "b": 1, "c": 3}, {"a": 1, "b": 3, "c": 2}])
        else:
            table = ValueTable(["a", "b", "c"], [[2, 1, 3], [1, 3, 2]])
        values = table.values
        assert values.flags.f_contiguous and not values.flags.writeable
        assert values.dtype == np.int64
        for c in range(values.shape[1]):
            column = values[:, c]
            assert column.flags.c_contiguous
            assert np.shares_memory(column, values)

    def test_an_f_ordered_int64_array_is_taken_over_and_any_other_copied(self) -> None:
        rows = [[1, 2, 3], [3, 1, 2]]
        fortran = np.asfortranarray(np.array(rows, dtype=np.int64))
        assert np.shares_memory(ValueTable("abc", fortran).values, fortran)
        int32_fortran = np.asfortranarray(np.array(rows, dtype=np.int32))
        for other in (np.array(rows, dtype=np.int64), int32_fortran):
            table = ValueTable("abc", other)
            assert table.values.flags.f_contiguous
            assert not np.shares_memory(table.values, other)

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (5, 7)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_construction_never_reorders_values(self, shape, order) -> None:
        n, u = shape
        rng = np.random.default_rng(n * 100 + u)
        rows = np.array([rng.permutation(u) + 1 for _ in range(n)], dtype=np.int64)
        given = np.array(rows, order=order)
        table = ValueTable([f"q{i}" for i in range(u)], given)
        assert np.array_equal(table.values, rows)
        assert np.array_equal(given, rows)  # the caller's array as it was passed


def test_simulation_backing_reads_the_shared_table(monkeypatch) -> None:
    # The simulation backing makes no per-expert mapping from its table:
    # the suite and value-lazy hold the one array.
    def no_mappings(*args, **kwargs):
        raise AssertionError("a per-expert value mapping was built")

    monkeypatch.setattr(ValueTable, "value_function", no_mappings)
    config = RunConfig(
        learner="value-lazy",
        adversary="random:universe=12,T=50,seed=3",
        experts="values:N=5,universe=12,seed=4",
        capacity=2,
        oracle_backing="simulation",
    )
    adversary = build_adversary(config)
    suite, _, table = build_suite(config, adversary)
    learner = build_learner(config, suite, table, adversary)
    assert isinstance(suite, SimulatedValueSuite)
    assert suite.table is table
    assert learner.values is table.values
    for event in adversary.stream:
        suite.offer(fact(event.question))
        suite.knows(event.question)
    with pytest.raises(KeyError, match="'q12' is outside the declared universe"):
        suite.knows("q12")


def test_value_lazy_shares_the_suites_table() -> None:
    config = RunConfig(
        learner="value-lazy",
        adversary="random:universe=12,T=50,seed=3",
        experts="values:N=5,universe=12,seed=4",
        capacity=2,
        oracle_backing="threshold",
    )
    adversary = build_adversary(config)
    suite, _, table = build_suite(config, adversary)
    learner = build_learner(config, suite, table, adversary)
    assert suite.table is table
    assert np.shares_memory(learner.values, suite.values)
