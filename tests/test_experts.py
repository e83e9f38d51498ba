from __future__ import annotations

import io
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factgame.experts import (
    KeepFirstPolicy,
    KeepLastPolicy,
    SCRIPTED_SUITES,
    SimulatedValueSuite,
    StridePolicy,
    ThresholdValueSuite,
    ValueFunction,
    ValueTable,
    build_scripted_suite,
    dump_expert_suite,
    load_expert_suite,
    random_value_suite,
)
from factgame.harness import RunConfig, build_adversary, build_learner, build_suite
from factgame.invariants import kth_largest, top_m_replay
from factgame.model import Fact


def fact(q: str) -> Fact:
    return Fact(q, f"ans-{q}")


def vf(**values: int) -> ValueFunction:
    return ValueFunction(values)


class TestValueFunction:
    def test_rejects_duplicates(self) -> None:
        with pytest.raises(ValueError):
            ValueFunction({"a": 3, "b": 3})

    def test_rejects_non_natural_values(self) -> None:
        with pytest.raises(ValueError):
            ValueFunction({"a": 0})
        with pytest.raises(ValueError):
            ValueFunction({"a": True})

    def test_undefined_question(self) -> None:
        with pytest.raises(KeyError):
            vf(a=1)["b"]


def stored(suite: SimulatedValueSuite, questions: str) -> set[str]:
    """The questions of ``questions`` (space-separated) that the first expert
    of ``suite`` stores."""
    return {q for q in questions.split() if suite.knows(q)[0]}


class TestValueBasedExpert:
    """Worked examples of the top-M rule on a one-expert simulation suite."""

    def test_keeps_highest_valued(self) -> None:
        suite = SimulatedValueSuite([vf(q5=5, q3=3, q7=7)], capacity=2)
        for q in ("q5", "q3", "q7"):
            suite.offer(fact(q))
        assert stored(suite, "q5 q3 q7") == {"q5", "q7"}

    def test_reoffer_is_a_noop(self) -> None:
        suite = SimulatedValueSuite([vf(q4=4)], capacity=1)
        assert suite.offer(fact("q4")) == ("q4",)
        assert suite.offer(fact("q4")) == ()
        assert stored(suite, "q4") == {"q4"}

    def test_underfull_keeps_everything(self) -> None:
        suite = SimulatedValueSuite([vf(q1=1, q2=2, q9=9)], capacity=3)
        suite.offer(fact("q1"))
        suite.offer(fact("q2"))
        assert stored(suite, "q1 q2 q9") == {"q1", "q2"}
        assert suite.true_thresholds().tolist() == [0]

    def test_true_threshold_examples(self) -> None:
        values = vf(a=5, b=3, c=7, d=9, e=4)
        suite = SimulatedValueSuite([values], capacity=2)
        for q in ("a", "b", "c"):
            suite.offer(fact(q))
        # reference: sort all seen values and index the 2nd largest
        assert suite.true_thresholds().tolist() == [sorted([5, 3, 7])[-2]] == [5]
        single = SimulatedValueSuite([values], capacity=2)
        single.offer(fact("d"))
        assert single.true_thresholds().tolist() == [0]
        one = SimulatedValueSuite([values], capacity=1)
        one.offer(fact("e"))
        assert one.true_thresholds().tolist() == [4]


class TestOracleBackings:
    def test_membership_examples(self) -> None:
        suite = SimulatedValueSuite([vf(q1=2, q2=1)], capacity=1)
        suite.offer(fact("q1"))
        assert suite.knows("q1")[0]
        assert not suite.knows("q2")[0]

    def test_unlisted_pair_is_illegal_to_query(self) -> None:
        ragged = SimulatedValueSuite([vf(q1=1, q2=2), vf(q1=4)], capacity=1)
        ragged.offer(fact("q1"))
        assert ragged.knows("q1").tolist() == [True, True]
        with pytest.raises(KeyError, match="expert 1 declares no value"):
            ragged.knows("q2")
        with pytest.raises(KeyError, match="expert 1 declares no value"):
            ragged.offer(fact("q2"))
        thr = ThresholdValueSuite(ValueTable.from_mappings([{"q1": 1, "q2": 2}]), capacity=1)
        with pytest.raises(KeyError):
            thr.knows("q9")

    def test_rectangular_table_required_for_threshold_backing(self) -> None:
        with pytest.raises(ValueError):
            ThresholdValueSuite(
                ValueTable.from_mappings([{"q1": 1, "q2": 2}, {"q1": 4}]), capacity=1
            )


class TestSimulatedSuiteErrors:
    def test_conflicting_answer_rejected(self) -> None:
        suite = SimulatedValueSuite([vf(q1=2, q2=1), vf(q1=1, q2=2)], capacity=1)
        suite.offer(fact("q1"))
        assert suite.offer(fact("q1")) == ()
        with pytest.raises(ValueError, match="conflicting answer"):
            suite.offer(Fact("q1", "other"))

    def test_capacity_below_one_rejected(self) -> None:
        for capacity in (0, -1):
            with pytest.raises(ValueError, match="capacity"):
                SimulatedValueSuite([vf(q1=1)], capacity=capacity)


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
    value_functions = table.value_functions()
    suite = SimulatedValueSuite(value_functions, capacity=m)
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
        value_functions = table.value_functions()
        suites = [ThresholdValueSuite(table, m), SimulatedValueSuite(value_functions, m)]
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
    vfs = [vf(q1=2, q2=1), vf(q1=1, q2=2), vf(q1=3, q2=1)]
    suite = SimulatedValueSuite(vfs, capacity=1)
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
        rng = random.Random(11)
        suite = build_scripted_suite(name, n_experts=6, capacity=3)
        for _ in range(300):
            suite.offer(fact(f"q{rng.randrange(12)}"))
            assert all(len(p.memory()) <= 3 for p in suite.policies)

    def test_suite_delta_reports_every_membership_change(self) -> None:
        rng = random.Random(5)
        suite = build_scripted_suite("striped", n_experts=5, capacity=2)
        universe = [f"q{i}" for i in range(9)]
        before = {q: suite.knows(q).copy() for q in universe}
        for _ in range(250):
            q = rng.choice(universe)
            changed = set(suite.offer(fact(q)))
            after = {p: suite.knows(p).copy() for p in universe}
            for probe in universe:
                if not np.array_equal(before[probe], after[probe]):
                    assert probe in changed
            before = after

    def test_union_memory_holds_only_what_some_expert_stores(self) -> None:
        # striped has four policies; with two experts only the first two back
        # anyone, so a fact only KeepFirst stores is in no expert's memory.
        suite = build_scripted_suite("striped", n_experts=2, capacity=2)
        universe = [f"q{i}" for i in range(6)]
        for q in universe + universe[:3]:
            suite.offer(fact(q))
            union = {f.question for f in suite.union_memory()}
            assert union == {p for p in universe if suite.knows(p).any()}


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
    @pytest.mark.parametrize("n,size,seed", [(1, 1, 0), (3, 12, 5), (7, 23, 11), (4, 101, 2)])
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
            assert table.value_function(e).values == expected[e]

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
        # rows are checked in blocks; the error names the row in the table
        rows = [[1, 2, 3]] * 80
        rows[70] = [2, 2, 3]
        with pytest.raises(ValueError, match="expert 70: .* 2 is used twice"):
            ValueTable(["a", "b", "c"], rows)

    def test_rejects_a_ragged_table(self) -> None:
        with pytest.raises(ValueError, match="rectangular"):
            ValueTable(["a", "b"], [[1, 2], [1]])
        with pytest.raises(ValueError):
            ValueTable(["a", "b"], [1, 2])
        with pytest.raises(ValueError):
            ValueTable(["a", "b", "c"], [[1, 2]])
        with pytest.raises(ValueError, match="rectangular"):
            ValueTable.from_mappings([{"a": 1, "b": 2}, {"a": 1, "c": 2}])

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
