from __future__ import annotations

import gc
import io

import numpy as np
import pytest

from factgame.adversaries import (
    LowerBoundAdversary,
    PigeonholeError,
    build_lower_bound_instance,
    random_stream,
)
from factgame.experts import SimulatedValueSuite
from factgame.harness import RunConfig, build_adversary, build_learner, build_suite, run_game
from factgame.invariants import forced_floor_failures
from factgame.model import dump_stream, validate_sequential


class TestRandomStream:
    def test_all_teach_means_no_mistakes_for_anyone(self) -> None:
        stream = random_stream(8, 200, teach_fraction=1.0, seed=4)
        assert all(not e.is_evaluate for e in stream)
        config = RunConfig(
            learner="lazy",
            adversary=stream,
            experts="scripted:recency,N=3",
            capacity=2,
        )
        ledger, _ = run_game(config)
        assert ledger.learner_mistakes == 0
        assert ledger.opt == 0

    def test_same_seed_is_byte_identical(self) -> None:
        dumps = []
        for _ in range(2):
            buf = io.StringIO()
            dump_stream(random_stream(16, 500, 0.5, seed=12), buf)
            dumps.append(buf.getvalue())
        assert dumps[0] == dumps[1]
        other = io.StringIO()
        dump_stream(random_stream(16, 500, 0.5, seed=13), other)
        assert other.getvalue() != dumps[0]

    def test_output_is_always_sequential(self) -> None:
        for seed in range(25):
            stream = random_stream(6, 300, 0.3, seed)
            ok, idx = validate_sequential(stream)
            assert ok and idx is None

    def test_parameter_validation(self) -> None:
        with pytest.raises(ValueError):
            random_stream(4, 10, 1.5, 0)
        with pytest.raises(ValueError):
            random_stream(0, 10, 0.5, 0)
        assert len(random_stream(4, 0, 0.5, 0)) == 0


class TestLowerBoundInstance:
    def test_small_instance_shape(self) -> None:
        inst = build_lower_bound_instance(c=1, n_experts=4, capacity=2, opt=0)
        assert inst.depth == 2
        assert len(inst.collections) == 2
        assert all(len(coll) == 4 for coll in inst.collections)
        # a full binary tree of depth 2 over 4 experts: all leaves distinct
        assert sorted(inst.leaf_coords) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert inst.part2_rounds == ()

    def test_smallest_instance(self) -> None:
        inst = build_lower_bound_instance(c=1, n_experts=2, capacity=1, opt=0)
        assert inst.depth == 1
        assert len(inst.collections) == 1
        assert len(inst.collections[0]) == 2

    def test_degenerate_tree_rejected(self) -> None:
        with pytest.raises(ValueError):
            build_lower_bound_instance(c=2, n_experts=3, capacity=1, opt=0)

    def test_build_leaves_no_reference_cycle(self) -> None:
        # Set-up garbage must go by reference counting: a cycle keeps its
        # memory until the cyclic collector runs, which a lean step loop
        # delays, and the held chunk fragments the heap under the next
        # game's value table.
        gc.collect()
        gc.disable()
        try:
            build_lower_bound_instance(c=2, n_experts=64, capacity=4, opt=1)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_surplus_experts_are_thrown_out(self) -> None:
        inst = build_lower_bound_instance(c=1, n_experts=5, capacity=1, opt=0)
        assert sum(1 for c in inst.leaf_coords if c is None) == 1

    def test_out_of_block_values_sit_below_every_block(self) -> None:
        inst = build_lower_bound_instance(c=1, n_experts=4, capacity=2, opt=1)
        for e, coords in enumerate(inst.leaf_coords):
            vf = inst.table.value_function(e)
            block_questions = {
                f.question
                for k in range(1, inst.depth + 1)
                for f in inst.block(k, coords[k - 1])
            }
            floor = max(
                vf[q] for q in inst.universe if q not in block_questions
            )
            assert all(vf[q] > floor for q in block_questions)
            # later collections outrank earlier ones
            for k in range(1, inst.depth):
                this = max(vf[f.question] for f in inst.block(k, coords[k - 1]))
                nxt = min(vf[f.question] for f in inst.block(k + 1, coords[k]))
                assert nxt > this

    def test_expert_holds_exactly_its_block_after_each_collection(self) -> None:
        inst = build_lower_bound_instance(c=1, n_experts=8, capacity=2, opt=0)
        suite = SimulatedValueSuite(inst.table.value_functions(), inst.capacity)
        universe = inst.table.universe
        for k in range(1, inst.depth + 1):
            for fact in inst.collections[k - 1]:
                suite.offer(fact)
            member = suite.knows_many(universe)
            for e, coords in enumerate(inst.leaf_coords):
                held = {q for q, bit in zip(universe, member[:, e]) if bit}
                assert held == {f.question for f in inst.block(k, coords[k - 1])}

    @pytest.mark.parametrize(
        "c,n,capacity,opt",
        [(1, 2, 1, 0), (1, 5, 1, 0), (1, 8, 2, 1), (2, 4, 3, 2), (2, 19, 2, 1), (3, 40, 2, 1)],
    )
    def test_table_matches_dict_construction(self, c, n, capacity, opt) -> None:
        # Reference: the per-expert dict construction the table replaces.
        inst = build_lower_bound_instance(c, n, capacity, opt)
        base = {q: g + 1 for g, q in enumerate(inst.universe)}
        floor = len(inst.universe)
        assert inst.table.universe == tuple(sorted(inst.universe, key=str))
        assert inst.table.values.shape == (n, floor)
        for e in range(n):
            values = dict(base)
            leaf = inst.leaf_coords[e]
            if leaf is not None:
                for k in range(1, inst.depth + 1):
                    i_k = leaf[k - 1]
                    for rank, j in enumerate(
                        range(capacity * (i_k - 1) + 1, capacity * i_k + 1), start=1
                    ):
                        values[f"c{k}.{j}"] = floor + (k - 1) * capacity + rank
            assert inst.table.value_function(e).values == values

    def test_opt_rounds_supply_fresh_facts(self) -> None:
        inst = build_lower_bound_instance(c=2, n_experts=4, capacity=3, opt=2)
        assert len(inst.part2_rounds) == 2
        assert all(len(r) == 2 * 3 + 1 for r in inst.part2_rounds)
        questions = [f.question for coll in inst.collections for f in coll]
        questions += [f.question for rnd in inst.part2_rounds for f in rnd]
        assert len(questions) == len(set(questions))  # all facts distinct


class TestLowerBoundAdversary:
    def _drain_teaches(self, adversary, view) -> list:
        events = []
        while True:
            event = adversary.next_event(view)
            events.append(event)
            if event is None or event.is_evaluate:
                return events

    def test_empty_memory_picks_the_lowest_block(self) -> None:
        inst = build_lower_bound_instance(c=1, n_experts=4, capacity=2, opt=0)
        adversary = LowerBoundAdversary(inst)
        self._drain_teaches(adversary, frozenset())
        assert adversary.chosen_blocks == [1]

    def test_pigeonhole_picks_the_unstored_block(self) -> None:
        inst = build_lower_bound_instance(c=1, n_experts=4, capacity=2, opt=0)
        adversary = LowerBoundAdversary(inst)
        block1 = frozenset(f.question for f in inst.block(1, 1))
        self._drain_teaches(adversary, block1)
        assert adversary.chosen_blocks == [2]

    def test_selection_asserts_rather_than_assumes(self) -> None:
        inst = build_lower_bound_instance(c=1, n_experts=4, capacity=2, opt=0)
        adversary = LowerBoundAdversary(inst)
        everything = frozenset(f.question for f in inst.collections[0])
        with pytest.raises(PigeonholeError):
            self._drain_teaches(adversary, everything)

    def test_emitted_stream_is_sequential(self) -> None:
        config = RunConfig(
            learner="random-evict",
            adversary="lowerbound:c=1,N=8,M=2,opt=2",
            capacity=2,
            seed=5,
        )
        ledger, _ = run_game(config)
        events = list(zip(ledger.kinds, ledger.questions))
        taught = set()
        for kind, q in events:
            if kind == "E":
                assert q in taught
            else:
                taught.add(q)
        assert not ledger.violations


def test_construction_forces_budgeted_learner_at_c1() -> None:
    assert forced_floor_failures("random-evict", 1, [(4, 2, 0), (8, 2, 2), (8, 4, 2)], seed=3) == []


def test_value_lazy_shares_the_instance_table() -> None:
    config = RunConfig(
        learner="value-lazy",
        adversary="lowerbound:c=2,N=16,M=2,opt=1",
        capacity=2,
        oracle_backing="threshold",
    )
    adversary = build_adversary(config)
    suite, _, table = build_suite(config, adversary)
    learner = build_learner(config, suite, table, adversary)
    assert table is adversary.instance.table
    assert np.shares_memory(learner.values, suite.values)
