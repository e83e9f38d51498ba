from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from factgame.invariants import sequential_scan_reference
from factgame.model import (
    CSV_HEADER,
    EVALUATE,
    TEACH,
    Event,
    Fact,
    GameLedger,
    Stream,
    dump_stream,
    evaluate,
    load_stream,
    teach,
    validate_sequential,
)


def test_event_validation() -> None:
    with pytest.raises(ValueError):
        Event("X", "q1")
    with pytest.raises(ValueError):
        Event(TEACH, "q1")  # teach without answer
    assert Event(EVALUATE, "q1").answer is None


def test_validate_sequential_taught_then_evaluated() -> None:
    ok, idx = validate_sequential([teach("q1", "a1"), evaluate("q1")])
    assert ok and idx is None


def test_validate_sequential_reports_first_violation() -> None:
    ok, idx = validate_sequential([evaluate("q1")])
    assert (ok, idx) == (False, 0)
    ok, idx = validate_sequential([teach("q1", "a1"), evaluate("q2"), teach("q2", "a2")])
    assert (ok, idx) == (False, 1)


event_lists = st.lists(
    st.tuples(st.booleans(), st.integers(0, 5)).map(
        lambda p: teach(f"q{p[1]}", f"a{p[1]}") if p[0] else evaluate(f"q{p[1]}")
    ),
    max_size=200,
)


@given(event_lists)
def test_validate_sequential_matches_quadratic_scan(events) -> None:
    assert validate_sequential(events) == sequential_scan_reference(events)


def _record(ledger: GameLedger, *, cost: int, expert_costs=None, kind=TEACH) -> None:
    ledger.record_step(
        kind=kind,
        question="q",
        cost=cost,
        expert_costs=expert_costs,
        fact_memory=0,
        question_memory=0,
        aux_state=0,
        active_experts=ledger.n_experts,
    )


def test_record_step_accumulates_learner_mistakes() -> None:
    ledger = GameLedger(2)
    _record(ledger, cost=1)
    assert ledger.learner_mistakes == 1
    for _ in range(4):
        _record(ledger, cost=1)
    _record(ledger, cost=0)
    assert ledger.learner_mistakes == 5


def test_record_step_tracks_best_expert() -> None:
    ledger = GameLedger(2)
    _record(ledger, cost=0, expert_costs=[1, 0], kind=EVALUATE)
    assert ledger.opt == 0
    assert list(ledger.expert_mistakes) == [1, 0]


def test_record_step_rejects_bad_costs() -> None:
    ledger = GameLedger(2)
    with pytest.raises(ValueError):
        _record(ledger, cost=2)
    with pytest.raises(ValueError):
        _record(ledger, cost=0, expert_costs=[3, 0])
    with pytest.raises(ValueError):
        _record(ledger, cost=0, expert_costs=[1, 0, 1])


def test_record_step_rejects_bool_costs_of_the_wrong_shape() -> None:
    ledger = GameLedger(2)
    for bad in (np.zeros(3, dtype=bool), np.zeros((1, 2), dtype=bool), np.bool_(True)):
        with pytest.raises(ValueError):
            _record(ledger, cost=0, expert_costs=bad)
    assert len(ledger) == 0


# The witness (an expert with the fewest mistakes) starts at expert 0. Every
# step but the fifth charges the current witness; steps 2 and 4 end in ties.
WITNESS_STEPS = [[1, 0, 0], [0, 1, 1], [1, 1, 0], [0, 0, 1], [0, 0, 0], [1, 0, 1]]


def test_record_step_moves_opt_only_when_the_witness_errs() -> None:
    ledger = GameLedger(3)
    for expert_costs in WITNESS_STEPS:
        _record(ledger, cost=0, expert_costs=np.array(expert_costs, dtype=bool), kind=EVALUATE)
    assert list(ledger.expert_mistakes) == [3, 2, 3]
    assert ledger.opt_trace == [0, 1, 1, 2, 2, 2]


@given(
    st.lists(
        st.tuples(
            st.integers(0, 1),
            st.one_of(st.none(), st.lists(st.integers(0, 1), min_size=3, max_size=3)),
            st.booleans(),
        ),
        max_size=60,
    )
)
@example([(0, c, True) for c in WITNESS_STEPS])
def test_ledger_running_sums_are_consistent(steps) -> None:
    ledger = GameLedger(3)
    totals = np.zeros(3, dtype=np.int64)
    reference_opt = []  # min of the cumulative expert costs, at every prefix
    for cost, expert_costs, as_bool in steps:
        if expert_costs is not None:
            totals += expert_costs
            if as_bool:  # suites hand the ledger bool vectors
                expert_costs = np.array(expert_costs, dtype=bool)
        reference_opt.append(int(totals.min()))
        _record(ledger, cost=cost, expert_costs=expert_costs, kind=EVALUATE)
    assert ledger.learner_mistakes == sum(c for c, _, _ in steps)
    assert list(ledger.expert_mistakes) == list(totals)
    assert ledger.opt_trace == reference_opt
    # cumulative traces never decrease, and the best expert bounds them all
    assert ledger.learner_trace == sorted(ledger.learner_trace)
    assert ledger.opt_trace == sorted(ledger.opt_trace)
    assert ledger.opt == min(ledger.expert_mistakes)


def _refresh_keeping_witness(self) -> None:
    self._opt = int(self.expert_mistakes[self._witness])


def test_stale_witness_is_caught(monkeypatch) -> None:
    # Planted fault: the ledger never moves its witness off expert 0.
    monkeypatch.setattr(GameLedger, "_refresh_witness", _refresh_keeping_witness)
    with pytest.raises(AssertionError):
        test_record_step_moves_opt_only_when_the_witness_errs()


def test_stream_file_roundtrip() -> None:
    stream = Stream((teach("q1", "a1"), evaluate("q1"), teach("q2", "a2")), sequential=True)
    buf = io.StringIO()
    dump_stream(stream, buf)
    assert buf.getvalue() == "T q1 a1\nE q1\nT q2 a2\n"
    loaded = load_stream(io.StringIO(buf.getvalue()))
    assert [(e.kind, e.question) for e in loaded] == [
        (TEACH, "q1"),
        (EVALUATE, "q1"),
        (TEACH, "q2"),
    ]
    assert loaded.sequential


def test_load_stream_flags_nonsequential_and_rejects_garbage() -> None:
    loaded = load_stream(io.StringIO("E q1\nT q1 a1\n"))
    assert not loaded.sequential
    with pytest.raises(ValueError):
        load_stream(io.StringIO("T q1\n"))
    with pytest.raises(ValueError):
        load_stream(io.StringIO("Z q1 a1\n"))


def test_dump_stream_rejects_whitespace_tokens() -> None:
    with pytest.raises(ValueError):
        dump_stream([teach("bad id", "a")], io.StringIO())


def test_csv_layout() -> None:
    ledger = GameLedger(2)
    _record(ledger, cost=0)
    _record(ledger, cost=1, expert_costs=[0, 1], kind=EVALUATE)
    buf = io.StringIO()
    ledger.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("1,T,q,0,0,0,")
    assert lines[2].startswith("2,E,q,1,1,0,")
