from __future__ import annotations

import io

import pytest
from hypothesis import given, strategies as st

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


@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.lists(st.integers(0, 1), min_size=3, max_size=3)),
        max_size=60,
    )
)
def test_ledger_running_sums_are_consistent(steps) -> None:
    ledger = GameLedger(3)
    for cost, expert_costs in steps:
        _record(ledger, cost=cost, expert_costs=expert_costs, kind=EVALUATE)
    assert ledger.learner_mistakes == sum(c for c, _ in steps)
    # cumulative traces never decrease, and the best expert bounds them all
    assert ledger.learner_trace == sorted(ledger.learner_trace)
    assert ledger.opt_trace == sorted(ledger.opt_trace)
    assert ledger.opt == min(ledger.expert_mistakes)


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
