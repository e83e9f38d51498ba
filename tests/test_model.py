from __future__ import annotations

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from factgame.harness import check_bounds, format_summary
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
    assert list(ledger.opt_trace) == [0, 1, 1, 2, 2, 2]


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
    assert list(ledger.opt_trace) == reference_opt
    # cumulative traces never decrease, and the best expert bounds them all
    assert list(ledger.learner_trace) == sorted(ledger.learner_trace)
    assert list(ledger.opt_trace) == sorted(ledger.opt_trace)
    assert ledger.opt == min(ledger.expert_mistakes)


_record_step = GameLedger.record_step


def _record_step_dropping_expert_costs(self, **step):
    return _record_step(self, **{**step, "expert_costs": None})


def test_dropped_expert_costs_are_caught(monkeypatch) -> None:
    # Planted fault: the ledger charges no expert on any step.
    monkeypatch.setattr(GameLedger, "record_step", _record_step_dropping_expert_costs)
    with pytest.raises(AssertionError):
        test_ledger_running_sums_are_consistent()


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


class ListLedger:
    """Reference ledger: one Python list per column, each row formatted on
    its own, and OPT recomputed as the minimum of the expert totals."""

    def __init__(self, n_experts: int):
        self.n_experts = n_experts
        self.kinds, self.questions, self.costs, self.learner_trace = [], [], [], []
        self.opt_trace, self.fact_memory_trace, self.question_memory_trace = [], [], []
        self.aux_trace, self.active_trace, self.violations = [], [], []
        self.expert_mistakes = np.zeros(n_experts, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.costs)

    @property
    def learner_mistakes(self) -> int:
        return sum(self.costs)

    @property
    def opt(self) -> int:
        return int(self.expert_mistakes.min())

    def record_step(self, *, kind, question, cost, expert_costs, fact_memory,
                    question_memory, aux_state, active_experts) -> None:
        if expert_costs is not None:
            self.expert_mistakes += np.asarray(expert_costs, dtype=np.int64)
        self.kinds.append(kind)
        self.questions.append(question)
        self.costs.append(cost)
        self.learner_trace.append(sum(self.costs))
        self.opt_trace.append(self.opt)
        self.fact_memory_trace.append(fact_memory)
        self.question_memory_trace.append(question_memory)
        self.aux_trace.append(aux_state)
        self.active_trace.append(active_experts)

    def max_fact_memory(self) -> int:
        return max(self.fact_memory_trace, default=0)

    def max_question_memory(self) -> int:
        return max(self.question_memory_trace, default=0)

    def max_aux_state(self) -> int:
        return max(self.aux_trace, default=0)

    def to_csv(self, out) -> None:
        out.write(CSV_HEADER + "\n")
        for i, kind in enumerate(self.kinds):
            row = [str(i + 1), kind, str(self.questions[i])] + [
                str(column[i])
                for column in (
                    self.costs, self.learner_trace, self.opt_trace, self.fact_memory_trace,
                    self.question_memory_trace, self.aux_trace, self.active_trace,
                )
            ]
            out.write(",".join(row) + "\n")


C_INT = st.one_of(st.integers(0, 40), st.integers(-(2**31), 2**31 - 1))
LEDGER_STEPS = st.lists(
    st.tuples(
        st.sampled_from([TEACH, EVALUATE]),
        st.one_of(st.sampled_from(["q0", "q1", "q,2"]), st.integers(0, 3)),
        st.integers(0, 1),
        st.one_of(st.none(), st.lists(st.integers(0, 1), min_size=3, max_size=3)),
        C_INT, C_INT, C_INT, C_INT,
    ),
    max_size=40,
)
BIG_CAP = st.one_of(st.integers(0, 60), st.integers(2**31 - 5, 2**40))


@given(
    LEDGER_STEPS, st.sampled_from(["lazy", "mwu"]), BIG_CAP, BIG_CAP,
    st.integers(1, 2**33), st.booleans(),
)
def test_typed_ledger_matches_the_list_reference(steps, learner, fact_cap, question_cap,
                                                  capacity, violation) -> None:
    ledger, reference = GameLedger(3), ListLedger(3)
    for kind, question, cost, expert_costs, fact, parked, aux, active in steps:
        for target in (ledger, reference):
            target.record_step(
                kind=kind, question=question, cost=cost, expert_costs=expert_costs,
                fact_memory=fact, question_memory=parked, aux_state=aux, active_experts=active,
            )
    if violation and steps:
        ledger.flag_violation()
        reference.violations.append(len(reference))
    limits = dict(n_experts=3, capacity=capacity, learner=learner,
                  fact_cap=fact_cap, question_cap=question_cap)
    report = check_bounds(ledger, **limits)
    expected = check_bounds(reference, **limits)
    assert report.checks == expected.checks
    assert format_summary(ledger, report) == format_summary(reference, expected)
    assert list(ledger.learner_trace) == reference.learner_trace
    csv, csv_reference = io.StringIO(), io.StringIO()
    ledger.to_csv(csv)
    reference.to_csv(csv_reference)
    assert csv.getvalue() == csv_reference.getvalue()


@pytest.mark.parametrize(
    "count", ["fact_memory", "question_memory", "aux_state", "active_experts"]
)
@pytest.mark.parametrize("value", [2**31, -(2**31) - 1])
def test_a_count_beyond_a_c_int_leaves_the_ledger_as_it_was(count, value) -> None:
    ledger = GameLedger(2)
    _record(ledger, cost=1)
    step = dict(kind=EVALUATE, question="q", cost=1, expert_costs=[1, 1], fact_memory=1,
                question_memory=1, aux_state=1, active_experts=2)
    with pytest.raises(OverflowError):
        ledger.record_step(**{**step, count: value})
    assert len(ledger) == 1 and ledger.learner_mistakes == 1 and ledger.opt == 0
    assert list(ledger.expert_mistakes) == [0, 0]
    columns = (ledger.kinds, ledger.questions, ledger.costs, ledger.opt_trace,
               ledger.fact_memory_trace, ledger.question_memory_trace, ledger.aux_trace,
               ledger.active_trace)
    assert [len(column) for column in columns] == [1] * len(columns)
    ledger.record_step(**step)
    assert len(ledger) == 2 and ledger.opt == 1


def test_caps_beyond_a_c_int_neither_wrap_nor_raise() -> None:
    ledger = GameLedger(2)
    for t in range(5):
        ledger.record_step(kind=EVALUATE, question="q", cost=1, expert_costs=[1, 0],
                           fact_memory=2**31 - 1, question_memory=t, aux_state=0,
                           active_experts=2)
    capacity = 2**33
    report = check_bounds(ledger, n_experts=2, capacity=capacity, learner="lazy",
                          fact_cap=2**40, question_cap=2**32)
    assert report.passed
    assert report.check("fact_memory").worst_slack == 2**40 - (2**31 - 1)
    assert report.check("question_memory").worst_slack == 2**32 - 4
    # OPT stays 0, so the safe allowance is 6 * M * (ceil(log_{3/2} 2) + 1) = 6 * M * 3.
    assert report.check("mistake_derived").worst_slack == 18 * capacity - 5


def test_a_ledger_retains_at_most_40_bytes_per_step() -> None:
    steps = 20_000
    questions = [f"q{i}" for i in range(128)]  # streams share their question objects
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ledger = GameLedger(64)
        for t in range(steps):
            ledger.record_step(
                kind=EVALUATE if t % 2 else TEACH, question=questions[t % 128], cost=t % 2,
                expert_costs=None, fact_memory=t % 33, question_memory=t % 17,
                aux_state=256, active_experts=64 - t % 64,
            )
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ledger) == steps
    assert retained / steps <= 40, f"{retained / steps:.1f} bytes per step"
