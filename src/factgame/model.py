"""Core vocabulary for the online fact-retention game.

A *fact* is an opaque (question, answer) pair. A *stream* interleaves teach
events (a fact is shown to everyone) with evaluate events (a question is
posed, and every agent that has not retained the matching fact pays unit
cost). One :class:`GameLedger` accumulates the per-step costs and memory
usage of a single run.

Stream files hold one event per line, with whitespace-free tokens::

    T <qid> <answer>
    E <qid>

Ledger exports use the CSV schema
``t,kind,qid,cost,L,opt,fact_mem,question_mem,aux_state,active_experts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, IO, Iterable, Iterator, Sequence

import numpy as np

TEACH = "T"
EVALUATE = "E"

QuestionId = Hashable
Answer = Hashable

CSV_HEADER = "t,kind,qid,cost,L,opt,fact_mem,question_mem,aux_state,active_experts"


@dataclass(frozen=True, slots=True)
class Fact:
    """One storable unit of knowledge: a question together with its answer."""

    question: QuestionId
    answer: Answer


@dataclass(frozen=True, slots=True)
class Event:
    """A single adversary move: teach a fact or evaluate a question.

    Teach events always carry the answer. Evaluate events may carry it too
    (generators that know the ground truth attach it); evaluates loaded from
    stream files leave it to be recovered from earlier teaches.
    """

    kind: str
    question: QuestionId
    answer: Answer | None = None

    def __post_init__(self) -> None:
        if self.kind not in (TEACH, EVALUATE):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind == TEACH and self.answer is None:
            raise ValueError("teach events must carry an answer")

    @property
    def is_evaluate(self) -> bool:
        return self.kind == EVALUATE


def teach(question: QuestionId, answer: Answer) -> Event:
    return Event(TEACH, question, answer)


def evaluate(question: QuestionId, answer: Answer | None = None) -> Event:
    return Event(EVALUATE, question, answer)


@dataclass(frozen=True)
class Stream:
    """A finite, replayable event sequence.

    ``sequential`` is the stream's claim that every evaluate hits a question
    taught at an earlier index; check it with :func:`validate_sequential`.
    """

    events: tuple[Event, ...]
    sequential: bool = False

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


def validate_sequential(stream: Stream | Sequence[Event]) -> tuple[bool, int | None]:
    """Single scan: every evaluate must be preceded by a teach of the same
    question. Returns (ok, first violating index or None)."""
    events = stream.events if isinstance(stream, Stream) else stream
    taught: set[QuestionId] = set()
    for i, event in enumerate(events):
        if event.is_evaluate:
            if event.question not in taught:
                return False, i
        else:
            taught.add(event.question)
    return True, None


class GameLedger:
    """Per-step cost and memory accounting for one game run.

    Learner mistakes, per-expert true mistakes, and the best-expert count are
    running sums; memory traces record end-of-step sizes. The ledger keeps
    one expert with the fewest mistakes (the witness): the fewest can only
    grow when that expert errs, so only then is the minimum searched again.
    """

    __slots__ = (
        "n_experts",
        "kinds",
        "questions",
        "costs",
        "learner_trace",
        "opt_trace",
        "fact_memory_trace",
        "question_memory_trace",
        "aux_trace",
        "active_trace",
        "expert_mistakes",
        "violations",
        "_learner_total",
        "_opt",
        "_witness",
    )

    def __init__(self, n_experts: int):
        if n_experts < 1:
            raise ValueError("need at least one expert")
        self.n_experts = n_experts
        self.kinds: list[str] = []
        self.questions: list[QuestionId] = []
        self.costs: list[int] = []
        self.learner_trace: list[int] = []
        self.opt_trace: list[int] = []
        self.fact_memory_trace: list[int] = []
        self.question_memory_trace: list[int] = []
        self.aux_trace: list[int] = []
        self.active_trace: list[int] = []
        self.expert_mistakes = np.zeros(n_experts, dtype=np.int64)
        self.violations: list[int] = []
        self._learner_total = 0
        self._opt = 0
        self._witness = 0

    def __len__(self) -> int:
        return len(self.costs)

    @property
    def learner_mistakes(self) -> int:
        return self._learner_total

    @property
    def opt(self) -> int:
        return self._opt

    def record_step(
        self,
        *,
        kind: str,
        question: QuestionId,
        cost: int,
        expert_costs: Sequence[int] | np.ndarray | None,
        fact_memory: int,
        question_memory: int,
        aux_state: int,
        active_experts: int,
    ) -> "GameLedger":
        if cost not in (0, 1):
            raise ValueError(f"step cost must be 0 or 1, got {cost!r}")
        if expert_costs is not None:  # None: nobody was charged this step
            costs = np.asarray(expert_costs)
            if costs.shape != (self.n_experts,):
                raise ValueError(
                    f"expected {self.n_experts} expert costs, got shape {costs.shape}"
                )
            if costs.dtype != np.bool_:  # bool vectors are 0/1 by construction
                costs = costs.astype(np.int64)
                if costs.size and (costs.min() < 0 or costs.max() > 1):
                    raise ValueError("expert costs must be 0 or 1")
            self.expert_mistakes += costs
            if costs[self._witness]:
                self._refresh_witness()
        self._learner_total += int(cost)
        self.kinds.append(kind)
        self.questions.append(question)
        self.costs.append(int(cost))
        self.learner_trace.append(self._learner_total)
        self.opt_trace.append(self._opt)
        self.fact_memory_trace.append(int(fact_memory))
        self.question_memory_trace.append(int(question_memory))
        self.aux_trace.append(int(aux_state))
        self.active_trace.append(int(active_experts))
        return self

    def _refresh_witness(self) -> None:
        self._witness = int(self.expert_mistakes.argmin())
        self._opt = int(self.expert_mistakes[self._witness])

    def flag_violation(self) -> None:
        """Mark the just-recorded step as an evaluate on a never-taught
        question (1-based index)."""
        self.violations.append(len(self.costs))

    def max_fact_memory(self) -> int:
        return max(self.fact_memory_trace, default=0)

    def max_question_memory(self) -> int:
        return max(self.question_memory_trace, default=0)

    def max_aux_state(self) -> int:
        return max(self.aux_trace, default=0)

    def to_csv(self, out: IO[str]) -> None:
        out.write(CSV_HEADER + "\n")
        for i in range(len(self.costs)):
            row = (
                str(i + 1),
                self.kinds[i],
                str(self.questions[i]),
                str(self.costs[i]),
                str(self.learner_trace[i]),
                str(self.opt_trace[i]),
                str(self.fact_memory_trace[i]),
                str(self.question_memory_trace[i]),
                str(self.aux_trace[i]),
                str(self.active_trace[i]),
            )
            out.write(",".join(row) + "\n")


def _check_token(token: str, role: str) -> str:
    if not token or any(ch.isspace() for ch in token):
        raise ValueError(f"{role} {token!r} is empty or contains whitespace")
    return token


def dump_stream(stream: Stream | Sequence[Event], out: IO[str]) -> None:
    events = stream.events if isinstance(stream, Stream) else stream
    for event in events:
        qid = _check_token(str(event.question), "question id")
        if event.kind == TEACH:
            ans = _check_token(str(event.answer), "answer")
            out.write(f"{TEACH} {qid} {ans}\n")
        else:
            out.write(f"{EVALUATE} {qid}\n")


def load_stream(lines: Iterable[str]) -> Stream:
    """Parse the one-event-per-line format. The sequential flag is recomputed
    from the content rather than trusted."""
    events: list[Event] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == TEACH and len(tokens) == 3:
            events.append(Event(TEACH, tokens[1], tokens[2]))
        elif tokens[0] == EVALUATE and len(tokens) == 2:
            events.append(Event(EVALUATE, tokens[1]))
        else:
            raise ValueError(f"line {lineno}: malformed event {line!r}")
    ok, _ = validate_sequential(events)
    return Stream(tuple(events), sequential=ok)
