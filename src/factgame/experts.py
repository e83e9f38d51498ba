"""Bounded-memory experts, and the suite protocol that learners query.

Two families of experts:

* **Value-based** experts rank every question with a per-expert injective
  score and always retain the ``capacity`` highest-scoring facts seen so far.
  A panel's scores form one validated, read-only ``N x U`` table
  (:class:`ValueTable`). The panel admits two interchangeable
  representations: an explicit eviction-based simulation
  (:class:`SimulatedValueSuite`: each expert's memory is a question -> value
  dict updated in place, with its weakest stored fact tracked, so a first
  show costs one compare per expert and an eviction one ``min`` over M) and a
  vectorized form over the table itself (:class:`ThresholdValueSuite`: the
  shared seen-set, each expert's top-M seen values and their columns in an
  unsorted ``N x M`` array with the slot of its smallest one, and the
  retention cutoff vector). Membership answers and returned changes must
  agree; the test suite checks this exhaustively at small scale. The
  top-M rule itself is checked on the simulation: the replay checks in
  :mod:`factgame.invariants` play :class:`SimulatedValueSuite` (N=1 for a
  single expert) against the sort-based ``top_m_replay`` and ``kth_largest``.

* **Scripted** experts follow deterministic stream-order policies (recency,
  first-seen, stride). Policies depend only on the stream, never on expert
  identity, so experts sharing a policy share one state machine.

Every suite answers the same membership questions, and learners ask them of
the suite directly (the game loop decides when memories advance, so query
timing is the caller's contract):

* ``knows(q)``: a length-N bool vector, expert e's bit set iff e stores q;
* ``knows_many(qs)``: the ``len(qs) x N`` stack of those vectors;
* ``count_active(q, active, token)``: how many experts under the bool mask
  ``active`` store q; ``token`` names the mask's version, so a suite may
  cache per-mask aggregates between calls with an equal token;
* ``offer(fact)``: show one fact to every expert; returns the questions whose
  membership moved, each once, and ``()`` when none moved. Every suite here
  returns such a tuple (a value suite names the newcomer first, then each
  evicted question in the order of the first expert evicting it); only a
  caller-supplied suite may return None, meaning any membership may have
  moved, and learners then recompute their memory phase in full. A value
  suite raises KeyError for a question outside an expert's declared values.

Expert-suite files list one value per line: ``expert <id> value <qid> <nat>``.
Querying an (expert, question) pair the file never listed is an error.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .model import Answer, Fact, QuestionId

SENTINEL_VALUE = 0  # below every legal score; legal scores are integers >= 1


@dataclass(frozen=True)
class ValueFunction:
    """An injective question -> natural-number scoring, total on its domain."""

    values: Mapping[QuestionId, int]

    def __post_init__(self) -> None:
        seen: dict[int, QuestionId] = {}
        for q, v in self.values.items():
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"value for {q!r} must be an integer >= 1, got {v!r}")
            if v in seen:
                raise ValueError(
                    f"value function not injective: {q!r} and {seen[v]!r} share {v}"
                )
            seen[v] = q

    def __getitem__(self, question: QuestionId) -> int:
        try:
            return self.values[question]
        except KeyError:
            raise KeyError(f"value function undefined on question {question!r}") from None

    @classmethod
    def _trusted(cls, values: Mapping[QuestionId, int]) -> "ValueFunction":
        """Wrap a scoring already validated elsewhere, skipping the checks."""
        vf = object.__new__(cls)
        object.__setattr__(vf, "values", values)
        return vf


class ValueTable:
    """The scores of a value-based panel: one read-only ``N x U`` ``int64``
    array, row ``e`` holding expert ``e``'s injective scoring of the
    questions in ``universe`` (column order).

    Validated once, vectorized, on construction: the array is rectangular,
    every value is an integer >= 1, and no row repeats a value. The array is
    then frozen, so the suite and the learner can share it by reference. An
    ``int64`` array passed in is taken over, not copied.
    """

    def __init__(self, universe: Sequence[QuestionId], values) -> None:
        try:
            array = np.asarray(values)
        except ValueError as err:  # a ragged nested list
            raise ValueError(f"value table is not rectangular: {err}") from None
        if array.ndim != 2:
            raise ValueError(f"value table must be 2-D, got shape {array.shape}")
        if array.size and array.dtype.kind not in "iu":
            raise ValueError(f"values must be integers, got dtype {array.dtype}")
        array = array.astype(np.int64, copy=False)
        n, u = array.shape
        if n < 1:
            raise ValueError("need at least one expert")
        self.universe: tuple[QuestionId, ...] = tuple(universe)
        if len(self.universe) != u:
            raise ValueError(
                f"value table has {u} columns for {len(self.universe)} questions"
            )
        self._col = {q: i for i, q in enumerate(self.universe)}
        if len(self._col) != u:
            raise ValueError("question universe lists a question twice")
        if u:
            if array.min() < 1:
                e, c = np.argwhere(array < 1)[0]
                raise ValueError(
                    f"expert {e}: value for {self.universe[c]!r} must be an "
                    f"integer >= 1, got {array[e, c]}"
                )
            # Rows are sorted 64 at a time: one sorted copy of the whole
            # table would double the memory that building it takes.
            for lo in range(0, n, 64):
                ordered = np.sort(array[lo:lo + 64], axis=1)
                repeats = ordered[:, 1:] == ordered[:, :-1]
                if repeats.any():
                    e, c = np.argwhere(repeats)[0]
                    raise ValueError(
                        f"expert {lo + e}: value function not injective, "
                        f"{ordered[e, c]} is used twice"
                    )
        array.flags.writeable = False
        self.values = array

    @classmethod
    def from_mappings(cls, rows: Sequence[Mapping[QuestionId, int]]) -> "ValueTable":
        """Table of per-expert ``question -> value`` mappings that all share
        one domain; columns follow ``sorted(domain, key=str)``."""
        if not rows:
            raise ValueError("need at least one expert")
        domain = rows[0].keys()
        for i, row in enumerate(rows):
            if row.keys() != domain:
                raise ValueError(
                    f"expert {i} declares a different question universe; "
                    "a value table must be rectangular"
                )
        universe = sorted(domain, key=str)
        return cls(universe, [[row[q] for q in universe] for row in rows])

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def column(self, question: QuestionId) -> int:
        try:
            return self._col[question]
        except KeyError:
            raise KeyError(
                f"question {question!r} is outside the declared universe"
            ) from None

    def value_function(self, expert: int) -> ValueFunction:
        """Expert ``expert``'s row as a question -> value mapping."""
        return ValueFunction._trusted(
            dict(zip(self.universe, self.values[expert].tolist()))
        )

    def value_functions(self) -> list[ValueFunction]:
        return [self.value_function(e) for e in range(self.n)]


class ScriptedPolicy:
    """Deterministic retention rule over at most ``capacity`` facts.

    Policies see the identical stream every expert sees, so one instance can
    back any number of experts. ``offer`` returns the questions whose
    membership changed, which lets learners keep saver counts incremental.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._memory: "OrderedDict[QuestionId, Fact]" = OrderedDict()
        self._shown = 0

    def offer(self, fact: Fact) -> tuple[QuestionId, ...]:
        raise NotImplementedError

    def memory(self) -> frozenset[Fact]:
        return frozenset(self._memory.values())


class KeepLastPolicy(ScriptedPolicy):
    """Retain the most recently shown distinct facts; re-shows refresh."""

    def offer(self, fact: Fact) -> tuple[QuestionId, ...]:
        self._shown += 1
        if fact.question in self._memory:
            self._memory.move_to_end(fact.question)
            return ()
        self._memory[fact.question] = fact
        if len(self._memory) > self.capacity:
            evicted, _ = self._memory.popitem(last=False)
            return (fact.question, evicted)
        return (fact.question,)


class KeepFirstPolicy(ScriptedPolicy):
    """Retain the first distinct facts shown; never evict."""

    def offer(self, fact: Fact) -> tuple[QuestionId, ...]:
        self._shown += 1
        if fact.question in self._memory or len(self._memory) >= self.capacity:
            return ()
        self._memory[fact.question] = fact
        return (fact.question,)


class StridePolicy(ScriptedPolicy):
    """Retain facts arriving at show-indices congruent to ``offset`` modulo
    ``stride``, evicting the oldest stored fact when full."""

    def __init__(self, capacity: int, stride: int, offset: int = 0):
        super().__init__(capacity)
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride
        self.offset = offset % stride

    def offer(self, fact: Fact) -> tuple[QuestionId, ...]:
        index = self._shown
        self._shown += 1
        if index % self.stride != self.offset:
            return ()
        if fact.question in self._memory:
            self._memory.move_to_end(fact.question)
            return ()
        self._memory[fact.question] = fact
        if len(self._memory) > self.capacity:
            evicted, _ = self._memory.popitem(last=False)
            return (fact.question, evicted)
        return (fact.question,)


class SimulatedValueSuite:
    """Reference value-based suite: an explicit eviction simulation, kept
    apart from the threshold arithmetic.

    Each expert holds its memory as a ``question -> value`` dict updated in
    place, plus the question of its weakest stored fact. The suite keeps one
    ``int64`` cutoff vector (the weakest stored value of each full memory, 0
    while under capacity), written only when a cutoff moves, and one answers
    dict for the facts any expert has stored. A newcomer costs one value
    lookup and one compare per expert; the weakest fact is searched for
    again (a ``min`` over M entries) only on an eviction or when a memory
    first fills. This is the one eviction-based copy of the top-M rule: the
    replay checks and the criteria play it, one expert or a panel at a
    time, against the sort-based references in :mod:`factgame.invariants`.
    """

    backing = "simulation"

    def __init__(self, value_functions: Sequence[ValueFunction], capacity: int):
        if not value_functions:
            raise ValueError("need at least one expert")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._values = [vf.values for vf in value_functions]
        self._memory: list[dict[QuestionId, int]] = [{} for _ in value_functions]
        self._weakest: list[QuestionId | None] = [None] * len(value_functions)
        self._cutoffs = np.zeros(len(value_functions), dtype=np.int64)
        self._answers: dict[QuestionId, Answer] = {}

    @property
    def n(self) -> int:
        return len(self._memory)

    @staticmethod
    def _undeclared(expert: int, question: QuestionId) -> KeyError:
        return KeyError(
            f"expert {expert} declares no value for question {question!r}; "
            "the pair is illegal to query"
        )

    def offer(self, fact: Fact) -> tuple[QuestionId, ...]:
        q = fact.question
        stored = self._answers.get(q, fact.answer)
        if stored != fact.answer and any(q in memory for memory in self._memory):
            raise ValueError(
                f"conflicting answer for {q!r}: "
                f"stored {stored!r}, offered {fact.answer!r}"
            )
        capacity = self.capacity
        weakest = self._weakest  # None while a memory is under capacity
        kept = False
        evicted: dict[QuestionId, None] = {}  # in the order of the first evicting expert
        for e, (values, memory) in enumerate(zip(self._values, self._memory)):
            try:
                value = values[q]
            except KeyError:
                raise self._undeclared(e, q) from None
            w = weakest[e]
            if w is not None:
                # Every stored value is >= the weakest one, so a value at or
                # below it is either the weakest fact itself or not stored.
                if value <= memory[w] or q in memory:
                    continue
                del memory[w]
                memory[q] = value
                evicted[w] = None
            elif q in memory:
                continue
            else:
                memory[q] = value
                if len(memory) < capacity:
                    kept = True
                    continue
            kept = True
            w = weakest[e] = min(memory, key=memory.__getitem__)
            self._cutoffs[e] = memory[w]
        if not kept:
            return ()
        self._answers[q] = fact.answer
        return (q, *evicted)

    def _check_declared(self, question: QuestionId) -> None:
        # A vector query touches every (expert, question) pair, so every
        # expert must declare the question.
        for e, values in enumerate(self._values):
            if question not in values:
                raise self._undeclared(e, question)

    def knows(self, question: QuestionId) -> np.ndarray:
        self._check_declared(question)
        return np.fromiter(
            (question in memory for memory in self._memory), dtype=bool, count=self.n
        )

    def knows_many(self, questions: Sequence[QuestionId]) -> np.ndarray:
        for q in questions:
            self._check_declared(q)
        rows = [[q in memory for memory in self._memory] for q in questions]
        return np.asarray(rows, dtype=bool).reshape(len(questions), self.n)

    def count_active(self, question: QuestionId, active: np.ndarray, token: object = None) -> int:
        return int((self.knows(question) & active).sum())

    def union_memory(self) -> set[Fact]:
        answers = self._answers
        return {Fact(q, answers[q]) for memory in self._memory for q in memory}

    def true_thresholds(self) -> np.ndarray:
        return self._cutoffs.copy()


class ThresholdValueSuite:
    """Vectorized value-based suite over a :class:`ValueTable`.

    Holds the table by reference, the shared seen-mask, and each expert's
    top-``capacity`` seen values, unsorted, in one ``N x capacity`` array,
    with the column stored in each slot (-1 while empty), the slot of each
    row's smallest value and the cutoff vector (that smallest value, 0 while
    under-full). Membership is ``seen(q) and value(e, q) >= cutoff(e)``.

    A first show is kept by exactly the rows whose cutoff it beats; each
    writes the newcomer over its smallest slot, so the evicted column is the
    one that slot held, and only those rows look for their new smallest slot.
    """

    backing = "threshold"

    def __init__(self, table: ValueTable, capacity: int):
        self.capacity = capacity
        self.table = table
        self.values = table.values
        self._column = table.column
        self._seen = np.zeros(self.values.shape[1], dtype=bool)
        self._top = np.zeros((table.n, capacity), dtype=np.int64)
        self._slot_col = np.full((table.n, capacity), -1, dtype=np.int64)
        self._low = np.zeros(table.n, dtype=np.int64)  # slot of each row's cutoff
        self._cut = np.zeros(table.n, dtype=np.int64)
        self._answers: dict[int, Answer] = {}

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def offer(self, fact: Fact) -> tuple[QuestionId, ...]:
        col = self._column(fact.question)
        if self._seen[col]:
            if self._answers[col] != fact.answer:
                raise ValueError(
                    f"conflicting answer for {fact.question!r}: "
                    f"stored {self._answers[col]!r}, offered {fact.answer!r}"
                )
            return ()  # re-shows never move a value-based memory
        self._seen[col] = True
        self._answers[col] = fact.answer
        v = self.values[:, col]
        rows = np.flatnonzero(v > self._cut)
        if not rows.size:
            return ()
        slots = self._low[rows]
        evicted = self._slot_col[rows, slots]
        self._top[rows, slots] = v[rows]
        self._slot_col[rows, slots] = col
        top = self._top[rows]
        low = self._low[rows] = top.argmin(axis=1)
        self._cut[rows] = top[np.arange(rows.size), low]
        # Each evicted column once, in the order of the first row evicting it.
        universe = self.table.universe
        evicted = dict.fromkeys(evicted[evicted >= 0].tolist())
        return (fact.question, *[universe[c] for c in evicted])

    def knows(self, question: QuestionId) -> np.ndarray:
        col = self._column(question)
        if not self._seen[col]:
            return np.zeros(self.n, dtype=bool)
        return self.values[:, col] >= self._cut

    def knows_many(self, questions: Sequence[QuestionId]) -> np.ndarray:
        cols = np.fromiter(
            (self._column(q) for q in questions), dtype=np.int64, count=len(questions)
        )
        member = self.values[:, cols] >= self._cut[:, None]
        return member.T & self._seen[cols][:, None]

    def count_active(self, question: QuestionId, active: np.ndarray, token: object = None) -> int:
        col = self._column(question)
        if not self._seen[col]:
            return 0
        return int(((self.values[:, col] >= self._cut) & active).sum())

    def true_thresholds(self) -> np.ndarray:
        return self._cut.copy()

    def union_memory(self) -> set[Fact]:
        seen_cols = np.flatnonzero(self._seen)
        if not seen_cols.size:
            return set()
        anyone = (self.values[:, seen_cols] >= self._cut[:, None]).any(axis=0)
        universe = self.table.universe
        return {Fact(universe[c], self._answers[c]) for c in seen_cols[anyone]}


class ScriptedSuite:
    """Suite of policy-driven experts; ``expert_policy[i]`` names the policy
    backing expert ``i``."""

    backing = "scripted"

    def __init__(self, policies: Sequence[ScriptedPolicy], expert_policy: Sequence[int]):
        if not policies or not expert_policy:
            raise ValueError("need at least one policy and one expert")
        for p in expert_policy:
            if not 0 <= p < len(policies):
                raise ValueError(f"policy index {p} out of range")
        self.policies = list(policies)
        self.expert_policy = np.asarray(expert_policy, dtype=np.int64)
        self.capacity = max(p.capacity for p in policies)
        self._mult: list[int] | None = None  # active experts per policy
        self._mult_token: object = object()

    @property
    def n(self) -> int:
        return len(self.expert_policy)

    def offer(self, fact: Fact) -> tuple[QuestionId, ...]:
        changed: tuple[QuestionId, ...] = ()
        for policy in self.policies:
            delta = policy.offer(fact)
            if delta:
                # Policies sharing a newcomer or an evictee name it once.
                changed = delta if not changed else changed + tuple(
                    q for q in delta if q not in changed
                )
        return changed

    def knows(self, question: QuestionId) -> np.ndarray:
        bits = np.fromiter(
            (question in p._memory for p in self.policies),
            dtype=bool,
            count=len(self.policies),
        )
        return bits[self.expert_policy]

    def knows_many(self, questions: Sequence[QuestionId]) -> np.ndarray:
        n_pol = len(self.policies)
        memories = [p._memory for p in self.policies]
        bits = np.fromiter(
            (q in mem for q in questions for mem in memories),
            dtype=bool,
            count=len(questions) * n_pol,
        ).reshape(len(questions), n_pol)
        return bits[:, self.expert_policy]

    def count_active(self, question: QuestionId, active: np.ndarray, token: object = None) -> int:
        if token is None or token != self._mult_token:
            self._mult = np.bincount(
                self.expert_policy[active], minlength=len(self.policies)
            ).tolist()
            self._mult_token = token
        total = 0
        for i, policy in enumerate(self.policies):
            if question in policy._memory:
                total += self._mult[i]
        return total

    def union_memory(self) -> set[Fact]:
        out: set[Fact] = set()
        # A policy that backs no expert holds no expert's memory.
        for i in np.unique(self.expert_policy).tolist():
            out.update(self.policies[i].memory())
        return out


ExpertSuite = SimulatedValueSuite | ThresholdValueSuite | ScriptedSuite


def random_value_suite(
    n_experts: int, universe: Sequence[QuestionId], seed: int
) -> ValueTable:
    """One independent random injective scoring per expert (a permutation of
    1..|universe| over ``universe`` in the given order), deterministic in the
    seed. Columns follow ``sorted(universe, key=str)``."""
    rng = random.Random(seed)
    u = len(universe)
    order = sorted(range(u), key=lambda i: str(universe[i]))
    position = np.empty(u, dtype=np.int64)  # column of universe[i]
    position[order] = np.arange(u)
    values = np.empty((n_experts, u), dtype=np.int64)
    for e in range(n_experts):
        scores = list(range(1, u + 1))
        rng.shuffle(scores)
        values[e, position] = scores
    return ValueTable([universe[i] for i in order], values)


def _scripted_recency(n: int, capacity: int) -> ScriptedSuite:
    return ScriptedSuite([KeepLastPolicy(capacity)], [0] * n)


def _scripted_first_vs_last(n: int, capacity: int) -> ScriptedSuite:
    policies = [KeepFirstPolicy(capacity), KeepLastPolicy(capacity)]
    return ScriptedSuite(policies, [i % 2 for i in range(n)])


def _scripted_striped(n: int, capacity: int) -> ScriptedSuite:
    policies: list[ScriptedPolicy] = [
        KeepLastPolicy(capacity),
        StridePolicy(capacity, 2, 0),
        StridePolicy(capacity, 3, 1),
        KeepFirstPolicy(capacity),
    ]
    return ScriptedSuite(policies, [i % len(policies) for i in range(n)])


SCRIPTED_SUITES = {
    "recency": _scripted_recency,
    "first-vs-last": _scripted_first_vs_last,
    "striped": _scripted_striped,
}


def build_scripted_suite(name: str, n_experts: int, capacity: int) -> ScriptedSuite:
    try:
        builder = SCRIPTED_SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown scripted suite {name!r}; registered: {sorted(SCRIPTED_SUITES)}"
        ) from None
    return builder(n_experts, capacity)


def dump_expert_suite(
    table: Mapping[str, Mapping[QuestionId, int]], out: IO[str]
) -> None:
    for expert_id in table:
        eid = str(expert_id)
        if any(ch.isspace() for ch in eid) or not eid:
            raise ValueError(f"expert id {eid!r} is empty or contains whitespace")
        for q, v in table[expert_id].items():
            qid = str(q)
            if any(ch.isspace() for ch in qid) or not qid:
                raise ValueError(f"question id {qid!r} is empty or contains whitespace")
            out.write(f"expert {eid} value {qid} {int(v)}\n")


def load_expert_suite(lines: Iterable[str]) -> dict[str, dict[str, int]]:
    """Parse ``expert <id> value <qid> <natural>`` lines into per-expert value
    tables. Duplicate (expert, qid) pairs and non-natural values are errors;
    unlisted pairs stay illegal to query."""
    table: dict[str, dict[str, int]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 5 or tokens[0] != "expert" or tokens[2] != "value":
            raise ValueError(f"line {lineno}: malformed suite entry {line!r}")
        eid, qid, value_token = tokens[1], tokens[3], tokens[4]
        try:
            value = int(value_token)
        except ValueError:
            raise ValueError(f"line {lineno}: value {value_token!r} is not an integer") from None
        if value < 1:
            raise ValueError(f"line {lineno}: values must be >= 1, got {value}")
        per = table.setdefault(eid, {})
        if qid in per:
            raise ValueError(f"line {lineno}: duplicate entry for expert {eid} question {qid}")
        per[qid] = value
    if not table:
        raise ValueError("expert suite file declares no experts")
    return table
