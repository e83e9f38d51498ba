"""Bounded-memory experts, and the suite protocol that learners query.

Two families of experts:

* **Value-based** experts rank every question with a per-expert injective
  score and always retain the ``capacity`` highest-scoring facts seen so far.
  A panel's scores form one validated, read-only ``N x U`` table
  (:class:`ValueTable`), stored question-major (numpy Fortran order), so
  the N values of one question, the read every hot path makes, are one
  contiguous column. It is the panel's one representation: a suite file
  whose experts score different questions becomes the table over the
  questions every expert scores. Two interchangeable backings read it by
  reference: an explicit eviction-based simulation
  (:class:`SimulatedValueSuite`: each expert's memory is a question -> value
  dict updated in place, with its weakest stored fact tracked, so a first
  show reads one table column and visits only the experts whose cutoff the
  value beats, and an eviction costs one ``min`` over M) and a vectorized
  form (:class:`ThresholdValueSuite`: the shared seen-set, each expert's
  top-M seen values and their columns in an unsorted ``N x M`` array with
  the slot of its smallest one, and the retention cutoff vector). Membership
  answers and returned changes must agree; the test suite checks this
  exhaustively at small scale. The top-M rule itself is checked on the
  simulation: the replay checks in :mod:`factgame.invariants` play
  :class:`SimulatedValueSuite` (N=1 for a single expert) against the
  sort-based ``top_m_replay`` and ``kth_largest``.

* **Scripted** experts follow deterministic stream-order policies (recency,
  first-seen, stride). Policies depend only on the stream, never on expert
  identity, so experts sharing a policy share one state machine.

Every suite answers the same membership questions, and learners ask them of
the suite directly (the game loop decides when memories advance, so query
timing is the caller's contract):

* ``knows(q)``: a length-N bool vector, expert e's bit set iff e stores q
  (it may be a read-only view: callers copy it before writing);
* ``knows_many(qs)``: the ``len(qs) x N`` stack of those vectors;
* ``count_active(q, active, token)``: how many experts under the bool mask
  ``active`` store q; ``token`` names the mask's version, so a suite may
  cache per-mask aggregates between calls with an equal token;
* ``offer(fact)``: show one fact to every expert; returns the questions whose
  membership moved, each once, and ``()`` when none moved (a value suite
  names the newcomer first, then each evicted question in the order of the
  first expert evicting it). Learners update their memory phase from this
  tuple alone, so a suite must name every question that moved. A value
  suite raises KeyError for a question outside its table, and ValueError
  for an answer other than the one a question was first shown with.

Expert-suite files list one value per line: ``expert <id> value <qid> <nat>``.
Only the questions every expert scores are legal to query.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .model import Answer, Fact, QuestionId

SENTINEL_VALUE = 0  # below every legal score; legal scores are integers >= 1
# The row-major blocks that table validation sorts and random_value_suite
# fills: at most this many bytes, or one row when a row is larger.
_STAGING_BYTES = 256 * 1024


class ValueTable:
    """The scores of a value-based panel: one read-only ``N x U`` ``int64``
    array, row ``e`` holding expert ``e``'s injective scoring of the
    questions in ``universe`` (column order).

    The array is stored question-major (numpy Fortran order): every hot read
    takes one question's N values, and ``values[:, col]`` is then one
    contiguous view. Validated once, vectorized, on construction: the array
    is rectangular, every value is an integer >= 1, and no row repeats a
    value. The array is then frozen, so the suite and the learner can share
    it by reference. An F-contiguous ``int64`` array passed in is taken
    over, not copied; any other input (another layout or dtype, a nested
    list) is copied once into that layout.
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
        array = np.asfortranarray(array, dtype=np.int64)
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
            # Rows are sorted a staging block at a time: one sorted copy of
            # the whole table would double the memory that building it
            # takes. Each block is a row-major copy (np.array always
            # copies), so the sort runs along contiguous rows and never
            # touches the table.
            per = max(1, _STAGING_BYTES // (8 * u))
            for lo in range(0, n, per):
                ordered = np.array(array[lo:lo + per], order="C")
                ordered.sort(axis=1)
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
        """Table of per-expert ``question -> value`` mappings over the
        questions that every row scores, columns in ``sorted(..., key=str)``
        order. A question some row leaves out has no column."""
        if not rows:
            raise ValueError("need at least one expert")
        shared = set(rows[0]).intersection(*rows[1:])
        if not shared:
            raise ValueError("no question is scored by every expert")
        universe = sorted(shared, key=str)
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

    def value_function(self, expert: int) -> dict[QuestionId, int]:
        """Expert ``expert``'s row as a question -> value dict."""
        return dict(zip(self.universe, self.values[expert].tolist()))


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

    def offer(self, fact: Fact) -> tuple[QuestionId, ...]:
        raise NotImplementedError

    def memory(self) -> frozenset[Fact]:
        return frozenset(self._memory.values())


class KeepLastPolicy(ScriptedPolicy):
    """Retain the most recently shown distinct facts; re-shows refresh."""

    def offer(self, fact: Fact) -> tuple[QuestionId, ...]:
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
        self._shown = 0  # facts offered so far

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

    Built over a :class:`ValueTable`, held by reference as the threshold
    backing holds it: a question's N values are one column of the table.

    Each expert holds its memory as a ``question -> value`` dict updated in
    place, plus the question of its weakest stored fact. The suite keeps one
    ``int64`` cutoff vector (the weakest stored value of each full memory, 0
    while under capacity), written whenever a cutoff moves, and the answer
    of every question shown. A first show reads the question's values once
    and visits only the experts whose cutoff its value beats: each stores
    the newcomer, a full memory evicting its weakest fact, and the weakest
    fact is searched for again (a ``min`` over M entries) only on such an
    eviction or when a memory first fills. A re-show moves nothing. This is
    the one eviction-based copy of the top-M rule: the replay checks and the
    criteria play it, one expert or a panel at a time, against the
    sort-based references in :mod:`factgame.invariants`.
    """

    backing = "simulation"

    def __init__(self, table: ValueTable, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.table = table
        self.values = table.values
        self._column = table.column
        n = table.n
        self._memory: list[dict[QuestionId, int]] = [{} for _ in range(n)]
        self._weakest: list[QuestionId | None] = [None] * n
        self._cutoffs = np.zeros(n, dtype=np.int64)
        self._answers: dict[QuestionId, Answer] = {}  # every question shown

    @property
    def n(self) -> int:
        return len(self._memory)

    def offer(self, fact: Fact) -> tuple[QuestionId, ...]:
        q = fact.question
        if q in self._answers:
            stored = self._answers[q]
            if stored != fact.answer:
                raise ValueError(
                    f"conflicting answer for {q!r}: "
                    f"stored {stored!r}, offered {fact.answer!r}"
                )
            return ()  # re-shows never move a value-based memory
        column = self.values[:, self._column(q)]
        self._answers[q] = fact.answer
        # A full memory whose weakest value is at least q's keeps what it
        # holds; the cutoff of a memory under capacity is 0, below every value.
        rows = np.flatnonzero(column > self._cutoffs)
        if not rows.size:
            return ()
        capacity = self.capacity
        memories, weakest, cutoffs = self._memory, self._weakest, self._cutoffs
        evicted: dict[QuestionId, None] = {}  # in the order of the first evicting expert
        for e, value in zip(rows.tolist(), column[rows].tolist()):
            memory = memories[e]
            w = weakest[e]  # None while the memory is under capacity
            if w is not None:
                del memory[w]
                evicted[w] = None
            memory[q] = value
            if w is None and len(memory) < capacity:
                continue
            w = weakest[e] = min(memory, key=memory.__getitem__)
            cutoffs[e] = memory[w]
        return (q, *evicted)

    def _holders(self, question: QuestionId) -> np.ndarray:
        """The membership vector that ``knows`` and ``count_active`` share,
        so a wrapper on an instance's ``knows`` sees only direct queries."""
        self._column(question)  # KeyError for a question outside the table
        return np.fromiter(
            (question in memory for memory in self._memory), dtype=bool, count=self.n
        )

    def knows(self, question: QuestionId) -> np.ndarray:
        return self._holders(question)

    def knows_many(self, questions: Sequence[QuestionId]) -> np.ndarray:
        for q in questions:
            self._column(q)
        rows = [[q in memory for memory in self._memory] for q in questions]
        return np.asarray(rows, dtype=bool).reshape(len(questions), self.n)

    def count_active(self, question: QuestionId, active: np.ndarray, token: object = None) -> int:
        return int((self._holders(question) & active).sum())

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
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.table = table
        self.values = table.values
        self._column = table.column
        self._seen = np.zeros(self.values.shape[1], dtype=bool)
        self._top = np.zeros((table.n, capacity), dtype=np.int64)
        self._held_col = np.full((table.n, capacity), -1, dtype=np.int64)
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
        evicted = self._held_col[rows, slots]
        self._top[rows, slots] = v[rows]
        self._held_col[rows, slots] = col
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


class ScriptedSuite:
    """Suite of policy-driven experts; ``expert_policy[i]`` names the policy
    backing expert ``i``. Every policy must back some expert: ``offer``
    names what any policy moved, and an unused one moves no membership.

    Experts sharing a policy share its memory, so a question's membership
    vector depends only on which policies hold it. ``knows`` and
    ``knows_many`` return rows of one read-only table built at construction
    and indexed by that set of policies as a bitmask (bit i for policy i):
    ``2**P`` rows of N bools for P policies, so a query costs one dict probe
    per policy and no per-expert work. A returned vector may be a view of
    that table; callers copy it before writing.
    """

    backing = "scripted"
    MAX_POLICIES = 8  # the membership table has 2**P rows

    def __init__(self, policies: Sequence[ScriptedPolicy], expert_policy: Sequence[int]):
        if not policies or not expert_policy:
            raise ValueError("need at least one policy and one expert")
        if len(policies) > self.MAX_POLICIES:
            raise ValueError(
                f"{len(policies)} policies; a scripted suite takes at most {self.MAX_POLICIES}"
            )
        for p in expert_policy:
            if not 0 <= p < len(policies):
                raise ValueError(f"policy index {p} out of range")
        unused = set(range(len(policies))).difference(expert_policy)
        if unused:
            raise ValueError(f"policies {sorted(unused)} back no expert")
        self.policies = list(policies)
        self.expert_policy = np.asarray(expert_policy, dtype=np.int64)
        self.capacity = max(p.capacity for p in policies)
        patterns = np.arange(1 << len(self.policies))[:, None]
        self._by_pattern = ((patterns >> self.expert_policy) & 1).astype(bool)
        self._by_pattern.flags.writeable = False
        self._holders = [(1 << i, p._memory) for i, p in enumerate(self.policies)]
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

    def _pattern(self, question: QuestionId) -> int:
        """The bitmask of the policies holding ``question``."""
        mask = 0
        for bit, memory in self._holders:
            if question in memory:
                mask |= bit
        return mask

    def knows(self, question: QuestionId) -> np.ndarray:
        return self._by_pattern[self._pattern(question)]

    def knows_many(self, questions: Sequence[QuestionId]) -> np.ndarray:
        # take() gathers the rows faster than indexing with a list does.
        return self._by_pattern.take([self._pattern(q) for q in questions], axis=0)

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


ExpertSuite = SimulatedValueSuite | ThresholdValueSuite | ScriptedSuite


def _shuffle(x: list, rng: random.Random) -> None:
    """``rng.shuffle(x)``, draw for draw, without a Python call per element.

    ``Random.shuffle`` swaps each ``x[i]``, ``i`` from ``len(x) - 1`` down
    to 1, with ``x[j]``, ``j = rng._randbelow(i + 1)``: ``getrandbits(k)``
    with ``k = (i + 1).bit_length()``, drawn again until it is at most
    ``i``. This runs that loop inline, one bit length at a time, so the
    generator makes the same calls in the same order, and ``x`` and the
    generator end as ``rng.shuffle`` leaves them.
    """
    getrandbits = rng.getrandbits
    top = len(x)  # i + 1 for the next index to place
    while top > 1:
        k = top.bit_length()
        low = 1 << (k - 1)  # the smallest i + 1 of bit length k
        for i in range(top - 1, low - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = low - 1


def random_value_suite(
    n_experts: int, universe: Sequence[QuestionId], seed: int
) -> ValueTable:
    """One independent random injective scoring per expert, deterministic in
    the seed: expert ``e``'s values over ``universe``, in the given order,
    are the list ``[1, ..., |universe|]`` after the ``e``-th of ``n_experts``
    successive ``shuffle`` calls on one ``random.Random(seed)`` (reproduced
    draw for draw by :func:`_shuffle`). Columns follow
    ``sorted(universe, key=str)``.

    Shuffled rows are staged row-major, in blocks of at most 256 KiB (one
    row when a row is larger), and each block is copied into the
    question-major table with its columns put in table order: writing each
    row straight into that table would stride through all of it per row.
    """
    rng = random.Random(seed)
    u = len(universe)
    order = sorted(range(u), key=lambda i: str(universe[i]))
    columns = np.array(order, dtype=np.int64)  # column c holds universe[order[c]]
    ranks = list(range(1, u + 1))
    # Question-major, as ValueTable stores it: the table takes this array
    # over, where a row-major one would be copied (a second N x U array).
    values = np.empty((n_experts, u), dtype=np.int64, order="F")
    per = max(1, _STAGING_BYTES // (8 * max(u, 1)))
    block = np.empty((min(per, n_experts), u), dtype=np.int64)
    for lo in range(0, n_experts, per):
        hi = min(lo + per, n_experts)
        for r in range(hi - lo):
            scores = ranks.copy()
            _shuffle(scores, rng)
            block[r] = scores
        values[lo:hi] = block[: hi - lo, columns]
    return ValueTable([universe[i] for i in order], values)


def _scripted_recency(n: int, capacity: int) -> ScriptedSuite:
    return ScriptedSuite([KeepLastPolicy(capacity)], [0] * n)


# Expert i follows policy i mod P, over the first min(N, P) policies only:
# a suite holds no policy that backs no expert.
def _scripted_first_vs_last(n: int, capacity: int) -> ScriptedSuite:
    policies = [KeepFirstPolicy(capacity), KeepLastPolicy(capacity)][:n]
    return ScriptedSuite(policies, [i % len(policies) for i in range(n)])


def _scripted_striped(n: int, capacity: int) -> ScriptedSuite:
    policies: list[ScriptedPolicy] = [
        KeepLastPolicy(capacity),
        StridePolicy(capacity, 2, 0),
        StridePolicy(capacity, 3, 1),
        KeepFirstPolicy(capacity),
    ][:n]
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
    tables. Duplicate (expert, qid) pairs, non-natural values and a value one
    expert uses twice are errors, whichever questions the other experts
    score; unlisted pairs stay illegal to query."""
    table: dict[str, dict[str, int]] = {}
    used: dict[str, dict[int, str]] = {}  # per expert: value -> its question
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
        taken = used.setdefault(eid, {})
        if value in taken:
            raise ValueError(
                f"line {lineno}: expert {eid} uses value {value} twice "
                f"({taken[value]} and {qid}); its values must be distinct"
            )
        per[qid] = value
        taken[value] = qid
    if not table:
        raise ValueError("expert suite file declares no experts")
    return table
