"""The learner algorithms.

Every learner advances in two phases per step, mirroring the game loop:

* ``observe_evaluation`` runs when a question is posed, before the experts
  update their memories, so suite queries here see the memories the costs
  were charged against;
* ``update_memory`` runs after the experts have updated, inserts the step's
  fact, and prunes stored facts the (weighted) expert majority no longer
  backs.

Four algorithms plus a strawman: multiplicative weights over exact error
counts, the lazy scheme that keeps 0/1 weights and deactivates experts in
bulk, its value-threshold variant that estimates expert memories from the
shared value table instead of querying the suite, the store-everything
union baseline, and a random-eviction strawman for lower-bound experiments.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

import numpy as np

from .experts import ExpertSuite, SENTINEL_VALUE, ValueTable
from .model import Answer, QuestionId


class Learner:
    """Uniform stepping surface consumed by the game loop.

    Budget and auxiliary-state figures are plain attributes; ``active_count``
    tracks how many experts currently carry weight (everyone, for learners
    without an active set).
    """

    name = "base"

    def __init__(self, n_experts: int, capacity: int):
        if n_experts < 1 or capacity < 1:
            raise ValueError("need n_experts >= 1 and capacity >= 1")
        self.n = n_experts
        self.M = capacity
        self.memory: dict[QuestionId, Answer] = {}
        self.generation = 0
        self.fact_budget = 2 * capacity
        self.question_budget = 0
        self.aux_state_count = 0
        self.active_count = n_experts

    @property
    def question_memory_size(self) -> int:
        return 0

    def observe_evaluation(self, question: QuestionId, know: np.ndarray) -> None:
        """Evaluation phase; ``know`` is the per-expert membership vector
        already computed for cost assessment."""

    def update_memory(
        self, question: QuestionId, answer: Answer | None, changed: Sequence[QuestionId]
    ) -> None:
        """Memory phase. ``changed`` is what the suite's ``offer`` returned
        for this step: each question whose expert membership moved, once."""
        raise NotImplementedError


class MwuLearner(Learner):
    """Multiplicative weights baseline: every expert's error count drives a
    weight (1-gamma)**errors, and a fact survives iff the experts that store
    it carry at least half of the total weight.

    The stored facts' membership rows are kept as one matrix in memory
    order, a memo of suite answers refreshed through ``changed``: one suite
    call per step over the changed stored questions plus a newly stored fact
    (``knows`` for one question, ``knows_many`` for more). The memo is not
    learner state, so ``aux_state_count`` omits it.
    The weights and the half-weight threshold are cached until the next
    evaluation. A step that changes neither the weights nor the matrix, after
    a test that kept every row, re-tests nothing: the product would come out
    bit for bit the same. Any other step re-tests the whole matrix with one
    product, because the product's per-row rounding depends on the row
    count, so only the whole product gives the verdicts of a full recompute.
    """

    name = "mwu"

    def __init__(self, suite: ExpertSuite, capacity: int, gamma: float = 0.5):
        super().__init__(suite.n, capacity)
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        self.suite = suite
        self.gamma = gamma
        self.errors = np.zeros(self.n, dtype=np.int64)
        self.aux_state_count = 2 * self.n + 1  # error counts, derived weights, gamma
        self._weights: np.ndarray | None = None  # None: stale since an evaluation
        self._half = 0.0
        # Row i of _know[:len(memory)] is the membership of the i-th stored
        # question as 0.0/1.0: the product skips the bool-to-float cast and
        # rounds bit for bit as the product of the bool matrix does.
        self._know = np.zeros((2 * capacity + 1, self.n))
        self._row: dict[QuestionId, int] = {}
        self._settled = True  # the last test kept every row

    def weights(self) -> np.ndarray:
        # Shifting by the minimum error count is scale-invariant for the
        # majority test and keeps the powers inside float range on long runs.
        if self._weights is None:
            w = self._weights = (1.0 - self.gamma) ** (self.errors - self.errors.min())
            self._half = 0.5 * w.sum()
        return self._weights

    def observe_evaluation(self, question: QuestionId, know: np.ndarray) -> None:
        self.errors += ~know
        if 0 < np.count_nonzero(know) < self.n:  # a unanimous verdict shifts no weight
            self._weights = None

    def _reserve(self, rows: int) -> None:
        if rows > len(self._know):
            grown = np.zeros((2 * rows, self.n))
            kept = len(self._row)
            grown[:kept] = self._know[:kept]
            self._know = grown

    def update_memory(
        self, question: QuestionId, answer: Answer | None, changed: Sequence[QuestionId]
    ) -> None:
        memory = self.memory
        joined = answer is not None and question not in memory
        if joined:
            memory[question] = answer
        if not memory:
            return
        row = self._row
        stale = [q for q in changed if q in row]
        if joined:
            self._reserve(len(memory))
            row[question] = len(row)
            stale.append(question)
        if len(stale) == 1:
            self._know[row[stale[0]]] = self.suite.knows(stale[0])
        elif stale:
            self._know[[row[q] for q in stale]] = self.suite.knows_many(stale)
        elif self._settled and self._weights is not None:
            return  # same matrix, same weights: the same product keeps all
        w = self.weights()
        know = self._know[: len(memory)]
        # exactly half the weight persists the fact
        drops = (know @ w < self._half).nonzero()[0].tolist()
        self._settled = not drops
        if self._settled:
            return
        if drops == [len(memory) - 1]:  # the common case: the newest row goes
            q = next(reversed(memory))
            del memory[q], self._row[q]
            return
        questions = list(memory)
        for i in drops:
            del memory[questions[i]]
        self._know[: len(memory)] = np.delete(know, drops, axis=0)
        self._row = {q: i for i, q in enumerate(memory)}


class _ActiveSetLearner(Learner):
    """Shared 0/1-weight bookkeeping of the lazy learners: deactivate experts
    in bulk once enough of the active ones have accumulated ``capacity``
    errors; when nobody is left, clear all error counts and reactivate
    everyone. ``active`` is one bool array, changed only in place, and
    ``active_count`` the number of experts it marks."""

    def __init__(self, n_experts: int, capacity: int):
        super().__init__(n_experts, capacity)
        self.errors = np.zeros(self.n, dtype=np.int64)
        self.active = np.ones(self.n, dtype=bool)

    def _drop_bad_experts(self) -> None:
        bad = self.active & (self.errors >= self.M)
        nbad = np.count_nonzero(bad)
        if nbad and self.active_count <= 3 * nbad:  # equality triggers the removal
            self.active &= ~bad
            self.generation += 1
            if not self.active.any():
                self.errors[:] = 0
                self.active[:] = True
            self.active_count = int(self.active.sum())


class LazyLearner(_ActiveSetLearner):
    """Lazy 0/1-weight scheme over the suite's membership answers.

    Error counts range over every expert, active or not; only active experts
    are candidates for deactivation, and only active experts vote on which
    stored facts survive. Saver counts per stored fact are cached and
    recounted only for facts whose membership moved (the suite's
    ``changed``) and for the step's new fact, or for all of them after an
    active-set change.
    """

    name = "lazy"

    def __init__(self, suite: ExpertSuite, capacity: int):
        super().__init__(suite.n, capacity)
        self._counts: dict[QuestionId, int] = {}  # savers among active, per stored fact
        self._counts_generation = self.generation
        self._count_fn = suite.count_active
        self.aux_state_count = 2 * self.n  # error counts and active flags

    def observe_evaluation(self, question: QuestionId, know: np.ndarray) -> None:
        self.errors += ~know
        self._drop_bad_experts()

    def update_memory(
        self, question: QuestionId, answer: Answer | None, changed: Sequence[QuestionId]
    ) -> None:
        memory = self.memory
        if answer is not None:
            memory[question] = answer
        if not memory:
            return
        # A stored fact's verdict moves only with its saver count or the
        # active set, so only recounted facts need re-checking; everything
        # else already survived an identical test.
        count = self._count_fn
        active = self.active
        generation = self.generation
        counts = self._counts
        if generation != self._counts_generation:
            self._counts = counts = {
                q: count(q, active, generation) for q in memory
            }
            self._counts_generation = generation
            suspects = counts
        else:
            suspects = {}
            for q in changed:
                if q in memory:
                    suspects[q] = counts[q] = count(q, active, generation)
            if question not in counts and question in memory:
                suspects[question] = counts[question] = count(question, active, generation)
            if not suspects:
                return
        threshold = self.active_count
        drops = [q for q, c in suspects.items() if 2 * c < threshold]
        for q in drops:  # ties persist the fact
            del memory[q]
            del counts[q]


class ValueLazyLearner(_ActiveSetLearner):
    """Lazy scheme for value-based experts, with no oracle.

    Expert memberships are estimated as ``value(e, q) >= cutoff(e)`` where
    each cutoff is a monotone lower bound on the expert's true retention
    cutoff: the capacity-th largest value over the pool of questions the
    learner itself holds, stored or parked. Mistakes the estimated majority
    would have avoided are parked in a bounded question-only buffer until a
    second cutoff estimate, over the buffer alone, can classify them.

    Each cutoff is stored once, as its value (one auxiliary entry each). A
    cutoff moves only once capacity pool values beat it, so the learner
    keeps ``above[e]``, the number of pool columns whose value beats row e's
    cutoff, and ``above_pre[e]``, the same over the buffer for the
    pre-cutoff. A column joining or leaving the pool costs one compare down
    its table column, and a refresh recomputes only the active rows whose
    count reached the capacity. State is O(N) plus O(pool): no per-question
    array over the universe.
    """

    name = "value-lazy"

    def __init__(self, table: ValueTable, capacity: int):
        super().__init__(table.n, capacity)
        self.values = table.values  # shared by reference, never copied
        self._column = table.column
        self._t_vals = np.full(self.n, SENTINEL_VALUE, dtype=np.int64)
        self._tpre_vals = np.full(self.n, SENTINEL_VALUE, dtype=np.int64)
        self.above = np.zeros(self.n, dtype=np.int64)
        self.above_pre = np.zeros(self.n, dtype=np.int64)
        self.minor: dict[int, QuestionId] = {}
        self._mem_cols: dict[QuestionId, int] = {}
        self._cutoff_generation = self.generation
        self._save_counts: dict[QuestionId, int] = {}
        self.question_budget = 2 * capacity
        self.aux_state_count = 4 * self.n  # error counts, active flags, two cutoffs

    @property
    def question_memory_size(self) -> int:
        return len(self.minor)

    def threshold_values(self) -> np.ndarray:
        return self._t_vals

    def pre_threshold_values(self) -> np.ndarray:
        return self._tpre_vals

    def _pool(self) -> Iterator[int]:
        """Every pool column once: the stored ones, then the parked ones
        not also stored."""
        mem_cols = self._mem_cols
        yield from mem_cols.values()
        for col, question in self.minor.items():
            if question not in mem_cols:
                yield col

    def _raise_cutoffs(
        self,
        pool: Iterable[int],
        pool_bound: int,
        cut_vals: np.ndarray,
        above: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Raise every active row with at least capacity pool values above
        its cutoff to the capacity-th largest of them. Returns the moved rows
        and their old cutoff values, or None when no row moves; ``pool`` is
        read only then. ``pool_bound`` is at least the pool's size: a row
        counts only pool values, so below capacity no row can move."""
        if pool_bound < self.M:
            return None
        rows = np.flatnonzero(self.active & (above >= self.M))
        if not rows.size:
            return None
        cols = np.fromiter(pool, dtype=np.int64)
        cut = cols.size - self.M
        old = cut_vals[rows]
        cut_vals[rows] = np.partition(self.values[np.ix_(rows, cols)], cut, axis=1)[:, cut]
        above[rows] = self.M - 1  # rows are injective: M-1 pool values beat the new cutoff
        return rows, old

    def update_pre_threshold(self, question: QuestionId) -> None:
        """Park a missed question in the bounded buffer, raise the
        pre-cutoffs from the buffer, then resolve (charge and evict) every
        buffered question now below the pre-cutoff for at least half of the
        active experts."""
        col = self._column(question)
        if col not in self.minor:
            self.minor[col] = question
            self.above_pre += self.values[:, col] > self._tpre_vals
            if question not in self._mem_cols:
                self.above += self.values[:, col] > self._t_vals
        self._raise_cutoffs(self.minor.keys(), len(self.minor), self._tpre_vals, self.above_pre)
        # Nothing a resolution reads (active set, pre-cutoffs, active_count)
        # changes while the buffer resolves, so every column is judged at once.
        cols = np.fromiter(self.minor, dtype=np.int64, count=len(self.minor))
        tpre = self._tpre_vals[:, None]
        sub = self.values[:, cols]
        failing = (sub < tpre) & self.active[:, None]
        resolved = 2 * np.count_nonzero(failing, axis=0) >= self.active_count
        if not resolved.any():
            return
        self.errors += np.count_nonzero(failing[:, resolved], axis=1)
        self.above_pre -= np.count_nonzero(sub[:, resolved] > tpre, axis=1)
        leaving = []  # resolved columns not also stored leave the main pool
        for c in cols[resolved].tolist():
            if self.minor.pop(c) not in self._mem_cols:
                leaving.append(c)
        if leaving:
            self.above -= np.count_nonzero(
                self.values[:, leaving] > self._t_vals[:, None], axis=1
            )

    def observe_evaluation(self, question: QuestionId, know: np.ndarray) -> None:
        if question in self.memory:
            return  # only a learner mistake triggers the weight phase
        col = self._column(question)
        failed = self.active & (self.values[:, col] < self._t_vals)
        if 2 * int(failed.sum()) < self.active_count:
            self.update_pre_threshold(question)
        else:
            self.errors[failed] += 1
        self._drop_bad_experts()  # a hard reset here leaves both cutoffs in place

    def _save_count(self, col: int) -> int:
        return int(((self.values[:, col] >= self._t_vals) & self.active).sum())

    def _recount_saves(self) -> None:
        questions = list(self.memory)
        mem_cols = np.fromiter(
            (self._mem_cols[q] for q in questions), dtype=np.int64, count=len(questions)
        )
        save = (self.values[:, mem_cols] >= self._t_vals[:, None]) & self.active[:, None]
        counts = save.sum(axis=0)
        self._save_counts = dict(zip(questions, (int(c) for c in counts)))

    def _lose_savers(self, rows: np.ndarray, old: np.ndarray) -> dict[QuestionId, int]:
        """Charge the counted facts for the savers lost when the cutoffs of
        ``rows`` rose from ``old``: a row stops saving a fact whose value
        lies in [old, new). Returns the facts whose count fell."""
        counts = self._save_counts
        if not counts:
            return {}
        questions = list(counts)
        cols = np.fromiter(
            (self._mem_cols[q] for q in questions), dtype=np.int64, count=len(questions)
        )
        sub = self.values[np.ix_(rows, cols)]
        lost = np.count_nonzero(
            (sub >= old[:, None]) & (sub < self._t_vals[rows][:, None]), axis=0
        )
        fell = {}
        for i in np.flatnonzero(lost).tolist():
            q = questions[i]
            fell[q] = counts[q] = counts[q] - int(lost[i])
        return fell

    def update_memory(
        self, question: QuestionId, answer: Answer | None, changed: Sequence[QuestionId]
    ) -> None:
        if answer is not None:
            if question not in self._mem_cols:
                col = self._column(question)
                self._mem_cols[question] = col
                if col not in self.minor:
                    self.above += self.values[:, col] > self._t_vals
            self.memory[question] = answer  # step fact joins before the cutoff refresh
        moved = self._raise_cutoffs(
            self._pool(), len(self._mem_cols) + len(self.minor), self._t_vals, self.above
        )
        stale = self.generation != self._cutoff_generation
        self._cutoff_generation = self.generation
        if not self.memory:
            return
        # Verdicts depend only on (cutoffs, active set): re-check everything
        # after an active-set change, otherwise just the facts that lost a
        # saver to a cutoff move and the fact that gained a count.
        if stale:
            self._recount_saves()
            suspects = self._save_counts
        else:
            suspects = {} if moved is None else self._lose_savers(*moved)
            if question in self.memory and question not in self._save_counts:
                count = self._save_count(self._mem_cols[question])
                self._save_counts[question] = suspects[question] = count
        threshold = self.active_count
        drops = [q for q, c in suspects.items() if 2 * c < threshold]
        for q in drops:
            del self.memory[q]
            del self._save_counts[q]
            col = self._mem_cols.pop(q)
            if col not in self.minor:
                self.above -= self.values[:, col] > self._t_vals


class FullSimLearner(Learner):
    """Store-everything baseline: memory mirrors the union of all expert
    memories after each step.

    The union moves only through ``changed``: one ``knows_many`` call over
    those questions, where a question some expert holds joins (only the
    step's fact can newly join) and one nobody holds leaves.
    """

    name = "full-sim"

    def __init__(self, suite: ExpertSuite):
        super().__init__(suite.n, suite.capacity)
        self.suite = suite
        self.fact_budget = self.n * self.M

    def update_memory(
        self, question: QuestionId, answer: Answer | None, changed: Sequence[QuestionId]
    ) -> None:
        memory = self.memory  # in-place: the harness hands out a live view of this dict
        if not changed:
            return
        held = self.suite.knows_many(changed).any(axis=1)
        for q, h in zip(changed, held.tolist()):
            if not h:
                memory.pop(q, None)
            elif q not in memory:
                memory[q] = answer  # q is the step's fact


class RandomEvictLearner(Learner):
    """Strawman: keep every offered fact, evicting uniformly at random once
    over budget. Deterministic in the seed."""

    name = "random-evict"

    def __init__(self, n_experts: int, capacity: int, budget: int, seed: int = 0):
        super().__init__(n_experts, capacity)
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = budget
        self.fact_budget = budget
        self.aux_state_count = 1  # generator state
        self._rng = random.Random(seed)
        self._order: list[QuestionId] = []

    def update_memory(
        self, question: QuestionId, answer: Answer | None, changed: Sequence[QuestionId]
    ) -> None:
        if answer is None:
            return
        if question not in self.memory:
            self._order.append(question)
        self.memory[question] = answer
        while len(self.memory) > self.budget:
            i = self._rng.randrange(len(self._order))
            victim = self._order[i]
            self._order[i] = self._order[-1]
            self._order.pop()
            del self.memory[victim]
