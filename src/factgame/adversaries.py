"""Stream generators: seeded random sequential streams, fixed replayable
streams, and an adaptive two-phase construction that inspects the learner's
memory and always examines it on a block of facts it mostly dropped.

Adaptive adversaries implement ``next_event(memory_view)`` where
``memory_view`` is a read-only view of the learner's currently stored
questions; fixed streams ignore it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Container, Iterator, Sequence

import numpy as np

from .experts import ValueTable
from .model import Event, Fact, QuestionId, Stream, evaluate, teach


class PigeonholeError(RuntimeError):
    """The construction could not find an under-stored block: the learner is
    holding more facts than the memory class the instance was built for."""


class Adversary:
    """Event source driven one step at a time by the game loop."""

    sequential = False

    def next_event(self, memory_view: Container[QuestionId]) -> Event | None:
        raise NotImplementedError


class FixedStreamAdversary(Adversary):
    """Replays a pre-built stream, ignoring the learner's memory."""

    def __init__(self, stream: Stream):
        self.stream = stream
        self.sequential = stream.sequential
        self._events = iter(stream.events)

    def next_event(self, memory_view) -> Event | None:
        return next(self._events, None)


def random_stream(universe_size: int, length: int, teach_fraction: float, seed: int) -> Stream:
    """Seeded random sequential stream: teaches draw uniformly from the
    universe, evaluates draw uniformly from the already-taught questions."""
    if not 0.0 <= teach_fraction <= 1.0:
        raise ValueError("teach_fraction must lie in [0, 1]")
    if universe_size < 1:
        raise ValueError("universe_size must be >= 1")
    rng = random.Random(seed)
    questions = [f"q{i}" for i in range(universe_size)]
    answers = {q: f"a{i}" for i, q in enumerate(questions)}
    taught: list[str] = []
    taught_set: set[str] = set()
    events: list[Event] = []
    for _ in range(length):
        if not taught or rng.random() < teach_fraction:
            q = questions[rng.randrange(universe_size)]
            events.append(teach(q, answers[q]))
            if q not in taught_set:
                taught_set.add(q)
                taught.append(q)
        else:
            q = taught[rng.randrange(len(taught))]
            events.append(evaluate(q, answers[q]))
    return Stream(tuple(events), sequential=True)


def _floor_log(base: int, n: int) -> int:
    k, power = 0, 1
    while power * base <= n:
        power *= base
        k += 1
    return k


@dataclass(frozen=True)
class LowerBoundInstance:
    """Fixed material for the forced-forgetting construction.

    Phase 1 uses ``depth`` collections of ``2c * capacity`` fresh facts, each
    split into ``2c`` blocks of ``capacity``. Experts sit at the leaves of a
    ``2c``-ary tree of that depth; an expert's block in collection k is its
    level-k coordinate, valued above everything it saw earlier, so after a
    collection is taught the expert holds exactly its block. Phase 2 supplies
    ``opt`` rounds of ``c * capacity + 1`` fresh facts each.
    """

    c: int
    n_experts: int
    capacity: int
    opt: int
    depth: int
    collections: tuple[tuple[Fact, ...], ...]
    part2_rounds: tuple[tuple[Fact, ...], ...]
    universe: tuple[QuestionId, ...]
    table: ValueTable
    leaf_coords: tuple[tuple[int, ...] | None, ...]

    @property
    def arity(self) -> int:
        return 2 * self.c

    def block(self, k: int, i: int) -> tuple[Fact, ...]:
        """Block i (1-based) of collection k (1-based): capacity many facts."""
        start = self.capacity * (i - 1)
        return self.collections[k - 1][start : start + self.capacity]

    def leaf_members(self, coords: Sequence[int]) -> list[int]:
        wanted = tuple(coords)
        return [e for e, c in enumerate(self.leaf_coords) if c == wanted]


def build_lower_bound_instance(
    c: int, n_experts: int, capacity: int, opt: int
) -> LowerBoundInstance:
    if c < 1 or capacity < 1 or n_experts < 1:
        raise ValueError("c, n_experts, and capacity must be >= 1")
    if opt < 0:
        raise ValueError("opt must be >= 0")
    arity = 2 * c
    if n_experts < arity:
        raise ValueError(
            f"expert tree degenerate: need at least {arity} experts, got {n_experts}"
        )
    depth = _floor_log(arity, n_experts)

    collections = tuple(
        tuple(
            Fact(f"c{k}.{j}", f"v{k}.{j}") for j in range(1, arity * capacity + 1)
        )
        for k in range(1, depth + 1)
    )
    part2 = tuple(
        tuple(Fact(f"x{r}.{i}", f"y{r}.{i}") for i in range(1, c * capacity + 2))
        for r in range(1, opt + 1)
    )
    universe: list[QuestionId] = [f.question for coll in collections for f in coll]
    universe.extend(f.question for rnd in part2 for f in rnd)

    coords: list[tuple[int, ...] | None] = [None] * n_experts

    def split(lo: int, hi: int, left: int, prefix: tuple[int, ...]) -> None:
        if left == 0:
            for e in range(lo, hi):
                coords[e] = prefix
            return
        size = (hi - lo) // arity
        for g in range(arity):
            glo = lo + g * size
            split(glo, glo + size, left - 1, prefix + (g + 1,))
        # experts in the remainder of this range are thrown out

    split(0, n_experts, depth, ())
    # split refers to itself through its closure; deleting the name breaks
    # that cycle, so the function is freed now rather than by a later run of
    # the cyclic collector.
    del split

    # Question g of the enumeration above has base value g + 1 for everyone;
    # the table's columns follow sorted(universe, key=str).
    floor = len(universe)
    order = sorted(range(floor), key=lambda g: universe[g])
    column = np.empty(floor, dtype=np.int64)
    column[order] = np.arange(floor)
    values = np.empty((n_experts, floor), dtype=np.int64)
    values[:, column] = np.arange(1, floor + 1)
    # The level-k block outranks everything shown earlier: its values sit in
    # the band above the whole base enumeration, rising with k.
    leafed = [e for e in range(n_experts) if coords[e] is not None]
    rows = np.array(leafed)[:, None]
    leaves = np.array([coords[e] for e in leafed], dtype=np.int64)
    ranks = np.arange(capacity)
    for k in range(1, depth + 1):
        starts = (k - 1) * arity * capacity + capacity * (leaves[:, k - 1] - 1)
        values[rows, column[starts[:, None] + ranks]] = floor + (k - 1) * capacity + 1 + ranks

    return LowerBoundInstance(
        c=c,
        n_experts=n_experts,
        capacity=capacity,
        opt=opt,
        depth=depth,
        collections=collections,
        part2_rounds=part2,
        universe=tuple(universe),
        table=ValueTable([universe[g] for g in order], values),
        leaf_coords=tuple(coords),
    )


class LowerBoundAdversary(Adversary):
    """Adaptive driver for a :class:`LowerBoundInstance`.

    Phase 1, per collection: teach all blocks, inspect the learner's stored
    questions, pick the block it mostly dropped (preferring strictly fewer
    than half-capacity stored, lowest index on ties), and evaluate that whole
    block. Phase 2, per round: teach the fresh facts, then evaluate one the
    learner did not store. Selection is asserted, never assumed: if every
    block is well-stored the learner is outside the instance's memory class
    and :class:`PigeonholeError` is raised.
    """

    sequential = True

    def __init__(self, instance: LowerBoundInstance):
        self.instance = instance
        self.chosen_blocks: list[int] = []
        self._view: Container[QuestionId] = frozenset()
        self._gen = self._plan()

    def next_event(self, memory_view) -> Event | None:
        self._view = memory_view
        return next(self._gen, None)

    def surviving_coords(self) -> tuple[int, ...]:
        return tuple(self.chosen_blocks)

    def surviving_experts(self) -> list[int]:
        return self.instance.leaf_members(self.surviving_coords())

    def _select_block(self, k: int) -> int:
        inst = self.instance
        half = inst.capacity // 2
        stored = [
            sum(1 for f in inst.block(k, i) if f.question in self._view)
            for i in range(1, inst.arity + 1)
        ]
        for limit in (half - 1, half):
            for i, count in enumerate(stored, start=1):
                if count <= limit:
                    return i
        raise PigeonholeError(
            f"collection {k}: every block has more than {half} of its "
            f"{inst.capacity} facts stored; the learner holds more than the "
            f"c*M = {inst.c * inst.capacity} facts this instance targets"
        )

    def _select_fresh(self, round_facts: Sequence[Fact]) -> Fact:
        for fact in round_facts:
            if fact.question not in self._view:
                return fact
        raise PigeonholeError(
            f"all {len(round_facts)} fresh facts stored; the learner holds "
            f"more than the c*M = {self.instance.c * self.instance.capacity} "
            "facts this instance targets"
        )

    def _plan(self) -> Iterator[Event]:
        inst = self.instance
        for k in range(1, inst.depth + 1):
            for fact in inst.collections[k - 1]:
                yield teach(fact.question, fact.answer)
            block = self._select_block(k)
            self.chosen_blocks.append(block)
            for fact in inst.block(k, block):
                yield evaluate(fact.question, fact.answer)
        for round_facts in inst.part2_rounds:
            for fact in round_facts:
                yield teach(fact.question, fact.answer)
            target = self._select_fresh(round_facts)
            yield evaluate(target.question, target.answer)
