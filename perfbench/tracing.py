"""Spans and timers around the calls into each factgame module.

Nothing inside the package changes. ``harness.run_game`` looks up its
builders, ``check_bounds`` and ``GameLedger`` in the harness module at call
time, so patching those names lets the benchmark time set-up and wrap the
methods of every object a game builds.

The traced run records one span (name, start, end, parent span, game id) per
wrapped call into flat arrays and derives each layer's self time from them:
a span's self time is its duration minus the durations of its direct
children. The untraced run only times the three builders.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

from factgame import harness

# Span names: "<layer>.<call>". The builders are timed as the layer whose
# state they construct.
SPANS = (
    "adversaries.build",
    "adversaries.next_event",
    "experts.build",
    "experts.knows",
    "experts.knows_many",
    "experts.offer",
    "experts.count_active",
    "experts.true_thresholds",
    "experts.union_memory",
    "learners.build",
    "learners.observe_evaluation",
    "learners.update_memory",
    "model.record_step",
    "harness.run_game",
    "harness.check_bounds",
    "harness.emit_outputs",
)
LAYERS = ("adversaries", "experts", "learners", "model", "harness")
SUITE_METHODS = ("knows", "knows_many", "offer", "count_active", "true_thresholds", "union_memory")

# Per-layer metrics of one workload pass, with their units, in report order.
LAYER_METRICS = {
    "adversaries.build_s": "s",
    "adversaries.next_event_s": "s",
    "adversaries.next_event_calls": "count",
    "experts.build_s": "s",
    "experts.knows_s": "s",
    "experts.knows_many_s": "s",
    "experts.knows_many_questions": "count",
    "experts.offer_s": "s",
    "experts.offer_calls": "count",
    "experts.count_active_s": "s",
    "experts.count_active_calls": "count",
    "experts.true_thresholds_s": "s",
    "experts.true_thresholds_calls": "count",
    "experts.union_memory_s": "s",
    "learners.build_s": "s",
    "learners.observe_evaluation_s": "s",
    "learners.observe_evaluation_calls": "count",
    "learners.update_memory_s": "s",
    "learners.update_memory_calls": "count",
    "learners.generations": "count",
    "learners.count_active_per_update": "ratio",
    "model.record_step_s": "s",
    "model.record_step_calls": "count",
    "harness.step_loop_self_s": "s",
    "harness.check_bounds_s": "s",
    "harness.emit_outputs_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


@contextlib.contextmanager
def patched(module, **attrs):
    """Set module attributes for the duration of the block."""
    saved = {name: getattr(module, name) for name in attrs}
    for name, value in attrs.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


class SetupTimer:
    """Times the three builders ``run_game`` calls; nothing else."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def _timed(self, fn):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += clock() - start

        return timed

    def installed(self):
        return patched(
            harness,
            build_adversary=self._timed(harness.build_adversary),
            build_suite=self._timed(harness.build_suite),
            build_learner=self._timed(harness.build_learner),
        )


class Tracer:
    """Span recorder for one workload pass."""

    def __init__(self) -> None:
        self._ids = {name: i for i, name in enumerate(SPANS)}
        self.names = array("B")
        self.parents = array("i")
        self.games = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._game = [0]
        self.questions_asked = 0  # summed len(questions) over knows_many calls
        # Per suite backing (scripted, simulation, threshold): offers made, and
        # offers that changed some expert's memory.
        self.offers: dict[str, list[int]] = {}
        self._learners: list = []  # read for their generation after the pass

    def start_game(self, game_id: int) -> None:
        self._game[0] = game_id

    def wrap(self, name: str, fn):
        nid = self._ids[name]
        names, parents, games = self.names, self.parents, self.games
        starts, ends, stack, game = self.starts, self.ends, self._stack, self._game
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            games.append(game[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- instrumentation of the objects run_game builds --------------------

    def _build_adversary(self, fn):
        traced_build = self.wrap("adversaries.build", fn)

        def build(*args, **kwargs):
            adversary = traced_build(*args, **kwargs)
            adversary.next_event = self.wrap("adversaries.next_event", adversary.next_event)
            return adversary

        return build

    def _build_suite(self, fn):
        traced_build = self.wrap("experts.build", fn)

        def build(*args, **kwargs):
            suite, expert_ids, value_functions = traced_build(*args, **kwargs)
            # Wrap before the learner is built: LazyLearner binds
            # suite.count_active at construction. Only existing methods are
            # wrapped, since run_game tests for true_thresholds with hasattr.
            unwrapped_knows = suite.knows
            for method in SUITE_METHODS:
                if hasattr(suite, method):
                    setattr(suite, method, self.wrap(f"experts.{method}", getattr(suite, method)))
            knows_many, offer = suite.knows_many, suite.offer
            counts = self.offers.setdefault(suite.backing, [0, 0])

            def counted_knows_many(questions):
                self.questions_asked += len(questions)
                return knows_many(questions)

            def counted_offer(fact):
                changed = offer(fact)
                # A threshold suite returns None on every first show, whether
                # or not an expert kept the fact. Every expert keeps its
                # top-capacity facts, so some memory changed iff some expert
                # knows the fact now. The unwrapped `knows` records no span.
                if changed is None:
                    moved = bool(unwrapped_knows(fact.question).any())
                else:
                    moved = bool(changed)
                counts[0] += 1
                counts[1] += moved
                return changed

            suite.knows_many, suite.offer = counted_knows_many, counted_offer
            return suite, expert_ids, value_functions

        return build

    def _build_learner(self, fn):
        traced_build = self.wrap("learners.build", fn)

        def build(*args, **kwargs):
            learner = traced_build(*args, **kwargs)
            learner.observe_evaluation = self.wrap(
                "learners.observe_evaluation", learner.observe_evaluation
            )
            learner.update_memory = self.wrap("learners.update_memory", learner.update_memory)
            self._learners.append(learner)
            return learner

        return build

    def installed(self):
        class TracedLedger(harness.GameLedger):
            __slots__ = ()

        TracedLedger.record_step = self.wrap("model.record_step", harness.GameLedger.record_step)
        return patched(
            harness,
            build_adversary=self._build_adversary(harness.build_adversary),
            build_suite=self._build_suite(harness.build_suite),
            build_learner=self._build_learner(harness.build_learner),
            check_bounds=self.wrap("harness.check_bounds", harness.check_bounds),
            GameLedger=TracedLedger,
        )

    # -- derived metrics ----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass, except the tracing overhead."""
        generations = sum(learner.generation for learner in self._learners)
        names = np.frombuffer(self.names, dtype=np.uint8)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        duration = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
        self_time = np.bincount(names, weights=duration - children, minlength=len(SPANS))
        calls = np.bincount(names, minlength=len(SPANS))
        self_s = {name: float(self_time[i]) for i, name in enumerate(SPANS)}
        n_calls = {name: int(calls[i]) for i, name in enumerate(SPANS)}
        if min(self_s.values()) < 0:
            raise RuntimeError(f"negative self time in {self_s}")

        out = {f"{name}_s": self_s[name] for name in SPANS}
        out["harness.step_loop_self_s"] = out.pop("harness.run_game_s")
        for name in ("adversaries.next_event", "experts.offer", "experts.count_active",
                     "experts.true_thresholds", "learners.observe_evaluation",
                     "learners.update_memory", "model.record_step"):
            out[f"{name}_calls"] = n_calls[name]
        out["experts.knows_many_questions"] = self.questions_asked
        out["learners.generations"] = generations
        out["learners.count_active_per_update"] = (
            n_calls["experts.count_active"] / max(1, n_calls["learners.update_memory"])
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in self_s.items() if name.startswith(layer + ".")
            )
        return out

    def save(self, path: str, game_names: list[str]) -> None:
        """Write the recorded spans as one .npz file."""
        np.savez(
            path,
            span_names=np.array(SPANS),
            game_names=np.array(game_names),
            name=np.frombuffer(self.names, dtype=np.uint8),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            game=np.frombuffer(self.games, dtype=np.uint16),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
        )
