"""Game-loop driver, bound checking, and file outputs.

``run_game`` wires one adversary, one expert suite, and one learner through
the step protocol:

1. the adversary emits the next event (adaptive adversaries see a
   read-only view of the learner's stored questions);
2. on an evaluate, costs are assessed for the learner and every expert
   against the memories as they stand, and the learner's evaluation phase
   runs against those same memories;
3. every expert is offered the step's fact and updates its memory;
4. the learner's memory phase runs.

Budgets are asserted per step, never silently truncated: a learner holding
more facts than its declared class is a bug and the run dies loudly.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import adversaries as adv
from . import experts as exp
from . import learners as lrn
from .model import (
    EVALUATE,
    Fact,
    GameLedger,
    QuestionId,
    Stream,
    load_stream,
)

AUX_CAP_FACTOR = 8  # auxiliary scalar entries allowed per expert

LEARNER_NAMES = ("mwu", "lazy", "value-lazy", "full-sim", "random-evict")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class BudgetViolationError(RuntimeError):
    """A learner exceeded its declared memory class."""


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n - 1).bit_length()


def ceil_log_3_2(n: int) -> int:
    """Smallest k with (3/2)**k >= n, computed exactly in integers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = 0
    num, den = 1, 1  # (3/2)**k as num/den
    while num < n * den:
        num *= 3
        den *= 2
        k += 1
    return k


def derived_mistake_cap(opt: int | np.ndarray, capacity: int, n_experts: int):
    """Mistake allowance in the safe form: each block of 6M mistakes retires
    a third of the active experts, so a reset cycle spans at most
    ceil(log_{3/2} N) + 1 blocks."""
    return 6 * (opt + capacity) * (ceil_log_3_2(n_experts) + 1)


def literal_mistake_cap(opt: int | np.ndarray, capacity: int, n_experts: int):
    """Mistake allowance in the literal base-2 form (reported, not gating)."""
    return 6 * opt * ceil_log2(n_experts) + 6 * capacity * ceil_log2(n_experts)


@dataclass(frozen=True)
class BoundCheck:
    name: str
    passed: bool
    worst_slack: int
    first_violation: int | None
    gating: bool = True


@dataclass
class BoundReport:
    params: dict
    checks: list[BoundCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.gating)

    def check(self, name: str) -> BoundCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def format_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            where = "" if c.first_violation is None else f" first violation at t={c.first_violation}"
            tag = "" if c.gating else " (report only)"
            lines.append(f"{c.name}: {status} worst slack {c.worst_slack}{where}{tag}")
        return lines


def _trace_check(
    name: str, values: Sequence[int] | np.ndarray, cap: np.ndarray | int, gating: bool = True
) -> BoundCheck:
    # Widened to int64 before any arithmetic; a typed ledger column is read
    # through its buffer, with no Python int per step.
    slack = np.asarray(cap) - np.asarray(values, dtype=np.int64)
    if slack.size == 0:
        return BoundCheck(name, True, 0, None, gating)
    worst = int(slack.min())
    bad = np.flatnonzero(slack < 0)
    first = int(bad[0]) + 1 if bad.size else None
    return BoundCheck(name, first is None, worst, first, gating)


def check_bounds(
    ledger: GameLedger,
    *,
    n_experts: int,
    capacity: int,
    learner: str,
    fact_cap: int,
    question_cap: int,
) -> BoundReport:
    """Evaluate every bound at every prefix of the ledger.

    Memory caps are exact and come from the learner's declared budgets; the
    mistake allowance is checked in its safe form and additionally reported
    in the literal base-2 form.
    """
    report = BoundReport(
        params={
            "learner": learner,
            "N": n_experts,
            "M": capacity,
            "T": len(ledger),
            "fact_cap": fact_cap,
            "question_cap": question_cap,
        }
    )
    report.checks.append(_trace_check("fact_memory", ledger.fact_memory_trace, fact_cap))
    report.checks.append(
        _trace_check("question_memory", ledger.question_memory_trace, question_cap)
    )
    report.checks.append(
        _trace_check("aux_state", ledger.aux_trace, AUX_CAP_FACTOR * n_experts)
    )
    if learner in ("lazy", "value-lazy", "full-sim"):
        L = np.asarray(ledger.learner_trace, dtype=np.int64)
        opt = np.asarray(ledger.opt_trace, dtype=np.int64)
        report.checks.append(
            _trace_check("mistake_derived", L, derived_mistake_cap(opt, capacity, n_experts))
        )
        report.checks.append(
            _trace_check(
                "mistake_literal",
                L,
                literal_mistake_cap(opt, capacity, n_experts),
                gating=False,
            )
        )
    return report


@dataclass
class RunConfig:
    """One game run: learner, adversary, expert suite, and output options."""

    learner: str
    adversary: str | Stream | adv.Adversary
    experts: str | None = None
    capacity: int = 1
    seed: int = 0
    gamma: float = 0.5
    oracle_backing: str = "auto"  # auto | simulation | threshold
    verify_soundness: bool = False
    csv_path: str | None = None
    summary_path: str | None = None

    def __post_init__(self) -> None:
        if self.learner not in LEARNER_NAMES:
            raise ConfigError(
                f"unknown learner {self.learner!r}; choose from {LEARNER_NAMES}"
            )
        if self.capacity < 1:
            raise ConfigError("M must be >= 1")
        if self.oracle_backing not in ("auto", "simulation", "threshold"):
            raise ConfigError("oracle backing must be auto, simulation, or threshold")


# Option keys each spec kind accepts; anything else is rejected.
SPEC_KEYS = {
    "random": ("universe", "T", "teach", "seed"),
    "lowerbound": ("c", "N", "M", "opt"),
    "scripted": ("N",),
    "values": ("N", "universe", "seed"),
}

# Grid keys `sweep` reads, each a RunConfig field.
SWEEP_KEYS = ("learner", "adversary", "experts", "M", "seed", "gamma", "backing")


def _parse_kv(body: str, spec: str, kind: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not body:
        return out
    allowed = SPEC_KEYS[kind]
    for part in body.split(","):
        if "=" not in part:
            raise ConfigError(f"malformed option {part!r} in {spec!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in allowed:
            raise ConfigError(
                f"unknown option {key!r} in {spec!r}; {kind} specs take {', '.join(allowed)}"
            )
        out[key] = value.strip()
    return out


def _int_opt(options: dict[str, str], key: str, spec: str, default: int | None = None) -> int:
    if key not in options:
        if default is None:
            raise ConfigError(f"{spec!r} is missing required option {key}=")
        return default
    try:
        return int(options[key])
    except ValueError:
        raise ConfigError(f"option {key} in {spec!r} must be an integer") from None


def build_adversary(config: RunConfig) -> adv.Adversary:
    spec = config.adversary
    if isinstance(spec, adv.Adversary):
        return spec
    if isinstance(spec, Stream):
        return adv.FixedStreamAdversary(spec)
    if not isinstance(spec, str):
        raise ConfigError(f"unsupported adversary spec {spec!r}")
    kind, _, body = spec.partition(":")
    if kind == "random":
        options = _parse_kv(body, spec, kind)
        universe = _int_opt(options, "universe", spec)
        length = _int_opt(options, "T", spec)
        seed = _int_opt(options, "seed", spec, default=config.seed)
        try:
            teach_fraction = float(options.get("teach", "0.5"))
        except ValueError:
            raise ConfigError(f"option teach in {spec!r} must be a float") from None
        try:
            stream = adv.random_stream(universe, length, teach_fraction, seed)
        except ValueError as err:
            raise ConfigError(f"{spec!r}: {err}") from None
        return adv.FixedStreamAdversary(stream)
    if kind == "lowerbound":
        options = _parse_kv(body, spec, kind)
        c = _int_opt(options, "c", spec)
        n = _int_opt(options, "N", spec)
        m = _int_opt(options, "M", spec)
        opt = _int_opt(options, "opt", spec)
        if m != config.capacity:
            raise ConfigError(
                f"lowerbound M={m} disagrees with the run's M={config.capacity}"
            )
        try:
            instance = adv.build_lower_bound_instance(c, n, m, opt)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        return adv.LowerBoundAdversary(instance)
    if kind == "file":
        try:
            with open(body, encoding="utf-8") as handle:
                stream = load_stream(handle)
        except OSError as err:
            raise ConfigError(f"cannot read stream file {body!r}: {err}") from None
        except ValueError as err:
            raise ConfigError(f"stream file {body!r}: {err}") from None
        return adv.FixedStreamAdversary(stream)
    raise ConfigError(f"unknown adversary spec {spec!r}")


def _value_suite(
    table: exp.ValueTable, capacity: int, backing: str
) -> exp.SimulatedValueSuite | exp.ThresholdValueSuite:
    if backing == "simulation":
        return exp.SimulatedValueSuite(table, capacity)
    return exp.ThresholdValueSuite(table, capacity)


def build_suite(config: RunConfig, adversary: adv.Adversary):
    """Returns (suite, expert_ids, value table or None). A value-based suite
    on either backing holds that same table; a suite file's table covers the
    questions that every expert in it scores."""
    if isinstance(adversary, adv.LowerBoundAdversary):
        if config.experts is not None:
            raise ConfigError("lowerbound adversaries define their own expert suite")
        table = adversary.instance.table
        suite = _value_suite(table, config.capacity, config.oracle_backing)
        return suite, [f"e{i}" for i in range(table.n)], table
    if config.experts is None:
        raise ConfigError("an expert suite is required (file path or scripted:<name>,N=<int>)")
    spec = config.experts
    kind, _, body = spec.partition(":")
    if kind == "scripted":
        name, _, rest = body.partition(",")
        options = _parse_kv(rest, spec, kind)
        n = _int_opt(options, "N", spec)
        try:
            suite = exp.build_scripted_suite(name, n, config.capacity)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if config.oracle_backing == "threshold":
            raise ConfigError("scripted suites have no threshold backing")
        return suite, [f"e{i}" for i in range(n)], None
    if kind == "values":
        options = _parse_kv(body, spec, kind)
        n = _int_opt(options, "N", spec)
        universe = _int_opt(options, "universe", spec)
        seed = _int_opt(options, "seed", spec, default=config.seed + 1)
        if universe < 1:
            raise ConfigError(f"{spec!r}: universe must be >= 1")
        try:
            table = exp.random_value_suite(n, [f"q{i}" for i in range(universe)], seed)
        except ValueError as err:
            raise ConfigError(f"{spec!r}: {err}") from None
        suite = _value_suite(table, config.capacity, config.oracle_backing)
        return suite, [f"e{i}" for i in range(n)], table
    path = body if kind == "file" else spec
    try:
        with open(path, encoding="utf-8") as handle:
            rows_by_id = exp.load_expert_suite(handle)
    except OSError as err:
        raise ConfigError(f"cannot read expert suite {path!r}: {err}") from None
    except ValueError as err:
        raise ConfigError(str(err)) from None
    ids = sorted(rows_by_id)
    try:
        table = exp.ValueTable.from_mappings([rows_by_id[eid] for eid in ids])
    except ValueError as err:
        raise ConfigError(f"expert suite {path!r}: {err}") from None
    return _value_suite(table, config.capacity, config.oracle_backing), ids, table


def build_learner(
    config: RunConfig,
    suite,
    table: exp.ValueTable | None,
    adversary: adv.Adversary,
) -> lrn.Learner:
    name = config.learner
    if name == "mwu":
        try:
            return lrn.MwuLearner(suite, config.capacity, gamma=config.gamma)
        except ValueError as err:
            raise ConfigError(str(err)) from None
    if name == "lazy":
        return lrn.LazyLearner(suite, config.capacity)
    if name == "value-lazy":
        if table is None:
            raise ConfigError("value-lazy requires a value-based expert suite")
        return lrn.ValueLazyLearner(table, config.capacity)
    if name == "full-sim":
        return lrn.FullSimLearner(suite)
    if name == "random-evict":
        budget = config.capacity
        if isinstance(adversary, adv.LowerBoundAdversary):
            budget = adversary.instance.c * config.capacity
        return lrn.RandomEvictLearner(suite.n, config.capacity, budget, seed=config.seed)
    raise ConfigError(f"unknown learner {name!r}")


def _undeclared_question(question: QuestionId, err: KeyError) -> ConfigError:
    # The game loop asks the suite about each question before any learner
    # does, and a suite raises KeyError only for a question it never declared.
    return ConfigError(
        f"stream question {question!r} is outside the expert suite: {err.args[0]}"
    )


def run_game(config: RunConfig) -> tuple[GameLedger, BoundReport]:
    """Play one full game; returns the ledger and the bound report.

    Deterministic given the config (all randomness is seeded). Raises
    :class:`BudgetViolationError` if the learner ever ends a step holding
    more facts or parked questions than its declared class.
    """
    adversary = build_adversary(config)
    # The expert ids stay in build_suite's result for perfbench/tracing.py.
    suite, _, table = build_suite(config, adversary)
    learner = build_learner(config, suite, table, adversary)
    if config.learner == "value-lazy" and not adversary.sequential:
        warnings.warn(
            "value-lazy guarantees assume evaluates only hit previously "
            "taught questions; this adversary is not declared sequential",
            stacklevel=2,
        )

    soundness = config.verify_soundness and isinstance(learner, lrn.ValueLazyLearner)
    if soundness:
        t_bad = tpre_bad = err_bad = None
        # The true cutoffs, refreshed only after an offer that can move one,
        # and tpre_star, their value at the last active-set change (the
        # start, where every cutoff is 0, until the first change).
        tpre_star = true_cutoffs = suite.true_thresholds()
        last_generation = learner.generation

    ledger = GameLedger(suite.n)
    facts: dict[QuestionId, Fact] = {}  # each question's first-bound fact
    memory_view = learner.memory.keys()  # live read-only view for the adversary

    while True:
        event = adversary.next_event(memory_view)
        if event is None:
            break
        question = event.question
        answer = event.answer
        fact = facts.get(question)
        if fact is None:
            if answer is not None:
                fact = facts[question] = Fact(question, answer)
        elif answer is None:
            answer = fact.answer
        elif fact.answer != answer:
            raise ConfigError(
                f"stream rebinds question {question!r}: "
                f"{fact.answer!r} vs {answer!r}"
            )
        violation = False
        if event.kind == EVALUATE:
            try:
                know = suite.knows(question)
            except KeyError as err:
                raise _undeclared_question(question, err) from None
            expert_costs = ~know
            cost = 0 if question in learner.memory else 1
            if answer is None:
                violation = True  # never-taught question: everyone errs, nothing to store
            learner.observe_evaluation(question, know=know)
        else:
            expert_costs = None
            cost = 0
        if fact is not None:
            try:
                changed = suite.offer(fact)
            except KeyError as err:
                raise _undeclared_question(question, err) from None
        else:
            changed = ()
        learner.update_memory(question, answer, changed)
        fact_mem = len(learner.memory)
        question_mem = learner.question_memory_size
        ledger.record_step(
            kind=event.kind,
            question=question,
            cost=cost,
            expert_costs=expert_costs,
            fact_memory=fact_mem,
            question_memory=question_mem,
            aux_state=learner.aux_state_count,
            active_experts=learner.active_count,
        )
        if violation:
            ledger.flag_violation()
        if fact_mem > learner.fact_budget:
            raise BudgetViolationError(
                f"step {len(ledger)}: learner {learner.name} holds {fact_mem} "
                f"facts, beyond its declared budget {learner.fact_budget}"
            )
        if question_mem > learner.question_budget:
            raise BudgetViolationError(
                f"step {len(ledger)}: learner {learner.name} parks {question_mem} "
                f"questions, beyond its declared budget {learner.question_budget}"
            )
        if soundness:
            if learner.generation != last_generation:
                # value-lazy changes its active set only in the evaluation
                # phase, and only offer moves the true cutoffs: until the
                # refresh below, they stand as that phase saw them.
                tpre_star = true_cutoffs
                last_generation = learner.generation
            if changed != ():
                true_cutoffs = suite.true_thresholds()
            if t_bad is None and (learner.threshold_values() > true_cutoffs).any():
                t_bad = len(ledger)
            if tpre_bad is None and (learner.pre_threshold_values() > tpre_star).any():
                tpre_bad = len(ledger)
            if err_bad is None and (learner.errors > ledger.expert_mistakes).any():
                err_bad = len(ledger)

    report = check_bounds(
        ledger,
        n_experts=suite.n,
        capacity=config.capacity,
        learner=config.learner,
        fact_cap=learner.fact_budget,
        question_cap=learner.question_budget,
    )
    if soundness:
        for name, bad in (
            ("threshold_underestimates", t_bad),
            ("pre_threshold_underestimates", tpre_bad),
            ("perceived_errors_underestimate", err_bad),
        ):
            report.checks.append(BoundCheck(name, bad is None, 0, bad))
    return ledger, report


def emit_outputs(ledger: GameLedger, report: BoundReport, config: RunConfig) -> list[str]:
    """Write the CSV trace and/or the summary file; returns the paths written."""
    written: list[str] = []
    if config.csv_path:
        try:
            with open(config.csv_path, "w", encoding="utf-8", newline="\n") as out:
                ledger.to_csv(out)
        except OSError as err:
            raise RuntimeError(f"cannot write CSV to {config.csv_path!r}: {err}") from err
        written.append(config.csv_path)
    if config.summary_path:
        try:
            with open(config.summary_path, "w", encoding="utf-8", newline="\n") as out:
                out.write(format_summary(ledger, report))
        except OSError as err:
            raise RuntimeError(
                f"cannot write summary to {config.summary_path!r}: {err}"
            ) from err
        written.append(config.summary_path)
    return written


def format_summary(ledger: GameLedger, report: BoundReport) -> str:
    params = report.params
    lines = [
        f"learner: {params['learner']}",
        f"N: {params['N']}",
        f"M: {params['M']}",
        f"T: {len(ledger)}",
        f"L: {ledger.learner_mistakes}",
        f"OPT: {ledger.opt}",
        f"max_fact_mem: {ledger.max_fact_memory()}",
        f"max_question_mem: {ledger.max_question_memory()}",
        f"max_aux: {ledger.max_aux_state()}",
        f"bounds_passed: {'yes' if report.passed else 'no'}",
    ]
    if ledger.violations:
        lines.append(f"sequential_violations: {len(ledger.violations)}")
    return "\n".join(lines) + "\n"


def sweep(grid: dict) -> Iterator[tuple[RunConfig, GameLedger, BoundReport]]:
    """Run the cartesian product of a parameter grid, serially and in a
    deterministic order. Grid values may be scalars or lists.

    Every cell's keys and values are checked before the first game. The
    games then run one per step of the returned iterator, so a sweep holds
    one cell's ledger at a time, not the whole grid's."""
    keys = sorted(grid)
    unknown = [k for k in keys if k not in SWEEP_KEYS]
    if unknown:
        raise ConfigError(
            f"unknown grid keys {unknown}; a grid takes {', '.join(SWEEP_KEYS)}"
        )
    lists = [grid[k] if isinstance(grid[k], list) else [grid[k]] for k in keys]
    configs = []
    for combo in itertools.product(*lists):
        options = dict(zip(keys, combo))
        try:
            capacity = int(options.get("M", 1))
            seed = int(options.get("seed", 0))
            gamma = float(options.get("gamma", 0.5))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"grid cell {options}: {err}") from None
        configs.append(
            RunConfig(
                learner=options.get("learner", "lazy"),
                adversary=options.get("adversary", "random:universe=16,T=1000"),
                experts=options.get("experts"),
                capacity=capacity,
                seed=seed,
                gamma=gamma,
                oracle_backing=options.get("backing", "auto"),
            )
        )
    return ((config, *run_game(config)) for config in configs)


def load_grid(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            grid = json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read grid file {path!r}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"grid file {path!r} is not valid JSON: {err}") from None
    if not isinstance(grid, dict):
        raise ConfigError("grid file must hold a JSON object of parameter lists")
    return grid

