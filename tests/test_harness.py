from __future__ import annotations

import importlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

# The planted wrong eviction below runs checks from these test modules.
import test_acceptance
import test_adversaries
import test_experts
from factgame import harness, invariants
from factgame.adversaries import LowerBoundAdversary
from factgame.cli import main
from factgame.harness import (
    AUX_CAP_FACTOR,
    BudgetViolationError,
    ConfigError,
    RunConfig,
    build_adversary,
    build_suite,
    ceil_log2,
    ceil_log_3_2,
    check_bounds,
    derived_mistake_cap,
    emit_outputs,
    run_game,
    sweep,
)
from factgame.experts import SimulatedValueSuite, ThresholdValueSuite, dump_expert_suite
from factgame.invariants import verify
from factgame.model import CSV_HEADER, TEACH, Fact, GameLedger, Stream, evaluate, teach


def small_stream(*events) -> Stream:
    ok = True
    taught = set()
    for e in events:
        if e.is_evaluate and e.question not in taught:
            ok = False
        taught.add(e.question)
    return Stream(tuple(events), sequential=ok)


def test_ceil_logs() -> None:
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 8, 64, 65)] == [0, 1, 2, 2, 3, 6, 7]
    assert ceil_log_3_2(1) == 0
    assert ceil_log_3_2(2) == 2  # (3/2)^2 = 2.25 is the first power >= 2
    assert ceil_log_3_2(8) == 6
    assert ceil_log_3_2(64) == 11


class TestStepOrdering:
    def test_taught_then_evaluated_scores_zero(self) -> None:
        stream = small_stream(teach("q1", "a1"), evaluate("q1", "a1"))
        for learner in ("mwu", "lazy", "full-sim"):
            config = RunConfig(
                learner=learner,
                adversary=stream,
                experts="scripted:recency,N=2",
                capacity=2,
            )
            ledger, _ = run_game(config)
            assert ledger.costs == [0, 0]

    def test_never_taught_evaluate_charges_everyone(self) -> None:
        stream = Stream((evaluate("q1"), teach("q1", "a1"), evaluate("q1", "a1")))
        config = RunConfig(
            learner="lazy", adversary=stream, experts="scripted:recency,N=2", capacity=1
        )
        ledger, _ = run_game(config)
        assert ledger.costs[0] == 1
        assert list(ledger.expert_mistakes) == [1, 1]
        assert ledger.violations == [1]
        assert ledger.costs[2] == 0  # taught in between

    def test_evaluation_costs_use_pre_step_expert_memories(self) -> None:
        # recency capacity 1: after teaching q1 then q2 the experts hold only
        # q2, so evaluating q1 charges them; the charge must be assessed
        # before this step's own memory update re-offers q1.
        stream = small_stream(
            teach("q1", "a1"), teach("q2", "a2"), evaluate("q1", "a1"), evaluate("q1", "a1")
        )
        config = RunConfig(
            learner="full-sim", adversary=stream, experts="scripted:recency,N=2", capacity=1
        )
        ledger, _ = run_game(config)
        assert list(ledger.expert_mistakes) == [1, 1]  # only the first evaluate
        assert ledger.costs[2] == 1
        assert ledger.costs[3] == 0  # the re-offer restored q1


def test_opt_identical_across_learners_on_fixed_stream() -> None:
    from factgame.adversaries import random_stream

    stream = random_stream(16, 1500, 0.5, seed=21)
    opts = []
    for learner in ("mwu", "lazy", "value-lazy", "full-sim"):
        config = RunConfig(
            learner=learner,
            adversary=stream,
            experts="values:N=5,universe=16,seed=8",
            capacity=2,
        )
        ledger, _ = run_game(config)
        opts.append(list(ledger.opt_trace))
    assert all(o == opts[0] for o in opts[1:])


def test_empty_stream_passes_vacuously() -> None:
    config = RunConfig(
        learner="lazy",
        adversary=Stream(()),
        experts="scripted:recency,N=2",
        capacity=1,
    )
    ledger, report = run_game(config)
    assert len(ledger) == 0
    assert ledger.learner_mistakes == 0
    assert report.passed


class TestCheckBounds:
    def test_injected_violation_is_located(self) -> None:
        ledger = GameLedger(2)
        capacity = 2
        for t in range(10):
            ledger.record_step(
                kind="T",
                question=f"q{t}",
                cost=0,
                expert_costs=None,
                fact_memory=2 * capacity + 1 if t == 6 else capacity,
                question_memory=0,
                aux_state=4,
                active_experts=2,
            )
        report = check_bounds(
            ledger,
            n_experts=2,
            capacity=capacity,
            learner="lazy",
            fact_cap=2 * capacity,
            question_cap=0,
        )
        check = report.check("fact_memory")
        assert not check.passed
        assert check.first_violation == 7  # 1-based step index
        assert not report.passed

    def test_full_sim_mistake_bound_is_trivial(self) -> None:
        config = RunConfig(
            learner="full-sim",
            adversary="random:universe=16,T=2000,teach=0.4,seed=3",
            experts="values:N=4,universe=16,seed=4",
            capacity=2,
        )
        ledger, report = run_game(config)
        assert np.all(
            np.asarray(ledger.learner_trace) <= np.asarray(ledger.opt_trace)
        )
        assert report.check("mistake_derived").passed

    def test_derived_cap_formula(self) -> None:
        assert derived_mistake_cap(0, 4, 8) == 6 * 4 * (6 + 1)
        assert derived_mistake_cap(10, 1, 2) == 6 * 11 * 3

    def test_aux_cap_scales_with_experts(self) -> None:
        config = RunConfig(
            learner="value-lazy",
            adversary="random:universe=16,T=500,teach=0.5,seed=1",
            experts="values:N=4,universe=16,seed=1",
            capacity=2,
        )
        ledger, report = run_game(config)
        assert max(ledger.aux_trace) <= AUX_CAP_FACTOR * 4
        assert report.check("aux_state").passed


def _inflate_cutoffs(learner, suite) -> None:
    learner.threshold_values = lambda: suite.true_thresholds() + 1


def _inflate_pre_cutoffs(learner, suite) -> None:
    learner.pre_threshold_values = lambda: suite.true_thresholds() + 1


def _inflate_errors(learner, suite) -> None:
    learner.errors += 40


# Each soundness check, and a fault that only it must report.
SOUNDNESS_FAULTS = {
    "threshold_underestimates": _inflate_cutoffs,
    "pre_threshold_underestimates": _inflate_pre_cutoffs,
    "perceived_errors_underestimate": _inflate_errors,
}


@pytest.mark.parametrize("failing", list(SOUNDNESS_FAULTS))
def test_soundness_check_reports_an_injected_overestimate(monkeypatch, failing) -> None:
    # From step `inject_at` on, value-lazy overstates one of the three
    # quantities its soundness rests on: its cutoffs or its pre-cutoffs
    # (one above the true cutoffs, which every snapshot of them is at most)
    # or its error counts (by 40, as many as the steps so far). That check
    # must fail there, not raise, and the other two must pass.
    inject_at = 40
    build = harness.build_learner

    def build_overestimating(config, suite, *rest):
        learner = build(config, suite, *rest)
        update = learner.update_memory
        steps = 0

        def update_memory(question, answer, changed):
            nonlocal steps
            update(question, answer, changed)
            steps += 1
            if steps == inject_at:
                SOUNDNESS_FAULTS[failing](learner, suite)

        learner.update_memory = update_memory
        return learner

    monkeypatch.setattr(harness, "build_learner", build_overestimating)
    config = RunConfig(
        learner="value-lazy",
        adversary="random:universe=16,T=100,teach=0.5,seed=2",
        experts="values:N=4,universe=16,seed=3",
        capacity=2,
        verify_soundness=True,
    )
    _, report = run_game(config)
    for name in SOUNDNESS_FAULTS:
        assert report.check(name).passed == (name != failing), name
    assert report.check(failing).first_violation == inject_at
    assert not report.passed
    assert f"{failing}: FAIL worst slack 0 first violation at t={inject_at}" in (
        report.format_lines()
    )


class TestOutputs:
    def test_csv_row_count_and_summary_consistency(self, tmp_path) -> None:
        config = RunConfig(
            learner="lazy",
            adversary="random:universe=8,T=400,teach=0.5,seed=2",
            experts="scripted:first-vs-last,N=4",
            capacity=2,
            csv_path=str(tmp_path / "out.csv"),
            summary_path=str(tmp_path / "out.txt"),
        )
        ledger, report = run_game(config)
        emit_outputs(ledger, report, config)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 400 + 1
        last_l = int(lines[-1].split(",")[4])
        summary = (tmp_path / "out.txt").read_text()
        assert f"L: {last_l}" in summary
        assert f"L: {ledger.learner_mistakes}" in summary

    def test_missing_directory_is_surfaced_with_path(self, tmp_path) -> None:
        config = RunConfig(
            learner="lazy",
            adversary=Stream(()),
            experts="scripted:recency,N=2",
            capacity=1,
            csv_path=str(tmp_path / "nope" / "out.csv"),
        )
        ledger, report = run_game(config)
        with pytest.raises(RuntimeError, match="nope"):
            emit_outputs(ledger, report, config)


class TestConfigErrors:
    def test_unknown_learner(self) -> None:
        with pytest.raises(ConfigError):
            RunConfig(learner="nope", adversary="random:universe=4,T=1")

    def test_value_lazy_requires_value_suite(self) -> None:
        config = RunConfig(
            learner="value-lazy",
            adversary="random:universe=4,T=10",
            experts="scripted:recency,N=2",
            capacity=1,
        )
        with pytest.raises(ConfigError):
            run_game(config)

    def test_lowerbound_owns_its_suite(self) -> None:
        config = RunConfig(
            learner="lazy",
            adversary="lowerbound:c=1,N=4,M=2,opt=0",
            experts="scripted:recency,N=4",
            capacity=2,
        )
        with pytest.raises(ConfigError):
            run_game(config)

    def test_lowerbound_capacity_mismatch(self) -> None:
        config = RunConfig(
            learner="lazy", adversary="lowerbound:c=1,N=4,M=2,opt=0", capacity=3
        )
        with pytest.raises(ConfigError):
            build_adversary(config)

    def test_malformed_specs(self) -> None:
        for spec in ("random:universe=x,T=10", "random:universe=4", "mystery:a=1"):
            with pytest.raises(ConfigError):
                build_adversary(RunConfig(learner="lazy", adversary=spec))
        with pytest.raises(ConfigError):
            run_game(RunConfig(learner="lazy", adversary="random:universe=4,T=4"))

    @pytest.mark.parametrize(
        "field,spec",
        [
            ("adversary", "random:universe=8,T=10,teach=0.5,length=9"),
            ("adversary", "lowerbound:c=1,N=4,M=2,opt=0,depth=3"),
            ("experts", "scripted:recency,N=4,M=2"),
            ("experts", "values:N=4,universe=8,backing=x"),
        ],
    )
    def test_unknown_spec_keys(self, field, spec) -> None:
        options = {"adversary": "random:universe=8,T=10", "experts": None, field: spec}
        config = RunConfig(learner="lazy", capacity=2, **options)
        with pytest.raises(ConfigError, match="unknown option"):
            build_suite(config, build_adversary(config))

    def test_value_panel_without_a_question(self, tmp_path) -> None:
        disjoint = tmp_path / "disjoint.suite"
        disjoint.write_text("expert e0 value q0 1\nexpert e1 value q1 1\n")
        for experts, message in (
            ("values:N=3,universe=0", "universe must be >= 1"),
            (str(disjoint), "no question is scored by every expert"),
        ):
            config = RunConfig(learner="lazy", adversary="random:universe=2,T=10", experts=experts)
            with pytest.raises(ConfigError, match=message):
                build_suite(config, build_adversary(config))

    def test_missing_files(self, tmp_path) -> None:
        with pytest.raises(ConfigError):
            build_adversary(
                RunConfig(learner="lazy", adversary=f"file:{tmp_path}/absent.txt")
            )
        config = RunConfig(
            learner="lazy",
            adversary="random:universe=4,T=4",
            experts=str(tmp_path / "absent.suite"),
        )
        with pytest.raises(ConfigError):
            run_game(config)


def test_expert_suite_file_run(tmp_path) -> None:
    suite_path = tmp_path / "panel.suite"
    lines = []
    for e in range(3):
        for q in range(6):
            lines.append(f"expert e{e} value q{q} {((q + 2 * e) % 6) + 1 + 10 * 0}\n")
    suite_path.write_text("".join(lines))
    stream_path = tmp_path / "stream.txt"
    stream_path.write_text("T q0 x\nT q1 y\nE q0\nE q1\n")
    config = RunConfig(
        learner="lazy",
        adversary=f"file:{stream_path}",
        experts=str(suite_path),
        capacity=2,
        oracle_backing="simulation",
    )
    ledger, report = run_game(config)
    assert len(ledger) == 4
    assert report.passed


def test_ragged_suite_file_plays_its_shared_questions(tmp_path, capsys) -> None:
    # Four experts share q0..q7; expert e scores e further questions of its
    # own. The panel is the table over the shared questions, on either
    # backing and for value-lazy.
    rng = random.Random(4)
    panel = {}
    for e in range(4):
        questions = [f"q{i}" for i in range(8)] + [f"x{e}.{k}" for k in range(e)]
        panel[f"e{e}"] = dict(zip(questions, rng.sample(range(1, 100), len(questions))))
    suite_path = tmp_path / "ragged.suite"
    with open(suite_path, "w", encoding="utf-8") as out:
        dump_expert_suite(panel, out)
    run = ["run", "--experts", str(suite_path), "--M", "2"]
    shared = ["--adversary", "random:universe=8,T=300,seed=5"]
    for learner in ("lazy", "mwu", "full-sim"):
        outputs = []
        for backing in ("simulation", "threshold"):
            csv, summary = tmp_path / f"{backing}.csv", tmp_path / f"{backing}.txt"
            argv = ["--learner", learner, "--backing", backing, "--csv", str(csv),
                    "--summary", str(summary)]
            assert main([*run, *shared, *argv]) == 0
            outputs.append((csv.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1], learner
    capsys.readouterr()
    assert main([*run, *shared, "--learner", "value-lazy", "--check-bounds"]) == 0
    out = capsys.readouterr().out
    assert "bounds_passed: yes" in out
    assert "threshold_underestimates: PASS" in out
    outside = ["--adversary", "random:universe=9,T=300,seed=5", "--learner", "lazy"]
    assert main([*run, *outside]) == 2
    assert "stream question 'q8' is outside the expert suite" in capsys.readouterr().err


def test_stream_file_rebinding_a_question_is_a_config_error(tmp_path, capsys) -> None:
    stream_path = tmp_path / "stream.txt"
    stream_path.write_text("T q1 a1\nT q1 b\n")
    options = dict(learner="lazy", adversary=f"file:{stream_path}", experts="scripted:recency,N=2")
    with pytest.raises(ConfigError, match="rebinds question 'q1'"):
        run_game(RunConfig(capacity=2, **options))
    argv = ["run", "--M", "2"]
    for key, value in options.items():
        argv += [f"--{key}", value]
    assert main(argv) == 2
    assert "rebinds question" in capsys.readouterr().err


def test_every_offer_of_a_question_passes_its_first_bound_fact(tmp_path, monkeypatch) -> None:
    stream_path = tmp_path / "stream.txt"
    stream_path.write_text("T q1 a1\nE q1\nT q2 a2\nT q1 a1\nE q2\n")
    offered: dict[str, list[Fact]] = {}
    build = harness.build_suite

    def recording(config, adversary):
        suite, ids, table = build(config, adversary)
        offer = suite.offer

        def record(fact):
            offered.setdefault(fact.question, []).append(fact)
            return offer(fact)

        suite.offer = record
        return suite, ids, table

    monkeypatch.setattr(harness, "build_suite", recording)
    config = RunConfig(
        learner="lazy", adversary=f"file:{stream_path}", experts="scripted:recency,N=2", capacity=2
    )
    run_game(config)
    # An evaluate read from a file carries no answer: it offers the taught fact.
    assert {q: len(facts) for q, facts in offered.items()} == {"q1": 3, "q2": 2}
    for q, facts in offered.items():
        assert facts[0] == Fact(q, "a" + q[1:])
        assert all(f is facts[0] for f in facts)


class TestCli:
    def test_run_and_outputs(self, tmp_path, capsys) -> None:
        code = main(
            [
                "run",
                "--learner",
                "lazy",
                "--adversary",
                "random:universe=16,T=500,teach=0.5,seed=7",
                "--experts",
                "scripted:striped,N=4",
                "--M",
                "2",
                "--seed",
                "7",
                "--csv",
                str(tmp_path / "t.csv"),
                "--summary",
                str(tmp_path / "t.txt"),
                "--check-bounds",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bounds_passed: yes" in out
        assert (tmp_path / "t.csv").exists()
        assert (tmp_path / "t.txt").exists()

    def test_config_error_exit_code(self, capsys) -> None:
        assert main(["run", "--learner", "lazy", "--adversary", "bogus:spec", "--M", "1"]) == 2
        assert main(["run", "--learner", "lazy", "--M", "1"]) == 2  # argparse error

    def test_bad_inputs_exit_2(self, tmp_path, capsys) -> None:
        bad_stream = tmp_path / "bad.stream"
        bad_stream.write_text("T q0 a0\nX q1\n")
        ragged = tmp_path / "ragged.suite"
        ragged.write_text("expert e0 value q0 1\nexpert e0 value q1 2\nexpert e1 value q0 3\n")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"experts": "scripted:recency,N=2", "M": "two"}))
        scripted = ["--experts", "scripted:recency,N=2", "--M", "1"]
        cases = {
            "teach_fraction": ["--learner", "lazy", "--adversary", "random:universe=4,T=9,teach=2"],
            "universe_size": ["--learner", "lazy", "--adversary", "random:universe=0,T=9"],
            "length must be >= 0": ["--learner", "lazy", "--adversary", "random:universe=4,T=-5"],
            "malformed event": ["--learner", "lazy", "--adversary", f"file:{bad_stream}"],
            "gamma": ["--learner", "mwu", "--gamma", "1.5", "--adversary", "random:universe=4,T=9"],
        }
        for message, argv in cases.items():
            assert main(["run", *argv, *scripted]) == 2, message
            assert message in capsys.readouterr().err
        outside = ["--adversary", "random:universe=2,T=20,seed=1", "--experts", str(ragged)]
        assert main(["run", "--learner", "lazy", "--M", "1", *outside]) == 2
        assert "stream question 'q1' is outside the expert suite" in capsys.readouterr().err
        assert main(["sweep", "--grid", str(grid)]) == 2
        assert "two" in capsys.readouterr().err

    def test_internal_error_is_not_a_config_error(self, monkeypatch, capsys) -> None:
        def broken(self, question, answer, changed):
            raise KeyError("internal")

        monkeypatch.setattr(harness.lrn.LazyLearner, "update_memory", broken)
        argv = ["run", "--learner", "lazy", "--adversary", "random:universe=4,T=9", "--M", "1"]
        with pytest.raises(KeyError, match="internal"):
            main([*argv, "--experts", "scripted:recency,N=2"])
        assert "config error" not in capsys.readouterr().err

    def test_invariant_failure_exit_code(self, capsys) -> None:
        # the 2M-memory learner overfills the c=1 instance: the pigeonhole
        # selection must fail loudly, not silently weaken
        code = main(
            [
                "run",
                "--learner",
                "lazy",
                "--adversary",
                "lowerbound:c=1,N=4,M=2,opt=0",
                "--M",
                "2",
            ]
        )
        assert code == 1
        assert "invariant failure" in capsys.readouterr().err

    def test_verify_quick(self, capsys) -> None:
        assert main(["verify", "--quick", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_sweep(self, tmp_path, capsys) -> None:
        grid = {
            "learner": ["lazy"],
            "adversary": ["random:universe=8,T=300,teach=0.5"],
            "experts": ["scripted:recency,N=2", "scripted:striped,N=4"],
            "M": [1, 2],
            "seed": [0, 1],
        }
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        assert main(["sweep", "--grid", str(grid_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8


class TestSweep:
    def test_unknown_grid_key_rejected(self) -> None:
        with pytest.raises(ConfigError, match="oracle_backing"):
            sweep({"learner": "lazy", "oracle_backing": ["threshold"]})

    def test_gamma_and_backing_reach_the_run(self) -> None:
        grid = {
            "learner": "mwu",
            "adversary": "random:universe=12,T=400,teach=0.5,seed=4",
            "experts": "values:N=6,universe=12,seed=5",
            "M": 2,
            "gamma": [0.1, 0.9],
            "backing": ["simulation", "threshold"],
        }
        results = sweep(grid)
        runs = {(c.gamma, c.oracle_backing): ledger for c, ledger, _ in results}
        assert sorted(runs) == [
            (0.1, "simulation"), (0.1, "threshold"), (0.9, "simulation"), (0.9, "threshold")
        ]
        for gamma in (0.1, 0.9):
            assert runs[gamma, "simulation"].costs == runs[gamma, "threshold"].costs
        assert runs[0.1, "threshold"].costs != runs[0.9, "threshold"].costs
        with pytest.raises(ConfigError, match="threshold"):
            sweep({"experts": "scripted:recency,N=2", "backing": "threshold"})


def test_verify_battery_full() -> None:
    ok, lines = verify(seed=1, quick=True)
    assert ok, "\n".join(lines)


def _scan_against_whole_stream(events):
    taught = {e.question for e in events if e.kind == TEACH}
    for i, event in enumerate(events):
        if event.is_evaluate and event.question not in taught:
            return False, i
    return True, None


_threshold_knows_many = ThresholdValueSuite.knows_many
_build_learner = harness.build_learner


def _knows_many_flipping_expert_0(self, questions):
    out = _threshold_knows_many(self, questions)
    out[:, 0] = ~out[:, 0]
    return out


def _build_lazy_declaring_4m(config, *rest):
    learner = _build_learner(config, *rest)
    if config.learner == "lazy":
        learner.fact_budget = 4 * config.capacity
    return learner


def _declaring(budget: str, size: int):
    """A ``build_learner`` whose learner declares ``budget`` to be ``size``."""

    def build(config, *rest):
        learner = _build_learner(config, *rest)
        setattr(learner, budget, size)
        return learner

    return build


@pytest.mark.parametrize(
    "learner,budget,trace",
    [("lazy", "fact_budget", "fact_memory_trace"),
     ("value-lazy", "question_budget", "question_memory_trace")],
)
def test_budget_check_fires_one_below_the_peak(monkeypatch, learner, budget, trace) -> None:
    # A game whose largest memory equals the declared budget passes; one
    # less stops it at the first step that reaches that peak.
    config = RunConfig(
        learner=learner,
        adversary="random:universe=16,T=400,teach=0.5,seed=3",
        experts="values:N=4,universe=16,seed=1",
        capacity=2,
    )
    sizes = getattr(run_game(config)[0], trace)
    peak = max(sizes)
    assert peak > 0
    monkeypatch.setattr(harness, "build_learner", _declaring(budget, peak))
    assert run_game(config)[1].passed
    monkeypatch.setattr(harness, "build_learner", _declaring(budget, peak - 1))
    with pytest.raises(BudgetViolationError, match=rf"^step {sizes.index(peak) + 1}: "):
        run_game(config)


_simulated_offer = SimulatedValueSuite.offer


def _select_best_stored_block(self, k):
    stored = [
        sum(f.question in self._view for f in self.instance.block(k, i))
        for i in range(1, self.instance.arity + 1)
    ]
    return 1 + stored.index(max(stored))


def _offer_never_admitting_to_a_full_memory(self, fact):
    # Each full memory is put back as it stood, so only under-full experts
    # store anything; the returned tuple is the correct offer's.
    full = [
        (e, dict(memory), self._weakest[e], self._cutoffs[e])
        for e, memory in enumerate(self._memory)
        if len(memory) >= self.capacity
    ]
    changed = _simulated_offer(self, fact)
    for e, memory, weakest, cutoff in full:
        self._memory[e], self._weakest[e], self._cutoffs[e] = memory, weakest, cutoff
    return changed


def _offer_leaving_first_fill_cutoffs_unwritten(self, fact):
    # A memory that fills on this offer keeps the cutoff 0 it had under
    # capacity, so later first shows visit it whatever their value.
    filling = [e for e, memory in enumerate(self._memory) if len(memory) == self.capacity - 1]
    changed = _simulated_offer(self, fact)
    for e in filling:
        if len(self._memory[e]) == self.capacity:
            self._cutoffs[e] = 0
    return changed


def _offer_hiding_evictions(self, fact):
    return tuple(q for q in _simulated_offer(self, fact) if q == fact.question)


_threshold_offer = ThresholdValueSuite.offer


def _threshold_offer_hiding_evictions(self, fact):
    return tuple(q for q in _threshold_offer(self, fact) if q == fact.question)


# One fault per case, each planted where only one checker reads it unless
# ALSO_FAILS names the others; a case named "<entry>/<what>" is a further
# fault for that same `verify` entry.
VERIFY_FAULTS = {
    # teaches later in the stream count as earlier ones
    "sequential-scan": (invariants, "validate_sequential", _scan_against_whole_stream),
    # a full memory never admits a higher-valued newcomer
    "value-expert-replay": (SimulatedValueSuite, "offer", _offer_never_admitting_to_a_full_memory),
    # the first-show filter reads a cutoff never written when a memory filled
    "value-expert-replay/first-fill-cutoff": (
        SimulatedValueSuite, "offer", _offer_leaving_first_fill_cutoffs_unwritten,
    ),
    "oracle-backings": (ThresholdValueSuite, "knows_many", _knows_many_flipping_expert_0),
    # offer moves the memories right but reports only the newcomer
    "oracle-backings/hidden-eviction": (SimulatedValueSuite, "offer", _offer_hiding_evictions),
    "oracle-backings/threshold-hidden-eviction": (
        ThresholdValueSuite, "offer", _threshold_offer_hiding_evictions,
    ),
    # every fact some expert stores is kept, not only majority-backed ones
    "majority-memory-cap": (
        invariants,
        "majority_kept_count",
        lambda weights, stores, n_facts: len(set().union(*stores)),
    ),
    # lazy declares 4M facts where its memory class is 2M
    "lower-bound": (harness, "build_learner", _build_lazy_declaring_4m),
    # the adversary evaluates the block the learner stored best
    "lower-bound/best-block": (LowerBoundAdversary, "_select_block", _select_best_stored_block),
}


# The further `verify` lines a fault fails where another checker reads it too.
ALSO_FAILS = {
    # the oracle-backings check plays the simulation against the threshold
    # backing, which still admits the newcomer
    "value-expert-replay": ["oracle-backings"],
    "value-expert-replay/first-fill-cutoff": ["oracle-backings"],
    # run-bounds and lower-bound play lazy on the threshold backing: with
    # evictions hidden it keeps facts no expert holds, until run_game stops it
    # at its fact budget
    "oracle-backings/threshold-hidden-eviction": ["run-bounds", "lower-bound"],
}


@pytest.mark.parametrize("entry", list(VERIFY_FAULTS))
def test_verify_reports_each_injected_fault(monkeypatch, entry) -> None:
    target, name, fault = VERIFY_FAULTS[entry]
    monkeypatch.setattr(target, name, fault)
    ok, lines = verify(seed=0, quick=True)
    assert not ok
    expected = [entry.split("/")[0], *ALSO_FAILS.get(entry, [])]
    assert [line.split(":")[0] for line in lines if not line.startswith("PASS")] == [
        f"FAIL {check}" for check in expected
    ], "\n".join(lines)


# Every check that plays the simulation backing's top-M rule, each of which
# must catch a wrong eviction there.
WRONG_EVICTION_CATCHERS = {
    "criterion 5": test_acceptance.test_criterion_5_oracle_equivalence,
    "criterion 8": test_acceptance.test_criterion_8_value_expert_semantics,
    "suite vs per-expert reference": lambda: (
        test_experts.test_simulated_suite_matches_the_per_expert_reference.hypothesis.inner_test(
            n=2, m=1, size=4, picks=[0, 1, 2, 3], seed=0
        )
    ),
    "offers name what moved": (
        test_experts.test_value_offers_name_the_newcomer_then_each_evictee_in_expert_order
    ),
    "lower-bound blocks": lambda: (
        test_adversaries.TestLowerBoundInstance()
        .test_expert_holds_exactly_its_block_after_each_collection()
    ),
}


@pytest.mark.parametrize("check", list(WRONG_EVICTION_CATCHERS))
def test_wrong_eviction_is_caught(monkeypatch, check) -> None:
    monkeypatch.setattr(SimulatedValueSuite, "offer", _offer_never_admitting_to_a_full_memory)
    with pytest.raises(AssertionError):
        WRONG_EVICTION_CATCHERS[check]()


def test_unwritten_first_fill_cutoff_is_caught_by_the_reference(monkeypatch) -> None:
    monkeypatch.setattr(SimulatedValueSuite, "offer", _offer_leaving_first_fill_cutoffs_unwritten)
    with pytest.raises(AssertionError):
        test_experts.test_simulated_suite_matches_the_per_expert_reference.hypothesis.inner_test(
            n=2, m=2, size=6, picks=[0, 1, 2, 3, 4, 5], seed=0
        )


# What perfbench/ patches from outside the package, by name: the three
# builders run_game looks up at call time and the methods it wraps on what
# they build. A scripted suite has no cutoffs, so no true_thresholds; the
# benchmark wraps only the methods a suite has.
BENCHMARK_SUITE_METHODS = ("knows", "knows_many", "offer", "count_active")
BENCHMARK_LEDGER_KEYWORDS = (
    "kind", "question", "cost", "expert_costs", "fact_memory", "question_memory",
    "aux_state", "active_experts",
)


@pytest.mark.parametrize(
    "experts,backing",
    [("scripted:striped,N=4", "auto"), ("values:N=4,universe=8", "simulation"),
     ("values:N=4,universe=8", "threshold"), (None, "simulation"), (None, "threshold")],
)
def test_benchmark_hooks_keep_their_names_and_shapes(monkeypatch, experts, backing) -> None:
    adversary_spec = (
        "random:universe=8,T=40,seed=2" if experts else "lowerbound:c=2,N=4,M=2,opt=1"
    )
    built = {"adversary": 0, "suite": 0, "learner": 0}

    def counting(kind, build):
        def wrapped(*args, **kwargs):
            built[kind] += 1
            return build(*args, **kwargs)

        return wrapped

    scripted = backing == "auto"
    for learner in harness.LEARNER_NAMES:
        if learner == "value-lazy" and scripted:
            continue
        config = RunConfig(
            learner=learner, adversary=adversary_spec, experts=experts,
            capacity=2, oracle_backing=backing,
        )
        adversary = harness.build_adversary(config)
        assert callable(adversary.next_event)
        result = harness.build_suite(config, adversary)
        assert isinstance(result, tuple) and len(result) == 3
        suite, _, table = result
        assert suite.backing in ("scripted", "simulation", "threshold")
        methods = BENCHMARK_SUITE_METHODS + (() if scripted else ("true_thresholds",))
        for method in methods:
            assert callable(getattr(suite, method)), method
        built_learner = harness.build_learner(config, suite, table, adversary)
        for method in ("observe_evaluation", "update_memory"):
            assert callable(getattr(built_learner, method)), method
        assert isinstance(built_learner.generation, int)
    for kind in built:
        monkeypatch.setattr(harness, f"build_{kind}", counting(kind, getattr(harness, f"build_{kind}")))
    run_game(config)
    assert built == {"adversary": 1, "suite": 1, "learner": 1}
    ledger = harness.GameLedger(2)
    ledger.record_step(**dict.fromkeys(BENCHMARK_LEDGER_KEYWORDS, 0) | {"expert_costs": None})
    assert len(ledger) == 1


@pytest.mark.parametrize(
    "experts,backing,learner",
    [("scripted:striped,N=4", "auto", "lazy"), ("values:N=4,universe=8", "simulation", "mwu"),
     ("values:N=4,universe=8", "threshold", "full-sim")],
)
def test_benchmark_tracer_records_a_game(monkeypatch, experts, backing, learner) -> None:
    # The benchmark's traced path, run against the package as it is: the
    # tracer module is imported from perfbench/ and not modified.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    config = RunConfig(
        learner=learner, adversary="random:universe=8,T=40,seed=2", experts=experts,
        capacity=2, oracle_backing=backing,
    )
    with tracer.installed():
        ledger, report = run_game(config)
    assert report.passed
    metrics = tracer.layer_metrics()
    assert metrics["experts.offer_calls"] == len(ledger)
    assert metrics["learners.update_memory_calls"] == len(ledger)
    assert metrics["experts.offer_s"] > 0
    assert metrics["learners.update_memory_s"] > 0
    assert metrics["experts.union_memory_s"] == 0
    assert set(metrics) == set(tracing.LAYER_METRICS) - {"trace.overhead_s"}


def test_value_lazy_warns_on_nonsequential_adversary() -> None:
    import warnings as _warnings

    stream = Stream((evaluate("q1"), teach("q1", "a1")), sequential=False)
    config = RunConfig(
        learner="value-lazy",
        adversary=stream,
        experts="values:N=2,universe=4,seed=1",
        capacity=1,
    )
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        run_game(config)
    assert any("sequential" in str(w.message) for w in caught)
