"""MC6xx bounded protocol model checker: exploration, reduction,
conformance against the real implementations, and the seeded mutation
smoke.

The checker (:mod:`repro.analysis.modelcheck`) explores every small-scope
interleaving of the protocol models in :mod:`repro.analysis.protocols`.
Three properties keep the whole arrangement honest and are each tested
here:

* the intact shipped models explore a five-figure state count with zero
  counterexamples (the CI gate);
* real-implementation traces — the async pipeline driver, the serving
  drain loop, the fleet scheduler — map onto enabled model schedules
  (conformance: the models over-approximate the real behaviours);
* each seeded single-guard mutant yields exactly its expected MC rule,
  and the minimised counterexample replays into an RC501 race or TA205
  ledger violation through the existing dynamic validators.
"""

import numpy as np
import pytest

from repro.analysis import AnalysisReport
from repro.analysis.modelcheck import (
    MC_RULES,
    Counterexample,
    ModelChecker,
    cross_validate,
    seeded_mutants,
    shipped_models,
)
from repro.analysis.protocols import (
    Action,
    AsyncPipelineModel,
    DrainHandoffModel,
    FleetGangModel,
    JobSpec,
    independent,
    replay_schedule,
)
from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data import PromptDataset
from repro.models.tinylm import TinyLM, TinyLMConfig
from repro.pipeline import AsyncPipelineDriver, PipelineConfig
from repro.rlhf.core import AlgoType
from repro.rlhf.trainers import TrainerConfig
from repro.runtime import ModelAssignment, PlacementPlan, build_rlhf_system
from repro.serving import RolloutServer, ServingConfig


def rules_of(result):
    return [ce.rule for ce in result.counterexamples]


def greedy_schedule(model, limit=1000):
    """Drive the model by always taking the first enabled action."""
    state = model.initial_state()
    schedule = []
    while not model.is_terminal(state):
        actions = model.enabled(state)
        assert actions, f"greedy run of {model.name} deadlocked"
        schedule.append(actions[0].name)
        state = model.apply(state, actions[0])
        assert len(schedule) < limit, f"greedy run of {model.name} diverged"
    return schedule, state


# ---------------------------------------------------------------------------
# Action independence (the partial-order reduction's soundness input)
# ---------------------------------------------------------------------------


class TestIndependence:
    def test_same_thread_never_independent(self):
        a = Action(name="x", thread="t", reads=("p",))
        b = Action(name="y", thread="t", reads=("q",))
        assert not independent(a, b)

    def test_disjoint_footprints_commute(self):
        a = Action(name="x", thread="t1", writes=("p",))
        b = Action(name="y", thread="t2", writes=("q",))
        assert independent(a, b)

    def test_write_read_conflict(self):
        a = Action(name="x", thread="t1", writes=("p",))
        b = Action(name="y", thread="t2", reads=("p",))
        assert not independent(a, b)

    def test_control_state_counts_as_footprint(self):
        a = Action(name="x", thread="t1", ctrl_writes=("ptr",))
        b = Action(name="y", thread="t2", ctrl_reads=("ptr",))
        assert not independent(a, b)

    def test_release_sync_ordering_is_a_dependency(self):
        a = Action(name="x", thread="t1", releases=("tok",))
        b = Action(name="y", thread="t2", syncs=("tok",))
        assert not independent(a, b)

    def test_shared_ledger_tag_is_a_dependency(self):
        a = Action(name="x", thread="t1", allocs=(("gpu0", 1),))
        b = Action(name="y", thread="t2", frees=(("gpu0", 1),))
        assert not independent(a, b)


# ---------------------------------------------------------------------------
# Checker mechanics
# ---------------------------------------------------------------------------


class TestCheckerCore:
    def test_intact_pipeline_is_clean(self):
        result = ModelChecker().check_model(
            AsyncPipelineModel(n_iterations=4, window=1)
        )
        assert result.ok
        assert not result.truncated
        assert result.states > 10
        assert result.transitions >= result.states - 1

    def test_reduction_finds_the_same_rules_cheaper(self):
        mutant = lambda: AsyncPipelineModel(  # noqa: E731
            n_iterations=4, window=1, capacity=3, mutate="drop_staleness_guard"
        )
        reduced = ModelChecker(reduce=True).check_model(mutant())
        full = ModelChecker(reduce=False).check_model(mutant())
        assert rules_of(reduced) == rules_of(full) == ["MC603"]
        assert reduced.transitions <= full.transitions

    def test_reduction_keeps_intact_models_clean(self):
        for model in (
            AsyncPipelineModel(n_iterations=4, window=1),
            DrainHandoffModel(targets=(2, 1), slots=2),
        ):
            assert ModelChecker(reduce=False).check_model(model).ok

    def test_shrunk_counterexample_is_shorter_and_still_fails(self):
        make = lambda: AsyncPipelineModel(  # noqa: E731
            n_iterations=4, window=1, capacity=3, mutate="drop_staleness_guard"
        )
        raw = ModelChecker(shrink=False).check_model(make())
        shrunk = ModelChecker(shrink=True).check_model(make())
        (raw_ce,) = raw.counterexamples
        (ce,) = shrunk.counterexamples
        assert len(ce.schedule) <= len(raw_ce.schedule)
        final = make().run_schedule(list(ce.schedule))
        assert "MC603" in [rule for rule, _ in final.viol]
        # minimality in the prefix sense: no strict prefix already fails
        for cut in range(len(ce.schedule)):
            prefix = make().run_schedule(list(ce.schedule[:cut]))
            assert prefix.viol == ()

    def test_state_budget_sets_truncated(self):
        result = ModelChecker(max_states=100).check_model(
            AsyncPipelineModel(n_iterations=12, window=4, capacity=4)
        )
        assert result.truncated
        assert result.states <= 101

    def test_run_schedule_rejects_disabled_steps(self):
        model = AsyncPipelineModel(n_iterations=2, window=1)
        with pytest.raises(ValueError, match="not enabled"):
            model.run_schedule(["train.consume[0]"])

    def test_counterexample_render(self):
        ce = Counterexample("MC603", "m", ("a", "b"), "model")
        assert ce.render() == "a -> b"

    def test_check_all_folds_findings_into_report(self):
        checker = ModelChecker()
        report = checker.check_all(
            [
                AsyncPipelineModel(n_iterations=3, window=1),
                DrainHandoffModel(
                    targets=(2, 1), slots=2, mutate="skip_done_guard"
                ),
            ]
        )
        assert report.checked["mc_models"] == 2
        assert report.checked["mc_states"] > 0
        assert len(checker.last_results) == 2
        (finding,) = report.findings
        assert finding.rule == "MC609"
        assert finding.severity == "error"
        assert finding.location.startswith("model:drain-handoff")
        assert "[schedule:" in finding.message
        assert finding.hint == MC_RULES["MC609"][1]


# ---------------------------------------------------------------------------
# The shipped suite: coverage floor and clean bill of health
# ---------------------------------------------------------------------------


class TestShippedSuite:
    def test_every_shipped_model_is_clean_and_inside_budget(self):
        checker = ModelChecker()
        report = checker.check_all(shipped_models())
        assert report.findings == [], "\n".join(report.summary_lines())
        assert all(not r.truncated for r in checker.last_results)
        assert report.checked["mc_states"] >= 10_000

    def test_intact_terminal_schedules_replay_clean(self):
        for model in (
            AsyncPipelineModel(n_iterations=5, window=1),
            DrainHandoffModel(targets=(2, 1, 2), slots=2),
            FleetGangModel(
                jobs=(JobSpec("a", 1, 2, 2), JobSpec("b", 1, 2, 1)),
                capacity=2,
            ),
        ):
            schedule, final = greedy_schedule(model)
            assert model.state_violations(final) == ()
            assert model.final_violations(final) == ()
            report = cross_validate(model, schedule)
            assert report.findings == [], (
                model.name + "\n" + "\n".join(report.summary_lines())
            )


# ---------------------------------------------------------------------------
# Conformance: real-implementation traces are model behaviours
# ---------------------------------------------------------------------------

CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=32,
    n_heads=4,
    ffn_hidden_size=48,
    vocab_size=16,
    max_seq_len=32,
)

SERVE_CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=16,
    n_heads=2,
    ffn_hidden_size=24,
    vocab_size=13,
    max_seq_len=48,
)


def build_pipeline_system():
    actor_par = ParallelConfig(pp=1, tp=2, dp=1)
    scorer_par = ParallelConfig(pp=1, tp=1, dp=1)
    plan = PlacementPlan(
        pools={"actor": 2, "scorer": 1},
        assignments={
            "actor": ModelAssignment(
                "actor", actor_par, GenParallelConfig.derive(actor_par, 1, 1)
            ),
            "critic": ModelAssignment("scorer", scorer_par),
            "reference": ModelAssignment("scorer", scorer_par),
            "reward": ModelAssignment("scorer", scorer_par),
        },
    )
    return build_rlhf_system(
        AlgoType.PPO,
        plan,
        CFG,
        cluster_spec=ClusterSpec(n_machines=1, gpus_per_machine=4),
        trainer_config=TrainerConfig(kl_coef=0.01, seed=7),
        max_new_tokens=6,
        lr=5e-3,
        seed=7,
    )


class TestRealImplementationConformance:
    def test_async_pipeline_driver_trace_is_a_model_behaviour(self):
        """Every op the real W=1 driver performs maps to an enabled model
        action, and the whole real run is a terminal, violation-free model
        schedule."""
        system = build_pipeline_system()
        driver = AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=1)
        )
        ops = []
        real_acquire = driver.publisher.acquire
        real_publish = driver.publisher.publish
        real_put = driver.buffer.put
        real_pop = driver.buffer.pop

        def acquire():
            ops.append(f"rollout.begin[{driver._next_gen}]")
            return real_acquire()

        def put(index, version, batch):
            ops.append(f"rollout.end[{index}]")
            return real_put(index, version, batch)

        def pop(iteration):
            ops.append(f"train.consume[{iteration}]")
            return real_pop(iteration)

        def publish(version):
            ops.append(f"publish.begin[{version}]")
            ops.append(f"publish.end[{version}]")
            return real_publish(version)

        driver.publisher.acquire = acquire
        driver.publisher.publish = publish
        driver.buffer.put = put
        driver.buffer.pop = pop

        dataset = PromptDataset(
            n_prompts=64, prompt_length=4, vocab_size=16, seed=1
        )
        driver.train(dataset, n_iterations=3, batch_size=4)

        model = AsyncPipelineModel(n_iterations=3, window=1)
        final = model.run_schedule(ops)  # raises if any op is not enabled
        assert model.is_terminal(final)
        assert model.state_violations(final) == ()
        assert model.final_violations(final) == ()
        report = cross_validate(model, ops)
        assert report.findings == [], "\n".join(report.summary_lines())

    def test_serving_drain_trace_is_a_model_behaviour(self):
        """The real continuous-batching drain maps to the drain-hand-off
        model, and on_finish order equals the model's delivered order."""
        targets = (2, 1, 2)
        model_lm = TinyLM(SERVE_CFG, seed=4)
        server = RolloutServer(
            model_lm, ServingConfig(max_slots=2, block_size=4, greedy=True)
        )
        prompt = np.arange(1, 5)
        for budget in targets:
            server.submit(prompt, max_new_tokens=budget)

        def ids(requests):
            return {r.request_id for r in requests}

        schedule = []
        delivered = []
        while server.pending:
            waiting_before = ids(server.scheduler.waiting)
            finished = server.step()
            fin_ids = [c.request_id for c in finished]
            active = ids(server.scheduler.running) | set(fin_ids)
            for r in sorted(waiting_before & active):
                schedule.append(f"admit[{r}]")
            # every occupied slot emits exactly one token per step; order
            # the finishing decodes to match the engine's completion order
            for r in sorted(active - set(fin_ids)):
                schedule.append(f"decode[{r}]")
            for r in fin_ids:
                schedule.append(f"decode[{r}]")
            for r in fin_ids:  # drain() hands finishers off post-step
                schedule.append(f"handoff[{r}]")
                delivered.append(r)

        model = DrainHandoffModel(targets=targets, slots=2)
        final = model.run_schedule(schedule)
        assert model.is_terminal(final)
        assert model.state_violations(final) == ()
        assert model.final_violations(final) == ()
        assert list(final.delivered) == delivered

        # the real drain(on_finish=...) delivers in that same order
        server2 = RolloutServer(
            TinyLM(SERVE_CFG, seed=4),
            ServingConfig(max_slots=2, block_size=4, greedy=True),
        )
        for budget in targets:
            server2.submit(prompt, max_new_tokens=budget)
        order = []
        server2.drain(on_finish=lambda done: order.append(done.request_id))
        assert order == delivered

    def test_fleet_preemption_run_is_a_model_behaviour(
        self, tmp_path, monkeypatch
    ):
        """A real checkpoint-and-evict preemption run maps onto the fleet
        gang model: admission, preemption, steps, and completion are all
        enabled model actions."""
        from repro.fleet import FleetScheduler
        from repro.fleet import JobSpec as FleetJobSpec

        events = []
        arrived = set()

        real_admit = FleetScheduler._admit
        real_admit_one = FleetScheduler._admit_one
        real_preempt = FleetScheduler._preempt
        real_preempt_for = FleetScheduler._preempt_for
        real_step_job = FleetScheduler._step_job
        victim_stack = []

        def admit(self, tick):
            for job in sorted(
                self.jobs, key=lambda j: (j.spec.arrival_tick, j.spec.name)
            ):
                if (
                    0 < job.spec.arrival_tick <= tick
                    and job.spec.name not in arrived
                ):
                    arrived.add(job.spec.name)
                    events.append(f"arrive[{job.spec.name}]")
            return real_admit(self, tick)

        def admit_one(self, job, tick):
            ok = real_admit_one(self, job, tick)
            if ok:
                events.append(f"admit[{job.spec.name}]")
            return ok

        def preempt(self, victim, tick):
            victim_stack[-1].append(victim.spec.name)
            return real_preempt(self, victim, tick)

        def preempt_for(self, waiter, tick):
            victim_stack.append([])
            ok = real_preempt_for(self, waiter, tick)
            victims = victim_stack.pop()
            if victims:
                events.append(
                    f"preempt[{waiter.spec.name}->{','.join(victims)}]"
                )
            return ok

        def step_job(self, job, tick):
            events.append(f"step[{job.spec.name}]")
            return real_step_job(self, job, tick)

        monkeypatch.setattr(FleetScheduler, "_admit", admit)
        monkeypatch.setattr(FleetScheduler, "_admit_one", admit_one)
        monkeypatch.setattr(FleetScheduler, "_preempt", preempt)
        monkeypatch.setattr(FleetScheduler, "_preempt_for", preempt_for)
        monkeypatch.setattr(FleetScheduler, "_step_job", step_job)

        jobs = [
            FleetJobSpec(
                name="a", priority=1, n_iterations=2, seed=7, model_config=CFG
            ),
            FleetJobSpec(
                name="b",
                priority=2,
                n_iterations=1,
                arrival_tick=1,
                seed=11,
                model_config=CFG,
            ),
        ]
        scheduler = FleetScheduler(
            ClusterSpec(n_machines=1, gpus_per_machine=4),
            jobs,
            checkpoint_root=str(tmp_path),
            aging=0.0,
        )
        report = scheduler.run()
        assert report.all_completed
        assert any(e.startswith("preempt[b->") for e in events)

        model = FleetGangModel(
            jobs=(
                JobSpec("a", 1, 1, 2),
                JobSpec("b", 2, 1, 1, arrival=1),
            ),
            capacity=1,
        )
        final = model.run_schedule(events)
        assert model.is_terminal(final)
        assert model.state_violations(final) == ()
        validation = cross_validate(model, events)
        assert validation.findings == [], "\n".join(
            validation.summary_lines()
        )


# ---------------------------------------------------------------------------
# Seeded mutation smoke: one flipped guard -> exactly one MC rule
# ---------------------------------------------------------------------------

#: (model factory args as a ready model, expected rule) beyond the shipped
#: seeded_mutants(), so every MC6xx rule has a mutant witness.
EXTRA_MUTANTS = (
    (
        lambda: AsyncPipelineModel(
            n_iterations=4, window=1, mutate="skip_acquire"
        ),
        "MC606",
    ),
    (
        lambda: FleetGangModel(
            jobs=(JobSpec("a", 1, 2, 1),),
            capacity=2,
            kills=(0,),
            mutate="drop_giveup",
        ),
        "MC601",
    ),
    (
        lambda: FleetGangModel(
            jobs=(JobSpec("a", 1, 2, 2), JobSpec("b", 1, 2, 1)),
            capacity=2,
            mutate="allow_equal_priority_preempt",
        ),
        "MC602",
    ),
    (
        lambda: FleetGangModel(
            jobs=(
                JobSpec("a", 1, 1, 2),
                JobSpec("b", 2, 1, 1, arrival=1),
            ),
            capacity=1,
            mutate="skip_checkpoint_on_preempt",
        ),
        "MC608",
    ),
)


class TestMutationSmoke:
    @pytest.mark.parametrize(
        "model,expected",
        [pytest.param(m, r, id=f"{r}:{m.name}") for m, r in seeded_mutants()],
    )
    def test_seeded_mutant_reports_exactly_its_rule(self, model, expected):
        result = ModelChecker().check_model(model)
        assert rules_of(result) == [expected], rules_of(result)

    @pytest.mark.parametrize(
        "make,expected",
        [pytest.param(m, r, id=r) for m, r in EXTRA_MUTANTS],
    )
    def test_extra_mutants_cover_the_remaining_rules(self, make, expected):
        result = ModelChecker().check_model(make())
        assert rules_of(result) == [expected], rules_of(result)

    def test_every_mc_rule_has_a_mutant_witness(self):
        covered = {rule for _, rule in seeded_mutants()}
        covered |= {rule for _, rule in EXTRA_MUTANTS}
        assert covered == set(MC_RULES)

    @pytest.mark.parametrize(
        "model,expected",
        [pytest.param(m, r, id=f"{r}:{m.name}") for m, r in seeded_mutants()],
    )
    def test_counterexample_replays_into_dynamic_findings(
        self, model, expected
    ):
        """The minimised schedule is flagged by the post-run trace pass
        when replayed — the static and dynamic passes agree."""
        result = ModelChecker().check_model(model)
        ce = result.by_rule()[expected]
        # the schedule reproduces the violation on a fresh model
        final = model.run_schedule(list(ce.schedule))
        witnessed = [rule for rule, _ in final.viol]
        witnessed += [r for r, _ in model.final_violations(final)]
        assert expected in witnessed
        report = cross_validate(model, ce.schedule)
        flagged = {f.rule for f in report.findings}
        assert flagged & {"RC501", "TA205"}, flagged

    def test_replay_emits_records_events_and_ledger(self):
        model, expected = seeded_mutants()[0]
        ce = ModelChecker().check_model(model).by_rule()[expected]
        records, access_events, device = replay_schedule(
            model, list(ce.schedule)
        )
        assert len(records) == len(ce.schedule)
        assert access_events, "data accesses must replay as events"
        assert device.memory.events, "ledger contract must be charged"
        assert all(r.seq == i for i, r in enumerate(records))
