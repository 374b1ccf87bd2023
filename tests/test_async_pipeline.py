"""Tests for the async one-step-off pipeline (``repro.pipeline``).

Covers the staleness-window semantics (0 = bit-exact synchronous, W bounds
the version lag and the buffer), the truncated importance-weight numerics,
the weight-publication protocol, race-freedom of the overlapped schedule,
mid-overlap checkpoint recovery, the DF108 soundness checks, and the
analytic overlap model in ``repro.perf.async_pipeline``.
"""

import numpy as np
import pytest

from repro.analysis import DataflowChecker, audit_run
from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data import PromptDataset
from repro.perf.async_pipeline import async_schedule, overlap_speedup
from repro.pipeline import (
    AsyncPipelineDriver,
    BufferFull,
    ExperienceBuffer,
    PipelineConfig,
    staleness_zero_check,
)
from repro.rlhf.core import AlgoType
from repro.rlhf.losses import (
    ppo_policy_loss,
    truncated_importance_weights,
)
from repro.rlhf.trainers import TrainerConfig
from repro.runtime import ModelAssignment, PlacementPlan, build_rlhf_system
from repro.runtime.presets import TINY_LM, disaggregated_ppo, states_equal
from repro.runtime.timeline import build_timeline


def build_system(algo=AlgoType.PPO, **trainer_kwargs):
    """Disaggregated placement: actor alone, scorers on a shared pool.

    The PPO default is :func:`~repro.runtime.presets.disaggregated_ppo`;
    GRPO drops the critic and trainer settings can be overridden.
    """
    if algo is AlgoType.PPO and not trainer_kwargs:
        return disaggregated_ppo()
    actor_par = ParallelConfig(pp=1, tp=2, dp=1)
    scorer_par = ParallelConfig(pp=1, tp=1, dp=1)
    assignments = {
        "actor": ModelAssignment(
            "actor", actor_par, GenParallelConfig.derive(actor_par, 1, 1)
        ),
        "reference": ModelAssignment("scorer", scorer_par),
        "reward": ModelAssignment("scorer", scorer_par),
    }
    if algo is AlgoType.PPO:
        assignments["critic"] = ModelAssignment("scorer", scorer_par)
    plan = PlacementPlan(
        pools={"actor": 2, "scorer": 1}, assignments=assignments
    )
    return build_rlhf_system(
        algo,
        plan,
        TINY_LM,
        cluster_spec=ClusterSpec(n_machines=1, gpus_per_machine=4),
        trainer_config=TrainerConfig(kl_coef=0.01, seed=7, **trainer_kwargs),
        max_new_tokens=6,
        lr=5e-3,
        seed=7,
    )


def dataset():
    return PromptDataset(n_prompts=64, prompt_length=4, vocab_size=16, seed=1)


def histories_equal(ha, hb) -> bool:
    if len(ha) != len(hb):
        return False
    for a, b in zip(ha, hb):
        if set(a) != set(b):
            return False
        for key in a:
            if not np.array_equal(np.asarray(a[key]), np.asarray(b[key])):
                return False
    return True


def controller_trace(system):
    return [(r.group, r.method, r.deps) for r in system.controller.trace]


class TestStalenessZeroBitExact:
    def test_ppo_weights_and_history_match_synchronous(self):
        sync = build_system()
        sync.trainer.train(dataset(), n_iterations=3, batch_size=4)

        system = build_system()
        driver = AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=0)
        )
        history = driver.train(dataset(), n_iterations=3, batch_size=4)

        assert states_equal(sync, system)
        assert histories_equal(sync.trainer.history, history)
        # the same dispatches on the same dataflow edges, record for record
        assert len(controller_trace(sync)) == 21
        assert controller_trace(system) == controller_trace(sync)
        assert driver.max_staleness_seen == 0
        # no pipeline/* keys leak into the on-policy history
        assert all("pipeline/staleness" not in h for h in history)

    def test_grpo_weights_and_history_match_synchronous(self):
        sync = build_system(AlgoType.GRPO, group_size=2)
        sync.trainer.train(dataset(), n_iterations=2, batch_size=2)

        system = build_system(AlgoType.GRPO, group_size=2)
        driver = AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=0)
        )
        history = driver.train(dataset(), n_iterations=2, batch_size=2)

        assert states_equal(sync, system)
        assert histories_equal(sync.trainer.history, history)
        assert controller_trace(system) == controller_trace(sync)

    def test_self_check_returns_trained_sync_system_and_verdict(self):
        sync, bit_exact = staleness_zero_check(build_system, dataset, 2, 4)
        assert bit_exact
        assert len(sync.trainer.history) == 2

    def test_self_check_reports_divergence(self):
        # the second build trains differently, so W=0 cannot match it
        builds = iter([build_system, lambda: build_system(ppo_epochs=2)])
        _, bit_exact = staleness_zero_check(
            lambda: next(builds)(), dataset, 2, 4
        )
        assert not bit_exact


class TestStalenessBounds:
    @pytest.mark.parametrize("window", [0, 1, 3])
    def test_max_staleness_and_buffer_bounded_by_window(self, window):
        system = build_system()
        driver = AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=window)
        )
        n = 5
        driver.train(dataset(), n_iterations=n, batch_size=4)
        assert driver.max_staleness_seen == min(window, n - 1)
        assert driver.buffer.peak_occupancy <= window + 1
        assert len(driver.buffer) == 0  # fully drained at the end
        report = driver.report()
        assert report["iterations"] == n
        assert report["publications"] == n

    def test_stale_iterations_are_tagged_in_history(self):
        system = build_system()
        driver = AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=2)
        )
        history = driver.train(dataset(), n_iterations=4, batch_size=4)
        # iteration 0 is always on-policy; later ones trained at lag min(t, W)
        assert "pipeline/staleness" not in history[0]
        assert history[1]["pipeline/staleness"] == 1
        assert history[2]["pipeline/staleness"] == 2
        assert history[3]["pipeline/staleness"] == 2
        assert history[3]["pipeline/policy_version"] == 1


class TestOverlapSpeedup:
    def test_window_one_beats_synchronous_on_modeled_timeline(self):
        sync = build_system()
        sync.trainer.train(dataset(), n_iterations=3, batch_size=4)
        sync_makespan = build_timeline(sync.controller).makespan

        system = build_system()
        AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=1)
        ).train(dataset(), n_iterations=3, batch_size=4)
        async_makespan = build_timeline(system.controller).makespan

        assert async_makespan < sync_makespan
        # the actor pool's idle bubble collapses under overlap
        sync_tl = build_timeline(sync.controller)
        async_tl = build_timeline(system.controller)
        assert async_tl.idle_fraction("actor") < sync_tl.idle_fraction("actor")


class TestImportanceWeights:
    def test_on_policy_weights_are_all_ones(self):
        logp = np.log(np.full((2, 3), 0.25))
        w = truncated_importance_weights(logp, logp.copy())
        assert np.allclose(w, 1.0)

    def test_truncation_caps_the_ratio(self):
        behaviour = np.full((1, 4), np.log(0.1))
        anchor = np.full((1, 4), np.log(0.9))  # ratio 9 >> clip
        w = truncated_importance_weights(anchor, behaviour, clip=2.0)
        assert np.allclose(w, 2.0)

    def test_masked_positions_get_weight_one(self):
        behaviour = np.full((1, 4), np.log(0.1))
        anchor = np.full((1, 4), np.log(0.9))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        w = truncated_importance_weights(
            anchor, behaviour, clip=5.0, response_mask=mask
        )
        assert np.allclose(w[0, :2], 5.0)
        assert np.allclose(w[0, 2:], 1.0)

    def test_clip_below_one_rejected(self):
        logp = np.zeros((1, 2))
        with pytest.raises(ValueError):
            truncated_importance_weights(logp, logp, clip=0.5)

    def test_ppo_loss_scales_advantages_by_weights(self):
        rng = np.random.default_rng(0)
        shape = (2, 5)
        logp = rng.normal(size=shape) * 0.1
        old = logp + rng.normal(size=shape) * 0.01
        adv = rng.normal(size=shape)
        weights = np.full(shape, 0.5)
        _, m_plain = ppo_policy_loss(logp, old, adv)
        _, m_weighted = ppo_policy_loss(
            logp, old, adv, importance_weights=weights
        )
        _, m_half = ppo_policy_loss(logp, old, adv * 0.5)
        assert m_weighted["iw_mean"] == pytest.approx(0.5)
        assert m_weighted["policy_loss"] == pytest.approx(m_half["policy_loss"])
        assert m_weighted["policy_loss"] != pytest.approx(
            m_plain["policy_loss"]
        )

    def test_stale_batches_carry_iw_metrics_in_history(self):
        system = build_system()
        driver = AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=1)
        )
        history = driver.train(dataset(), n_iterations=3, batch_size=4)
        assert "actor/iw_mean" not in history[0]  # on-policy warm-up
        for h in history[1:]:
            assert h["actor/iw_mean"] > 0.0
            assert h["actor/iw_min"] <= h["actor/iw_mean"]


class TestRaceFreedom:
    def test_overlapped_schedule_is_clean(self):
        system = build_system()
        AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=1)
        ).train(dataset(), n_iterations=3, batch_size=4)
        report = audit_run(system)
        races = [f for f in report.findings if f.rule.startswith("RC")]
        assert races == []
        assert report.ok(strict=True)

    def test_publication_leaves_versioned_access_trail(self):
        system = build_system()
        AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=1)
        ).train(dataset(), n_iterations=2, batch_size=4)
        resources = {
            e.resource for e in system.controller.access_log.events
        }
        assert "pipeline/weights[v1]" in resources
        assert "pipeline/experience[0]" in resources


class TestRecoveryMidOverlap:
    def test_checkpoint_restores_trainer_and_rollout_state(self, tmp_path):
        # drive manually into a mid-overlap state: rollouts 0 and 1 done,
        # iteration 0 trained -> batch 1 still buffered, one step off
        system = build_system()
        driver = AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=1)
        )
        batches = dataset().iter_batches(4, epochs=100)
        driver._rollout(next(batches))
        driver._rollout(next(batches))
        driver._train_one()
        assert len(driver.buffer) == 1
        driver.save_checkpoint(str(tmp_path / "ckpt"))

        restored_sys = build_system()
        restored = AsyncPipelineDriver(
            restored_sys.trainer, PipelineConfig(staleness_window=1)
        )
        restored.load_checkpoint(str(tmp_path / "ckpt"))
        assert restored._next_gen == 2
        assert len(restored.buffer) == 1
        assert restored.publisher.staged_version == 1
        restored.train(dataset(), n_iterations=3, batch_size=4)

        # an uninterrupted run of the same schedule must match bit for bit
        oracle_sys = build_system()
        oracle = AsyncPipelineDriver(
            oracle_sys.trainer, PipelineConfig(staleness_window=1)
        )
        oracle.train(dataset(), n_iterations=4, batch_size=4)
        assert states_equal(oracle_sys, restored_sys)
        # trainer checkpoints persist the history *count*, not the metric
        # dicts (matching RlhfTrainerBase.load_state_dict); every iteration
        # trained after the restore must match the uninterrupted run
        assert len(restored_sys.trainer.history) == 4
        assert histories_equal(
            oracle_sys.trainer.history[1:], restored_sys.trainer.history[1:]
        )


class TestWeightPublisher:
    def test_publish_acquire_protocol(self):
        system = build_system()
        from repro.hybrid_engine import WeightPublisher

        publisher = WeightPublisher(system.groups["actor"])
        assert publisher.acquire() == 0
        publisher.publish(1)
        # staged but not visible until the next generate-call boundary
        assert publisher.active_version == 0
        assert publisher.acquire() == 1
        with pytest.raises(ValueError):
            publisher.publish(1)  # must be monotonically increasing
        assert publisher.bytes_published > 0
        assert publisher.publish_bytes_per_version() > 0

    def test_requires_generation_topology(self):
        system = build_system()
        from repro.hybrid_engine import WeightPublisher

        with pytest.raises(ValueError):
            WeightPublisher(system.groups["critic"])


class TestExperienceBuffer:
    def _batch(self):
        from repro.data.batch import DataBatch

        return DataBatch({"sequences": np.arange(6).reshape(2, 3)})

    def test_capacity_enforced(self):
        buffer = ExperienceBuffer(2)
        buffer.put(0, 0, self._batch())
        buffer.put(1, 0, self._batch())
        with pytest.raises(BufferFull):
            buffer.put(2, 1, self._batch())
        buffer.pop(0)
        buffer.put(2, 1, self._batch())  # freed slot is reusable
        assert buffer.peak_occupancy == 2

    def test_duplicate_and_missing_indices(self):
        buffer = ExperienceBuffer(2)
        buffer.put(0, 0, self._batch())
        with pytest.raises(ValueError):
            buffer.put(0, 0, self._batch())
        with pytest.raises(KeyError):
            buffer.pop(5)

    def test_state_roundtrip_preserves_arrays(self):
        buffer = ExperienceBuffer(3)
        buffer.put(4, 3, self._batch())
        state = buffer.state_dict()
        fresh = ExperienceBuffer(3)
        fresh.load_state_dict(state)
        entry = fresh.pop(4)
        assert entry.version == 3
        assert np.array_equal(
            entry.batch["sequences"], np.arange(6).reshape(2, 3)
        )
        assert entry.batch["sequences"].dtype == np.arange(6).dtype


class TestDataflowRule108:
    def check(self, pipeline_config, trainer_config=None, algo=AlgoType.PPO):
        return DataflowChecker().check_pipeline(
            pipeline_config, trainer_config, algo
        )

    def test_clean_config_has_no_findings(self):
        report = self.check(PipelineConfig(staleness_window=1), TrainerConfig())
        assert report.findings == []

    def test_no_recompute_anchor_is_a_warning(self):
        report = self.check(
            PipelineConfig(staleness_window=1),
            TrainerConfig(recompute_log_probs=False),
        )
        assert [f.severity for f in report.findings] == ["warning"]

    def test_negative_window_is_a_single_error_with_hint(self):
        report = self.check(PipelineConfig(staleness_window=-1))
        assert [f.rule for f in report.findings] == ["DF108"]
        assert report.findings[0].severity == "error"
        assert report.findings[0].hint

    def test_actor_without_generation_plan_is_a_single_error(self):
        from types import SimpleNamespace

        actor = SimpleNamespace(gen_topology=None, workers=())
        report = DataflowChecker().check_pipeline(
            PipelineConfig(staleness_window=1),
            TrainerConfig(),
            AlgoType.PPO,
            actor=actor,
        )
        assert [f.rule for f in report.findings] == ["DF108"]
        assert report.findings[0].severity == "error"
        assert "generation topology" in report.findings[0].message
        assert report.findings[0].hint

    def test_serving_backed_actor_is_a_single_error(self):
        from types import SimpleNamespace

        actor = SimpleNamespace(
            gen_topology=object(),
            workers=(SimpleNamespace(use_serving=True),),
        )
        report = DataflowChecker().check_pipeline(
            PipelineConfig(staleness_window=1),
            TrainerConfig(),
            AlgoType.PPO,
            actor=actor,
        )
        assert [f.rule for f in report.findings] == ["DF108"]
        assert report.findings[0].severity == "error"
        assert "use_serving" in report.findings[0].message
        assert report.findings[0].hint

    def test_driver_refuses_serving_backed_actor(self):
        system = build_system()
        for worker in system.trainer.actor.workers:
            worker.use_serving = True
        with pytest.raises(ValueError, match="DF108"):
            AsyncPipelineDriver(
                system.trainer, PipelineConfig(staleness_window=1)
            )

    def test_driver_refuses_df108_error_config(self):
        system = build_system()
        system.trainer.actor.gen_topology = None
        with pytest.raises(ValueError, match="DF108.*generation topology"):
            AsyncPipelineDriver(
                system.trainer, PipelineConfig(staleness_window=1)
            )

    def test_driver_refuses_unsupported_algo(self):
        system = build_system()
        system.trainer.algo = AlgoType.REMAX
        with pytest.raises(ValueError, match="DF108"):
            AsyncPipelineDriver(system.trainer)


class TestAnalyticOverlapModel:
    def test_window_zero_is_the_synchronous_chain(self):
        sched = async_schedule([6.0] * 4, 3.0, 3.0, staleness_window=0)
        assert sched.makespan == pytest.approx(4 * (6.0 + 3.0 + 3.0))

    def test_window_one_collapses_the_bubble(self):
        assert overlap_speedup([6.0] * 4, 3.0, 3.0, 1) > 1.3

    def test_speedup_never_below_one(self):
        for window in (0, 1, 2, 5):
            assert overlap_speedup([2.0, 3.0, 2.0], 1.0, 1.0, window) >= 1.0

    def test_larger_window_absorbs_generation_jitter(self):
        gen = [2.0, 2.0, 10.0, 2.0, 2.0, 2.0, 2.0, 2.0]
        m = {
            w: async_schedule(gen, 1.0, 3.0, w).makespan for w in (0, 1, 2, 3)
        }
        assert m[0] == pytest.approx(56.0)
        assert m[1] == pytest.approx(40.0)
        assert m[2] == pytest.approx(38.0)  # W=2 hides the slow rollout
        assert m[2] < m[1] < m[0]
        assert m[3] == pytest.approx(m[2])  # diminishing returns

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            async_schedule([], 1.0, 1.0)
        with pytest.raises(ValueError):
            async_schedule([1.0], -1.0, 1.0)
        with pytest.raises(ValueError):
            async_schedule([1.0], 1.0, 1.0, staleness_window=-1)


class TestStreamedScoring:
    def test_stream_on_and_off_train_identical_weights(self):
        plain_sys = build_system()
        AsyncPipelineDriver(
            plain_sys.trainer, PipelineConfig(staleness_window=1)
        ).train(dataset(), n_iterations=3, batch_size=4)

        stream_sys = build_system()
        AsyncPipelineDriver(
            stream_sys.trainer,
            PipelineConfig(staleness_window=1, stream_scoring=True),
        ).train(dataset(), n_iterations=3, batch_size=4)

        assert states_equal(plain_sys, stream_sys)
        assert histories_equal(
            plain_sys.trainer.history, stream_sys.trainer.history
        )
