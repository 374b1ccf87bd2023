"""Tests for placement plans and the system builder."""

import pytest

from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data.dataset import SyntheticPreferenceTask
from repro.parallel.topology import GenGroupingMode
from repro.rlhf.core import AlgoType
from repro.runtime import ModelAssignment, PlacementPlan, build_rlhf_system
from repro.runtime.presets import TINY_LM, tiny_plan
from repro.runtime.builder import required_models

PAR = ParallelConfig(pp=1, tp=2, dp=1)
GEN = GenParallelConfig.derive(PAR, 1, 1)
PPO_MODELS = ["actor", "critic", "reference", "reward"]


class TestPlacementPlan:
    def test_colocate_constructor(self):
        plan = PlacementPlan.colocate(PPO_MODELS, 2, {m: PAR for m in PPO_MODELS}, GEN)
        assert plan.total_gpus == 2
        assert plan.colocated_models("shared") == PPO_MODELS
        assert plan.assignments["actor"].gen_parallel is GEN
        assert plan.assignments["critic"].gen_parallel is None

    def test_standalone_constructor(self):
        plan = PlacementPlan.standalone(
            {m: 2 for m in PPO_MODELS}, {m: PAR for m in PPO_MODELS}, GEN
        )
        assert plan.total_gpus == 8
        assert len(plan.pools) == 4

    def test_split_constructor(self):
        plan = PlacementPlan.split(
            ["actor", "reference"],
            ["critic", "reward"],
            2,
            2,
            {m: PAR for m in PPO_MODELS},
            GEN,
        )
        assert plan.pool_of("actor") == "actor_side"
        assert plan.pool_of("reward") == "critic_side"

    def test_unknown_pool_rejected(self):
        with pytest.raises(ValueError, match="unknown pool"):
            PlacementPlan(
                pools={"a": 2},
                assignments={"actor": ModelAssignment("b", PAR, GEN)},
            )

    def test_world_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="GPUs"):
            PlacementPlan(
                pools={"a": 4},
                assignments={"actor": ModelAssignment("a", PAR, GEN)},
            )

    def test_inconsistent_gen_parallel_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            ModelAssignment("a", PAR, GenParallelConfig(pp=1, tp=2, micro_dp=4))


class TestBuilder:
    def plan(self):
        return PlacementPlan.colocate(PPO_MODELS, 2, {m: PAR for m in PPO_MODELS}, GEN)

    def test_required_models_per_algo(self):
        assert required_models(AlgoType.PPO) == ("actor", "critic", "reference", "reward")
        assert "critic" not in required_models(AlgoType.REMAX)
        assert "cost" in required_models(AlgoType.SAFE_RLHF)

    def test_builds_groups_and_trainer(self):
        system = build_rlhf_system(AlgoType.PPO, self.plan(), TINY_LM)
        assert set(system.groups) == set(PPO_MODELS)
        assert system.group("actor").gen_topology is not None
        assert system.trainer.actor is system.groups["actor"]

    def test_missing_assignment_rejected(self):
        plan = PlacementPlan(
            pools={"a": 2},
            assignments={"actor": ModelAssignment("a", PAR, GEN)},
        )
        with pytest.raises(ValueError, match="lacks assignments"):
            build_rlhf_system(AlgoType.PPO, plan, TINY_LM)

    def test_actor_needs_gen_parallel(self):
        plan = PlacementPlan(
            pools={"a": 2},
            assignments={
                m: ModelAssignment("a", PAR) for m in PPO_MODELS
            },
        )
        with pytest.raises(ValueError, match="gen_parallel"):
            build_rlhf_system(AlgoType.PPO, plan, TINY_LM)

    def test_vanilla_gen_mode_supported(self):
        system = build_rlhf_system(
            AlgoType.PPO, self.plan(), TINY_LM, gen_mode=GenGroupingMode.VANILLA
        )
        assert system.group("actor").gen_topology.mode is GenGroupingMode.VANILLA

    def test_reward_function_replaces_model(self):
        task = SyntheticPreferenceTask(vocab_size=16)
        system = build_rlhf_system(
            AlgoType.PPO, tiny_plan(AlgoType.PPO), TINY_LM, reward_fn=task.reward
        )
        from repro.workers import RewardFunctionWorker

        assert isinstance(system.groups["reward"].workers[0], RewardFunctionWorker)

    def test_custom_cluster_spec(self):
        spec = ClusterSpec(n_machines=1, gpus_per_machine=4)
        system = build_rlhf_system(AlgoType.PPO, self.plan(), TINY_LM, cluster_spec=spec)
        assert system.controller.cluster.n_gpus == 4

    def test_colocated_groups_share_devices(self):
        system = build_rlhf_system(AlgoType.PPO, self.plan(), TINY_LM)
        actor_pool = system.group("actor").resource_pool
        critic_pool = system.group("critic").resource_pool
        assert actor_pool is critic_pool
