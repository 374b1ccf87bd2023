"""The shipped tiny RLHF systems (``repro.runtime.presets``).

The presets replace hand-built copies spread over the CLI, the bench
workloads, the fleet and the examples, so these tests pin them to the
literal systems those call sites used to build.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.fleet import JobSpec
from repro.models.tinylm import TinyLMConfig
from repro.rlhf.core import MODELS_BY_ALGO, AlgoType
from repro.runtime import ModelAssignment, PlacementPlan
from repro.runtime.builder import required_models
from repro.runtime.presets import (
    TINY_LM,
    disaggregated_ppo,
    states_equal,
    tiny_plan,
    tiny_ppo,
)
from repro.workers import RewardFunctionWorker, RewardWorker

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def plan_roles(plan):
    return list(plan.assignments)


class TestTinyPlan:
    def test_ppo_plan_is_the_reference_literal(self):
        par = ParallelConfig(pp=1, tp=2, dp=1)
        reference = PlacementPlan(
            pools={"main": 2, "r": 1},
            assignments={
                "actor": ModelAssignment(
                    "main", par, GenParallelConfig.derive(par, 1, 1)
                ),
                "critic": ModelAssignment("main", par),
                "reference": ModelAssignment("main", par),
                "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
            },
        )
        plan = tiny_plan(AlgoType.PPO)
        assert plan == reference
        assert list(plan.pools) == ["main", "r"]

    @pytest.mark.parametrize("algo", list(AlgoType))
    def test_roles_follow_the_algorithm_table_in_order(self, algo):
        assert plan_roles(tiny_plan(algo)) == list(MODELS_BY_ALGO[algo])
        assert tuple(plan_roles(tiny_plan(algo))) == required_models(algo)

    def test_tp_and_dp_size_the_main_pool(self):
        plan = tiny_plan(AlgoType.GRPO, tp=4, dp=2)
        assert plan.pools == {"main": 8, "r": 1}
        assert plan.assignments["actor"].parallel == ParallelConfig(1, 4, 2)
        assert plan.assignments["actor"].gen_parallel == (
            GenParallelConfig.derive(ParallelConfig(1, 4, 2), 1, 1)
        )
        assert plan.assignments["reward"] == ModelAssignment(
            "r", ParallelConfig(1, 1, 1)
        )

    @pytest.mark.parametrize("dp", [1, 2])
    def test_fleet_job_plan_is_the_preset(self, dp):
        job = JobSpec(name="j", tp=2, preferred_dp=dp)
        assert job.plan_at(dp) == tiny_plan(AlgoType.PPO, 2, dp)
        assert job.model_config is TINY_LM

    def test_fleet_plan_order_does_not_depend_on_hash_seed(self):
        code = (
            "from repro.fleet import JobSpec\n"
            "print(JobSpec(name='j').plan_at(1).models())\n"
        )
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
            result = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(result.stdout.strip())
        expected = str(list(required_models(AlgoType.PPO)))
        assert outputs == [expected, expected]


class TestTinyPpo:
    def test_model_is_the_two_layer_tiny_lm(self):
        assert TINY_LM == TinyLMConfig(2, 32, 4, 48, 16, 32)

    def test_worker_settings_match_the_shipped_job(self):
        system = tiny_ppo(ClusterSpec(n_machines=1, gpus_per_machine=4))
        assert system.plan == tiny_plan(AlgoType.PPO)
        assert system.trainer.config.kl_coef == pytest.approx(0.01)
        assert system.trainer.config.seed == 7
        for actor in system.groups["actor"].workers:
            assert actor.seed == 7
            assert actor.lr == pytest.approx(5e-3)
            assert actor.max_new_tokens == 6
            assert actor.model_config == TINY_LM
        assert [w.seed for w in system.groups["critic"].workers] == [8, 8]
        assert [w.seed for w in system.groups["reference"].workers] == [7, 7]
        (reward,) = system.groups["reward"].workers
        assert isinstance(reward, RewardFunctionWorker)

    def test_cluster_is_reused_when_given(self):
        first = tiny_ppo(ClusterSpec(n_machines=2, gpus_per_machine=4))
        cluster = first.controller.cluster
        assert tiny_ppo(cluster=cluster).controller.cluster is cluster

    def test_disaggregated_placement(self):
        system = disaggregated_ppo()
        assert system.plan.pools == {"actor": 2, "scorer": 1}
        assert [system.plan.pool_of(m) for m in required_models("ppo")] == [
            "actor", "scorer", "scorer", "scorer",
        ]
        # a reward *model*, not the function reward of tiny_ppo
        (reward,) = system.groups["reward"].workers
        assert isinstance(reward, RewardWorker)
        assert system.controller.cluster.n_gpus == 4


class TestStatesEqual:
    def test_identical_builds_are_equal(self):
        assert states_equal(tiny_ppo(), tiny_ppo())

    def test_one_perturbed_actor_weight_is_detected(self):
        a, b = tiny_ppo(), tiny_ppo()
        worker = b.groups["actor"].workers[1]
        state = {
            key: np.array(value, copy=True) if isinstance(value, np.ndarray)
            else value
            for key, value in worker.state_for_checkpoint().items()
        }
        key = sorted(k for k in state if k.startswith("shard::"))[0]
        state[key].flat[0] += 1e-6
        worker.load_from_checkpoint(state)
        assert not states_equal(a, b)
        assert not states_equal(b, a)

    def test_different_worker_counts_are_not_equal(self):
        assert not states_equal(tiny_ppo(), disaggregated_ppo())
