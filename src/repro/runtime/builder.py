"""Build a complete functional RLHF system from a placement plan.

``build_rlhf_system`` is the reproduction of the paper's §3 workflow: the
user supplies model specifications, a device placement (hand-written or from
the auto-mapping algorithm), and per-model parallelism strategies; the single
controller initialises worker groups on the virtualised resource pools and
returns a ready-to-run trainer.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.config import ClusterSpec
from repro.models.tinylm import TinyLMConfig
from repro.parallel.topology import GenGroupingMode
from repro.rlhf.core import MODELS_BY_ALGO, AlgoType
from repro.rlhf.trainers import (
    GRPOTrainer,
    PPOTrainer,
    ReMaxTrainer,
    RlhfTrainerBase,
    SafeRLHFTrainer,
    TrainerConfig,
)
from repro.runtime.placement import PlacementPlan
from repro.single_controller import ResourcePool, SingleController, WorkerGroup
from repro.workers import (
    ActorWorker,
    CostWorker,
    CriticWorker,
    ReferenceWorker,
    RewardFunctionWorker,
    RewardWorker,
)

_TRAINERS = {
    AlgoType.PPO: PPOTrainer,
    AlgoType.REMAX: ReMaxTrainer,
    AlgoType.SAFE_RLHF: SafeRLHFTrainer,
    AlgoType.GRPO: GRPOTrainer,
}

_WORKER_CLASSES = {
    "actor": ActorWorker,
    "critic": CriticWorker,
    "reference": ReferenceWorker,
    "reward": RewardWorker,
    "cost": CostWorker,
}


@dataclasses.dataclass
class RlhfSystem:
    """A constructed RLHF job: controller, worker groups, and the trainer."""

    controller: SingleController
    groups: Dict[str, WorkerGroup]
    trainer: RlhfTrainerBase
    plan: PlacementPlan

    def group(self, model: str) -> WorkerGroup:
        return self.groups[model]


def required_models(algo: AlgoType) -> tuple:
    """Model roles an algorithm's dataflow contains (Figure 1)."""
    return MODELS_BY_ALGO[AlgoType(algo)]


def build_rlhf_system(
    algo: AlgoType,
    plan: PlacementPlan,
    actor_config: TinyLMConfig,
    cluster_spec: Optional[ClusterSpec] = None,
    trainer_config: Optional[TrainerConfig] = None,
    critic_config: Optional[TinyLMConfig] = None,
    gen_mode: GenGroupingMode = GenGroupingMode.HYBRIDFLOW,
    reward_fn: Optional[Callable[..., np.ndarray]] = None,
    reward_fn_pass_prompts: bool = False,
    cost_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    max_new_tokens: int = 8,
    temperature: float = 1.0,
    lr: float = 1e-3,
    seed: int = 0,
    pretrain_dataset=None,
    cluster=None,
    eos_token_id: Optional[int] = None,
    use_serving: bool = False,
    serving_config=None,
) -> RlhfSystem:
    """Construct controller, pools, worker groups, and trainer.

    Args:
        algo: Which RLHF dataflow to build (Figure 1).
        plan: Device placement plus per-model parallelism.
        actor_config: TinyLM architecture of the actor/reference.
        critic_config: Architecture of critic/reward/cost models (scalar
            head added automatically); defaults to the actor's trunk.
        gen_mode: Generation parallel-grouping method for the HybridEngine.
        reward_fn: When given, the reward model is replaced by a non-NN
            reward function worker on a single GPU (§9); the plan must then
            assign ``"reward"`` to a 1-GPU pool.
        pretrain_dataset: Optional pretraining prompts for Safe-RLHF's
            auxiliary loss.
        cluster: Re-use an existing :class:`~repro.cluster.SimCluster`
            instead of materialising ``cluster_spec`` — the recovery path
            passes the surviving cluster back in so re-placement runs on
            the devices that are still alive (§9).
        eos_token_id: Generation stops per sequence at this token; the
            pipeline then carries a ``response_mask`` column so losses and
            advantages ignore post-EOS padding.
        use_serving: Route actor generation through the continuous-batching
            :class:`~repro.serving.RolloutServer` instead of the lock-step
            sequential sampler (bit-exact per request in greedy mode).
        serving_config: Optional :class:`~repro.serving.ServingConfig`
            overriding the serving engine's defaults (slots, block size,
            SLOs); eos/temperature/seed fields are filled in per call.
    """
    algo = AlgoType(algo)
    models = required_models(algo)
    missing = [m for m in models if m not in plan.assignments]
    if missing:
        raise ValueError(f"placement plan lacks assignments for {missing}")
    if plan.assignments["actor"].gen_parallel is None:
        raise ValueError("the actor assignment needs a gen_parallel config")

    if critic_config is None:
        critic_config = dataclasses.replace(actor_config, output_head="scalar")
    lm_config = actor_config
    scalar_config = critic_config

    controller = SingleController(cluster_spec, cluster=cluster)
    pools: Dict[str, ResourcePool] = {
        name: controller.create_pool(n, name=name)
        for name, n in plan.pools.items()
    }

    worker_kwargs: Dict[str, Dict[str, Any]] = {
        "actor": dict(
            model_config=lm_config,
            seed=seed,
            lr=lr,
            temperature=temperature,
            max_new_tokens=max_new_tokens,
            eos_token_id=eos_token_id,
            use_serving=use_serving,
            serving_config=serving_config,
        ),
        "critic": dict(model_config=scalar_config, seed=seed + 1, lr=lr),
        "reference": dict(model_config=lm_config, seed=seed),
        "reward": dict(model_config=scalar_config, seed=seed + 2),
        "cost": dict(model_config=scalar_config, seed=seed + 3),
    }

    groups: Dict[str, WorkerGroup] = {}
    for model in models:
        assignment = plan.assignments[model]
        worker_cls = _WORKER_CLASSES[model]
        kwargs = worker_kwargs[model]
        if model == "reward" and reward_fn is not None:
            worker_cls = RewardFunctionWorker
            kwargs = dict(
                reward_fn=reward_fn, pass_prompts=reward_fn_pass_prompts
            )
        if model == "cost" and cost_fn is not None:
            worker_cls = RewardFunctionWorker
            kwargs = dict(reward_fn=cost_fn, score_column="costs")
        groups[model] = WorkerGroup(
            worker_cls,
            pools[assignment.pool],
            parallel_config=assignment.parallel,
            gen_config=assignment.gen_parallel,
            gen_mode=gen_mode,
            name=model,
            controller=controller,
            worker_kwargs=kwargs,
        )

    trainer_cls = _TRAINERS[algo]
    trainer_args: Dict[str, Any] = dict(
        actor=groups["actor"],
        reference=groups["reference"],
        reward=groups["reward"],
        critic=groups.get("critic"),
        cost=groups.get("cost"),
        config=trainer_config,
    )
    if algo is AlgoType.SAFE_RLHF:
        trainer_args["pretrain_dataset"] = pretrain_dataset
    trainer = trainer_cls(**trainer_args)
    return RlhfSystem(
        controller=controller, groups=groups, trainer=trainer, plan=plan
    )
