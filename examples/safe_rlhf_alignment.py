"""Safe-RLHF: aligning for helpfulness while constraining harmfulness (§2.1).

Reproduces the Figure 6 Safe-RLHF driver: on top of PPO, a *cost model*
scores safety violations, a Lagrangian dual variable trades reward against
cost, and an auxiliary pretraining loss (PPO-ptx) regularises the actor.

The synthetic task makes both signals verifiable: reward is the frequency of
a "helpful" token, cost the frequency of an "unsafe" token.  Watch the policy
raise reward while the multiplier pushes cost below the limit.

Run:  python examples/safe_rlhf_alignment.py
"""

import numpy as np

from repro.config import GenParallelConfig, ParallelConfig
from repro.data import PromptDataset, SyntheticPreferenceTask
from repro.rlhf import AlgoType
from repro.rlhf.trainers import TrainerConfig
from repro.runtime import ModelAssignment, PlacementPlan, build_rlhf_system
from repro.runtime.presets import TINY_LM


def main() -> None:
    task = SyntheticPreferenceTask(
        vocab_size=16, target_token=7, unsafe_token=3
    )

    # five models: the cost model reuses the RewardWorker class, exactly as
    # Figure 6's "cost = RewardWorker(cost_config, resource_pool)"
    parallel = ParallelConfig(pp=1, tp=2, dp=1)
    gen = GenParallelConfig.derive(parallel, 1, 1)
    one = ParallelConfig(1, 1, 1)
    plan = PlacementPlan(
        pools={"main": 2, "reward_pool": 1, "cost_pool": 1},
        assignments={
            "actor": ModelAssignment("main", parallel, gen),
            "critic": ModelAssignment("main", parallel),
            "reference": ModelAssignment("main", parallel),
            "cost": ModelAssignment("cost_pool", one),
            "reward": ModelAssignment("reward_pool", one),
        },
    )

    pretrain = PromptDataset(n_prompts=64, prompt_length=8, vocab_size=16, seed=7)
    system = build_rlhf_system(
        AlgoType.SAFE_RLHF,
        plan,
        TINY_LM,
        trainer_config=TrainerConfig(
            kl_coef=0.01,
            cost_limit=0.02,
            lagrange_lr=1.0,
            ptx_coef=0.05,
            ppo_epochs=2,
            updates_per_epoch=2,
        ),
        reward_fn=task.reward,
        cost_fn=task.cost,
        pretrain_dataset=pretrain,
        max_new_tokens=8,
        lr=5e-3,
    )

    prompts = PromptDataset(n_prompts=256, prompt_length=4, vocab_size=16, seed=1)
    print("Safe-RLHF: maximise reward subject to cost <= 0.02")
    history = system.trainer.train(prompts, n_iterations=25, batch_size=16)

    print(f"{'iter':>4} {'reward':>7} {'cost':>6} {'lambda':>7} {'ptx':>6}")
    for i, h in enumerate(history):
        if i % 4 == 0 or i == len(history) - 1:
            print(
                f"{i:4d} {h['score_mean']:7.3f} {h['cost_mean']:6.3f} "
                f"{h['lagrange_multiplier']:7.3f} "
                f"{h.get('pretrain_loss', float('nan')):6.2f}"
            )

    rewards = [h["score_mean"] for h in history]
    costs = [h["cost_mean"] for h in history]
    print(
        f"\nreward {np.mean(rewards[:5]):.3f} -> {np.mean(rewards[-5:]):.3f}; "
        f"cost {np.mean(costs[:5]):.3f} -> {np.mean(costs[-5:]):.3f} "
        f"(limit 0.02)"
    )
    print(
        "the cost model's dataflow additions over PPO (Figure 6): "
        "cost.compute_cost + the Lagrangian actor loss"
    )
    trace = system.controller.trace_methods()
    assert "cost.compute_cost" in trace


if __name__ == "__main__":
    main()
