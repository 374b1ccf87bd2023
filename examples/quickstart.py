"""Quickstart: PPO RLHF on a simulated 4-GPU cluster in ~30 lines of API.

Mirrors the paper's Figure 5/6 workflow:

1. virtualise GPUs into ResourcePools and place the four PPO models,
2. let the single controller spawn worker groups under 3D parallelism
   (training 1-2-2, generation 1-1 with micro-DP 2 via the 3D-HybridEngine),
3. drive the 3-stage PPO dataflow and watch the reward climb on a synthetic
   preference task (reward = fraction of a target token in the response —
   the non-NN reward-module pattern of §9).

Run:  python examples/quickstart.py
"""

from repro.config import GenParallelConfig, ParallelConfig
from repro.data import PromptDataset, SyntheticPreferenceTask
from repro.rlhf import AlgoType
from repro.rlhf.trainers import TrainerConfig
from repro.runtime import ModelAssignment, PlacementPlan, build_rlhf_system
from repro.runtime.presets import TINY_LM


def main() -> None:
    # placement: actor/critic/reference colocated on 4 GPUs with 3D
    # parallelism 1-2-2; the programmatic reward runs on a 5th device
    train_parallel = ParallelConfig(pp=1, tp=2, dp=2)
    gen_parallel = GenParallelConfig.derive(train_parallel, gen_pp=1, gen_tp=1)
    plan = PlacementPlan(
        pools={"main": 4, "reward_pool": 1},
        assignments={
            "actor": ModelAssignment("main", train_parallel, gen_parallel),
            "critic": ModelAssignment("main", train_parallel),
            "reference": ModelAssignment("main", train_parallel),
            "reward": ModelAssignment("reward_pool", ParallelConfig(1, 1, 1)),
        },
    )

    # the "LLM" is TINY_LM: a 2-layer Llama-style transformer (hidden 32,
    # vocab 16) the simulator can train
    task = SyntheticPreferenceTask(vocab_size=16, target_token=7)
    system = build_rlhf_system(
        AlgoType.PPO,
        plan,
        TINY_LM,
        trainer_config=TrainerConfig(kl_coef=0.01, ppo_epochs=2, updates_per_epoch=2),
        reward_fn=task.reward,
        max_new_tokens=8,
        lr=5e-3,
    )

    prompts = PromptDataset(n_prompts=256, prompt_length=4, vocab_size=16, seed=1)
    print("training PPO for 20 iterations on the synthetic preference task...")
    history = system.trainer.train(prompts, n_iterations=20, batch_size=16)

    for i, h in enumerate(history):
        if i % 4 == 0 or i == len(history) - 1:
            print(
                f"  iter {i:2d}  reward={h['score_mean']:.3f}  "
                f"policy_loss={h.get('actor/policy_loss', 0):+.4f}  "
                f"kl={h.get('actor/approx_kl', 0):+.4f}"
            )

    first, last = history[0]["score_mean"], history[-1]["score_mean"]
    print(f"\nreward: {first:.3f} -> {last:.3f} (target token learned)")

    print("\nfirst RLHF iteration's dataflow, as traced by the controller:")
    for call in system.controller.trace_methods()[:7]:
        print(f"  {call}")
    total_gb = system.controller.meter.total_bytes() / 1e9
    print(f"\nsimulated inter-GPU traffic this run: {total_gb:.3f} GB")


if __name__ == "__main__":
    main()
