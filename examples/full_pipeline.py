"""The complete alignment recipe: SFT -> reward model -> PPO (§1, §2.1).

Everything the paper's introduction describes, end to end on one
programming model:

1. **SFT** — the actor is supervised-fine-tuned on a token corpus.
2. **Reward modelling** — a scalar-head LM is trained on synthetic human
   preference pairs with the Bradley-Terry objective, then evaluated for
   held-out pairwise accuracy.
3. **RLHF (PPO)** — the four-model dataflow runs against the *learned*
   reward model (no ground-truth leakage), and we verify the policy's
   *true* task reward improved anyway.

Run:  python examples/full_pipeline.py
      python examples/full_pipeline.py --trace run.json --metrics run.prom
"""

import argparse
import dataclasses

import numpy as np

from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data import PromptDataset, SyntheticPreferenceTask
from repro.rlhf import AlgoType
from repro.rlhf.pipeline import RewardModelTrainer, SFTTrainer
from repro.rlhf.trainers import TrainerConfig
from repro.runtime import ModelAssignment, PlacementPlan, build_rlhf_system
from repro.runtime.presets import TINY_LM
from repro.single_controller import SingleController, WorkerGroup
from repro.workers.scorers import TrainableRewardWorker

TASK = SyntheticPreferenceTask(vocab_size=16, target_token=7)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON of the PPO stage (chrome://tracing)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the run's metrics as Prometheus text",
    )
    args = parser.parse_args(argv)
    parallel = ParallelConfig(pp=1, tp=2, dp=1)
    plan = PlacementPlan(
        pools={"main": 2},
        assignments={
            "actor": ModelAssignment(
                "main", parallel, GenParallelConfig.derive(parallel, 1, 1)
            ),
            "critic": ModelAssignment("main", parallel),
            "reference": ModelAssignment("main", parallel),
            "reward": ModelAssignment("main", parallel),
        },
    )
    system = build_rlhf_system(
        AlgoType.PPO,
        plan,
        TINY_LM,
        trainer_config=TrainerConfig(kl_coef=0.01, ppo_epochs=2, updates_per_epoch=2),
        max_new_tokens=8,
        lr=5e-3,
    )
    # SF7xx runtime witness: the controller samples every collected batch's
    # array shapes so the --trace audit can cross-validate them against the
    # static symbolic inference
    from repro.analysis import ShapeRecorder

    system.controller.shape_recorder = ShapeRecorder()

    # ---- stage 1: supervised fine-tuning -----------------------------------
    print("stage 1: SFT on the corpus")
    sft = SFTTrainer(system.groups["actor"])
    history = sft.train(PromptDataset(64, 8, 16, seed=3), 8, 8)
    print(
        f"  nll {history[0]['sft_loss']:.3f} -> {history[-1]['sft_loss']:.3f}"
    )

    # ---- stage 2: reward-model training on preference pairs ----------------
    print("stage 2: reward model on human-preference pairs (Bradley-Terry)")
    controller = SingleController(ClusterSpec(n_machines=1))
    reward = WorkerGroup(
        TrainableRewardWorker,
        controller.create_pool(2),
        parallel_config=parallel,
        controller=controller,
        name="reward",
        worker_kwargs={
            "model_config": dataclasses.replace(TINY_LM, output_head="scalar"),
            "lr": 5e-3,
        },
    )
    rm_trainer = RewardModelTrainer(reward, seed=0)
    acc0 = rm_trainer.evaluate_accuracy(TASK, 256, 8)
    rm_trainer.train(TASK, 40, 32, response_length=8)
    acc1 = rm_trainer.evaluate_accuracy(TASK, 256, 8)
    print(f"  held-out pairwise accuracy {acc0:.2f} -> {acc1:.2f}")

    # ---- stage 3: PPO against the learned reward model ----------------------
    print("stage 3: PPO against the LEARNED reward model")
    system.trainer.reward = reward
    prompts = PromptDataset(128, 4, 16, seed=1)

    def true_reward() -> float:
        out = system.groups["actor"].generate_sequences(
            prompts.batch(0, 16)
        ).get()
        return float(TASK.reward(out["sequences"][:, 4:]).mean())

    before = true_reward()
    ppo_history = system.trainer.train(prompts, 20, 16)
    after = true_reward()
    rm_scores = [h["score_mean"] for h in ppo_history]
    print(
        f"  RM score during PPO: {np.mean(rm_scores[:3]):+.3f} -> "
        f"{np.mean(rm_scores[-3:]):+.3f}"
    )
    print(f"  TRUE task reward of generations: {before:.3f} -> {after:.3f}")
    print(
        "\nthe policy improved on the ground-truth objective it never saw — "
        "the learned reward model carried the signal."
    )

    # ---- optional profiling output ------------------------------------------
    ppo_controller = system.controller
    tracer = ppo_controller.tracer
    print(
        f"\nobservability: {len(tracer.spans)} spans recorded "
        f"({', '.join(f'{k}={v}' for k, v in tracer.counts_by_category().items())})"
    )
    exit_code = 0
    if args.trace:
        from repro.analysis import audit_run
        from repro.observability import write_chrome_trace
        from repro.runtime.report import system_report_dict
        from repro.runtime.timeline import build_timeline

        out = write_chrome_trace(
            args.trace,
            timeline=build_timeline(ppo_controller),
            spans=tracer.spans,
        )
        print(f"  wrote Chrome trace to {out} (load in chrome://tracing)")

        # post-run trace pass: happens-before over the spans, ledgers and
        # the shared-state access log; the findings ride along inside the
        # machine-readable run report
        audit = audit_run(system)
        for line in audit.summary_lines():
            print(f"  {line}")
        # SF7xx cross-validation: recorded runtime shapes vs the static
        # symbolic inference over the same system
        from repro.analysis import predict_system_outputs, shape_cross_validate

        predictions = predict_system_outputs(
            system, batch_size=16, prompt_length=4
        )
        shapes = shape_cross_validate(
            system.controller.shape_recorder, predictions
        )
        for line in shapes.summary_lines():
            print(f"  {line}")
        report_doc = system_report_dict(system, analysis=audit, shapes=shapes)
        print(
            f"  run report embeds {len(report_doc['analysis']['findings'])} "
            "audit finding(s)"
        )
        races = [f for f in audit.findings if f.rule.startswith("RC")]
        if races:
            print(f"  RACE DETECTED: {len(races)} RC5xx finding(s)")
            exit_code = 1
        if shapes.findings:
            print(
                f"  SHAPE MISMATCH: {len(shapes.findings)} SF7xx finding(s)"
            )
            exit_code = 1
    if args.metrics:
        from repro.observability import collect_system_metrics, write_prometheus

        collect_system_metrics(ppo_controller)
        out = write_prometheus(args.metrics, ppo_controller.metrics)
        print(f"  wrote Prometheus metrics to {out}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
