"""Fault tolerance (§9): checkpoint, crash, and bit-exact recovery.

"Our programming model enables the single controller to coordinate
checkpoint operations via RPC, allowing the saving of model states within
each ParallelWorker Group.  This includes saving parameters of actor/critic
models, dataloader IDs, and Random Number Generator (RNG) states to ensure
system-wide consistency."

Part 1 trains PPO for a few iterations, checkpoints, simulates a full
job loss (the entire controller and every worker discarded), rebuilds the
system from scratch, restores, and shows the resumed run reproducing the
uninterrupted trajectory *exactly* — same rewards, same weights.

Part 2 goes further: a :class:`~repro.faults.FaultInjector` kills a whole
machine mid-training, and :func:`~repro.runtime.train_with_recovery` detects
the loss, re-places the job on the surviving devices, restores the last
atomic checkpoint, and finishes the run — still bit-exact, with the
recovery cost (lost work, restore, re-init) accounted on the simulated
clock.

Run:  python examples/fault_tolerance.py
"""

import tempfile

import numpy as np

from repro.config import ClusterSpec
from repro.data import PromptDataset
from repro.faults import FaultInjector, FaultPlan
from repro.runtime import train_with_recovery
from repro.runtime.presets import tiny_ppo


def main() -> None:
    dataset = PromptDataset(n_prompts=128, prompt_length=4, vocab_size=16, seed=1)

    print("reference run: 6 uninterrupted PPO iterations")
    reference = tiny_ppo()
    ref_history = reference.trainer.train(dataset, 6, 8)
    print("  rewards:", [round(h["score_mean"], 3) for h in ref_history])

    with tempfile.TemporaryDirectory() as ckpt_dir:
        print("\ninterrupted run: 3 iterations, checkpoint, simulated crash")
        first = tiny_ppo()
        first.trainer.train(dataset, 3, 8)
        first.controller.save_checkpoint(ckpt_dir)
        trainer_state = first.trainer.state_dict()
        del first  # the whole job is gone

        print("recovery: rebuild from scratch, restore checkpoint, resume")
        resumed = tiny_ppo()
        resumed.controller.load_checkpoint(ckpt_dir)
        resumed.trainer.load_state_dict(trainer_state)
        batches = dataset.iter_batches(8, epochs=10**6)
        for _ in range(3):  # fast-forward the dataloader (saved position)
            next(batches)
        resumed_history = [resumed.trainer.step(next(batches)) for _ in range(3)]

    resumed_scores = [round(h["score_mean"], 3) for h in resumed_history]
    ref_scores = [round(h["score_mean"], 3) for h in ref_history[3:]]
    print("  resumed rewards:  ", resumed_scores)
    print("  reference rewards:", ref_scores)
    assert resumed_scores == ref_scores, "recovery diverged!"

    ref_state = reference.groups["actor"].workers[0].materialize_full_state()
    res_state = resumed.groups["actor"].workers[0].materialize_full_state()
    max_diff = max(
        float(np.abs(ref_state[name] - res_state[name]).max())
        for name in ref_state
    )
    print(f"  max |weight difference| vs uninterrupted run: {max_diff:.1e}")
    print("\nrecovery is bit-exact: parameters, optimizer, RNG, dataloader.")

    # -- part 2: automatic recovery from a machine loss mid-training --------
    print("\nautomatic recovery: a whole machine dies mid-training")
    spec = ClusterSpec(n_machines=2, gpus_per_machine=4)  # spare capacity
    injector = FaultInjector(FaultPlan().kill_machine(0, at_step=30))
    with tempfile.TemporaryDirectory() as ckpt_dir:
        system, history, report = train_with_recovery(
            lambda cluster: tiny_ppo(spec, cluster),
            dataset,
            n_iterations=6,
            batch_size=8,
            checkpoint_dir=ckpt_dir,
            checkpoint_every=1,
            injector=injector,
        )
    for line in report.summary_lines():
        print("  " + line)
    survivors = sorted(
        w.ctx.device.global_rank for w in system.groups["actor"].workers
    )
    print(f"  actor re-placed on surviving GPUs {survivors}")
    recovered_scores = [round(h["score_mean"], 3) for h in history]
    print("  recovered rewards:   ", recovered_scores)
    print("  uninterrupted rewards:", [round(h["score_mean"], 3) for h in ref_history])
    assert recovered_scores == [round(h["score_mean"], 3) for h in ref_history], (
        "automatic recovery diverged!"
    )
    print("\nmachine loss survived; trajectory identical to the failure-free run.")


if __name__ == "__main__":
    main()
