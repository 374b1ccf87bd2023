"""Execution patterns under different placements (Figure 3 / Table 1).

Runs one functional PPO iteration under three placements and renders the
per-pool Gantt chart the single controller's trace implies under the
asynchronous-execution semantics of §4.1:

* **colocate** — every stage serialises on one pool (DeepSpeed-Chat's
  pattern in Table 1),
* **split** — actor/reference vs critic/reward pools overlap within the
  preparation and learning stages (NeMo-Aligner's pattern),
* **standalone** — every model on its own pool: maximal overlap, maximal
  idle time (OpenRLHF's pattern; Figure 3's "1/3 of their GPU time idle").

Run:  python examples/execution_timelines.py
"""

from repro.config import GenParallelConfig, ParallelConfig
from repro.data import PromptDataset, SyntheticPreferenceTask
from repro.rlhf import AlgoType
from repro.runtime import ModelAssignment, PlacementPlan, build_rlhf_system
from repro.runtime.presets import TINY_LM
from repro.runtime.timeline import build_timeline

PAR = ParallelConfig(1, 2, 1)
GEN = GenParallelConfig.derive(PAR, 1, 1)
ONE = ParallelConfig(1, 1, 1)
TASK = SyntheticPreferenceTask(vocab_size=16)


def plan_for(kind: str) -> PlacementPlan:
    if kind == "colocate":
        return PlacementPlan(
            pools={"shared": 2, "rfn": 1},
            assignments={
                "actor": ModelAssignment("shared", PAR, GEN),
                "critic": ModelAssignment("shared", PAR),
                "reference": ModelAssignment("shared", PAR),
                "reward": ModelAssignment("rfn", ONE),
            },
        )
    if kind == "split":
        return PlacementPlan(
            pools={"actor_side": 2, "critic_side": 2, "rfn": 1},
            assignments={
                "actor": ModelAssignment("actor_side", PAR, GEN),
                "reference": ModelAssignment("actor_side", PAR),
                "critic": ModelAssignment("critic_side", PAR),
                "reward": ModelAssignment("rfn", ONE),
            },
        )
    return PlacementPlan(  # standalone
        pools={"p_actor": 2, "p_critic": 2, "p_ref": 2, "rfn": 1},
        assignments={
            "actor": ModelAssignment("p_actor", PAR, GEN),
            "critic": ModelAssignment("p_critic", PAR),
            "reference": ModelAssignment("p_ref", PAR),
            "reward": ModelAssignment("rfn", ONE),
        },
    )


def main() -> None:
    prompts = PromptDataset(32, 4, 16, seed=1)
    for kind in ("colocate", "split", "standalone"):
        system = build_rlhf_system(
            AlgoType.PPO,
            plan_for(kind),
            TINY_LM,
            reward_fn=TASK.reward,
            max_new_tokens=5,
        )
        system.trainer.train(prompts, 1, 8)
        timeline = build_timeline(system.controller)
        print(f"\n=== placement: {kind} (one PPO iteration) ===")
        print(timeline.render_ascii(width=60))
        print(f"makespan: {timeline.makespan:.1f} simulated units")


if __name__ == "__main__":
    main()
