"""The tiny functional RLHF systems the repo ships, defined once.

In the §3 workflow the user names a dataflow, a placement and per-model
parallelism, and :func:`~repro.runtime.builder.build_rlhf_system` builds the
rest.  This module names those choices for the miniature jobs the CLI, the
``repro bench`` workloads, the fleet, the SF7xx pass and the examples run.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data.dataset import SyntheticPreferenceTask
from repro.models.tinylm import TinyLMConfig
from repro.rlhf.core import MODELS_BY_ALGO, AlgoType
from repro.rlhf.trainers import TrainerConfig
from repro.runtime.builder import RlhfSystem, build_rlhf_system
from repro.runtime.placement import ModelAssignment, PlacementPlan

#: The 2-layer functional LM every shipped tiny system trains.
TINY_LM = TinyLMConfig(
    n_layers=2,
    hidden_size=32,
    n_heads=4,
    ffn_hidden_size=48,
    vocab_size=16,
    max_seq_len=32,
)

_ONE_GPU = ParallelConfig(pp=1, tp=1, dp=1)


def tiny_plan(algo: AlgoType, tp: int = 2, dp: int = 1) -> PlacementPlan:
    """A ``tp*dp``-GPU ``"main"`` pool plus a 1-GPU reward pool ``"r"``.

    Every other role of ``algo`` is colocated on ``"main"`` at ``(1, tp,
    dp)``, the actor generating at ``(1, 1)``; roles keep
    :data:`~repro.rlhf.core.MODELS_BY_ALGO` order on every run.
    """
    par = ParallelConfig(pp=1, tp=tp, dp=dp)
    gen = GenParallelConfig.derive(par, 1, 1)
    assignments = {
        role: ModelAssignment("r", _ONE_GPU) if role == "reward"
        else ModelAssignment("main", par, gen if role == "actor" else None)
        for role in MODELS_BY_ALGO[AlgoType(algo)]
    }
    return PlacementPlan(pools={"main": tp * dp, "r": 1}, assignments=assignments)


def tiny_ppo(
    cluster_spec: Optional[ClusterSpec] = None, cluster=None
) -> RlhfSystem:
    """The tiny PPO job on :func:`tiny_plan` with a function reward.

    Deterministic, so a rebuild onto a surviving ``cluster`` (recovery)
    resumes bit-exact from a checkpoint.
    """
    task = SyntheticPreferenceTask(vocab_size=16, target_token=7)
    return build_rlhf_system(
        AlgoType.PPO,
        tiny_plan(AlgoType.PPO),
        TINY_LM,
        cluster_spec=cluster_spec,
        trainer_config=TrainerConfig(kl_coef=0.01, seed=7),
        reward_fn=task.reward,
        max_new_tokens=6,
        lr=5e-3,
        seed=7,
        cluster=cluster,
    )


def disaggregated_ppo() -> RlhfSystem:
    """PPO with the actor alone on its pool — the async-overlap placement.

    Critic, reference and a reward *model* share a 1-GPU ``"scorer"`` pool,
    so the synchronous loop idles the 2-GPU actor while scoring runs; the
    one-step-off schedule of :mod:`repro.pipeline` fills that idle.
    """
    par = ParallelConfig(pp=1, tp=2, dp=1)
    plan = PlacementPlan(
        pools={"actor": 2, "scorer": 1},
        assignments={
            "actor": ModelAssignment(
                "actor", par, GenParallelConfig.derive(par, 1, 1)
            ),
            **{
                role: ModelAssignment("scorer", _ONE_GPU)
                for role in ("critic", "reference", "reward")
            },
        },
    )
    return build_rlhf_system(
        AlgoType.PPO,
        plan,
        TINY_LM,
        cluster_spec=ClusterSpec(n_machines=1, gpus_per_machine=4),
        trainer_config=TrainerConfig(kl_coef=0.01, seed=7),
        max_new_tokens=6,
        lr=5e-3,
        seed=7,
    )


def states_equal(sys_a: RlhfSystem, sys_b: RlhfSystem) -> bool:
    """Bit-equality of every worker's ``state_for_checkpoint()``
    (parameters and optimizer moments) in every group of ``sys_a``."""
    for name, group in sys_a.groups.items():
        workers_b = sys_b.groups[name].workers
        if len(group.workers) != len(workers_b):
            return False
        for wa, wb in zip(group.workers, workers_b):
            sa, sb = wa.state_for_checkpoint(), wb.state_for_checkpoint()
            if set(sa) != set(sb) or not all(
                np.array_equal(sa[key], sb[key]) for key in sa
            ):
                return False
    return True
