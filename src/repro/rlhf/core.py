"""``compute_advantages``: the controller-side numerical step of Figure 6.

``batch = compute_advantages(batch, algo_type)`` is the one line in the
paper's driver programs that runs on the single controller itself ("This
computation involves no model forward passes", Table 4).  It reads the
columns the preparation stage added and writes ``advantages`` (and, for
critic-based algorithms, ``returns``).
"""

from __future__ import annotations

import enum

from repro.data.batch import DataBatch
from repro.rlhf.advantage import (
    compose_token_rewards,
    gae_advantages,
    grpo_advantages,
    remax_advantages,
    whiten,
)


class AlgoType(str, enum.Enum):
    """The RLHF dataflow variants of Figure 1."""

    PPO = "ppo"
    REMAX = "remax"
    SAFE_RLHF = "safe-rlhf"
    GRPO = "grpo"


#: Model roles each algorithm's dataflow contains (Figure 1), in build order.
MODELS_BY_ALGO = {
    AlgoType.PPO: ("actor", "critic", "reference", "reward"),
    AlgoType.REMAX: ("actor", "reference", "reward"),
    AlgoType.SAFE_RLHF: ("actor", "critic", "reference", "reward", "cost"),
    AlgoType.GRPO: ("actor", "reference", "reward"),
}


def compute_advantages(
    batch: DataBatch,
    algo: AlgoType = AlgoType.PPO,
    kl_coef: float = 0.1,
    gamma: float = 1.0,
    lam: float = 0.95,
    group_size: int = 4,
    whiten_advantages: bool = True,
) -> DataBatch:
    """Append advantage (and return) columns for the chosen algorithm.

    Expected input columns by algorithm:

    * PPO: ``scores``, ``log_probs``, ``ref_log_probs``, ``values``.
    * Safe-RLHF: PPO columns plus ``costs`` and ``cost_values``; produces
      separate ``advantages`` (reward) and ``cost_advantages``.
    * ReMax: ``scores``, ``baseline_scores``, ``log_probs``,
      ``ref_log_probs``.
    * GRPO: ``scores``, ``log_probs``, ``ref_log_probs`` with rows grouped
      by prompt.

    When the batch carries a ``response_mask`` column (EOS-terminated
    generation), every estimator ignores post-EOS padding: rewards/values
    are masked, the preference score lands on the last *real* token, and
    whitening statistics come from real tokens only.
    """
    algo = AlgoType(algo)
    out = batch.copy()
    response_length = batch["log_probs"].shape[1]
    mask = batch["response_mask"] if "response_mask" in batch else None

    if algo in (AlgoType.PPO, AlgoType.SAFE_RLHF):
        token_rewards = compose_token_rewards(
            batch["scores"],
            batch["log_probs"],
            batch["ref_log_probs"],
            kl_coef,
            response_mask=mask,
        )
        advantages, returns = gae_advantages(
            token_rewards,
            batch["values"],
            gamma=gamma,
            lam=lam,
            response_mask=mask,
        )
        if whiten_advantages:
            advantages = whiten(advantages, response_mask=mask)
        out["advantages"] = advantages
        out["returns"] = returns
        if algo is AlgoType.SAFE_RLHF:
            token_costs = compose_token_rewards(
                batch["costs"],
                batch["log_probs"],
                batch["ref_log_probs"],
                kl_coef=0.0,
                response_mask=mask,
            )
            cost_adv, cost_returns = gae_advantages(
                token_costs,
                batch["cost_values"],
                gamma=gamma,
                lam=lam,
                response_mask=mask,
            )
            out["cost_advantages"] = cost_adv
            out["cost_returns"] = cost_returns
    elif algo is AlgoType.REMAX:
        token_rewards = compose_token_rewards(
            batch["scores"],
            batch["log_probs"],
            batch["ref_log_probs"],
            kl_coef,
            response_mask=mask,
        )
        seq_rewards = token_rewards.sum(axis=1)
        out["advantages"] = remax_advantages(
            seq_rewards,
            batch["baseline_scores"],
            response_length,
            response_mask=mask,
        )
    elif algo is AlgoType.GRPO:
        out["advantages"] = grpo_advantages(
            batch["scores"], group_size, response_length, response_mask=mask
        )
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unhandled algorithm {algo}")
    return out
