"""Single-process RLHF dataflow drivers (the Figure 6 programs).

Each trainer is the few-lines-of-code driver the hybrid programming model
promises: a sequence of primitive API calls on worker groups, with all
distribution, resharding and collection hidden behind transfer protocols.
The numerical differences between algorithms live in
:func:`repro.rlhf.core.compute_advantages` and the workers' loss functions —
moving between algorithms only adds/removes a few calls, exactly as the
paper's Figure 6 shows.

Each algorithm's iteration is written once, as two phases:

* :meth:`~RlhfTrainerBase.rollout` — generation (GRPO's per-prompt repeat
  and ReMax's greedy baseline pass included);
* :meth:`~RlhfTrainerBase.learn` — everything after generation: experience
  preparation, advantages, truncated importance weights for stale
  experience, and the minibatch updates.

``step(prompts)`` is ``learn(rollout(prompts))``.  The synchronous loop
(:meth:`~RlhfTrainerBase.train`) and the bounded-staleness async pipeline
(:class:`repro.pipeline.AsyncPipelineDriver`) are two schedules of the same
two phases; neither carries its own copy of an algorithm.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.data.batch import DataBatch
from repro.data.dataset import PromptDataset
from repro.rlhf.core import AlgoType, compute_advantages
from repro.rlhf.losses import (
    truncated_importance_weights,
    update_lagrange_multiplier,
)

#: Truncation bound of the importance ratio on stale experience (V-trace's
#: rho-bar); at least 1, so on-policy tokens are never scaled.
IW_CLIP = 2.0


@dataclasses.dataclass
class TrainerConfig:
    """Hyperparameters shared by the RLHF drivers (§8.1 conventions)."""

    kl_coef: float = 0.05
    gamma: float = 1.0
    lam: float = 0.95
    ppo_epochs: int = 1
    updates_per_epoch: int = 1
    recompute_log_probs: bool = True
    whiten_advantages: bool = True
    seed: int = 0
    # Safe-RLHF
    cost_limit: float = 0.1
    lagrange_lr: float = 0.5
    ptx_coef: float = 0.1
    # GRPO
    group_size: int = 4


class RlhfTrainerBase:
    """Common loop: iterate prompt batches, run ``step``, record metrics.

    Subclasses write their algorithm as :meth:`learn` (and override
    :meth:`rollout` when generation is more than one sampling pass).
    """

    algo: AlgoType

    def __init__(
        self,
        actor,
        reference,
        reward,
        critic=None,
        cost=None,
        config: Optional[TrainerConfig] = None,
    ) -> None:
        self.actor = actor
        self.critic = critic
        self.reference = reference
        self.reward = reward
        self.cost = cost
        self.config = config or TrainerConfig()
        self.history: List[Dict[str, Any]] = []
        self._rng = np.random.default_rng(self.config.seed)

    # -- the two phases of one iteration -------------------------------------------

    def rollout(self, prompts: DataBatch) -> DataBatch:
        """Stage 1: generate one response per prompt row."""
        return self.actor.generate_sequences(prompts).get()

    def learn(self, batch: DataBatch, staleness: int = 0) -> Dict[str, Any]:
        """Stages 2–3 on one rollout: prepare experience, update the models.

        ``staleness`` is how many policy versions the rollout's behaviour
        policy lags the policy being trained.  PPO and GRPO correct a stale
        rollout with truncated importance weights.  ReMax and Safe-RLHF
        have no such correction and ignore it: they learn from on-policy
        rollouts only, and DF108 keeps them out of the async pipeline.
        """
        raise NotImplementedError

    def step(self, prompts: DataBatch) -> Dict[str, Any]:
        """One synchronous iteration: ``learn(rollout(prompts))``."""
        return self.learn(self.rollout(prompts))

    # -- driver-level checkpoint state (§9: dataloader IDs etc.) -------------------

    def state_dict(self) -> Dict[str, Any]:
        """Driver state to persist alongside the workers' checkpoints."""
        return {
            "iterations_done": len(self.history),
            "rng_state": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.history = [{} for _ in range(int(state["iterations_done"]))]
        self._rng.bit_generator.state = state["rng_state"]

    # -- shared pieces -------------------------------------------------------------

    def score_rollout(self, gen_batch: DataBatch) -> DataBatch:
        """Attach the frozen models' columns: reference log-probs and scores.

        The async pipeline's streamed rollouts call this right after
        generation; :meth:`learn` then skips the columns already present.
        Both models are frozen, so when they run changes no value.
        """
        for future in self._score_frozen(gen_batch):
            gen_batch = gen_batch.union(future.get())
        return gen_batch

    def _score_frozen(self, gen_batch: DataBatch) -> List[Any]:
        """Dispatch the frozen-model passes whose columns are still missing."""
        futures = []
        if "ref_log_probs" not in gen_batch:
            futures.append(self.reference.compute_ref_log_prob(gen_batch))
        if "scores" not in gen_batch:
            futures.append(self.reward.compute_reward(gen_batch))
        return futures

    def _prepare_common(self, gen_batch: DataBatch) -> DataBatch:
        """Reference log-probs + reward scores + anchor log-probs (stage 2).

        Every preparation call consumes the *generation output* rather than
        each other's results — the independence that lets models on disjoint
        pools run concurrently (§4.1's asynchronous execution; visible in
        the execution timelines).  Frozen-model columns a streamed rollout
        already carries are not recomputed; the anchor log-probs always
        are, under the policy being trained, because they anchor the
        importance weights of a stale rollout.
        """
        frozen = self._score_frozen(gen_batch)
        if self.config.recompute_log_probs:
            logp = self.actor.compute_log_prob(gen_batch)
            batch = gen_batch.union(logp.get())
        else:
            batch = gen_batch.union(
                DataBatch(
                    {"log_probs": gen_batch["old_log_probs"]},
                    meta=gen_batch.meta,
                )
            )
        for future in frozen:
            batch = batch.union(future.get())
        return batch

    def _importance_weighted(
        self, batch: DataBatch, staleness: int
    ) -> DataBatch:
        """Attach truncated importance weights to a stale rollout.

        The ratio is the anchor (train-time) policy over the behaviour
        (generation-time) policy per response token, capped at
        :data:`IW_CLIP`.  An on-policy batch is returned unchanged, so the
        synchronous loop never sees the column.
        """
        if staleness == 0:
            return batch
        mask = batch["response_mask"] if "response_mask" in batch else None
        weights = truncated_importance_weights(
            batch["log_probs"],
            batch["old_log_probs"],
            clip=IW_CLIP,
            response_mask=mask,
        )
        return batch.union(
            DataBatch({"importance_weights": weights}, meta=batch.meta)
        )

    def _minibatches(self, batch: DataBatch) -> List[DataBatch]:
        n = self.config.updates_per_epoch
        if batch.batch_size % n:
            raise ValueError(
                f"batch {batch.batch_size} not divisible into {n} PPO updates"
            )
        return batch.chunk(n)

    def run_step(self, prompts: DataBatch) -> Dict[str, Any]:
        """One traced, metered RLHF iteration: :meth:`step` on ``prompts``."""
        return self.run_iteration(lambda: self.step(prompts))

    def run_iteration(
        self, body: Callable[[], Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Run one iteration's ``body``, traced and metered.

        Wraps ``body`` in an ``iteration`` span (so every dispatch of the
        iteration nests under it in the exported trace), records
        per-iteration count/latency in the controller's metrics registry,
        and appends the returned metrics to :attr:`history` on success — so
        iteration numbering stays correct for any schedule, including the
        recovery loop and the async pipeline.  Works unchanged on bare
        worker groups with no controller.
        """
        controller = getattr(self.actor, "controller", None)
        tracer = getattr(controller, "tracer", None)
        metrics = getattr(controller, "metrics", None)
        iteration = len(self.history)
        algo = self.algo.name.lower()
        started = controller.clock.now if controller is not None else 0.0
        span = (
            contextlib.nullcontext()
            if tracer is None
            else tracer.span(
                f"iteration[{iteration}]",
                category="iteration",
                algo=algo,
                iteration=iteration,
            )
        )
        with span:
            result = body()
        if metrics is not None:
            metrics.counter(
                "repro_iterations_total", "RLHF iterations completed", algo=algo
            ).inc()
            metrics.histogram(
                "repro_iteration_seconds",
                "Simulated seconds per RLHF iteration",
                algo=algo,
            ).observe(controller.clock.now - started)
        self.history.append(result)
        return result

    def train(
        self, dataset: PromptDataset, n_iterations: int, batch_size: int
    ) -> List[Dict[str, Any]]:
        """Run ``n_iterations`` RLHF iterations over the prompt dataset."""
        batches = dataset.iter_batches(batch_size, epochs=10**6)
        for _ in range(n_iterations):
            self.run_step(next(batches))
        return self.history


class PPOTrainer(RlhfTrainerBase):
    """PPO [55, 68]: the 8-line driver of Figure 6."""

    algo = AlgoType.PPO

    def learn(self, batch: DataBatch, staleness: int = 0) -> Dict[str, Any]:
        cfg = self.config
        # Stage 2: experience preparation — all scoring passes consume the
        # generation output and can overlap across pools
        values = self.critic.compute_values(batch)
        batch = self._prepare_common(batch).union(values.get())
        batch = compute_advantages(
            batch,
            AlgoType.PPO,
            kl_coef=cfg.kl_coef,
            gamma=cfg.gamma,
            lam=cfg.lam,
            whiten_advantages=cfg.whiten_advantages,
        )
        batch = self._importance_weighted(batch, staleness)
        # Stage 3: actor and critic training
        metrics: Dict[str, Any] = {"score_mean": float(batch["scores"].mean())}
        for _ in range(cfg.ppo_epochs):
            for mini in self._minibatches(batch):
                critic_metrics = self.critic.update_critic(
                    mini, loss_func="ppo"
                ).get()
                actor_metrics = self.actor.update_actor(
                    mini, loss_func="ppo"
                ).get()
            metrics.update({f"critic/{k}": v for k, v in critic_metrics.items()})
            metrics.update({f"actor/{k}": v for k, v in actor_metrics.items()})
        return metrics


class ReMaxTrainer(RlhfTrainerBase):
    """ReMax [43]: extra greedy generation pass, no critic (Figure 6).

    The rollout carries the greedy baseline rollout in ``meta["baseline"]``
    until :meth:`learn` scores it.
    """

    algo = AlgoType.REMAX

    def rollout(self, prompts: DataBatch) -> DataBatch:
        batch = self.actor.generate_sequences(prompts).get()
        baseline = self.actor.generate_sequences(prompts, do_sample=False).get()
        batch.meta["baseline"] = baseline
        return batch

    def learn(self, batch: DataBatch, staleness: int = 0) -> Dict[str, Any]:
        cfg = self.config
        baseline = batch.meta.pop("baseline")
        batch = self._prepare_common(batch)
        baseline_scores = self.reward.compute_reward(baseline).get()["scores"]
        batch = batch.union(
            DataBatch({"baseline_scores": baseline_scores}, meta=batch.meta)
        )
        batch = compute_advantages(batch, AlgoType.REMAX, kl_coef=cfg.kl_coef)
        metrics: Dict[str, Any] = {
            "score_mean": float(batch["scores"].mean()),
            "baseline_score_mean": float(baseline_scores.mean()),
        }
        for _ in range(cfg.ppo_epochs):
            for mini in self._minibatches(batch):
                actor_metrics = self.actor.update_actor(
                    mini, loss_func="remax"
                ).get()
            metrics.update({f"actor/{k}": v for k, v in actor_metrics.items()})
        return metrics


class SafeRLHFTrainer(RlhfTrainerBase):
    """Safe-RLHF [19]: PPO plus a cost model, Lagrangian dual, pretrain loss."""

    algo = AlgoType.SAFE_RLHF

    def __init__(self, *args, pretrain_dataset=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.cost is None:
            raise ValueError("Safe-RLHF requires a cost worker")
        self.lagrange_multiplier = 0.0
        self.pretrain_dataset = pretrain_dataset

    def state_dict(self):
        state = super().state_dict()
        state["lagrange_multiplier"] = self.lagrange_multiplier
        return state

    def load_state_dict(self, state) -> None:
        self.lagrange_multiplier = float(state["lagrange_multiplier"])
        super().load_state_dict(state)

    def _pretrain_batch(self, size: int) -> Optional[DataBatch]:
        if self.pretrain_dataset is None:
            return None
        start = int(self._rng.integers(0, len(self.pretrain_dataset) - size + 1))
        pretrain = self.pretrain_dataset.batch(start, size)
        return DataBatch({"tokens": pretrain["prompts"]})

    def learn(self, batch: DataBatch, staleness: int = 0) -> Dict[str, Any]:
        cfg = self.config
        values = self.critic.compute_values(batch)
        costs = self.cost.compute_cost(batch)
        batch = (
            self._prepare_common(batch)
            .union(values.get())
            .union(costs.get())
        )
        batch = compute_advantages(
            batch,
            AlgoType.SAFE_RLHF,
            kl_coef=cfg.kl_coef,
            gamma=cfg.gamma,
            lam=cfg.lam,
            whiten_advantages=cfg.whiten_advantages,
        )
        self.lagrange_multiplier = update_lagrange_multiplier(
            self.lagrange_multiplier,
            batch["costs"],
            cfg.cost_limit,
            cfg.lagrange_lr,
        )
        metrics: Dict[str, Any] = {
            "score_mean": float(batch["scores"].mean()),
            "cost_mean": float(batch["costs"].mean()),
            "lagrange_multiplier": self.lagrange_multiplier,
        }
        pretrain = self._pretrain_batch(len(batch))
        if pretrain is not None:
            metrics.update(self.actor.compute_loss(pretrain).get())
        for _ in range(cfg.ppo_epochs):
            for mini in self._minibatches(batch):
                critic_metrics = self.critic.update_critic(
                    mini, loss_func="safe-rlhf"
                ).get()
                actor_metrics = self.actor.update_actor(
                    mini,
                    loss_func="safe-rlhf",
                    lagrange_multiplier=self.lagrange_multiplier,
                    pretrain_batch=pretrain,
                    ptx_coef=cfg.ptx_coef,
                ).get()
            metrics.update({f"critic/{k}": v for k, v in critic_metrics.items()})
            metrics.update({f"actor/{k}": v for k, v in actor_metrics.items()})
        return metrics


class GRPOTrainer(RlhfTrainerBase):
    """GRPO [70]: group-relative advantages, no critic (§9's reasoning recipe)."""

    algo = AlgoType.GRPO

    def rollout(self, prompts: DataBatch) -> DataBatch:
        """``group_size`` sampled responses per prompt, rows grouped."""
        return super().rollout(prompts.repeat(self.config.group_size))

    def learn(self, batch: DataBatch, staleness: int = 0) -> Dict[str, Any]:
        cfg = self.config
        batch = self._prepare_common(batch)
        batch = compute_advantages(
            batch, AlgoType.GRPO, group_size=cfg.group_size
        )
        batch = self._importance_weighted(batch, staleness)
        metrics: Dict[str, Any] = {"score_mean": float(batch["scores"].mean())}
        for _ in range(cfg.ppo_epochs):
            for mini in self._minibatches(batch):
                actor_metrics = self.actor.update_actor(
                    mini, loss_func="grpo", kl_coef=cfg.kl_coef
                ).get()
            metrics.update({f"actor/{k}": v for k, v in actor_metrics.items()})
        return metrics
