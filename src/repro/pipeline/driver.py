"""``AsyncPipelineDriver``: the one-step-off bounded-staleness RLHF loop.

The synchronous drivers (:mod:`repro.rlhf.trainers`) serialize every
iteration end to end: generate → score → update, with the rollout engine
idle while the trainer consumes its output and vice versa.  This driver
relaxes that barrier the way DistFlow / MindSpeed-RL do: while the trainer
consumes iteration *t*'s experience, the rollout engine is already
generating iteration *t+1* on the last *published* policy.

Semantics (``W = staleness_window``):

* batch *i* is generated under policy version ``max(0, i - W)`` and trained
  at version *i* — its staleness is ``min(i, W)``, never more;
* the experience buffer holds at most ``W + 1`` in-flight batches (the
  structural enforcement of the bound);
* stale batches get per-token truncated importance weights
  (:func:`repro.rlhf.losses.truncated_importance_weights`) so the PPO/GRPO
  surrogate stays sound off-policy;
* ``W = 0`` degenerates to exactly the synchronous interleave — same
  dispatches on the same data in the same per-worker order, so the run is
  bit-exact with ``RlhfTrainerBase.train`` (weights, sequences, and
  per-iteration metrics);
* weight hand-off goes through a
  :class:`~repro.hybrid_engine.WeightPublisher`: the trainer *publishes*
  after every optimizer step without blocking decode, the rollout engine
  *acquires* at generate-call boundaries, and both sides leave
  happens-before edges in the access log so the RC5xx race detector can
  prove the overlapped schedule free of torn reads.

The driver dispatches through the same worker-group primitives as the
synchronous trainers; the overlap materializes in the modeled schedule
(:func:`repro.runtime.timeline.build_timeline`): the generate record for
*t+1* precedes iteration *t*'s scoring/update records in the trace and
carries no dependency on them, so pools that only score or update overlap
it instead of idling — the Figure-3-style bubble collapses.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.data.batch import DataBatch
from repro.data.dataset import PromptDataset
from repro.hybrid_engine.publication import WeightPublisher
from repro.pipeline.buffer import Experience, ExperienceBuffer
from repro.pipeline.config import PipelineConfig
from repro.rlhf.core import AlgoType, compute_advantages
from repro.rlhf.losses import truncated_importance_weights
from repro.rlhf.trainers import RlhfTrainerBase
from repro.runtime.presets import states_equal
from repro.single_controller.access_log import READ, WRITE


class AsyncPipelineDriver:
    """Bounded-staleness overlap of rollout and training for PPO / GRPO."""

    def __init__(
        self,
        trainer: RlhfTrainerBase,
        config: Optional[PipelineConfig] = None,
        publisher: Optional[WeightPublisher] = None,
    ) -> None:
        self.trainer = trainer
        self.config = config or PipelineConfig()
        self.config.validate()
        if trainer.algo not in (AlgoType.PPO, AlgoType.GRPO):
            raise ValueError(
                f"async pipeline supports PPO and GRPO, not "
                f"{trainer.algo.value}"
            )
        # one source of truth for soundness constraints: the same DF108
        # findings `repro check` raises statically reject the config here
        from repro.analysis.dataflow import DataflowChecker

        report = DataflowChecker().check_pipeline(
            self.config, trainer.config, trainer.algo, actor=trainer.actor
        )
        errors = [f for f in report.findings if f.severity == "error"]
        if errors:
            raise ValueError(
                "pipeline config rejected by DF108: "
                + "; ".join(f.message for f in errors)
            )
        self.buffer = ExperienceBuffer(self.config.resolved_capacity)
        self.publisher = publisher or WeightPublisher(trainer.actor)
        self._next_gen = 0
        self.max_staleness_seen = 0

    # -- plumbing --------------------------------------------------------------------

    @property
    def iterations_trained(self) -> int:
        return len(self.trainer.history)

    def _controller(self):
        return getattr(self.trainer.actor, "controller", None)

    def _record_access(self, kind: str, resource: str, note: str) -> None:
        controller = self._controller()
        if controller is not None:
            controller.record_access(kind, resource, note=note)

    # -- rollout track ---------------------------------------------------------------

    def _rollout(self, prompts: DataBatch) -> None:
        """Generate batch ``self._next_gen`` under the active policy version.

        With ``stream_scoring`` the frozen-model scoring passes (reference
        log-probs, rewards) are dispatched as soon as generation finishes —
        at the rollout boundary instead of the train-step boundary — so in
        the modeled schedule they overlap the *next* rollout rather than
        sitting on the training critical path.  Both models are frozen, so
        the results are identical either way.
        """
        index = self._next_gen
        version = self.publisher.acquire()
        trainer = self.trainer
        if trainer.algo is AlgoType.GRPO:
            prompts = prompts.repeat(trainer.config.group_size)
        controller = self._controller()
        tracer = getattr(controller, "tracer", None)
        if tracer is None:
            batch = self._generate_and_score(prompts)
        else:
            with tracer.span(
                f"pipeline.rollout[{index}]",
                category="pipeline",
                iteration=index,
                policy_version=version,
            ):
                batch = self._generate_and_score(prompts)
        self._record_access(
            WRITE,
            f"pipeline/experience[{index}]",
            note=f"rollout buffers iteration {index} at version {version}",
        )
        self.buffer.put(index, version, batch)
        if controller is not None and controller.metrics is not None:
            controller.metrics.counter(
                "repro_pipeline_rollouts_total",
                "Rollouts completed by the async pipeline",
            ).inc()
        self._next_gen += 1

    def _generate_and_score(self, prompts: DataBatch) -> DataBatch:
        trainer = self.trainer
        gen = trainer.actor.generate_sequences(prompts).get()
        if not self.config.stream_scoring:
            return gen
        ref = trainer.reference.compute_ref_log_prob(gen)
        scores = trainer.reward.compute_reward(gen)
        return gen.union(ref.get()).union(scores.get())

    # -- training track --------------------------------------------------------------

    def _train_one(self) -> Dict[str, Any]:
        """Consume the oldest buffered batch; mirrors ``run_step`` exactly."""
        trainer = self.trainer
        controller = self._controller()
        tracer = getattr(controller, "tracer", None)
        metrics = getattr(controller, "metrics", None)
        iteration = len(trainer.history)
        algo = trainer.algo.name.lower()
        started = controller.clock.now if controller is not None else 0.0
        if tracer is None:
            result = self._step_from_buffer(iteration)
        else:
            with tracer.span(
                f"iteration[{iteration}]",
                category="iteration",
                algo=algo,
                iteration=iteration,
            ):
                result = self._step_from_buffer(iteration)
        if metrics is not None:
            metrics.counter(
                "repro_iterations_total", "RLHF iterations completed", algo=algo
            ).inc()
            metrics.histogram(
                "repro_iteration_seconds",
                "Simulated seconds per RLHF iteration",
                algo=algo,
            ).observe(controller.clock.now - started)
        trainer.history.append(result)
        # the optimizer step produced a new policy version; stage it for the
        # rollout engine without blocking its decode loop
        self.publisher.publish(len(trainer.history))
        return result

    def _step_from_buffer(self, iteration: int) -> Dict[str, Any]:
        trainer = self.trainer
        cfg = trainer.config
        self._record_access(
            READ,
            f"pipeline/experience[{iteration}]",
            note=f"trainer consumes iteration {iteration}",
        )
        entry = self.buffer.pop(iteration)
        staleness = iteration - entry.version
        self.max_staleness_seen = max(self.max_staleness_seen, staleness)

        batch = self._prepare(entry)
        if trainer.algo is AlgoType.PPO:
            batch = compute_advantages(
                batch,
                AlgoType.PPO,
                kl_coef=cfg.kl_coef,
                gamma=cfg.gamma,
                lam=cfg.lam,
                whiten_advantages=cfg.whiten_advantages,
            )
        else:
            batch = compute_advantages(
                batch, AlgoType.GRPO, group_size=cfg.group_size
            )
        batch = self._attach_importance_weights(batch, staleness)

        metrics: Dict[str, Any] = {"score_mean": float(batch["scores"].mean())}
        for _ in range(cfg.ppo_epochs):
            for mini in trainer._minibatches(batch):
                if trainer.algo is AlgoType.PPO:
                    critic_metrics = trainer.critic.update_critic(
                        mini, loss_func="ppo"
                    ).get()
                    actor_metrics = trainer.actor.update_actor(
                        mini, loss_func="ppo"
                    ).get()
                else:
                    actor_metrics = trainer.actor.update_actor(
                        mini, loss_func="grpo", kl_coef=cfg.kl_coef
                    ).get()
            if trainer.algo is AlgoType.PPO:
                metrics.update(
                    {f"critic/{k}": v for k, v in critic_metrics.items()}
                )
            metrics.update({f"actor/{k}": v for k, v in actor_metrics.items()})
        if staleness > 0:
            # extra keys only off-policy: the W=0 history stays bit-equal
            # to the synchronous trainer's
            metrics["pipeline/staleness"] = staleness
            metrics["pipeline/policy_version"] = entry.version
        return metrics

    def _prepare(self, entry: Experience) -> DataBatch:
        """Stage-2 experience preparation, in the synchronous dispatch order.

        For streamed entries the frozen-model columns (``ref_log_probs``,
        ``scores``) already arrived at rollout time; only the anchor-policy
        log-probs (always recomputed *now*, under the train-time policy —
        they are the importance-weight anchor) and the critic values remain.
        """
        trainer = self.trainer
        cfg = trainer.config
        gen = entry.batch
        streamed = "scores" in gen
        if trainer.algo is AlgoType.PPO:
            values = trainer.critic.compute_values(gen)
            if streamed:
                batch = self._anchor_log_probs(gen).union(values.get())
            else:
                batch = trainer._prepare_common(gen).union(values.get())
        else:
            if streamed:
                batch = self._anchor_log_probs(gen)
            else:
                batch = trainer._prepare_common(gen)
        return batch

    def _anchor_log_probs(self, gen: DataBatch) -> DataBatch:
        trainer = self.trainer
        if trainer.config.recompute_log_probs:
            logp = trainer.actor.compute_log_prob(gen)
            return gen.union(logp.get())
        return gen.union(
            DataBatch({"log_probs": gen["old_log_probs"]}, meta=gen.meta)
        )

    def _attach_importance_weights(
        self, batch: DataBatch, staleness: int
    ) -> DataBatch:
        if staleness == 0 or not self.config.importance_weighting:
            return batch
        mask = batch["response_mask"] if "response_mask" in batch else None
        weights = truncated_importance_weights(
            batch["log_probs"],
            batch["old_log_probs"],
            clip=self.config.iw_clip,
            response_mask=mask,
        )
        return batch.union(
            DataBatch({"importance_weights": weights}, meta=batch.meta)
        )

    # -- the loop --------------------------------------------------------------------

    def train(
        self, dataset: PromptDataset, n_iterations: int, batch_size: int
    ) -> List[Dict[str, Any]]:
        """Run ``n_iterations`` more iterations with bounded-staleness overlap.

        Prompt batches are consumed in absolute iteration order: a driver
        restored mid-overlap fast-forwards the deterministic dataset
        iterator past the batches it already generated, so the resumed run
        is bit-exact with an uninterrupted one.
        """
        target = len(self.trainer.history) + n_iterations
        if self._next_gen > target:
            raise ValueError(
                f"{self._next_gen} rollouts already buffered but only "
                f"{target} total iterations requested"
            )
        batches = dataset.iter_batches(batch_size, epochs=10**6)
        for _ in range(self._next_gen):
            next(batches)
        while len(self.trainer.history) < target:
            horizon = min(
                len(self.trainer.history) + self.config.staleness_window,
                target - 1,
            )
            while self._next_gen <= horizon:
                self._rollout(next(batches))
            self._train_one()
        return self.trainer.history

    # -- reporting -------------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        return {
            "algo": self.trainer.algo.value,
            "iterations": len(self.trainer.history),
            "staleness_window": self.config.staleness_window,
            "max_staleness_seen": self.max_staleness_seen,
            "importance_weighting": self.config.importance_weighting,
            "stream_scoring": self.config.stream_scoring,
            "buffer_capacity": self.buffer.capacity,
            "buffer_peak_occupancy": self.buffer.peak_occupancy,
            "pending_rollouts": len(self.buffer),
            "publications": self.publisher.publications,
            "published_bytes": self.publisher.bytes_published,
            "active_policy_version": self.publisher.active_version,
        }

    # -- checkpointing ---------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "next_gen": self._next_gen,
            "max_staleness_seen": self.max_staleness_seen,
            "buffer": self.buffer.state_dict(),
            "publisher": self.publisher.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._next_gen = int(state["next_gen"])
        self.max_staleness_seen = int(state["max_staleness_seen"])
        self.buffer.load_state_dict(state["buffer"])
        self.publisher.load_state_dict(state["publisher"])

    def save_checkpoint(self, directory: str) -> None:
        """Atomic checkpoint of workers + trainer + in-flight pipeline state.

        A save taken *mid-overlap* — rollouts buffered ahead of the trainer
        — captures the buffered experience and both cursors, so the restore
        resumes with the same staleness schedule.
        """
        controller = self._controller()
        if controller is None:
            raise RuntimeError("checkpointing needs a controller-built system")
        controller.save_checkpoint(
            directory,
            extra={
                "trainer": self.trainer.state_dict(),
                "pipeline": self.state_dict(),
            },
        )

    def load_checkpoint(self, directory: str) -> Dict[str, Any]:
        controller = self._controller()
        if controller is None:
            raise RuntimeError("checkpointing needs a controller-built system")
        manifest = controller.load_checkpoint(directory)
        extra = manifest.get("extra") or {}
        self.trainer.load_state_dict(extra["trainer"])
        self.load_state_dict(extra["pipeline"])
        return manifest


def staleness_zero_check(
    build: Callable[[], Any],
    dataset: Callable[[], PromptDataset],
    n_iterations: int,
    batch_size: int,
) -> Tuple[Any, bool]:
    """The W=0 guarantee, checked: an empty window *is* the synchronous loop.

    Trains one fresh ``build()`` system with its synchronous trainer and one
    with a zero-window :class:`AsyncPipelineDriver`, each on a fresh
    ``dataset()``.  Returns ``(sync_system, bit_exact)``; the sync system is
    the overlap baseline.
    """
    sync_sys = build()
    sync_sys.trainer.train(
        dataset(), n_iterations=n_iterations, batch_size=batch_size
    )
    exact_sys = build()
    AsyncPipelineDriver(
        exact_sys.trainer, PipelineConfig(staleness_window=0)
    ).train(dataset(), n_iterations=n_iterations, batch_size=batch_size)
    return sync_sys, states_equal(sync_sys, exact_sys)


__all__ = ["AsyncPipelineDriver", "staleness_zero_check"]
