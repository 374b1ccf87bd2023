"""Configuration of the bounded-staleness async RLHF pipeline."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """How far the rollout engine may run ahead of the trainer.

    Attributes:
        staleness_window: Maximum iterations the behaviour policy may lag
            the trained policy.  ``0`` degenerates to today's synchronous
            loop (and is bit-exact with it); ``1`` is classic one-step-off
            overlap; larger windows absorb generation-time jitter at the
            price of more off-policy drift.  The experience buffer holds
            ``staleness_window + 1`` batches, and stale batches always get
            truncated importance weights
            (:data:`repro.rlhf.trainers.IW_CLIP`).
        stream_scoring: Dispatch frozen-model scoring (reference log-probs
            and rewards) right after each rollout finishes instead of at
            the train-step boundary, so scoring overlaps the next rollout.
            Numerically inert — both models are frozen — but it moves the
            scoring work off the training critical path in the modeled
            schedule.
    """

    staleness_window: int = 1
    stream_scoring: bool = False

    def validate(self) -> None:
        """Raise on configurations that could never run at all.

        Soundness problems beyond that (an algorithm without importance
        weights, an actor the weight publisher cannot serve) are the
        :class:`~repro.analysis.DataflowChecker`'s ``DF108`` findings — one
        shared source of truth the driver also consults at build time.
        """
        if self.staleness_window < 0:
            raise ValueError(
                f"staleness_window must be >= 0, got {self.staleness_window}"
            )


__all__ = ["PipelineConfig"]
