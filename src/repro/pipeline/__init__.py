"""Async one-step-off RLHF pipeline with bounded staleness.

While the trainer consumes iteration *t*'s experience, the rollout engine
already generates iteration *t+1* on the last published policy — the
DistFlow / MindSpeed-RL relaxation of HybridFlow's synchronous dataflow,
built so that every existing correctness gate (DF1xx dataflow checks, TA2xx
trace audit, RC5xx race detection) still passes on the overlapped schedule.

* :class:`PipelineConfig` — staleness window, streamed scoring.
* :class:`ExperienceBuffer` — bounded in-flight experience, version-tagged.
* :class:`AsyncPipelineDriver` — the loop: it schedules the trainer's own
  ``rollout`` and ``learn`` phases, so ``staleness_window=0`` is bit-exact
  with the synchronous trainers by construction.
* :func:`staleness_zero_check` — runs that guarantee as a self-check.
"""

from repro.pipeline.buffer import BufferFull, Experience, ExperienceBuffer
from repro.pipeline.config import PipelineConfig
from repro.pipeline.driver import AsyncPipelineDriver, staleness_zero_check

__all__ = [
    "AsyncPipelineDriver",
    "BufferFull",
    "Experience",
    "ExperienceBuffer",
    "PipelineConfig",
    "staleness_zero_check",
]
