"""Span recorder and timing shims for the traced benchmark run.

The shims wrap the public entry points of each layer from outside the
program: every wrapped call becomes a span with a name, host start/end, its
parent span and the iteration (or drain) it belongs to.  Spans are kept in
memory and written as Chrome-trace JSON at the end of the run.  A span's
*self* time is its duration minus the time its child spans cover, so the
self times of all spans plus the uncovered remainder add up to the wall time.

A name is patched where its caller looks it up: methods on their defining
class, and functions in every module that imported them by name.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Worker methods whose spans make up the paper's three stages.
STAGE_OF_METHOD = {
    "generate_sequences": "generation",
    "compute_log_prob": "preparation",
    "compute_ref_log_prob": "preparation",
    "compute_values": "preparation",
    "compute_reward": "preparation",
    "update_actor": "training",
    "update_critic": "training",
}
TRAINING_METHODS = ("update_actor", "update_critic")


class SpanRecorder:
    """In-memory span stack with self-time accounting and counters."""

    def __init__(self) -> None:
        self.active = False
        self.op: Optional[int] = None
        #: finished spans: (id, name, start, end, parent id, op, self seconds);
        #: ids number spans in the order they began, -1 is "no parent"
        self.spans: List[Tuple[int, str, float, float, int, Optional[int], float]] = []
        #: per-request completion events: (request id, start, end, op)
        self.requests: List[Tuple[int, float, float, Optional[int]]] = []
        self._stack: List[List[Any]] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self._training_depth = 0
        self._serving_depth = 0
        self.counts: Dict[str, int] = {}
        self.serving_reports: List[Tuple[Any, int]] = []

    # -- spans -----------------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, children = self._stack.pop()
        duration = end - start
        parent = -1
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][3] += duration
        self.spans.append(
            (span_id, name, start, end, parent, self.op, duration - children)
        )

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- aggregation -----------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Self time summed per span name."""
        totals: Dict[str, float] = {}
        for _id, name, _start, _end, _parent, _op, own in self.spans:
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def span_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span[1]] = counts.get(span[1], 0) + 1
        return counts

    def write_chrome_trace(self, path: str) -> None:
        """Complete ("X") events on one host track, plus one track of requests."""
        origin = min((s[2] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent, "op": op, "self_us": own * 1e6},
            }
            for span_id, name, start, end, parent, op, own in sorted(self.spans)
        ]
        events.extend(
            {
                "name": f"request[{request_id}]",
                "ph": "X",
                "pid": 1,
                "tid": 2,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"op": op, "request": request_id},
            }
            for request_id, start, end, op in self.requests
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _spanned(rec: SpanRecorder, name: str, fn: Callable, training: bool = False) -> Callable:
    """Wrap ``fn`` in a span; ``training`` marks model forwards beneath it."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not rec.active:
            return fn(*args, **kwargs)
        rec.enter(name)
        rec._training_depth += training
        try:
            return fn(*args, **kwargs)
        finally:
            rec._training_depth -= training
            rec.exit()

    return wrapper


def _forward_shim(rec: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def forward(self, token_ids, *args: Any, **kwargs: Any) -> Any:
        if not rec.active:
            return fn(self, token_ids, *args, **kwargs)
        rec.count("models.forward_calls")
        if rec._serving_depth:
            rec.count("serving.forward_calls")
            rec.count("serving.forward_positions", int(token_ids.size))
        rec.enter(
            "models.forward_train" if rec._training_depth else "models.forward_infer"
        )
        try:
            return fn(self, token_ids, *args, **kwargs)
        finally:
            rec.exit()

    return forward


def _step_shim(rec: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def step(self, *args: Any, **kwargs: Any) -> Any:
        if not rec.active:
            return fn(self, *args, **kwargs)
        rec.count("serving.steps")
        rec.enter("serving.step")
        rec._serving_depth += 1
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec._serving_depth -= 1
            rec.exit()

    return step


def _drain_shim(rec: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def drain(self, *args: Any, **kwargs: Any) -> Any:
        if not rec.active:
            return fn(self, *args, **kwargs)
        rec.enter("serving.drain")
        try:
            report = fn(self, *args, **kwargs)
        finally:
            rec.exit()
        rec.serving_reports.append((report, self.config.max_slots))
        return report

    return drain


def _tensor_init_shim(rec: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if rec.active:
            rec.count("models.tensors_created")
        fn(self, *args, **kwargs)

    return __init__


class Shims:
    """Install and remove every timing shim; ``with Shims(rec):`` scopes them."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> "Shims":
        import repro.models.sampler as sampler_mod
        import repro.rlhf.trainers as trainers_mod
        import repro.serving.server as server_mod
        from repro.hybrid_engine.engine import HybridEngine3D
        from repro.models.adam import Adam
        from repro.models.autograd import Tensor
        from repro.models.tinylm import TinyLM
        from repro.serving.scheduler import ContinuousBatchScheduler
        from repro.single_controller.protocols import TransferProtocol
        from repro.single_controller.worker_group import RemoteMethod
        from repro.workers import ActorWorker, CriticWorker, ReferenceWorker
        from repro.workers.scorers import RewardFunctionWorker

        rec = self.rec

        def span(name: str) -> Callable[[Callable], Callable]:
            return lambda fn: _spanned(rec, name, fn)

        self._patch(RemoteMethod, "__call__", span("single_controller.dispatch"))
        self._patch(TransferProtocol, "distribute", span("single_controller.distribute"))
        self._patch(TransferProtocol, "collect", span("single_controller.collect"))
        for attr, name in (
            ("to_generation", "hybrid_engine.to_generation"),
            ("materialize_generation_replica", "hybrid_engine.materialize"),
            ("to_training", "hybrid_engine.to_training"),
        ):
            self._patch(HybridEngine3D, attr, span(name))
        # worker methods must be patched before a system binds them: a
        # RemoteMethod caches each rank's bound method on first dispatch
        for cls in (ActorWorker, CriticWorker, ReferenceWorker, RewardFunctionWorker):
            for method, stage in STAGE_OF_METHOD.items():
                if method not in vars(cls):
                    continue
                name = f"workers.{stage}.{method}"
                training = method in TRAINING_METHODS
                self._patch(cls, method, lambda fn, n=name, t=training: _spanned(rec, n, fn, t))
        # ``TinyLM.__call__`` is a second class attribute bound to ``forward``
        for attr in ("forward", "__call__"):
            self._patch(TinyLM, attr, lambda fn: _forward_shim(rec, fn))
        self._patch(Tensor, "__init__", lambda fn: _tensor_init_shim(rec, fn))
        self._patch(Tensor, "backward", span("models.backward"))
        self._patch(Adam, "step", span("models.adam"))
        # the sampler is imported by name into the serving engine
        for module in (sampler_mod, server_mod):
            for attr in ("sample_tokens", "sample_tokens_batch"):
                self._patch(module, attr, span("models.sample"))
        self._patch(server_mod.RolloutServer, "step", lambda fn: _step_shim(rec, fn))
        self._patch(server_mod.RolloutServer, "drain", lambda fn: _drain_shim(rec, fn))
        self._patch(ContinuousBatchScheduler, "schedule", span("serving.schedule"))
        self._patch(trainers_mod, "compute_advantages", span("rlhf.advantage"))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Shims":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()
