"""``RolloutServer``: a continuous-batching generation front end over TinyLM.

The serving engine the generation stage of §2.3 assumes, made functional:
requests arrive (possibly bursty, possibly prioritised), the scheduler
refills decode slots every step, the paged block manager charges simulated
device memory, and each occupied slot emits exactly one token per step —
the same step accounting as the analytical model in
:mod:`repro.perf.continuous_batching`, so the two can be cross-checked on
matched workloads.

Each admission is prefilled by its own forward into a per-request KV cache
allocated once at the request's capacity; every later step decodes all
running requests in one forward, each row at its own KV length (the
attention's causal rule on absolute positions also hides the padding of
shorter rows).  Per-request rngs make the sampled tokens independent of
which rows share a forward, so greedy serving output matches
:func:`repro.models.sampler.generate` row by row — the property the actor's
serving-backed path relies on (and tests assert).  Log-probs are
bit-identical while the rows share one length; padding only reorders the
rounding of attention sums (differential tests bound the gap at 1e-12).

Latency accounting: the simulated clock advances ``step_time`` per decode
step; TTFT/TPOT/latency and SLO attainment are computed per request from
arrival/first-token/finish stamps.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.device import SimDevice
from repro.models.autograd import no_grad
# ``sample_tokens`` stays a name of this module: instrumentation such as
# ``perfbench/tracer.py`` wraps both samplers where the engine looks them up
from repro.models.sampler import sample_tokens  # noqa: F401
from repro.models.sampler import sample_tokens_batch, sampled_log_probs
from repro.models.tinylm import KVCache, TinyLM
from repro.serving.paged_kv import PagedKVCache
from repro.serving.request import CompletedRequest, Request, RequestState
from repro.serving.scheduler import ContinuousBatchScheduler, SchedulerConfig


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Engine-level serving parameters."""

    max_slots: int = 8
    block_size: int = 16
    #: Total KV blocks; ``None`` derives from device free memory (capped at
    #: what ``max_slots`` full-length sequences could ever use).
    n_blocks: Optional[int] = None
    eos_token_id: Optional[int] = None
    pad_token_id: Optional[int] = None
    temperature: float = 1.0
    greedy: bool = False
    #: Simulated wall-clock seconds per decode step.
    step_time: float = 0.01
    #: SLO thresholds (simulated seconds); ``None`` disables that term.
    slo_ttft: Optional[float] = None
    slo_latency: Optional[float] = None
    aging: float = 0.05
    #: Seed material for per-request rngs (int or tuple; request id appended).
    seed: Union[int, Tuple[int, ...]] = 0
    #: Fraction of device free memory the KV pool may claim when deriving.
    memory_fraction: float = 0.9
    #: Decode every running request in one forward, whatever its kv
    #: length.  False runs one forward per slot: the oracle the tests and
    #: the bench harness compare against (same tokens; log-probs within
    #: 1e-12, bit-identical when all rows share one length).
    batched_decode: bool = True


@dataclasses.dataclass
class ServingReport:
    """Aggregate outcome of a serving run (``drain`` or ``report``)."""

    completed: List[CompletedRequest]
    n_steps: int
    total_tokens: int
    slot_utilisation: float
    n_preemptions: int
    recomputed_tokens: int
    kv_blocks_total: int
    peak_kv_blocks: int
    peak_kv_bytes: int
    slo_ttft: Optional[float] = None
    slo_latency: Optional[float] = None

    # -- latency aggregates ----------------------------------------------------------
    #
    # Aggregates over an *empty* sample are ``None``, never 0.0: an empty
    # drain reporting p95 TTFT of 0 would be indistinguishable from a
    # perfect run.  ``summary_lines`` renders missing aggregates as "n/a".

    def _percentile(self, values: List[float], q: float) -> Optional[float]:
        return float(np.percentile(values, q)) if values else None

    @property
    def ttfts(self) -> List[float]:
        return [r.ttft for r in self.completed]

    @property
    def latencies(self) -> List[float]:
        return [r.latency for r in self.completed]

    @property
    def tpots(self) -> List[float]:
        return [r.tpot for r in self.completed if r.response_length > 1]

    def mean_ttft(self) -> Optional[float]:
        return float(np.mean(self.ttfts)) if self.completed else None

    def p95_ttft(self) -> Optional[float]:
        return self._percentile(self.ttfts, 95)

    def mean_tpot(self) -> Optional[float]:
        return float(np.mean(self.tpots)) if self.tpots else None

    def mean_latency(self) -> Optional[float]:
        return float(np.mean(self.latencies)) if self.completed else None

    def p95_latency(self) -> Optional[float]:
        return self._percentile(self.latencies, 95)

    def slo_attainment(self) -> Optional[float]:
        """Fraction of requests inside every configured SLO (None = no SLOs)."""
        if not self.completed or (
            self.slo_ttft is None and self.slo_latency is None
        ):
            return None
        ok = 0
        for r in self.completed:
            if self.slo_ttft is not None and r.ttft > self.slo_ttft:
                continue
            if self.slo_latency is not None and r.latency > self.slo_latency:
                continue
            ok += 1
        return ok / len(self.completed)

    def finish_reasons(self) -> Dict[str, int]:
        reasons: Dict[str, int] = {}
        for r in self.completed:
            reasons[r.finish_reason] = reasons.get(r.finish_reason, 0) + 1
        return reasons

    @staticmethod
    def _fmt_stat(value: Optional[float]) -> str:
        return "n/a" if value is None else f"{value:.4f}"

    def summary_lines(self) -> List[str]:
        reasons = ", ".join(
            f"{k}={v}" for k, v in sorted(self.finish_reasons().items())
        )
        lines = [
            f"requests completed   : {len(self.completed)} ({reasons})",
            f"decode steps         : {self.n_steps}",
            f"tokens generated     : {self.total_tokens}",
            f"slot utilisation     : {self.slot_utilisation:.3f}",
            f"preemptions          : {self.n_preemptions} "
            f"({self.recomputed_tokens} tokens recomputed)",
            f"peak KV blocks       : {self.peak_kv_blocks}/{self.kv_blocks_total} "
            f"({self.peak_kv_bytes} bytes)",
            f"TTFT mean / p95      : {self._fmt_stat(self.mean_ttft())} / "
            f"{self._fmt_stat(self.p95_ttft())} s",
            f"TPOT mean            : {self._fmt_stat(self.mean_tpot())} s",
            f"latency mean / p95   : {self._fmt_stat(self.mean_latency())} / "
            f"{self._fmt_stat(self.p95_latency())} s",
        ]
        attainment = self.slo_attainment()
        if attainment is not None:
            slos = []
            if self.slo_ttft is not None:
                slos.append(f"ttft<={self.slo_ttft:g}s")
            if self.slo_latency is not None:
                slos.append(f"latency<={self.slo_latency:g}s")
            lines.append(
                f"SLO attainment       : {attainment:.1%} ({', '.join(slos)})"
            )
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_requests": len(self.completed),
            "n_steps": self.n_steps,
            "total_tokens": self.total_tokens,
            "slot_utilisation": self.slot_utilisation,
            "n_preemptions": self.n_preemptions,
            "recomputed_tokens": self.recomputed_tokens,
            "peak_kv_blocks": self.peak_kv_blocks,
            "kv_blocks_total": self.kv_blocks_total,
            "mean_ttft": self.mean_ttft(),
            "p95_ttft": self.p95_ttft(),
            "mean_tpot": self.mean_tpot(),
            "mean_latency": self.mean_latency(),
            "p95_latency": self.p95_latency(),
            "slo_attainment": self.slo_attainment(),
            "finish_reasons": self.finish_reasons(),
        }


def static_batch_steps(lengths: Sequence[int], capacity: int) -> int:
    """Decode steps static wave batching needs for ``lengths`` responses.

    Each wave of ``capacity`` requests runs until its longest member
    finishes — the baseline the continuous engine is measured against
    (identical step accounting to ``repro.perf.continuous_batching.
    serve_static``, without the cost model).
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    arr = np.asarray(lengths, dtype=np.int64)
    return sum(
        int(arr[start : start + capacity].max())
        for start in range(0, len(arr), capacity)
    )


class RolloutServer:
    """Submit/step/drain serving interface over one TinyLM replica."""

    def __init__(
        self,
        model: TinyLM,
        config: Optional[ServingConfig] = None,
        device: Optional[SimDevice] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        if model.config.output_head != "lm":
            raise ValueError("serving requires an LM head")
        self.model = model
        self.config = config or ServingConfig()
        self.device = device
        self.tracer = tracer
        self.metrics = metrics
        if self.config.eos_token_id is not None and not (
            0 <= self.config.eos_token_id < model.config.vocab_size
        ):
            raise ValueError(
                f"eos_token_id {self.config.eos_token_id} outside vocab "
                f"[0, {model.config.vocab_size})"
            )
        self.kv = PagedKVCache(
            model.config,
            block_size=self.config.block_size,
            n_blocks=self._resolve_n_blocks(model, device),
            device=device,
        )
        self.scheduler = ContinuousBatchScheduler(
            SchedulerConfig(
                max_slots=self.config.max_slots, aging=self.config.aging
            ),
            self.kv,
        )
        seed = self.config.seed
        self._seed: Tuple[int, ...] = (
            (seed,) if isinstance(seed, int) else tuple(seed)
        )
        self.now = 0.0
        self._next_id = 0
        self._completed: List[CompletedRequest] = []
        self._steps = 0
        self._occupied_slot_steps = 0
        self._tokens = 0

    def _resolve_n_blocks(
        self, model: TinyLM, device: Optional[SimDevice]
    ) -> int:
        cfg = self.config
        if cfg.n_blocks is not None:
            return cfg.n_blocks
        # never need more than max_slots full-length sequences
        per_seq = -(-model.config.max_seq_len // cfg.block_size)
        cap = cfg.max_slots * per_seq
        if device is None:
            return cap
        from repro.serving.paged_kv import kv_bytes_per_token

        bytes_per_block = kv_bytes_per_token(model.config) * cfg.block_size
        affordable = int(
            device.memory.free * cfg.memory_fraction
        ) // bytes_per_block
        return max(1, min(cap, affordable))

    # -- submission ------------------------------------------------------------------

    def submit(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        priority: int = 0,
        arrival_time: Optional[float] = None,
    ) -> int:
        """Enqueue one generation request; returns its request id."""
        prompt = np.asarray(prompt, dtype=np.int64)
        if prompt.ndim != 1 or prompt.shape[0] < 1:
            raise ValueError(f"prompt must be non-empty 1-D, got {prompt.shape}")
        vocab = self.model.config.vocab_size
        if int(prompt.min()) < 0 or int(prompt.max()) >= vocab:
            raise ValueError(
                f"prompt token ids must lie in [0, {vocab}), got "
                f"[{int(prompt.min())}, {int(prompt.max())}]"
            )
        if max_new_tokens < 1:
            raise ValueError(
                f"max_new_tokens must be >= 1, got {max_new_tokens}"
            )
        max_len = prompt.shape[0] + max_new_tokens
        if max_len > self.model.config.max_seq_len:
            raise ValueError(
                f"prompt + max_new_tokens = {max_len} exceeds max_seq_len "
                f"{self.model.config.max_seq_len}"
            )
        # the last sampled token is never fed back, so it is never cached
        blocks = self.kv.blocks_needed(max_len - 1)
        if blocks > self.kv.n_blocks:
            raise ValueError(
                f"request needs {blocks} KV blocks at full length but the "
                f"pool only has {self.kv.n_blocks}; preemption could never "
                "make it fit"
            )
        request_id = self._next_id
        self._next_id += 1
        req = Request(
            request_id=request_id,
            prompt=prompt,
            max_new_tokens=max_new_tokens,
            priority=priority,
            arrival_time=self.now if arrival_time is None else arrival_time,
            rng=np.random.default_rng(self._seed + (request_id,)),
        )
        self.scheduler.add(req)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serving_requests_submitted_total",
                "Requests submitted to the rollout server",
            ).inc()
        return request_id

    # -- stepping --------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests not yet finished (queued + running + preempted)."""
        return len(self.scheduler.waiting) + len(self.scheduler.running)

    def step(self) -> List[CompletedRequest]:
        """One engine iteration: refill slots, decode one token per slot.

        Every occupied slot emits exactly one token (admitted requests
        prefill and sample their first token in the same step), matching the
        step accounting of ``repro.perf.continuous_batching
        .serve_continuous``.  The pass runs in three phases: reserve blocks
        for every decoding runner in rank order (a runner short of blocks
        evicts the worst-ranked runner, itself when it ranks last, so every
        victim is strictly later in the pass than its evictor), prefill
        admissions one forward each, then decode every surviving runner in
        one forward whatever its KV length.  Per-request rngs make the
        emitted tokens independent of how rows share forwards.
        Returns the requests that finished this step.
        """
        step_end = self.now + self.config.step_time
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
                f"serving.step[{self._steps}]", category="serving"
            )
        self.scheduler.schedule(self.now)
        active = sorted(self.scheduler.running, key=self.scheduler.rank_key)
        finished_now: List[CompletedRequest] = []
        with no_grad():
            prefill: List[Request] = []
            decode: List[Request] = []
            for req in active:
                if req.state is not RequestState.RUNNING:
                    continue  # evicted earlier in this same pass
                if req.cache is None:
                    prefill.append(req)
                elif self.scheduler.ensure_decode_blocks(req):
                    decode.append(req)
            logits = [self._prefill(req) for req in prefill]
            if decode:
                logits.append(self._decode(decode))
            emitting = prefill + decode
            emitted = self._emit(emitting, np.concatenate(logits)) if emitting else []
            for req, (token, logp) in zip(emitting, emitted):
                req.generated.append(token)
                req.log_probs.append(logp)
                if req.first_token_time is None:
                    req.first_token_time = step_end
                if (
                    self.config.eos_token_id is not None
                    and token == self.config.eos_token_id
                ):
                    finished_now.append(self._finish(req, step_end, "eos"))
                elif len(req.generated) >= req.max_new_tokens:
                    finished_now.append(self._finish(req, step_end, "length"))
        produced = len(emitting)
        self._steps += 1
        self._occupied_slot_steps += produced
        self._tokens += produced
        self.now = step_end
        if self.metrics is not None and produced:
            self.metrics.counter(
                "repro_serving_tokens_total",
                "Tokens generated by the rollout server",
            ).inc(produced)
        if span is not None:
            self.tracer.end(
                span, active=produced, finished=len(finished_now)
            )
        return finished_now

    def _prefill(self, req: Request) -> np.ndarray:
        """Cache a fresh admission's whole context; its last-position logits.

        Also the post-preemption recompute: the context is ``prompt +
        generated``.  The cache is allocated once at every position the
        request will ever cache (its last token is never fed back).
        """
        req.cache = KVCache(
            self.model.config.n_layers,
            capacity=req.prompt_length + req.max_new_tokens - 1,
        )
        context = req.tokens()
        logits = self.model.forward(
            context[None, :], cache=req.cache, pos_offset=0
        )
        req.kv_len = int(context.shape[0])
        return logits.data[:, -1, :]

    def _decode(self, reqs: List[Request]) -> np.ndarray:
        """Feed each runner its newest token; logits ``(len(reqs), vocab)``.

        Batched, one forward covers every row with its own ``pos_offset``
        and cache; the per-slot oracle runs one forward per request.
        """
        last = np.asarray([[r.generated[-1]] for r in reqs], dtype=np.int64)
        if self.config.batched_decode:
            logits = self.model.forward(
                last,
                cache=[r.cache for r in reqs],
                pos_offset=np.asarray([r.kv_len for r in reqs], dtype=np.int64),
            ).data
        else:
            logits = np.concatenate(
                [
                    self.model.forward(
                        last[i : i + 1], cache=r.cache, pos_offset=r.kv_len
                    ).data
                    for i, r in enumerate(reqs)
                ]
            )
        for r in reqs:
            r.kv_len += 1
        return logits[:, -1, :]

    def _emit(
        self, reqs: List[Request], logits: np.ndarray
    ) -> List[Tuple[int, float]]:
        """Sample each request's next token from its row of ``logits``.

        Every row draws one uniform from its request's own rng, so a token
        does not depend on which rows share the sampling pass.
        """
        tokens = sample_tokens_batch(
            logits,
            [r.rng for r in reqs],
            temperature=self.config.temperature,
            greedy=self.config.greedy,
        )
        log_probs = sampled_log_probs(logits, tokens)
        return list(zip(tokens.tolist(), log_probs.tolist()))

    def _finish(
        self, req: Request, at_time: float, reason: str
    ) -> CompletedRequest:
        req.finish_reason = reason
        req.finish_time = at_time
        self.scheduler.finish(req)
        done = CompletedRequest.from_request(req)
        self._completed.append(done)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serving_requests_total",
                "Requests completed by the rollout server",
                reason=reason,
            ).inc()
            self.metrics.histogram(
                "repro_serving_ttft_seconds",
                "Simulated time to first token",
            ).observe(done.ttft)
            self.metrics.histogram(
                "repro_serving_latency_seconds",
                "Simulated request latency",
            ).observe(done.latency)
        if self.tracer is not None:
            self.tracer.instant(
                f"serving.request[{req.request_id}]",
                category="serving",
                reason=reason,
                response_length=done.response_length,
                preemptions=done.n_preemptions,
            )
        return done

    def drain(
        self,
        max_steps: int = 1_000_000,
        on_finish: Optional[Callable[[CompletedRequest], None]] = None,
    ) -> ServingReport:
        """Step until every submitted request has finished; report.

        Raises ``RuntimeError`` when requests are still pending after
        ``max_steps`` steps of this drain.  ``on_finish`` is invoked once
        per completed request, in completion
        order, the moment its decode step finishes — the streamed hand-off
        primitive the async RLHF pipeline builds on: downstream scoring
        (reward / reference log-probs) can start on early finishers while
        later requests are still decoding, instead of waiting for the whole
        batch boundary.
        """
        steps = 0
        while self.pending:
            if steps == max_steps:
                raise RuntimeError(
                    f"serving did not drain within {max_steps} steps "
                    f"({self.pending} requests pending)"
                )
            finished = self.step()
            steps += 1
            if on_finish is not None:
                for done in finished:
                    on_finish(done)
        return self.report()

    # -- reporting -------------------------------------------------------------------

    def report(self) -> ServingReport:
        denominator = self._steps * self.config.max_slots or 1
        report = ServingReport(
            completed=sorted(self._completed, key=lambda r: r.request_id),
            n_steps=self._steps,
            total_tokens=self._tokens,
            slot_utilisation=self._occupied_slot_steps / denominator,
            n_preemptions=self.scheduler.n_preemptions,
            recomputed_tokens=sum(
                r.recomputed_tokens for r in self._completed
            ),
            kv_blocks_total=self.kv.n_blocks,
            peak_kv_blocks=self.kv.peak_blocks_in_use,
            peak_kv_bytes=self.kv.peak_bytes_in_use(),
            slo_ttft=self.config.slo_ttft,
            slo_latency=self.config.slo_latency,
        )
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_serving_slot_utilisation",
                "Mean fraction of decode slots occupied",
            ).set(report.slot_utilisation)
            self.metrics.gauge(
                "repro_serving_kv_blocks_peak",
                "Peak KV blocks in use",
            ).set_max(report.peak_kv_blocks)
            self.metrics.counter(
                "repro_serving_preemptions_total",
                "Sequences preempted under block pressure",
            )
            preempt_counter = self.metrics.get(
                "repro_serving_preemptions_total"
            )
            delta = report.n_preemptions - preempt_counter.value
            if delta > 0:
                preempt_counter.inc(delta)
        return report
