"""Token sampling and auto-regressive generation for TinyLM.

Implements the generation stage of RLHF (§2.1 stage 1): KV-cached incremental
decoding with temperature sampling or greedy decoding (ReMax's variance
reduction uses ``do_sample=False`` for the baseline pass, Figure 6).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from repro.models.autograd import no_grad
from repro.models.tinylm import KVCache, TinyLM


def _softmax_probs(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-scaled sampling distribution per row, ``(batch, vocab)``."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    scaled = logits / temperature
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    probs = np.exp(scaled)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _inverse_cdf_sample(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Batched inverse-CDF draw, bit-exact with per-row ``rng.choice``.

    ``Generator.choice(n, p=row)`` computes ``cdf = row.cumsum();
    cdf /= cdf[-1]`` and returns ``searchsorted(cdf, rng.random(),
    side="right")``.  Replaying exactly those operations across the whole
    batch — cumsum, normalise by the last column, count entries ``<= u``
    (identical to right-sided search on a non-decreasing array) — keeps
    every row's draw bit-identical to the historical per-row loop while
    sampling the batch in one vectorized pass.
    """
    cdf = probs.cumsum(axis=-1)
    cdf /= cdf[:, -1:]
    return (cdf <= uniforms[:, None]).sum(axis=-1).astype(np.int64)


def sample_tokens(
    logits: np.ndarray,
    rng: np.random.Generator,
    temperature: float = 1.0,
    greedy: bool = False,
) -> np.ndarray:
    """Sample one token per row from ``logits`` of shape ``(batch, vocab)``.

    Sampling is a single batched inverse-CDF pass that consumes exactly one
    uniform draw per row from ``rng`` — the same stream consumption, and
    bit-identical output, as the per-row ``rng.choice`` loop it replaced
    (:func:`sample_tokens_reference`, kept as the golden-test oracle).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (batch, vocab), got {logits.shape}")
    if greedy:
        return logits.argmax(axis=-1)
    probs = _softmax_probs(logits, temperature)
    return _inverse_cdf_sample(probs, rng.random(logits.shape[0]))


def sample_tokens_reference(
    logits: np.ndarray,
    rng: np.random.Generator,
    temperature: float = 1.0,
    greedy: bool = False,
) -> np.ndarray:
    """The historical per-row ``rng.choice`` sampler.

    Kept solely as the oracle for the bit-exactness golden tests (and the
    ``sampler_speedup`` measurement in ``repro.perf.bench``); production
    paths use the vectorized :func:`sample_tokens`.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (batch, vocab), got {logits.shape}")
    if greedy:
        return logits.argmax(axis=-1)
    probs = _softmax_probs(logits, temperature)
    out = np.empty(logits.shape[0], dtype=np.int64)
    for i, row in enumerate(probs):
        out[i] = rng.choice(len(row), p=row)
    return out


def sample_tokens_batch(
    logits: np.ndarray,
    rngs: Sequence[np.random.Generator],
    temperature: float = 1.0,
    greedy: bool = False,
) -> np.ndarray:
    """Sample one token per row where each row has its *own* rng stream.

    The serving engine's batched decode path: row ``i`` consumes exactly one
    scalar uniform from ``rngs[i]`` (identical stream consumption to sampling
    that request alone), then the softmax/CDF/search work runs vectorized
    over the whole batch.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (batch, vocab), got {logits.shape}")
    if len(rngs) != logits.shape[0]:
        raise ValueError(
            f"need one rng per row: {len(rngs)} rngs for {logits.shape[0]} rows"
        )
    if greedy:
        return logits.argmax(axis=-1)
    probs = _softmax_probs(logits, temperature)
    uniforms = np.array([rng.random() for rng in rngs])
    return _inverse_cdf_sample(probs, uniforms)


def sampled_log_probs(logits: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Log-prob of ``tokens[i]`` under row ``i`` of ``logits`` ``(batch, vocab)``.

    The untempered log-softmax: what the actor records as the sampled
    token's old log-prob.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return logp[np.arange(logits.shape[0]), tokens]


@dataclasses.dataclass
class GenerationOutput:
    """Result of one generation pass.

    Attributes:
        sequences: Prompt + response token ids, ``(batch, prompt+response)``.
        response_log_probs: Log-prob of each generated token under the
            sampling distribution, ``(batch, response)``.
        prompt_length: Number of prompt tokens (responses start there).
        kv_cache_bytes: Peak KV-cache footprint of the pass, for the memory
            accounting the HybridEngine's offload path uses.
        response_mask: ``(batch, response)`` with 1.0 on real response tokens
            (the EOS token itself included) and 0.0 on post-EOS padding.
            ``None`` when generation ran without an ``eos_token_id`` — every
            slot then emits exactly ``max_new_tokens`` real tokens.
    """

    sequences: np.ndarray
    response_log_probs: np.ndarray
    prompt_length: int
    kv_cache_bytes: int
    response_mask: Optional[np.ndarray] = None

    @property
    def responses(self) -> np.ndarray:
        return self.sequences[:, self.prompt_length :]

    @property
    def response_lengths(self) -> np.ndarray:
        """Real response tokens per sequence, ``(batch,)``."""
        if self.response_mask is None:
            width = self.sequences.shape[1] - self.prompt_length
            return np.full(self.sequences.shape[0], width, dtype=np.int64)
        return self.response_mask.sum(axis=1).astype(np.int64)


def generate(
    model: TinyLM,
    prompts: np.ndarray,
    max_new_tokens: int,
    temperature: float = 1.0,
    greedy: bool = False,
    rng: Optional[np.random.Generator] = None,
    eos_token_id: Optional[int] = None,
    pad_token_id: Optional[int] = None,
) -> GenerationOutput:
    """Auto-regressively extend ``prompts`` by up to ``max_new_tokens`` tokens.

    Uses a real KV cache: the prompt is prefilled once, then each step feeds
    only the newly sampled token — the prefill/decode split whose memory-bound
    decode phase motivates the paper's smaller generation TP sizes (§2.3).

    With ``eos_token_id`` set, a sequence that emits EOS stops producing real
    tokens: subsequent positions are filled with ``pad_token_id`` (defaults
    to the EOS id), their log-probs are zeroed, and ``response_mask`` marks
    the real tokens.  Output stays fixed-width ``(batch, prompt +
    max_new_tokens)`` so DP micro-batches concatenate.  The rng is consumed
    lock-step for finished rows too, keeping each row's sample stream
    independent of the other rows' termination (and the no-EOS behaviour
    bit-identical to before).  Once every row has terminated the decode loop
    exits early — the lock-step analogue of continuous batching's slot
    refill, and the sequential baseline the serving engine is checked
    against.
    """
    if model.config.output_head != "lm":
        raise RuntimeError("generation requires an LM head")
    prompts = np.asarray(prompts, dtype=np.int64)
    if prompts.ndim != 2:
        raise ValueError(f"prompts must be (batch, seq), got {prompts.shape}")
    if max_new_tokens < 1:
        raise ValueError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
    if eos_token_id is not None and not (
        0 <= eos_token_id < model.config.vocab_size
    ):
        raise ValueError(
            f"eos_token_id {eos_token_id} outside vocab "
            f"[0, {model.config.vocab_size})"
        )
    if rng is None:
        rng = np.random.default_rng(0)

    batch, prompt_len = prompts.shape
    # the last sampled token is never fed back, so the cache holds at most
    # prompt_len + max_new_tokens - 1 positions
    cache = KVCache(model.config.n_layers, capacity=prompt_len + max_new_tokens - 1)
    sequences = prompts.copy()
    log_probs = np.zeros((batch, max_new_tokens), dtype=np.float64)
    mask = np.ones((batch, max_new_tokens))
    alive = np.ones(batch, dtype=bool)
    pad = eos_token_id if pad_token_id is None else pad_token_id

    with no_grad():
        logits = model.forward(prompts, cache=cache, pos_offset=0)
        step_logits = logits.data[:, -1, :]
        for step in range(max_new_tokens):
            next_tokens = sample_tokens(
                step_logits, rng, temperature=temperature, greedy=greedy
            )
            step_logp = sampled_log_probs(step_logits, next_tokens)
            if eos_token_id is not None:
                next_tokens = np.where(alive, next_tokens, pad)
                step_logp = np.where(alive, step_logp, 0.0)
                mask[:, step] = alive
                alive = alive & (next_tokens != eos_token_id)
            log_probs[:, step] = step_logp
            sequences = np.concatenate(
                [sequences, next_tokens[:, None]], axis=1
            )
            if step + 1 < max_new_tokens:
                if eos_token_id is not None and not alive.any():
                    # every row terminated: emit padding for the remaining
                    # columns without running the model
                    remaining = max_new_tokens - (step + 1)
                    sequences = np.concatenate(
                        [
                            sequences,
                            np.full((batch, remaining), pad, dtype=sequences.dtype),
                        ],
                        axis=1,
                    )
                    break
                logits = model.forward(
                    next_tokens[:, None],
                    cache=cache,
                    pos_offset=prompt_len + step,
                )
                step_logits = logits.data[:, -1, :]

    return GenerationOutput(
        sequences=sequences,
        response_log_probs=log_probs,
        prompt_length=prompt_len,
        kv_cache_bytes=cache.nbytes(),
        response_mask=mask if eos_token_id is not None else None,
    )
