"""TinyLM: a decoder-only transformer LM with exact gradients and a KV cache.

Plays the roles of the paper's Llama actors/critics/reference/reward models at
miniature scale.  Architecture mirrors Llama: RMSNorm, SwiGLU MLP, causal
multi-head attention; positions use a learned embedding (RoPE adds nothing at
this scale).  The output head is either a vocabulary projection (``"lm"``,
for actor/reference) or a scalar head (``"scalar"``, for critic/reward/cost —
§2.1: "with the language modeling head replaced by a scalar output head").
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import ModelSpec
from repro.models import autograd as ag
from repro.models.autograd import Tensor


@dataclasses.dataclass(frozen=True)
class TinyLMConfig:
    """Concrete architecture of a TinyLM instance."""

    n_layers: int = 2
    hidden_size: int = 32
    n_heads: int = 4
    ffn_hidden_size: int = 64
    vocab_size: int = 64
    max_seq_len: int = 64
    output_head: str = "lm"  # "lm" or "scalar"
    rms_eps: float = 1e-5

    def __post_init__(self) -> None:
        if self.hidden_size % self.n_heads:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"n_heads {self.n_heads}"
            )
        if self.output_head not in ("lm", "scalar"):
            raise ValueError(f"unknown output head {self.output_head!r}")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.n_heads

    @classmethod
    def from_spec(cls, spec: ModelSpec, output_head: str = "lm") -> "TinyLMConfig":
        return cls(
            n_layers=spec.n_layers,
            hidden_size=spec.hidden_size,
            n_heads=spec.n_heads,
            ffn_hidden_size=spec.ffn_hidden_size,
            vocab_size=spec.vocab_size,
            max_seq_len=spec.max_seq_len,
            output_head=output_head,
        )


def _rms_norm(x: Tensor, weight: Tensor, eps: float) -> Tensor:
    variance = (x * x).mean(axis=-1, keepdims=True)
    return x * ((variance + eps) ** -0.5) * weight


class KVCache:
    """Per-layer cached keys/values for incremental generation.

    Each layer keeps one K and one V buffer of shape ``(batch, n_heads,
    capacity, head_dim)`` — the same layout vLLM pages manage on real
    hardware.  The buffers are allocated on a layer's first append, at
    ``capacity`` positions when given (the most a sequence will ever cache),
    and every later append writes in place after the cached positions.
    Without a capacity, or past it, an append reallocates to fit.
    """

    def __init__(self, n_layers: int, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        self._keys: List[Optional[np.ndarray]] = [None] * n_layers
        self._values: List[Optional[np.ndarray]] = [None] * n_layers
        self._lens: List[int] = [0] * n_layers

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Cache ``k``/``v`` after the layer's cached positions.

        Returns views of the layer's whole cached K and V, new positions
        included.
        """
        start = self._lens[layer]
        end = start + k.shape[2]
        buf = self._keys[layer]
        if buf is None or end > buf.shape[2]:
            shape = k.shape[:2] + (max(end, self.capacity or 0),) + k.shape[3:]
            keys = np.empty(shape, dtype=k.dtype)
            values = np.empty(shape, dtype=v.dtype)
            if buf is not None:
                keys[:, :, :start] = buf[:, :, :start]
                values[:, :, :start] = self._values[layer][:, :, :start]
            self._keys[layer], self._values[layer] = keys, values
        self._keys[layer][:, :, start:end] = k
        self._values[layer][:, :, start:end] = v
        self._lens[layer] = end
        return self._keys[layer][:, :, :end], self._values[layer][:, :, :end]

    @property
    def keys(self) -> List[Optional[np.ndarray]]:
        """Cached keys per layer ``(batch, n_heads, seq, head_dim)``, copied.

        Copies, because later appends write the buffers in place.
        """
        return self._cached(self._keys)

    @property
    def values(self) -> List[Optional[np.ndarray]]:
        """Cached values per layer, copied like :attr:`keys`."""
        return self._cached(self._values)

    def _cached(self, buffers: List[Optional[np.ndarray]]) -> List[Optional[np.ndarray]]:
        return [
            None if buf is None else buf[:, :, :n].copy()
            for buf, n in zip(buffers, self._lens)
        ]

    @property
    def seq_len(self) -> int:
        return self._lens[0]

    def trim(self, seq_len: int) -> None:
        """Forget cached entries beyond position ``seq_len`` in every layer.

        A length reset: the buffers stay allocated and the next append
        overwrites the forgotten positions.  Trimming past the end is a
        no-op.
        """
        if seq_len < 0:
            raise ValueError(f"seq_len must be >= 0, got {seq_len}")
        self._lens = [min(n, seq_len) for n in self._lens]

    def free(self) -> None:
        """Release every buffer (sequence finished or was preempted)."""
        for layer in range(len(self._keys)):
            self._keys[layer] = None
            self._values[layer] = None
            self._lens[layer] = 0

    def nbytes_by_layer(self) -> List[int]:
        """Per-layer K+V bytes of the cached positions (never the capacity)."""
        return [
            0 if k is None else k[:, :, :n].nbytes + v[:, :, :n].nbytes
            for k, v, n in zip(self._keys, self._values, self._lens)
        ]

    def nbytes(self) -> int:
        return sum(self.nbytes_by_layer())


def _append_rows(
    caches: Sequence[KVCache], layer: int, k: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Ragged :meth:`KVCache.append`: row ``i`` goes to ``caches[i]``.

    Each row is written at its own cache's position, then every row's
    cached K/V is gathered into one zero-padded ``(batch, n_heads, width,
    head_dim)`` batch, ``width`` being the longest row.  The batch lives
    for one layer's attention only.
    """
    rows = [
        cache.append(layer, k[i : i + 1], v[i : i + 1])
        for i, cache in enumerate(caches)
    ]
    width = max(row_k.shape[2] for row_k, _row_v in rows)
    shape = (len(rows), k.shape[1], width, k.shape[3])
    keys = np.zeros(shape, dtype=k.dtype)
    values = np.zeros(shape, dtype=v.dtype)
    for i, (row_k, row_v) in enumerate(rows):
        keys[i, :, : row_k.shape[2]] = row_k[0]
        values[i, :, : row_v.shape[2]] = row_v[0]
    return keys, values


class TinyLM:
    """The model: a parameter dict plus forward/generation methods."""

    def __init__(
        self,
        config: TinyLMConfig,
        params: Optional[Dict[str, Tensor]] = None,
        seed: int = 0,
    ) -> None:
        self.config = config
        if params is None:
            params = self._init_params(config, seed)
        self.params = params

    # -- parameter management ---------------------------------------------------

    @staticmethod
    def _init_params(config: TinyLMConfig, seed: int) -> Dict[str, Tensor]:
        rng = np.random.default_rng(seed)
        h, f, v = config.hidden_size, config.ffn_hidden_size, config.vocab_size

        def init(shape: Tuple[int, ...], scale: Optional[float] = None) -> Tensor:
            if scale is None:
                scale = 1.0 / np.sqrt(shape[0])
            return Tensor(
                rng.normal(0.0, scale, size=shape), requires_grad=True
            )

        params: Dict[str, Tensor] = {
            "embed.weight": init((v, h), scale=0.02),
            "pos_embed.weight": init((config.max_seq_len, h), scale=0.02),
            "final_norm.weight": Tensor(np.ones(h), requires_grad=True),
        }
        for i in range(config.n_layers):
            prefix = f"layers.{i}"
            params[f"{prefix}.attn_norm.weight"] = Tensor(
                np.ones(h), requires_grad=True
            )
            params[f"{prefix}.attn.wq"] = init((h, h))
            params[f"{prefix}.attn.wk"] = init((h, h))
            params[f"{prefix}.attn.wv"] = init((h, h))
            params[f"{prefix}.attn.wo"] = init((h, h))
            params[f"{prefix}.mlp_norm.weight"] = Tensor(
                np.ones(h), requires_grad=True
            )
            params[f"{prefix}.mlp.w_gate"] = init((h, f))
            params[f"{prefix}.mlp.w_up"] = init((h, f))
            params[f"{prefix}.mlp.w_down"] = init((f, h))
        if config.output_head == "lm":
            params["lm_head.weight"] = init((h, v))
        else:
            params["value_head.weight"] = init((h, 1))
        return params

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def named_parameters(self) -> Dict[str, Tensor]:
        return self.params

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def param_bytes(self) -> int:
        return sum(p.data.nbytes for p in self.params.values())

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(state)
        extra = set(state) - set(self.params)
        if missing or extra:
            raise ValueError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"extra={sorted(extra)}"
            )
        for name, arr in state.items():
            if self.params[name].data.shape != arr.shape:
                raise ValueError(
                    f"shape mismatch for {name}: model "
                    f"{self.params[name].data.shape} vs state {arr.shape}"
                )
            self.params[name].data = np.asarray(arr, dtype=np.float64).copy()

    def clone(self) -> "TinyLM":
        """Deep-copy the model (used to spawn the frozen reference policy)."""
        clone = TinyLM(self.config, params={}, seed=0)
        clone.params = {
            name: Tensor(p.data.copy(), requires_grad=True)
            for name, p in self.params.items()
        }
        return clone

    # -- forward ------------------------------------------------------------------

    def _attention(
        self,
        x: Tensor,
        layer: int,
        cache: Union[KVCache, Sequence[KVCache], None],
        positions: np.ndarray,
    ) -> Tensor:
        cfg = self.config
        b, t, h = x.shape
        nh, hd = cfg.n_heads, cfg.head_dim
        p = self.params
        prefix = f"layers.{layer}.attn"

        def split_heads(proj: Tensor) -> Tensor:
            return proj.reshape(b, t, nh, hd).transpose(0, 2, 1, 3)

        q = split_heads(x @ p[f"{prefix}.wq"])
        k = split_heads(x @ p[f"{prefix}.wk"])
        v = split_heads(x @ p[f"{prefix}.wv"])

        if cache is not None:
            if isinstance(cache, KVCache):
                k_data, v_data = cache.append(layer, k.data, v.data)
            else:
                k_data, v_data = _append_rows(cache, layer, k.data, v.data)
            k = Tensor(k_data)
            v = Tensor(v_data)
        kv_len = k.shape[2]

        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(hd))
        # causal mask on absolute positions: key j is visible to a query at
        # position p iff j <= p — the same rule hides a ragged batch's
        # padding, which sits past every real key of its row
        mask = np.arange(kv_len) > positions[..., None]  # True = masked out
        if positions.ndim == 2:
            mask = mask[:, None]  # per-row positions: broadcast over heads
        scores = scores + Tensor(np.where(mask, -1e9, 0.0))
        attn = ag.softmax(scores, axis=-1)
        out = attn @ v  # (b, nh, t, hd)
        out = out.transpose(0, 2, 1, 3).reshape(b, t, h)
        return out @ p[f"{prefix}.wo"]

    def _mlp(self, x: Tensor, layer: int) -> Tensor:
        p = self.params
        prefix = f"layers.{layer}.mlp"
        gate = (x @ p[f"{prefix}.w_gate"]).silu()
        up = x @ p[f"{prefix}.w_up"]
        return (gate * up) @ p[f"{prefix}.w_down"]

    def _trunk(
        self,
        token_ids: np.ndarray,
        cache: Union[KVCache, Sequence[KVCache], None] = None,
        pos_offset: Union[int, np.ndarray] = 0,
    ) -> Tensor:
        cfg = self.config
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError(f"token_ids must be (batch, seq), got {token_ids.shape}")
        b, t = token_ids.shape
        offsets = np.asarray(pos_offset, dtype=np.int64)
        if offsets.ndim == 0:
            positions = np.arange(int(offsets), int(offsets) + t)
        else:
            if (
                offsets.shape != (b,)
                or cache is None
                or isinstance(cache, KVCache)
                or [c.seq_len for c in cache] != offsets.tolist()
            ):
                raise ValueError(
                    "per-row pos_offset needs one KVCache per row, each "
                    "holding exactly that row's offset in positions"
                )
            positions = offsets[:, None] + np.arange(t)
        if int(offsets.max()) + t > cfg.max_seq_len:
            raise ValueError(
                f"sequence length {int(offsets.max()) + t} exceeds max_seq_len "
                f"{cfg.max_seq_len}"
            )
        x = ag.embedding(self.params["embed.weight"], token_ids) + ag.embedding(
            self.params["pos_embed.weight"], positions
        )
        for layer in range(cfg.n_layers):
            normed = _rms_norm(
                x, self.params[f"layers.{layer}.attn_norm.weight"], cfg.rms_eps
            )
            x = x + self._attention(normed, layer, cache, positions)
            normed = _rms_norm(
                x, self.params[f"layers.{layer}.mlp_norm.weight"], cfg.rms_eps
            )
            x = x + self._mlp(normed, layer)
        return _rms_norm(x, self.params["final_norm.weight"], cfg.rms_eps)

    def forward(
        self,
        token_ids: np.ndarray,
        cache: Union[KVCache, Sequence[KVCache], None] = None,
        pos_offset: Union[int, np.ndarray] = 0,
    ) -> Tensor:
        """Logits ``(batch, seq, vocab)`` or values ``(batch, seq)``.

        ``pos_offset`` is the position of the first token: one int for the
        whole batch, or one per row together with one :class:`KVCache` per
        row in ``cache`` — the ragged decode of rows whose caches hold
        different lengths.
        """
        x = self._trunk(token_ids, cache=cache, pos_offset=pos_offset)
        if self.config.output_head == "lm":
            return x @ self.params["lm_head.weight"]
        values = x @ self.params["value_head.weight"]
        b, t, _one = values.shape
        return values.reshape(b, t)

    __call__ = forward

    # -- LM conveniences -------------------------------------------------------------

    def token_log_probs(self, token_ids: np.ndarray) -> Tensor:
        """Log-prob of each next token: out ``(batch, seq-1)``.

        ``out[:, i] = log p(token[i+1] | token[:i+1])``.
        """
        if self.config.output_head != "lm":
            raise RuntimeError("token_log_probs requires an LM head")
        token_ids = np.asarray(token_ids, dtype=np.int64)
        logits = self.forward(token_ids[:, :-1])
        logp = ag.log_softmax(logits, axis=-1)
        return ag.gather_last(logp, token_ids[:, 1:])

    def values(self, token_ids: np.ndarray) -> Tensor:
        """Scalar head output per position ``(batch, seq)``."""
        if self.config.output_head != "scalar":
            raise RuntimeError("values() requires a scalar head")
        return self.forward(token_ids)

    def sequence_reward(self, token_ids: np.ndarray) -> Tensor:
        """Sample-level score: scalar head at the final position ``(batch,)``."""
        values = self.values(token_ids)
        return values[:, -1]
