"""Paged KV-cache block manager (the vLLM [36] discipline, simulated).

The paper's generation stage "leverages vLLM's continuous batching and paged
KV-cache memory management" (§2.3): instead of reserving a contiguous
``max_seq_len`` KV region per slot, the cache is carved into fixed-size
*blocks* of ``block_size`` token positions, and every sequence holds a block
table that grows one block at a time as it decodes.  Fragmentation drops
from per-sequence worst-case to at most one partial block per sequence, so
many more sequences fit the same device memory.

This manager tracks the *accounting* half of that design exactly: a free
pool of block ids, per-request block tables, reserve/release, and a charge
against a :class:`repro.cluster.SimDevice` memory ledger under a named tag —
so block exhaustion and simulated-device OOM are the same budget viewed at
two granularities.  The token payloads themselves live in each request's
:class:`repro.models.tinylm.KVCache` (one dense buffer per layer, allocated
at the request's capacity and written in place; the one-forward decode
gathers the running rows into a padded batch per layer); the block manager
decides *whether they may exist*, which is all the scheduler needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.device import SimDevice
from repro.models.tinylm import TinyLMConfig

#: numpy float64 — the repo-wide model dtype.
DTYPE_BYTES = 8


class BlockExhausted(RuntimeError):
    """Raised when a reservation cannot be satisfied from the free pool."""

    def __init__(self, requested: int, free: int, total: int) -> None:
        self.requested = requested
        self.free = free
        self.total = total
        super().__init__(
            f"KV block pool exhausted: requested {requested} blocks, "
            f"{free} free of {total}"
        )


def kv_bytes_per_token(config: TinyLMConfig, dtype_bytes: int = DTYPE_BYTES) -> int:
    """Bytes of K+V cache one token position costs across all layers."""
    return 2 * config.n_layers * config.n_heads * config.head_dim * dtype_bytes


class PagedKVCache:
    """Fixed-size KV block pool with per-request block tables.

    Args:
        config: Model architecture (fixes the per-token KV footprint).
        block_size: Token positions per block.
        n_blocks: Total blocks in the pool.
        device: Optional simulated device; when given, ``blocks_in_use *
            bytes_per_block`` is charged to its memory ledger under ``tag``
            after every reserve/release, so the pool shows up in the same
            OOM accounting as params/grads/optimizer state.
        tag: Ledger tag for the charge.
    """

    def __init__(
        self,
        config: TinyLMConfig,
        block_size: int = 16,
        n_blocks: int = 64,
        device: Optional[SimDevice] = None,
        tag: str = "serving/kv_blocks",
    ) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
        self.config = config
        self.block_size = block_size
        self.n_blocks = n_blocks
        self.bytes_per_block = kv_bytes_per_token(config) * block_size
        self.device = device
        self.tag = tag
        # pop() hands out low block ids first — deterministic tables
        self._free: List[int] = list(range(n_blocks - 1, -1, -1))
        self._tables: Dict[int, List[int]] = {}
        self.peak_blocks_in_use = 0

    # -- queries ---------------------------------------------------------------------

    @property
    def blocks_in_use(self) -> int:
        return self.n_blocks - len(self._free)

    @property
    def blocks_free(self) -> int:
        return len(self._free)

    def bytes_in_use(self) -> int:
        return self.blocks_in_use * self.bytes_per_block

    def peak_bytes_in_use(self) -> int:
        return self.peak_blocks_in_use * self.bytes_per_block

    def blocks_needed(self, n_tokens: int) -> int:
        """Blocks covering ``n_tokens`` cached positions (ceiling division)."""
        if n_tokens < 0:
            raise ValueError(f"n_tokens must be >= 0, got {n_tokens}")
        return -(-n_tokens // self.block_size)

    def block_table(self, request_id: int) -> List[int]:
        """The request's current block ids (copy; empty when unknown)."""
        return list(self._tables.get(request_id, ()))

    def can_reserve(self, request_id: int, n_tokens: int) -> bool:
        """Whether growing the request's table to ``n_tokens`` would succeed."""
        held = len(self._tables.get(request_id, ()))
        return self.blocks_needed(n_tokens) - held <= len(self._free)

    # -- mutation --------------------------------------------------------------------

    def reserve(self, request_id: int, n_tokens: int) -> None:
        """Grow the request's block table to cover ``n_tokens`` positions.

        Idempotent for already-covered lengths; raises
        :class:`BlockExhausted` (leaving state untouched) when the free pool
        cannot supply the extra blocks.
        """
        table = self._tables.setdefault(request_id, [])
        extra = self.blocks_needed(n_tokens) - len(table)
        if extra <= 0:
            return
        if extra > len(self._free):
            raise BlockExhausted(extra, len(self._free), self.n_blocks)
        for _ in range(extra):
            table.append(self._free.pop())
        self._charge()

    def release(self, request_id: int) -> int:
        """Return all of the request's blocks to the pool; count released."""
        table = self._tables.pop(request_id, [])
        self._free.extend(reversed(table))
        self._charge()
        return len(table)

    def _charge(self) -> None:
        self.peak_blocks_in_use = max(self.peak_blocks_in_use, self.blocks_in_use)
        if self.device is not None:
            self.device.memory.resize(self.tag, self.bytes_in_use())

    def __repr__(self) -> str:
        return (
            f"PagedKVCache({self.blocks_in_use}/{self.n_blocks} blocks in "
            f"use, block_size={self.block_size}, "
            f"{len(self._tables)} tables)"
        )
