"""Experience buffer keyed by policy version for the async pipeline.

Each entry is one iteration's generated experience, tagged with the policy
version that *behaved* (generated) it.  The buffer's capacity bounds how far
the rollout engine can run ahead of the trainer — the structural enforcement
of the staleness window.  Entries serialize losslessly (dtype-preserving),
so a checkpoint taken mid-overlap restores the in-flight experience and the
resumed run is bit-exact with an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List

import numpy as np

from repro.data.batch import LINEAGE_KEY, DataBatch


class BufferFull(RuntimeError):
    """The rollout engine ran further ahead than the buffer allows."""


class StalenessWindowMismatch(ValueError):
    """A checkpoint's buffered experience exceeds the restoring window."""


@dataclasses.dataclass
class Experience:
    """One iteration's rollout: the batch plus its behaviour-policy tag."""

    index: int
    version: int
    batch: DataBatch


class ExperienceBuffer:
    """Bounded store of in-flight experience, indexed by iteration."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: Dict[int, Experience] = {}
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._entries)

    def indices(self) -> List[int]:
        return sorted(self._entries)

    def put(self, index: int, version: int, batch: DataBatch) -> None:
        if len(self._entries) >= self.capacity:
            raise BufferFull(
                f"experience buffer full ({self.capacity} slots, pending "
                f"{self.indices()}); the staleness window cannot exceed "
                "capacity - 1"
            )
        if index in self._entries:
            raise ValueError(f"iteration {index} is already buffered")
        self._entries[index] = Experience(index, version, batch)
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))

    def pop(self, index: int) -> Experience:
        try:
            return self._entries.pop(index)
        except KeyError:
            raise KeyError(
                f"iteration {index} not buffered; have {self.indices()}"
            ) from None

    def version_of(self, index: int) -> int:
        return self._entries[index].version

    # -- checkpointing ---------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """JSON-sanitizable snapshot preserving every column's exact dtype."""
        entries = []
        for index in self.indices():
            entry = self._entries[index]
            columns = {
                name: {
                    "data": arr.tolist(),
                    "dtype": str(arr.dtype),
                    "shape": list(arr.shape),
                }
                for name, arr in entry.batch.tensors.items()
            }
            meta = {
                k: v for k, v in entry.batch.meta.items() if k != LINEAGE_KEY
            }
            entries.append(
                {
                    "index": entry.index,
                    "version": entry.version,
                    "columns": columns,
                    "meta": meta,
                }
            )
        return {"capacity": self.capacity, "entries": entries}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore buffered experience bit-exactly.

        The buffer keeps its own capacity: the saved one belongs to the
        window the checkpoint was taken under.  Lineage meta is *not*
        restored: the saved record seqs referenced the pre-restart trace
        and would be dangling edges in the recovered controller's
        happens-before graph.
        """
        if len(state["entries"]) > self.capacity:
            raise BufferFull(
                f"checkpoint holds {len(state['entries'])} buffered rollouts, "
                f"more than this buffer's {self.capacity} slots"
            )
        self._entries = {}
        for raw in state["entries"]:
            columns = {
                name: np.asarray(
                    col["data"], dtype=np.dtype(col["dtype"])
                ).reshape(col["shape"])
                for name, col in raw["columns"].items()
            }
            batch = DataBatch(columns, meta=dict(raw["meta"]))
            index = int(raw["index"])
            self._entries[index] = Experience(
                index=index, version=int(raw["version"]), batch=batch
            )
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))


__all__ = ["BufferFull", "Experience", "ExperienceBuffer", "StalenessWindowMismatch"]
