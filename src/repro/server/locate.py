"""Batched block location for the vectorized serving path.

The scalar scheduler resolves one ``BlockId -> physical disk`` per read;
the vectorized round loop resolves a whole round at once through a
*batch locator*: arrays of ``(object_id, block_index)`` in, an ``int64``
array of physical disk ids out.

Two implementations:

* :class:`SequentialBatchLocator` wraps any scalar locator (the array
  inventory by default).  It is always semantics-preserving — including
  mid-migration, when a block's bytes are not yet where the backend says
  they belong — but loops per block, so it only removes the per-call
  dispatch overhead of the scalar path.
* :class:`BackendBatchLocator` computes placements wholesale through the
  backend's ``locate_batch`` kernel over cached per-object ``X0``
  arrays.  This is the millions-of-reads/sec path; it assumes the
  inventory agrees with the computed placement (no scaling operation in
  flight), exactly like :meth:`CMServer.block_location`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from repro.storage.block import BlockId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.server.cmserver import CMServer


class BatchLocator(Protocol):
    """Resolves a batch of blocks to physical disk ids."""

    def locate_physical(
        self, object_ids: np.ndarray, block_indices: np.ndarray
    ) -> np.ndarray:
        """Physical disk id per ``(object_ids[i], block_indices[i])``."""
        ...


class SequentialBatchLocator:
    """Batch adapter over a scalar ``BlockId -> physical`` locator.

    The semantic oracle: whatever the scalar path would have resolved,
    block by block, this returns as one array.
    """

    def __init__(self, locate: Callable[[BlockId], int]):
        self._locate = locate

    def locate_physical(
        self, object_ids: np.ndarray, block_indices: np.ndarray
    ) -> np.ndarray:
        locate = self._locate
        return np.fromiter(
            (
                locate(BlockId(oid, index))
                for oid, index in zip(object_ids.tolist(), block_indices.tolist())
            ),
            dtype=np.int64,
            count=object_ids.shape[0],
        )


class BackendBatchLocator:
    """Computed placement through the backend's vectorized kernel.

    Caches each object's ``X0`` sequence as a ``uint64`` array on first
    touch (the catalog's seeded sequence is the source of truth, same as
    :meth:`CMServer._x0_of`), groups the batch by object, and resolves
    logical disks with one ``locate_batch`` call.  A reshuffle re-seeds
    every sequence, so the cache is keyed on the server's reshuffle
    count and drops itself when that moves.
    """

    def __init__(self, server: "CMServer"):
        self.server = server
        self._x0_cache: dict[int, np.ndarray] = {}
        self._x0_reshuffles = server.reshuffles

    def _x0_array(self, object_id: int) -> np.ndarray:
        if self._x0_reshuffles != self.server.reshuffles:
            self._x0_cache.clear()
            self._x0_reshuffles = self.server.reshuffles
        cached = self._x0_cache.get(object_id)
        if cached is None:
            server = self.server
            media = server.catalog.get(object_id)
            cached = np.fromiter(
                (
                    server.block_x0(object_id, index)
                    for index in range(media.num_blocks)
                ),
                dtype=np.uint64,
                count=media.num_blocks,
            )
            self._x0_cache[object_id] = cached
        return cached

    def locate_physical(
        self, object_ids: np.ndarray, block_indices: np.ndarray
    ) -> np.ndarray:
        server = self.server
        n = object_ids.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64)
        x0s = np.empty(n, dtype=np.uint64)
        order = np.argsort(object_ids, kind="stable")
        sorted_oids = object_ids[order]
        boundaries = np.flatnonzero(np.diff(sorted_oids)) + 1
        for group in np.split(order, boundaries):
            oid = int(object_ids[group[0]])
            x0s[group] = self._x0_array(oid)[block_indices[group]]
        ids = None
        if server.backend.requires_ids:
            ids = [
                BlockId(oid, index)
                for oid, index in zip(object_ids.tolist(), block_indices.tolist())
            ]
        logical = server.backend.locate_batch(ids, x0s)
        table = np.asarray(server.array.physical_ids, dtype=np.int64)
        return table[logical]
