"""Leaf-only gutters: one update buffer per node group.

This is the buffering structure GraphZeppelin uses when RAM is
plentiful (``M > V * B``): gutters sized as a fraction ``f`` of the
node-sketch size, filled directly by ``buffer_insert`` and emitted as a
batch the moment they fill (Section 5.1).

The gutters are keyed by **node-group page**: each gutter collects the
mixed-node update column of one contiguous node range of
``page_bounds`` and emits a :class:`~repro.buffering.base.PageBatch`
sized to amortise a single page pin of the paged tensor pool (capacity
scales with the page's node count, so total buffered bytes match the
per-node sizing) -- one fold kernel pass per flush, one block-device
round trip per *page* out of core.  Without ``page_bounds`` every node
is its own one-node page (the paper's per-node gutters).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.buffering.base import (
    PageBatch,
    as_update_columns,
    group_update_columns,
    gutter_capacity_updates,
    page_of_nodes,
)
from repro.exceptions import ConfigurationError
from repro.memory.hybrid import HybridMemory


class LeafGutters:
    """Per-page update gutters kept in RAM: the one buffering interface.

    :class:`~repro.buffering.gutter_tree.GutterTree` is these gutters
    behind staging levels; the engine sees only this class's methods.

    Parameters
    ----------
    num_nodes:
        Number of graph nodes (gutters are created lazily, so sparse use
        of the id space costs nothing).
    node_sketch_bytes:
        Size of one node sketch; together with ``fraction`` it fixes the
        per-node gutter capacity.  The paper's default is half a node
        sketch.
    fraction:
        Gutter size as a fraction of the node-sketch size.
    capacity_updates:
        Explicit per-node capacity in updates, overriding
        ``node_sketch_bytes``/``fraction`` (used by the buffer-size
        sweep benchmark, where capacity 1 means "no buffering").
    memory:
        Optional hybrid memory; when provided, each emitted batch
        charges a sequential read of its own bytes, modelling gutters
        that have been swapped to SSD.
    page_bounds:
        ``num_pages + 1`` ascending node-range boundaries: gutters are
        keyed per page and capacities scale with each page's node
        count.  Defaults to one-node pages.
    """

    def __init__(
        self,
        num_nodes: int,
        node_sketch_bytes: int = 0,
        fraction: float = 0.5,
        capacity_updates: Optional[int] = None,
        memory: Optional[HybridMemory] = None,
        page_bounds: Optional[np.ndarray] = None,
    ) -> None:
        if num_nodes < 1:
            raise ConfigurationError("num_nodes must be at least 1")
        if capacity_updates is not None:
            if capacity_updates < 1:
                raise ConfigurationError("capacity_updates must be at least 1")
            self._capacity = int(capacity_updates)
        else:
            if node_sketch_bytes <= 0:
                raise ConfigurationError(
                    "node_sketch_bytes must be positive when capacity_updates is not given"
                )
            self._capacity = gutter_capacity_updates(node_sketch_bytes, fraction)
        self.num_nodes = int(num_nodes)
        self.memory = memory
        self._bounds = (
            np.asarray(page_bounds, dtype=np.int64)
            if page_bounds is not None
            else np.arange(self.num_nodes + 1, dtype=np.int64)
        )
        # Python-list twin of the bounds for the scalar insert path:
        # bisect on a list is ~10x cheaper per update than a scalar
        # numpy searchsorted call.
        self._bounds_list = self._bounds.tolist()
        #: page -> (destination list, neighbor list)
        self._gutters: Dict[int, Tuple[List[int], List[int]]] = {}
        self._pending = 0

    # ------------------------------------------------------------------
    @property
    def capacity_per_node(self) -> int:
        """Updates a single node's gutter holds before it is emitted."""
        return self._capacity

    def _page_of(self, node: int) -> int:
        return bisect_right(self._bounds_list, node) - 1

    def _page_capacity(self, page: int) -> int:
        return self._capacity * int(self._bounds[page + 1] - self._bounds[page])

    def insert(self, u: int, v: int) -> List[PageBatch]:
        """Buffer the update ``{u, v}`` for node ``u``.

        Returns the (possibly empty) list of batches that became full as
        a result and must now be folded into the sketches.  The caller
        is responsible for also inserting the mirrored update
        ``(v, u)`` -- :meth:`insert_edge` does both.
        """
        self._check_node(u)
        self._check_node(v)
        page = self._page_of(u)
        dsts, neighbors = self._gutters.setdefault(page, ([], []))
        dsts.append(u)
        neighbors.append(v)
        self._pending += 1
        if len(dsts) >= self._page_capacity(page):
            return [self._emit(page)]
        return []

    def insert_edge(self, u: int, v: int) -> List[PageBatch]:
        """Buffer both directions of an edge update (the public entry point)."""
        batches = self.insert(u, v)
        batches.extend(self.insert(v, u))
        return batches

    def insert_batch(self, dsts, neighbors) -> List[PageBatch]:
        """Buffer a column of single-direction updates at once.

        ``dsts[i]`` receives the update ``{dsts[i], neighbors[i]}``; the
        columnar ingest path passes both mirrored halves of its edge
        array in one call.  Emission semantics match the scalar path: a
        gutter that reaches capacity is emitted whole (batches may
        exceed capacity when a chunk overshoots it, which only makes
        the emitted batches larger -- the sketch fold is partition
        independent).
        """
        return self._fill(*as_update_columns(dsts, neighbors, self.num_nodes))

    def _fill(self, dsts: np.ndarray, neighbors: np.ndarray) -> List[PageBatch]:
        """Extend the page gutters with validated int64 columns, in one
        grouping pass, and emit every gutter that reached capacity."""
        self._pending += dsts.size
        batches: List[PageBatch] = []
        for page, chunks in group_update_columns(
            page_of_nodes(dsts, self._bounds), dsts, neighbors
        ):
            if extend_gutter(self._gutters, page, *chunks) >= self._page_capacity(page):
                batches.append(self._emit(page))
        return batches

    def flush_all(self) -> List[PageBatch]:
        """Empty every gutter, returning all remaining non-empty batches."""
        return [self._emit(page) for page in sorted(self._gutters) if self._gutters[page][0]]

    def restore(self, batches: List[PageBatch]) -> None:
        """Put emitted-but-unapplied batches back into their gutters.

        The engine's failure-atomic flush depends on this:
        :meth:`flush_all` pops updates out of the buffers *before* they
        are applied, so an application that dies partway (a rotten page
        read, a failed device write) would silently lose the unapplied
        tail if its batches could not be returned.  Restored gutters may
        temporarily exceed capacity -- that only makes the next emission
        larger, which the partition-independent sketch fold absorbs.
        """
        for batch in batches:
            extend_gutter(self._gutters, batch.page, batch.dsts, batch.neighbors)
            self._pending += len(batch)

    def pending_updates(self) -> int:
        """Number of updates currently sitting in buffers."""
        return self._pending

    def pending_for(self, node: int) -> int:
        """Updates currently buffered for one node (for tests/inspection)."""
        gutter = self._gutters.get(self._page_of(node))
        if gutter is None:
            return 0
        return sum(1 for dst in gutter[0] if dst == node)

    def _emit(self, page: int) -> PageBatch:
        dsts, neighbors = self._gutters.pop(page, ([], []))
        self._pending -= len(dsts)
        batch = PageBatch(
            page=page,
            node_lo=int(self._bounds[page]),
            node_hi=int(self._bounds[page + 1]),
            dsts=np.asarray(dsts, dtype=np.int64),
            neighbors=np.asarray(neighbors, dtype=np.int64),
        )
        # Gutters that overflowed RAM live on disk; emitting the batch
        # reads it back sequentially.
        self._charge(batch.size_bytes, write=False)
        return batch

    def _charge(self, nbytes: int, write: bool) -> None:
        """Charge modelled buffer traffic to the device, under a RAM budget."""
        if self.memory is None or self.memory.is_unbounded:
            return
        if write:
            self.memory.charge_write(nbytes, sequential=True)
        else:
            self.memory.charge_read(nbytes, sequential=True)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside [0, {self.num_nodes})")

    def __repr__(self) -> str:
        return (
            f"LeafGutters(num_nodes={self.num_nodes}, capacity={self._capacity}, "
            f"pages={self._bounds.size - 1}, pending={self._pending})"
        )


def extend_gutter(
    gutters: Dict[int, Tuple[List[int], List[int]]],
    key: int,
    dsts: np.ndarray,
    neighbors: np.ndarray,
) -> int:
    """Append update columns to the ``key`` gutter of ``gutters``; its new length."""
    gutter_dsts, gutter_neighbors = gutters.setdefault(key, ([], []))
    gutter_dsts.extend(dsts.tolist())
    gutter_neighbors.extend(neighbors.tolist())
    return len(gutter_dsts)
