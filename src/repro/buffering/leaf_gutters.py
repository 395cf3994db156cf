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
    BufferingSystem,
    PageBatch,
    as_update_columns,
    group_update_columns,
    gutter_capacity_updates,
    page_of_nodes,
)
from repro.exceptions import ConfigurationError
from repro.memory.hybrid import HybridMemory


class LeafGutters(BufferingSystem):
    """Per-page update gutters kept in RAM.

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
        return self._capacity

    def _page_of(self, node: int) -> int:
        return bisect_right(self._bounds_list, node) - 1

    def _page_capacity(self, page: int) -> int:
        return self._capacity * int(self._bounds[page + 1] - self._bounds[page])

    def insert(self, u: int, v: int) -> List[PageBatch]:
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

    def insert_batch(self, dsts, neighbors) -> List[PageBatch]:
        """Vectorised buffering of a whole update column.

        Groups the column by owning gutter with one argsort and extends
        each gutter with its contiguous chunk, instead of one Python
        call per update.  Emission semantics match the scalar path: a
        gutter that reaches capacity is emitted whole (batches may
        exceed capacity when a chunk overshoots it, which only makes
        the emitted batches larger -- the sketch fold is partition
        independent).
        """
        dst_array, neighbor_array = as_update_columns(dsts, neighbors, self.num_nodes)
        if dst_array.size == 0:
            return []
        keys = page_of_nodes(dst_array, self._bounds)
        batches: List[PageBatch] = []
        for page, (dst_chunk, neighbor_chunk) in group_update_columns(
            keys, dst_array, neighbor_array
        ):
            gutter_dsts, gutter_neighbors = self._gutters.setdefault(page, ([], []))
            gutter_dsts.extend(dst_chunk.tolist())
            gutter_neighbors.extend(neighbor_chunk.tolist())
            self._pending += dst_chunk.size
            if len(gutter_dsts) >= self._page_capacity(page):
                batches.append(self._emit(page))
        return batches

    def flush_all(self) -> List[PageBatch]:
        batches = [
            self._emit(page) for page in sorted(self._gutters) if self._gutters[page][0]
        ]
        return [batch for batch in batches if len(batch) > 0]

    def restore(self, batches: List[PageBatch]) -> None:
        for batch in batches:
            gutter_dsts, gutter_neighbors = self._gutters.setdefault(
                batch.page, ([], [])
            )
            gutter_dsts.extend(batch.dsts.tolist())
            gutter_neighbors.extend(batch.neighbors.tolist())
            self._pending += len(batch)

    def pending_updates(self) -> int:
        return self._pending

    def pending_for(self, node: int) -> int:
        """Updates currently buffered for one node (for tests/inspection)."""
        gutter = self._gutters.get(self._page_of(node))
        if gutter is None:
            return 0
        return sum(1 for dst in gutter[0] if dst == node)

    # ------------------------------------------------------------------
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
        if self.memory is not None and not self.memory.is_unbounded:
            # Gutters that overflowed RAM live on disk; emitting the batch
            # reads it back sequentially.
            self.memory.charge_read(batch.size_bytes, sequential=True)
        return batch

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside [0, {self.num_nodes})")

    def __repr__(self) -> str:
        return (
            f"LeafGutters(num_nodes={self.num_nodes}, capacity={self._capacity}, "
            f"pages={self._bounds.size - 1}, pending={self._pending})"
        )
