"""The gutter tree: leaf gutters behind buffer-tree staging levels.

When even one gutter per node does not fit in RAM, GraphZeppelin falls
back to a *gutter tree* (Section 4.1): a static tree whose root and
internal vertices hold 8 MB buffers with fan-out ``8MB / 16KB = 512``
and whose leaves are the per-node-group gutters.  Updates enter at the
root; when a buffer fills it is flushed to its children (recursively),
and when a leaf gutter fills, its updates are emitted as a batch for
the Graph Workers.

Here the leaves are :class:`~repro.buffering.leaf_gutters.LeafGutters`'
own page gutters, and each internal level is one array of node-range
boundaries.  A vertex flush routes its whole buffer at once: one
``searchsorted`` against the next level's boundaries and one grouping
pass.  The internal buffers stay in RAM; this reproduction does not
write them to the device as the paper's pre-allocated on-disk tree
does.  Instead every vertex flush charges a sequential write of its
bytes, and every leaf emission a sequential read, to the block device's
latency model (:meth:`~repro.memory.hybrid.HybridMemory.charge_write` /
``charge_read``) under a RAM budget, so the I/O counters and modelled
time reflect what the on-SSD structure would pay.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.buffering.base import (
    BYTES_PER_BUFFERED_UPDATE,
    PageBatch,
    as_update_columns,
    group_update_columns,
    page_of_nodes,
)
from repro.buffering.leaf_gutters import LeafGutters, extend_gutter
from repro.exceptions import ConfigurationError
from repro.memory.hybrid import HybridMemory

#: Paper defaults: 8 MB internal buffers flushed in 16 KB blocks.
DEFAULT_BUFFER_BYTES = 8 * 1024 * 1024
DEFAULT_FLUSH_BLOCK_BYTES = 16 * 1024


class GutterTree(LeafGutters):
    """Leaf gutters fed through a buffer tree's staging levels.

    Parameters
    ----------
    num_nodes:
        Number of graph nodes.
    node_sketch_bytes:
        Size of one node sketch; leaf gutters default to twice this size
        (the paper allocates each leaf gutter two node sketches' worth).
    memory:
        Hybrid memory whose device absorbs the modelled buffer traffic.
    buffer_bytes / flush_block_bytes:
        Internal buffer size and flush granularity (paper: 8 MB / 16 KB).
    leaf_fraction:
        Leaf gutter capacity as a fraction of the node-sketch size.
    fanout:
        Children per internal vertex; the default follows
        ``buffer_bytes / flush_block_bytes``.
    page_bounds:
        Node-group page boundaries of the leaf gutters (see
        :class:`~repro.buffering.leaf_gutters.LeafGutters`).
    """

    def __init__(
        self,
        num_nodes: int,
        node_sketch_bytes: int,
        memory: Optional[HybridMemory] = None,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        flush_block_bytes: int = DEFAULT_FLUSH_BLOCK_BYTES,
        leaf_fraction: float = 2.0,
        fanout: Optional[int] = None,
        page_bounds: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(
            num_nodes,
            node_sketch_bytes=node_sketch_bytes,
            fraction=leaf_fraction,
            memory=memory,
            page_bounds=page_bounds,
        )
        if buffer_bytes <= 0 or flush_block_bytes <= 0:
            raise ConfigurationError("buffer sizes must be positive")
        self.fanout = int(fanout) if fanout else max(2, buffer_bytes // flush_block_bytes)
        self._buffer_capacity = max(1, buffer_bytes // BYTES_PER_BUFFERED_UPDATE)
        #: Per internal level, its vertices' node-range boundaries.
        self._levels = self._build_levels()
        #: Per internal level: vertex -> (destination list, neighbor list).
        self._staged: List[Dict[int, Tuple[List[int], List[int]]]] = [
            {} for _ in self._levels
        ]
        self.flush_count = 0

    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of internal levels above the leaf gutters."""
        return len(self._levels)

    def insert(self, u: int, v: int) -> List[PageBatch]:
        self._check_node(u)
        self._check_node(v)
        dsts, neighbors = self._staged[0].setdefault(0, ([], []))
        dsts.append(u)
        neighbors.append(v)
        self._pending += 1
        if len(dsts) >= self._buffer_capacity:
            return self._flush(0, 0)
        return []

    def insert_batch(self, dsts, neighbors) -> List[PageBatch]:
        """Buffer a whole update column at the root in one extend, and
        flush the root (recursively) if that filled it."""
        dst_array, neighbor_array = as_update_columns(dsts, neighbors, self.num_nodes)
        if dst_array.size == 0:
            return []
        self._pending += dst_array.size
        if extend_gutter(self._staged[0], 0, dst_array, neighbor_array) >= self._buffer_capacity:
            return self._flush(0, 0)
        return []

    def flush_all(self) -> List[PageBatch]:
        batches: List[PageBatch] = []
        for depth, staged in enumerate(self._staged):
            for vertex in sorted(staged):
                batches.extend(self._flush(depth, vertex, force=True))
        batches.extend(
            self._emit(page) for page in sorted(self._gutters) if self._gutters[page][0]
        )
        return batches

    # ------------------------------------------------------------------
    def _build_levels(self) -> List[np.ndarray]:
        """The static tree, one boundary array per internal level.

        Each vertex splits its node range into at most ``fanout``
        children of equal span (the last one shorter).  A one-node
        vertex is a single child of itself on the next level, but
        :meth:`_flush` sends its buffer straight to the leaves.  The
        tree stays shallow: the paper's trees have 2-3 levels for
        realistic V.
        """
        depth = max(1, math.ceil(math.log(max(self.num_nodes, 2), self.fanout)))
        levels = [np.array([0, self.num_nodes], dtype=np.int64)]
        while len(levels) < depth and levels[-1][1] - levels[-1][0] > 1:
            bounds = levels[-1].tolist()
            starts: List[int] = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                starts.extend(range(lo, hi, -(-(hi - lo) // self.fanout)))
            levels.append(np.array(starts + [self.num_nodes], dtype=np.int64))
        return levels

    def _flush(self, depth: int, vertex: int, force: bool = False) -> List[PageBatch]:
        """Flush one vertex's buffer to its children, or to the leaves.

        Children that fill are flushed in turn unless ``force`` is set:
        :meth:`flush_all` visits every level itself.
        """
        dsts, neighbors = (
            np.asarray(column, dtype=np.int64) for column in self._staged[depth].pop(vertex)
        )
        self.flush_count += 1
        # Flushes stream the buffer out in flush_block_bytes chunks.
        self._charge(dsts.size * BYTES_PER_BUFFERED_UPDATE, write=True)
        bounds = self._levels[depth]
        if depth + 1 == len(self._levels) or bounds[vertex + 1] - bounds[vertex] <= 1:
            self._pending -= dsts.size  # the leaf fill counts them again
            return self._fill(dsts, neighbors)
        below = self._staged[depth + 1]
        batches: List[PageBatch] = []
        for child, chunks in group_update_columns(
            page_of_nodes(dsts, self._levels[depth + 1]), dsts, neighbors
        ):
            if extend_gutter(below, child, *chunks) >= self._buffer_capacity and not force:
                batches.extend(self._flush(depth + 1, child))
        return batches

    def __repr__(self) -> str:
        return (
            f"GutterTree(num_nodes={self.num_nodes}, fanout={self.fanout}, "
            f"leaf_capacity={self._capacity}, pending={self._pending})"
        )
