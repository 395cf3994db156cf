"""The gutter tree: a simplified buffer tree for out-of-core buffering.

When even one gutter per node does not fit in RAM, GraphZeppelin falls
back to a *gutter tree* (Section 4.1): a static tree whose root and
internal vertices hold 8 MB buffers with fan-out ``8MB / 16KB = 512``
and whose leaves are the per-node-group gutters.  Updates enter at the
root; when a buffer fills it is flushed to its children (recursively),
and when a leaf gutter fills, its updates are emitted as a batch for
the Graph Workers.

The tree in this reproduction keeps update payloads in Python lists
(the source of truth) and mirrors every parent-to-child flush and leaf
read onto the simulated block device via
:meth:`~repro.memory.hybrid.HybridMemory.charge_write` /
``charge_read``, so the I/O counters and modelled time reflect what the
on-SSD structure would pay.  This is the substitution documented in
DESIGN.md for the paper's pre-allocated on-disk buffer tree.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.buffering.base import (
    BYTES_PER_BUFFERED_UPDATE,
    BufferingSystem,
    PageBatch,
    as_update_columns,
    gutter_capacity_updates,
)
from repro.exceptions import ConfigurationError
from repro.memory.hybrid import HybridMemory

import numpy as np

#: Paper defaults: 8 MB internal buffers flushed in 16 KB blocks.
DEFAULT_BUFFER_BYTES = 8 * 1024 * 1024
DEFAULT_FLUSH_BLOCK_BYTES = 16 * 1024


@dataclass
class _TreeNode:
    """One vertex of the gutter tree."""

    depth: int
    #: Child tree nodes (empty for the level directly above the leaves).
    children: List["_TreeNode"] = field(default_factory=list)
    #: Buffered (node, neighbor) pairs awaiting a flush.
    buffer: List[tuple] = field(default_factory=list)
    #: Range of graph nodes this subtree is responsible for.
    node_lo: int = 0
    node_hi: int = 0


class GutterTree(BufferingSystem):
    """Buffer tree whose leaves are per-node-group gutters.

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
        Node-group page boundaries: the leaves are per-*page* gutters
        emitting :class:`~repro.buffering.base.PageBatch` mixed-node
        columns (capacity scaled by the page's node count).  Defaults
        to one-node pages.
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
        if num_nodes < 1:
            raise ConfigurationError("num_nodes must be at least 1")
        if node_sketch_bytes <= 0:
            raise ConfigurationError("node_sketch_bytes must be positive")
        if buffer_bytes <= 0 or flush_block_bytes <= 0:
            raise ConfigurationError("buffer sizes must be positive")

        self.num_nodes = int(num_nodes)
        self.node_sketch_bytes = int(node_sketch_bytes)
        self.memory = memory
        self.buffer_bytes = int(buffer_bytes)
        self.flush_block_bytes = int(flush_block_bytes)
        self.fanout = int(fanout) if fanout else max(2, buffer_bytes // flush_block_bytes)
        self._buffer_capacity = max(1, buffer_bytes // BYTES_PER_BUFFERED_UPDATE)
        self._leaf_capacity = gutter_capacity_updates(node_sketch_bytes, leaf_fraction)
        self._bounds = (
            np.asarray(page_bounds, dtype=np.int64)
            if page_bounds is not None
            else np.arange(self.num_nodes + 1, dtype=np.int64)
        )
        # Python-list twin of the bounds: the leaf-flush loop maps one
        # node per update, and bisect on a list is ~10x cheaper than a
        # scalar numpy searchsorted call.
        self._bounds_list = self._bounds.tolist()

        #: leaf page -> (destination list, neighbor list)
        self._leaf_gutters: Dict[int, Tuple[List[int], List[int]]] = {}
        self._pending = 0
        self._root = self._build_tree()
        self.flush_count = 0

    # ------------------------------------------------------------------
    @property
    def capacity_per_node(self) -> int:
        return self._leaf_capacity

    @property
    def height(self) -> int:
        """Number of internal levels above the leaf gutters."""
        height = 1
        node = self._root
        while node.children:
            height += 1
            node = node.children[0]
        return height

    def insert(self, u: int, v: int) -> List[PageBatch]:
        self._check_node(u)
        self._check_node(v)
        self._root.buffer.append((u, v))
        self._pending += 1
        if len(self._root.buffer) >= self._buffer_capacity:
            return self._flush_node(self._root)
        return []

    def insert_batch(self, dsts, neighbors) -> List[PageBatch]:
        """Buffer a whole update column at the root in one extend.

        The root buffer is the only structure the scalar path touches
        per update, so the batched path validates the columns
        vectorised, extends the root once, and flushes (recursively) if
        the extension crossed the capacity.
        """
        dst_array, neighbor_array = as_update_columns(dsts, neighbors, self.num_nodes)
        if dst_array.size == 0:
            return []
        self._root.buffer.extend(
            zip(dst_array.tolist(), neighbor_array.tolist())
        )
        self._pending += int(dst_array.size)
        if len(self._root.buffer) >= self._buffer_capacity:
            return self._flush_node(self._root)
        return []

    def flush_all(self) -> List[PageBatch]:
        batches = self._flush_node(self._root, force=True)
        for page in sorted(self._leaf_gutters):
            if self._leaf_gutters[page][0]:
                batches.append(self._emit_leaf(page))
        return batches

    def restore(self, batches: List[PageBatch]) -> None:
        # Restored updates go straight to the leaf gutters (the tree
        # stages above only exist to batch the journey down; these
        # updates already completed it once).
        for batch in batches:
            leaf_dsts, leaf_neighbors = self._leaf_gutters.setdefault(
                batch.page, ([], [])
            )
            leaf_dsts.extend(batch.dsts.tolist())
            leaf_neighbors.extend(batch.neighbors.tolist())
            self._pending += len(batch)

    def pending_updates(self) -> int:
        return self._pending

    def _page_of(self, node: int) -> int:
        return bisect_right(self._bounds_list, node) - 1

    def _leaf_capacity_for(self, page: int) -> int:
        return self._leaf_capacity * int(self._bounds[page + 1] - self._bounds[page])

    # ------------------------------------------------------------------
    def _build_tree(self) -> _TreeNode:
        """Build the static tree over node-group leaves."""
        root = _TreeNode(depth=0, node_lo=0, node_hi=self.num_nodes)
        # Number of leaves needed if each internal vertex covers `fanout`
        # children; keep the tree shallow (the paper's trees have 2-3
        # levels for realistic V).
        levels = max(1, math.ceil(math.log(max(self.num_nodes, 2), self.fanout)))
        frontier = [root]
        for depth in range(1, levels):
            next_frontier: List[_TreeNode] = []
            for parent in frontier:
                span = parent.node_hi - parent.node_lo
                if span <= 1:
                    continue
                child_span = max(1, math.ceil(span / self.fanout))
                lo = parent.node_lo
                while lo < parent.node_hi:
                    hi = min(parent.node_hi, lo + child_span)
                    child = _TreeNode(depth=depth, node_lo=lo, node_hi=hi)
                    parent.children.append(child)
                    next_frontier.append(child)
                    lo = hi
            frontier = next_frontier
            if not frontier:
                break
        return root

    def _flush_node(self, node: _TreeNode, force: bool = False) -> List[PageBatch]:
        """Flush a vertex's buffer to its children (or leaf gutters)."""
        if not node.buffer:
            batches: List[PageBatch] = []
            if force:
                for child in node.children:
                    batches.extend(self._flush_node(child, force=True))
            return batches

        self.flush_count += 1
        flushed = node.buffer
        node.buffer = []
        self._charge_flush(len(flushed))

        batches = []
        if node.children:
            for u, v in flushed:
                child = self._child_for(node, u)
                child.buffer.append((u, v))
            for child in node.children:
                if force or len(child.buffer) >= self._buffer_capacity:
                    batches.extend(self._flush_node(child, force=force))
        else:
            for u, v in flushed:
                page = self._page_of(u)
                dsts, neighbors = self._leaf_gutters.setdefault(page, ([], []))
                dsts.append(u)
                neighbors.append(v)
                if len(dsts) >= self._leaf_capacity_for(page):
                    batches.append(self._emit_leaf(page))
        return batches

    def _child_for(self, node: _TreeNode, graph_node: int) -> _TreeNode:
        for child in node.children:
            if child.node_lo <= graph_node < child.node_hi:
                return child
        raise AssertionError(f"graph node {graph_node} not covered by tree vertex")

    def _emit_leaf(self, page: int) -> PageBatch:
        dsts, neighbors = self._leaf_gutters.pop(page, ([], []))
        self._pending -= len(dsts)
        batch = PageBatch(
            page=page,
            node_lo=int(self._bounds[page]),
            node_hi=int(self._bounds[page + 1]),
            dsts=np.asarray(dsts, dtype=np.int64),
            neighbors=np.asarray(neighbors, dtype=np.int64),
        )
        if self.memory is not None:
            # Reading the leaf gutter back from disk before applying it.
            self.memory.charge_read(batch.size_bytes, sequential=True)
        return batch

    def _charge_flush(self, num_updates: int) -> None:
        if self.memory is None:
            return
        nbytes = num_updates * BYTES_PER_BUFFERED_UPDATE
        # Flushes stream the buffer out in flush_block_bytes chunks.
        self.memory.charge_write(nbytes, sequential=True)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside [0, {self.num_nodes})")

    def __repr__(self) -> str:
        return (
            f"GutterTree(num_nodes={self.num_nodes}, fanout={self.fanout}, "
            f"leaf_capacity={self._leaf_capacity}, pending={self._pending})"
        )
