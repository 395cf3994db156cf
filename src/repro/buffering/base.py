"""Common types and column helpers for the buffering layer.

The gutters key their buffers by node-group *page* (a contiguous node
range; one node per page unless the caller passes ``page_bounds``) and
emit one batch type, :class:`PageBatch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

#: Bytes one buffered update occupies: two 32-bit node ids, matching the
#: "2B to encode an edge" style accounting the paper uses for buffers.
BYTES_PER_BUFFERED_UPDATE = 8


@dataclass(slots=True)
class PageBatch:
    """A batch of buffered updates bound for one node-group page.

    The gutters' emission unit: a *mixed-node* update column -- update
    ``i`` toggles edge ``{dsts[i], neighbors[i]}`` in ``dsts[i]``'s
    sketch -- whose destinations all fall inside the page's node range
    ``[node_lo, node_hi)``.  The engine folds the whole column through
    the columnar fold kernel in **one page pin** instead of one sketch
    round trip per node, which is what makes out-of-core flushes pay
    block-device I/O per page rather than per node.
    """

    page: int
    node_lo: int
    node_hi: int
    dsts: np.ndarray
    neighbors: np.ndarray

    def __len__(self) -> int:
        return int(self.dsts.size)

    @property
    def size_bytes(self) -> int:
        return len(self) * BYTES_PER_BUFFERED_UPDATE


def as_update_columns(
    dsts, neighbors, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a pair of update columns and return them as int64 arrays.

    Shared prologue of every vectorised ``insert_batch``: both columns
    must be matching 1-D arrays of node ids inside ``[0, num_nodes)``.
    """
    dst_array = np.asarray(dsts, dtype=np.int64)
    neighbor_array = np.asarray(neighbors, dtype=np.int64)
    if dst_array.shape != neighbor_array.shape or dst_array.ndim != 1:
        raise ValueError("dsts and neighbors must be matching one-dimensional arrays")
    for column in (dst_array, neighbor_array):
        if column.size and ((column < 0) | (column >= num_nodes)).any():
            raise ValueError(f"node outside [0, {num_nodes})")
    return dst_array, neighbor_array


def group_update_columns(
    keys: np.ndarray, *columns: np.ndarray
) -> Iterator[Tuple[int, Tuple[np.ndarray, ...]]]:
    """Yield ``(key, column_chunks)`` groups of parallel update columns.

    One stable argsort of ``keys`` (non-negative ids: a page or a tree
    vertex), then contiguous segments -- the single grouping pass behind
    every gutter fill, tree routing step and paged fold.  Keys that fit
    int16 sort as int16, which numpy's stable sort radix-sorts.
    """
    if keys.size == 0:
        return
    if keys.max() <= np.iinfo(np.int16).max:
        order = np.argsort(keys.astype(np.int16), kind="stable")
    else:
        order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # One gather per column up front; every group is then a zero-copy
    # contiguous slice (a flush can yield thousands of groups).
    sorted_columns = [column[order] for column in columns]
    cuts = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [sorted_keys.size]))
    for start, end in zip(starts.tolist(), ends.tolist()):
        yield int(sorted_keys[start]), tuple(
            column[start:end] for column in sorted_columns
        )


def page_of_nodes(nodes: np.ndarray, page_bounds: np.ndarray) -> np.ndarray:
    """Map node ids to the index of the owning node-group page."""
    return np.searchsorted(page_bounds, nodes, side="right") - 1


def gutter_capacity_updates(
    node_sketch_bytes: int,
    fraction: float,
    minimum: int = 1,
) -> int:
    """Capacity (in updates) of a gutter sized as a fraction of a node sketch.

    The paper sizes leaf gutters as a constant factor ``f`` of the node
    sketch size (Section 6.5, Figure 15); this helper converts that
    fraction into a whole number of buffered updates.
    """
    if node_sketch_bytes <= 0:
        raise ValueError("node_sketch_bytes must be positive")
    if fraction <= 0:
        raise ValueError("fraction must be positive")
    return max(minimum, int(fraction * node_sketch_bytes / BYTES_PER_BUFFERED_UPDATE))
