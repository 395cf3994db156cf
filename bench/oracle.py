"""Exact connectivity oracle, independent of the program under test.

The live edge set is the XOR parity of every toggle seen so far (an
edge toggled an odd number of times is present), and components come
from an array union-find (min-label hooking plus pointer jumping).
Nothing here imports ``repro``: the program's answers are checked from
their plain outputs -- forest edge tuples or component sets.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set, Tuple

import numpy as np


def component_labels(num_nodes: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``labels[x]`` = smallest node id in ``x``'s component."""
    labels = np.arange(num_nodes, dtype=np.int64)
    while True:
        lu, lv = labels[u], labels[v]
        cut = lu != lv
        if not cut.any():
            return labels
        # Hook the larger root under the smaller one, then flatten.
        np.minimum.at(labels, np.maximum(lu[cut], lv[cut]), np.minimum(lu[cut], lv[cut]))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


class ToggleOracle:
    """Live edge set under toggles, and the exact partition it implies."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = int(num_nodes)
        self._live = np.empty(0, dtype=np.int64)  # sorted canonical edge codes

    def toggle(self, edges: np.ndarray) -> None:
        """Flip every row of an ``(N, 2)`` edge array (repeats cancel)."""
        edges = np.asarray(edges, dtype=np.int64)
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        codes, counts = np.unique(
            np.concatenate([self._live, lo * self.num_nodes + hi]), return_counts=True
        )
        self._live = codes[counts % 2 == 1]

    @property
    def num_live_edges(self) -> int:
        return int(self._live.size)

    def labels(self) -> np.ndarray:
        return component_labels(
            self.num_nodes, self._live // self.num_nodes, self._live % self.num_nodes
        )

    def forest_is_exact(self, forest_edges: Sequence[Tuple[int, int]]) -> bool:
        """Whether ``forest_edges`` is a spanning forest of the live graph.

        Every forest edge must be a live edge, and the partition the
        forest implies must equal the live graph's partition.
        """
        pairs = np.asarray(list(forest_edges), dtype=np.int64).reshape(-1, 2)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        if not np.isin(lo * self.num_nodes + hi, self._live).all():
            return False
        return np.array_equal(component_labels(self.num_nodes, lo, hi), self.labels())

    def partition_is_exact(self, components: Iterable[Set[int]]) -> bool:
        """Whether a list of node sets equals the live graph's partition."""
        claimed = np.full(self.num_nodes, -1, dtype=np.int64)
        for component in components:
            members = np.fromiter(component, dtype=np.int64, count=len(component))
            claimed[members] = members.min()
        return np.array_equal(claimed, self.labels())
