"""Disjoint set union (union-find) with path compression and union by size.

Boruvka's algorithm (both the sketch version and the exact baselines)
tracks which nodes have already been merged into the same connected
component; the DSU answers that in effectively-constant amortised time
per operation.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Set


class DisjointSetUnion:
    """Union-find over the node ids ``0 .. num_nodes - 1``."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        self.num_nodes = int(num_nodes)
        self._parent = list(range(num_nodes))
        self._size = [1] * num_nodes
        self._num_components = num_nodes

    # ------------------------------------------------------------------
    def find(self, node: int) -> int:
        """Representative of ``node``'s component (with path compression)."""
        root = node
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[node] != root:
            self._parent[node], node = root, self._parent[node]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the components of ``a`` and ``b``.

        Returns ``True`` when a merge happened, ``False`` when the two
        nodes were already in the same component.
        """
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        self._num_components -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    # ------------------------------------------------------------------
    @property
    def num_components(self) -> int:
        return self._num_components

    def component_size(self, node: int) -> int:
        return self._size[self.find(node)]

    def roots(self) -> List[int]:
        """All current component representatives."""
        return [node for node in range(self.num_nodes) if self.find(node) == node]

    def components(self) -> List[Set[int]]:
        """The full partition as a list of node sets (sorted by minimum node)."""
        groups: Dict[int, Set[int]] = defaultdict(set)
        for node in range(self.num_nodes):
            groups[self.find(node)].add(node)
        return sorted(groups.values(), key=min)

    def component_labels(self) -> List[int]:
        """A label per node; two nodes share a label iff connected."""
        return [self.find(node) for node in range(self.num_nodes)]

    def add_edges(self, edges: Iterable[tuple]) -> None:
        """Union across an iterable of ``(u, v)`` pairs."""
        for u, v in edges:
            self.union(u, v)

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        return f"DisjointSetUnion(num_nodes={self.num_nodes}, components={self._num_components})"
