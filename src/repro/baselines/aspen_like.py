"""A simplified Aspen-style dynamic graph store.

Aspen (Dhulipala et al., PLDI 2019) keeps the graph in compressed
purely-functional trees and applies updates in batches that contain
only insertions or only deletions.  This stand-in reproduces the parts
of that design the paper's evaluation depends on:

* a batch-update API (``batch_insert`` / ``batch_delete``) -- the paper
  feeds Aspen batches of 10^6 updates of a single type,
* a compressed in-RAM representation costing a handful of bytes per
  directed edge (sorted numpy arrays of neighbor ids, delta-encoded for
  the space accounting),
* exact connectivity queries (BFS over the adjacency structure),
* out-of-core behaviour: when the structure grows past its RAM budget,
  every touched vertex list is charged random block I/O against the
  hybrid-memory substrate, which is what makes the real system's
  ingestion collapse once it no longer fits in RAM (Figure 12).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.baselines.space_models import ASPEN_BYTES_PER_DIRECTED_EDGE, ASPEN_BYTES_PER_VERTEX
from repro.core.spanning_forest import SpanningForest
from repro.exceptions import ConfigurationError
from repro.memory.hybrid import HybridMemory
from repro.types import Edge, canonical_edge


class AspenLike:
    """Batch-parallel dynamic graph store with Aspen's space profile.

    Parameters
    ----------
    num_nodes:
        Number of nodes.
    ram_budget_bytes:
        Optional RAM budget; once the structure's modelled size exceeds
        it, vertex accesses are charged random I/O on ``memory``.
    memory:
        Hybrid memory used for the out-of-core accounting (created on
        demand if a budget is given without one).
    """

    def __init__(
        self,
        num_nodes: int,
        ram_budget_bytes: Optional[int] = None,
        memory: Optional[HybridMemory] = None,
    ) -> None:
        if num_nodes < 1:
            raise ConfigurationError("num_nodes must be at least 1")
        self.num_nodes = int(num_nodes)
        self.ram_budget_bytes = ram_budget_bytes
        if memory is not None:
            self.memory = memory
        elif ram_budget_bytes is not None:
            self.memory = HybridMemory(ram_bytes=ram_budget_bytes)
        else:
            self.memory = None
        self._adjacency: Dict[int, Set[int]] = {}
        self._num_edges = 0
        self.batches_applied = 0

    # ------------------------------------------------------------------
    # batch updates (the native Aspen interface)
    # ------------------------------------------------------------------
    def batch_insert(self, edges: Sequence[Edge]) -> int:
        """Insert a batch of edges; duplicates are ignored. Returns #applied."""
        applied = 0
        touched: Set[int] = set()
        for u, v in edges:
            u, v = canonical_edge(u, v)
            self._check_node(v)
            if v in self._adjacency.get(u, ()):
                continue
            self._adjacency.setdefault(u, set()).add(v)
            self._adjacency.setdefault(v, set()).add(u)
            self._num_edges += 1
            applied += 1
            touched.add(u)
            touched.add(v)
        self._charge_batch(touched)
        self.batches_applied += 1
        return applied

    def batch_delete(self, edges: Sequence[Edge]) -> int:
        """Delete a batch of edges; absent edges are ignored. Returns #applied."""
        applied = 0
        touched: Set[int] = set()
        for u, v in edges:
            u, v = canonical_edge(u, v)
            self._check_node(v)
            if v not in self._adjacency.get(u, ()):
                continue
            self._adjacency[u].discard(v)
            self._adjacency[v].discard(u)
            self._num_edges -= 1
            applied += 1
            touched.add(u)
            touched.add(v)
        self._charge_batch(touched)
        self.batches_applied += 1
        return applied

    def insert(self, u: int, v: int) -> None:
        self.batch_insert([(u, v)])

    def delete(self, u: int, v: int) -> None:
        self.batch_delete([(u, v)])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        u, v = canonical_edge(u, v)
        return v in self._adjacency.get(u, ())

    def degree(self, node: int) -> int:
        return len(self._adjacency.get(node, ()))

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def neighbors(self, node: int) -> List[int]:
        return sorted(self._adjacency.get(node, ()))

    def connected_components(self) -> List[Set[int]]:
        return self.spanning_forest().components()

    def spanning_forest(self) -> SpanningForest:
        """Exact spanning forest via BFS from every unvisited node."""
        if self.memory is not None and self._oversubscribed():
            # A full traversal touches every vertex list; charge one
            # random read per vertex whose list lives on disk.
            self.memory.charge_read(self.size_bytes(), sequential=False)
        visited = [False] * self.num_nodes
        forest_edges: List[Edge] = []
        for start in range(self.num_nodes):
            if visited[start]:
                continue
            visited[start] = True
            queue = deque([start])
            while queue:
                node = queue.popleft()
                for neighbor in self._adjacency.get(node, ()):
                    if not visited[neighbor]:
                        visited[neighbor] = True
                        forest_edges.append(canonical_edge(node, neighbor))
                        queue.append(neighbor)
        return SpanningForest.from_edges(self.num_nodes, forest_edges, complete=True)

    def list_spanning_forest(self) -> SpanningForest:
        return self.spanning_forest()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Modelled size: Aspen's compressed-tree space profile."""
        return int(
            self.num_nodes * ASPEN_BYTES_PER_VERTEX
            + 2 * self._num_edges * ASPEN_BYTES_PER_DIRECTED_EDGE
        )

    @property
    def io_stats(self):
        return self.memory.stats if self.memory is not None else None

    def __repr__(self) -> str:
        return f"AspenLike(num_nodes={self.num_nodes}, edges={self._num_edges})"

    # ------------------------------------------------------------------
    def _oversubscribed(self) -> bool:
        return (
            self.ram_budget_bytes is not None
            and self.size_bytes() > self.ram_budget_bytes
        )

    def _charge_batch(self, touched: Iterable[int]) -> None:
        """Charge I/O for the vertex lists a batch touched when out of core."""
        if self.memory is None or not self._oversubscribed():
            return
        overflow_fraction = 1.0 - self.ram_budget_bytes / max(self.size_bytes(), 1)
        for node in touched:
            # Each touched vertex list is read and rewritten; only the
            # fraction of the structure that no longer fits in RAM pays.
            nbytes = ASPEN_BYTES_PER_VERTEX + self.degree(node) * ASPEN_BYTES_PER_DIRECTED_EDGE
            charged = int(nbytes * overflow_fraction)
            if charged <= 0:
                continue
            self.memory.charge_read(charged, sequential=False)
            self.memory.charge_write(charged, sequential=False)

    def _check_node(self, node: int) -> None:
        if node >= self.num_nodes:
            raise ValueError(f"node {node} outside [0, {self.num_nodes})")
