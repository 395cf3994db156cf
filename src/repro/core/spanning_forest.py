"""The result type returned by connectivity queries.

Problem 1 of the paper asks for an insert-only edge stream defining a
spanning forest of the streamed graph; :class:`SpanningForest` is that
edge set plus convenience views (component partition, connectivity
predicate) derived from it.

The forest is held as two read-only int64 arrays: ``edge_array``, the
``(E, 2)`` edges in merge order, and ``labels``, one component label per
node (the Boruvka driver's final union-find roots).  Every partition
view answers from ``labels`` with numpy; the ``edges`` tuple is built on
first read and cached, so a caller that only asks about components
never pays one Python object per edge.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from repro.core.dsu import DisjointSetUnion
from repro.types import Edge


class SpanningForest:
    """A spanning forest of a graph over ``num_nodes`` nodes.

    Attributes
    ----------
    num_nodes:
        Number of nodes in the underlying graph.
    edge_array:
        The forest edges as a read-only ``(E, 2)`` int64 array
        (canonical orientation, no duplicates).
    labels:
        A read-only int64 component label per node; two nodes share a
        label iff the forest connects them.
    complete:
        ``False`` when the sketch algorithm exhausted its Boruvka rounds
        before merging stopped (probability polynomially small); in that
        case the forest may be missing edges and the component partition
        is an over-refinement of the true one.

    Equality compares ``num_nodes``, the edges (in order) and
    ``complete``.
    """

    __slots__ = ("num_nodes", "edge_array", "labels", "complete", "_edges")

    def __init__(
        self, num_nodes: int, edges: Sequence[Edge], complete: bool = True
    ) -> None:
        edges = tuple(edges)
        dsu = DisjointSetUnion(num_nodes)
        for u, v in edges:
            dsu.union(u, v)
        if len(edges) != num_nodes - dsu.num_components:
            raise ValueError(
                "edge set contains a cycle or duplicate edges: "
                f"{len(edges)} edges for {num_nodes - dsu.num_components} merges"
            )
        self._adopt(
            num_nodes,
            np.asarray(edges, dtype=np.int64).reshape(-1, 2),
            np.asarray(dsu.component_labels(), dtype=np.int64),
            complete,
        )
        self._edges = edges

    def _adopt(
        self, num_nodes: int, edge_array: np.ndarray, labels: np.ndarray, complete: bool
    ) -> None:
        edge_array.flags.writeable = False
        labels.flags.writeable = False
        self.num_nodes = int(num_nodes)
        self.edge_array = edge_array
        self.labels = labels
        self.complete = bool(complete)
        self._edges = None

    @classmethod
    def from_prevalidated(
        cls,
        num_nodes: int,
        edge_array: np.ndarray,
        labels: np.ndarray,
        complete: bool = True,
    ) -> "SpanningForest":
        """Adopt the arrays a Boruvka driver built (no checks, no copies).

        The caller guarantees ``edge_array`` is a C-contiguous ``(E, 2)``
        int64 array of canonical, unique, acyclic edges and ``labels`` an
        int64 array giving every node the root of its component under
        exactly those unions; the forest freezes and owns both.
        """
        forest = object.__new__(cls)
        forest._adopt(num_nodes, edge_array, labels, complete)
        return forest

    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: Sequence[Edge], complete: bool = True
    ) -> "SpanningForest":
        """Build a forest, deduplicating and canonicalising edge tuples."""
        canonical = []
        seen = set()
        for u, v in edges:
            edge = (u, v) if u < v else (v, u)
            if edge not in seen:
                seen.add(edge)
                canonical.append(edge)
        return cls(num_nodes=num_nodes, edges=tuple(canonical), complete=complete)

    # ------------------------------------------------------------------
    @property
    def edges(self) -> Tuple[Edge, ...]:
        """The forest edges as ``(u, v)`` tuples (built on first read)."""
        if self._edges is None:
            self._edges = tuple(zip(*self.edge_array.T.tolist()))
        return self._edges

    @property
    def num_components(self) -> int:
        return self.num_nodes - len(self.edge_array)

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    def connected(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are in the same component of the forest."""
        self._check_node(u)
        self._check_node(v)
        return bool(self.labels[u] == self.labels[v])

    def components(self) -> List[Set[int]]:
        """The node partition as a list of sets (sorted by minimum node)."""
        # Few numpy calls (right after a query numpy's code is cold); the
        # sort is stable, so a label segment's first node is its minimum.
        if not self.num_nodes:
            return []
        order = np.argsort(self.labels, kind="stable")
        ordered = self.labels[order]
        nodes = order.tolist()
        bounds = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), len(nodes)]
        segments = sorted(zip(bounds, bounds[1:]), key=lambda segment: nodes[segment[0]])
        return [set(nodes[start:end]) for start, end in segments]

    def component_of(self, node: int) -> FrozenSet[int]:
        """The component containing ``node``."""
        self._check_node(node)
        return frozenset(np.flatnonzero(self.labels == self.labels[node]).tolist())

    def _check_node(self, node: int) -> None:
        """Reject node ids the label array would silently wrap."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside [0, {self.num_nodes})")

    def component_labels(self) -> List[int]:
        """A label per node; two nodes share a label iff connected."""
        return self.labels.tolist()

    def partition_signature(self) -> FrozenSet[FrozenSet[int]]:
        """A hashable form of the partition, convenient for comparisons."""
        return frozenset(frozenset(component) for component in self.components())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpanningForest):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.complete == other.complete
            and np.array_equal(self.edge_array, other.edge_array)
        )

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.edges, self.complete))

    def __repr__(self) -> str:
        return (
            f"SpanningForest(num_nodes={self.num_nodes}, edges={self.edges!r}, "
            f"complete={self.complete})"
        )

    def __iter__(self):
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edge_array)
