"""k-edge-connectivity certificates from iterated sketch spanning forests.

The Ahn-Guha-McGregor construction for edge connectivity maintains ``k``
independent connectivity sketches.  At query time it peels spanning
forests: ``F_1`` is a spanning forest of ``G``; the edges of ``F_1`` are
deleted (by linearity, toggling them in the remaining sketches) and
``F_2`` is a spanning forest of ``G - F_1``; and so on.  The union
``F_1 ∪ ... ∪ F_k`` is a *sparse certificate*: a subgraph with at most
``k (V - 1)`` edges that preserves every cut of size up to ``k``.  In
particular

* ``G`` is k-edge-connected  iff  the certificate is k-edge-connected,
* every cut of ``G`` with fewer than ``k`` edges appears with its exact
  edge set in the certificate, so bridges (cut edges) of ``G`` are
  exactly the bridges of the certificate when ``k >= 2``.

This module implements the sketch-side peeling on top of
:class:`~repro.core.graph_zeppelin.GraphZeppelin` plus the exact
post-processing (certificate connectivity, bridges, a min-cut lower
bound check) needed to answer the queries.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import GraphZeppelinConfig
from repro.core.dsu import DisjointSetUnion
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import ConfigurationError
from repro.types import Edge, EdgeUpdate, canonical_edge


@dataclass(frozen=True)
class ConnectivityCertificate:
    """The union of the peeled spanning forests.

    Attributes
    ----------
    num_nodes:
        Node count of the underlying graph.
    k:
        Number of forests peeled (the certificate preserves cuts of size
        up to ``k``).
    forests:
        The individual forests, in peeling order.
    """

    num_nodes: int
    k: int
    forests: Tuple[Tuple[Edge, ...], ...]

    @property
    def edges(self) -> Set[Edge]:
        """All distinct edges of the certificate."""
        return {edge for forest in self.forests for edge in forest}

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        dsu = DisjointSetUnion(self.num_nodes)
        dsu.add_edges(self.edges)
        return dsu.num_components == 1

    def is_k_edge_connected(self, k: Optional[int] = None) -> bool:
        """Whether the certificate is k-edge-connected (k defaults to self.k).

        Uses the exact characterisation on the certificate subgraph: for
        every edge subset of size ``k - 1`` removed... is exponential, so
        instead we use the standard equivalent test via repeated
        global-min-cut lower bounding: the certificate is k-edge-connected
        iff its minimum degree is >= k and removing any single forest
        still leaves it (k-1)-edge-connected.  For the values of ``k``
        used in practice (small constants) we run the exact Stoer-Wagner
        style contraction on the certificate, which has only
        ``O(k V)`` edges.
        """
        target = self.k if k is None else k
        if target < 1:
            raise ValueError("k must be at least 1")
        if target > self.k:
            raise ValueError(
                f"certificate only preserves cuts up to size {self.k}; cannot test k={target}"
            )
        if not self.is_connected():
            return False
        return _min_cut_at_least(self.num_nodes, self.edges, target)

    def bridges(self) -> List[Edge]:
        """Bridges (cut edges) of the certificate.

        When the certificate was built with ``k >= 2`` these are exactly
        the bridges of the original graph restricted to nodes the stream
        connected.
        """
        return _find_bridges(self.num_nodes, self.edges)

    def min_cut_lower_bound(self) -> int:
        """Largest ``c <= k`` such that the certificate is c-edge-connected.

        This equals ``min(k, edge connectivity of G)`` for the connected
        case, and 0 when the certificate (hence the graph) is disconnected.
        """
        if not self.is_connected():
            return 0
        bound = 1
        for candidate in range(2, self.k + 1):
            if _min_cut_at_least(self.num_nodes, self.edges, candidate):
                bound = candidate
            else:
                break
        return bound


class EdgeConnectivitySketch:
    """Dynamic-stream k-edge-connectivity via k independent sketch copies.

    Parameters
    ----------
    num_nodes:
        Number of graph nodes.
    k:
        Number of spanning forests to peel at query time; the certificate
        answers cut questions up to size ``k``.
    config:
        Optional base configuration; copy ``i`` derives its seed from
        ``config.seed`` and ``i`` so the copies are independent.
    """

    def __init__(
        self,
        num_nodes: int,
        k: int = 2,
        config: Optional[GraphZeppelinConfig] = None,
    ) -> None:
        if num_nodes < 2:
            raise ConfigurationError("edge connectivity needs at least two nodes")
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        self.num_nodes = int(num_nodes)
        self.k = int(k)
        base = config or GraphZeppelinConfig()
        self._engines: List[GraphZeppelin] = []
        for copy_index in range(self.k):
            copy_config = GraphZeppelinConfig(
                delta=base.delta,
                buffering=base.buffering,
                gutter_fraction=base.gutter_fraction,
                ram_budget_bytes=base.ram_budget_bytes,
                num_workers=base.num_workers,
                validate_stream=False,
                strict_queries=base.strict_queries,
                seed=(base.seed * 1_000_003 + copy_index) & 0xFFFFFFFF,
            )
            self._engines.append(GraphZeppelin(num_nodes, config=copy_config))
        self._updates_processed = 0

    # ------------------------------------------------------------------
    def edge_update(self, u: int, v: int) -> None:
        """Toggle edge ``{u, v}`` in every sketch copy."""
        u, v = canonical_edge(u, v)
        for engine in self._engines:
            engine.edge_update(u, v)
        self._updates_processed += 1

    def insert(self, u: int, v: int) -> None:
        self.edge_update(u, v)

    def delete(self, u: int, v: int) -> None:
        self.edge_update(u, v)

    def apply_update(self, update: EdgeUpdate) -> None:
        self.edge_update(update.u, update.v)

    def ingest(self, updates: Iterable[EdgeUpdate]) -> int:
        count = 0
        for update in updates:
            self.apply_update(update)
            count += 1
        return count

    # ------------------------------------------------------------------
    def certificate(self) -> ConnectivityCertificate:
        """Peel k spanning forests and return the sparse certificate.

        The peeling deletes each recovered forest from every *later*
        sketch copy (linearity makes a deletion just another toggle), so
        copy ``i`` ends up sketching ``G - F_1 - ... - F_i``.  The copies
        are left in that peeled state; callers that need to continue the
        stream afterwards should re-apply the forests, which
        :meth:`certificate_and_restore` does automatically.
        """
        return self._peel()[0]

    def certificate_and_restore(self) -> ConnectivityCertificate:
        """Like :meth:`certificate`, but leaves the sketches unchanged.

        The peeling toggles are undone afterwards (again by linearity:
        each copy takes the batch it was peeled with once more), so the
        stream can continue and later queries see the full graph.
        """
        certificate, batches = self._peel()
        for engine, batch in zip(self._engines, batches):
            engine.ingest_batch(batch)
        return certificate

    def _peel(self) -> Tuple[ConnectivityCertificate, List[np.ndarray]]:
        """The certificate, and the ``(E, 2)`` toggle batch each copy took.

        Copy ``i`` takes the edge arrays of the forests peeled before it
        as one ``ingest_batch``.
        """
        forests: List[Tuple[Edge, ...]] = []
        batches: List[np.ndarray] = []
        removed = np.empty((0, 2), dtype=np.int64)
        for engine in self._engines:
            engine.ingest_batch(removed)
            batches.append(removed)
            forest = engine.list_spanning_forest()
            forests.append(forest.edges)
            removed = np.concatenate([removed, forest.edge_array])
        certificate = ConnectivityCertificate(
            num_nodes=self.num_nodes, k=self.k, forests=tuple(forests)
        )
        return certificate, batches

    # ------------------------------------------------------------------
    def is_k_edge_connected(self) -> bool:
        """Whether the streamed graph is k-edge-connected (w.h.p.)."""
        return self.certificate_and_restore().is_k_edge_connected()

    def bridges(self) -> List[Edge]:
        """Bridges of the streamed graph (requires ``k >= 2``)."""
        if self.k < 2:
            raise ConfigurationError("bridge finding needs a certificate with k >= 2")
        return self.certificate_and_restore().bridges()

    @property
    def updates_processed(self) -> int:
        return self._updates_processed

    def sketch_bytes(self) -> int:
        return sum(engine.sketch_bytes() for engine in self._engines)

    def __repr__(self) -> str:
        return (
            f"EdgeConnectivitySketch(num_nodes={self.num_nodes}, k={self.k}, "
            f"updates={self._updates_processed})"
        )


# ----------------------------------------------------------------------
# exact post-processing on the (small) certificate
# ----------------------------------------------------------------------
def _find_bridges(num_nodes: int, edges: Iterable[Edge]) -> List[Edge]:
    """Bridges of an undirected graph via iterative Tarjan low-link."""
    adjacency: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    edge_list = list(edges)
    for edge_id, (u, v) in enumerate(edge_list):
        adjacency[u].append((v, edge_id))
        adjacency[v].append((u, edge_id))

    discovery = [-1] * num_nodes
    low = [0] * num_nodes
    bridges: List[Edge] = []
    timer = 0

    for start in range(num_nodes):
        if discovery[start] != -1 or start not in adjacency:
            continue
        # Iterative DFS: stack entries are (node, parent_edge_id, neighbor cursor).
        stack = [(start, -1, iter(adjacency[start]))]
        discovery[start] = low[start] = timer
        timer += 1
        while stack:
            node, parent_edge, neighbors = stack[-1]
            advanced = False
            for neighbor, edge_id in neighbors:
                if edge_id == parent_edge:
                    continue
                if discovery[neighbor] == -1:
                    discovery[neighbor] = low[neighbor] = timer
                    timer += 1
                    stack.append((neighbor, edge_id, iter(adjacency[neighbor])))
                    advanced = True
                    break
                low[node] = min(low[node], discovery[neighbor])
            if advanced:
                continue
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[node])
                if low[node] > discovery[parent]:
                    u, v = edge_list[parent_edge]
                    bridges.append((u, v) if u < v else (v, u))
    return sorted(bridges)


def _min_cut_at_least(num_nodes: int, edges: Set[Edge], k: int) -> bool:
    """Whether every cut separating two *connected* nodes has >= k edges.

    Runs the Stoer-Wagner minimum-cut algorithm restricted to each
    connected component of the certificate (isolated nodes are ignored:
    they carry no cut the certificate is responsible for).
    """
    if k <= 0:
        return True
    # Group edges by component.
    dsu = DisjointSetUnion(num_nodes)
    dsu.add_edges(edges)
    components: Dict[int, List[Edge]] = defaultdict(list)
    for u, v in edges:
        components[dsu.find(u)].append((u, v))
    for component_edges in components.values():
        nodes = sorted({node for edge in component_edges for node in edge})
        if len(nodes) < 2:
            continue
        if _stoer_wagner_min_cut(nodes, component_edges) < k:
            return False
    return True


def _stoer_wagner_min_cut(nodes: List[int], edges: List[Edge]) -> int:
    """Stoer-Wagner global minimum cut (unit edge weights)."""
    index = {node: position for position, node in enumerate(nodes)}
    size = len(nodes)
    weights = [[0] * size for _ in range(size)]
    for u, v in edges:
        weights[index[u]][index[v]] += 1
        weights[index[v]][index[u]] += 1

    active = list(range(size))
    best = float("inf")
    while len(active) > 1:
        # Maximum adjacency ordering.
        in_a = [False] * size
        candidate_weights = [0] * size
        order = []
        for _ in range(len(active)):
            selected = max(
                (node for node in active if not in_a[node]),
                key=lambda node: candidate_weights[node],
            )
            in_a[selected] = True
            order.append(selected)
            for node in active:
                if not in_a[node]:
                    candidate_weights[node] += weights[selected][node]
        last, second_last = order[-1], order[-2]
        best = min(best, candidate_weights[last])
        # Merge the last two nodes of the ordering.
        for node in active:
            if node not in (last, second_last):
                weights[second_last][node] += weights[last][node]
                weights[node][second_last] = weights[second_last][node]
        active.remove(last)
    return int(best)


def find_bridges(num_nodes: int, edges: Iterable[Tuple[int, int]]) -> List[Edge]:
    """Bridges of a static edge list (exact, convenience wrapper)."""
    canonical = {canonical_edge(u, v) for u, v in edges}
    return _find_bridges(num_nodes, canonical)
