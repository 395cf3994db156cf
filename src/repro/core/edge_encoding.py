"""Mapping between graph edges and characteristic-vector indices.

Every node's characteristic vector is indexed by the set of possible
edges of the graph (Section 2.2).  All node sketches of one
GraphZeppelin instance must agree on this indexing, otherwise the XOR
of two node sketches would not cancel their shared edge.

The encoding used here is ``index(u, v) = u * V + v`` for the canonical
(``u < v``) orientation of the edge.  It wastes a factor of ~2 of the
index space compared to a triangular encoding, which costs exactly one
extra bucket row per sketch (the row count is logarithmic in the vector
length) but makes decoding a division and a modulo -- cheap and hard to
get wrong, and the recovered index can be validated (``u < v < V``)
before it is trusted, which the query path relies on to reject
corrupted buckets.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.types import Edge


class EdgeEncoder:
    """Encode edges of a ``num_nodes``-node graph as vector indices."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 2:
            raise ConfigurationError("a graph needs at least two nodes")
        self.num_nodes = int(num_nodes)

    @property
    def vector_length(self) -> int:
        """Length of the characteristic vectors (the edge-slot universe)."""
        return self.num_nodes * self.num_nodes

    def encode(self, u: int, v: int) -> int:
        """Vector index of edge ``{u, v}`` (order-insensitive)."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError(f"self loop ({u}, {v}) has no edge slot")
        lo, hi = (u, v) if u < v else (v, u)
        return lo * self.num_nodes + hi

    def decode(self, index: int) -> Edge:
        """Edge for a vector index; raises ``ValueError`` if invalid.

        The validity check (``u < v < V``) is what lets the connectivity
        algorithm reject samples from corrupted sketch buckets.
        """
        if not 0 <= index < self.vector_length:
            raise ValueError(f"index {index} outside edge-slot universe")
        u, v = divmod(index, self.num_nodes)
        if not u < v:
            raise ValueError(f"index {index} does not decode to a canonical edge")
        return (u, v)

    def is_valid_index(self, index: int) -> bool:
        """Whether ``index`` decodes to a legal edge slot."""
        if not 0 <= index < self.vector_length:
            return False
        u, v = divmod(index, self.num_nodes)
        return u < v

    def encode_batch(self, node: int, neighbors: Iterable[int]) -> np.ndarray:
        """Vectorised encoding of edges ``{node, w}`` for a batch of ``w``.

        This is the hot path of batched ingestion: a Graph Worker takes a
        batch of neighbors destined for one node sketch and converts them
        to vector indices in one numpy expression.
        """
        self._check_node(node)
        others = np.asarray(
            neighbors if isinstance(neighbors, np.ndarray) else list(neighbors),
            dtype=np.int64,
        )
        if others.size == 0:
            return np.empty(0, dtype=np.uint64)
        if ((others < 0) | (others >= self.num_nodes) | (others == node)).any():
            raise ValueError("batch contains an endpoint outside the graph or a self loop")
        lo = np.minimum(others, node).astype(np.uint64)
        hi = np.maximum(others, node).astype(np.uint64)
        return lo * np.uint64(self.num_nodes) + hi

    def encode_canonical_pairs(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorised encoding of pre-validated canonical edge pairs.

        Inputs must satisfy ``0 <= lo < hi < num_nodes`` elementwise; the
        columnar ingest path validates and canonicalises its whole edge
        array first and then encodes with this single expression.
        Keeping it here (rather than inlining ``lo * V + hi`` at call
        sites) means the index layout has one owner.
        """
        return lo.astype(np.uint64) * np.uint64(self.num_nodes) + hi.astype(np.uint64)

    def valid_index_mask(self, indices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`is_valid_index` over an index array.

        The whole-round query engine validates every component's sample
        in one expression instead of one Python call per component.
        """
        idx = np.asarray(indices, dtype=np.int64)
        u = idx // np.int64(self.num_nodes)
        v = idx - u * np.int64(self.num_nodes)
        return (idx >= 0) & (idx < self.vector_length) & (u < v)

    def decode_endpoints(self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised decode of pre-validated indices to ``(u, v)`` arrays.

        Callers must filter with :meth:`valid_index_mask` first; invalid
        indices decode to garbage endpoints here (no per-element checks,
        this is the batched hot path).
        """
        idx = np.asarray(indices, dtype=np.int64)
        return np.divmod(idx, np.int64(self.num_nodes))

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside [0, {self.num_nodes})")

    def __repr__(self) -> str:
        return f"EdgeEncoder(num_nodes={self.num_nodes})"
