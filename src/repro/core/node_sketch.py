"""Node sketches: one bundle of CubeSketches per graph node.

Each node ``u`` keeps ``ceil(log2 V)`` independent CubeSketches of its
characteristic vector, one for every potential round of Boruvka's
algorithm (the per-round independence is what makes the adaptive
merging sound -- footnote 1 of the paper).  All nodes share the same
hash functions *per round*, which is what makes node sketches of
different nodes addable: XOR-ing the round-``r`` sketches of ``u`` and
``v`` yields the round-``r`` sketch of the symmetric difference of
their edge sets, i.e. the edges crossing the cut ``{u, v}`` vs the rest
of the graph.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.edge_encoding import EdgeEncoder
from repro.exceptions import IncompatibleSketchError
from repro.sketch.cubesketch import CubeSketch
from repro.sketch.geometry import SketchGeometry, round_seed
from repro.sketch.sketch_base import SampleResult


class NodeSketch:
    """The sketch bundle of a single graph node (a "supernode").

    Parameters
    ----------
    node:
        The node id this sketch belongs to (kept for bookkeeping; the
        sketch contents do not depend on it).
    encoder:
        The shared edge-slot encoder of the graph.
    graph_seed:
        Root seed of the owning GraphZeppelin instance.
    geometry:
        Rounds, columns and rows of the bundle; defaults to
        :meth:`SketchGeometry.for_graph` of the encoder's graph.
    """

    def __init__(
        self,
        node: int,
        encoder: EdgeEncoder,
        graph_seed: int = 0,
        geometry: Optional[SketchGeometry] = None,
    ) -> None:
        self.node = int(node)
        self.encoder = encoder
        self.graph_seed = int(graph_seed)
        self.geometry = geometry or SketchGeometry.for_graph(encoder.num_nodes)
        self.num_rounds = self.geometry.rounds
        self.sketches: List[CubeSketch] = [
            CubeSketch(
                encoder.vector_length,
                delta=self.geometry.delta,
                seed=round_seed(self.graph_seed, round_index),
                num_columns=self.geometry.columns,
                num_rows=self.geometry.rows,
            )
            for round_index in range(self.num_rounds)
        ]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def apply_edge(self, other_endpoint: int) -> None:
        """Toggle the edge ``{self.node, other_endpoint}`` in every round."""
        index = self.encoder.encode(self.node, other_endpoint)
        for sketch in self.sketches:
            sketch.update(index)

    def apply_batch(self, neighbors: Iterable[int]) -> None:
        """Toggle a batch of edges ``{self.node, w}`` in every round.

        This is ``update_sketch_batch`` from Figure 8: the batch is
        encoded once and then folded into each round's CubeSketch with
        the vectorised batch update.
        """
        indices = self.encoder.encode_batch(self.node, neighbors)
        if indices.size == 0:
            return
        for sketch in self.sketches:
            sketch.update_batch(indices)

    # ------------------------------------------------------------------
    # queries and merging
    # ------------------------------------------------------------------
    def query_round(self, round_index: int) -> SampleResult:
        """Query the sketch reserved for Boruvka round ``round_index``."""
        return self.sketches[round_index].query()

    def round_sketch(self, round_index: int) -> CubeSketch:
        return self.sketches[round_index]

    def merge(self, other: "NodeSketch") -> None:
        """Fold another node's sketches into this one (supernode merge)."""
        if not self.is_compatible(other):
            raise IncompatibleSketchError(
                "node sketches from different graphs/seeds cannot be merged"
            )
        for mine, theirs in zip(self.sketches, other.sketches):
            mine.merge(theirs)

    def is_compatible(self, other: "NodeSketch") -> bool:
        return (
            isinstance(other, NodeSketch)
            and other.geometry == self.geometry
            and other.graph_seed == self.graph_seed
        )

    def copy(self) -> "NodeSketch":
        clone = NodeSketch.__new__(NodeSketch)
        clone.node = self.node
        clone.encoder = self.encoder
        clone.graph_seed = self.graph_seed
        clone.geometry = self.geometry
        clone.num_rounds = self.num_rounds
        clone.sketches = [sketch.copy() for sketch in self.sketches]
        return clone

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Total payload bytes across all rounds (paper's accounting)."""
        return sum(sketch.size_bytes() for sketch in self.sketches)

    def is_empty(self) -> bool:
        return all(sketch.is_empty() for sketch in self.sketches)

    def __repr__(self) -> str:
        return (
            f"NodeSketch(node={self.node}, rounds={self.num_rounds}, "
            f"bytes={self.size_bytes()})"
        )


def merged_round_sketch(
    node_sketches: Sequence[NodeSketch], round_index: int
) -> CubeSketch:
    """The XOR of the round-``round_index`` sketches of several nodes.

    Used by the Boruvka driver to build a component's cut sketch without
    mutating the per-node sketches (so the stream can continue after a
    query).  This is the inner loop of every Boruvka query, so instead
    of the old copy-then-merge chain (one full bucket-array copy plus
    one XOR pass per member), the members' raw arrays are stacked and
    XOR-reduced in a single numpy reduction.
    """
    if not node_sketches:
        raise ValueError("merged_round_sketch requires at least one node sketch")
    round_sketches = [ns.round_sketch(round_index) for ns in node_sketches]
    first = round_sketches[0]
    if len(round_sketches) == 1:
        return first.copy()
    for sketch in round_sketches[1:]:
        if not first.is_compatible(sketch):
            raise IncompatibleSketchError(
                "cannot merge CubeSketches with different shapes or seeds"
            )
    total = CubeSketch(
        first.vector_length,
        delta=first.delta,
        seed=first.seed,
        num_columns=first.num_columns,
        num_rows=first.num_rows,
    )
    alpha, gamma = zip(*(sketch.raw_arrays() for sketch in round_sketches))
    # The reduce outputs are fresh arrays, so they become the merged
    # sketch's buckets directly -- no per-member or per-array copies.
    total._alpha = np.bitwise_xor.reduce(np.stack(alpha))
    total._gamma = np.bitwise_xor.reduce(np.stack(gamma))
    total._updates_applied = sum(sketch.updates_applied for sketch in round_sketches)
    return total
