"""StreamingCC: the Ahn--Guha--McGregor baseline built on general l0-samplers.

Section 3 of the paper argues that emulating Boruvka with the best
*general-purpose* l0-sampler is infeasibly slow and large in practice:
every stream update performs ``O(log V * log 1/delta)`` modular
exponentiations, and the per-node sketches are roughly four times
larger than CubeSketches.  This class is that baseline, implemented
faithfully so the Figure 4/5 comparisons (and the ablation benchmarks)
can measure it directly.

The characteristic vectors here live over the integers (entries in
``{-1, 0, +1}``): for edge ``(u, v)`` with ``u < v`` an insertion adds
``+1`` to ``f_u`` and ``-1`` to ``f_v``, so summing the node vectors of
a component cancels its internal edges -- exactly Section 2.2.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

from repro.core.boruvka import (
    BoruvkaStats,
    batch_sampler_from_scalar,
    vectorized_spanning_forest,
)
from repro.core.edge_encoding import EdgeEncoder
from repro.core.spanning_forest import SpanningForest
from repro.hashing.prng import derive_seed
from repro.sketch.geometry import SketchGeometry
from repro.sketch.sketch_base import SampleResult
from repro.sketch.standard_l0 import StandardL0Sketch
from repro.types import Edge, EdgeUpdate, UpdateType, canonical_edge

_ROUND_SEED_LABEL = 0x53434343  # "SCCC"


class StreamingCC:
    """Streaming connected components over general-purpose l0-samplers.

    The public surface mirrors :class:`~repro.core.graph_zeppelin.GraphZeppelin`
    (``insert`` / ``delete`` / ``list_spanning_forest``) so benchmarks
    and tests can drive both through the same code.
    """

    def __init__(
        self,
        num_nodes: int,
        delta: float = 0.01,
        seed: int = 0,
    ) -> None:
        self.num_nodes = int(num_nodes)
        self.delta = float(delta)
        self.seed = int(seed)
        self.encoder = EdgeEncoder(self.num_nodes)
        geometry = SketchGeometry.for_graph(self.num_nodes, delta)
        self.num_rounds = geometry.rounds
        # sketches[node][round]
        self._sketches: List[List[StandardL0Sketch]] = [
            [
                StandardL0Sketch(
                    self.encoder.vector_length,
                    delta=delta,
                    seed=derive_seed(self.seed, _ROUND_SEED_LABEL, round_index),
                    num_columns=geometry.columns,
                    num_rows=geometry.rows,
                )
                for round_index in range(self.num_rounds)
            ]
            for _ in range(self.num_nodes)
        ]
        self._updates_processed = 0
        self._last_query_stats: Optional[BoruvkaStats] = None

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def insert(self, u: int, v: int) -> None:
        self._apply(canonical_edge(u, v), delta=1)

    def delete(self, u: int, v: int) -> None:
        self._apply(canonical_edge(u, v), delta=-1)

    def edge_update(self, u: int, v: int, kind: UpdateType = UpdateType.INSERT) -> None:
        if kind is UpdateType.INSERT:
            self.insert(u, v)
        else:
            self.delete(u, v)

    def apply_update(self, update: EdgeUpdate) -> None:
        self.edge_update(update.u, update.v, update.kind)

    def ingest(self, updates: Iterable[EdgeUpdate]) -> int:
        count = 0
        for update in updates:
            self.apply_update(update)
            count += 1
        return count

    def _apply(self, edge: Edge, delta: int) -> None:
        u, v = edge
        index = self.encoder.encode(u, v)
        # f_u[(u, v)] = +1 and f_v[(u, v)] = -1 for the canonical u < v.
        for round_index in range(self.num_rounds):
            self._sketches[u][round_index].update(index, delta)
            self._sketches[v][round_index].update(index, -delta)
        self._updates_processed += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def list_spanning_forest(self) -> SpanningForest:
        # The general-purpose sketches have no whole-round kernel, but
        # the array driver still replaces the per-merge member-list
        # concatenation with one argsort-based grouping per round.
        forest, stats = vectorized_spanning_forest(
            num_nodes=self.num_nodes,
            num_rounds=self.num_rounds,
            encoder=self.encoder,
            batch_cut_sampler=batch_sampler_from_scalar(self._component_cut_sample),
            strict=False,
        )
        self._last_query_stats = stats
        return forest

    def spanning_forest(self) -> SpanningForest:
        return self.list_spanning_forest()

    def connected_components(self) -> List[Set[int]]:
        return self.list_spanning_forest().components()

    def _component_cut_sample(
        self, round_index: int, members: Sequence[int]
    ) -> SampleResult:
        merged = self._sketches[members[0]][round_index].copy()
        for node in members[1:]:
            merged.merge(self._sketches[node][round_index])
        return merged.query()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def updates_processed(self) -> int:
        return self._updates_processed

    @property
    def last_query_stats(self) -> Optional[BoruvkaStats]:
        return self._last_query_stats

    def node_sketch_bytes(self) -> int:
        """Bytes of one node's sketches under the paper's accounting."""
        return sum(sketch.size_bytes() for sketch in self._sketches[0])

    def sketch_bytes(self) -> int:
        return self.node_sketch_bytes() * self.num_nodes

    def __repr__(self) -> str:
        return (
            f"StreamingCC(num_nodes={self.num_nodes}, rounds={self.num_rounds}, "
            f"updates={self._updates_processed})"
        )
