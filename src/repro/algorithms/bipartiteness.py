"""Streaming bipartiteness testing via the doubled-graph reduction.

A graph ``G`` is bipartite iff it contains no odd cycle.  The classical
sketching reduction (Ahn-Guha-McGregor) builds the *bipartite double
cover* ``D(G)``: every node ``v`` becomes two nodes ``v0`` and ``v1``,
and every edge ``{u, v}`` becomes the two edges ``{u0, v1}`` and
``{u1, v0}``.  Then

    ``G`` is bipartite  iff  ``D(G)`` has exactly twice as many
    connected components as ``G``

(an odd cycle in ``G`` folds its double cover into a single component,
an even cycle keeps two).  Both component counts are exactly what the
connectivity sketch computes, so bipartiteness costs two GraphZeppelin
instances and inherits their space bounds and failure probability.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import ConfigurationError
from repro.types import EdgeUpdate, canonical_edge


class BipartitenessSketch:
    """Single-pass bipartiteness tester over a dynamic edge stream.

    Parameters
    ----------
    num_nodes:
        Number of nodes of the input graph ``G``.
    config:
        Optional engine configuration shared by the two underlying
        GraphZeppelin instances (the double-cover instance derives its
        seed from the configured one so the two stay independent).
    """

    def __init__(self, num_nodes: int, config: Optional[GraphZeppelinConfig] = None) -> None:
        if num_nodes < 2:
            raise ConfigurationError("bipartiteness needs at least two nodes")
        self.num_nodes = int(num_nodes)
        base_config = config or GraphZeppelinConfig()
        cover_config = GraphZeppelinConfig(
            delta=base_config.delta,
            buffering=base_config.buffering,
            gutter_fraction=base_config.gutter_fraction,
            ram_budget_bytes=base_config.ram_budget_bytes,
            num_workers=base_config.num_workers,
            validate_stream=False,
            strict_queries=base_config.strict_queries,
            seed=base_config.seed ^ 0x5F5F5F5F,
        )
        self._graph = GraphZeppelin(num_nodes, config=base_config)
        self._double_cover = GraphZeppelin(2 * num_nodes, config=cover_config)
        self._updates_processed = 0

    # ------------------------------------------------------------------
    def edge_update(self, u: int, v: int) -> None:
        """Toggle edge ``{u, v}`` in the graph and its double cover."""
        u, v = canonical_edge(u, v)
        if v >= self.num_nodes:
            raise ValueError(f"node {v} outside [0, {self.num_nodes})")
        self._graph.edge_update(u, v)
        # Double cover: {u0, v1} and {u1, v0}, with x0 = x and x1 = x + V.
        self._double_cover.edge_update(u, v + self.num_nodes)
        self._double_cover.edge_update(u + self.num_nodes, v)
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
    def is_bipartite(self) -> bool:
        """Whether the current graph is bipartite (correct w.h.p.)."""
        graph_components = self._graph.list_spanning_forest().num_components
        cover_components = self._double_cover.list_spanning_forest().num_components
        return cover_components == 2 * graph_components

    def component_counts(self) -> tuple[int, int]:
        """``(components of G, components of the double cover)`` -- the raw
        quantities the bipartiteness decision is made from."""
        return (
            self._graph.list_spanning_forest().num_components,
            self._double_cover.list_spanning_forest().num_components,
        )

    @property
    def updates_processed(self) -> int:
        return self._updates_processed

    def sketch_bytes(self) -> int:
        """Total sketch space of both underlying engines."""
        return self._graph.sketch_bytes() + self._double_cover.sketch_bytes()

    def __repr__(self) -> str:
        return (
            f"BipartitenessSketch(num_nodes={self.num_nodes}, "
            f"updates={self._updates_processed})"
        )


def is_bipartite(
    num_nodes: int,
    edges: Iterable[tuple],
    seed: int = 0,
) -> bool:
    """One-shot bipartiteness test of a static edge list (convenience)."""
    sketch = BipartitenessSketch(num_nodes, config=GraphZeppelinConfig(seed=seed))
    for u, v in edges:
        sketch.edge_update(u, v)
    return sketch.is_bipartite()
