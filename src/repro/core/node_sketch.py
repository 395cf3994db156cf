"""Cut sketches of node sets: XOR-merged round sketches of node bundles.

Each node ``u`` keeps ``ceil(log2 V)`` independent CubeSketches of its
characteristic vector, one for every potential round of Boruvka's
algorithm (the per-round independence is what makes the adaptive
merging sound -- footnote 1 of the paper); the engine stores them as
:class:`~repro.sketch.flat_node_sketch.FlatNodeSketch` bundles.  All
nodes share the same hash functions *per round*, which is what makes
node sketches of different nodes addable: XOR-ing the round-``r``
sketches of ``u`` and ``v`` yields the round-``r`` sketch of the
symmetric difference of their edge sets, i.e. the edges crossing the
cut ``{u, v}`` vs the rest of the graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.sketch.cubesketch import CubeSketch

if TYPE_CHECKING:
    from repro.sketch.flat_node_sketch import FlatNodeSketch


def merged_round_sketch(
    node_sketches: Sequence[FlatNodeSketch], round_index: int
) -> CubeSketch:
    """The XOR of the round-``round_index`` sketches of several nodes.

    Builds a component's cut sketch without mutating the per-node
    sketches (so the stream can continue after a query): the members'
    round sketches are copies, summed with :meth:`CubeSketch.sum_of`.
    """
    if not node_sketches:
        raise ValueError("merged_round_sketch requires at least one node sketch")
    return CubeSketch.sum_of([ns.round_sketch(round_index) for ns in node_sketches])
