"""The scalar references the columnar engine is held to.

What ``sketch_backend`` / ``query_backend`` used to select inside the
engine, reached by calling it: the per-component Boruvka driver over
``NodeTensorPool.query_merged``, and one ``NodeSketch`` bundle of
per-round CubeSketches per node, folded edge by edge.  Also the
geometry the pool tests build with.
"""

from dataclasses import replace

from repro.core.boruvka import sketch_spanning_forest
from repro.core.edge_encoding import EdgeEncoder
from repro.core.node_sketch import NodeSketch
from repro.sketch.geometry import SketchGeometry

#: The bound that builds the paper's 7-column node sketch -- the default
#: geometry before node sketches were capped at 3 columns.  Recorded
#: digests, op hashes and column-count assumptions are pinned to it.
SEVEN_COLUMN_DELTA = 1 / 128


def pool_geometry(num_nodes, wide=False, rounds=None, delta=0.01):
    """The default geometry of a ``num_nodes``-node pool, optionally
    stored wide (at any size) or cut to ``rounds`` Boruvka rounds."""
    geometry = SketchGeometry.for_graph(num_nodes, delta)
    return replace(
        geometry, packed=geometry.packed and not wide, rounds=rounds or geometry.rounds
    )


def reference_forest(engine):
    """``(forest, stats)`` of the scalar driver over ``engine``'s sketch state."""
    engine.flush()
    pool = engine.tensor_pool
    return sketch_spanning_forest(
        num_nodes=engine.num_nodes,
        num_rounds=engine.num_rounds,
        encoder=engine.encoder,
        cut_sampler=lambda round_index, members: pool.query_merged(members, round_index),
        strict=engine.config.strict_queries,
    )


def reference_node_sketches(num_nodes, updates, seed, delta=0.01):
    """``{node: NodeSketch}`` after toggling every ``(u, v)`` of ``updates``."""
    encoder = EdgeEncoder(num_nodes)
    geometry = SketchGeometry.for_graph(num_nodes, delta)
    sketches = {
        node: NodeSketch(node, encoder, graph_seed=seed, geometry=geometry)
        for node in range(num_nodes)
    }
    for u, v in updates:
        sketches[u].apply_edge(v)
        sketches[v].apply_edge(u)
    return sketches


def assert_same_node_state(reference, flat):
    """A ``NodeSketch`` and a ``FlatNodeSketch`` hold the same buckets, round by round."""
    assert reference.num_rounds == flat.num_rounds
    for round_index in range(flat.num_rounds):
        alpha, gamma = reference.round_sketch(round_index).raw_arrays()
        flat_alpha, flat_gamma = flat.round_arrays(round_index)
        assert (alpha == flat_alpha).all(), f"alpha differs in round {round_index}"
        assert (gamma == flat_gamma).all(), f"gamma differs in round {round_index}"


def assert_node_state_matches(engine, sketches):
    """Every node's buckets in ``engine`` equal its reference bundle's."""
    engine.flush()
    for node, reference in sketches.items():
        assert_same_node_state(reference, engine.node_sketch(node))
