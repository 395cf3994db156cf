"""The scalar references the columnar engine is held to.

Built from the paper's own objects, not from engine code: a node's
sketch is a list of per-round CubeSketches (Fig. 8) folded edge by
edge, a component's cut sample is ``CubeSketch.query`` on the XOR of
its members' round sketches, and :func:`sketch_spanning_forest` is the
per-component Boruvka driver run over those samples.  Also the
geometry the pool tests build with.
"""

from dataclasses import replace
from typing import Dict, List, Set

import numpy as np

from repro.core.boruvka import BoruvkaStats, CutSampler, _count
from repro.core.dsu import DisjointSetUnion
from repro.core.edge_encoding import EdgeEncoder
from repro.core.spanning_forest import SpanningForest
from repro.exceptions import ConnectivityError
from repro.sketch.cubesketch import CubeSketch
from repro.sketch.geometry import SketchGeometry, round_seed
from repro.sketch.sketch_base import SampleResult
from repro.types import Edge

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


def round_cube(vector_length, geometry, graph_seed, round_index):
    """An empty round-``round_index`` CubeSketch of a node bundle."""
    return CubeSketch(
        vector_length,
        delta=geometry.delta,
        seed=round_seed(graph_seed, round_index),
        num_columns=geometry.columns,
        num_rows=geometry.rows,
    )


def reference_node_sketches(num_nodes, updates, seed, delta=0.01):
    """``{node: [CubeSketch per round]}`` after toggling every ``(u, v)`` of ``updates``."""
    encoder = EdgeEncoder(num_nodes)
    geometry = SketchGeometry.for_graph(num_nodes, delta)
    sketches = {
        node: [
            round_cube(encoder.vector_length, geometry, seed, round_index)
            for round_index in range(geometry.rounds)
        ]
        for node in range(num_nodes)
    }
    for u, v in updates:
        index = encoder.encode(u, v)
        for node in (u, v):
            for sketch in sketches[node]:
                sketch.update(index)
    return sketches


def cube_query(pool, round_index, alpha, gamma) -> SampleResult:
    """``CubeSketch.query`` over uint64 ``(cols, rows)`` round-``round_index``
    buckets of ``pool``'s geometry and seed."""
    sketch = round_cube(pool.encoder.vector_length, pool.geometry, pool.graph_seed, round_index)
    sketch.load_raw_arrays(np.ascontiguousarray(alpha.T), np.ascontiguousarray(gamma.T))
    return sketch.query()


def pool_cut_sample(pool, members, round_index) -> SampleResult:
    """``CubeSketch.query`` on the XOR of ``members``' round sketches in ``pool``."""
    members = np.asarray(members, dtype=np.int64)
    assert members.size and ((members >= 0) & (members < pool.num_nodes)).all()
    alpha, gamma = pool.geometry.unpack(
        [np.bitwise_xor.reduce(slab[members], axis=0) for slab in pool._round_views(round_index)]
    )
    return cube_query(pool, round_index, alpha, gamma)


def reference_forest(engine):
    """``(forest, stats)`` of the scalar driver over ``engine``'s sketch state."""
    engine.flush()
    pool = engine.tensor_pool
    return sketch_spanning_forest(
        num_nodes=engine.num_nodes,
        num_rounds=engine.num_rounds,
        encoder=engine.encoder,
        cut_sampler=lambda round_index, members: pool_cut_sample(pool, members, round_index),
        strict=engine.config.strict_queries,
    )


def assert_same_node_state(reference, flat):
    """Per-round CubeSketches and a ``FlatNodeSketch`` hold the same buckets."""
    assert len(reference) == flat.num_rounds
    for round_index, sketch in enumerate(reference):
        alpha, gamma = sketch.raw_arrays()
        flat_alpha, flat_gamma = flat.round_arrays(round_index)
        assert (alpha == flat_alpha).all(), f"alpha differs in round {round_index}"
        assert (gamma == flat_gamma).all(), f"gamma differs in round {round_index}"


def assert_node_state_matches(engine, sketches):
    """Every node's buckets in ``engine`` equal its reference round sketches."""
    engine.flush()
    for node, reference in sketches.items():
        assert_same_node_state(reference, engine.node_sketch(node))


def sketch_spanning_forest(
    num_nodes: int,
    num_rounds: int,
    encoder: EdgeEncoder,
    cut_sampler: CutSampler,
    strict: bool = False,
) -> tuple[SpanningForest, BoruvkaStats]:
    """Run Boruvka's algorithm over sketched cut samplers.

    Parameters
    ----------
    num_nodes:
        Number of nodes in the graph.
    num_rounds:
        Number of independent sketch rounds available.
    encoder:
        The edge-slot encoder shared by the sketches; used to decode and
        validate sampled indices.
    cut_sampler:
        ``cut_sampler(round_index, members)`` must return a
        :class:`SampleResult` for the cut between ``members`` and the
        rest of the graph, computed from the round's sketches.
    strict:
        When true, exhausting the rounds while merges were still
        happening raises :class:`ConnectivityError`; otherwise the
        partial forest is returned with ``complete=False``.  Either way
        the exhaustion is counted first (registry counter
        ``query.incomplete``), as are failed samples
        (``query.failed_samples``).
    """
    dsu = DisjointSetUnion(num_nodes)
    members: Dict[int, List[int]] = {node: [node] for node in range(num_nodes)}
    # Components whose cut has been observed empty: they can never merge
    # again and are skipped in later rounds.
    settled: Set[int] = set()
    forest_edges: List[Edge] = []
    stats = BoruvkaStats()

    found_edge = True
    round_index = 0
    while found_edge and dsu.num_components > 1:
        if round_index >= num_rounds:
            _count("query.incomplete")
            if strict:
                raise ConnectivityError(
                    f"Boruvka did not converge within {num_rounds} rounds "
                    f"({dsu.num_components} components remain)"
                )
            forest = SpanningForest.from_edges(num_nodes, forest_edges, complete=False)
            return forest, stats

        found_edge = False
        stats.rounds_used = round_index + 1
        sampled_edges: List[Edge] = []
        failures_this_round = 0

        for root in list(members.keys()):
            if root in settled:
                continue
            stats.component_queries += 1
            result = cut_sampler(round_index, members[root])
            if result.is_zero:
                stats.zero_samples += 1
                settled.add(root)
                continue
            if result.is_fail:
                stats.failed_samples += 1
                failures_this_round += 1
                continue
            stats.good_samples += 1
            assert result.index is not None
            if not encoder.is_valid_index(result.index):
                # A corrupted bucket slipped past its checksum; ignore it.
                stats.invalid_samples += 1
                continue
            sampled_edges.append(encoder.decode(result.index))
        _count("query.failed_samples", failures_this_round)

        merges_this_round = 0
        for u, v in sampled_edges:
            root_u, root_v = dsu.find(u), dsu.find(v)
            if root_u == root_v:
                continue
            dsu.union(u, v)
            # Union by size keeps one of the two old roots as the new root.
            new_root = dsu.find(u)
            old_root = root_v if new_root == root_u else root_u
            members[new_root] = members[new_root] + members.pop(old_root)
            settled.discard(new_root)
            settled.discard(old_root)
            forest_edges.append((u, v) if u < v else (v, u))
            merges_this_round += 1
            found_edge = True

        stats.merges += merges_this_round
        stats.per_round_merges.append(merges_this_round)
        # A failed sample says nothing about the cut being empty; as long as
        # unused rounds (with fresh, independent sketches) remain, retry the
        # unresolved components there instead of declaring convergence.
        if failures_this_round and not found_edge:
            found_edge = True
        round_index += 1

    forest = SpanningForest.from_edges(num_nodes, forest_edges, complete=True)
    return forest, stats
