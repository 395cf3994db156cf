"""Bit-identicality of the columnar sketch engine vs per-round CubeSketches.

The flat tensor representation (FlatNodeSketch / NodeTensorPool) must
hold *exactly* the same bucket contents as the paper's bundle of
per-round CubeSketches under the same graph seed: same alpha/gamma
words, same merged cut sketches.  These tests drive both
implementations with identical random streams (hypothesis) and compare
raw state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.edge_encoding import EdgeEncoder
from repro.core.node_sketch import merged_round_sketch
from repro.exceptions import IncompatibleSketchError
from repro.sketch.cubesketch import CubeSketch
from repro.sketch.flat_node_sketch import (
    FlatNodeSketch,
    flat_seed_matrices,
    fold_hashed,
    hash_depths_checksums,
    segmented_xor,
)
from repro.sketch.geometry import SketchGeometry
from repro.sketch.tensor_pool import NodeTensorPool
from sketch_reference import assert_same_node_state, reference_node_sketches, round_cube

NUM_NODES = 24

node_ids = st.integers(min_value=0, max_value=NUM_NODES - 1)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
neighbor_lists = st.lists(node_ids, min_size=0, max_size=80)


@given(neighbors=neighbor_lists, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_flat_batch_is_bit_identical_to_legacy(neighbors, seed):
    encoder = EdgeEncoder(NUM_NODES)
    node = 5
    neighbors = [w for w in neighbors if w != node]
    reference = reference_node_sketches(NUM_NODES, [(node, w) for w in neighbors], seed)
    flat = FlatNodeSketch(node, encoder, graph_seed=seed)
    flat.apply_batch(neighbors)
    assert_same_node_state(reference[node], flat)


@given(neighbors=neighbor_lists, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_flat_single_edges_match_batch(neighbors, seed):
    encoder = EdgeEncoder(NUM_NODES)
    node = 2
    neighbors = [w for w in neighbors if w != node]
    one_by_one = FlatNodeSketch(node, encoder, graph_seed=seed)
    batched = FlatNodeSketch(node, encoder, graph_seed=seed)
    for w in neighbors:
        one_by_one.apply_edge(w)
    batched.apply_batch(neighbors)
    assert one_by_one == batched


@given(seed=seeds, data=st.data())
@settings(max_examples=20, deadline=None)
def test_pool_matches_legacy_engine_state(seed, data):
    """A mixed multi-node update column folds identically to per-node CubeSketches."""
    encoder = EdgeEncoder(NUM_NODES)
    edges = data.draw(
        st.lists(
            st.tuples(node_ids, node_ids).filter(lambda e: e[0] != e[1]),
            min_size=0,
            max_size=120,
        )
    )
    pool = NodeTensorPool(NUM_NODES, encoder, graph_seed=seed)
    reference = reference_node_sketches(NUM_NODES, edges, seed)

    if edges:
        endpoint_u = np.asarray([e[0] for e in edges], dtype=np.int64)
        endpoint_v = np.asarray([e[1] for e in edges], dtype=np.int64)
        lo = np.minimum(endpoint_u, endpoint_v)
        hi = np.maximum(endpoint_u, endpoint_v)
        indices = lo.astype(np.uint64) * np.uint64(NUM_NODES) + hi.astype(np.uint64)
        pool.apply_updates(np.concatenate([lo, hi]), np.concatenate([indices, indices]))

    for node in range(NUM_NODES):
        assert_same_node_state(reference[node], pool.node_sketch(node))

    members = sorted({e[0] for e in edges} | {0, 1})
    views = [pool.node_sketch(n) for n in members]
    for round_index in range(pool.num_rounds):
        expected = CubeSketch.sum_of([reference[n][round_index] for n in members])
        assert merged_round_sketch(views, round_index) == expected


def test_flat_apply_rejects_out_of_range_indices_like_legacy():
    encoder = EdgeEncoder(NUM_NODES)
    flat = FlatNodeSketch(0, encoder, graph_seed=1)
    pool = NodeTensorPool(NUM_NODES, encoder, graph_seed=1)
    for bad in ([-1], [encoder.vector_length], [-1.0]):
        with pytest.raises(ValueError):
            flat.apply_indices(np.asarray(bad))
        with pytest.raises(ValueError):
            pool.apply_updates(np.asarray([0]), np.asarray(bad))
    with pytest.raises(ValueError):
        pool.apply_updates(np.asarray([-1]), np.asarray([3], dtype=np.uint64))
    with pytest.raises(ValueError):
        pool.apply_edges(
            np.asarray([0]), np.asarray([1]), np.asarray([encoder.vector_length])
        )
    assert flat.is_empty()
    assert pool.node_sketch(0).is_empty()


def _index_targets():
    """``{entry point: (fold(indices), state())}`` over fresh sketches."""
    encoder = EdgeEncoder(NUM_NODES)
    pool = NodeTensorPool(NUM_NODES, encoder, graph_seed=1)
    cube = CubeSketch(encoder.vector_length, seed=1)
    return {
        "pool.apply_updates": (
            lambda idx: pool.apply_updates(np.asarray([1, 2]), idx),
            lambda: [t.tobytes() for t in pool.raw_tensors()] + [pool.updates_applied],
        ),
        "CubeSketch.update_batch": (
            cube.update_batch,
            lambda: [a.tobytes() for a in cube.raw_arrays()],
        ),
    }


@pytest.mark.parametrize("entry", ["pool.apply_updates", "CubeSketch.update_batch"])
@pytest.mark.parametrize("bad", [3.7, np.nan, np.inf])
def test_fractional_and_non_finite_indices_are_rejected(entry, bad):
    fold, state = _index_targets()[entry]
    empty = state()
    with pytest.raises(ValueError, match="non-integral"):
        fold(np.array([1.0, bad]))
    assert state() == empty


@pytest.mark.parametrize("entry", ["pool.apply_updates", "CubeSketch.update_batch"])
@pytest.mark.parametrize("dtype", [np.float64, np.int32, np.uint64])
def test_integral_indices_of_any_dtype_fold_like_int64(entry, dtype):
    fold, state = _index_targets()[entry]
    fold(np.array([3, 5], dtype=dtype))
    reference, reference_state = _index_targets()[entry]
    reference(np.array([3, 5], dtype=np.int64))
    assert state() == reference_state()


def test_pool_accessors_reject_wrapping_node_ids():
    encoder = EdgeEncoder(NUM_NODES)
    pool = NodeTensorPool(NUM_NODES, encoder, graph_seed=1)
    for node in (-1, NUM_NODES):
        with pytest.raises(ValueError):
            pool.node_sketch(node)


def test_merge_and_copy_semantics():
    encoder = EdgeEncoder(NUM_NODES)
    a = FlatNodeSketch(0, encoder, graph_seed=1)
    b = FlatNodeSketch(1, encoder, graph_seed=1)
    a.apply_batch([1, 2, 3])
    b.apply_batch([0, 2, 3])
    clone = a.copy()
    a.merge(b)
    # Edge {0, 1} appears in both bundles and must cancel on merge.
    reference = reference_node_sketches(NUM_NODES, [(0, 2), (0, 3), (1, 2), (1, 3)], seed=1)
    merged = [CubeSketch.sum_of(pair) for pair in zip(reference[0], reference[1])]
    assert_same_node_state(merged, a)
    # The pre-merge copy is untouched.
    assert not clone == a

    incompatible = FlatNodeSketch(0, encoder, graph_seed=2)
    with pytest.raises(IncompatibleSketchError):
        a.merge(incompatible)


def test_seed_matrices_match_legacy_cubesketch_seeds():
    encoder = EdgeEncoder(NUM_NODES)
    geometry = SketchGeometry.for_graph(NUM_NODES)
    membership, checksum, _, _ = flat_seed_matrices(77, geometry)
    for round_index in range(geometry.rounds):
        cube = round_cube(encoder.vector_length, geometry, 77, round_index)
        base = round_index * cube.num_columns
        for col in range(cube.num_columns):
            assert int(membership[base + col]) == cube._membership_seeds[col]
            assert int(checksum[base + col]) == cube._checksum_seeds[col]


def test_columnar_fold_targets_are_unique():
    encoder = EdgeEncoder(NUM_NODES)
    sketch = FlatNodeSketch(0, encoder, graph_seed=0)
    rng = np.random.default_rng(0)
    indices = (rng.integers(0, NUM_NODES - 1, 500) + 1).astype(np.uint64)
    dsts = rng.integers(0, NUM_NODES, 500)
    depths, checksums = hash_depths_checksums(
        indices, sketch._mixed_membership, sketch._mixed_checksum, sketch.num_rows
    )
    targets, alpha_vals, gamma_vals = fold_hashed(
        indices, depths, checksums, sketch.num_rows, dsts
    )
    assert targets.size == np.unique(targets).size
    assert targets.size == alpha_vals.size == gamma_vals.size
    assert int(targets.max()) < NUM_NODES * sketch.num_slots * sketch.num_rows


# ----------------------------------------------------------------------
# segmented XOR
# ----------------------------------------------------------------------
@given(
    num_rows=st.integers(min_value=1, max_value=300),
    width=st.integers(min_value=1, max_value=12),
    num_segments=st.integers(min_value=1, max_value=12),
    dtype=st.sampled_from([np.uint64, np.uint32]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_segmented_xor_matches_a_per_segment_reduce(num_rows, width, num_segments, dtype, seed):
    rng = np.random.default_rng(seed)
    num_segments = min(num_segments, num_rows)
    starts = np.sort(rng.choice(num_rows, size=num_segments, replace=False)).astype(np.int64)
    starts[0] = 0
    values = rng.integers(0, np.iinfo(dtype).max, size=(num_rows, width), dtype=dtype)
    bounds = [*starts.tolist(), num_rows]
    expected = [np.bitwise_xor.reduce(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(segmented_xor(values, starts), np.stack(expected))
    # Single-row segments short-circuit to the input itself.
    one_row = np.arange(num_rows, dtype=np.int64)
    assert segmented_xor(values, one_row) is values
