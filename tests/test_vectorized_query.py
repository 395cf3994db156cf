"""Bit-identicality of the vectorized whole-round query engine.

The vectorized Boruvka driver (segmented XOR-reduce over the tensor
pool + batched bucket decode) must return *exactly* what the
per-component scalar reference returns under the same graph seed: the
same spanning forest edge tuple, the same :class:`BoruvkaStats`, and
the same per-component samples.  These tests run both drivers over the
same sketch state built from random streams (hypothesis, mirroring
``tests/test_flat_node_sketch.py``'s equivalence pattern), check the
batched decoder against the scalar bucket scan, and cover the cached
spanning forest's invalidation rules.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boruvka import batch_sampler_from_scalar, vectorized_spanning_forest
from repro.core.config import BufferingMode, GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.core.streaming_cc import StreamingCC
from repro.kernels import native_kernels
from repro.sketch.flat_node_sketch import query_bucket_arrays_batch
from repro.sketch.sketch_base import (
    SAMPLE_FAIL,
    SAMPLE_GOOD,
    SAMPLE_ZERO,
    SampleOutcome,
    SampleResult,
)
from repro.sketch.tensor_pool import NodeTensorPool
from native_round import fused_sample
from sketch_reference import (
    cube_query,
    pool_cut_sample,
    pool_geometry,
    reference_forest,
    sketch_spanning_forest,
)

NUM_NODES = 24

seeds = st.integers(min_value=0, max_value=2**32 - 1)
node_ids = st.integers(min_value=0, max_value=NUM_NODES - 1)
edge_lists = st.lists(
    st.tuples(node_ids, node_ids).filter(lambda e: e[0] != e[1]),
    min_size=0,
    max_size=120,
)


def _engine(seed: int, edges, **overrides) -> GraphZeppelin:
    config = GraphZeppelinConfig(buffering=BufferingMode.NONE, seed=seed, **overrides)
    engine = GraphZeppelin(NUM_NODES, config=config)
    if edges:
        engine.ingest_batch(np.asarray(edges, dtype=np.int64))
    return engine


#: Status code -> :class:`SampleOutcome`, for converting batched results
#: back to the object form.
OUTCOME_BY_CODE = {
    SAMPLE_ZERO: SampleOutcome.ZERO,
    SAMPLE_GOOD: SampleOutcome.GOOD,
    SAMPLE_FAIL: SampleOutcome.FAIL,
}


def _sample_of(status: int, index: int) -> SampleResult:
    outcome = OUTCOME_BY_CODE[int(status)]
    if status == SAMPLE_GOOD:
        return SampleResult.good(int(index))
    return SampleResult(outcome)


@given(edges=edge_lists, seed=seeds, ram_budget=st.sampled_from([None, 4_000]))
@settings(max_examples=30, deadline=None)
def test_vectorized_forest_and_stats_bit_identical_to_scalar(edges, seed, ram_budget):
    engine = _engine(seed, edges, ram_budget_bytes=ram_budget)
    assert engine.tensor_pool.is_paged == (ram_budget is not None)
    forest_s, stats_s = reference_forest(engine)
    forest_v = engine.list_spanning_forest()
    assert forest_v.edges == forest_s.edges
    assert forest_v.complete == forest_s.complete
    assert forest_v.partition_signature() == forest_s.partition_signature()
    assert engine.last_query_stats == stats_s


def _round_sample(pool, labels, round_index, node_mask):
    """``query_components``, or the native fused sample kernel's."""
    if pool._kernels is None:
        return pool.query_components(labels, round_index, node_mask=node_mask)
    return fused_sample(pool._kernels._lib, pool, labels, round_index, node_mask)


@given(edges=edge_lists, seed=seeds, data=st.data())
@settings(max_examples=30, deadline=None)
def test_query_components_matches_per_component_query_merged(edges, seed, data):
    """The whole-round sample equals the CubeSketch reference per component,
    sample by sample, on a numpy pool and (when it builds) a native one."""
    encoder = EdgeEncoder(NUM_NODES)
    pools = [
        NodeTensorPool(NUM_NODES, encoder, graph_seed=seed, kernels=kernels)
        for kernels in {None, native_kernels()}
    ]
    if edges:
        endpoint_u = np.asarray([e[0] for e in edges], dtype=np.int64)
        endpoint_v = np.asarray([e[1] for e in edges], dtype=np.int64)
        lo = np.minimum(endpoint_u, endpoint_v)
        hi = np.maximum(endpoint_u, endpoint_v)
        for pool in pools:
            pool.apply_edges(lo, hi, encoder.encode_canonical_pairs(lo, hi))
    labels = np.asarray(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=5),
                min_size=NUM_NODES,
                max_size=NUM_NODES,
            )
        ),
        dtype=np.int64,
    )
    mask = np.asarray(
        data.draw(
            st.lists(st.booleans(), min_size=NUM_NODES, max_size=NUM_NODES)
        ),
        dtype=bool,
    )
    for pool, node_mask in itertools.product(pools, (None, mask)):
        for round_index in range(pool.num_rounds):
            roots, statuses, indices = _round_sample(pool, labels, round_index, node_mask)
            nodes = (
                np.arange(NUM_NODES) if node_mask is None else np.flatnonzero(node_mask)
            )
            expected_roots = np.unique(labels[nodes]) if nodes.size else np.empty(0)
            assert np.array_equal(roots, expected_roots)
            for root, status, index in zip(roots, statuses, indices):
                members = [int(n) for n in nodes if labels[n] == root]
                reference = pool_cut_sample(pool, members, round_index)
                assert _sample_of(status, index) == reference


@given(edges=edge_lists, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_batched_bucket_decode_matches_scalar_scan(edges, seed):
    """query_bucket_arrays_batch == CubeSketch.query over each node's rounds."""
    encoder = EdgeEncoder(NUM_NODES)
    pool = NodeTensorPool(NUM_NODES, encoder, graph_seed=seed)
    if edges:
        endpoint_u = np.asarray([e[0] for e in edges], dtype=np.int64)
        endpoint_v = np.asarray([e[1] for e in edges], dtype=np.int64)
        lo = np.minimum(endpoint_u, endpoint_v)
        hi = np.maximum(endpoint_u, endpoint_v)
        pool.apply_edges(lo, hi, encoder.encode_canonical_pairs(lo, hi))
    alpha_all, gamma_all = pool.raw_tensors()
    for round_index in range(pool.num_rounds):
        # Treat every node as one "component": (C, cols, rows) tensors.
        alpha = np.ascontiguousarray(alpha_all[round_index])
        gamma = np.ascontiguousarray(gamma_all[round_index])
        base = round_index * pool.num_columns
        checksum_seeds = pool._checksum_seeds[base : base + pool.num_columns]
        statuses, indices = query_bucket_arrays_batch(
            alpha, gamma, encoder.vector_length, checksum_seeds
        )
        for node in range(NUM_NODES):
            reference = cube_query(pool, round_index, alpha[node], gamma[node])
            assert _sample_of(statuses[node], indices[node]) == reference


def test_batched_decode_rejects_corrupt_buckets_like_scalar():
    """A bucket whose checksum does not verify must FAIL, not sample."""
    encoder = EdgeEncoder(NUM_NODES)
    pool = NodeTensorPool(NUM_NODES, encoder, graph_seed=9)
    rows, cols = pool.num_rows, pool.num_columns
    alpha = np.zeros((1, cols, rows), dtype=np.uint64)
    gamma = np.zeros((1, cols, rows), dtype=np.uint64)
    alpha[0, 0, 3] = 17  # plausible index, wrong checksum
    gamma[0, 0, 3] = 12345
    checksum_seeds = pool._checksum_seeds[:cols]
    statuses, indices = query_bucket_arrays_batch(
        alpha, gamma, encoder.vector_length, checksum_seeds
    )
    reference = cube_query(pool, 0, alpha[0], gamma[0])
    assert reference.is_fail
    assert _sample_of(statuses[0], indices[0]) == reference


@given(edges=edge_lists, seed=seeds)
@settings(max_examples=10, deadline=None)
def test_streaming_cc_vectorized_matches_scalar(edges, seed):
    baseline = StreamingCC(NUM_NODES, seed=seed)
    for u, v in edges:
        baseline.insert(u, v)
    forest_s, stats_s = sketch_spanning_forest(
        baseline.num_nodes,
        baseline.num_rounds,
        baseline.encoder,
        baseline._component_cut_sample,
    )
    forest_v = baseline.list_spanning_forest()
    assert forest_v.edges == forest_s.edges
    assert baseline.last_query_stats == stats_s


def test_vectorized_driver_via_scalar_adapter_matches_reference():
    """All three drivers agree over one pool, packed and forced-wide alike."""
    encoder = EdgeEncoder(NUM_NODES)
    lo = np.asarray([0, 1, 4, 6, 2])
    hi = np.asarray([1, 2, 5, 7, 3])
    for force_wide in (False, True):
        pool = NodeTensorPool(
            NUM_NODES, encoder, graph_seed=21, geometry=pool_geometry(NUM_NODES, wide=force_wide)
        )
        pool.apply_edges(lo, hi, encoder.encode_canonical_pairs(lo, hi))

        def scalar_sampler(round_index, members):
            return pool_cut_sample(pool, members, round_index)

        def pool_sampler(round_index, labels, node_mask=None):
            return pool.query_components(labels, round_index, node_mask=node_mask)

        forest_s, stats_s = sketch_spanning_forest(
            NUM_NODES, pool.num_rounds, encoder, scalar_sampler
        )
        for batch_sampler in (batch_sampler_from_scalar(scalar_sampler), pool_sampler):
            forest_v, stats_v = vectorized_spanning_forest(
                NUM_NODES, pool.num_rounds, encoder, batch_sampler
            )
            assert forest_v.edges == forest_s.edges
            assert stats_v == stats_s


def test_out_of_core_paged_engine_runs_the_pool_query_driver():
    """A RAM-budgeted engine holds a paged pool and answers like the flat one."""
    edges = [(0, 1), (1, 2), (3, 4), (5, 6), (2, 3)]
    in_ram = _engine(33, edges)
    budgeted = GraphZeppelin(
        NUM_NODES,
        config=GraphZeppelinConfig.out_of_core(ram_budget_bytes=64 * 1024, seed=33),
    )
    for u, v in edges:
        budgeted.edge_update(u, v)
    assert budgeted.tensor_pool.is_paged
    assert budgeted.list_spanning_forest().edges == in_ram.list_spanning_forest().edges


# ----------------------------------------------------------------------
# cached spanning forest
# ----------------------------------------------------------------------
def test_forest_is_cached_between_queries():
    engine = _engine(3, [(0, 1), (1, 2), (5, 6)])
    first = engine.list_spanning_forest()
    assert engine.list_spanning_forest() is first
    assert engine.spanning_forest() is first
    # The derived queries reuse the cache instead of re-running Boruvka.
    assert engine.num_connected_components() == first.num_components
    assert engine.is_connected(0, 2)
    assert engine.list_spanning_forest() is first


@pytest.mark.parametrize("mutate", ["edge_update", "insert", "ingest_batch"])
def test_forest_cache_invalidated_by_ingest(mutate):
    engine = _engine(7, [(0, 1), (1, 2)], validate_stream=(mutate == "insert"))
    before = engine.list_spanning_forest()
    assert not before.connected(0, 5)
    if mutate == "edge_update":
        engine.edge_update(2, 5)
    elif mutate == "insert":
        engine.insert(2, 5)
    else:
        engine.ingest_batch(np.asarray([[2, 5]]))
    after = engine.list_spanning_forest()
    assert after is not before
    assert after.connected(0, 5)


def test_forest_cache_invalidated_by_buffered_ingest():
    """Updates sitting in the gutters must invalidate the cache too."""
    config = GraphZeppelinConfig(buffering=BufferingMode.LEAF_GUTTERS, seed=5)
    engine = GraphZeppelin(NUM_NODES, config=config)
    engine.edge_update(0, 1)
    before = engine.list_spanning_forest()
    assert before.connected(0, 1)
    engine.edge_update(0, 1)  # toggle the edge back off, buffered
    after = engine.list_spanning_forest()
    assert after is not before
    assert not after.connected(0, 1)


@given(edges=edge_lists, seed=seeds)
@settings(max_examples=15, deadline=None)
def test_wide_bucket_storage_matches_packed(edges, seed):
    """The >65536-node storage fallback is bit-identical to packed mode."""
    encoder = EdgeEncoder(NUM_NODES)
    packed = NodeTensorPool(NUM_NODES, encoder, graph_seed=seed)
    wide = NodeTensorPool(
        NUM_NODES, encoder, graph_seed=seed, geometry=pool_geometry(NUM_NODES, wide=True)
    )
    assert len(packed._planes) == 1 and len(wide._planes) == 2
    if edges:
        endpoint_u = np.asarray([e[0] for e in edges], dtype=np.int64)
        endpoint_v = np.asarray([e[1] for e in edges], dtype=np.int64)
        lo = np.minimum(endpoint_u, endpoint_v)
        hi = np.maximum(endpoint_u, endpoint_v)
        indices = encoder.encode_canonical_pairs(lo, hi)
        packed.apply_edges(lo, hi, indices)
        # Exercise the mixed-destination scatter on the wide tensors too.
        wide.apply_updates(np.concatenate([lo, hi]), np.concatenate([indices, indices]))
    alpha_p, gamma_p = packed.raw_tensors()
    alpha_w, gamma_w = wide.raw_tensors()
    assert np.array_equal(alpha_p, alpha_w)
    assert np.array_equal(gamma_p, gamma_w)
    labels = np.arange(NUM_NODES, dtype=np.int64) % 4
    for round_index in range(packed.num_rounds):
        results_p = packed.query_components(labels, round_index)
        results_w = wide.query_components(labels, round_index)
        for got, expected in zip(results_w, results_p):
            assert np.array_equal(got, expected)
        members = list(range(NUM_NODES // 2))
        assert pool_cut_sample(wide, members, round_index) == pool_cut_sample(
            packed, members, round_index
        )
    for node in (0, 3, NUM_NODES - 1):
        assert wide.node_sketch(node) == packed.node_sketch(node)


@pytest.fixture(params=["numpy", "native"])
def pool_kernels(request):
    """``None`` for the numpy kernels, else the native provider (or skip)."""
    if request.param == "numpy":
        return None
    return request.getfixturevalue("native_provider")


def test_query_components_handles_labels_beyond_int16(pool_kernels):
    """Label values outside int16 must not wrap through the radix fast path."""
    encoder = EdgeEncoder(NUM_NODES)
    pool = NodeTensorPool(NUM_NODES, encoder, graph_seed=4, kernels=pool_kernels)
    pool.apply_edges(
        np.asarray([0, 1, 2]),
        np.asarray([5, 6, 7]),
        encoder.encode_canonical_pairs(np.asarray([0, 1, 2]), np.asarray([5, 6, 7])),
    )
    labels = np.zeros(NUM_NODES, dtype=np.int64)
    labels[::2] = 1 << 17  # collides with label 0 under an int16 cast
    for shift, expected_roots in ((0, [0, 1 << 17]), (-5, [-5, (1 << 17) - 5])):
        roots, statuses, indices = pool.query_components(labels + shift, 0)
        assert roots.tolist() == expected_roots
        for root, status, index in zip(roots, statuses, indices):
            members = np.flatnonzero(labels + shift == root).tolist()
            assert _sample_of(status, index) == pool_cut_sample(pool, members, 0)


def test_query_components_input_validation(pool_kernels):
    encoder = EdgeEncoder(NUM_NODES)
    pool = NodeTensorPool(NUM_NODES, encoder, graph_seed=1, kernels=pool_kernels)
    labels = np.zeros(NUM_NODES, dtype=np.int64)
    with pytest.raises(ValueError):
        pool.query_components(labels[:-1], 0)
    with pytest.raises(ValueError):
        pool.query_components(labels, pool.num_rounds)
    with pytest.raises(ValueError):
        pool.query_components(labels, 0, node_mask=np.ones(NUM_NODES - 1, dtype=bool))
    # An all-masked query returns empty arrays rather than failing.
    roots, statuses, indices = pool.query_components(
        labels, 0, node_mask=np.zeros(NUM_NODES, dtype=bool)
    )
    assert roots.size == statuses.size == indices.size == 0


def test_query_components_rejects_non_integer_labels(pool_kernels):
    """Float labels were truncated: 3.7 and 3.2 were sampled as one component."""
    pool = NodeTensorPool(6, EdgeEncoder(6), graph_seed=1, kernels=pool_kernels)
    with pytest.raises(ValueError, match="integers"):
        pool.query_components(np.array([0.5, 0.5, 2.0, 3.7, 3.2, 5.0]), 0)
    roots, _, _ = pool.query_components(np.array([0, 0, 2, 4, 3, 5]), 0)
    assert roots.tolist() == [0, 2, 3, 4, 5]
    roots, _, _ = pool.query_components(np.array([1, 0, 0, 1, 1, 0], dtype=bool), 0)
    assert roots.tolist() == [0, 1]
