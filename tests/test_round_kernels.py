"""The native Boruvka round -- fused sample kernel + round tail -- bit for bit.

A native provider with ``sample_components`` and ``round_tail`` replaces
the composed group -> reduce -> decode sampling and the Python
union-find/relabel tail of :func:`vectorized_spanning_forest`.  Both are
pure optimisations: forest edges *in merge order*, every
:class:`BoruvkaStats` field and the final per-node component labels must
equal the numpy driver's, on packed and wide pools either side of the
65 536-node boundary, flat and paged.  The kernel is also driven directly
over hand-built slabs for the decode branches random streams rarely hit.

Skips (not errors) when no provider with the round kernels is usable.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boruvka import vectorized_spanning_forest
from repro.core.edge_encoding import EdgeEncoder
from repro.hashing.mixers import finalise_hash64_inplace
from repro.kernels import native_kernels
from repro.memory.hybrid import HybridMemory
from repro.sketch.paged_pool import PagedTensorPool
from repro.sketch.sketch_base import SAMPLE_FAIL, SAMPLE_GOOD, SAMPLE_ZERO
from repro.sketch.tensor_pool import NodeTensorPool
from sketch_reference import SEVEN_COLUMN_DELTA, pool_geometry

NATIVE = native_kernels()

pytestmark = pytest.mark.skipif(
    not hasattr(NATIVE, "sample_components") or not hasattr(NATIVE, "round_tail"),
    reason="no native provider with the round kernels",
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _pool(num_nodes, seed, kernels, paged, **shape):
    encoder = EdgeEncoder(num_nodes)
    geometry = pool_geometry(num_nodes, **shape)
    if not paged:
        return NodeTensorPool(
            num_nodes, encoder, graph_seed=seed, kernels=kernels, geometry=geometry
        )
    # A RAM budget of one page: every other page is read off the device.
    return PagedTensorPool(
        num_nodes, encoder, memory=HybridMemory(ram_bytes=1), graph_seed=seed,
        resident_pages=1, kernels=kernels, geometry=geometry,
    )


def _fold(pool, edges):
    """Toggle ``edges`` (a repeated edge is an insert then a delete)."""
    if not edges:
        return
    pairs = np.asarray(edges, dtype=np.int64)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    pool.apply_edges(lo, hi, pool.encoder.encode_canonical_pairs(lo, hi))


def _round_trace(pool, kernels):
    forest, stats = vectorized_spanning_forest(
        pool.num_nodes,
        pool.num_rounds,
        pool.encoder,
        lambda round_index, labels, mask: pool.query_components(
            labels, round_index, mask
        ),
        kernels=kernels,
    )
    return (
        forest.edges, forest.complete, dataclasses.asdict(stats),
        forest.component_labels(), forest.num_components,
    )


def _assert_native_round_matches_numpy(num_nodes, seed, edges, paged, **shape):
    traces = []
    for kernels in (None, NATIVE):
        pool = _pool(num_nodes, seed, kernels, paged, **shape)
        _fold(pool, edges)
        traces.append(_round_trace(pool, kernels))
    assert traces[1] == traces[0]
    return traces[0]


@st.composite
def small_graphs(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=40))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    edges = draw(
        st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=90)
    )
    return num_nodes, edges


@given(
    graph=small_graphs(), seed=seeds, paged=st.booleans(), force_wide=st.booleans(),
    delta=st.sampled_from([0.01, 0.3, 0.6]),
)
@settings(max_examples=60, deadline=None)
def test_small_pool_round_bit_identical(graph, seed, paged, force_wide, delta):
    num_nodes, edges = graph
    _assert_native_round_matches_numpy(
        num_nodes, seed, edges, paged, wide=force_wide, delta=delta
    )


@pytest.mark.parametrize("num_nodes", [65_535, 65_536, 65_537])
@given(data=st.data(), seed=seeds, paged=st.booleans())
@settings(max_examples=3, deadline=None)
def test_packed_wide_boundary_round_bit_identical(num_nodes, data, seed, paged):
    # Hubs at both ends of the id range grow components that take
    # several rounds; everything else stays a singleton and settles.
    # Two columns keep the fall-through to column 1 in play while the
    # numpy reference (0.3 s a run at this size) stays affordable.
    top = num_nodes - 1
    hubs = st.sampled_from([0, 1, 2, 3, top - 3, top - 2, top - 1, top])
    node = st.one_of(hubs, st.integers(min_value=0, max_value=top))
    edges = data.draw(
        st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=60)
    )
    _assert_native_round_matches_numpy(
        num_nodes, seed, edges, paged, rounds=3, delta=0.3
    )


STAR = [(0, leaf) for leaf in range(1, 33)]
PATH = [(node, node + 1) for node in range(63)]
# Nodes 41, 44, 45 settle in round 0 and the pair {42, 43} in round 1,
# while the path 0..40 keeps merging.
SETTLED = [(node, node + 1) for node in range(40)] + [(42, 43)]


@pytest.mark.parametrize("paged", [False, True])
@pytest.mark.parametrize(
    "num_nodes, edges, components",
    [
        (7, [], 7),
        (2, [], 2),
        (2, [(0, 1)], 1),
        (33, STAR, 1),
        (64, PATH, 1),
        (46, SETTLED, 5),
    ],
    ids=["empty", "two-apart", "two-joined", "star", "path", "settled"],
)
def test_shaped_graphs_round_bit_identical(num_nodes, edges, components, paged):
    for seed in range(4):
        trace = _assert_native_round_matches_numpy(num_nodes, seed, edges, paged)
        edges_out, complete, stats, _, num_components = trace
        assert complete and num_components == components
        assert len(edges_out) == num_nodes - components == stats["merges"]


def test_single_node_needs_no_round():
    def sampler(round_index, labels, mask):
        raise AssertionError("a one-node graph has no cut to sample")

    traces = []
    for kernels in (None, NATIVE):
        forest, stats = vectorized_spanning_forest(
            1, 3, EdgeEncoder(2), sampler, kernels=kernels
        )
        traces.append((forest.edges, stats, forest.component_labels()))
    assert traces[0] == traces[1] == ((), traces[0][1], [0])
    assert traces[0][1].rounds_used == 0


# ----------------------------------------------------------------------
# the sample kernel over hand-built slabs
# ----------------------------------------------------------------------
def _checksum(pool, round_index, column, alpha):
    seed = pool._mixed_checksum[round_index * pool.num_columns + column]
    hashed = finalise_hash64_inplace(np.asarray([alpha], dtype=np.uint64) ^ seed)
    return int(hashed[0]) & 0xFFFFFFFF


def _hand_built_pools(force_wide):
    """A numpy and a native pool sharing hand-written round-0 buckets.

    Components (``labels``): {0, 1} column 0 empty but a stray bucket in
    column 3; {2} a checksum-valid bucket whose alpha is past the slot
    universe; {3} a checksum-valid bucket decoding to ``u >= v``; {4, 5}
    two copies of one valid bucket (they cancel); {6} a valid bucket in
    a deep row under garbage in row 0; {7} untouched.  Column 3 exists
    on the 7-column geometry only, so the pools are built at
    :data:`SEVEN_COLUMN_DELTA`.
    """
    num_nodes = 8
    geometry = pool_geometry(num_nodes, wide=force_wide, delta=SEVEN_COLUMN_DELTA)
    pools = [
        NodeTensorPool(
            num_nodes, EdgeEncoder(num_nodes), graph_seed=5,
            geometry=geometry, kernels=kernels,
        )
        for kernels in (None, NATIVE)
    ]
    reference = pools[0]
    assert reference.num_columns > 3
    veclen = reference.encoder.vector_length
    backwards = 2 * num_nodes + 1  # decodes to (2, 1)
    edge = reference.encoder.encode(6, 7)
    buckets = [  # (node, column, row, alpha, gamma)
        (1, 3, 2, 9, 12345),
        (2, 0, 1, veclen + 5, _checksum(reference, 0, 0, veclen + 5)),
        (3, 0, 0, backwards, _checksum(reference, 0, 0, backwards)),
        (4, 0, 0, edge, _checksum(reference, 0, 0, edge)),
        (5, 0, 0, edge, _checksum(reference, 0, 0, edge)),
        (6, 0, 0, 3, 99),
        (6, 0, 4, edge, _checksum(reference, 0, 0, edge)),
    ]
    for pool in pools:
        for node, column, row, alpha, gamma in buckets:
            if pool._packed:
                pool._buckets[0, node, column, row] = (alpha << 32) | gamma
            else:
                pool._alpha[0, node, column, row] = alpha
                pool._gamma[0, node, column, row] = gamma
    labels = np.asarray([0, 0, 2, 3, 4, 4, 6, 7], dtype=np.int64)
    return pools, labels, backwards, edge


@pytest.mark.parametrize("force_wide", [False, True])
def test_sample_kernel_decode_branches(force_wide):
    (numpy_pool, native_pool), labels, backwards, edge = _hand_built_pools(force_wide)
    assert (not force_wide) == numpy_pool._packed
    expected = numpy_pool.query_components(labels, 0)
    got = native_pool.query_components(labels, 0)
    for exp, act in zip(expected, got):
        assert exp.dtype == act.dtype
        assert np.array_equal(exp, act)
    roots, statuses, indices = got
    assert roots.tolist() == [0, 2, 3, 4, 6, 7]
    assert statuses.tolist() == [
        SAMPLE_FAIL,  # column 0 all-zero, column 3 not: FAIL, never ZERO
        SAMPLE_FAIL,  # alpha >= vector_length is rejected despite its checksum
        SAMPLE_GOOD,  # the kernel reports the slot; the driver validates u < v
        SAMPLE_ZERO,  # the two copies cancelled in every column
        SAMPLE_GOOD,  # deepest verified row wins over row-0 garbage
        SAMPLE_ZERO,
    ]
    assert indices.tolist() == [-1, -1, backwards, -1, edge, -1]
    # Masking nodes out drops whole components and shrinks {0, 1} to {1}.
    mask = np.asarray([0, 1, 0, 0, 1, 1, 1, 0], dtype=bool)
    for exp, act in zip(
        numpy_pool.query_components(labels, 0, mask),
        native_pool.query_components(labels, 0, mask),
    ):
        assert np.array_equal(exp, act)


def test_backwards_slot_is_counted_invalid_and_ignored():
    (numpy_pool, native_pool), labels, _, edge = _hand_built_pools(False)
    traces = [
        _round_trace(pool, kernels)
        for pool, kernels in ((numpy_pool, None), (native_pool, NATIVE))
    ]
    assert traces[0] == traces[1]
    forest_edges, _, stats, _, _ = traces[1]
    assert stats["invalid_samples"] >= 1
    assert forest_edges == ((6, 7),)
    assert numpy_pool.encoder.decode(edge) == (6, 7)
