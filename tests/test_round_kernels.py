"""The native Boruvka round -- fused sample kernel + round tail -- bit for bit.

A native provider's ``bind_query`` replaces the composed group -> reduce
-> decode sampling and the numpy validate/decode/union-find/relabel tail
of :func:`vectorized_spanning_forest` with one compiled call each.  Both
are pure optimisations: forest edges *in merge order*, every
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

from repro.core.boruvka import MERGED, RoundQuery, vectorized_spanning_forest
from repro.core.config import GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.hashing.mixers import finalise_hash64_inplace
from repro.kernels import native_kernels
from repro.memory.hybrid import HybridMemory
from repro.sketch.paged_pool import PagedTensorPool
from repro.sketch.sketch_base import SAMPLE_FAIL, SAMPLE_GOOD, SAMPLE_ZERO
from repro.sketch.tensor_pool import NodeTensorPool
from sketch_reference import SEVEN_COLUMN_DELTA, pool_geometry

NATIVE = native_kernels()

pytestmark = pytest.mark.skipif(
    not hasattr(NATIVE, "bind_query"),
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
    """The driver over ``pool`` as the engine runs it: bound by ``kernels``
    (the fused sample and the compiled tail) when they are native."""
    forest, stats = vectorized_spanning_forest(
        pool.num_nodes, pool.num_rounds, pool.encoder, pool, kernels=kernels
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
            values = pool.geometry.pack(np.uint64(alpha), np.uint64(gamma))
            for plane, value in zip(pool._planes, values):
                plane[0, node, column, row] = value
    labels = np.asarray([0, 0, 2, 3, 4, 4, 6, 7], dtype=np.int64)
    return pools, labels, backwards, edge


def _bound_sample(pool, labels, mask=True):
    """Round 0's fused sample of ``labels`` by a query bound to ``pool``."""
    query = NATIVE.bind_query(pool.num_nodes, pool.encoder, pool)
    query.labels[:], query.active[:] = labels, mask
    count = query.sample(0)
    return query.roots[:count], query.statuses[:count], query.indices[:count]


@pytest.mark.parametrize("force_wide", [False, True])
def test_sample_kernel_decode_branches(force_wide):
    (numpy_pool, native_pool), labels, backwards, edge = _hand_built_pools(force_wide)
    assert (not force_wide) == numpy_pool.geometry.packed
    expected = numpy_pool.query_components(labels, 0)
    got = _bound_sample(native_pool, labels)
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
        numpy_pool.query_components(labels, 0, mask), _bound_sample(native_pool, labels, mask)
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


# ----------------------------------------------------------------------
# the round-tail contract over hand-built samples
# ----------------------------------------------------------------------
def _tail_rounds(query, samples):
    """Run ``query`` over ``samples[r]`` (roots, statuses, indices) for
    every round ``r``; the state each round's tail leaves behind."""
    states = []
    for round_index in range(len(samples)):
        query.sample(round_index)
        query.tail()
        states.append((
            query.labels.tolist(), query.settled.tolist(), query.active.tolist(),
            query.edges[:, : query.counts[MERGED]].T.tolist(), query.counts.tolist(),
        ))
    return states


def test_round_tail_contract_table():
    """Both tails over every status and every invalid slot shape."""
    n = 10
    encoder = EdgeEncoder(n)
    good, zero, fail = SAMPLE_GOOD, SAMPLE_ZERO, SAMPLE_FAIL
    table = [
        [  # round 0: every node its own component
            (0, good, encoder.encode(0, n - 1)),      # boundary-valid (0, n-1)
            (1, zero, -1),
            (2, fail, -1),
            (3, good, -1),                            # idx = -1
            (4, good, n * n),                         # idx >= V^2
            (5, good, 5 * n + 5),                     # u == v
            (6, good, 7 * n + 6),                     # u > v
            (7, good, encoder.encode(n - 2, n - 1)),  # boundary-valid (n-2, n-1)
            (8, good, encoder.encode(3, 4)),
            (9, good, encoder.encode(0, n - 1)),      # sampled from both sides
        ],
        [  # round 1: {0, 8, 9} {1 settled} {2} {3, 4} {5} {6} {7}
            (0, good, encoder.encode(2, 9)),
            (2, good, encoder.encode(2, 9)),
            (3, zero, -1),
            (5, good, encoder.encode(1, 5)),          # merges into a settled root
            (6, fail, -1),
            (7, good, encoder.encode(6, 7)),
        ],
    ]
    samples = [
        tuple(np.asarray(column, dtype=dtype) for column, dtype in
              zip(zip(*rows), (np.int64, np.uint8, np.int64)))
        for rows in table
    ]

    def sampler(round_index, labels, mask):
        return samples[round_index]

    expected = _tail_rounds(RoundQuery(n, encoder, sampler), samples)
    assert _tail_rounds(NATIVE.bind_query(n, encoder, sampler), samples) == expected
    (labels0, settled0, active0, edges0, counts0), (labels1, settled1, active1, edges1, counts1) = expected
    assert edges0 == [[0, 9], [8, 9], [3, 4]]
    assert counts0 == [1, 1, 8, 4, 3, 3]  # ZERO, FAIL, GOOD, invalid, merges, so far
    assert labels0 == [0, 1, 2, 3, 3, 5, 6, 7, 0, 0]
    assert [node for node in range(n) if settled0[node]] == [1]
    assert [node for node in range(n) if not active0[node]] == [1]
    assert edges1 == edges0 + [[2, 9], [1, 5], [6, 7]]
    assert counts1 == [1, 1, 4, 0, 3, 6]
    assert labels1 == [0, 1, 0, 3, 3, 1, 6, 6, 0, 0]
    assert [node for node in range(n) if settled1[node]] == [3]
    assert [node for node in range(n) if not active1[node]] == [3, 4]
    # The encoder owns the slot layout: every endpoint pair the C tail
    # decoded is EdgeEncoder.decode of a sampled slot.
    slots = {int(index) for _, _, indices in samples for index in indices}
    assert all(encoder.decode(encoder.encode(u, v)) == (u, v) for u, v in edges1)
    assert {encoder.encode(u, v) for u, v in edges1} <= slots


def test_both_tails_decode_with_the_encoders_slot_layout():
    """A query over fewer nodes than its encoder: slots decode as the
    encoder's ``u * V + v``, and an endpoint past the graph raises."""
    n, encoder = 4, EdgeEncoder(6)
    good = np.full(2, SAMPLE_GOOD, dtype=np.uint8)
    inside = [(np.asarray([0, 2]), good, np.asarray([encoder.encode(0, 3), encoder.encode(2, 3)]))]
    outside = [(np.asarray([1]), good[:1], np.asarray([encoder.encode(1, 5)]))]

    def bound(bind, samples):
        return bind(n, encoder, lambda round_index, labels, mask: samples[round_index])

    expected = _tail_rounds(bound(RoundQuery, inside), inside)
    assert _tail_rounds(bound(NATIVE.bind_query, inside), inside) == expected
    assert expected[0][3] == [[0, 3], [2, 3]]
    with pytest.raises(IndexError):
        _tail_rounds(bound(RoundQuery, outside), outside)
    with pytest.raises(ValueError, match="outside the graph"):
        _tail_rounds(bound(NATIVE.bind_query, outside), outside)


# ----------------------------------------------------------------------
# the bound path
# ----------------------------------------------------------------------
class _CountingLib:
    """The provider's library, counting every call of every entry point."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = {}

    def __getattr__(self, name):
        entry = getattr(self._lib, name)

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return entry(*args)

        return counted


def test_a_warm_query_is_two_foreign_calls_per_round(monkeypatch):
    engine = GraphZeppelin(240, GraphZeppelinConfig(kernel_backend="native", seed=3))
    rng = np.random.default_rng(3)
    u = rng.integers(0, 240, 300)
    engine.ingest_batch(np.stack([u, (u + rng.integers(1, 12, 300)) % 240], axis=1))
    engine.list_spanning_forest()
    engine.ingest_batch([(0, 1), (5, 200)])
    counting = _CountingLib(NATIVE._lib)
    monkeypatch.setattr(NATIVE, "_lib", counting)
    engine.list_spanning_forest()
    rounds = engine.last_query_stats.rounds_used
    assert rounds >= 2
    assert counting.calls == {"repro_sample_components": rounds, "repro_round_tail": rounds}
