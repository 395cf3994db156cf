"""The native Boruvka round -- fused sample kernel + round tail -- bit for bit.

A native provider's ``bind_query`` replaces the composed group -> reduce
-> decode sampling and the numpy validate/decode/union-find/relabel tail
of :func:`vectorized_spanning_forest` with one C loop
(``repro_boruvka``): every round of an in-RAM pool's query in one call,
one call per round of a paged pool's.  All are pure optimisations:
forest edges *in merge order*, every :class:`BoruvkaStats` field and the
final per-node component labels must equal the numpy driver's, on packed
and wide pools either side of the 65 536-node boundary, flat and paged.
The sample and the tail kernels are also driven directly
(``native_round``) over hand-built slabs and samples, for the branches
random streams rarely hit.

Skips (not errors) when no provider with the round kernels is usable.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boruvka import (
    MERGED, RoundQuery, pool_spanning_forest, round_tail, vectorized_spanning_forest,
)
from repro.core.config import GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import ConnectivityError, InvalidStreamError
from repro.hashing.mixers import finalise_hash64_inplace
from repro.kernels import native_cc, native_kernels
from repro.kernels.numpy_kernels import NUMPY_KERNELS
from repro.memory.hybrid import HybridMemory
from repro.observability import default_registry, install_trace_ring
from repro.observability.tracing import remove_trace_ring
from repro.sketch.paged_pool import PagedTensorPool
from repro.sketch.sketch_base import SAMPLE_FAIL, SAMPLE_GOOD, SAMPLE_ZERO
from repro.sketch.tensor_pool import NodeTensorPool
from native_round import NativeTail, fused_sample
from sketch_reference import SEVEN_COLUMN_DELTA, pool_geometry

NATIVE = native_kernels()

pytestmark = pytest.mark.skipif(
    NATIVE is None,
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


def _round_trace(pool):
    """The driver over ``pool`` as the engine runs it: bound by the pool's
    provider (the fused sample and the compiled tail when it is native)."""
    forest, stats = pool_spanning_forest(pool, pool.num_rounds)
    return (
        forest.edges, forest.complete, dataclasses.asdict(stats),
        forest.component_labels(), forest.num_components,
    )


def _assert_native_round_matches_numpy(num_nodes, seed, edges, paged, **shape):
    traces = []
    for kernels in (NUMPY_KERNELS, NATIVE):
        pool = _pool(num_nodes, seed, kernels, paged, **shape)
        _fold(pool, edges)
        traces.append(_round_trace(pool))
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


def test_single_node_needs_no_round(monkeypatch):
    def sampler(round_index, labels, mask):
        raise AssertionError("a one-node graph has no cut to sample")

    counting = _CountingLib(NATIVE._lib)
    monkeypatch.setattr(NATIVE, "_lib", counting)
    forest, stats = vectorized_spanning_forest(1, 3, EdgeEncoder(2), sampler)
    assert (forest.edges, forest.component_labels()) == ((), [0])
    assert stats.rounds_used == 0
    assert counting.calls == {}  # no foreign call either


# ----------------------------------------------------------------------
# the one-call query of an in-RAM pool
# ----------------------------------------------------------------------
COUNTERS = ("query.rounds", "query.failed_samples", "query.reused_components", "query.incomplete")


@pytest.fixture(
    scope="module", params=["native", "portable"], ids=["numpy-vs-native", "numpy-vs-portable"]
)
def one_call_provider(request):
    """The provider under test: this build, or the one without ``-march=native``."""
    if request.param == "portable":
        return request.getfixturevalue("portable_build")[0]
    return NATIVE


def _observed_trace(pool, num_rounds, strict=False):
    """:func:`_round_trace` at ``num_rounds``, plus the registry counters'
    deltas and how many ``query.round`` spans it observed."""
    def observed():
        snapshot = default_registry().snapshot()
        spans = snapshot.histograms.get("query.round")
        return [snapshot.counters.get(name, 0) for name in COUNTERS], spans.count if spans else 0

    (counters, spans), raised = observed(), None
    try:
        forest, stats = pool_spanning_forest(pool, num_rounds, strict=strict)
        trace = (
            forest.edges, forest.complete, dataclasses.asdict(stats),
            forest.component_labels(),
        )
    except ConnectivityError as error:
        trace, raised = None, str(error)
    after, spans_after = observed()
    return trace, raised, [b - a for a, b in zip(counters, after)], spans_after - spans


@given(
    graph=small_graphs(), seed=seeds, force_wide=st.booleans(), data=st.data(),
    delta=st.sampled_from([0.01, 0.3, 0.6]),
)
@settings(max_examples=50, deadline=None)
def test_one_call_query_matches_the_numpy_driver_and_the_paged_pool(
    one_call_provider, graph, seed, force_wide, delta, data
):
    """Forest in merge order, labels, every stats field, the four counters'
    deltas and the round spans: the one-call query of an in-RAM pool, warm
    and cold, equals the numpy driver and the paged native pool's
    call per round, also when the rounds run out (strict or not)."""
    num_nodes, edges = graph
    provider, shape = one_call_provider, dict(wide=force_wide, delta=delta)
    pools = [
        _pool(num_nodes, seed, NUMPY_KERNELS, False, **shape),
        _pool(num_nodes, seed, provider, True, **shape),
        _pool(num_nodes, seed, provider, False, **shape),
    ]
    flat = pools[2]
    assert all(isinstance(provider.bind_query(pool), native_cc.CcBoruvka) for pool in pools[1:])
    num_rounds = data.draw(st.integers(min_value=1, max_value=flat.num_rounds))
    strict = data.draw(st.booleans())
    cut = data.draw(st.integers(min_value=0, max_value=len(edges)))
    _fold(flat, edges[:cut])
    _observed_trace(flat, flat.num_rounds)  # the memos now hold the prefix's samples
    for pool in pools:
        _fold(pool, edges[cut:] if pool is flat else edges)
    expected = _observed_trace(pools[0], num_rounds, strict)
    assert _observed_trace(pools[1], num_rounds, strict) == expected
    warm = _observed_trace(flat, num_rounds, strict)
    memos, flat._round_memos = flat._round_memos, None
    try:
        assert _observed_trace(flat, num_rounds, strict) == expected  # cold: nothing reused
    finally:
        flat._round_memos = memos
    counters = list(expected[2])
    counters[2] = warm[2][2]  # the warm query may reuse memoised samples
    assert warm == (*expected[:2], counters, expected[3])
    assert expected[2][2] == 0 and (expected[1] is None) != (expected[2][3] == 1 and strict)


def test_the_one_call_query_records_each_round_in_the_trace_ring():
    """Three spans per round, timed in C: the round starts with its
    sample, its tail follows the sample, and rounds follow each other."""
    pool = _pool(64, 5, NATIVE, False)
    _fold(pool, PATH)
    ring = install_trace_ring()
    try:
        _, _, counters, spans = _observed_trace(pool, pool.num_rounds)
    finally:
        remove_trace_ring()
    events = [(name, start, duration) for name, start, duration, _ in ring.events()]
    assert [name for name, _, _ in events] == ["query.sample", "query.unionfind", "query.round"] * spans
    assert spans == counters[0] >= 2
    end = events[0][1]
    for (_, sample, sampled), (_, tail, tailed), (_, round_start, took) in zip(*[iter(events)] * 3):
        assert round_start == sample >= end and tail == sample + sampled
        assert took == sampled + tailed > 0
        end = round_start + took


def test_running_out_of_rounds_is_counted_then_raised_under_strict():
    """A 64-node path needs more than two rounds: at one or two the forest
    is incomplete, ``query.incomplete`` counts it, and ``strict`` raises
    only after that count is made; the one-call query agrees with numpy
    (its memo, warm after the first query, aside)."""
    pools = [_pool(64, 5, kernels, False) for kernels in (NUMPY_KERNELS, NATIVE)]
    for pool in pools:
        _fold(pool, PATH)

    def traces(num_rounds, strict):
        both = [_observed_trace(pool, num_rounds, strict) for pool in pools]
        for trace in both:
            del trace[2][2]  # query.reused_components
        assert both[0] == both[1]
        return both[1]

    for num_rounds in (1, 2):
        (_, complete, stats, _), raised, counters, spans = traces(num_rounds, False)
        assert not complete and raised is None
        assert stats["rounds_used"] == num_rounds == counters[0] == spans
        assert counters[2] == 1  # query.incomplete
        trace, raised, strict_counters, strict_spans = traces(num_rounds, True)
        assert trace is None
        assert raised.startswith(f"Boruvka did not converge within {num_rounds} rounds")
        assert (strict_counters, strict_spans) == (counters, spans)


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
        for kernels in (NUMPY_KERNELS, NATIVE)
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


def _bound_sample(pool, labels, mask=None):
    """Round 0's fused sample of ``labels`` over ``pool``, by the C kernel."""
    return fused_sample(NATIVE._lib, pool, labels, 0, mask)


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
    traces = [_round_trace(numpy_pool), _round_trace(native_pool)]
    assert traces[0] == traces[1]
    forest_edges, _, stats, _, _ = traces[1]
    assert stats["invalid_samples"] >= 1
    assert forest_edges == ((6, 7),)
    assert numpy_pool.encoder.decode(edge) == (6, 7)


# ----------------------------------------------------------------------
# the round-tail contract over hand-built samples
# ----------------------------------------------------------------------
def _tail_rounds(query, samples):
    """Feed ``samples[r]`` (roots, statuses, indices) to ``query``'s tail --
    the numpy :func:`round_tail` of a :class:`RoundQuery`, or the C tail of
    a :class:`NativeTail` -- for every round ``r``; the state each round's
    tail leaves behind."""
    states = []
    for sample in samples:
        if isinstance(query, NativeTail):
            query.tail(*sample)
        else:
            round_tail(query, *sample)
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

    expected = _tail_rounds(RoundQuery(n, encoder, None), samples)
    assert _tail_rounds(NativeTail(NATIVE._lib, n, encoder), samples) == expected
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

    expected = _tail_rounds(RoundQuery(n, encoder, None), inside)
    assert _tail_rounds(NativeTail(NATIVE._lib, n, encoder), inside) == expected
    assert expected[0][3] == [[0, 3], [2, 3]]
    with pytest.raises(IndexError):
        _tail_rounds(RoundQuery(n, encoder, None), outside)
    with pytest.raises(ValueError, match="outside the graph"):
        _tail_rounds(NativeTail(NATIVE._lib, n, encoder), outside)


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


def _warm_query_calls(monkeypatch, config):
    """The foreign calls of a query after a query and a small delta, and its rounds."""
    engine = GraphZeppelin(240, config)
    rng = np.random.default_rng(3)
    u = rng.integers(0, 240, 300)
    engine.ingest_batch(np.stack([u, (u + rng.integers(1, 12, 300)) % 240], axis=1))
    engine.list_spanning_forest()
    engine.ingest_batch([(0, 1), (5, 200)])
    engine.flush()
    counting = _CountingLib(NATIVE._lib)
    with monkeypatch.context() as patch:
        patch.setattr(NATIVE, "_lib", counting)
        engine.list_spanning_forest()
    rounds = engine.last_query_stats.rounds_used
    assert rounds >= 2
    return counting.calls, rounds


def test_a_warm_flat_query_is_one_foreign_call(monkeypatch):
    config = GraphZeppelinConfig(kernel_backend="native", seed=3)
    assert _warm_query_calls(monkeypatch, config)[0] == {"repro_boruvka": 1}


def test_a_paged_one_call_query_is_one_call_per_round(one_call_provider, monkeypatch):
    """A warm query over a paged pool: ``repro_boruvka`` once per round,
    neither per-round entry point, and the numpy driver's answer."""
    provider, rng = one_call_provider, np.random.default_rng(3)
    u = rng.integers(0, 240, 300)
    edges = np.stack([u, (u + rng.integers(1, 12, 300)) % 240], axis=1).tolist()
    pools = [_pool(240, 3, kernels, True) for kernels in (NUMPY_KERNELS, provider)]
    for pool in pools:
        _fold(pool, edges)
        _round_trace(pool)
        _fold(pool, [(0, 1), (5, 200)])
    expected = _round_trace(pools[0])
    counting = _CountingLib(provider._lib)
    monkeypatch.setattr(provider, "_lib", counting)
    assert _round_trace(pools[1]) == expected
    rounds = expected[2]["rounds_used"]
    assert rounds >= 2 and counting.calls == {"repro_boruvka": rounds}


def _native_engine(num_nodes=240, seed=3):
    engine = GraphZeppelin(num_nodes, GraphZeppelinConfig(kernel_backend="native", seed=seed))
    rng = np.random.default_rng(seed)
    u = rng.integers(0, num_nodes, 300)
    engine.ingest_batch(np.stack([u, (u + rng.integers(1, 12, 300)) % num_nodes], axis=1))
    return engine, rng


def test_a_warm_ingest_is_two_foreign_calls(monkeypatch):
    """After a query, a 64-edge batch is the canonical-edge kernel and one
    fold, and the stamps that kernel wrote steer the next query's memo."""
    counting = _CountingLib(NATIVE._lib)
    monkeypatch.setattr(NATIVE, "_lib", counting)
    engine, rng = _native_engine()
    engine.list_spanning_forest()
    u = rng.integers(0, 240, 64)
    counting.calls.clear()
    engine.ingest_batch(np.stack([u, (u + rng.integers(1, 239, 64)) % 240], axis=1))
    assert counting.calls == {"repro_canonical_edges": 1, "repro_fold_edges_packed": 1}

    forest = engine.list_spanning_forest()
    warm = (forest.edges, dataclasses.asdict(engine.last_query_stats))
    engine._cached_forest = None
    pool = engine.tensor_pool
    memos, pool._round_memos = pool._round_memos, None
    forest = engine.list_spanning_forest()
    assert warm == (forest.edges, dataclasses.asdict(engine.last_query_stats))
    assert memos  # the warm query did read its memos


def test_a_batch_past_the_scratch_is_still_one_check_and_one_fold(monkeypatch):
    """A batch longer than ``INGEST_SCRATCH_ROWS`` is folded from columns
    allocated for it: still two foreign calls, the buckets numpy's, the
    retained scratch no longer than the cap, and a bad last row writes
    nothing."""
    from repro.kernels import native_cc

    monkeypatch.setattr(native_cc, "INGEST_SCRATCH_ROWS", 100)
    rng = np.random.default_rng(8)
    u = rng.integers(0, 240, 250)
    batch = np.stack([u, (u + rng.integers(1, 239, 250)) % 240], axis=1)
    counting = _CountingLib(NATIVE._lib)
    monkeypatch.setattr(NATIVE, "_lib", counting)
    native = GraphZeppelin(240, GraphZeppelinConfig(kernel_backend="native", seed=3))
    reference = GraphZeppelin(240, GraphZeppelinConfig(seed=3))
    pool = native.tensor_pool
    for engine in (native, reference):
        engine.ingest_batch(batch)
        engine.ingest_batch(batch[:60])
    assert counting.calls == {"repro_canonical_edges": 2, "repro_fold_edges_packed": 2}
    assert NATIVE._bound(pool, pool._slot_offsets)[2].shape == (3, 60)
    assert all(
        np.array_equal(a, b)
        for a, b in zip(pool.raw_tensors(), reference.tensor_pool.raw_tensors())
    )
    version, before = pool._version, pool.raw_tensors()
    batch[-1] = (7, 7)
    with pytest.raises(InvalidStreamError, match="batch row 249: self loop"):
        native.ingest_batch(batch)
    assert pool._version == version
    assert all(np.array_equal(a, b) for a, b in zip(pool.raw_tensors(), before))
