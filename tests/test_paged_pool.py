"""The paged out-of-core tensor pool must be bit-identical to in-RAM.

The PR 4 acceptance property: a `PagedTensorPool` engine -- any RAM
budget, any page size, any buffering mode, batched or per-update
ingest -- holds exactly the same bucket tensors as the in-RAM
`NodeTensorPool` under the same seed, and therefore returns the same
spanning forest.  Plus unit coverage for the page machinery itself:
LRU pinning, dirty write-back and partial-range round reads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import BufferingMode, GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import ConfigurationError
from repro.memory.hybrid import HybridMemory
from repro.sketch.paged_pool import PagedTensorPool, plan_page_bounds
from repro.sketch.tensor_pool import NodeTensorPool
from sketch_reference import pool_geometry, reference_forest

NUM_NODES = 48

seeds = st.integers(min_value=0, max_value=2**32 - 1)
edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_NODES - 1),
        st.integers(min_value=0, max_value=NUM_NODES - 1),
    ).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=150,
)


def _edge_array(edges):
    return np.asarray(edges, dtype=np.int64)


def _assert_pools_identical(reference: NodeTensorPool, paged: PagedTensorPool):
    ref_alpha, ref_gamma = reference.raw_tensors()
    got_alpha, got_gamma = paged.raw_tensors()
    assert np.array_equal(ref_alpha, got_alpha)
    assert np.array_equal(
        np.asarray(ref_gamma, dtype=np.uint64), np.asarray(got_gamma, dtype=np.uint64)
    )


# ----------------------------------------------------------------------
# the tentpole property: bit-identical across budgets / pages / modes
# ----------------------------------------------------------------------
@given(
    edges=edge_lists,
    seed=seeds,
    ram_budget=st.sampled_from([0, 2_000, 50_000, 5_000_000]),
    nodes_per_page=st.sampled_from([None, 1, 5, 16, 64]),
    buffering=st.sampled_from(list(BufferingMode)),
)
@settings(max_examples=30, deadline=None)
def test_paged_engine_bit_identical_to_in_ram(
    edges, seed, ram_budget, nodes_per_page, buffering
):
    in_ram = GraphZeppelin(
        NUM_NODES, config=GraphZeppelinConfig(seed=seed, buffering=buffering)
    )
    paged = GraphZeppelin(
        NUM_NODES,
        config=GraphZeppelinConfig(
            seed=seed,
            buffering=buffering,
            ram_budget_bytes=ram_budget,
            nodes_per_page=nodes_per_page,
        ),
    )
    assert isinstance(paged.tensor_pool, PagedTensorPool)
    array = _edge_array(edges)
    in_ram.ingest_batch(array)
    paged.ingest_batch(array)
    in_ram.flush()
    paged.flush()
    _assert_pools_identical(in_ram.tensor_pool, paged.tensor_pool)
    assert (
        in_ram.list_spanning_forest().partition_signature()
        == paged.list_spanning_forest().partition_signature()
    )
    assert paged.updates_processed == in_ram.updates_processed


@given(edges=edge_lists, seed=seeds)
@settings(max_examples=15, deadline=None)
def test_paged_scalar_and_batched_ingest_agree(edges, seed):
    config = dict(seed=seed, ram_budget_bytes=4_000, nodes_per_page=7)
    batched = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(**config))
    scalar = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(**config))
    batched.ingest_batch(_edge_array(edges))
    for u, v in edges:
        scalar.edge_update(u, v)
    batched.flush()
    scalar.flush()
    _assert_pools_identical(batched.tensor_pool, scalar.tensor_pool)
    # The vectorized whole-round driver answers from the paged pool and
    # agrees with the scalar per-component reference on the same state.
    vec = batched.list_spanning_forest()
    ref, ref_stats = reference_forest(scalar)
    assert vec.edges == ref.edges
    assert batched.last_query_stats == ref_stats


# ----------------------------------------------------------------------
# page machinery
# ----------------------------------------------------------------------
def test_plan_page_bounds_shapes():
    bounds = plan_page_bounds(10, node_bytes=100, block_size=1024, nodes_per_page=4)
    assert bounds.tolist() == [0, 4, 8, 10]
    auto = plan_page_bounds(1000, node_bytes=4096, block_size=16384)
    # Auto sizing targets 16 blocks -> 64 nodes of 4 KiB per page.
    assert auto[1] - auto[0] == 64
    # Tiny graphs collapse to one page.
    assert plan_page_bounds(3, node_bytes=10, block_size=1024).tolist() == [0, 3]


def test_paged_pool_rejects_unbounded_memory():
    encoder = EdgeEncoder(8)
    with pytest.raises(ConfigurationError):
        PagedTensorPool(8, encoder, memory=HybridMemory(ram_bytes=None))


def test_page_payload_is_whole_blocks_and_spills():
    encoder = EdgeEncoder(32)
    memory = HybridMemory(ram_bytes=0, block_size=4096)
    pool = PagedTensorPool(
        32, encoder, memory=memory, graph_seed=7, nodes_per_page=4, resident_pages=1
    )
    assert pool.page_payload_bytes(0) % memory.block_size == 0
    rng = np.random.default_rng(0)
    u = rng.integers(0, 32, 300)
    v = (u + 1 + rng.integers(0, 30, 300)) % 32
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    pool.apply_edges(lo, hi, encoder.encode_canonical_pairs(lo, hi))
    # With a one-page working set and zero RAM budget, folds must have
    # written dirty pages through to the device.
    assert pool.page_writebacks > 0
    assert memory.stats.block_writes > 0
    assert pool.page_stats()["resident_pages"] <= 1
    # ...and a whole-round query reads partial ranges, not whole pages.
    reads_before = memory.stats.block_reads
    pool.query_components(np.zeros(32, dtype=np.int64), 0)
    partial_blocks = memory.stats.block_reads - reads_before
    assert 0 < partial_blocks < (pool.num_pages - 1) * (
        pool.page_payload_bytes(0) // memory.block_size
    )
    assert pool.partial_reads > 0


def test_dirty_page_write_back_survives_eviction_round_trip():
    encoder = EdgeEncoder(24)
    memory = HybridMemory(ram_bytes=0, block_size=1024)
    pool = PagedTensorPool(
        24, encoder, memory=memory, graph_seed=3, nodes_per_page=4, resident_pages=2
    )
    reference = NodeTensorPool(24, encoder, graph_seed=3)
    rng = np.random.default_rng(5)
    # Many small folds across all pages force repeated evict/reload.
    for _ in range(12):
        u = rng.integers(0, 24, 40)
        v = (u + 1 + rng.integers(0, 22, 40)) % 24
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        idx = encoder.encode_canonical_pairs(lo, hi)
        pool.apply_edges(lo, hi, idx)
        reference.apply_edges(lo, hi, idx)
    _assert_pools_identical(reference, pool)
    assert pool.page_ins > 0  # pages really did round-trip through bytes


def test_paged_node_sketch_reads_through_the_page():
    encoder = EdgeEncoder(16)
    memory = HybridMemory(ram_bytes=2_000, block_size=1024)
    pool = PagedTensorPool(16, encoder, memory=memory, graph_seed=2, nodes_per_page=4)
    pool.apply_node_batch(5, [1, 2, 9])
    sketch = pool.node_sketch(5)
    reference = NodeTensorPool(16, encoder, graph_seed=2)
    reference.apply_node_batch(5, [1, 2, 9])
    assert sketch == reference.node_sketch(5)
    assert not sketch.is_empty()
    assert pool.node_sketch(6).is_empty()
    _assert_pools_identical(reference, pool)


def test_paged_engine_charges_io_and_reports_page_stats():
    engine = GraphZeppelin(
        40,
        config=GraphZeppelinConfig(
            seed=11, ram_budget_bytes=2_000, nodes_per_page=5
        ),
    )
    rng = np.random.default_rng(11)
    u = rng.integers(0, 40, 500)
    v = (u + 1 + rng.integers(0, 38, 500)) % 40
    edges = np.stack([u, v], axis=1)
    engine.ingest_batch(edges)
    forest = engine.list_spanning_forest()
    stats = engine.tensor_pool.page_stats()
    assert stats["num_pages"] == 8
    assert stats["page_payload_bytes"] % engine.memory.block_size == 0
    assert engine.io_stats.total_ios > 0
    assert engine.io_stats.modelled_seconds > 0
    # At least half the pages do not fit the working set, and the
    # spilling engine still answers bit for bit like the in-RAM one.
    assert 2 * stats["resident_budget"] <= stats["num_pages"]
    in_ram = GraphZeppelin(40, config=GraphZeppelinConfig(seed=11))
    in_ram.ingest_batch(edges)
    _assert_pools_identical(in_ram.tensor_pool, engine.tensor_pool)
    assert forest.partition_signature() == in_ram.list_spanning_forest().partition_signature()


def test_wide_mode_paged_pool_matches_in_ram():
    encoder = EdgeEncoder(20)
    memory = HybridMemory(ram_bytes=1_000, block_size=512)
    wide = pool_geometry(20, wide=True)
    paged = PagedTensorPool(
        20, encoder, memory=memory, graph_seed=9, geometry=wide, nodes_per_page=3
    )
    reference = NodeTensorPool(20, encoder, graph_seed=9, geometry=wide)
    rng = np.random.default_rng(9)
    u = rng.integers(0, 20, 200)
    v = (u + 1 + rng.integers(0, 18, 200)) % 20
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    idx = encoder.encode_canonical_pairs(lo, hi)
    paged.apply_edges(lo, hi, idx)
    reference.apply_edges(lo, hi, idx)
    _assert_pools_identical(reference, paged)
    labels = rng.integers(0, 4, 20)
    for round_index in range(min(4, paged.num_rounds)):
        ref = reference.query_components(labels, round_index)
        got = paged.query_components(labels, round_index)
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)


def test_pin_never_evicts_the_just_pinned_page():
    """Eviction must skip the page being pinned, even on a full working set.

    Regression: _pin used to insert the page and sweep evictions before
    recording the pin -- with every other resident page pinned (one
    pin held while another is taken) the sweep picked the brand
    new page itself, orphaning the tensor the caller was about to fold
    into and silently dropping its updates.
    """
    encoder = EdgeEncoder(16)
    memory = HybridMemory(ram_bytes=0, block_size=1024)
    pool = PagedTensorPool(
        16, encoder, memory=memory, graph_seed=1, nodes_per_page=4, resident_pages=1
    )
    first = pool._pin(0)
    try:
        second = pool._pin(1)  # overflows the 1-page budget
        try:
            assert 1 in pool._resident  # must not have evicted itself
            assert second is pool._resident[1]
        finally:
            pool._unpin(1)
    finally:
        pool._unpin(0)


def test_working_set_is_reserved_from_the_ram_budget():
    """The frames (working set + one spare) come out of the configured budget."""
    encoder = EdgeEncoder(32)
    memory = HybridMemory(ram_bytes=1 << 20, block_size=1024)
    pool = PagedTensorPool(32, encoder, memory=memory, graph_seed=1, nodes_per_page=4)
    reserved = (pool.resident_pages + 1) * pool.page_payload_bytes(0)
    assert memory.reserved_bytes == reserved <= (1 << 20)
    assert len(pool._free_frames) == pool.resident_pages + 1
    assert sum(frame.nbytes for frame in pool._free_frames) == reserved
    # What is left is what the next reservation can have, not a byte more.
    assert memory.reserve(1 << 20) == (1 << 20) - reserved
    assert memory.reserve(1) == 0 and memory.cached_bytes + memory.reserved_bytes == 1 << 20


# ----------------------------------------------------------------------
# eviction write-back failure (the fault-injection contract)
# ----------------------------------------------------------------------
def test_failed_dirty_eviction_keeps_page_resident_and_dirty():
    """A device store that raises mid-write-back must lose nothing: the
    victim stays resident and dirty, the failure is counted, and a later
    healed sync persists the buckets bit-identically."""
    from repro.resilience.faults import FaultPlan, FaultSpec

    encoder = EdgeEncoder(24)
    memory = HybridMemory(ram_bytes=0, block_size=1024)
    pool = PagedTensorPool(
        24, encoder, memory=memory, graph_seed=3, nodes_per_page=4, resident_pages=2
    )
    reference = NodeTensorPool(24, encoder, graph_seed=3)
    rng = np.random.default_rng(7)
    u = rng.integers(0, 24, 60)
    v = (u + 1 + rng.integers(0, 22, 60)) % 24
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    idx = encoder.encode_canonical_pairs(lo, hi)
    pool.apply_edges(lo, hi, idx)
    reference.apply_edges(lo, hi, idx)

    assert pool._dirty, "fold should have left dirty resident pages"
    victim = next(iter(pool._resident))
    assert victim in pool._dirty

    memory.fault_plan = FaultPlan([FaultSpec(site="device.write", at=1)])
    pool.resident_pages = 0  # force eviction pressure on every page
    pool._evict_to_budget()

    assert pool.page_writeback_failures == 1
    assert pool.page_stats()["page_writeback_failures"] == 1
    assert memory.stats.write_failures == 1
    # The victim survived the failed write-back, still dirty.
    assert victim in pool._resident
    assert victim in pool._dirty

    # Healed device: sync drains every dirty page and state is intact.
    memory.fault_plan = None
    pool.resident_pages = 2
    pool.sync()
    assert not pool._dirty
    _assert_pools_identical(reference, pool)


def test_sync_failure_leaves_exactly_unwritten_pages_dirty():
    from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault

    encoder = EdgeEncoder(24)
    memory = HybridMemory(ram_bytes=0, block_size=1024)
    pool = PagedTensorPool(
        24, encoder, memory=memory, graph_seed=3, nodes_per_page=4,
        resident_pages=6,
    )
    rng = np.random.default_rng(9)
    u = rng.integers(0, 24, 60)
    v = (u + 1 + rng.integers(0, 22, 60)) % 24
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    pool.apply_edges(lo, hi, encoder.encode_canonical_pairs(lo, hi))
    dirty_before = set(pool._dirty)
    assert len(dirty_before) >= 2

    # Fail the second write of the sync sweep: exactly one page drains.
    memory.fault_plan = FaultPlan([FaultSpec(site="device.write", at=2)])
    with pytest.raises(InjectedFault):
        pool.sync()
    assert len(pool._dirty) == len(dirty_before) - 1
    memory.fault_plan = None
    pool.sync()
    assert not pool._dirty


# ----------------------------------------------------------------------
# the native fold: a one-page column goes straight to its page
# ----------------------------------------------------------------------
def _native_paged_pair(native_provider, monkeypatch):
    """A 5-node-page native pool over 21 nodes (one-node tail page), its
    numpy in-RAM reference, and the list of pages ``_split_by_page`` grouped."""
    encoder = EdgeEncoder(21)
    paged = PagedTensorPool(
        21, encoder, memory=HybridMemory(ram_bytes=1 << 20), graph_seed=3,
        nodes_per_page=5, kernels=native_provider,
    )
    assert paged.page_span(paged.num_pages - 1) == (20, 21)
    grouped = []
    split = paged._split_by_page

    def recording_split(pages, columns):
        groups = split(pages, columns)
        grouped.append([page for page, _ in groups])
        return groups

    monkeypatch.setattr(paged, "_split_by_page", recording_split)
    return paged, NodeTensorPool(21, encoder, graph_seed=3), grouped


@pytest.mark.parametrize(
    "dsts", [[5, 9, 7, 5, 9], [12], [20, 20, 20]], ids=["whole-page", "one-update", "tail-page"]
)
def test_native_one_page_column_skips_the_grouping(native_provider, monkeypatch, dsts):
    paged, reference, grouped = _native_paged_pair(native_provider, monkeypatch)
    dsts = np.asarray(dsts)
    indices = paged.encoder.encode_batch(0, 1 + np.arange(dsts.size))
    page_lo, page_hi = paged.page_span(paged.page_of(dsts[0]))
    paged.fold_page_batch(page_lo, page_hi, dsts, indices)
    reference.apply_updates(dsts, indices)
    assert grouped == []
    assert paged.updates_applied == dsts.size
    _assert_pools_identical(reference, paged)


@pytest.mark.parametrize(
    "dsts, pages",
    [([4, 5], [0, 1]), ([9, 4, 9, 4], [0, 1]), ([19, 20], [3, 4]), ([0, 12, 20], [0, 2, 4])],
    ids=["straddle", "straddle-unsorted", "into-tail-page", "three-pages"],
)
def test_native_multi_page_column_keeps_the_grouped_path(
    native_provider, monkeypatch, dsts, pages
):
    paged, reference, grouped = _native_paged_pair(native_provider, monkeypatch)
    dsts = np.asarray(dsts)
    indices = paged.encoder.encode_batch(0, 1 + np.arange(dsts.size))
    paged.apply_updates(dsts, indices)
    reference.apply_updates(dsts, indices)
    assert grouped == [pages]
    _assert_pools_identical(reference, paged)


def test_native_two_column_fold_keeps_the_grouped_path(native_provider, monkeypatch):
    paged, reference, grouped = _native_paged_pair(native_provider, monkeypatch)
    lo, hi = np.array([5, 6, 7]), np.array([8, 9, 9])  # both endpoints in page 1
    indices = paged.encoder.encode_canonical_pairs(lo, hi)
    paged.apply_edges(lo, hi, indices)
    reference.apply_edges(lo, hi, indices)
    assert grouped == [[1]]
    _assert_pools_identical(reference, paged)
