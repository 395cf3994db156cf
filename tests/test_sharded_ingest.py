"""Tests for the sharded columnar parallel ingest layer.

The load-bearing property: sharded parallel ingest -- worker threads
over the in-RAM pool, any shard count -- produces **bit-identical**
pool tensors, spanning forests, and query stats to serial
``ingest_batch`` under the same seed, and every parallel path
invalidates the cached forest.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.config import GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import ConfigurationError
from repro.generators.random_graphs import random_multigraph_edges
from repro.parallel.graph_workers import ShardedIngestor, partition_mirrored_updates
from repro.sketch.tensor_pool import (
    SHARDS_PER_WORKER,
    NodeTensorPool,
    auto_num_shards,
    shard_bounds,
)


def _engine(num_nodes, **overrides):
    return GraphZeppelin(num_nodes, config=GraphZeppelinConfig(seed=11, **overrides))


def _pool_state(engine):
    alpha, gamma = engine.tensor_pool.raw_tensors()
    return alpha.copy(), gamma.copy()


# ----------------------------------------------------------------------
# shard planning and the partition step
# ----------------------------------------------------------------------
def test_shard_bounds_cover_node_space_evenly():
    bounds = shard_bounds(103, 4)
    assert bounds[0] == 0 and bounds[-1] == 103
    sizes = np.diff(bounds)
    assert sizes.sum() == 103
    assert sizes.max() - sizes.min() <= 1  # non-divisible: off by at most one


def test_shard_bounds_degenerate_cases():
    assert shard_bounds(10, 1).tolist() == [0, 10]
    # More shards than nodes: empty tail ranges, still a valid cover.
    bounds = shard_bounds(3, 5)
    assert bounds[0] == 0 and bounds[-1] == 3
    assert (np.diff(bounds) >= 0).all()
    with pytest.raises(ValueError):
        shard_bounds(10, 0)


def test_auto_num_shards_balances_load_per_worker():
    assert auto_num_shards(20_000, num_workers=4) == 4 * SHARDS_PER_WORKER
    assert auto_num_shards(20_000) == SHARDS_PER_WORKER
    # Never more shards than nodes.
    assert auto_num_shards(3, num_workers=4) == 3


def test_partition_mirrored_updates_routes_each_endpoint():
    num_nodes = 23
    edges = random_multigraph_edges(num_nodes, 200, seed=3)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    encoder = EdgeEncoder(num_nodes)
    indices = encoder.encode_canonical_pairs(lo, hi)
    bounds = shard_bounds(num_nodes, 5)
    dsts, edge_rows, cuts = partition_mirrored_updates(lo, hi, bounds)

    assert dsts.size == 2 * lo.size  # each edge lands in two shards
    assert cuts[0] == 0 and cuts[-1] == dsts.size
    for shard in range(5):
        group = dsts[cuts[shard] : cuts[shard + 1]]
        assert ((group >= bounds[shard]) & (group < bounds[shard + 1])).all()
    # The groups are exactly the mirrored batch, reordered: every
    # (destination, slot) pair survives with its multiplicity,
    # resolving per-edge data through edge_rows.
    expected = sorted(zip(np.concatenate([lo, hi]).tolist(),
                          np.concatenate([indices, indices]).tolist()))
    assert sorted(zip(dsts.tolist(), indices[edge_rows].tolist())) == expected


# ----------------------------------------------------------------------
# mixed-node folds against per-node folds (the kernel's own oracle
# tests live in test_fold_kernel.py)
# ----------------------------------------------------------------------
def test_mixed_fold_matches_per_node_folds():
    num_nodes = 61
    encoder = EdgeEncoder(num_nodes)
    mixed = NodeTensorPool(num_nodes, encoder, graph_seed=5)
    grouped = NodeTensorPool(num_nodes, encoder, graph_seed=5)
    edges = random_multigraph_edges(num_nodes, 300, seed=9)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    indices = encoder.encode_canonical_pairs(lo, hi)

    mixed.apply_updates(np.concatenate([lo, hi]), np.concatenate([indices, indices]))
    for node in range(num_nodes):
        neighbors = np.concatenate([hi[lo == node], lo[hi == node]])
        if neighbors.size:
            grouped.apply_node_batch(node, neighbors)

    for a, b in zip(mixed.raw_tensors(), grouped.raw_tensors()):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# parallel/serial equivalence (the acceptance property)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", [1, 2, 5, 13])
def test_threads_backend_bit_identical_across_shard_counts(num_shards):
    num_nodes = 97  # not divisible by any tested shard count
    edges = random_multigraph_edges(num_nodes, 700, seed=21)

    serial = _engine(num_nodes)
    serial.ingest_batch(edges)
    serial_forest = serial.list_spanning_forest()

    parallel = _engine(num_nodes)
    with ShardedIngestor(
        parallel, num_workers=3, num_shards=num_shards, backend="threads"
    ) as ingestor:
        assert ingestor.ingest_batch(edges) == edges.shape[0]

    for a, b in zip(_pool_state(serial), _pool_state(parallel)):
        assert np.array_equal(a, b)
    forest = parallel.list_spanning_forest()
    assert forest.partition_signature() == serial_forest.partition_signature()
    assert sorted(forest.edges) == sorted(serial_forest.edges)
    assert parallel.last_query_stats == serial.last_query_stats
    assert parallel.updates_processed == serial.updates_processed
    assert parallel.tensor_pool.updates_applied == serial.tensor_pool.updates_applied


def test_pipelined_stream_matches_single_batch():
    num_nodes = 80
    edges = random_multigraph_edges(num_nodes, 900, seed=31)

    serial = _engine(num_nodes)
    serial.ingest_batch(edges)

    parallel = _engine(num_nodes)
    with ShardedIngestor(parallel, num_workers=2) as ingestor:
        total = ingestor.ingest_stream(
            edges[start : start + 128] for start in range(0, edges.shape[0], 128)
        )
    assert total == edges.shape[0]
    for a, b in zip(_pool_state(serial), _pool_state(parallel)):
        assert np.array_equal(a, b)


def test_repeated_batches_keep_toggle_semantics():
    """An edge folded twice cancels over Z_2 -- also through the shards."""
    num_nodes = 31
    edges = random_multigraph_edges(num_nodes, 120, seed=37)
    doubled = np.concatenate([edges, edges])

    parallel = _engine(num_nodes)
    with ShardedIngestor(parallel, num_workers=2, num_shards=3) as ingestor:
        ingestor.ingest_batch(doubled)
    alpha, gamma = parallel.tensor_pool.raw_tensors()
    assert not alpha.any() and not gamma.any()


def test_sharded_ingest_with_stream_validation_tracks_edges():
    num_nodes = 24
    edges = np.asarray([(0, 1), (2, 3), (0, 1)], dtype=np.int64)  # (0,1) toggles off
    engine = _engine(num_nodes, validate_stream=True)
    with ShardedIngestor(engine, num_workers=2) as ingestor:
        ingestor.ingest_batch(edges)
    assert engine._current_edges == {(2, 3)}


# ----------------------------------------------------------------------
# cache invalidation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["threads"])
def test_parallel_ingest_invalidates_cached_forest(backend):
    num_nodes = 40
    first = random_multigraph_edges(num_nodes, 150, seed=41)
    second = random_multigraph_edges(num_nodes, 150, seed=43)

    engine = _engine(num_nodes)
    with ShardedIngestor(engine, num_workers=2, backend=backend) as ingestor:
        ingestor.ingest_batch(first)
        cached = engine.list_spanning_forest()
        assert engine.list_spanning_forest() is cached  # cache hit
        ingestor.ingest_batch(second)
        assert engine.list_spanning_forest() is not cached  # parallel path retired it

        reference = _engine(num_nodes)
        reference.ingest_batch(np.concatenate([first, second]))
        # The fresh query must see the new folds -- including through the
        # pool's slab cache, which the mid-stream query above populated.
        assert (
            engine.list_spanning_forest().partition_signature()
            == reference.list_spanning_forest().partition_signature()
        )


def test_worker_failure_invalidates_caches_without_counting(tmp_path):
    """A shard worker crash mid-batch must not claim the batch landed.

    The surviving shards' folds already mutated the pool, so the forest
    and slab caches are invalidated -- but updates_processed stays
    untouched, because the batch did not fully ingest.
    """
    num_nodes = 30
    engine = _engine(num_nodes)
    engine.ingest_batch(random_multigraph_edges(num_nodes, 80, seed=53))
    cached = engine.list_spanning_forest()  # populate caches
    before = engine.updates_processed

    with ShardedIngestor(engine, num_workers=2, num_shards=3) as ingestor:
        with _one_shot_fold_failure(engine.tensor_pool):
            with pytest.raises(RuntimeError, match="worker crash"):
                ingestor.ingest_batch(random_multigraph_edges(num_nodes, 80, seed=54))
    assert engine.updates_processed == before
    # The caches are still retired: the answer is recomputed, and it is
    # the answer of a fresh engine over the state the surviving shards left.
    forest = engine.list_spanning_forest()
    assert forest is not cached
    snapshot = tmp_path / "after-failure.snap"
    engine.save_snapshot(snapshot)
    assert forest.edges == GraphZeppelin.load_snapshot(snapshot).list_spanning_forest().edges


@contextmanager
def _one_shot_fold_failure(pool):
    """Make the pool's next shard fold raise, then behave normally."""
    original = pool.fold_shard_hashed
    state = {"failed": False}

    def flaky(*args, **kwargs):
        if not state["failed"]:
            state["failed"] = True
            raise RuntimeError("worker crash")
        return original(*args, **kwargs)

    pool.fold_shard_hashed = flaky
    try:
        yield
    finally:
        del pool.fold_shard_hashed


def test_worker_failure_does_not_toggle_validated_edges():
    """The tracked edge set is only toggled after a successful barrier.

    A batch whose workers fail must leave the validated edge set
    untouched, or a retry of the same batch would double-toggle and
    record phantom insertions/deletions.
    """
    engine = _engine(24, validate_stream=True)
    edges = np.asarray([(0, 1), (2, 3)], dtype=np.int64)
    with ShardedIngestor(engine, num_workers=2) as ingestor:
        with _one_shot_fold_failure(engine.tensor_pool):
            with pytest.raises(RuntimeError, match="worker crash"):
                ingestor.ingest_batch(edges)
            assert engine._current_edges == set()  # no phantom toggles
            ingestor.ingest_batch(edges)  # retried batch toggles exactly once
    assert engine._current_edges == {(0, 1), (2, 3)}


def test_failed_stream_chunk_still_publishes_dispatched_batch():
    """A bad chunk must not leave the previous batch's folds unpublished.

    Batch B is dispatched, then _prepare raises on a malformed chunk C;
    B's folds still mutate the pool, so the cached forest and slab
    cache must be invalidated even though ingest_stream raises.
    """
    from repro.exceptions import InvalidStreamError

    num_nodes = 30
    good = random_multigraph_edges(num_nodes, 100, seed=51)
    bad = np.asarray([(5, 5)], dtype=np.int64)  # self loop -> InvalidStreamError

    engine = _engine(num_nodes)
    cached = engine.list_spanning_forest()  # populate forest + slab caches
    with ShardedIngestor(engine, num_workers=2) as ingestor:
        with pytest.raises(InvalidStreamError):
            ingestor.ingest_stream([good, bad])
    assert engine.list_spanning_forest() is not cached
    assert engine.updates_processed == good.shape[0]

    reference = _engine(num_nodes)
    reference.ingest_batch(good)
    assert (
        engine.list_spanning_forest().partition_signature()
        == reference.list_spanning_forest().partition_signature()
    )


def test_fold_shard_rejects_out_of_range_destinations():
    num_nodes = 16
    encoder = EdgeEncoder(num_nodes)
    pool = NodeTensorPool(num_nodes, encoder, graph_seed=1)
    indices = encoder.encode_canonical_pairs(np.asarray([1]), np.asarray([9]))
    with pytest.raises(ValueError):
        pool.fold_shard(np.asarray([9]), indices, 0, 8)


# ----------------------------------------------------------------------
# configuration and wiring
# ----------------------------------------------------------------------
def test_engine_factory_resolves_backends():
    engine = _engine(16, num_workers=3)
    configured = engine.parallel_ingestor()
    assert isinstance(configured, ShardedIngestor)
    assert configured.num_workers == 3
    sharded = engine.parallel_ingestor(backend="threads", num_workers=2)
    assert sharded.num_workers == 2


def test_sharded_ingestor_rejects_paged_pool():
    """A RAM-budgeted engine ingests serially; the error says so."""
    engine = GraphZeppelin(
        64,
        config=GraphZeppelinConfig(seed=1, ram_budget_bytes=1024, nodes_per_page=8),
    )
    assert engine.tensor_pool.is_paged
    with pytest.raises(ConfigurationError, match="serially"):
        ShardedIngestor(engine, num_workers=2)
    with pytest.raises(ConfigurationError, match="serially"):
        engine.parallel_ingestor(num_workers=2)


def test_sharded_ingestor_rejects_bad_backend():
    engine = _engine(16)
    with pytest.raises(ConfigurationError):
        ShardedIngestor(engine, backend="legacy")
    with pytest.raises(ConfigurationError):
        ShardedIngestor(engine, backend="gpu")
    with pytest.raises(ConfigurationError):
        engine.parallel_ingestor(backend="processes")


def test_config_validates_parallel_fields():
    with pytest.raises(ConfigurationError):
        GraphZeppelinConfig(num_workers=0)
    assert GraphZeppelinConfig(num_workers=3).num_workers == 3
