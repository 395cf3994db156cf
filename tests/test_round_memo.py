"""The round memo: a memoised query answers exactly as a cold one.

An in-RAM pool with the native round kernels keeps each round's last
fused sample (:class:`~repro.sketch.tensor_pool.RoundMemo`) and
re-samples only the components whose member set or member sketches
changed since -- every write stamps the nodes it touches.  Every
mutation path below is followed by a query whose forest edges, labels,
``complete`` flag and :class:`BoruvkaStats` must equal

* a cold query of the same state (the pool's memos dropped), and
* the numpy provider's answer on an engine fed the same operations.

A write that forgot its stamp would show here as a stale component.
Skips (not errors) when no provider with the round kernels is usable.
"""

from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest

from repro.core.boruvka import pool_spanning_forest
from repro.core.config import GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.distributed.snapshot import merge_snapshots_into
from repro.kernels import native_kernels
from repro.kernels.numpy_kernels import NUMPY_KERNELS
from repro.observability import default_registry
from repro.sketch.tensor_pool import NodeTensorPool
from repro.types import EdgeUpdate, UpdateType
from native_round import fused_sample
from sketch_reference import pool_geometry

NATIVE = native_kernels()

pytestmark = pytest.mark.skipif(
    NATIVE is None,
    reason="no native provider with the round kernels",
)

NUM_NODES = 240


def _reused() -> int:
    return default_registry().snapshot().counters.get("query.reused_components", 0)


def _engine(backend: str, seed: int) -> GraphZeppelin:
    return GraphZeppelin(NUM_NODES, GraphZeppelinConfig(kernel_backend=backend, seed=seed))


def _answer(engine: GraphZeppelin) -> tuple:
    """One query of the engine's current state (never the cached forest)."""
    engine._cached_forest = None
    forest = engine.list_spanning_forest()
    return (
        forest.edge_array.tolist(),
        forest.labels.tolist(),
        forest.complete,
        dataclasses.asdict(engine.last_query_stats),
    )


def _cold_answer(engine: GraphZeppelin) -> tuple:
    """:func:`_answer` with every round memo dropped, then put back."""
    pool = engine.tensor_pool
    memos, pool._round_memos = pool._round_memos, None
    try:
        return _answer(engine)
    finally:
        pool._round_memos = memos


def _assert_exact(native: GraphZeppelin, reference: GraphZeppelin) -> tuple:
    memoised = _answer(native)
    assert memoised == _cold_answer(native)
    assert memoised == _answer(reference)
    return memoised


def _random_edges(rng, count: int) -> np.ndarray:
    u = rng.integers(0, NUM_NODES, count)
    v = (u + 1 + rng.integers(0, NUM_NODES - 1, count)) % NUM_NODES
    return np.stack([u, v], axis=1)


def _local_edges(rng, count: int) -> np.ndarray:
    """Edges inside blocks of 12 nodes: a graph of many components, most
    of which a small delta leaves alone."""
    u = rng.integers(0, NUM_NODES, count)
    v = (u // 12) * 12 + (u % 12 + 1 + rng.integers(0, 11, count)) % 12
    return np.stack([u, v], axis=1)


# ----------------------------------------------------------------------
# the mutation paths, each applied to both engines alike
# ----------------------------------------------------------------------
def _ingest_batch(engines, rng, tmp_path):
    edges = _local_edges(rng, int(rng.integers(1, 6)))
    for engine in engines:
        engine.ingest_batch(edges)


def _ingest_updates(engines, rng, tmp_path):
    edges = _local_edges(rng, 4)
    kinds = rng.integers(0, 2, len(edges))
    updates = [
        EdgeUpdate(int(u), int(v), UpdateType.DELETE if kind else UpdateType.INSERT)
        for (u, v), kind in zip(edges.tolist(), kinds)
    ]
    for engine in engines:
        engine.ingest(updates)
        engine.flush()


def _point_updates(engines, rng, tmp_path):
    for u, v in _local_edges(rng, 2).tolist():
        for engine in engines:
            engine.apply_update(EdgeUpdate(u, v))


def _one_sided(engines, rng, tmp_path):
    """Half an edge: the cut vectors no longer cancel, but the answer is
    still a function of the sketches, so memoised == cold == numpy."""
    edges = _local_edges(rng, 2)
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    for engine in engines:
        indices = engine.encoder.encode_canonical_pairs(lo, hi)
        engine.tensor_pool.apply_updates(lo, indices)


def _threads_stream(engines, rng, tmp_path):
    chunks = [_local_edges(rng, 6), _random_edges(rng, 2)]
    for engine in engines:
        with engine.parallel_ingestor(num_workers=2) as ingestor:
            ingestor.ingest_stream(chunks)


def _merge_snapshot(engines, rng, tmp_path):
    side = _engine("numpy", engines[0].config.seed)
    side.ingest_batch(_local_edges(rng, 5))
    path = tmp_path / f"side-{rng.integers(1 << 30)}.snap"
    side.save_snapshot(path)
    for engine in engines:
        merge_snapshots_into([path], engine.tensor_pool)


def _toggle_twice(engines, rng, tmp_path):
    edge = _random_edges(rng, 1)
    for engine in engines:
        engine.ingest_batch(np.concatenate([edge, edge]))


def _empty_delta(engines, rng, tmp_path):
    for engine in engines:
        engine.ingest_batch(np.empty((0, 2), dtype=np.int64))


MUTATIONS = [
    _ingest_batch, _ingest_updates, _point_updates, _one_sided, _threads_stream,
    _merge_snapshot, _toggle_twice, _empty_delta,
]
#: A merge stamps every node, so the query after it reuses nothing.
STAMPS_EVERY_NODE = (_merge_snapshot,)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda f: f.__name__.strip("_"))
def test_every_mutation_path_answers_as_a_cold_query(mutation, tmp_path):
    rng = np.random.default_rng(len(mutation.__name__))
    engines = (_engine("native", 7), _engine("numpy", 7))
    base = _local_edges(rng, 150)
    for engine in engines:
        engine.ingest_batch(base)
    _assert_exact(*engines)
    reused = _reused()
    for _ in range(3):
        mutation(engines, rng, tmp_path)
        _assert_exact(*engines)
    assert (_reused() > reused) != (mutation in STAMPS_EVERY_NODE)


@pytest.mark.parametrize("seed", range(10))
def test_a_seeded_mix_of_mutations_answers_as_a_cold_query(seed, tmp_path):
    rng = np.random.default_rng([seed, 34])
    engines = (_engine("native", seed), _engine("numpy", seed))
    base = _local_edges(rng, 120)
    for engine in engines:
        engine.ingest_batch(base)
    for step in rng.integers(0, len(MUTATIONS), 16):
        MUTATIONS[step](engines, rng, tmp_path)
        _assert_exact(*engines)


def test_deleting_a_path_edge_splits_the_memoised_component():
    """The memoised path component loses half its members: both halves
    are re-sampled and the answer is the cold one, two components."""
    engines = (_engine("native", 3), _engine("numpy", 3))
    path = np.stack([np.arange(0, 40), np.arange(1, 41)], axis=1)
    for engine in engines:
        engine.ingest_batch(path)
    assert _assert_exact(*engines)[2]
    for engine in engines:
        engine.ingest_batch(path[20:21])
    edges, labels, complete, _ = _assert_exact(*engines)
    assert complete and len(set(labels[:41])) == 2


def test_memo_is_bit_identical_on_the_query_after_a_no_op_delta():
    """A toggled-twice edge stamps both endpoints without changing a
    byte: the query re-samples their components and answers the same."""
    engines = (_engine("native", 5), _engine("numpy", 5))
    for engine in engines:
        engine.ingest_batch(_local_edges(np.random.default_rng(5), 150))
    first = _assert_exact(*engines)
    _toggle_twice(engines, np.random.default_rng(6), None)
    assert _assert_exact(*engines) == first


def test_regression_a_snapshot_merge_stamps_every_node(tmp_path):
    """The snapshot merge XORs the flat tensors from outside the pool; it
    once published with a bare version bump, and the memo then re-served
    components the merge had changed."""
    engines = (_engine("native", 9), _engine("numpy", 9))
    base = _local_edges(np.random.default_rng(9), 150)
    for engine in engines:
        engine.ingest_batch(base)
    _assert_exact(*engines)
    _merge_snapshot(engines, np.random.default_rng(10), tmp_path)
    pool = engines[0].tensor_pool
    assert (pool._stamps == pool._version).all()
    _assert_exact(*engines)


def _pool_answer(pool: NodeTensorPool) -> tuple:
    forest, stats = pool_spanning_forest(pool, pool.num_rounds)
    return (
        forest.edge_array.tolist(), forest.labels.tolist(), forest.complete,
        dataclasses.asdict(stats),
    )


@pytest.mark.parametrize("delta", [0.01, 0.3, 0.6], ids=["3col", "2col", "1col"])
@pytest.mark.parametrize("wide", [False, True], ids=["packed", "wide"])
def test_wide_and_narrow_pools_answer_as_a_cold_query(wide, delta):
    """The memo under both bucket layouts and one to three columns
    (the kernel's column-0-only and fall-through branches)."""
    geometry = pool_geometry(NUM_NODES, wide=wide, delta=delta)
    pools = [
        NodeTensorPool(NUM_NODES, EdgeEncoder(NUM_NODES), graph_seed=4,
                       geometry=geometry, kernels=kernels)
        for kernels in (NATIVE, NUMPY_KERNELS)
    ]
    rng = np.random.default_rng(4)
    for count in (150, 3, 1, 4, 2):
        edges = _local_edges(rng, count)
        lo, hi = edges.min(axis=1), edges.max(axis=1)
        for pool in pools:
            pool.apply_edges(lo, hi, pool.encoder.encode_canonical_pairs(lo, hi))
        memoised = _pool_answer(pools[0])
        memos, pools[0]._round_memos = pools[0]._round_memos, None
        assert memoised == _pool_answer(pools[0])
        pools[0]._round_memos = memos
        assert memoised == _pool_answer(pools[1])


# ----------------------------------------------------------------------
# the counter
# ----------------------------------------------------------------------
def test_reused_components_reads_zero_on_a_first_query_and_counts_after_a_delta():
    engine = _engine("native", 11)
    engine.ingest_batch(_local_edges(np.random.default_rng(11), 150))
    before = _reused()
    engine.list_spanning_forest()
    assert _reused() == before
    engine.ingest_batch([(0, 1)])
    engine.list_spanning_forest()
    assert _reused() > before


def test_reused_components_total_on_a_fixed_stream():
    """Pinned: binding the query once per query reuses exactly the
    components the per-round calls reused before it."""
    engine = _engine("native", 21)
    rng = np.random.default_rng(21)
    engine.ingest_batch(_local_edges(rng, 150))
    before = _reused()
    for _ in range(12):
        engine.list_spanning_forest()
        engine.ingest_batch(_local_edges(rng, 3))
    engine.list_spanning_forest()
    assert _reused() - before == 3610


# ----------------------------------------------------------------------
# the bound query's buffers
# ----------------------------------------------------------------------
def test_a_kept_forest_is_not_overwritten_by_the_next_query():
    """The forest adopts the query's labels and edge array without
    copying, and the C tail writes through raw addresses: each query
    must own fresh ones."""
    engine = _engine("native", 17)
    path = np.stack([np.arange(119), np.arange(1, 120)], axis=1)
    engine.ingest_batch(path)
    first = engine.list_spanning_forest()
    edges, labels = first.edge_array.copy(), first.labels.copy()
    engine.ingest_batch([(119, 120), (200, 201)])
    second = engine.list_spanning_forest()
    assert not np.array_equal(second.labels, labels)
    assert np.array_equal(first.edge_array, edges) and np.array_equal(first.labels, labels)
    for array in (first.edge_array, first.labels):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 7


def test_an_internal_label_outside_the_graph_raises():
    """The fused sample kernel without a memo: a bad label raises and
    leaves the memos and the next answer as they were."""
    pool = NodeTensorPool(NUM_NODES, EdgeEncoder(NUM_NODES), graph_seed=8, kernels=NATIVE)
    edges = _local_edges(np.random.default_rng(8), 150)
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    pool.apply_edges(lo, hi, pool.encoder.encode_canonical_pairs(lo, hi))
    answer = _pool_answer(pool)
    memo_labels = pool._round_memos.labels.copy()
    labels = np.arange(NUM_NODES)
    labels[7] = NUM_NODES
    with pytest.raises(ValueError, match="outside"):
        fused_sample(NATIVE._lib, pool, labels)
    assert np.array_equal(pool._round_memos.labels, memo_labels)
    assert _pool_answer(pool) == answer


@pytest.mark.parametrize("paged", [True, False], ids=["paged-native", "numpy"])
def test_paged_and_numpy_pools_keep_no_memo(paged):
    config = GraphZeppelinConfig(kernel_backend="numpy", seed=2)
    if paged:
        config = GraphZeppelinConfig.out_of_core(
            GraphZeppelin(NUM_NODES).sketch_bytes() // 4, kernel_backend="native", seed=2
        )
    engine = GraphZeppelin(NUM_NODES, config)
    for _ in range(2):
        engine.ingest_batch(_local_edges(np.random.default_rng(2), 50))
        engine.list_spanning_forest()
    assert engine.tensor_pool._stamps is None and not engine.tensor_pool._round_memos


# ----------------------------------------------------------------------
# no cyclic garbage per call
# ----------------------------------------------------------------------
def test_warm_native_folds_and_queries_leave_no_cyclic_garbage():
    """Every kernel call passes plain addresses: ``data_as`` pointers
    would leave reference cycles behind on every fold and query round."""
    engine = _engine("native", 13)
    rng = np.random.default_rng(13)

    def step():
        engine.ingest_batch(_local_edges(rng, 64))
        engine.list_spanning_forest()

    for _ in range(3):
        step()
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            step()
        assert gc.collect() == 0
    finally:
        gc.enable()
