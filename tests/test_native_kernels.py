"""The native kernel provider must be bit-identical to the numpy kernels.

The compiled hot-kernel twins (``repro.kernels``: the runtime-compiled C
library) are pure optimisations: under
the same seed they must produce the *same bits* as the numpy path --
same pool tensors, same forests, same Boruvka stats -- across
packed/wide bucket modes, flat/paged pools, and
serial/sharded/distributed ingest.  These tests assert exactly that,
plus the dispatch plumbing (config validation, auto fallback,
fingerprint exclusion).

The whole module skips -- not errors -- when the native provider is
not usable (no C toolchain): the numpy-only environment is a
supported configuration and its suite must stay green.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle

import numpy as np
import pytest

from repro.core.boruvka import pool_spanning_forest
from repro.core.config import GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import ConfigurationError
from repro.kernels import native_kernels, native_unavailable_reason, resolve_kernels
from repro.kernels.numpy_kernels import NUMPY_KERNELS
from repro.memory.hybrid import HybridMemory
from repro.sketch.flat_node_sketch import (
    FlatNodeSketch,
    decode_column_batch,
    hash_depths_checksums,
    segmented_xor,
)
from repro.sketch.paged_pool import PagedTensorPool
from repro.sketch.tensor_pool import NodeTensorPool
from sketch_reference import (
    assert_node_state_matches,
    pool_geometry,
    reference_forest,
    reference_node_sketches,
)

NATIVE = native_kernels()

pytestmark = pytest.mark.skipif(
    NATIVE is None,
    reason=f"no native kernel provider usable ({native_unavailable_reason()})",
)


def _random_edges(num_nodes: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, num_nodes, count)
    v = rng.integers(0, num_nodes, count)
    keep = u != v
    return np.stack([u[keep], v[keep]], axis=1).astype(np.int64)


def _assert_same_engine_state(native: GraphZeppelin, reference: GraphZeppelin) -> None:
    reference.flush()
    native.flush()
    ref_alpha, ref_gamma = reference.tensor_pool.raw_tensors()
    got_alpha, got_gamma = native.tensor_pool.raw_tensors()
    assert np.array_equal(ref_alpha, got_alpha)
    assert np.array_equal(
        np.asarray(ref_gamma, dtype=np.uint64),
        np.asarray(got_gamma, dtype=np.uint64),
    )
    ref_forest = reference.list_spanning_forest()
    got_forest = native.list_spanning_forest()
    assert got_forest.partition_signature() == ref_forest.partition_signature()
    assert sorted(got_forest.edges) == sorted(ref_forest.edges)
    ref_stats = reference.last_query_stats
    got_stats = native.last_query_stats
    assert (got_stats.rounds_used, got_stats.component_queries,
            got_stats.good_samples, got_stats.zero_samples,
            got_stats.failed_samples) == (
        ref_stats.rounds_used, ref_stats.component_queries,
        ref_stats.good_samples, ref_stats.zero_samples,
        ref_stats.failed_samples)


# ----------------------------------------------------------------------
# kernel-level properties (direct provider calls vs the numpy kernels)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, 91])
@pytest.mark.parametrize("force_wide", [False, True])
def test_fold_pool_bit_identical(seed, force_wide):
    num_nodes = 257
    reference = GraphZeppelin(num_nodes, GraphZeppelinConfig(seed=seed))
    geometry = pool_geometry(num_nodes, wide=force_wide)
    pool_np = NodeTensorPool(num_nodes, reference.encoder, graph_seed=seed, geometry=geometry)
    pool_native = NodeTensorPool(
        num_nodes, reference.encoder, graph_seed=seed, geometry=geometry, kernels=NATIVE
    )
    rng = np.random.default_rng(seed + 1)
    count = 4000
    dsts = np.sort(rng.integers(0, num_nodes, count)).astype(np.int64)
    indices = rng.integers(
        0, reference.encoder.vector_length, count, dtype=np.uint64
    )
    pool_np.apply_updates(dsts, indices)
    pool_native.apply_updates(dsts, indices)
    ref_alpha, ref_gamma = pool_np.raw_tensors()
    got_alpha, got_gamma = pool_native.raw_tensors()
    assert np.array_equal(ref_alpha, got_alpha)
    assert np.array_equal(
        np.asarray(ref_gamma, dtype=np.uint64), np.asarray(got_gamma, dtype=np.uint64)
    )
    assert pool_native.updates_applied == pool_np.updates_applied


@pytest.mark.parametrize("force_wide", [False, True])
def test_fold_edges_bit_identical(force_wide):
    num_nodes = 128
    engine = GraphZeppelin(num_nodes, GraphZeppelinConfig(seed=5))
    geometry = pool_geometry(num_nodes, wide=force_wide)
    pool_np = NodeTensorPool(num_nodes, engine.encoder, graph_seed=5, geometry=geometry)
    pool_native = NodeTensorPool(
        num_nodes, engine.encoder, graph_seed=5, geometry=geometry, kernels=NATIVE
    )
    edges = _random_edges(num_nodes, 3000, seed=9)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    indices = engine.encoder.encode_canonical_pairs(lo, hi)
    pool_np.apply_edges(lo, hi, indices)
    pool_native.apply_edges(lo, hi, indices)
    ref_alpha, ref_gamma = pool_np.raw_tensors()
    got_alpha, got_gamma = pool_native.raw_tensors()
    assert np.array_equal(ref_alpha, got_alpha)
    assert np.array_equal(
        np.asarray(ref_gamma, dtype=np.uint64), np.asarray(got_gamma, dtype=np.uint64)
    )


@pytest.mark.parametrize("seed", [1, 13])
@pytest.mark.parametrize("force_wide", [False, True])
def test_segment_xor_bit_identical(seed, force_wide):
    num_nodes = 300
    engine = GraphZeppelin(num_nodes, GraphZeppelinConfig(seed=seed))
    pool = NodeTensorPool(
        num_nodes, engine.encoder, graph_seed=seed,
        geometry=pool_geometry(num_nodes, wide=force_wide),
    )
    rng = np.random.default_rng(seed)
    count = 5000
    dsts = np.sort(rng.integers(0, num_nodes, count)).astype(np.int64)
    indices = rng.integers(0, engine.encoder.vector_length, count, dtype=np.uint64)
    pool.apply_updates(dsts, indices)
    labels = rng.integers(0, 40, num_nodes)
    order = np.argsort(labels, kind="stable")
    nodes = order.astype(np.int64)
    seg_starts = np.flatnonzero(
        np.r_[True, np.diff(labels[order]) != 0]
    ).astype(np.int64)
    cols, rows = pool.num_columns, pool.num_rows
    for plane in range(len(pool._planes)):
        for round_index in (0, pool.num_rounds - 1):
            slab = pool._round_view(plane, round_index)
            for col_start, col_stop in ((0, 1), (1, cols), (0, cols)):
                width = (col_stop - col_start) * rows
                expected = segmented_xor(
                    slab[nodes, col_start:col_stop].reshape(nodes.size, width),
                    seg_starts,
                )
                got = NATIVE.segment_xor(
                    slab, nodes, seg_starts, col_start, col_stop, rows
                )
                assert got.dtype == expected.dtype
                assert np.array_equal(expected, got)


@pytest.mark.parametrize("seed", [2, 29])
def test_decode_column_bit_identical(seed):
    rng = np.random.default_rng(seed)
    engine = GraphZeppelin(500, GraphZeppelinConfig(seed=seed))
    pool = engine.tensor_pool
    rows = pool.num_rows
    count = 700
    vector_length = engine.encoder.vector_length
    alpha = rng.integers(0, vector_length, (count, rows), dtype=np.uint64)
    gamma = rng.integers(0, 1 << 32, (count, rows), dtype=np.uint64)
    # Plant verified buckets (checksum matches alpha), all-zero rows,
    # and garbage so every status branch is exercised.
    mixed_seed = pool._mixed_checksum[0]
    from repro.hashing.mixers import finalise_hash64_inplace

    planted = alpha[::3, 1].copy()
    gamma[::3, 1] = finalise_hash64_inplace(planted ^ mixed_seed) & np.uint64(
        0xFFFFFFFF
    )
    alpha[::5] = 0
    gamma[::5] = 0
    expected = decode_column_batch(alpha, gamma, vector_length, mixed_seed)
    got = NATIVE.decode_column(alpha, gamma, vector_length, mixed_seed)
    for exp, act in zip(expected, got):
        assert exp.dtype == act.dtype
        assert np.array_equal(exp, act)


def test_fold_bundle_matches_numpy_flat_sketch():
    engine = GraphZeppelin(64, GraphZeppelinConfig(seed=17))
    rng = np.random.default_rng(17)
    sketch_np = FlatNodeSketch(3, engine.encoder, graph_seed=17)
    sketch_native = FlatNodeSketch(3, engine.encoder, graph_seed=17, kernels=NATIVE)
    indices = rng.integers(
        0, engine.encoder.vector_length, 900, dtype=np.uint64
    )
    sketch_np.apply_indices(indices)
    sketch_native.apply_indices(indices)
    assert np.array_equal(sketch_np._alpha, sketch_native._alpha)
    assert np.array_equal(sketch_np._gamma, sketch_native._gamma)
    assert sketch_native.copy()._kernels is NATIVE


# ----------------------------------------------------------------------
# engine-level properties (whole runs, numpy vs native config)
# ----------------------------------------------------------------------
def _run_engine(num_nodes, edges, **config_kwargs):
    engine = GraphZeppelin(num_nodes, GraphZeppelinConfig(**config_kwargs))
    engine.ingest_batch(edges)
    engine.list_spanning_forest()
    return engine


@pytest.mark.parametrize("seed", [0, 23])
def test_serial_flat_engine_bit_identical(seed):
    num_nodes = 350
    edges = _random_edges(num_nodes, 4000, seed=seed + 100)
    reference = _run_engine(num_nodes, edges, seed=seed)
    native = _run_engine(num_nodes, edges, seed=seed, kernel_backend="native")
    assert native.resolved_kernel_backend == NATIVE.name
    _assert_same_engine_state(native, reference)


def test_scalar_updates_bit_identical():
    num_nodes = 90
    edges = _random_edges(num_nodes, 600, seed=4)
    reference = GraphZeppelin(num_nodes, GraphZeppelinConfig(seed=4))
    native = GraphZeppelin(
        num_nodes, GraphZeppelinConfig(seed=4, kernel_backend="native")
    )
    for u, v in edges.tolist():
        reference.edge_update(u, v)
        native.edge_update(u, v)
    _assert_same_engine_state(native, reference)


def test_paged_engine_bit_identical():
    num_nodes = 220
    edges = _random_edges(num_nodes, 3000, seed=31)
    budget = 1 << 20
    reference = _run_engine(num_nodes, edges, seed=6, ram_budget_bytes=budget)
    native = _run_engine(
        num_nodes, edges, seed=6, ram_budget_bytes=budget, kernel_backend="native"
    )
    _assert_same_engine_state(native, reference)


def test_per_node_store_engine_bit_identical():
    """A native engine holds the per-node CubeSketch bundles' bits, flat and paged."""
    num_nodes = 80
    edges = _random_edges(num_nodes, 900, seed=41)
    bundles = reference_node_sketches(num_nodes, edges.tolist(), seed=8)
    for budget in (None, 256_000):
        native = _run_engine(
            num_nodes, edges, seed=8, ram_budget_bytes=budget, kernel_backend="native"
        )
        assert_node_state_matches(native, bundles)
        forest, stats = reference_forest(native)
        assert native.list_spanning_forest().edges == forest.edges
        assert native.last_query_stats == stats


@pytest.mark.parametrize("ram_budget", [None])
def test_sharded_ingest_bit_identical(ram_budget):
    from repro.parallel.graph_workers import ShardedIngestor

    num_nodes = 260
    edges = _random_edges(num_nodes, 3500, seed=55)
    reference = _run_engine(num_nodes, edges, seed=9, ram_budget_bytes=ram_budget)
    native = GraphZeppelin(
        num_nodes,
        GraphZeppelinConfig(
            seed=9, kernel_backend="native", num_workers=3, ram_budget_bytes=ram_budget
        ),
    )
    with ShardedIngestor(native, num_workers=3) as ingestor:
        ingestor.ingest_stream([edges[:1200], edges[1200:2500], edges[2500:]])
    _assert_same_engine_state(native, reference)


def test_distributed_ingest_bit_identical(tmp_path):
    from repro.distributed.multi_ingestor import distributed_ingest

    num_nodes = 150
    edges = _random_edges(num_nodes, 2000, seed=77)
    reference = _run_engine(num_nodes, edges, seed=12)
    native, _report = distributed_ingest(
        edges,
        num_nodes,
        config=GraphZeppelinConfig(seed=12, kernel_backend="native"),
        num_ingestors=2,
        workdir=tmp_path,
    )
    _assert_same_engine_state(native, reference)


def test_chaos_soak_native_is_bit_identical(tmp_path):
    from repro.resilience import ChaosSchedule, run_chaos_soak

    num_nodes = 40
    edges = _random_edges(num_nodes, 1200, seed=71)
    config = GraphZeppelinConfig(seed=3, kernel_backend="native")
    schedule = ChaosSchedule.random(
        seed=11, cycles=10, distributed_every=5, hang_seconds=0.3
    )
    engine, report = run_chaos_soak(
        schedule,
        edges,
        num_nodes,
        config=config,
        workdir=tmp_path,
        straggler_timeout=0.25,
        worker_deadline=2.0,
    )
    assert report.cycles == 10
    reference = GraphZeppelin(num_nodes, GraphZeppelinConfig(seed=3))
    reference.ingest_batch(edges)
    _assert_same_engine_state(engine, reference)


def test_snapshots_interchange_across_backends(tmp_path):
    num_nodes = 120
    edges = _random_edges(num_nodes, 1500, seed=88)
    native = _run_engine(num_nodes, edges, seed=14, kernel_backend="native")
    path = tmp_path / "native.snap"
    native.save_snapshot(path)
    restored = GraphZeppelin.load_snapshot(path, config=GraphZeppelinConfig(seed=14))
    assert restored.resolved_kernel_backend == "numpy"
    _assert_same_engine_state(native, restored)


# ----------------------------------------------------------------------
# dispatch plumbing
# ----------------------------------------------------------------------
def test_resolve_kernels_modes():
    assert resolve_kernels("numpy") is NUMPY_KERNELS
    assert resolve_kernels("auto") is NATIVE
    assert resolve_kernels("native") is NATIVE
    with pytest.raises(ConfigurationError):
        resolve_kernels("fast")


def test_failed_c_build_is_typed_counted_and_never_silent(monkeypatch, tmp_path):
    """A C source that does not compile must not pass for "no provider".

    ``$CC`` = ``false`` with an empty kernel cache makes the build fail
    the way a typo in the C source would: ``auto`` falls back to numpy
    with the reason kept and ``kernels.provider_unavailable`` bumped,
    ``native`` refuses to run.
    """
    import repro.kernels as kernels
    from repro.observability.metrics import default_registry

    monkeypatch.setenv("CC", "false")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    # Forget the cached resolution for this test only (monkeypatch
    # restores the real provider, which other tests hold by identity).
    monkeypatch.setattr(kernels, "_resolved", False)
    monkeypatch.setattr(kernels, "_provider", None)
    monkeypatch.setattr(kernels, "_unavailable_reason", None)
    counter = default_registry().counter("kernels.provider_unavailable")
    before = counter.value

    assert resolve_kernels("auto") is NUMPY_KERNELS
    reason = native_unavailable_reason()
    assert "cc:" in reason and "false" in reason
    assert counter.value == before + 1
    with pytest.raises(ConfigurationError, match="cc:"):
        resolve_kernels("native")
    engine = GraphZeppelin(16, GraphZeppelinConfig(kernel_backend="auto"))
    assert engine.resolved_kernel_backend == "numpy"
    assert counter.value == before + 1  # the failure is cached, counted once


def test_unexpected_provider_errors_propagate(monkeypatch):
    """Only the typed "cannot be used here" errors mean numpy fallback."""
    import repro.kernels as kernels

    monkeypatch.setattr(kernels, "_resolved", False)
    monkeypatch.setattr(kernels, "_provider", None)
    # A provider module that imports but lacks its class: AttributeError,
    # the same error a symbol missing from the built library raises.
    monkeypatch.delattr("repro.kernels.native_cc.CcKernels")
    with pytest.raises(AttributeError):
        resolve_kernels("auto")
    assert kernels._resolved is False


def test_config_rejects_unknown_kernel_backend():
    with pytest.raises(ConfigurationError):
        GraphZeppelinConfig(kernel_backend="cuda")


def test_kernel_backend_stays_out_of_sketch_fingerprint():
    base = GraphZeppelinConfig(seed=21).sketch_fingerprint()
    for backend in ("native", "auto"):
        assert GraphZeppelinConfig(
            seed=21, kernel_backend=backend
        ).sketch_fingerprint() == base


def test_provider_survives_copy_and_pickle():
    for provider in (NATIVE, NUMPY_KERNELS):
        assert copy.copy(provider) is provider
        assert copy.deepcopy(provider) is provider
        assert pickle.loads(pickle.dumps(provider)) is provider


def test_health_reports_resolved_backend():
    engine = GraphZeppelin(32, GraphZeppelinConfig(kernel_backend="auto"))
    assert engine.health()["kernel_backend"] == NATIVE.name
    numpy_engine = GraphZeppelin(32, GraphZeppelinConfig())
    assert numpy_engine.health()["kernel_backend"] == "numpy"


# ----------------------------------------------------------------------
# the C build: cache key, and the portable flavour of every kernel
# ----------------------------------------------------------------------
def test_build_flavours_get_their_own_cache_paths(portable_build, monkeypatch):
    from repro.kernels import native_cc

    provider, cache = portable_build
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache))
    portable, native = native_cc._library_path(False), native_cc._library_path(True)
    assert portable != native
    # The wrapper's build is the portable one and published nothing else.
    assert provider._lib._name == portable
    assert sorted(path.name for path in cache.iterdir()) == [portable.rsplit("/", 1)[1]]

    # A compiler that does take -march=native, sharing the cache, builds
    # beside the portable library -- never over it, never loading it.
    before = (open(portable, "rb").read(), os.stat(portable).st_mtime_ns)
    rebuilt = native_cc.CcKernels()
    assert (open(portable, "rb").read(), os.stat(portable).st_mtime_ns) == before
    if os.path.exists(native):
        assert rebuilt._lib._name == native
    else:  # the host compiler itself has no -march=native
        assert rebuilt._lib._name == portable

    # A native build names the CPU it may run on; the portable one does not.
    monkeypatch.setattr(native_cc, "_host_cpu_tag", lambda: "x86_64-0badcafe")
    assert native_cc._library_path(True) not in (native, portable)
    assert native_cc._library_path(False) == portable


@pytest.mark.parametrize("force_wide", [False, True])
def test_portable_build_kernels_bit_identical(portable_build, force_wide):
    """Fold, round sample + tail and digests of the fallback build, vs numpy."""
    from test_round_kernels import _round_trace

    from repro.integrity.digest import block_digests

    provider, _ = portable_build
    num_nodes = 150
    engine = GraphZeppelin(num_nodes, GraphZeppelinConfig(seed=5))
    edges = _random_edges(num_nodes, 700, seed=19)
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    indices = engine.encoder.encode_canonical_pairs(lo, hi)
    results = []
    for kernels in (NUMPY_KERNELS, provider):
        pool = NodeTensorPool(
            num_nodes, engine.encoder, graph_seed=5,
            geometry=pool_geometry(num_nodes, wide=force_wide), kernels=kernels,
        )
        pool.apply_edges(lo, hi, indices)
        pool.apply_updates(hi[::4], indices[::4])
        alpha, gamma = pool.raw_tensors()
        results.append((alpha.tolist(), gamma.tolist(), _round_trace(pool)))
    assert results[0] == results[1]

    payload = np.random.default_rng(3).bytes(40_001)
    assert block_digests(payload, 4096, kernels=provider) == block_digests(payload, 4096)


# ----------------------------------------------------------------------
# the provider contract, method by method
# ----------------------------------------------------------------------
CONTRACT_NODES = 40
#: ``(contract method, case)``: what each case of
#: :func:`test_provider_contract` runs through that method.
CONTRACT_CASES = [
    ("fold_pool", "flat"),
    ("fold_pool_edges", "flat"),
    ("fold_page", "edges-across-pages"),  # a mirrored batch, grouped by page
    ("fold_page", "one-page-column"),  # what fold_page_batch hands over
    ("fold_bundle", "node"),
    ("ingest_edges", "flat"),
    ("bind_query", "flat"),
    ("bind_query", "paged"),
    ("block_digests", "blob"),
]


def _contract_pool(kernels, wide, paged):
    """A 40-node pool; paged: 6-node pages, one resident, the rest spilled."""
    encoder, geometry = EdgeEncoder(CONTRACT_NODES), pool_geometry(CONTRACT_NODES, wide=wide)
    if not paged:
        return NodeTensorPool(
            CONTRACT_NODES, encoder, graph_seed=11, geometry=geometry, kernels=kernels
        )
    return PagedTensorPool(
        CONTRACT_NODES, encoder, memory=HybridMemory(ram_bytes=1), graph_seed=11,
        geometry=geometry, nodes_per_page=6, resident_pages=1, kernels=kernels,
    )


def _contract_result(method, case, kernels, wide):
    """Run ``method`` of ``kernels`` on the case's fixed input; what it made."""
    edges = _random_edges(CONTRACT_NODES, 160, seed=12)
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    idx = EdgeEncoder(CONTRACT_NODES).encode_canonical_pairs(lo, hi)
    if method == "block_digests":
        return kernels.block_digests(np.random.default_rng(5).bytes(16 * 9 + 5), 16, 7).tolist()
    if method == "fold_bundle":
        sketch = FlatNodeSketch(
            3, EdgeEncoder(CONTRACT_NODES), graph_seed=11,
            geometry=pool_geometry(CONTRACT_NODES, wide=wide), kernels=kernels,
        )
        kernels.fold_bundle(sketch, idx)
        return sketch._alpha.tolist(), sketch._gamma.tolist()
    pool = _contract_pool(kernels, wide, paged=case != "flat")
    if method == "fold_pool":
        kernels.fold_pool(pool, idx, hi)
    elif method == "fold_pool_edges":
        kernels.fold_pool_edges(pool, idx, lo, hi)
    elif method == "ingest_edges":
        returned = [column.tolist() for column in kernels.ingest_edges(pool, edges)]
        return returned, [plane.tolist() for plane in pool.raw_tensors()], pool.updates_applied
    elif case == "one-page-column":
        page_lo, page_hi = pool.page_span(2)
        column = (lo >= page_lo) & (lo < page_hi)
        assert 0 < column.sum() < lo.size
        pool.fold_page_batch(page_lo, page_hi, lo[column], idx[column])
    else:  # edges-across-pages, and the pools a query reads
        if pool.is_paged:  # the batch reaches every page
            assert {pool.page_of(node) for node in (*lo, *hi)} == set(range(pool.num_pages))
        pool.apply_edges(lo, hi, idx)
    planes = [plane.tolist() for plane in pool.raw_tensors()]
    if method != "bind_query":
        return planes
    forest, stats = pool_spanning_forest(pool, pool.num_rounds)
    return planes, forest.edges, forest.component_labels(), dataclasses.asdict(stats)


@pytest.mark.parametrize("build", ["native", "portable"])
@pytest.mark.parametrize("wide", [False, True], ids=["packed", "wide"])
@pytest.mark.parametrize(
    "method, case", CONTRACT_CASES, ids=[f"{method}-{case}" for method, case in CONTRACT_CASES]
)
def test_provider_contract(method, case, wide, build, request):
    """Each contract method of the numpy provider and of a C build (this
    host's ``-march=native`` one and the portable one) makes the same
    buckets, forest and stats from the same input."""
    provider = request.getfixturevalue("portable_build")[0] if build == "portable" else NATIVE
    assert getattr(NUMPY_KERNELS, method) and getattr(provider, method)
    assert _contract_result(method, case, provider, wide) == _contract_result(
        method, case, NUMPY_KERNELS, wide
    )
