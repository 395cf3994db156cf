"""Oracle tests for the level-peeling fold kernel.

``fold_hashed`` is held against a scalar dict-of-XOR reference over
hypothesis-drawn batch shapes, with the hash matrices *injected* so the
bucket-depth extremes and the packed/wide value widths are hit on
purpose rather than by luck.  The pool-level tests then pin the emitted
offsets to the flat and the paged layouts, the pool bytes to digests
recorded before the kernel was swapped in, and the scratch arena to a
bound.  The last section holds the native fold's round split to the
one-range bytes, to serial callers only, and to a clean error, fork
and one-core story.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.edge_encoding import EdgeEncoder
from repro.integrity.digest import payload_digest
from repro.kernels import numpy_kernels
from repro.kernels.numpy_kernels import NUMPY_KERNELS
from repro.memory.hybrid import HybridMemory
from repro.parallel.cost_model import usable_cores
from repro.sketch.flat_node_sketch import (
    fold_hashed,
    fold_scratch_bytes,
    hash_depths_checksums,
)
from repro.sketch.paged_pool import PagedTensorPool
from repro.sketch.tensor_pool import NodeTensorPool
from sketch_reference import SEVEN_COLUMN_DELTA, pool_geometry

_SHIFT32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)
#: ``fold_hashed``'s plane layouts by ``packed``: words, or alpha and gamma.
PACKS = {True: pool_geometry(16).pack, False: pool_geometry(16, wide=True).pack}


def reference_fold(indices, depths, checksums, num_rows, dsts, edge_rows, locate):
    """Scalar fold: XOR every update into rows ``0 .. depth - 1`` of its column.

    ``locate(dst, slot)`` is the flat offset of the column's row 0.
    Returns ``{offset: (alpha, gamma)}`` without the all-zero buckets.
    """
    buckets = {}
    for dst, edge in zip(np.asarray(dsts).tolist(), np.asarray(edge_rows).tolist()):
        for slot in range(depths.shape[1]):
            for row in range(int(depths[edge, slot])):
                offset = locate(dst, slot) + row
                alpha, gamma = buckets.get(offset, (0, 0))
                buckets[offset] = (
                    alpha ^ int(indices[edge]),
                    gamma ^ int(checksums[edge, slot]),
                )
    return {offset: value for offset, value in buckets.items() if value != (0, 0)}


def emitted_buckets(result, packed):
    """The kernel's output as the reference's dict; asserts unique targets."""
    targets, *values = result
    assert np.unique(targets).size == targets.size
    assert all(plane.shape == targets.shape for plane in values)
    if packed:
        alpha, gamma = values[0] >> _SHIFT32, values[0] & _LOW32
    else:
        alpha, gamma = values
    return {
        offset: (a, g)
        for offset, a, g in zip(targets.tolist(), alpha.tolist(), gamma.tolist())
        if (a, g) != (0, 0)
    }


def node_major(num_slots, num_rows):
    return lambda dst, slot: (dst * num_slots + slot) * num_rows


# ----------------------------------------------------------------------
# the kernel against the scalar reference
# ----------------------------------------------------------------------
DST_SHAPES = ("whole_range", "single", "one_node_plus_stray", "narrow")


@st.composite
def fold_cases(draw):
    num_rows = draw(st.integers(1, 9))
    num_slots = draw(st.integers(1, 5))
    num_edges = draw(st.integers(1, 24))
    packed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    index_bits = 32 if packed else 45
    indices = rng.integers(0, 1 << index_bits, num_edges).astype(np.uint64)
    if draw(st.booleans()):
        # Only the extremes: every update stops at row 0 or reaches the
        # deepest row.
        depths = rng.choice([1, num_rows], size=(num_edges, num_slots)).astype(np.int64)
    else:
        depths = rng.integers(1, num_rows + 1, (num_edges, num_slots))
    checksums = rng.integers(0, 1 << 32, (num_edges, num_slots)).astype(np.uint64)

    mirrored = draw(st.booleans())
    edge_rows = np.tile(np.arange(num_edges), 2 if mirrored else 1)
    if draw(st.booleans()):
        # Repeat some updates outright: the pairs must cancel.
        edge_rows = np.concatenate([edge_rows, edge_rows[: draw(st.integers(1, edge_rows.size))]])
    num_nodes = draw(st.integers(2, 300))
    shape = draw(st.sampled_from(DST_SHAPES))
    if shape == "whole_range":
        dsts = rng.integers(0, num_nodes, edge_rows.size)
    elif shape == "single":
        dsts = np.full(edge_rows.size, rng.integers(0, num_nodes))
    elif shape == "one_node_plus_stray":
        dsts = np.full(edge_rows.size, num_nodes - 1)
        dsts[rng.integers(0, dsts.size)] = 0
    else:
        dsts = rng.integers(num_nodes // 2, num_nodes // 2 + 2, edge_rows.size)
    dsts = dsts[rng.permutation(dsts.size)]
    return indices, depths, checksums, num_rows, dsts, edge_rows, packed


@settings(max_examples=150, deadline=None)
@given(fold_cases())
def test_kernel_matches_scalar_reference(case):
    indices, depths, checksums, num_rows, dsts, edge_rows, packed = case
    result = fold_hashed(
        indices, depths, checksums, num_rows, dsts, edge_rows=edge_rows, pack=PACKS[packed]
    )
    expected = reference_fold(
        indices, depths, checksums, num_rows, dsts, edge_rows,
        node_major(depths.shape[1], num_rows),
    )
    assert emitted_buckets(result, packed) == expected


def test_single_update_fills_one_column_prefix_per_slot():
    depths = np.array([[3, 1]])
    checksums = np.array([[7, 9]], dtype=np.uint64)
    targets, alpha, gamma = fold_hashed(
        np.array([5], dtype=np.uint64), depths, checksums, 4, np.array([2])
    )
    # Node 2, two slots of four rows: rows 0..2 of slot 0, row 0 of slot 1.
    assert sorted(targets.tolist()) == [16, 17, 18, 20]
    assert set(alpha.tolist()) == {5}
    assert dict(zip(targets.tolist(), gamma.tolist())) == {16: 7, 17: 7, 18: 7, 20: 9}


def test_duplicate_updates_cancel_to_zero_contributions():
    rng = np.random.default_rng(3)
    indices = rng.integers(0, 1 << 30, 10).astype(np.uint64)
    depths = rng.integers(1, 7, (10, 4))
    checksums = rng.integers(0, 1 << 32, (10, 4)).astype(np.uint64)
    dsts = rng.integers(0, 5, 10)
    twice = np.tile(np.arange(10), 2)
    for packed in (True, False):
        targets, *values = fold_hashed(
            indices, depths, checksums, 6, np.tile(dsts, 2), edge_rows=twice, pack=PACKS[packed]
        )
        assert targets.size > 0
        assert all(not plane.any() for plane in values)


@pytest.mark.parametrize("num_nodes", [65_535, 65_536, 65_537])
def test_packed_wide_boundary(num_nodes):
    """Edge slots and node ids at the top of the range, on both sides of 2**32."""
    encoder = EdgeEncoder(num_nodes)
    packed = encoder.vector_length <= 1 << 32
    assert packed == (num_nodes <= 65_536)
    hi = np.full(6, num_nodes - 1)
    lo = num_nodes - 2 - np.arange(6)
    indices = encoder.encode_canonical_pairs(lo, hi)
    assert (int(indices.max()) >= 1 << 32) == (not packed)  # the last slots overflow 32 bits
    rng = np.random.default_rng(num_nodes)
    num_rows, num_slots = 33, 3
    depths = rng.integers(1, num_rows + 1, (6, num_slots))
    depths[0] = num_rows
    checksums = rng.integers(0, 1 << 32, (6, num_slots)).astype(np.uint64)
    checksums[1] = _LOW32
    dsts = np.concatenate([lo, hi])
    edge_rows = np.tile(np.arange(6), 2)
    result = fold_hashed(
        indices, depths, checksums, num_rows, dsts, edge_rows=edge_rows, pack=PACKS[packed]
    )
    expected = reference_fold(
        indices, depths, checksums, num_rows, dsts, edge_rows,
        node_major(num_slots, num_rows),
    )
    assert emitted_buckets(result, packed) == expected


# ----------------------------------------------------------------------
# offset relocation: the flat and the paged layouts
# ----------------------------------------------------------------------
def _pool_case(pool, seed):
    rng = np.random.default_rng(seed)
    lo = rng.integers(0, pool.num_nodes - 1, 40)
    hi = lo + 1 + rng.integers(0, pool.num_nodes - 1 - lo)
    indices = pool.encoder.encode_canonical_pairs(lo, hi)
    depths = rng.integers(1, pool.num_rows + 1, (40, pool.num_slots))
    checksums = rng.integers(0, 1 << 32, (40, pool.num_slots)).astype(np.uint64)
    return indices, depths, checksums, np.concatenate([lo, hi]), np.tile(np.arange(40), 2)


def _fold_with_pool_layout(pool, slot_offsets, indices, depths, checksums, dsts, edge_rows):
    return fold_hashed(
        indices, depths, checksums, pool.num_rows, dsts, edge_rows=edge_rows,
        dst_stride=pool.num_columns, slot_offsets=slot_offsets, pack=pool.geometry.pack,
    )


@pytest.mark.parametrize("force_wide", [False, True])
def test_flat_pool_layout_relocation(force_wide):
    pool = NodeTensorPool(
        37, EdgeEncoder(37), graph_seed=4, geometry=pool_geometry(37, wide=force_wide)
    )
    indices, depths, checksums, dsts, edge_rows = _pool_case(pool, seed=8)

    def locate(dst, slot):
        round_index, col = divmod(slot, pool.num_columns)
        return ((round_index * pool.num_nodes + dst) * pool.num_columns + col) * pool.num_rows

    result = _fold_with_pool_layout(
        pool, pool._slot_offsets, indices, depths, checksums, dsts, edge_rows
    )
    assert emitted_buckets(result, pool.geometry.packed) == reference_fold(
        indices, depths, checksums, pool.num_rows, dsts, edge_rows, locate
    )


@pytest.mark.parametrize("force_wide", [False, True])
def test_paged_pool_layout_relocation(force_wide):
    pool = PagedTensorPool(
        37, EdgeEncoder(37), memory=HybridMemory(ram_bytes=1 << 20), graph_seed=4,
        geometry=pool_geometry(37, wide=force_wide), nodes_per_page=5,
    )
    indices, depths, checksums, dsts, edge_rows = _pool_case(pool, seed=9)
    npp = pool.nodes_per_page
    local_dsts = dsts % npp  # a page fold's destinations are page-local

    def locate(local, slot):
        # Offset in one page's round-major tensor.
        round_index, col = divmod(slot, pool.num_columns)
        return ((round_index * npp + local) * pool.num_columns + col) * pool.num_rows

    result = _fold_with_pool_layout(
        pool, pool._combined_offsets, indices, depths, checksums, local_dsts, edge_rows
    )
    assert emitted_buckets(result, pool.geometry.packed) == reference_fold(
        indices, depths, checksums, pool.num_rows, local_dsts, edge_rows, locate
    )


# ----------------------------------------------------------------------
# snapshot interchange: pool bytes pinned to the pre-swap kernel's
# ----------------------------------------------------------------------
#: ``payload_digest`` of the backing tensors after ``_golden_pool``'s
#: stream, recorded at the parent commit (argsort + prefix-scan kernel)
#: on the 7-column geometry, which :data:`SEVEN_COLUMN_DELTA` builds.
GOLDEN_PACKED = 0x1D0522944BB75E65
GOLDEN_WIDE = (0x02807065FD40EF0D, 0x876A9EB413A541FE)


def _golden_pool(pool_cls=NodeTensorPool, **kwargs):
    """A fixed arithmetic stream (no RNG) through three fold entry points."""
    num_nodes = 211
    encoder = EdgeEncoder(num_nodes)
    kwargs.setdefault("geometry", pool_geometry(num_nodes, delta=SEVEN_COLUMN_DELTA))
    pool = pool_cls(num_nodes, encoder, graph_seed=20220612, **kwargs)
    i = np.arange(3000, dtype=np.int64)
    u = (i * 7919 + 13) % num_nodes
    v = (u + 1 + (i * 104729 + 7) % (num_nodes - 1)) % num_nodes
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    idx = encoder.encode_canonical_pairs(lo, hi)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numpy_kernels, "FOLD_PASS_ELEMENTS", 1 << 12)  # many small passes
        pool.apply_edges(lo[:2000], hi[:2000], idx[:2000])
    pool.apply_updates(
        np.concatenate([lo[2000:], hi[2000:]]), np.concatenate([idx[2000:], idx[2000:]])
    )
    pool.apply_edges(lo[::3], hi[::3], idx[::3])  # delete every third edge again
    return pool


def test_golden_pool_digest_packed():
    pool = _golden_pool()
    (words,) = pool._planes
    assert payload_digest(words.tobytes()) == GOLDEN_PACKED


def test_golden_pool_digest_wide():
    pool = _golden_pool(geometry=pool_geometry(211, wide=True, delta=SEVEN_COLUMN_DELTA))
    digests = tuple(payload_digest(plane.tobytes()) for plane in pool._planes)
    assert digests == GOLDEN_WIDE


def test_paged_pool_matches_golden_flat_pool():
    flat = _golden_pool()
    paged = _golden_pool(
        PagedTensorPool, memory=HybridMemory(ram_bytes=400_000), nodes_per_page=16
    )
    for a, b in zip(flat.raw_tensors(), paged.raw_tensors()):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# the scratch arena stays bounded under varying batch sizes
# ----------------------------------------------------------------------
def test_scratch_arena_bounded_by_largest_batch():
    encoder = EdgeEncoder(64)
    pool = NodeTensorPool(64, encoder, graph_seed=1)
    rng = np.random.default_rng(5)
    sizes = rng.integers(1, 400, 200)
    arena_bytes = []

    def fold_batches():
        for size in sizes.tolist():
            lo = rng.integers(0, 63, size)
            hi = lo + 1 + rng.integers(0, 63 - lo)
            indices = encoder.encode_canonical_pairs(lo, hi)
            depths, checksums = hash_depths_checksums(
                indices, pool._mixed_membership, pool._mixed_checksum, pool.num_rows,
                reuse_scratch=True,
            )
            fold_hashed(indices, depths, checksums, pool.num_rows, lo)
        arena_bytes.append(fold_scratch_bytes())

    # The arena is per thread: a fresh thread starts from an empty one.
    worker = threading.Thread(target=fold_batches)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    # Two (K, S) uint64 hash matrices are all the largest batch needs.
    largest = 2 * int(sizes.max()) * pool.num_slots * 8
    assert 0 < arena_bytes[0] <= 2 * largest


# ----------------------------------------------------------------------
# the compiled two-phase loop: block edges, narrow geometries, every
# entry point, against the scalar reference and the numpy pool
# ----------------------------------------------------------------------
BLOCK_EDGE_SIZES = (1, 255, 256, 257, 513)


def _pool_buckets(pool):
    """A pool's non-zero buckets as the reference's ``{offset: (alpha, gamma)}``."""
    alpha, gamma = (np.asarray(t, dtype=np.uint64).reshape(-1) for t in pool.raw_tensors())
    hit = np.flatnonzero((alpha != 0) | (gamma != 0))
    return dict(zip(hit.tolist(), zip(alpha[hit].tolist(), gamma[hit].tolist())))


def _round_major(pool):
    def locate(dst, slot):
        round_index, col = divmod(slot, pool.num_columns)
        return ((round_index * pool.num_nodes + dst) * pool.num_columns + col) * pool.num_rows

    return locate


def _expected_buckets(pool, indices, dsts, edge_rows):
    depths, checksums = hash_depths_checksums(
        indices, pool._mixed_membership, pool._mixed_checksum, pool.num_rows
    )
    return depths, reference_fold(
        indices, depths, checksums, pool.num_rows, dsts, edge_rows, _round_major(pool)
    )


def _random_pairs(num_nodes, count, rng):
    lo = rng.integers(0, num_nodes - 1, count)
    return lo, lo + 1 + rng.integers(0, num_nodes - 1 - lo)


def _make_pool(paged, num_nodes, kernels, force_wide, delta=0.01):
    encoder = EdgeEncoder(num_nodes)
    geometry = pool_geometry(num_nodes, wide=force_wide, delta=delta)
    if not paged:
        return NodeTensorPool(
            num_nodes, encoder, graph_seed=77, geometry=geometry, kernels=kernels
        )
    # Five-node pages over 21 nodes: the tail page owns one node.
    return PagedTensorPool(
        num_nodes, encoder, memory=HybridMemory(ram_bytes=1 << 20), graph_seed=77,
        geometry=geometry, nodes_per_page=5, kernels=kernels,
    )


@pytest.mark.parametrize("force_wide", [False, True])
@pytest.mark.parametrize("paged", [False, True])
@pytest.mark.parametrize("size", BLOCK_EDGE_SIZES)
def test_native_fold_block_edges(native_provider, size, paged, force_wide):
    """Batches one short of, at and one past a whole number of hash blocks."""
    num_nodes = 21
    rng = np.random.default_rng(size)
    lo, hi = _random_pairs(num_nodes, size, rng)
    native = _make_pool(paged, num_nodes, native_provider, force_wide)
    numpy_pool = _make_pool(False, num_nodes, NUMPY_KERNELS, force_wide)
    indices = native.encoder.encode_canonical_pairs(lo, hi)
    # fold_pool_edges (flat) / the grouped multi-page path (paged) ...
    native.apply_edges(lo, hi, indices)
    numpy_pool.apply_edges(lo, hi, indices)
    # ... fold_pool / fold_page with a page-local column, tail page included.
    columns = [
        np.flatnonzero((lo >= page_lo) & (lo < page_lo + 5))[::2]
        for page_lo in range(0, num_nodes, 5)
    ]
    for column in columns:
        native.apply_updates(lo[column], indices[column])
        numpy_pool.apply_updates(lo[column], indices[column])
    tail = np.full(size, num_nodes - 1)
    native.apply_updates(tail, indices)
    numpy_pool.apply_updates(tail, indices)

    assert _pool_buckets(native) == _pool_buckets(numpy_pool)
    if size <= 257:  # the scalar reference is a Python triple loop
        column = np.concatenate(columns)
        dsts = np.concatenate([lo, hi, lo[column], tail])
        edge_rows = np.concatenate([np.tile(np.arange(size), 2), column, np.arange(size)])
        _, expected = _expected_buckets(native, indices, dsts, edge_rows)
        assert _pool_buckets(native) == expected


@pytest.mark.parametrize("size", BLOCK_EDGE_SIZES)
def test_native_fold_bundle_block_edges(native_provider, size):
    """``fold_bundle``: one destination, no ``dsts`` array at all."""
    from repro.sketch.flat_node_sketch import FlatNodeSketch

    encoder = EdgeEncoder(40)
    indices = np.random.default_rng(size).integers(
        0, encoder.vector_length, size, dtype=np.uint64
    )
    native = FlatNodeSketch(3, encoder, graph_seed=5, kernels=native_provider)
    reference = FlatNodeSketch(3, encoder, graph_seed=5)
    native.apply_indices(indices)
    reference.apply_indices(indices)
    assert np.array_equal(native._alpha, reference._alpha)
    assert np.array_equal(native._gamma, reference._gamma)


@pytest.mark.parametrize("force_wide", [False, True])
@pytest.mark.parametrize("num_nodes, num_rows", [(2, 3), (3, 5)])
def test_native_fold_narrow_geometry(native_provider, num_nodes, num_rows, force_wide):
    """Fewer rows than the unrolled head, and the depth clamp at ``num_rows``."""
    rng = np.random.default_rng(num_nodes)
    lo, hi = _random_pairs(num_nodes, 301, rng)
    # Seven columns: enough hashes that one reaches the last row.
    native = _make_pool(False, num_nodes, native_provider, force_wide, SEVEN_COLUMN_DELTA)
    numpy_pool = _make_pool(False, num_nodes, NUMPY_KERNELS, force_wide, SEVEN_COLUMN_DELTA)
    assert native.num_rows == num_rows
    indices = native.encoder.encode_canonical_pairs(lo, hi)
    for pool in (native, numpy_pool):
        pool.apply_edges(lo, hi, indices)
        pool.apply_updates(hi[::3], indices[::3])
    dsts = np.concatenate([lo, hi, hi[::3]])
    edge_rows = np.concatenate([np.tile(np.arange(301), 2), np.arange(301)[::3]])
    depths, expected = _expected_buckets(native, indices, dsts, edge_rows)
    assert (depths == num_rows).any()  # some hash reached (or passed) the last row
    assert _pool_buckets(native) == expected == _pool_buckets(numpy_pool)


def test_native_fold_same_bucket_twice_in_one_block(native_provider):
    """Two updates of one block hitting the same bucket must both land."""
    pool = _make_pool(False, 21, native_provider, False)
    indices = pool.encoder.encode_canonical_pairs(np.array([4, 4]), np.array([9, 17]))
    pool.apply_updates(np.array([4, 4]), indices)
    row0 = pool.raw_tensors()[0][:, 4, :, 0]
    assert (row0 == np.uint64(int(indices[0]) ^ int(indices[1]))).all()
    dsts = np.full(300, 4)
    many = pool.encoder.encode_canonical_pairs(dsts, 5 + np.arange(300) % 16)
    pool.apply_updates(dsts, many)
    _, expected = _expected_buckets(
        pool, np.concatenate([indices, many]), np.full(302, 4), np.arange(302)
    )
    assert _pool_buckets(pool) == expected


def test_fold_shard_on_two_threads_gives_the_serial_bytes(native_provider):
    """Disjoint shards share nothing: not the pool rows, not the hash scratch."""
    num_nodes, half = 64, 32
    rng = np.random.default_rng(21)
    dsts = rng.integers(0, num_nodes, 40_000)
    indices = rng.integers(0, num_nodes * num_nodes, 40_000).astype(np.uint64)
    shards = [(dsts < half, 0, half), (dsts >= half, half, num_nodes)]
    serial = _make_pool(False, num_nodes, native_provider, False)
    threaded = _make_pool(False, num_nodes, native_provider, False)
    start = threading.Barrier(2)

    def fold(mask, node_lo, node_hi):
        start.wait(timeout=60)
        for _ in range(5):
            threaded.fold_shard(dsts[mask], indices[mask], node_lo, node_hi)

    workers = [threading.Thread(target=fold, args=shard) for shard in shards]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
        assert not worker.is_alive()
    for mask, node_lo, node_hi in shards:
        serial.fold_shard(dsts[mask], indices[mask], node_lo, node_hi)
    assert serial._planes[0].any()
    assert np.array_equal(serial._planes, threaded._planes)


# ----------------------------------------------------------------------
# the five C entry points over synthetic buffers: any num_rows >= 1,
# and no word outside the addressed columns is ever written
# ----------------------------------------------------------------------
C_ENTRY_POINTS = ("packed", "wide", "sep64", "bundle", "edges_packed", "edges_wide")


@pytest.mark.parametrize("count", [0, 1, 256, 700])
@pytest.mark.parametrize("num_rows", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("entry", C_ENTRY_POINTS)
def test_c_fold_entry_points_stay_inside_their_columns(native_provider, entry, num_rows, count):
    if native_provider.name != "cc":
        pytest.skip("drives the C library's entry points")
    from repro.kernels.native_cc import _addr

    lib = native_provider._lib
    num_slots, num_dsts = 3, 1 if entry == "bundle" else 4
    rng = np.random.default_rng(num_rows * 1000 + count)
    mm, mc = rng.integers(1, 1 << 63, (2, num_slots)).astype(np.uint64)
    # Only even segments are addressed: every column is followed by a
    # whole column of canary words that must stay zero.
    offsets = 2 * np.arange(num_slots, dtype=np.int64)
    stride = 2 * num_slots
    words = num_dsts * stride * num_rows
    index_bits = 32 if "packed" in entry else 40
    indices = rng.integers(0, 1 << index_bits, count).astype(np.uint64)
    lo = rng.integers(0, num_dsts, count).astype(np.int64)
    hi = rng.integers(0, num_dsts, count).astype(np.int64)
    tail = (count, _addr(mm), _addr(mc), num_slots, num_rows, stride, _addr(offsets))
    alpha = np.zeros(words, dtype=np.uint64)
    gamma = np.zeros(words, dtype=np.uint32 if "wide" in entry else np.uint64)
    gamma_ptr = _addr(gamma)
    if entry == "packed":
        lib.repro_fold_packed(_addr(alpha), _addr(indices), _addr(lo), *tail)
    elif entry == "edges_packed":
        lib.repro_fold_edges_packed(_addr(alpha), _addr(indices), _addr(lo), _addr(hi), *tail)
    elif entry == "wide":
        lib.repro_fold_wide(_addr(alpha), gamma_ptr, _addr(indices), _addr(lo), *tail)
    elif entry == "edges_wide":
        lib.repro_fold_edges_wide(
            _addr(alpha), gamma_ptr, _addr(indices), _addr(lo), _addr(hi), *tail
        )
    else:
        dsts = None if entry == "bundle" else _addr(lo)
        lib.repro_fold_sep64(_addr(alpha), gamma_ptr, _addr(indices), dsts, *tail)

    if "packed" in entry:
        alpha, gamma = alpha >> _SHIFT32, alpha & _LOW32
    columns = [plane.reshape(num_dsts * num_slots, 2, num_rows) for plane in (alpha, gamma)]
    assert not any(plane[:, 1].any() for plane in columns)  # the canaries
    if entry == "bundle":
        lo = np.zeros(count, dtype=np.int64)
    mirrored = entry.startswith("edges")
    depths, checksums = hash_depths_checksums(indices, mm, mc, num_rows)
    expected = reference_fold(
        indices, depths, checksums, num_rows,
        np.concatenate([lo, hi]) if mirrored else lo,
        np.tile(np.arange(count), 2 if mirrored else 1),
        lambda dst, slot: (dst * stride + int(offsets[slot])) * num_rows,
    )
    hit = np.flatnonzero((alpha != 0) | (gamma != 0))
    got = dict(zip(hit.tolist(), zip(alpha[hit].tolist(), gamma[hit].tolist())))
    assert got == expected
    if count >= 256:
        assert (depths == num_rows).any() and (depths == 1).any()


# ----------------------------------------------------------------------
# the round split: a serial native fold cut into round ranges on helper
# threads writes the one-range bytes, and only serial callers split
# ----------------------------------------------------------------------
@pytest.fixture
def split(native_provider, fold_helpers, monkeypatch):
    """``(force, handed)`` for the native round split on any host.

    ``force(cores, floor=None)`` fixes what the split degree is computed
    from; ``handed`` collects every job handed to a helper thread.
    """
    from repro.kernels import native_cc
    from repro.parallel import cost_model

    def force(cores, floor=None):
        monkeypatch.setattr(cost_model, "usable_cores", lambda: cores)
        if floor is not None:
            monkeypatch.setattr(native_cc, "SPLIT_FLOOR", floor)

    return force, fold_helpers


def _split_case(provider, num_nodes, count, force_wide=False, num_rounds=None, seed=3):
    """``(pools, lo, hi, indices)``: two native pools and a numpy one, one edge batch."""
    encoder = EdgeEncoder(num_nodes)
    lo, hi = _random_pairs(num_nodes, count, np.random.default_rng(seed))
    pools = [
        NodeTensorPool(
            num_nodes, encoder, graph_seed=9,
            geometry=pool_geometry(num_nodes, wide=force_wide, rounds=num_rounds),
            kernels=kernels,
        )
        for kernels in (provider, provider, NUMPY_KERNELS)
    ]
    return pools, lo, hi, encoder.encode_canonical_pairs(lo, hi)


def _provider_fold(provider, entry, pool, lo, hi, indices, split):
    """Both halves of the edge batch through ``fold_pool_edges`` or ``fold_pool``."""
    if entry == "fold_pool_edges":
        provider.fold_pool_edges(pool, indices, lo, hi, split=split)
    else:
        provider.fold_pool(
            pool, np.concatenate([indices, indices]), np.concatenate([lo, hi]), split=split
        )


def _tensor_bytes(pool):
    return [np.asarray(t, dtype=np.uint64).tobytes() for t in pool.raw_tensors()]


@pytest.mark.parametrize("ranges", [1, 2, 3, "rounds", "rounds + 2"])
@pytest.mark.parametrize("entry", ["fold_pool", "fold_pool_edges"])
@pytest.mark.parametrize("force_wide", [False, True])
def test_round_split_is_bit_identical(native_provider, split, force_wide, entry, ranges):
    from repro.sketch.round_split import split_ranges

    force, handed = split
    (split_pool, serial_pool, numpy_pool), lo, hi, indices = _split_case(
        native_provider, 100, 600, force_wide
    )
    rounds, cols = split_pool.num_rounds, split_pool.num_columns
    ranges = {"rounds": rounds, "rounds + 2": rounds + 2}.get(ranges, ranges)
    # fold_pool is handed both halves as one column of twice the updates.
    work = (2 if entry == "fold_pool" else 1) * indices.size * split_pool.num_slots
    force(3, floor=work // ranges)
    expected = min(ranges, rounds)
    assert split_ranges(work, rounds, work // ranges) == expected
    _provider_fold(native_provider, entry, split_pool, lo, hi, indices, split=True)
    assert len(handed) == min(3, expected) - 1
    # Whole rounds each, balanced, covering every slot once.
    tails = native_provider._fold_tail(split_pool, split_pool._slot_offsets, expected)
    slots = [tail[2] for tail in tails]
    assert all(count % cols == 0 for count in slots) and sum(slots) == split_pool.num_slots
    assert max(slots) - min(slots) <= cols
    _provider_fold(native_provider, entry, serial_pool, lo, hi, indices, split=False)
    assert len(handed) == min(3, expected) - 1
    numpy_pool.apply_edges(lo, hi, indices)
    assert split_pool.raw_tensors()[0].any()
    assert _tensor_bytes(split_pool) == _tensor_bytes(serial_pool) == _tensor_bytes(numpy_pool)


def test_caller_folds_every_range_when_no_helper_turns_up(native_provider, monkeypatch):
    """Ranges are claimed, not assigned: a helper whose core is busy
    elsewhere does not hold the caller up, and when it does start it
    finds nothing left to fold."""
    from repro.kernels import native_cc
    from repro.parallel import cost_model
    from repro.sketch import round_split

    late = []

    class Stalled:
        def submit(self, job, *args):
            late.append(lambda: job(*args))

    monkeypatch.setattr(cost_model, "usable_cores", lambda: 2)
    monkeypatch.setattr(native_cc, "SPLIT_FLOOR", 1)
    monkeypatch.setattr(round_split, "_helper_pool", Stalled)
    (split_pool, _, numpy_pool), lo, hi, indices = _split_case(native_provider, 100, 600)
    split_pool.apply_edges(lo, hi, indices)
    numpy_pool.apply_edges(lo, hi, indices)
    assert len(late) == 1
    assert _tensor_bytes(split_pool) == _tensor_bytes(numpy_pool)
    late[0]()
    assert _tensor_bytes(split_pool) == _tensor_bytes(numpy_pool)


def test_one_round_pool_never_splits(native_provider, split):
    force, handed = split
    force(4, floor=1)
    (split_pool, _, numpy_pool), lo, hi, indices = _split_case(
        native_provider, 100, 600, num_rounds=1
    )
    split_pool.apply_edges(lo, hi, indices)
    numpy_pool.apply_edges(lo, hi, indices)
    assert handed == []
    assert _tensor_bytes(split_pool) == _tensor_bytes(numpy_pool)


@pytest.mark.parametrize("work", ["floor - 1", "floor", "2 * floor"])
def test_split_starts_at_two_floors_of_work(native_provider, split, work):
    force, handed = split
    (split_pool, _, numpy_pool), lo, hi, indices = _split_case(native_provider, 100, 600)
    total = indices.size * split_pool.num_slots  # even: 600 edges
    floor = {"floor - 1": total + 1, "floor": total, "2 * floor": total // 2}[work]
    force(2, floor=floor)
    split_pool.apply_edges(lo, hi, indices)
    numpy_pool.apply_edges(lo, hi, indices)
    assert len(handed) == (1 if work == "2 * floor" else 0)
    assert _tensor_bytes(split_pool) == _tensor_bytes(numpy_pool)


def test_split_degree(split):
    from repro.kernels.native_cc import SPLIT_FLOOR
    from repro.sketch.round_split import split_ranges

    def degree(work, rounds):
        return split_ranges(work, rounds, SPLIT_FLOOR)

    force, _ = split
    force(2)
    works = (SPLIT_FLOOR - 1, SPLIT_FLOOR, 2 * SPLIT_FLOOR - 1, 2 * SPLIT_FLOOR, 100 * SPLIT_FLOOR)
    assert [degree(work, 10) for work in works] == [1, 1, 1, 2, 10]
    force(8)  # the range count does not follow the core count
    assert degree(5 * SPLIT_FLOOR, 10) == 5
    assert degree(100 * SPLIT_FLOOR, 10) == 10
    assert degree(100 * SPLIT_FLOOR, 3) == 3
    assert degree(100 * SPLIT_FLOOR, 1) == 1
    force(1)
    assert degree(100 * SPLIT_FLOOR, 10) == 1


def _engines(num_nodes, **native):
    from repro.core.config import GraphZeppelinConfig
    from repro.core.graph_zeppelin import GraphZeppelin

    return (
        GraphZeppelin(num_nodes, GraphZeppelinConfig(seed=4, kernel_backend="native", **native)),
        GraphZeppelin(num_nodes, GraphZeppelinConfig(seed=4)),
    )


def _assert_same_answer(engine, reference):
    assert _tensor_bytes(engine.tensor_pool) == _tensor_bytes(reference.tensor_pool)
    assert engine.list_spanning_forest().edges == reference.list_spanning_forest().edges


def test_engine_ingest_batch_splits_and_matches_numpy(split):
    force, handed = split
    force(2)  # the real floor
    edges = np.stack(_random_pairs(512, 65_536, np.random.default_rng(8)), axis=1)
    native, reference = _engines(512)
    native.ingest_batch(edges)
    assert handed
    reference.ingest_batch(edges)
    _assert_same_answer(native, reference)


def test_sharded_workers_hand_no_range_to_the_helpers(split):
    from repro.parallel.graph_workers import ShardedIngestor

    force, handed = split
    force(2, floor=1)  # any fold allowed to split would
    edges = np.stack(_random_pairs(300, 20_000, np.random.default_rng(6)), axis=1)
    sharded, reference = _engines(300, num_workers=2)
    with ShardedIngestor(sharded, backend="threads", num_workers=2) as ingestor:
        ingestor.ingest_stream([edges[:8_000], edges[8_000:]])
    assert handed == []
    reference.ingest_batch(edges)
    _assert_same_answer(sharded, reference)
    serial, _ = _engines(300)
    serial.ingest_batch(edges)  # ... and the serial path does split
    assert handed


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_failed_range_propagates_after_every_range_finished(
    native_provider, split, monkeypatch, failing
):
    import time

    force, _ = split
    force(3, floor=1)
    (pool, _, _), lo, hi, indices = _split_case(native_provider, 100, 600, num_rounds=4)
    lib = native_provider._lib
    real = lib.repro_fold_edges_packed
    caller = threading.current_thread()
    lock = threading.Lock()
    calls, failed, finished = [], [], []

    def flaky(*args):
        on_caller = threading.current_thread() is caller
        with lock:
            calls.append(on_caller)
            fail = on_caller == (failing == "caller") and not failed
            if fail:
                failed.append(on_caller)
        if fail:
            raise RuntimeError("injected")
        time.sleep(0.2)
        real(*args)
        finished.append(on_caller)

    monkeypatch.setattr(lib, "repro_fold_edges_packed", flaky)
    with pytest.raises(RuntimeError, match="injected"):
        native_provider.fold_pool_edges(pool, indices, lo, hi, split=True)
    assert failed == [failing == "caller"]
    assert len(calls) == 4  # the failing thread went on to claim more
    assert len(finished) == 3  # no range still writing when the error surfaced


def _child_split_digest(conn, num_nodes, count, numpy_count):
    """Send the digests of a native and a numpy split fold made in a child."""
    from repro.kernels import native_kernels

    (pool, _, _), lo, hi, indices = _split_case(native_kernels(), num_nodes, count)
    pool.apply_edges(lo, hi, indices)
    (_, _, numpy_pool), lo, hi, indices = _split_case(NUMPY_KERNELS, num_nodes, numpy_count)
    numpy_pool.apply_edges(lo, hi, indices)
    conn.send((payload_digest(pool._planes[0].tobytes()), _tensor_bytes(numpy_pool)))
    conn.close()


def test_split_fold_in_a_forked_child(native_provider, split):
    """The parent's helper threads do not exist after a fork: the child
    starts its own instead of waiting on them forever."""
    from repro.distributed.multi_ingestor import process_context

    force, handed = split
    force(2)
    (parent, serial, _), lo, hi, indices = _split_case(native_provider, 1024, 65_536)
    parent.apply_edges(lo, hi, indices)
    assert handed  # the helpers exist in the parent now
    native_provider.fold_pool_edges(serial, indices, lo, hi, split=False)
    expected = payload_digest(serial._planes[0].tobytes())
    assert payload_digest(parent._planes[0].tobytes()) == expected
    # The numpy fold splits over the same helpers (a smaller batch: the
    # numpy pair costs about ten native ones).
    (numpy_native, _, numpy_split), lo, hi, indices = _split_case(native_provider, 1024, 4_096)
    handed.clear()
    numpy_split.apply_edges(lo, hi, indices)
    assert handed
    numpy_native.apply_edges(lo, hi, indices)
    numpy_expected = _tensor_bytes(numpy_native)
    assert _tensor_bytes(numpy_split) == numpy_expected

    context = process_context()
    receive, send = context.Pipe(duplex=False)
    child = context.Process(
        target=_child_split_digest, args=(send, 1024, 65_536, 4_096)
    )
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the child's split fold never returned"
        digest, numpy_bytes = receive.recv()
        assert digest == expected
        assert numpy_bytes == numpy_expected
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()


@pytest.mark.skipif(
    usable_cores() != 1, reason="one-core hosts only (CI: taskset -c 0)"
)
def test_one_core_host_never_starts_a_helper(native_provider):
    from repro.sketch import round_split

    (pool, _, numpy_pool), lo, hi, indices = _split_case(native_provider, 1024, 65_536)
    pool.apply_edges(lo, hi, indices)
    pool.apply_updates(hi, indices)
    # Far above both providers' floors.
    numpy_pool.apply_edges(lo, hi, indices)
    numpy_pool.apply_updates(hi, indices)
    assert round_split._helpers is None
    assert _tensor_bytes(numpy_pool) == _tensor_bytes(pool)
    assert not [t for t in threading.enumerate() if t.name.startswith("repro-fold")]
