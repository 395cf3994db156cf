"""Oracle tests for the level-peeling fold kernel.

``fold_hashed`` is held against a scalar dict-of-XOR reference over
hypothesis-drawn batch shapes, with the hash matrices *injected* so the
bucket-depth extremes and the packed/wide value widths are hit on
purpose rather than by luck.  The pool-level tests then pin the emitted
offsets to the flat and the paged layouts, the pool bytes to digests
recorded before the kernel was swapped in, and the scratch arena to a
bound.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.edge_encoding import EdgeEncoder
from repro.integrity.digest import payload_digest
from repro.memory.hybrid import HybridMemory
from repro.sketch.flat_node_sketch import (
    columnar_fold,
    fold_hashed,
    fold_scratch_bytes,
)
from repro.sketch.paged_pool import PagedTensorPool
from repro.sketch.tensor_pool import NodeTensorPool

_SHIFT32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)


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
        indices, depths, checksums, num_rows, dsts, edge_rows=edge_rows, packed=packed
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
            indices, depths, checksums, 6, np.tile(dsts, 2), edge_rows=twice, packed=packed
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
        indices, depths, checksums, num_rows, dsts, edge_rows=edge_rows, packed=packed
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


def _fold_with_pool_layout(pool, indices, depths, checksums, dsts, edge_rows):
    kernel_dsts, slot_offsets = pool._fold_layout(dsts)
    return fold_hashed(
        indices, depths, checksums, pool.num_rows, kernel_dsts, edge_rows=edge_rows,
        dst_stride=pool.num_columns, slot_offsets=slot_offsets, packed=pool._packed,
    )


@pytest.mark.parametrize("force_wide", [False, True])
def test_flat_pool_layout_relocation(force_wide):
    pool = NodeTensorPool(37, EdgeEncoder(37), graph_seed=4, force_wide=force_wide)
    indices, depths, checksums, dsts, edge_rows = _pool_case(pool, seed=8)

    def locate(dst, slot):
        round_index, col = divmod(slot, pool.num_columns)
        return ((round_index * pool.num_nodes + dst) * pool.num_columns + col) * pool.num_rows

    result = _fold_with_pool_layout(pool, indices, depths, checksums, dsts, edge_rows)
    assert emitted_buckets(result, pool._packed) == reference_fold(
        indices, depths, checksums, pool.num_rows, dsts, edge_rows, locate
    )


@pytest.mark.parametrize("force_wide", [False, True])
def test_paged_pool_layout_relocation(force_wide):
    pool = PagedTensorPool(
        37, EdgeEncoder(37), memory=HybridMemory(ram_bytes=1 << 20), graph_seed=4,
        force_wide=force_wide, nodes_per_page=5,
    )
    indices, depths, checksums, dsts, edge_rows = _pool_case(pool, seed=9)
    npp = pool.nodes_per_page

    def locate(dst, slot):
        # Offset in the concatenation of all (uniform) page tensors.
        page, local = divmod(dst, npp)
        round_index, col = divmod(slot, pool.num_columns)
        in_page = ((round_index * npp + local) * pool.num_columns + col) * pool.num_rows
        return page * pool._page_elems + in_page

    result = _fold_with_pool_layout(pool, indices, depths, checksums, dsts, edge_rows)
    assert emitted_buckets(result, pool._packed) == reference_fold(
        indices, depths, checksums, pool.num_rows, dsts, edge_rows, locate
    )


# ----------------------------------------------------------------------
# snapshot interchange: pool bytes pinned to the pre-swap kernel's
# ----------------------------------------------------------------------
#: ``payload_digest`` of the backing tensors after ``_golden_pool``'s
#: stream, recorded at the parent commit (argsort + prefix-scan kernel).
GOLDEN_PACKED = 0x1D0522944BB75E65
GOLDEN_WIDE = (0x02807065FD40EF0D, 0x876A9EB413A541FE)


def _golden_pool(pool_cls=NodeTensorPool, **kwargs):
    """A fixed arithmetic stream (no RNG) through three fold entry points."""
    num_nodes = 211
    encoder = EdgeEncoder(num_nodes)
    pool = pool_cls(num_nodes, encoder, graph_seed=20220612, **kwargs)
    i = np.arange(3000, dtype=np.int64)
    u = (i * 7919 + 13) % num_nodes
    v = (u + 1 + (i * 104729 + 7) % (num_nodes - 1)) % num_nodes
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    idx = encoder.encode_canonical_pairs(lo, hi)
    pool.apply_edges(lo[:2000], hi[:2000], idx[:2000], chunk_size=700)
    pool.apply_updates(
        np.concatenate([lo[2000:], hi[2000:]]), np.concatenate([idx[2000:], idx[2000:]])
    )
    pool.apply_edges(lo[::3], hi[::3], idx[::3])  # delete every third edge again
    return pool


def test_golden_pool_digest_packed():
    pool = _golden_pool()
    assert payload_digest(pool._buckets.tobytes()) == GOLDEN_PACKED


def test_golden_pool_digest_wide():
    pool = _golden_pool(force_wide=True)
    digests = (payload_digest(pool._alpha.tobytes()), payload_digest(pool._gamma.tobytes()))
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
            columnar_fold(
                encoder.encode_canonical_pairs(lo, hi),
                pool._mixed_membership, pool._mixed_checksum, pool.num_rows, lo,
            )
        arena_bytes.append(fold_scratch_bytes())

    # The arena is per thread: a fresh thread starts from an empty one.
    worker = threading.Thread(target=fold_batches)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    # Two (K, S) uint64 hash matrices are all the largest batch needs.
    largest = 2 * int(sizes.max()) * pool.num_slots * 8
    assert 0 < arena_bytes[0] <= 2 * largest
