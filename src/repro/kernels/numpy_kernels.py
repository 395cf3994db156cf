"""The numpy kernel provider: the default, and the reference for every other.

:class:`NumpyKernels` has the contract of the compiled
:class:`~repro.kernels.native_cc.CcKernels`, method for method (see
:mod:`repro.kernels`).  Its fold is hash + level-peeling kernel +
scatter per pass: :func:`~repro.sketch.flat_node_sketch.fold_hashed`
emits the target's own flat bucket offsets (round-major for an in-RAM
pool, page-local for a page), which take one fancy-indexed XOR per plane.

The implementations are imported where they run: the sketch, core and
integrity modules take this provider as their default, so importing
them here would be circular.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.observability.tracing import span

#: Element budget for one ``(updates, slots)`` matrix of a fold pass:
#: 1 << 16 uint64 elements is 512 KiB, so a pass's hash matrices and the
#: kernel's gathers stay cache-resident, and the pass shrinks as the
#: graph (and with it the slot count) grows.  Interleaved runs at
#: 20 000 nodes: 312 edges per pass folds ~45% more edges per second
#: than 8 192 per pass, and no slower at 200 or 1 000 nodes.
FOLD_PASS_ELEMENTS = 1 << 16

#: Least (update, slot) work one round range of a split fold is given
#: (see :mod:`repro.sketch.round_split`).  A range pays its own Python
#: pass loop and destination sort, so this is not the native floor
#: scaled by the ~11x costlier numpy pair.  Split over serial, minimum
#: of 5, 2-core x86 VM, at 1 024 and 20 000 nodes: 1 << 14 lost 15-27 %
#: on 256-768-edge batches, 1 << 15 won 1.2-2.1x from 512 edges and
#: never lost beyond noise, 1 << 16 and 1 << 17 left 512-1 024-edge
#: batches serial.  8 192 edges: 1.4-1.9x.
SPLIT_FLOOR = 1 << 15


def xor_scatter(
    tensors: Sequence[np.ndarray], targets: np.ndarray, values: Sequence[np.ndarray]
) -> None:
    """XOR fold-kernel output into bucket tensors at flat offsets.

    ``tensors`` and ``values`` pair up plane by plane.  Targets are
    unique within one kernel call, which is what makes the
    fancy-indexed XOR exact.
    """
    for tensor, vals in zip(tensors, values):
        tensor.reshape(-1)[targets] ^= vals.astype(tensor.dtype, copy=False)


def _pass_rows(slots: int, rows: int, width: int) -> int:
    """Rows per fold pass, each row carrying ``width`` updates over
    ``slots`` slots: as many as keep the kernel's ``(updates, slots)``
    matrices inside :data:`FOLD_PASS_ELEMENTS` (never more than the batch)."""
    updates = min(FOLD_PASS_ELEMENTS // slots, width * rows)
    return max(updates // width, 1)


def _fold_chunk(owner, planes, pack, offsets, dsts, edge_rows, indices, depths, checksums):
    """Reduce one hashed chunk into ``planes`` (laid out by ``pack``) at
    the slot ``offsets``; ``owner`` is their pool or node sketch."""
    from repro.sketch.flat_node_sketch import fold_hashed

    with span("ingest.fold"):
        targets, *values = fold_hashed(
            indices, depths, checksums, owner.num_rows, dsts, edge_rows=edge_rows,
            dst_stride=owner.num_columns, slot_offsets=offsets, pack=pack,
        )
        xor_scatter(planes, targets, values)


def _fold_rounds(owner, planes, pack, offsets, indices, dst_columns, lo: int, hi: int):
    """Fold ``indices`` into the nodes of every destination column, rounds
    ``[lo, hi)`` only: hash + kernel + scatter per pass, against those
    rounds' seeds and slot ``offsets``, into ``planes``."""
    from repro.sketch.flat_node_sketch import hash_depths_checksums

    width = len(dst_columns)
    slots = slice(lo * owner.num_columns, hi * owner.num_columns)
    membership = owner._mixed_membership[slots]
    checksum = owner._mixed_checksum[slots]
    chunk = _pass_rows(membership.size, indices.size, width)
    for start in range(0, indices.size, chunk):
        block = indices[start : start + chunk]
        with span("ingest.hash"):
            depths, checksums = hash_depths_checksums(
                block, membership, checksum, owner.num_rows, reuse_scratch=True
            )
        dsts = np.concatenate([column[start : start + chunk] for column in dst_columns])
        edge_rows = np.tile(np.arange(block.size), width)
        _fold_chunk(owner, planes, pack, offsets[slots], dsts, edge_rows, block, depths, checksums)


class NumpyKernels:
    """The pure-numpy kernel provider (``kernel_backend="numpy"``): one
    stateless instance per process, :data:`NUMPY_KERNELS`, which copies
    and pickles refer to by name."""

    name = "numpy"
    #: The sharded producer hashes each edge slot once and the shard
    #: workers fold the shared matrices (:meth:`fold_hashed`).
    hoists_hash = True
    #: A bound query keeps no round sample, so pools keep no write stamps.
    memoises_rounds = False

    def __reduce__(self) -> str:
        return "NUMPY_KERNELS"

    # ------------------------------------------------------------------
    # ingest folds
    # ------------------------------------------------------------------
    def fold_pool(
        self, pool, indices: np.ndarray, dsts: np.ndarray, split: bool = False
    ) -> None:
        """Fold a mixed multi-node batch into an in-RAM pool's planes;
        with ``split`` (a serial caller) a fold of at least two
        :data:`SPLIT_FLOOR` of (update, slot) work runs as round ranges
        on every usable core."""
        self._fold_split(pool, indices, (dsts,), split)

    def fold_pool_edges(
        self, pool, indices: np.ndarray, lo: np.ndarray, hi: np.ndarray,
        split: bool = False,
    ) -> None:
        """Fold both mirrored halves of a canonical edge batch, hashing
        each edge slot once; ``split`` as :meth:`fold_pool`."""
        self._fold_split(pool, indices, (lo, hi), split)

    def _fold_split(self, pool, indices, dst_columns, split: bool) -> None:
        from repro.sketch.round_split import fold_ranges, round_ranges, split_ranges

        work = len(dst_columns) * indices.size * pool.num_slots
        ranges = split_ranges(work, pool.num_rounds, SPLIT_FLOOR) if split else 1
        fold_ranges(
            _fold_rounds,
            (pool, pool._planes, pool.geometry.pack, pool._slot_offsets, indices, dst_columns),
            round_ranges(pool.num_rounds, ranges),
        )

    def fold_page(
        self, pool, entry: Tuple[np.ndarray, ...], indices: np.ndarray,
        local_dsts: np.ndarray,
    ) -> None:
        """Fold one page's column into its pinned tensors (paged pool)."""
        _fold_rounds(
            pool, entry, pool.geometry.pack, pool._combined_offsets, indices, (local_dsts,),
            0, pool.num_rounds,
        )

    def fold_hashed(
        self, pool, dsts: np.ndarray, edge_rows: np.ndarray, indices: np.ndarray,
        depths: np.ndarray, checksums: np.ndarray,
    ) -> None:
        """Fold update ``i`` -- edge slot ``indices[edge_rows[i]]``, whose
        hash rows the caller computed -- into node ``dsts[i]`` of an
        in-RAM pool (the hoisted-hash shard fold)."""
        chunk = _pass_rows(pool.num_slots, dsts.size, 1)
        for start in range(0, dsts.size, chunk):
            _fold_chunk(
                pool, pool._planes, pool.geometry.pack, pool._slot_offsets,
                dsts[start : start + chunk], edge_rows[start : start + chunk],
                indices, depths, checksums,
            )

    def fold_bundle(self, sketch, indices: np.ndarray) -> None:
        """Fold edge slots into one node's whole bundle (FlatNodeSketch)."""
        offsets = np.arange(sketch.num_slots)  # slot-major: node 0 of a one-node pool
        dsts = np.zeros(indices.size, dtype=np.int64)
        planes, pack = (sketch._alpha, sketch._gamma), lambda alpha, gamma: (alpha, gamma)
        _fold_rounds(sketch, planes, pack, offsets, indices, (dsts,), 0, sketch.num_rounds)

    def ingest_edges(self, pool, endpoints: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Check, orient and encode ``(k, 2)`` edge rows, then fold them
        through the pool's ``apply_edges``; returns ``(lo, hi)``."""
        from repro.core.edge_encoding import canonical_edge_columns

        lo, hi = canonical_edge_columns(endpoints, pool.num_nodes)
        pool.apply_edges(lo, hi, pool.encoder.encode_canonical_pairs(lo, hi))
        return lo, hi

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def bind_query(self, pool):
        """A fresh :class:`~repro.core.boruvka.RoundQuery` sampling the pool."""
        from repro.core.boruvka import RoundQuery

        return RoundQuery(
            pool.num_nodes,
            pool.encoder,
            lambda round_index, labels, mask: pool.query_components(labels, round_index, mask),
        )

    # ------------------------------------------------------------------
    # storage integrity
    # ------------------------------------------------------------------
    def block_digests(self, data, block_size: int, seed: int) -> np.ndarray:
        """Digest every ``block_size``-byte block of ``data``."""
        from repro.integrity.digest import numpy_block_digests

        return numpy_block_digests(data, block_size, seed)


#: What ``resolve_kernels("numpy")`` returns and every pool, sketch and
#: block device holds unless given another provider.
NUMPY_KERNELS = NumpyKernels()
