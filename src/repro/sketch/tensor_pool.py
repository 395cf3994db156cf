"""A whole graph's sketch state as contiguous round-major tensors.

:class:`NodeTensorPool` is the columnar engine's in-RAM backing store:
instead of one Python object (and two arrays) per node, *every* node's
sketch bundle lives in whole-graph tensors laid out **round-major** --
one Boruvka round's entire graph state is a contiguous
``(num_nodes, num_columns, num_rows)`` slab, which is what the query
engine scans.  A whole-round cut query gathers and reduces inside one
round slab instead of striding across every node's full bundle.

Bucket storage comes in two modes:

* **packed** (graphs up to 65536 nodes): the edge-slot universe fits in
  32 bits, so a bucket's 32-bit ``alpha`` accumulator and 32-bit
  ``gamma`` checksum pack into a single uint64 word (alpha in the high
  half).  XOR distributes over the packed fields, so folds, merges, and
  segmented reductions all run as **one** operation on **one** tensor --
  half the kernel calls and half the memory traffic of separate
  alpha/gamma tensors;
* **wide** (larger graphs): a uint64 ``alpha`` tensor plus a uint32
  ``gamma`` tensor (checksums are 32 bits either way).

Bucket ``(round, node, row, col)`` sits at flat offset
``((round * num_nodes + node) * cols + col) * rows + row``; the shared
:func:`~repro.sketch.flat_node_sketch.fold_hashed` kernel emits these
offsets directly (via its ``dst_stride`` / ``slot_offsets`` segment
mapping), so a *mixed multi-node* batch of updates folds with one hash,
one sort of its destinations, one segmented XOR per bucket row and one
fancy-indexed XOR into the pool per chunk -- no Python loop over nodes,
rounds, or columns, and no dependence on how the destinations spread.

Every fold entry point (:meth:`~NodeTensorPool.apply_updates`,
``apply_edges``, ``apply_node_batch``, ``fold_shard``,
``fold_shard_hashed``, ``fold_page_batch``) validates its arguments and
hands them to one private path, :meth:`NodeTensorPool._fold`: a native
provider call when the pool has one (which a serial entry point lets
split a large batch by Boruvka round across the usable cores),
otherwise hash + kernel + scatter per chunk.  The paged pool overrides
only where offsets point and how they are scattered.

This is what turns ``GraphZeppelin.ingest_batch`` into a columnar
pipeline: canonicalise the edge array, encode the edge slots, and hand
the ``(lo, hi, index)`` columns straight to
:meth:`NodeTensorPool.apply_edges`.

The pool is also the query engine's substrate: one Boruvka round's cut
samples for *every* active component come out of a single segmented
XOR-reduce over the round slab (:meth:`NodeTensorPool.query_components`),
and a single component's merged sketch is one fancy gather + XOR
reduction (:meth:`NodeTensorPool.query_merged`) instead of deserialising
and merging per-node sketch objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.edge_encoding import EdgeEncoder
from repro.exceptions import ConfigurationError, IncompatibleSketchError
from repro.observability.tracing import span
from repro.sketch.flat_node_sketch import (
    FlatNodeSketch,
    decode_column_batch,
    flat_seed_matrices,
    fold_hashed,
    group_nodes_by_label,
    hash_depths_checksums,
    query_bucket_arrays,
    query_bucket_arrays_batch,
    segmented_xor,
    validate_indices,
)
from repro.sketch.sizes import (
    BYTES_PER_CUBE_BUCKET,
    cubesketch_num_columns,
    cubesketch_num_rows,
)
from repro.sketch.sketch_base import (
    SAMPLE_FAIL,
    SAMPLE_GOOD,
    SAMPLE_ZERO,
    SampleResult,
)

#: Element budget for one ``(updates, slots)`` matrix of a numpy fold
#: pass: 1 << 16 uint64 elements is 512 KiB, so a pass's hash matrices
#: and the kernel's gathers stay cache-resident, and the pass shrinks
#: as the graph (and with it the slot count) grows.  Interleaved runs
#: at 20 000 nodes: 312 edges per pass folds ~45% more edges per second
#: than 8 192 per pass, and no slower at 200 or 1 000 nodes.
_FOLD_PASS_ELEMENTS = 1 << 16

#: Shards per worker of the automatic shard planner: enough that a
#: worker which drew a light node range picks up another, few enough
#: that per-shard fixed costs stay amortised.
SHARDS_PER_WORKER = 4
#: Most nodes one node group spans -- an out-of-core page or an in-RAM
#: gutter group.  Bounds the update column a single emitted batch folds.
MAX_PAGE_NODES = 1056

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def shard_bounds(num_nodes: int, num_shards: int) -> np.ndarray:
    """Contiguous node-range boundaries for ``num_shards`` pool shards.

    Returns ``num_shards + 1`` ascending boundaries; shard ``s`` owns the
    node range ``[bounds[s], bounds[s + 1])``.  Ranges differ by at most
    one node when ``num_nodes`` is not divisible by ``num_shards``, and a
    shard count above ``num_nodes`` simply produces empty tail shards.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    return (
        np.arange(num_shards + 1, dtype=np.int64) * np.int64(num_nodes)
    ) // np.int64(num_shards)


def auto_num_shards(num_units: int, num_workers: int = 1) -> int:
    """Shard count for load balance: :data:`SHARDS_PER_WORKER` per worker.

    ``num_units`` is what shard boundaries can fall between (nodes for
    the in-RAM pool, pages for the paged one) and caps the count.
    """
    return max(1, min(int(num_units), SHARDS_PER_WORKER * max(int(num_workers), 1)))


def xor_scatter(
    tensors: Sequence[np.ndarray], targets: np.ndarray, values: Sequence[np.ndarray]
) -> None:
    """XOR fold-kernel output into bucket tensors at flat offsets.

    ``tensors`` and ``values`` pair up: the packed bucket tensor with
    packed values, or the alpha and gamma tensors with theirs (gamma
    narrows to the tensor's uint32).  Targets are unique within one
    kernel call, which is what makes the fancy-indexed XOR exact.
    """
    for tensor, vals in zip(tensors, values):
        tensor.reshape(-1)[targets] ^= vals.astype(tensor.dtype, copy=False)


def _shm_view(segment, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """A numpy view over a shared-memory segment's leading bytes.

    Segments round up to page size, so the view is built with an
    explicit element count rather than over the whole buffer.
    """
    count = int(np.prod(shape))
    return np.frombuffer(segment.buf, dtype=dtype, count=count).reshape(shape)


def _move_to_shm(tensor: np.ndarray):
    """Copy a tensor into a fresh shared-memory segment; returns (view, shm)."""
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(create=True, size=max(tensor.nbytes, 1))
    view = _shm_view(segment, tensor.shape, tensor.dtype)
    view[...] = tensor
    return view, segment


class NodeTensorPool:
    """Contiguous sketch tensors for every node of a graph.

    Parameters
    ----------
    num_nodes:
        Number of graph nodes.
    encoder:
        The engine's shared edge-slot encoder.
    graph_seed:
        Root seed; hash seeds are derived exactly as the per-node
        sketches derive them, so pool state is bit-identical to a
        collection of :class:`FlatNodeSketch` (or legacy ``NodeSketch``)
        objects fed the same updates.
    delta:
        Per-round sketch failure probability.
    num_rounds:
        Boruvka rounds to provision (defaults to ``ceil(log2 V)``).
    force_wide:
        Use the wide (separate alpha/gamma tensors) storage even when
        the edge-slot universe would fit packed buckets.  Wide mode
        only self-selects above 65536 nodes, so this exists to let the
        equivalence tests exercise it at test-sized graphs.
    kernels:
        Optional native kernel provider (see :mod:`repro.kernels`).
        When given, the fold, segmented-XOR, and decode hot paths run
        the provider's compiled kernels instead of the numpy ones; all
        providers are bit-identical to numpy under the same seed, so
        pool state and query results do not depend on this choice.
    """

    #: Element budget of one numpy fold pass (see :meth:`_pass_rows`).
    _fold_pass_elements = _FOLD_PASS_ELEMENTS

    def __init__(
        self,
        num_nodes: int,
        encoder: EdgeEncoder,
        graph_seed: int = 0,
        delta: float = 0.01,
        num_rounds: Optional[int] = None,
        force_wide: bool = False,
        kernels=None,
        _allocate: bool = True,
    ) -> None:
        from repro.core.node_sketch import num_boruvka_rounds

        if num_nodes < 2:
            raise ConfigurationError("a graph needs at least two nodes")
        if not 0 < delta < 1:
            raise ConfigurationError("delta must be in (0, 1)")
        self.num_nodes = int(num_nodes)
        self.encoder = encoder
        self.graph_seed = int(graph_seed)
        self.delta = float(delta)
        self.num_rounds = (
            int(num_rounds) if num_rounds is not None else num_boruvka_rounds(num_nodes)
        )
        self.num_rows = cubesketch_num_rows(encoder.vector_length)
        self.num_columns = cubesketch_num_columns(delta)
        self.num_slots = self.num_rounds * self.num_columns

        # Shared-memory bookkeeping: populated by to_shared_memory() /
        # attach_shared().  _shm holds the open segments, _owns_shm says
        # whether this process created (and therefore unlinks) them.
        self._shm: List = []
        self._owns_shm = False

        # Round-major: tensor[round] is one contiguous slab holding every
        # node's buckets for that round (see the module docstring).
        # ``_allocate=False`` (attach_shared) skips the zero tensors --
        # the caller installs shared-memory views instead, so a worker
        # process never commits a throwaway pool-sized allocation.
        shape = (self.num_rounds, self.num_nodes, self.num_columns, self.num_rows)
        self._packed = encoder.vector_length <= 1 << 32 and not force_wide
        self._buckets = self._alpha = self._gamma = None
        if _allocate:
            if self._packed:
                self._buckets = np.zeros(shape, dtype=np.uint64)
            else:
                self._alpha = np.zeros(shape, dtype=np.uint64)
                self._gamma = np.zeros(shape, dtype=np.uint32)
        # Fold-kernel segment mapping: bucket (dst, slot) of the
        # slot-major kernel lands at round-major segment
        # dst * num_columns + _slot_offsets[slot].
        slots = np.arange(self.num_slots, dtype=np.int64)
        self._slot_offsets = (slots // self.num_columns) * (
            self.num_nodes * self.num_columns
        ) + (slots % self.num_columns)
        (
            self._membership_seeds,
            self._checksum_seeds,
            self._mixed_membership,
            self._mixed_checksum,
        ) = flat_seed_matrices(self.graph_seed, self.num_rounds, self.num_columns)
        self._updates_applied = 0
        self._kernels = kernels
        # Whole-slab XOR totals per (round, tensor) for the query
        # engine's complement trick; invalidated by any fold.
        self._version = 0
        self._slab_cache: Dict[Tuple[int, str], Tuple[int, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _fold_layout(self, dsts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Kernel destinations and slot offsets that emit this pool's offsets.

        Bucket ``(dst, slot)`` of the slot-major kernel lands at
        round-major segment ``dst * num_columns + _slot_offsets[slot]``.
        """
        return dsts, self._slot_offsets

    def _scatter(self, targets: np.ndarray, values: Sequence[np.ndarray]) -> None:
        """XOR one fold's emitted values into the pool at flat offsets."""
        tensors = (self._buckets,) if self._packed else (self._alpha, self._gamma)
        xor_scatter(tensors, targets, values)

    def _fold_native(
        self, indices: np.ndarray, dst_columns: Sequence[np.ndarray], split: bool
    ) -> None:
        """Provider fold of ``indices`` into every destination column.

        The native fold fuses hash + depth + XOR scatter with no
        temporaries, so the whole batch goes in one call; the mirrored
        form hashes each edge slot once and scatters to both endpoints.
        With ``split`` a large batch spreads its rounds over the usable
        cores (see :mod:`repro.kernels.native_cc`).
        """
        if len(dst_columns) == 2:
            self._kernels.fold_pool_edges(self, indices, *dst_columns, split=split)
        else:
            self._kernels.fold_pool(self, indices, dst_columns[0], split=split)

    def _fold_chunk(
        self,
        dsts: np.ndarray,
        edge_rows: np.ndarray,
        indices: np.ndarray,
        depths: np.ndarray,
        checksums: np.ndarray,
    ) -> None:
        """Reduce one hashed chunk with the level-peeling kernel and scatter it."""
        with span("ingest.fold"):
            kernel_dsts, slot_offsets = self._fold_layout(dsts)
            targets, *values = fold_hashed(
                indices,
                depths,
                checksums,
                self.num_rows,
                kernel_dsts,
                edge_rows=edge_rows,
                dst_stride=self.num_columns,
                slot_offsets=slot_offsets,
                packed=self._packed,
            )
            self._scatter(targets, values)

    def _pass_rows(self, rows: int, width: int, chunk_size: Optional[int]) -> int:
        """Rows per numpy fold pass, each row carrying ``width`` updates.

        ``chunk_size`` when the caller gave one, otherwise as many as
        keep the kernel's ``(updates, num_slots)`` matrices inside this
        pool's element budget (never more than the batch itself).
        """
        if chunk_size:
            return max(int(chunk_size), 1)
        updates = min(self._fold_pass_elements // self.num_slots, width * rows)
        return max(updates // width, 1)

    def _fold(
        self,
        indices: np.ndarray,
        dst_columns: Sequence[np.ndarray],
        chunk_size: Optional[int] = None,
        split: bool = False,
    ) -> int:
        """Fold validated edge slots into the nodes of every destination column.

        The single fold path behind every entry point: ``indices[i]``
        goes to node ``column[i]`` of each column (one column for a
        plain update batch, two for the mirrored halves of an edge
        batch), hashed **once** per index whatever the column count.
        The numpy path runs :meth:`_pass_rows` indices per kernel pass.
        ``split`` is set by the serial entry points only: a native fold
        may then spread its rounds over the usable cores, which the
        sharded workers already occupy.  Bumps neither the version nor
        the update counter; returns the updates folded.
        """
        width = len(dst_columns)
        count = width * int(indices.size)
        if self._kernels is not None:
            with span("ingest.fold"):
                self._fold_native(indices, dst_columns, split)
            return count
        chunk = self._pass_rows(indices.size, width, chunk_size)
        for start in range(0, indices.size, chunk):
            block = indices[start : start + chunk]
            with span("ingest.hash"):
                depths, checksums = hash_depths_checksums(
                    block, self._mixed_membership, self._mixed_checksum, self.num_rows,
                    reuse_scratch=True,
                )
            dsts = np.concatenate([column[start : start + chunk] for column in dst_columns])
            edge_rows = np.tile(np.arange(block.size), width)
            self._fold_chunk(dsts, edge_rows, block, depths, checksums)
        return count

    def apply_updates(
        self,
        dsts: np.ndarray,
        indices: np.ndarray,
        chunk_size: Optional[int] = None,
    ) -> None:
        """Fold a mixed multi-node batch of edge-slot updates into the pool.

        ``dsts[i]`` is the node whose bundle receives edge-slot
        ``indices[i]``.  The whole batch -- regardless of how many
        distinct nodes it touches -- goes through the shared fold path
        (:meth:`_fold`).
        """
        dsts = np.asarray(dsts)
        if dsts.shape != np.shape(indices) or dsts.ndim != 1:
            raise ValueError("dsts and indices must be matching one-dimensional arrays")
        idx = validate_indices(indices, self.encoder.vector_length)
        if idx is None:
            return
        self._check_destinations(dsts)
        self._version += 1
        self._updates_applied += self._fold(idx, (dsts,), chunk_size, split=True)

    def apply_edges(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        indices: np.ndarray,
        chunk_size: Optional[int] = None,
    ) -> None:
        """Fold both directions of a canonical edge batch into the pool.

        ``indices[i]`` is the edge slot of the canonical edge
        ``(lo[i], hi[i])``; both endpoints' bundles receive it.  The
        hash matrices depend only on the index, not the destination, so
        each index is hashed **once** and the mirrored halves read the
        same rows -- half the hash cost of pushing the duplicated
        column through :meth:`apply_updates`.  ``chunk_size`` counts
        edges per kernel pass.
        """
        if not (np.shape(indices) == np.shape(lo) == np.shape(hi)) or np.ndim(indices) != 1:
            raise ValueError("lo, hi and indices must be matching one-dimensional arrays")
        idx = validate_indices(indices, self.encoder.vector_length)
        if idx is None:
            return
        lo, hi = np.asarray(lo), np.asarray(hi)
        self._check_destinations(lo)
        self._check_destinations(hi)
        self._version += 1
        self._updates_applied += self._fold(idx, (lo, hi), chunk_size, split=True)

    def apply_node_batch(self, node: int, neighbors) -> None:
        """Fold a batch of edges ``{node, w}`` into one node's bundle.

        The unbuffered per-update path folds each endpoint's single
        update through here.  Writes touch only ``node``'s buckets.
        """
        indices = self.encoder.encode_batch(node, neighbors)
        if indices.size == 0:
            return
        self._version += 1
        self._updates_applied += self._fold(
            indices, (np.full(indices.size, int(node), dtype=np.int64),), split=True
        )

    def _check_shard(self, dsts: np.ndarray, node_lo: int, node_hi: int) -> None:
        """Reject a shard range outside the pool or a destination outside it.

        One scan covers both destination guards: a node inside the
        shard range is inside the pool, since the range itself was
        checked.
        """
        if not 0 <= node_lo <= node_hi <= self.num_nodes:
            raise ValueError(
                f"shard range [{node_lo}, {node_hi}) outside [0, {self.num_nodes})"
            )
        if ((dsts < node_lo) | (dsts >= node_hi)).any():
            raise ValueError(
                f"destination node outside shard range [{node_lo}, {node_hi})"
            )

    def fold_shard(
        self,
        dsts: np.ndarray,
        indices: np.ndarray,
        node_lo: int,
        node_hi: int,
        chunk_size: Optional[int] = None,
        *,
        split: bool = False,
    ) -> int:
        """Fold one shard's mixed-node update group into its pool slab.

        The sharded-ingest worker entry point: ``dsts`` must lie inside
        the shard's node range ``[node_lo, node_hi)``, whose buckets no
        other shard touches, so concurrent ``fold_shard`` calls for
        *different* shards need no locks -- their scatter targets are
        disjoint by construction (and the native kernels release the
        GIL, so thread-backend shards overlap fully).  A worker's fold
        never splits its rounds across cores: the workers already
        occupy them.  Only the serial :meth:`fold_page_batch` passes
        ``split=True``.

        Deliberately does **not** bump the pool version or the update
        counter -- shared counters would race across workers, and worker
        processes mutate their own copies anyway.  The ingest
        coordinator calls :meth:`mark_external_updates` once per batch
        after the barrier.  Returns the number of updates folded.
        """
        dsts = np.asarray(dsts)
        if dsts.shape != np.shape(indices) or dsts.ndim != 1:
            raise ValueError("dsts and indices must be matching one-dimensional arrays")
        idx = validate_indices(indices, self.encoder.vector_length)
        if idx is None:
            return 0
        self._check_shard(dsts, node_lo, node_hi)
        return self._fold(idx, (dsts,), chunk_size, split=split)

    def fold_shard_hashed(
        self,
        dsts: np.ndarray,
        edge_rows: np.ndarray,
        indices: np.ndarray,
        depths: np.ndarray,
        checksums: np.ndarray,
        node_lo: int,
        node_hi: int,
        chunk_size: Optional[int] = None,
    ) -> int:
        """:meth:`fold_shard` with the hash phase hoisted out.

        The hash matrices depend only on the edge slot, not the
        destination, so a mirrored batch's two copies of every edge
        share one row of ``depths`` / ``checksums``.  The ingest
        coordinator hashes the *unique* ``indices`` once and shard
        workers read their rows through ``edge_rows[i]`` (the position
        of update ``i``'s edge in ``indices``) -- half the hash cost of
        :meth:`fold_shard`, which is what the thread backend uses where
        the matrices can be shared by reference.  Same shard-ownership
        contract and (deliberate) lack of version/counter updates as
        :meth:`fold_shard`; ``indices`` must already be validated.
        """
        dsts = np.asarray(dsts)
        if dsts.shape != np.shape(edge_rows) or dsts.ndim != 1:
            raise ValueError("dsts and edge_rows must be matching one-dimensional arrays")
        if dsts.size == 0:
            return 0
        self._check_shard(dsts, node_lo, node_hi)
        if self._kernels is not None:
            # The native fold hashes in-kernel for less than the cost of
            # gathering the precomputed matrices, and hashing is
            # deterministic, so re-deriving depths/checksums from the
            # indices keeps the buckets bit-identical.
            return self._fold(np.asarray(indices)[edge_rows], (dsts,))
        chunk = self._pass_rows(dsts.size, 1, chunk_size)
        for start in range(0, dsts.size, chunk):
            self._fold_chunk(
                dsts[start : start + chunk],
                edge_rows[start : start + chunk],
                indices,
                depths,
                checksums,
            )
        return int(dsts.size)

    def fold_page_batch(
        self,
        node_lo: int,
        node_hi: int,
        dsts: np.ndarray,
        indices: np.ndarray,
        chunk_size: Optional[int] = None,
    ) -> int:
        """Serial entry point for one page's mixed-node update column.

        What the engine calls when the buffering layer emits a
        :class:`~repro.buffering.base.PageBatch`: folds the column
        through :meth:`fold_shard` (whose node-range contract the page
        bounds satisfy) and then publishes the effects -- version bump
        and update counter -- exactly like a direct fold would.  The
        sharded parallel path keeps calling :meth:`fold_shard` raw and
        publishing once per batch barrier instead.  Being serial, it may
        split a large native fold across the cores.
        """
        count = self.fold_shard(
            dsts, indices, node_lo, node_hi, chunk_size=chunk_size, split=True
        )
        self.mark_external_updates(count)
        return count

    def mark_external_updates(self, count: int) -> None:
        """Record updates folded outside :meth:`apply_updates`'s accounting.

        Invalidate the slab cache (version bump) and advance the update
        counter after a sharded parallel ingest, whose workers write the
        tensors directly (possibly from other processes) without
        touching this object's Python state.
        """
        self._version += 1
        self._updates_applied += int(count)

    # ------------------------------------------------------------------
    # merging (the distributed plane)
    # ------------------------------------------------------------------
    def _check_mergeable(self, other: "NodeTensorPool") -> None:
        """Reject pools whose XOR would not be the sketch of a stream union.

        Linearity only holds for sketches built under identical hash
        functions and geometry, and the packed/wide layouts are not
        byte-compatible, so every one of those parameters must match.
        Raised *before* any bucket is touched -- a failed merge leaves
        both pools exactly as they were.
        """
        if other is self:
            raise IncompatibleSketchError(
                "merging a pool into itself would zero it (XOR is self-inverse)"
            )
        if (
            self.num_nodes != other.num_nodes
            or self.num_rounds != other.num_rounds
            or self.num_rows != other.num_rows
            or self.num_columns != other.num_columns
        ):
            raise IncompatibleSketchError(
                f"pool geometry mismatch: {self!r} cannot merge {other!r}"
            )
        if self.graph_seed != other.graph_seed:
            raise IncompatibleSketchError(
                f"pool seeds differ ({self.graph_seed} vs {other.graph_seed}); "
                "XOR of sketches under different hash functions is meaningless"
            )
        if self._packed != other._packed:
            raise IncompatibleSketchError(
                "packed and wide pools are not byte-compatible; merge like with like"
            )

    def merge_from(self, other: "NodeTensorPool") -> None:
        """XOR another pool's buckets into this one (``self ^= other``).

        Sketches are linear: the XOR of two pools built from disjoint
        update sub-streams is bit-identical to the pool of the
        concatenated stream, which is what lets independent ingestors
        each fold a slice of a heavy stream and combine afterwards.
        ``other`` may be any pool flavour with matching geometry/seed
        (a paged source is read one round slab at a time); it is not
        modified.  Update accounting is summed and the slab cache is
        invalidated, exactly as if the other pool's stream had been
        folded here.
        """
        self._check_mergeable(other)
        for round_index in range(self.num_rounds):
            if self._packed:
                self._buckets[round_index] ^= other._round_view("packed", round_index)
            else:
                self._alpha[round_index] ^= other._round_view("alpha", round_index)
                self._gamma[round_index] ^= other._round_view("gamma", round_index)
        self._version += 1
        self._updates_applied += other._updates_applied

    def _check_destinations(self, dsts: np.ndarray) -> None:
        """Reject out-of-range destinations before they index the pool.

        A negative destination would not raise: it wraps around the flat
        tensor and silently XOR-corrupts another node's buckets.
        """
        if ((dsts < 0) | (dsts >= self.num_nodes)).any():
            raise ValueError(f"destination node outside [0, {self.num_nodes})")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def is_paged(self) -> bool:
        """Whether the pool's tensors live in out-of-core pages."""
        return False

    def _round_view(self, key: str, round_index: int) -> np.ndarray:
        """One round's ``(num_nodes, cols, rows)`` slab for a bucket tensor.

        ``key`` selects the backing tensor (``"packed"``, ``"alpha"``,
        or ``"gamma"``).  Every query-side reduction reaches bucket
        state through this accessor, which is what lets the paged pool
        substitute slabs assembled from node-group pages without
        touching the query algorithms.
        """
        if key == "packed":
            return self._buckets[round_index]
        if key == "alpha":
            return self._alpha[round_index]
        return self._gamma[round_index]

    def _node_round_arrays(self, node: int, round_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """One node's ``(cols, rows)`` alpha/gamma arrays for a round."""
        if self._packed:
            packed = self._round_view("packed", round_index)[node]
            return packed >> _SHIFT32, packed & _LOW32
        return (
            self._round_view("alpha", round_index)[node],
            self._round_view("gamma", round_index)[node].astype(np.uint64),
        )

    def query_round(self, node: int, round_index: int) -> SampleResult:
        """Query one node's round-``round_index`` sketch."""
        self._check_node(node)
        alpha, gamma = self._node_round_arrays(node, round_index)
        base = round_index * self.num_columns
        return query_bucket_arrays(
            alpha.T,
            gamma.T,
            self.encoder.vector_length,
            self._checksum_seeds[base : base + self.num_columns],
        )

    def query_merged(self, members: Sequence[int], round_index: int) -> SampleResult:
        """Query the XOR of several nodes' round-``round_index`` sketches.

        The per-component Boruvka cut sampler: one fancy gather over the
        round slab plus an XOR reduction replaces per-member sketch
        copies and merges.
        """
        if len(members) == 0:
            raise ValueError("query_merged requires at least one member node")
        member_array = np.asarray(members, dtype=np.int64)
        self._check_destinations(member_array)
        if member_array.size == 1:
            return self.query_round(int(member_array[0]), round_index)
        if self._packed:
            packed = np.bitwise_xor.reduce(
                self._round_view("packed", round_index)[member_array], axis=0
            )
            alpha, gamma = packed >> _SHIFT32, packed & _LOW32
        else:
            alpha = np.bitwise_xor.reduce(
                self._round_view("alpha", round_index)[member_array], axis=0
            )
            gamma = np.bitwise_xor.reduce(
                self._round_view("gamma", round_index)[member_array], axis=0
            )
        base = round_index * self.num_columns
        return query_bucket_arrays(
            alpha.T,
            gamma.T,
            self.encoder.vector_length,
            self._checksum_seeds[base : base + self.num_columns],
        )

    def query_components(
        self,
        labels: np.ndarray,
        round_index: int,
        node_mask: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cut-sample **every** component of a Boruvka round in one pass.

        ``labels[node]`` is the node's component label; nodes sharing a
        label form one component.  Instead of one
        :meth:`query_merged` call per component, the whole round is a
        segmented XOR-reduce: sort node rows by component label (int16
        radix sort when the labels fit), reduce label segments over the
        round slab, and decode all merged sketches with the batched
        bucket decoder.  ``node_mask`` restricts the query to the marked
        nodes (the Boruvka driver masks out settled components).

        Columns are decoded progressively: column 0 is reduced and
        decoded for every component, and only the components it fails
        to resolve pull their remaining columns (in one batched pass) --
        most components resolve immediately, so the common case touches
        one ``(M, num_rows)`` stripe of the slab per round.

        Returns ``(roots, statuses, indices)``: the distinct labels in
        ascending order, each component's
        :data:`~repro.sketch.sketch_base.SAMPLE_ZERO` /
        ``SAMPLE_GOOD`` / ``SAMPLE_FAIL`` code, and its sampled edge
        slot (-1 unless GOOD).  Results are bit-identical to calling
        :meth:`query_merged` per component -- also when a native
        provider's ``sample_components`` fuses the three steps above
        into one call (``query.sample``).
        """
        labels = np.asarray(labels)
        if labels.shape != (self.num_nodes,):
            raise ValueError("labels must hold one component label per node")
        if not 0 <= round_index < self.num_rounds:
            raise ValueError(f"round {round_index} outside [0, {self.num_rounds})")
        mask = None
        if node_mask is not None:
            mask = np.ascontiguousarray(node_mask, dtype=bool)
            if mask.shape != (self.num_nodes,):
                raise ValueError("node_mask must hold one flag per node")
        base = round_index * self.num_columns
        sample = getattr(self._kernels, "sample_components", None)
        # The fused kernel counting-sorts into a node-sized table, and
        # labels are caller-supplied: any outside [0, num_nodes) take
        # the composed path, whose comparison sort accepts all values.
        if sample is not None and 0 <= int(labels.min()) and int(labels.max()) < self.num_nodes:
            keys = ("packed",) if self._packed else ("alpha", "gamma")
            slabs = tuple(self._round_view(key, round_index) for key in keys)
            seeds = self._mixed_checksum[base : base + self.num_columns]
            with span("query.sample"):
                return sample(slabs, labels, mask, self.encoder.vector_length, seeds)
        excluded = np.empty(0, dtype=np.int64) if mask is None else np.flatnonzero(~mask)
        sorted_nodes, seg_starts, roots = group_nodes_by_label(labels, node_mask)
        if roots.size == 0:
            return roots, np.empty(0, dtype=np.uint8), roots.copy()

        count = roots.size
        statuses = np.full(count, SAMPLE_FAIL, dtype=np.uint8)
        indices = np.full(count, -1, dtype=np.int64)

        # Phase 1: reduce and decode column 0 alone for every component.
        # Most components resolve here, so the common case touches only
        # an (M, num_rows) stripe of the slab per round.
        with span("query.reduce"):
            alpha0, gamma0 = self._merged_round_cols(
                sorted_nodes, seg_starts, excluded, round_index, 0, 1
            )
        decode = (
            decode_column_batch if self._kernels is None else self._kernels.decode_column
        )
        with span("query.decode"):
            good, column0_zero, index = decode(
                alpha0.reshape(count, self.num_rows),
                gamma0.reshape(count, self.num_rows),
                self.encoder.vector_length,
                self._mixed_checksum[base],
            )
        statuses[good] = SAMPLE_GOOD
        indices[good] = index[good]

        unresolved = ~good
        if not unresolved.any():
            return roots, statuses, indices
        if self.num_columns == 1:
            statuses[unresolved & column0_zero] = SAMPLE_ZERO
            return roots, statuses, indices

        # Phase 2: the components column 0 could not resolve pull all
        # their remaining columns in one batched reduce + decode
        # (instead of per-column passes over the full node set, which
        # would make the final all-zero convergence query pay
        # ``num_columns`` whole-graph reductions).
        seg_sizes = np.diff(np.append(seg_starts, sorted_nodes.size))
        rest_nodes = sorted_nodes[np.repeat(unresolved, seg_sizes)]
        rest_sizes = seg_sizes[unresolved]
        rest_starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(rest_sizes)[:-1]]
        )
        rest_excluded = np.ones(self.num_nodes, dtype=bool)
        rest_excluded[rest_nodes] = False
        rest_excluded = np.flatnonzero(rest_excluded)
        with span("query.reduce"):
            rest_alpha, rest_gamma = self._merged_round_cols(
                rest_nodes, rest_starts, rest_excluded, round_index, 1, self.num_columns
            )
        rest_shape = (rest_sizes.size, self.num_columns - 1, self.num_rows)
        with span("query.decode"):
            rest_statuses, rest_indices = query_bucket_arrays_batch(
                rest_alpha.reshape(rest_shape),
                rest_gamma.reshape(rest_shape),
                self.encoder.vector_length,
                self._checksum_seeds[base + 1 : base + self.num_columns],
                kernels=self._kernels,
            )

        positions = np.flatnonzero(unresolved)
        rest_good = rest_statuses == SAMPLE_GOOD
        statuses[positions[rest_good]] = SAMPLE_GOOD
        indices[positions[rest_good]] = rest_indices[rest_good]
        # A component is ZERO only when column 0 *and* every later
        # column were empty; otherwise the default FAIL stands.
        statuses[
            positions[column0_zero[positions] & (rest_statuses == SAMPLE_ZERO)]
        ] = SAMPLE_ZERO
        return roots, statuses, indices

    def _merged_round_cols(
        self,
        sorted_nodes: np.ndarray,
        seg_starts: np.ndarray,
        excluded_nodes: np.ndarray,
        round_index: int,
        col_start: int,
        col_stop: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-segment merged ``(alpha, gamma)`` for a span of columns.

        Returns two ``(num_segments, (col_stop - col_start) * num_rows)``
        uint arrays.  In packed mode one segmented reduction over the
        packed tensor produces both; in wide mode alpha and gamma are
        reduced separately.
        """
        if self._packed:
            merged = self._segment_round_xor(
                "packed", sorted_nodes, seg_starts,
                excluded_nodes, round_index, col_start, col_stop,
            )
            return merged >> _SHIFT32, merged & _LOW32
        alpha = self._segment_round_xor(
            "alpha", sorted_nodes, seg_starts,
            excluded_nodes, round_index, col_start, col_stop,
        )
        gamma = self._segment_round_xor(
            "gamma", sorted_nodes, seg_starts,
            excluded_nodes, round_index, col_start, col_stop,
        )
        return alpha, gamma

    def _round_slab_total(self, key: str, round_index: int) -> np.ndarray:
        """Cached XOR of *all* nodes' buckets for one round.

        One contiguous whole-slab reduction, memoised until the next
        fold touches the pool; the complement trick below uses it to
        price giant-component reductions at (amortised) zero reads.
        """
        cached = self._slab_cache.get((round_index, key))
        if cached is not None and cached[0] == self._version:
            return cached[1]
        slab = self._round_view(key, round_index)
        if self._kernels is not None:
            # One single-segment fused reduce over every node's row.
            total = self._kernels.segment_xor(
                slab,
                np.arange(self.num_nodes, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                0,
                self.num_columns,
                self.num_rows,
            )[0].reshape(self.num_columns, self.num_rows)
        else:
            total = np.bitwise_xor.reduce(slab, axis=0)
        self._slab_cache[(round_index, key)] = (self._version, total)
        return total

    def _segment_round_xor(
        self,
        key: str,
        sorted_nodes: np.ndarray,
        seg_starts: np.ndarray,
        excluded_nodes: np.ndarray,
        round_index: int,
        col_start: int,
        col_stop: int,
    ) -> np.ndarray:
        """Per-segment XOR of the ``key`` round slab's column span.

        ``sorted_nodes`` is grouped into segments by ``seg_starts``;
        ``excluded_nodes`` are the slab rows outside the query entirely
        (settled components).  Small segments are gathered and folded
        with :func:`~repro.sketch.flat_node_sketch.segmented_xor`.  A
        segment holding most of the graph (the late-round giant
        component) is instead computed by complement: the cached
        whole-slab XOR total, minus (XOR) the other segments' sums and
        the excluded rows -- XOR's self-inverse turns one contiguous
        slab scan into the giant's sum without gathering its rows.
        """
        slab = self._round_view(key, round_index)
        total = sorted_nodes.size
        width = (col_stop - col_start) * self.num_rows
        seg_sizes = np.diff(np.append(seg_starts, total))
        largest = int(seg_sizes.argmax())
        largest_size = int(seg_sizes[largest])
        # Rough cost model in gathered-element units: skipping the
        # largest segment's gather+reduce saves ~2 passes over its rows;
        # the complement pays one contiguous pass over the full-width
        # slab (unless already cached this version) plus 2 passes over
        # the excluded rows.
        slab_cost = 0 if (round_index, key) in self._slab_cache and self._slab_cache[
            (round_index, key)
        ][0] == self._version else self.num_nodes * self.num_columns * self.num_rows // 2
        use_complement = largest_size > 1 and 2 * largest_size * width > (
            slab_cost + 2 * excluded_nodes.size * width
        )
        # The native segmented XOR fuses the gather with the reduce (one
        # cache-blocked pass per segment, no reordered copy of the slab
        # rows); XOR associativity keeps it bit-identical to the
        # gather + segmented_xor composition below.
        kernels = self._kernels
        if not use_complement:
            if kernels is not None:
                return kernels.segment_xor(
                    slab, sorted_nodes, seg_starts, col_start, col_stop, self.num_rows
                )
            gathered = slab[sorted_nodes, col_start:col_stop]
            return segmented_xor(gathered.reshape(total, width), seg_starts)

        lo = int(seg_starts[largest])
        hi = lo + largest_size
        other_nodes = np.concatenate([sorted_nodes[:lo], sorted_nodes[hi:]])
        other_starts = np.delete(seg_starts, largest)
        other_starts[largest:] -= largest_size
        if kernels is not None:
            other_sums = kernels.segment_xor(
                slab, other_nodes, other_starts, col_start, col_stop, self.num_rows
            )
        else:
            other_sums = segmented_xor(
                slab[other_nodes, col_start:col_stop].reshape(other_nodes.size, width),
                other_starts,
            )
        largest_sum = (
            self._round_slab_total(key, round_index)[col_start:col_stop]
            .reshape(width)
            .copy()
        )
        if other_sums.shape[0]:
            largest_sum ^= np.bitwise_xor.reduce(other_sums, axis=0)
        if excluded_nodes.size:
            if kernels is not None:
                # One single-segment fused reduce over the excluded rows.
                largest_sum ^= kernels.segment_xor(
                    slab, excluded_nodes, np.zeros(1, dtype=np.int64),
                    col_start, col_stop, self.num_rows,
                )[0]
            else:
                largest_sum ^= np.bitwise_xor.reduce(
                    slab[excluded_nodes, col_start:col_stop].reshape(
                        excluded_nodes.size, width
                    ),
                    axis=0,
                )
        merged = np.empty((seg_starts.size, width), dtype=slab.dtype)
        merged[:largest] = other_sums[:largest]
        merged[largest] = largest_sum
        merged[largest + 1 :] = other_sums[largest:]
        return merged

    # ------------------------------------------------------------------
    # shared-memory backing (the "processes" parallel backend)
    # ------------------------------------------------------------------
    @property
    def is_shared(self) -> bool:
        """Whether the bucket tensors live in shared-memory segments."""
        return bool(self._shm)

    def to_shared_memory(self) -> None:
        """Migrate the bucket tensors into ``multiprocessing.shared_memory``.

        Allocates one named segment per backing tensor, copies the
        current state in, and swaps the pool's arrays for views of the
        segments -- every other pool operation (folds, queries, per-node
        views) keeps working unchanged.  Worker processes then
        :meth:`attach_shared` by name and fold their shards in place; a
        fold by an attached worker is immediately visible here because
        both processes map the same pages.  Idempotent.  The creating
        pool owns the segments and unlinks them in
        :meth:`release_shared`.
        """
        if self.is_shared:
            return
        if self._packed:
            self._buckets, shm = _move_to_shm(self._buckets)
            self._shm = [shm]
        else:
            self._alpha, alpha_shm = _move_to_shm(self._alpha)
            self._gamma, gamma_shm = _move_to_shm(self._gamma)
            self._shm = [alpha_shm, gamma_shm]
        self._owns_shm = True

    def shared_meta(self) -> Dict:
        """Everything a worker process needs to attach to this pool.

        Geometry and seed parameters travel by value (seed matrices are
        re-derived, which is cheap and cached); tensor state travels by
        shared-memory segment name.
        """
        if not self.is_shared:
            raise ValueError("pool is not shared-memory backed; call to_shared_memory()")
        return {
            "num_nodes": self.num_nodes,
            "graph_seed": self.graph_seed,
            "delta": self.delta,
            "num_rounds": self.num_rounds,
            "packed": self._packed,
            "shm_names": [segment.name for segment in self._shm],
            # Workers fold with the same kernel family when they can;
            # bit-identity means a worker that cannot load a native
            # provider still produces the exact same buckets via numpy.
            "kernel_backend": "auto" if self._kernels is not None else "numpy",
        }

    @classmethod
    def attach_shared(cls, meta: Dict) -> "NodeTensorPool":
        """Build a pool over another process's shared-memory tensors.

        The attached pool is a full :class:`NodeTensorPool` (folds and
        queries both work); only the tensor storage is borrowed.  Update
        accounting and the slab cache are process-local, so attached
        workers are fold-only in practice and the owning process runs
        the queries.
        """
        from multiprocessing import shared_memory

        from repro.kernels import resolve_kernels

        pool = cls(
            meta["num_nodes"],
            EdgeEncoder(meta["num_nodes"]),
            graph_seed=meta["graph_seed"],
            delta=meta["delta"],
            num_rounds=meta["num_rounds"],
            force_wide=not meta["packed"],
            kernels=resolve_kernels(meta.get("kernel_backend", "numpy")),
            _allocate=False,
        )
        shape = (pool.num_rounds, pool.num_nodes, pool.num_columns, pool.num_rows)
        # Attaching also registers with the resource tracker on
        # Python < 3.13, but worker processes share the owner's tracker
        # (its cache is a set, so repeat registrations collapse) and the
        # owner's unlink unregisters the name once -- no extra
        # bookkeeping needed, and the tracker stays a backstop that
        # unlinks the segments if the owner dies without cleanup.
        segments = [
            shared_memory.SharedMemory(name=name) for name in meta["shm_names"]
        ]
        if pool._packed:
            pool._buckets = _shm_view(segments[0], shape, np.uint64)
        else:
            pool._alpha = _shm_view(segments[0], shape, np.uint64)
            pool._gamma = _shm_view(segments[1], shape, np.uint32)
        pool._shm = segments
        pool._owns_shm = False
        return pool

    def release_shared(self, copy_back: bool = True) -> None:
        """Detach from shared memory (unlinking it when this pool owns it).

        The owning pool copies the tensor state back to private arrays
        first, so the engine keeps working after release; an attached
        worker pool just drops its views.  Idempotent.
        ``copy_back=False`` skips the copy -- destruction uses it, where
        a full-pool allocation for an object about to die would only
        spike memory.
        """
        if not self.is_shared:
            return
        if self._owns_shm and copy_back:
            if self._packed:
                self._buckets = self._buckets.copy()
            else:
                self._alpha = self._alpha.copy()
                self._gamma = self._gamma.copy()
        else:
            self._buckets = self._alpha = self._gamma = None
        segments, owns = self._shm, self._owns_shm
        self._shm, self._owns_shm = [], False
        for segment in segments:
            try:
                segment.close()
            except BufferError:
                # A caller still holds a view (raw_tensors() etc.); the
                # mapping lives until that view dies, but the segment
                # can and must still be unlinked below.
                pass
            if owns:
                segment.unlink()

    def __del__(self) -> None:
        # A constructor that raised before the shared-memory bookkeeping
        # existed leaves nothing to release.
        if not self.__dict__.get("_shm"):
            return
        try:
            self.release_shared(copy_back=False)
        except OSError:
            # A segment someone else already unlinked.
            pass

    # ------------------------------------------------------------------
    # per-node views
    # ------------------------------------------------------------------
    def _node_bundle_arrays(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """One node's ``(rounds, cols, rows)`` uint64 alpha/gamma bundle."""
        if self._packed:
            packed = self._buckets[:, node]
            return packed >> _SHIFT32, packed & _LOW32
        return np.ascontiguousarray(self._alpha[:, node]), self._gamma[:, node].astype(
            np.uint64
        )

    def _write_node_bundle(self, node: int, alpha: np.ndarray, gamma: np.ndarray) -> None:
        """Overwrite one node's buckets with uint64 alpha/gamma tensors."""
        if self._packed:
            self._buckets[:, node] = (alpha << _SHIFT32) | gamma
        else:
            self._alpha[:, node] = alpha
            self._gamma[:, node] = gamma.astype(np.uint32)

    def node_sketch(self, node: int) -> FlatNodeSketch:
        """Materialise one node's bundle as a standalone FlatNodeSketch."""
        self._check_node(node)
        sketch = FlatNodeSketch(
            node,
            self.encoder,
            graph_seed=self.graph_seed,
            delta=self.delta,
            num_rounds=self.num_rounds,
            kernels=self._kernels,
        )
        sketch._alpha, sketch._gamma = self._node_bundle_arrays(node)
        return sketch

    def load_node_sketch(self, sketch: FlatNodeSketch) -> None:
        """Replace one node's pool buckets with a standalone sketch's state."""
        if (
            sketch.num_rounds != self.num_rounds
            or sketch.graph_seed != self.graph_seed
            or sketch.num_rows != self.num_rows
            or sketch.num_columns != self.num_columns
        ):
            raise ValueError("sketch geometry/seed does not match the pool")
        if not 0 <= sketch.node < self.num_nodes:
            raise ValueError(f"sketch node {sketch.node} outside [0, {self.num_nodes})")
        self._write_node_bundle(sketch.node, sketch._alpha, sketch._gamma)
        self._version += 1

    def node_is_empty(self, node: int) -> bool:
        self._check_node(node)
        alpha, gamma = self._node_bundle_arrays(node)
        return not alpha.any() and not gamma.any()

    def _check_node(self, node: int) -> None:
        """Reject node ids the flat tensors would silently wrap."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside [0, {self.num_nodes})")

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def updates_applied(self) -> int:
        """Coordinate updates folded into the pool so far."""
        return self._updates_applied

    def node_sketch_bytes(self) -> int:
        """Payload bytes of a single node's bundle (paper accounting)."""
        return self.num_rounds * self.num_rows * self.num_columns * BYTES_PER_CUBE_BUCKET

    def size_bytes(self) -> int:
        """Payload bytes of the whole pool."""
        return self.num_nodes * self.node_sketch_bytes()

    def raw_tensors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(alpha, gamma)`` round-major tensors.

        Shape ``(rounds, nodes, cols, rows)`` each.  In packed mode both
        are unpacked copies of the single bucket tensor; in wide mode
        they are views of the backing tensors (alpha uint64, gamma
        uint32) -- except when those live in shared memory, where copies
        are returned so a caller-held array can never pin the segment
        mapping open past :meth:`release_shared`.
        """
        if self._packed:
            alpha = self._buckets >> _SHIFT32
            gamma = self._buckets & _LOW32
        elif self.is_shared:
            alpha = self._alpha.copy()
            gamma = self._gamma.copy()
        else:
            alpha = self._alpha.view()
            gamma = self._gamma.view()
        alpha.flags.writeable = False
        gamma.flags.writeable = False
        return alpha, gamma

    def __repr__(self) -> str:
        return (
            f"NodeTensorPool(num_nodes={self.num_nodes}, rounds={self.num_rounds}, "
            f"rows={self.num_rows}, cols={self.num_columns}, "
            f"packed={self._packed}, bytes={self.size_bytes()})"
        )
