"""A whole graph's sketch state as contiguous round-major tensors.

:class:`NodeTensorPool` is the columnar engine's in-RAM backing store:
instead of one Python object (and two arrays) per node, *every* node's
sketch bundle lives in whole-graph tensors laid out **round-major** --
one Boruvka round's entire graph state is a contiguous
``(num_nodes, num_columns, num_rows)`` slab, which is what the query
engine scans.  A whole-round cut query gathers and reduces inside one
round slab instead of striding across every node's full bundle.

The pool holds one such tensor per bucket plane of its geometry
(:attr:`~repro.sketch.geometry.SketchGeometry.planes`): up to 65 536
nodes a single plane of packed ``alpha << 32 | gamma`` words, so folds,
snapshot merges and reductions run as one XOR on one tensor, and above that a
uint64 alpha plane plus a uint32 gamma plane.  Every pool operation is
an XOR per plane; only :meth:`SketchGeometry.pack
<repro.sketch.geometry.SketchGeometry.pack>` and ``unpack`` know what
the planes hold.

Bucket ``(round, node, row, col)`` sits at flat offset
``((round * num_nodes + node) * cols + col) * rows + row``; the numpy
provider's :func:`~repro.sketch.flat_node_sketch.fold_hashed` kernel
emits these offsets directly (via its ``dst_stride`` / ``slot_offsets``
segment mapping), and the compiled fold writes the same buckets, so a
*mixed multi-node* batch of updates folds with no Python loop over
nodes, rounds, or columns, and no dependence on how the destinations
spread.

Every fold entry point (:meth:`~NodeTensorPool.apply_updates`,
``apply_edges``, ``apply_node_batch``, ``fold_shard``,
``fold_shard_hashed``, ``fold_page_batch``) validates its arguments and
hands them to one private path, :meth:`NodeTensorPool._fold`: one call
of the pool's kernel provider (:mod:`repro.kernels`), which a serial
entry point lets split a large batch by Boruvka round across the usable
cores.  The paged pool overrides that path only: it folds page by page.

This is what turns ``GraphZeppelin.ingest_batch`` into a columnar
pipeline (:meth:`NodeTensorPool.apply_edge_rows`): canonicalise the edge
array, encode the edge slots, and fold the ``(lo, hi, index)`` columns
-- the provider's ``ingest_edges``.

The pool is also the query engine's substrate: one Boruvka round's cut
samples for *every* active component come out of a single segmented
XOR-reduce over the round slab (:meth:`NodeTensorPool.query_components`)
instead of deserialising and merging per-node sketch objects.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.edge_encoding import EdgeEncoder
from repro.exceptions import ConfigurationError
from repro.kernels.numpy_kernels import NUMPY_KERNELS
from repro.observability.tracing import span
from repro.sketch.flat_node_sketch import (
    FlatNodeSketch,
    decode_column_batch,
    flat_seed_matrices,
    group_nodes_by_label,
    query_bucket_arrays_batch,
    segmented_xor,
    validate_indices,
)
from repro.sketch.geometry import SketchGeometry
from repro.sketch.sketch_base import SAMPLE_FAIL, SAMPLE_GOOD, SAMPLE_ZERO

#: Shards per worker of the automatic shard planner: enough that a
#: worker which drew a light node range picks up another, few enough
#: that per-shard fixed costs stay amortised.
SHARDS_PER_WORKER = 4
#: Most nodes one node group spans -- an out-of-core page or an in-RAM
#: gutter group.  Bounds the update column a single emitted batch folds.
MAX_PAGE_NODES = 1056


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

    ``num_units`` is what shard boundaries can fall between (the pool's
    nodes) and caps the count.
    """
    return max(1, min(int(num_units), SHARDS_PER_WORKER * max(int(num_workers), 1)))


class RoundMemo:
    """Each round's last fused sample on an in-RAM pool, kept for the next query.

    A component's round sample is a function of its member set and those
    members' round sketches only, so a later query re-samples just the
    components a write changed and copies the rest from here
    (see the native ``repro_boruvka``).  Row ``r`` is round ``r``:
    ``labels[r, node]`` is the label the node was read under (-1:
    inactive), ``statuses[r, root]`` / ``indices[r, root]`` the sample of
    the component rooted there, and ``read_versions[r]`` the pool version
    of that read; the pool's per-node ``_stamps`` say what changed since.
    17 bytes per node per round.
    """

    def __init__(self, num_rounds: int, num_nodes: int) -> None:
        self.labels = np.full((num_rounds, num_nodes), -1, dtype=np.int64)
        self.statuses = np.zeros((num_rounds, num_nodes), dtype=np.uint8)
        self.indices = np.full((num_rounds, num_nodes), -1, dtype=np.int64)
        self.read_versions = np.zeros(num_rounds, dtype=np.int64)


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
        collection of :class:`FlatNodeSketch` objects (or of per-round
        :class:`~repro.sketch.cubesketch.CubeSketch` lists) fed the same
        updates.
    geometry:
        Rounds, columns, rows and bucket mode of every node's bundle;
        defaults to :meth:`SketchGeometry.for_graph` at ``num_nodes``.
        Wide mode only self-selects above 65536 nodes, so the
        equivalence tests pass a wide geometry to exercise it at
        test-sized graphs.
    kernels:
        The kernel provider (see :mod:`repro.kernels`) whose folds,
        edge-row ingest and bound query this pool runs: the numpy
        provider unless given the compiled one.  Every provider is
        bit-identical to numpy under the same seed, so pool state and
        query results do not depend on this choice.
    """

    def __init__(
        self,
        num_nodes: int,
        encoder: EdgeEncoder,
        graph_seed: int = 0,
        geometry: Optional[SketchGeometry] = None,
        kernels=NUMPY_KERNELS,
        _allocate: bool = True,
    ) -> None:
        self.geometry = geometry or SketchGeometry.for_graph(num_nodes)
        if self.geometry.num_nodes != num_nodes:
            raise ConfigurationError(f"{num_nodes}-node pool given {self.geometry}")
        self.num_nodes = self.geometry.num_nodes
        self.encoder = encoder
        self.graph_seed = int(graph_seed)
        self.num_rounds = self.geometry.rounds
        self.num_rows = self.geometry.rows
        self.num_columns = self.geometry.columns
        self.num_slots = self.num_rounds * self.num_columns

        # Round-major: plane[round] is one contiguous slab holding every
        # node's buckets for that round (see the module docstring).
        # ``_allocate=False`` (the paged pool) skips the whole-graph zero
        # tensors -- its pages live in frames and on the device instead.
        shape = (self.num_rounds, self.num_nodes, self.num_columns, self.num_rows)
        planes = self.geometry.planes if _allocate else ()
        self._planes = tuple(np.zeros(shape, dtype=dtype) for _, dtype in planes)
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
        ) = flat_seed_matrices(self.graph_seed, self.geometry)
        self._updates_applied = 0
        self._kernels = kernels
        # Whole-slab XOR totals per (round, plane) for the query
        # engine's complement trick; invalidated by any fold.
        self._version = 0
        self._slab_cache: Dict[Tuple[int, int], Tuple[int, np.ndarray]] = {}
        # Per-node version of the last write (see _stamp) and every
        # round's last fused sample, kept where the provider's bound
        # query reads them: never on the paged pool.
        memoised = _allocate and kernels.memoises_rounds
        self._stamps = np.zeros(self.num_nodes, dtype=np.int64) if memoised else None
        self._round_memos: Optional[RoundMemo] = None

    # ------------------------------------------------------------------
    # versions and stamps
    # ------------------------------------------------------------------
    def _stamp(self, nodes=None) -> None:
        """Mark ``nodes`` (``None``: every node) as written by the next
        :meth:`_bump_version`.

        Called before the write, so a write that raises part way still
        leaves its nodes stamped.  A round memo re-samples a component
        whose member carries a stamp newer than the memo's read; a pool
        without memos keeps no stamps.
        """
        if self._stamps is None:
            return
        if nodes is None:
            self._stamps.fill(self._version + 1)
        else:
            self._stamps[nodes] = self._version + 1

    def _bump_version(self) -> None:
        """Publish the writes stamped since the last bump.

        The one place the version moves: the slab cache, the paged
        pool's slab assembly and the round memos all key on it.
        """
        self._version += 1

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _fold(
        self,
        indices: np.ndarray,
        dst_columns: Sequence[np.ndarray],
        split: bool = False,
    ) -> int:
        """Fold validated edge slots into the nodes of every destination column.

        The single fold path behind every entry point: ``indices[i]``
        goes to node ``column[i]`` of each column (one column for a
        plain update batch, two for the mirrored halves of an edge
        batch), hashed **once** per index whatever the column count, by
        the provider's ``fold_pool`` / ``fold_pool_edges``.  ``split``
        is set by the serial entry points only, which the sharded
        workers are not: the provider may then cut a large fold into
        round ranges folded on every usable core
        (:mod:`repro.sketch.round_split`).  Stamps the destinations but
        bumps neither the version nor the update counter; returns the
        updates folded.
        """
        for column in dst_columns:
            self._stamp(column)
        if len(dst_columns) == 2:
            self._kernels.fold_pool_edges(self, indices, *dst_columns, split=split)
        else:
            self._kernels.fold_pool(self, indices, dst_columns[0], split=split)
        return len(dst_columns) * int(indices.size)

    def _fold_serial(self, indices: np.ndarray, dst_columns: Sequence[np.ndarray]) -> None:
        """A serial entry point's fold, counted and published: the version
        moves even when the fold raises part way, like its stamps."""
        try:
            self._updates_applied += self._fold(indices, dst_columns, split=True)
        finally:
            self._bump_version()

    def apply_updates(self, dsts: np.ndarray, indices: np.ndarray) -> None:
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
        self._fold_serial(idx, (dsts,))

    def apply_edges(self, lo: np.ndarray, hi: np.ndarray, indices: np.ndarray) -> None:
        """Fold both directions of a canonical edge batch into the pool.

        ``indices[i]`` is the edge slot of the canonical edge
        ``(lo[i], hi[i])``; both endpoints' bundles receive it.  The
        hash matrices depend only on the index, not the destination, so
        each index is hashed **once** and the mirrored halves read the
        same rows -- half the hash cost of pushing the duplicated
        column through :meth:`apply_updates`.
        """
        if not (np.shape(indices) == np.shape(lo) == np.shape(hi)) or np.ndim(indices) != 1:
            raise ValueError("lo, hi and indices must be matching one-dimensional arrays")
        idx = validate_indices(indices, self.encoder.vector_length)
        if idx is None:
            return
        lo, hi = np.asarray(lo), np.asarray(hi)
        self._check_destinations(lo)
        self._check_destinations(hi)
        self._fold_serial(idx, (lo, hi))

    def apply_edge_rows(self, endpoints: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`apply_edges` of ``(N, 2)`` int64 rows, all checked first, by
        the provider's ``ingest_edges`` (compiled: two calls); returns
        ``(lo, hi)``, read before the next batch."""
        return self._kernels.ingest_edges(self, endpoints)

    def apply_node_batch(self, node: int, neighbors) -> None:
        """Fold a batch of edges ``{node, w}`` into one node's bundle.

        The unbuffered per-update path folds each endpoint's single
        update through here.  Writes touch only ``node``'s buckets.
        """
        indices = self.encoder.encode_batch(node, neighbors)
        if indices.size == 0:
            return
        self._fold_serial(indices, (np.full(indices.size, int(node), dtype=np.int64),))

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
        *,
        split: bool = False,
    ) -> int:
        """Fold one shard's mixed-node update group into its pool slab.

        The sharded-ingest worker entry point: ``dsts`` must lie inside
        the shard's node range ``[node_lo, node_hi)``, whose buckets no
        other shard touches, so concurrent ``fold_shard`` calls for
        *different* shards need no locks -- their scatter targets are
        disjoint by construction (and the native kernels release the
        GIL, so shard threads overlap fully).  A worker's fold never
        splits its rounds across cores: the workers already occupy
        them.  Only the serial :meth:`fold_page_batch` passes
        ``split=True``.

        Deliberately does **not** bump the pool version or the update
        counter -- shared counters would race across worker threads
        (the destinations are stamped; shards never share a node).
        The ingest coordinator calls :meth:`mark_external_updates` once
        per batch after the barrier.  Returns the number of updates
        folded.
        """
        dsts = np.asarray(dsts)
        if dsts.shape != np.shape(indices) or dsts.ndim != 1:
            raise ValueError("dsts and indices must be matching one-dimensional arrays")
        idx = validate_indices(indices, self.encoder.vector_length)
        if idx is None:
            return 0
        self._check_shard(dsts, node_lo, node_hi)
        return self._fold(idx, (dsts,), split=split)

    def fold_shard_hashed(
        self,
        dsts: np.ndarray,
        edge_rows: np.ndarray,
        indices: np.ndarray,
        depths: np.ndarray,
        checksums: np.ndarray,
        node_lo: int,
        node_hi: int,
    ) -> int:
        """:meth:`fold_shard` with the hash phase hoisted out.

        The hash matrices depend only on the edge slot, not the
        destination, so a mirrored batch's two copies of every edge
        share one row of ``depths`` / ``checksums``.  The ingest
        coordinator hashes the *unique* ``indices`` once and shard
        workers read their rows through ``edge_rows[i]`` (the position
        of update ``i``'s edge in ``indices``) -- half the hash cost of
        :meth:`fold_shard`, which is what the shard workers of a
        provider that ``hoists_hash`` use: threads share the matrices by
        reference.  Same shard-ownership contract and (deliberate) lack
        of version/counter updates as :meth:`fold_shard`; ``indices``
        must already be validated.
        """
        dsts = np.asarray(dsts)
        if dsts.shape != np.shape(edge_rows) or dsts.ndim != 1:
            raise ValueError("dsts and edge_rows must be matching one-dimensional arrays")
        if dsts.size == 0:
            return 0
        self._check_shard(dsts, node_lo, node_hi)
        if self._kernels.hoists_hash and not self.is_paged:
            self._kernels.fold_hashed(self, dsts, edge_rows, indices, depths, checksums)
            return int(dsts.size)
        # A compiled fold hashes in-kernel for less than the cost of
        # gathering the precomputed matrices, and a page fold hashes its
        # own updates; hashing is deterministic, so re-deriving
        # depths/checksums from the indices keeps the buckets bit-identical.
        return self._fold(np.asarray(indices)[edge_rows], (dsts,))

    def fold_page_batch(
        self, node_lo: int, node_hi: int, dsts: np.ndarray, indices: np.ndarray
    ) -> int:
        """Serial entry point for one page's mixed-node update column.

        What a paged fold of an emission calls per
        :class:`~repro.buffering.base.PageBatch`: folds the column
        through :meth:`fold_shard` (whose node-range contract the page
        bounds satisfy) and then publishes the effects -- version bump
        and update counter -- exactly like a direct fold would.  The
        sharded parallel path keeps calling :meth:`fold_shard` raw and
        publishing once per batch barrier instead.  Being serial, it may
        split a large fold across the cores.  Like
        :meth:`_fold_serial`, the version moves even when the fold raises
        part way.
        """
        count = 0
        try:
            count = self.fold_shard(dsts, indices, node_lo, node_hi, split=True)
        finally:
            self.mark_external_updates(count)
        return count

    def fold_page_batches(self, emission) -> None:
        """Fold a :class:`~repro.sketch.paged_pool.PageEmission` as one
        mixed column (an in-RAM fold cannot fail part way)."""
        self.apply_updates(emission.dsts, emission.indices)
        emission.applied = len(emission)

    def mark_external_updates(self, count: int) -> None:
        """Record updates folded outside :meth:`apply_updates`'s accounting.

        Invalidate the slab cache (version bump) and advance the update
        counter after a sharded parallel ingest, whose worker threads
        write the tensors directly without touching this object's
        Python state (beyond the stamps of the nodes they fold into).
        """
        self._bump_version()
        self._updates_applied += int(count)

    def _check_destinations(self, dsts: np.ndarray) -> None:
        """Reject out-of-range destinations before they index the pool.

        A negative destination would not raise: it wraps around the flat
        tensor and silently XOR-corrupts another node's buckets.
        """
        if dsts.min() < 0 or dsts.max() >= self.num_nodes:
            raise ValueError(f"destination node outside [0, {self.num_nodes})")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def is_paged(self) -> bool:
        """Whether the pool's tensors live in out-of-core pages."""
        return False

    def _round_view(self, plane: int, round_index: int) -> np.ndarray:
        """One round's ``(num_nodes, cols, rows)`` slab of bucket plane ``plane``.

        Every whole-round read -- queries, snapshots, the
        per-node views -- reaches bucket state through this accessor,
        which is what lets the paged pool substitute slabs assembled
        from node-group pages without touching any of them.
        """
        return self._planes[plane][round_index]

    def _round_views(self, round_index: int) -> Tuple[np.ndarray, ...]:
        """Every plane's :meth:`_round_view` of one round."""
        return tuple(
            self._round_view(plane, round_index) for plane in range(len(self.geometry.planes))
        )

    def query_components(
        self,
        labels: np.ndarray,
        round_index: int,
        node_mask: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cut-sample **every** component of a Boruvka round in one pass.

        ``labels[node]`` is the node's component label; nodes sharing a
        label form one component.  Instead of one XOR-merged sketch
        query per component, the whole round is a segmented XOR-reduce: sort node rows by component label (int16
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
        slot (-1 unless GOOD).  Results are bit-identical to
        :meth:`CubeSketch.query <repro.sketch.cubesketch.CubeSketch.query>`
        on each component's XOR-merged round sketch, and to the samples of
        the compiled provider's bound query (``bind_query``), which fuses
        the three steps above into one call (``query.sample``) and copies
        the components nothing changed from the pool's :class:`RoundMemo`
        (registry counter ``query.reused_components``).  The numpy
        provider's bound query samples each round with this method.
        """
        labels = np.asarray(labels)
        if labels.shape != (self.num_nodes,):
            raise ValueError("labels must hold one component label per node")
        if labels.dtype.kind not in "biu":
            raise ValueError(f"component labels must be integers, not {labels.dtype}")
        if not 0 <= round_index < self.num_rounds:
            raise ValueError(f"round {round_index} outside [0, {self.num_rounds})")
        mask = None
        if node_mask is not None:
            mask = np.ascontiguousarray(node_mask, dtype=bool)
            if mask.shape != (self.num_nodes,):
                raise ValueError("node_mask must hold one flag per node")
        base = round_index * self.num_columns
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
        with span("query.decode"):
            good, column0_zero, index = decode_column_batch(
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

    def _bind_round_memos(self) -> RoundMemo:
        """Every round's memo, made when a memoising provider's query is
        first bound to the pool (only an in-RAM pool's is)."""
        if self._round_memos is None:
            self._round_memos = RoundMemo(self.num_rounds, self.num_nodes)
        return self._round_memos

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
        uint64 arrays, from one segmented reduction per bucket plane.
        """
        return self.geometry.unpack(
            [
                self._segment_round_xor(
                    plane, sorted_nodes, seg_starts,
                    excluded_nodes, round_index, col_start, col_stop,
                )
                for plane in range(len(self.geometry.planes))
            ]
        )

    def _round_slab_total(self, plane: int, round_index: int) -> np.ndarray:
        """Cached XOR of *all* nodes' buckets for one round.

        One contiguous whole-slab reduction, memoised until the next
        fold touches the pool; the complement trick below uses it to
        price giant-component reductions at (amortised) zero reads.
        """
        cached = self._slab_cache.get((round_index, plane))
        if cached is not None and cached[0] == self._version:
            return cached[1]
        total = np.bitwise_xor.reduce(self._round_view(plane, round_index), axis=0)
        self._slab_cache[(round_index, plane)] = (self._version, total)
        return total

    def _segment_round_xor(
        self,
        plane: int,
        sorted_nodes: np.ndarray,
        seg_starts: np.ndarray,
        excluded_nodes: np.ndarray,
        round_index: int,
        col_start: int,
        col_stop: int,
    ) -> np.ndarray:
        """Per-segment XOR of plane ``plane``'s round slab, over a column span.

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
        slab = self._round_view(plane, round_index)
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
        slab_cost = 0 if (round_index, plane) in self._slab_cache and self._slab_cache[
            (round_index, plane)
        ][0] == self._version else self.num_nodes * self.num_columns * self.num_rows // 2
        use_complement = largest_size > 1 and 2 * largest_size * width > (
            slab_cost + 2 * excluded_nodes.size * width
        )
        if not use_complement:
            gathered = slab[sorted_nodes, col_start:col_stop]
            return segmented_xor(gathered.reshape(total, width), seg_starts)

        lo = int(seg_starts[largest])
        hi = lo + largest_size
        other_nodes = np.concatenate([sorted_nodes[:lo], sorted_nodes[hi:]])
        other_starts = np.delete(seg_starts, largest)
        other_starts[largest:] -= largest_size
        other_sums = segmented_xor(
            slab[other_nodes, col_start:col_stop].reshape(other_nodes.size, width),
            other_starts,
        )
        largest_sum = (
            self._round_slab_total(plane, round_index)[col_start:col_stop]
            .reshape(width)
            .copy()
        )
        if other_sums.shape[0]:
            largest_sum ^= np.bitwise_xor.reduce(other_sums, axis=0)
        if excluded_nodes.size:
            largest_sum ^= np.bitwise_xor.reduce(
                slab[excluded_nodes, col_start:col_stop].reshape(excluded_nodes.size, width),
                axis=0,
            )
        merged = np.empty((seg_starts.size, width), dtype=slab.dtype)
        merged[:largest] = other_sums[:largest]
        merged[largest] = largest_sum
        merged[largest + 1 :] = other_sums[largest:]
        return merged

    # ------------------------------------------------------------------
    # per-node views
    # ------------------------------------------------------------------
    def _node_bundle_arrays(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """One node's ``(rounds, cols, rows)`` uint64 alpha/gamma bundle (copies)."""
        return self.geometry.unpack([plane[:, node] for plane in self._planes])

    def node_sketch(self, node: int) -> FlatNodeSketch:
        """Materialise one node's bundle as a standalone FlatNodeSketch."""
        self._check_node(node)
        sketch = FlatNodeSketch(
            node,
            self.encoder,
            graph_seed=self.graph_seed,
            geometry=self.geometry,
            kernels=self._kernels,
        )
        sketch._alpha, sketch._gamma = self._node_bundle_arrays(node)
        return sketch

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

    def raw_tensors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only uint64 ``(alpha, gamma)`` round-major tensors, as copies.

        Shape ``(rounds, nodes, cols, rows)`` each, read one round slab
        at a time through :meth:`_round_view` -- on a paged pool that
        is the whole pool in RAM, so this is for tests and small graphs.
        """
        shape = (self.num_rounds, self.num_nodes, self.num_columns, self.num_rows)
        planes = [np.empty(shape, dtype=dtype) for _, dtype in self.geometry.planes]
        for plane, tensor in enumerate(planes):
            for round_index in range(self.num_rounds):
                tensor[round_index] = self._round_view(plane, round_index)
        alpha, gamma = self.geometry.unpack(planes)
        alpha.flags.writeable = False
        gamma.flags.writeable = False
        return alpha, gamma

    def __repr__(self) -> str:
        return f"NodeTensorPool({self.geometry}, graph_seed={self.graph_seed})"
