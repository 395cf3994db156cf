"""Sharded columnar parallel ingest over the in-RAM node tensor pool.

The parallel layer partitions the node space into ``num_shards``
contiguous node ranges.  Each shard *owns* a disjoint slab of the
:class:`~repro.sketch.tensor_pool.NodeTensorPool` tensors -- every
bucket of every node in its range, across all rounds -- and is the only
writer that ever touches those buckets.  Ingesting a batch is then:

1. **partition** (producer): canonicalise the ``(N, 2)`` edge batch,
   mirror it (each edge lands in two shards, one per endpoint), and
   split the mixed-node update columns into per-shard groups with one
   vectorised ``searchsorted`` + stable argsort pass
   (:func:`partition_mirrored_updates`);
2. **fold** (worker threads): each shard worker folds its group straight
   through the shared columnar fold kernel into its own slab
   (:meth:`~repro.sketch.tensor_pool.NodeTensorPool.fold_shard`).  numpy
   releases the GIL inside the hash/sort/scatter kernels and the native
   kernels release it for the whole fold, so disjoint-slab folds run on
   real cores.

There are no per-node locks and no shared mutable state between
shards: scatter targets are disjoint by
construction, and because bucket updates are XOR-folds the shard-local
application order is irrelevant -- the resulting pool is bit-identical
to serial :meth:`~repro.core.graph_zeppelin.GraphZeppelin.ingest_batch`
under the same seed.  The fold kernel's cost does not depend on how a
group's destinations spread, so shards are sized for load balance alone
(:func:`~repro.sketch.tensor_pool.auto_num_shards`: a few per worker).

:meth:`ShardedIngestor.ingest_stream` adds a pipeline mode: the
producer partitions batch ``k + 1`` while the workers are still
folding batch ``k``.  The hand-off between producer and workers is a
**bounded queue**: prepared batches wait in line until their combined
footprint would exceed ``max_queued_bytes``, at which point the
producer *blocks* (folding queued batches) instead of buffering an
unbounded prepared backlog -- backpressure, so a fast source cannot
balloon RAM ahead of slow folds.  ``peak_queued_bytes`` records the
high-water mark, which ``tests/test_overload.py`` holds under the bound.

Only the in-RAM pool shards.  A RAM-budgeted engine ingests serially
(``engine.ingest`` / ``ingest_batch``): its gutters already emit one
batch per page, and the serial round split
(:mod:`repro.sketch.round_split`) is the in-RAM engine's other way onto
every core.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import ConfigurationError
from repro.parallel.cost_model import usable_cores
from repro.sketch.flat_node_sketch import hash_depths_checksums
from repro.sketch.tensor_pool import NodeTensorPool, auto_num_shards, shard_bounds

#: Default bound on the pipelined producer's prepared-batch backlog, in
#: bytes of update columns.  Big enough for several typical stream
#: chunks, small enough that backpressure engages well before the
#: backlog rivals the sketch RAM budget.
DEFAULT_MAX_QUEUED_BYTES = 32 << 20


# ----------------------------------------------------------------------
# the vectorised partition step
# ----------------------------------------------------------------------
def partition_mirrored_updates(
    lo: np.ndarray,
    hi: np.ndarray,
    bounds: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a canonical edge batch into per-shard mixed-node groups.

    The batch is mirrored (both endpoints of edge ``(lo[i], hi[i])``
    receive its slot, so each edge lands in two shards -- or twice in
    one shard when both endpoints fall inside it) and grouped by the
    owning shard in one vectorised pass: a ``searchsorted`` against the
    shard ``bounds`` labels every update, and a stable argsort of the
    (small-int) shard ids groups them without touching per-update
    Python.

    Returns ``(dsts, edge_rows, cuts)``: the destination column
    reordered shard-major, each update's edge position (``edge_rows[i]``
    indexes the *unmirrored* batch -- per-edge data such as slot
    indices or hash matrices is shared by both mirrored copies and
    gathered by row, never duplicated), and ``num_shards + 1`` offsets
    such that shard ``s``'s group is the slice ``[cuts[s], cuts[s+1])``.
    """
    num_shards = bounds.size - 1
    num_edges = lo.size
    dsts = np.concatenate([lo, hi])
    shard_ids = np.searchsorted(bounds, dsts, side="right") - 1
    # Few shards are the common case, and int16 ids keep the grouping
    # argsort on numpy's radix sort.
    sort_ids = (
        shard_ids.astype(np.int16) if num_shards <= np.iinfo(np.int16).max else shard_ids
    )
    order = np.argsort(sort_ids, kind="stable")
    counts = np.bincount(shard_ids, minlength=num_shards)
    cuts = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    # Mirrored position p is edge p mod num_edges (first half = lo copy,
    # second half = hi copy).
    edge_rows = order % num_edges
    return dsts[order], edge_rows, cuts


# ----------------------------------------------------------------------
# the sharded ingestor
# ----------------------------------------------------------------------
class ShardedIngestor:
    """Columnar parallel ingest: shard worker threads over the tensor pool.

    Use as a context manager around one or many batches::

        with ShardedIngestor(engine, num_workers=4) as ingestor:
            ingestor.ingest_batch(edges)  # one (N, 2) array
            ingestor.ingest_stream(stream.edge_array_chunks())  # pipelined
        forest = engine.list_spanning_forest()

    Results are bit-identical to serial ``engine.ingest_batch`` under
    the same seed, for any shard count.

    Parameters
    ----------
    engine:
        The GraphZeppelin instance to ingest into.  Its pool must be the
        in-RAM :class:`NodeTensorPool`; a RAM-budgeted (paged) engine
        raises :class:`~repro.exceptions.ConfigurationError` -- ingest it
        serially.
    num_workers:
        Concurrent shard workers (default ``engine.config.num_workers``).
    num_shards:
        Node-range count (default: a few per worker -- see
        :func:`~repro.sketch.tensor_pool.auto_num_shards`).  May exceed
        ``num_workers``; workers pick up shard groups as they free up.
    backend:
        ``"threads"``, the only backend; any other value raises
        :class:`~repro.exceptions.ConfigurationError`.
    max_queued_bytes:
        Backpressure bound for :meth:`ingest_stream`: the producer
        blocks once the prepared-but-unfolded batches it is holding
        exceed this many bytes (default
        :data:`DEFAULT_MAX_QUEUED_BYTES`).  A single batch larger than
        the whole bound still ingests -- alone, with the bound
        transiently exceeded.
    """

    def __init__(
        self,
        engine: GraphZeppelin,
        num_workers: Optional[int] = None,
        num_shards: Optional[int] = None,
        backend: str = "threads",
        max_queued_bytes: Optional[int] = None,
    ) -> None:
        pool = engine.tensor_pool
        if backend != "threads":
            raise ConfigurationError(
                f"unknown parallel backend {backend!r} (sharded ingest runs on threads)"
            )
        if pool.is_paged:
            raise ConfigurationError(
                "sharded ingest needs the in-RAM pool; a RAM-budgeted engine "
                "ingests serially (engine.ingest / engine.ingest_batch)"
            )
        self.engine = engine
        self.pool: NodeTensorPool = pool
        self.num_workers = int(
            num_workers if num_workers is not None else engine.config.num_workers
        )
        if self.num_workers < 1:
            raise ConfigurationError("num_workers must be at least 1")
        # A few shards per worker keeps the load balanced without
        # flooding the executor with tiny tasks.
        self.num_shards = int(
            num_shards
            if num_shards is not None
            else auto_num_shards(engine.num_nodes, self.num_workers)
        )
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        self.bounds = shard_bounds(engine.num_nodes, self.num_shards)
        if max_queued_bytes is None:
            max_queued_bytes = DEFAULT_MAX_QUEUED_BYTES
        if max_queued_bytes < 1:
            raise ConfigurationError("max_queued_bytes must be at least 1")
        self.max_queued_bytes = int(max_queued_bytes)
        # Hash-hoist only pays on the numpy path: native kernels fuse
        # hashing into the fold (and release the GIL there), so a
        # producer-side hash pass would serialise work the workers can
        # do concurrently in compiled code.
        self._hoist_hash = pool._kernels is None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._queued_bytes = 0
        #: High-water mark of the pipelined hand-off backlog, in bytes.
        self.peak_queued_bytes = 0

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardedIngestor":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    def start(self) -> None:
        """Spin up the shard workers (idempotent).

        The actual worker count is ``min(num_workers, usable cores)``
        (affinity-aware): the folds are CPU-bound kernels, so workers
        beyond the cores this process may run on only add scheduler
        contention (the cost model's ``effective_workers`` encodes the
        same clamp).
        """
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.effective_workers, thread_name_prefix="shard-worker"
            )

    def finish(self) -> None:
        """Stop the workers.  The pool stays with the engine, which keeps
        serving queries and further ingest."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    close = finish

    # ------------------------------------------------------------------
    @property
    def effective_workers(self) -> int:
        """Workers actually running: ``num_workers`` clamped to usable cores."""
        return max(1, min(self.num_workers, usable_cores()))

    # ------------------------------------------------------------------
    def ingest_batch(self, edges: Union[np.ndarray, Sequence[Tuple[int, int]]]) -> int:
        """Partition one ``(N, 2)`` edge batch and fold it in parallel.

        Blocks until every shard worker has folded its group (so the
        engine may be queried immediately after), and returns the number
        of edge updates ingested.
        """
        self.start()
        parts = self._prepare(edges)
        if parts is None:
            return 0
        count, groups, lo, hi = parts
        self._await(self._dispatch(groups), count, lo, hi)
        return count

    def ingest_stream(
        self,
        chunks: Iterable[Union[np.ndarray, Sequence[Tuple[int, int]]]],
    ) -> int:
        """Pipelined ingest of a sequence of edge batches.

        The producer (this thread) canonicalises and partitions batch
        ``k + 1`` while the shard workers fold batch ``k``; a barrier
        between consecutive batches keeps two folds from racing on the
        same bucket.  Prepared batches wait in a **bounded** hand-off
        queue: once their combined footprint exceeds
        ``max_queued_bytes`` the producer blocks, folding queued
        batches before preparing more -- backpressure against a source
        faster than the folds.  ``chunks`` is any iterable of ``(N, 2)``
        edge arrays -- typically
        :meth:`~repro.streaming.stream.GraphStream.edge_array_chunks`.
        Returns the total number of edge updates ingested.
        """
        self.start()
        total = 0
        # in_flight: the one dispatched batch, as (handles, count, lo,
        # hi, nbytes); queued: prepared batches not yet dispatched, as
        # (count, groups, lo, hi, nbytes).  _queued_bytes covers both.
        in_flight: Optional[Tuple] = None
        queued: List[Tuple] = []

        def advance() -> None:
            # One pipeline step: retire the dispatched batch (barrier),
            # then dispatch the next queued one.  Clear in_flight before
            # awaiting so a worker exception here cannot make the
            # finally block await it again.
            nonlocal in_flight
            if in_flight is not None:
                pending, in_flight = in_flight, None
                try:
                    self._await(pending[0], pending[1], pending[2], pending[3])
                finally:
                    self._queued_bytes -= pending[4]
            if queued:
                count, groups, lo, hi, nbytes = queued.pop(0)
                in_flight = (self._dispatch(groups), count, lo, hi, nbytes)

        try:
            for chunk in chunks:
                parts = self._prepare(chunk)
                if parts is None:
                    continue
                count, groups, lo, hi = parts
                nbytes = self._batch_nbytes(groups)
                while (in_flight is not None or queued) and (
                    self._queued_bytes + nbytes > self.max_queued_bytes
                ):
                    advance()
                queued.append((count, groups, lo, hi, nbytes))
                self._queued_bytes += nbytes
                self.peak_queued_bytes = max(
                    self.peak_queued_bytes, self._queued_bytes
                )
                if in_flight is None:
                    advance()
                total += count
            while in_flight is not None or queued:
                advance()
        finally:
            # A failed _prepare (bad chunk) must not leave a dispatched
            # batch unpublished: its folds complete in the workers and
            # mutate the pool, so the caches have to be invalidated.
            # Queued-but-undispatched batches never touched the pool;
            # they are simply dropped from the byte accounting.
            if in_flight is not None:
                try:
                    self._await(in_flight[0], in_flight[1], in_flight[2], in_flight[3])
                finally:
                    self._queued_bytes -= in_flight[4]
            for entry in queued:
                self._queued_bytes -= entry[4]
            queued.clear()
        return total

    def _batch_nbytes(self, groups: list) -> int:
        """Footprint of one prepared batch's update columns, in bytes.

        The per-edge hash matrices are shared across every shard group
        by reference, so arrays are counted once by identity, not once
        per group.
        """
        seen = set()
        total = 0
        for group in groups:
            for part in group:
                if isinstance(part, np.ndarray) and id(part) not in seen:
                    seen.add(id(part))
                    total += part.nbytes
        return total

    # ------------------------------------------------------------------
    def _prepare(self, edges) -> Optional[Tuple[int, list, np.ndarray, np.ndarray]]:
        """Producer half: canonicalise, hash, mirror, and partition a batch.

        The hash matrices depend only on the edge slot, so on the numpy
        path they are computed **once per edge** here and shared by
        reference with every worker (each gathers its group's rows) --
        half the hash cost of hashing per mirrored copy.  Native kernels
        skip the hoist: the fold re-hashes per update inside compiled,
        GIL-free code, so the producer stays a pure partitioner and the
        workers scale past the hash-bound ceiling.
        """
        lo, hi = self.engine._canonical_edge_columns(edges)
        if lo is None:
            return None
        pool = self.pool
        indices = self.engine.encoder.encode_canonical_pairs(lo, hi)
        dsts, edge_rows, cuts = partition_mirrored_updates(lo, hi, self.bounds)
        shards = [
            (shard, slice(int(cuts[shard]), int(cuts[shard + 1])))
            for shard in range(self.num_shards)
            if cuts[shard + 1] > cuts[shard]
        ]
        if self._hoist_hash:
            depths, checksums = hash_depths_checksums(
                indices, pool._mixed_membership, pool._mixed_checksum, pool.num_rows
            )
            groups = [
                (
                    int(self.bounds[shard]),
                    int(self.bounds[shard + 1]),
                    dsts[rows],
                    edge_rows[rows],
                    indices,
                    depths,
                    checksums,
                )
                for shard, rows in shards
            ]
        else:
            groups = [
                (
                    int(self.bounds[shard]),
                    int(self.bounds[shard + 1]),
                    dsts[rows],
                    indices[edge_rows[rows]],
                )
                for shard, rows in shards
            ]
        return int(lo.size), groups, lo, hi

    def _dispatch(self, groups: list) -> list:
        """Hand the per-shard groups to the workers; returns their futures."""
        if self._hoist_hash:
            return [
                self._executor.submit(
                    self.pool.fold_shard_hashed,
                    dsts,
                    rows,
                    indices,
                    depths,
                    checksums,
                    node_lo,
                    node_hi,
                )
                for node_lo, node_hi, dsts, rows, indices, depths, checksums in groups
            ]
        return [
            self._executor.submit(self.pool.fold_shard, dsts, indices, node_lo, node_hi)
            for node_lo, node_hi, dsts, indices in groups
        ]

    def _await(
        self, handles: list, count: int, lo: np.ndarray, hi: np.ndarray
    ) -> None:
        """Barrier: wait for a batch's folds, then publish its effects.

        When a worker raised, the failed batch's other shards have
        already XOR-mutated the pool tensors, so the forest and slab
        caches are invalidated even then (a query served from them
        would silently return pre-batch answers) -- but the update
        counters and the validated edge-set toggle are only applied on
        success, so they never claim a partially-folded batch landed
        (a caller retrying the failed batch must not double-toggle).
        """
        try:
            wait(handles)
            for handle in handles:
                handle.result()  # surface worker exceptions
        except BaseException:
            self.engine._note_parallel_ingest(0)
            raise
        self.engine._toggle_tracked_edges(lo, hi)
        self.engine._note_parallel_ingest(count)
