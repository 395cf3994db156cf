"""The GraphZeppelin engine: streaming connected components via CubeSketch.

This is the system of Section 5 of the paper.  Stream updates enter
through :meth:`GraphZeppelin.edge_update` (or the ``insert`` /
``delete`` convenience wrappers), are collected per destination node by
the configured buffering structure, and are folded into the node
sketches in batches.  Columnar callers hand whole ``(N, 2)`` edge
arrays to :meth:`GraphZeppelin.ingest_batch`, which canonicalises,
mirrors, and encodes the updates with numpy and drives the sketch layer
without any per-edge Python work; :meth:`GraphZeppelin.ingest` takes a
whole stream -- a :class:`~repro.streaming.stream.GraphStream` or any
iterable of updates -- and feeds it to ``ingest_batch`` in chunks.  A
connectivity query flushes the buffers and runs the sketch-based
Boruvka algorithm, returning a
:class:`~repro.core.spanning_forest.SpanningForest`.

Sketch state lives in one of two places, chosen by whether the engine
has a bounded RAM budget (``config.ram_budget_bytes`` or an injected
bounded :class:`~repro.memory.hybrid.HybridMemory`):

* **everything in RAM** (the default): a single
  :class:`~repro.sketch.tensor_pool.NodeTensorPool` holds every node's
  bundle in two contiguous tensors and mixed multi-node batches fold in
  one columnar kernel pass;
* **RAM budget**: a :class:`~repro.sketch.paged_pool.PagedTensorPool`
  -- the same round-major tensors partitioned into node-group pages
  stored through the hybrid-memory substrate, folded per page and
  queried per round slab, paying modelled SSD I/O per *page* (the
  out-of-core experiments, Figures 12, 15, 16b).

Either pool keeps the engine fully columnar: buffering (when
configured) collects mixed-node update columns per page and emits
:class:`~repro.buffering.base.PageBatch` objects that fold in one
kernel pass per page, and connectivity queries always run the
vectorized whole-round Boruvka driver over the pool -- one driver for
in-RAM and out-of-core alike.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.buffering.base import BufferingSystem, PageBatch
from repro.buffering.gutter_tree import GutterTree
from repro.buffering.leaf_gutters import LeafGutters
from repro.core.boruvka import BoruvkaStats, pool_spanning_forest
from repro.core.config import BufferingMode, GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder, canonical_edge_columns
from repro.core.spanning_forest import SpanningForest
from repro.exceptions import (
    ConfigurationError,
    InvalidStreamError,
    StreamFormatError,
)
from repro.memory.hybrid import HybridMemory
from repro.memory.metrics import IOStats
from repro.observability.metrics import default_registry
from repro.observability.tracing import span
from repro.sketch.flat_node_sketch import FlatNodeSketch
from repro.sketch.geometry import SketchGeometry
from repro.sketch.paged_pool import PagedTensorPool
from repro.sketch.tensor_pool import MAX_PAGE_NODES, NodeTensorPool, shard_bounds
from repro.streaming.stream import GraphStream, StreamUpdates, update_rows
from repro.types import Edge, EdgeUpdate, UpdateType, canonical_edge

#: Updates :meth:`GraphZeppelin.ingest` hands to one ``ingest_batch``
#: call.  The native fold's per-call cost is still falling at this size
#: (at 20 000 nodes 125k updates/s in 16 384-row calls, 180k/s here; the
#: numpy fold is flat from 8 192 up), and an unbounded iterator is
#: drained 1.5 MB of rows at a time.
INGEST_CHUNK_ROWS = 1 << 16

# What stream validation says, per update and per ingested chunk alike.
_INSERT_PRESENT = "edge {} inserted while already present"
_DELETE_ABSENT = "edge {} deleted while absent"

#: Levels that make :meth:`GraphZeppelin.health` report ``"degraded"``
#: once any of them is nonzero.
_DEGRADED_WHEN_NONZERO = (
    "io.pressure_events",
    "io.deadline_misses",
    "breaker.times_opened",
    "page.pressure_degradations",
    "checkpoint.failures_total",
)


class GraphZeppelin:
    """Streaming connected-components sketch over a fixed node universe.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``V``.  Like the paper, an upper bound is fine:
        unused node ids simply keep empty sketches.
    config:
        Engine configuration; see
        :class:`~repro.core.config.GraphZeppelinConfig`.
    memory:
        Optionally inject a pre-built hybrid memory (tests and the I/O
        benchmarks share one across components); by default one is
        created according to ``config.ram_budget_bytes``.
    """

    def __init__(
        self,
        num_nodes: int,
        config: Optional[GraphZeppelinConfig] = None,
        memory: Optional[HybridMemory] = None,
    ) -> None:
        self.num_nodes = int(num_nodes)
        self.config = config or GraphZeppelinConfig()
        self.encoder = EdgeEncoder(self.num_nodes)
        #: Rounds, columns, rows and bucket mode: the pool's shape, the
        #: query's round count and the byte accounting all read this.
        self.geometry = SketchGeometry.for_graph(self.num_nodes, self.config.delta)
        self.num_rounds = self.geometry.rounds

        # Resolve the kernel provider once; the pool, its node views and
        # the hybrid memory's block digests share the same instance
        # (providers are process-wide singletons, so sharing is free).
        from repro.kernels import resolve_kernels

        self._kernels = resolve_kernels(self.config.kernel_backend)
        if memory is not None:
            self.memory: Optional[HybridMemory] = memory
            memory.kernels = self._kernels
        elif self.config.ram_budget_bytes is not None:
            retry = None
            if self.config.io_retry_attempts > 1:
                from repro.memory.hybrid import RetryPolicy

                retry = RetryPolicy(
                    attempts=self.config.io_retry_attempts,
                    backoff_seconds=self.config.io_retry_backoff_seconds,
                )
            breaker = None
            if self.config.io_breaker_threshold is not None:
                from repro.resilience.overload import CircuitBreaker

                breaker = CircuitBreaker(
                    failure_threshold=self.config.io_breaker_threshold,
                    reset_seconds=self.config.io_breaker_reset_seconds,
                )
            self.memory = HybridMemory(
                ram_bytes=self.config.ram_budget_bytes,
                retry=retry,
                deadline_seconds=self.config.io_deadline_seconds,
                breaker=breaker,
                kernels=self._kernels,
            )
        else:
            self.memory = None

        if self.memory is None or self.memory.is_unbounded:
            # Everything fits in RAM: one contiguous tensor pool for the
            # whole graph, shared by the columnar and per-edge paths.
            self._pool: NodeTensorPool = NodeTensorPool(
                self.num_nodes,
                self.encoder,
                graph_seed=self.config.seed,
                geometry=self.geometry,
                kernels=self._kernels,
            )
        else:
            # RAM budget: the same tensors in node-group pages behind
            # the hybrid memory -- every layer stays columnar.
            self._pool = PagedTensorPool(
                self.num_nodes,
                self.encoder,
                memory=self.memory,
                graph_seed=self.config.seed,
                geometry=self.geometry,
                nodes_per_page=self.config.nodes_per_page,
                kernels=self._kernels,
            )

        self._buffering = self._build_buffering()
        self._updates_processed = 0
        self._batches_applied = 0
        self._current_edges: Optional[Set[Edge]] = (
            set() if self.config.validate_stream else None
        )
        self._last_query_stats: Optional[BoruvkaStats] = None
        # The spanning forest is a pure function of the sketch state, so
        # it is cached between queries with the pool version it was
        # computed at; every write to the pool moves that version.
        self._cached_forest: Optional[SpanningForest] = None
        self._cached_version = -1
        # Stream position recorded by the snapshot this engine was
        # loaded from (0 for a fresh engine): resume ingestion there.
        self._resume_offset = 0
        # Policy-driven checkpointing, attached via attach_checkpointer;
        # every ingest entry point notifies it.
        self._checkpointer = None
        # Checkpoint failures from checkpointers that were since detached
        # or replaced -- health() must keep reporting them, or a failed
        # checkpoint disappears from the degradation record the moment a
        # new checkpointer is attached.
        self._checkpoint_failures_absorbed = 0

    # ------------------------------------------------------------------
    # stream ingestion (user API)
    # ------------------------------------------------------------------
    def edge_update(self, u: int, v: int) -> None:
        """Process one stream update toggling edge ``{u, v}``.

        Over Z_2 an insertion and a deletion are the same toggle, so a
        single entry point suffices; :meth:`insert` and :meth:`delete`
        exist for callers that want the stream-validity checking.
        """
        edge = canonical_edge(u, v)
        self._ingest(edge)

    def insert(self, u: int, v: int) -> None:
        """Process an edge insertion (validated when configured)."""
        edge = canonical_edge(u, v)
        if self._current_edges is not None:
            if edge in self._current_edges:
                raise InvalidStreamError(_INSERT_PRESENT.format(edge))
            self._current_edges.add(edge)
        self._ingest(edge, validated=True)

    def delete(self, u: int, v: int) -> None:
        """Process an edge deletion (validated when configured)."""
        edge = canonical_edge(u, v)
        if self._current_edges is not None:
            if edge not in self._current_edges:
                raise InvalidStreamError(_DELETE_ABSENT.format(edge))
            self._current_edges.remove(edge)
        self._ingest(edge, validated=True)

    def apply_update(self, update: EdgeUpdate) -> None:
        """Process an :class:`~repro.types.EdgeUpdate`."""
        if update.kind is UpdateType.INSERT:
            self.insert(update.u, update.v)
        else:
            self.delete(update.u, update.v)

    def ingest(self, updates: Iterable[EdgeUpdate]) -> int:
        """Process a whole stream of updates; returns how many were applied.

        The columnar twin of calling :meth:`apply_update` per element: a
        :class:`~repro.streaming.stream.GraphStream` is consumed through
        views of its rows, any other iterable is drained
        :data:`INGEST_CHUNK_ROWS` updates at a time, and every chunk goes
        through :meth:`ingest_batch`.  After :meth:`flush` the sketch
        state is bit-identical to the per-update loop's (XOR is
        linear).  Two things the per-update loop did at exact update
        counts still happen there.  A chunk ends where the attached
        checkpointer's every-N policy falls due, so generations are
        written at the same ``updates_processed`` values.  And an update
        the per-update API would reject -- an endpoint outside the graph,
        a negative one or a self loop (update objects other than
        ``EdgeUpdate`` can carry them) or, under ``validate_stream``, an
        insert of a present edge or a delete of an absent one -- raises
        :class:`~repro.exceptions.InvalidStreamError` after exactly the
        updates before it were applied.
        """
        count = 0
        for rows in self._update_row_chunks(updates):
            valid, violation = self._first_violation(rows)
            count += self.ingest_batch(rows[:valid, 1:])
            if violation is not None:
                raise InvalidStreamError(violation)
        return count

    def _update_row_chunks(self, updates) -> Iterator[np.ndarray]:
        """``updates`` as consecutive ``(n, 3)`` ``(kind, u, v)`` chunks.

        Lazy, so each chunk's length is decided after the previous chunk
        was ingested (the checkpointer's counters have moved by then).
        """
        if isinstance(updates, (GraphStream, StreamUpdates)):
            rows = updates.rows
            position = 0
            while position < rows.shape[0]:
                chunk = rows[position : position + self._ingest_chunk_limit()]
                position += chunk.shape[0]
                yield chunk
        else:
            iterator = iter(updates)
            while chunk := list(islice(iterator, self._ingest_chunk_limit())):
                yield update_rows(chunk, kinds=self._current_edges is not None)

    def _ingest_chunk_limit(self) -> int:
        limit = INGEST_CHUNK_ROWS
        if self._checkpointer is not None:
            due_in = self._checkpointer.updates_until_due()
            if due_in is not None:
                limit = min(limit, due_in)
        return limit

    def _first_violation(self, rows: np.ndarray) -> Tuple[int, Optional[str]]:
        """How many leading rows are applicable, and what is wrong with the next.

        Reads the tracked edge set without changing it (the changes a
        chunk makes to itself are kept aside):
        :meth:`ingest_batch` toggles the set when the valid prefix is
        ingested, which for valid rows is exactly insert and delete.
        """
        valid, violation = rows.shape[0], None
        lo, hi = np.minimum(rows[:, 1], rows[:, 2]), np.maximum(rows[:, 1], rows[:, 2])
        bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= self.num_nodes))
        if bad.size:
            valid = int(bad[0])
            _, u, v = rows[valid].tolist()
            violation = (
                f"update {(u, v)} is a self loop" if u == v
                else f"update {(u, v)} references a node outside [0, {self.num_nodes})"
            )
        if self._current_edges is None:
            return valid, violation
        changed: Dict[Edge, bool] = {}
        for index, (kind, u, v) in enumerate(rows[:valid].tolist()):
            edge = (u, v)
            present = changed.get(edge)
            if present is None:
                present = edge in self._current_edges
            if kind == UpdateType.INSERT:
                if present:
                    return index, _INSERT_PRESENT.format(edge)
            elif not present:
                return index, _DELETE_ABSENT.format(edge)
            changed[edge] = not present
        return valid, violation

    def ingest_batch(self, edges: Union[np.ndarray, Sequence[Tuple[int, int]]]) -> int:
        """Columnar ingestion of an ``(N, 2)`` array of edge toggles.

        The whole batch is validated, canonicalised, mirrored and encoded
        columnar -- on a native in-RAM pool, in two compiled calls -- with
        no per-edge Python work.  With the in-RAM tensor pool the batch
        goes straight through the fold kernel (buffering would only add
        copying); out-of-core configurations route the columns through
        the buffering structure's vectorised ``insert_batch`` so per-page
        batches still amortise sketch page-ins.  A bad batch raises
        :class:`~repro.exceptions.InvalidStreamError` and changes nothing.

        Like :meth:`edge_update`, each row is a toggle: inserting an
        absent edge and deleting a present one are the same operation
        over Z_2.  When stream validation is enabled, the tracked edge
        set is toggled to match, so later validated ``insert`` /
        ``delete`` calls stay consistent.  Returns the number of edge
        updates ingested.

        When a storage error propagates out of an out-of-core engine,
        the batch was still accepted (``updates_processed`` counts it):
        what the buffers emitted but could not fold is back in the
        buffers, and a later :meth:`flush` applies it.
        """
        endpoints = self._edge_rows(edges)
        if endpoints is None:
            return 0
        with span("ingest.batch"):
            if self._buffering is None or not self._pool.is_paged:
                # In-RAM pools fold directly even when buffering is
                # configured (the gutters would only copy); the paged pool
                # keeps the buffering layer in front so small batches still
                # amortise page pins.
                self._accept_batch(*self._pool.apply_edge_rows(endpoints))
                self._batches_applied += 1
            else:
                lo, hi = canonical_edge_columns(endpoints, self.num_nodes)
                self._accept_batch(lo, hi)
                dsts = np.concatenate([lo, hi])
                neighbors = np.concatenate([hi, lo])
                self._apply_emitted(self._buffering.insert_batch(dsts, neighbors))
        self._note_checkpoint_progress(endpoints.shape[0])
        return endpoints.shape[0]

    @staticmethod
    def _edge_rows(edges) -> Optional[np.ndarray]:
        """An edge batch as ``(N, 2)`` int64 rows, or ``None`` for ``[]`` or
        ``(0, 2)``: the shape and dtype checks every provider shares."""
        array = np.asarray(edges)
        if array.shape in ((0,), (0, 2)):
            return None
        if array.ndim != 2 or array.shape[1] != 2:
            raise InvalidStreamError("ingest_batch expects an (N, 2) edge array")
        if array.dtype.kind not in "iu":
            # A float or bool endpoint would be truncated into another node.
            raise InvalidStreamError(f"ingest_batch expects integer node ids, not {array.dtype}")
        return array.astype(np.int64, copy=False)

    def _accept_batch(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Record a validated serial batch: tracked edges and counters."""
        self._toggle_tracked_edges(lo, hi)
        count = lo.size
        self._updates_processed += count
        registry = default_registry()
        if registry.enabled:
            registry.counter("ingest.updates").inc(count)

    def _toggle_tracked_edges(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Toggle a canonical edge batch in the validated edge set.

        No-op unless stream validation is enabled.  Toggles per
        occurrence (a repeated edge cancels), matching the sketch
        semantics; validation mode is already documented as O(E)
        bookkeeping, so the per-row loop is acceptable here.
        """
        if self._current_edges is None:
            return
        for edge in zip(lo.tolist(), hi.tolist()):
            if edge in self._current_edges:
                self._current_edges.remove(edge)
            else:
                self._current_edges.add(edge)

    def parallel_ingestor(
        self,
        num_workers: Optional[int] = None,
        num_shards: Optional[int] = None,
        backend: str = "threads",
    ):
        """A :class:`~repro.parallel.graph_workers.ShardedIngestor` over this engine.

        ``num_workers`` defaults to the engine's config and
        ``num_shards`` to a few per worker.  ``backend`` accepts only
        ``"threads"``; anything else, or a RAM-budgeted engine, raises
        :class:`~repro.exceptions.ConfigurationError`.  Use as a context
        manager around the ingest loop.
        """
        # Local import: repro.parallel imports this module.
        from repro.parallel.graph_workers import ShardedIngestor

        return ShardedIngestor(
            self, num_workers=num_workers, num_shards=num_shards, backend=backend
        )

    def _note_parallel_ingest(self, count: int) -> None:
        """Publish one parallel batch's effects after its fold barrier.

        The shard workers write the pool tensors directly, bypassing
        every user-facing entry point, so the coordinator records the
        counters here -- and, crucially, moves the pool version, which
        retires the cached spanning forest and the pool's slab cache,
        exactly like a serial ingest would.  ``count=0`` signals a
        batch whose workers failed partway: the version still moves
        (some shards' folds landed), but no updates are claimed.
        """
        if count:
            self._updates_processed += int(count)
            self._batches_applied += 1
            registry = default_registry()
            if registry.enabled:
                registry.counter("ingest.updates").inc(int(count))
        self._pool.mark_external_updates(2 * int(count))
        if count:
            self._note_checkpoint_progress(int(count))

    # ------------------------------------------------------------------
    # queries (user API)
    # ------------------------------------------------------------------
    def list_spanning_forest(self) -> SpanningForest:
        """Flush all buffers and return a spanning forest of the stream.

        Matches ``list_spanning_forest()`` in Figure 9: remaining
        buffered updates are applied first, then Boruvka runs over the
        node sketches.  The node sketches are not consumed -- the stream
        can continue after the query.

        The forest is cached with the pool version it was computed at:
        repeated connectivity queries (``is_connected`` point lookups,
        ``num_connected_components`` polls) between updates reuse it
        instead of re-running Boruvka, and any write to the pool --
        an ingest, a flush, a snapshot load or merge, a repair, even
        one made straight through :attr:`tensor_pool` -- retires it.
        """
        self.flush()
        version = self._pool._version
        if self._cached_forest is not None and self._cached_version == version:
            return self._cached_forest
        forest, stats = pool_spanning_forest(
            self._pool, self.num_rounds, strict=self.config.strict_queries
        )
        self._last_query_stats = stats
        self._cached_forest, self._cached_version = forest, version
        return forest

    def spanning_forest(self) -> SpanningForest:
        """Alias of :meth:`list_spanning_forest`."""
        return self.list_spanning_forest()

    def connected_components(self) -> List[Set[int]]:
        """The node partition implied by the spanning forest."""
        return self.list_spanning_forest().components()

    def num_connected_components(self) -> int:
        return self.list_spanning_forest().num_components

    def is_connected(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are currently in the same component."""
        return self.list_spanning_forest().connected(u, v)

    # ------------------------------------------------------------------
    # snapshots (the distributed plane)
    # ------------------------------------------------------------------
    def save_snapshot(self, path, stream_offset: Optional[int] = None):
        """Checkpoint the engine's sketch state to a snapshot file.

        Buffered updates are flushed first, so the snapshot captures
        exactly the updates processed so far; the pool (flat or paged)
        then streams to disk in the versioned format of
        :mod:`repro.distributed.snapshot`, stamped with this engine's
        config fingerprint, update counters, and ``stream_offset`` --
        how far into the input stream this state corresponds to
        (defaults to ``updates_processed``, which is the position when
        the stream is consumed sequentially).  Ingestion can continue
        afterwards; a crash loses only the post-snapshot suffix, which
        :meth:`load_snapshot` + re-ingesting from the recorded offset
        replays bit-identically.  Returns the written metadata.
        """
        from repro.distributed.snapshot import save_pool_snapshot

        self.flush()
        offset = self._updates_processed if stream_offset is None else int(stream_offset)
        return save_pool_snapshot(
            self._pool,
            path,
            stream_offset=offset,
            engine_updates=self._updates_processed,
            fingerprint=self.config.sketch_fingerprint(),
        )

    @classmethod
    def load_snapshot(
        cls,
        path,
        config: Optional[GraphZeppelinConfig] = None,
        memory: Optional[HybridMemory] = None,
    ) -> "GraphZeppelin":
        """Rebuild an engine from a snapshot written by :meth:`save_snapshot`.

        With no ``config`` the snapshot's own seed and delta are used
        (everything-in-RAM); a supplied config may change *how* state is
        held (RAM budget, buffering, workers) but must match the
        snapshot's sketch fingerprint -- buckets interpreted under
        different hash functions silently fail every query, so a
        mismatch raises instead.  The loaded engine's
        :attr:`resume_offset` is the recorded stream position:
        re-ingesting the stream from there yields final state
        bit-identical to a run that never stopped.
        """
        from repro.distributed.snapshot import load_snapshot_into, read_snapshot_meta

        meta = read_snapshot_meta(path)
        if config is None:
            config = GraphZeppelinConfig(seed=meta.graph_seed, delta=meta.geometry.delta)
        if config.validate_stream:
            raise ConfigurationError(
                "cannot resume with validate_stream: the tracked edge set is "
                "not part of a snapshot"
            )
        if meta.fingerprint and config.sketch_fingerprint() != meta.fingerprint:
            raise StreamFormatError(
                f"snapshot was written under config fingerprint "
                f"{meta.fingerprint:#x}, supplied config has "
                f"{config.sketch_fingerprint():#x}"
            )
        engine = cls(meta.geometry.num_nodes, config=config, memory=memory)
        load_snapshot_into(path, engine._pool)
        engine._updates_processed = meta.engine_updates
        engine._resume_offset = meta.stream_offset
        return engine

    def merge_snapshots(self, paths, verified: bool = False):
        """XOR snapshots into this engine's sketch state; returns the merged meta.

        By linearity the result is the state of this engine's stream
        plus the snapshots' sub-streams: merged into a fresh engine,
        K snapshots of disjoint sub-streams leave it bit-identical to
        serially ingesting their concatenation.  Every input is
        validated against the pool -- and against each other -- before
        a bucket is touched (:func:`~repro.distributed.snapshot.merge_snapshots_into`).
        The inputs' ``engine_updates`` add to :attr:`updates_processed`
        and reach the attached checkpointer like any ingest.  Refused
        under ``validate_stream``: the tracked edge set is not part of
        a snapshot.  ``verified=True`` skips the payload digest pass for
        inputs the caller has just verified itself.
        """
        from repro.distributed.snapshot import merge_snapshots_into

        if self.config.validate_stream:
            raise ConfigurationError(
                "cannot merge snapshots with validate_stream: the tracked edge "
                "set is not part of a snapshot"
            )
        meta = merge_snapshots_into(paths, self._pool, verified=verified)
        self._updates_processed += meta.engine_updates
        self._note_checkpoint_progress(meta.engine_updates)
        return meta

    @property
    def resume_offset(self) -> int:
        """Stream position of the snapshot this engine was loaded from."""
        return self._resume_offset

    # ------------------------------------------------------------------
    # checkpointing (the fault-tolerance plane)
    # ------------------------------------------------------------------
    def attach_checkpointer(
        self,
        directory,
        policy=None,
        fault_plan=None,
        clock=None,
    ):
        """Attach a policy-driven :class:`~repro.resilience.checkpoint.Checkpointer`.

        Once attached, every ingest entry point (per-edge, batched, and
        the parallel barrier) notifies the checkpointer, which writes a
        rotating generation-numbered snapshot into ``directory``
        whenever the policy says one is due.  Replaces any previously
        attached checkpointer and returns the new one.
        """
        from repro.resilience.checkpoint import Checkpointer

        kwargs = {"policy": policy, "fault_plan": fault_plan}
        if clock is not None:
            kwargs["clock"] = clock
        if self._checkpointer is not None:
            self._checkpoint_failures_absorbed += self._checkpointer.checkpoint_failures
        self._checkpointer = Checkpointer(self, directory, **kwargs)
        return self._checkpointer

    def detach_checkpointer(self):
        """Detach and return the active checkpointer (``None`` if none).

        The detached checkpointer's failure count folds into the
        engine's absorbed total so :meth:`health` keeps reporting the
        degradation after the checkpointer is gone.
        """
        checkpointer, self._checkpointer = self._checkpointer, None
        if checkpointer is not None:
            self._checkpoint_failures_absorbed += checkpointer.checkpoint_failures
        return checkpointer

    @property
    def checkpointer(self):
        """The attached checkpointer, or ``None``."""
        return self._checkpointer

    @classmethod
    def recover_latest(
        cls,
        directory,
        config: Optional[GraphZeppelinConfig] = None,
        memory: Optional[HybridMemory] = None,
    ) -> "GraphZeppelin":
        """Rebuild an engine from the newest usable checkpoint in ``directory``.

        Generations are scanned newest-first; corrupt or unreadable
        snapshots (torn writes, partial headers) are skipped and the
        previous generation is tried, so a crash *during* a checkpoint
        write still recovers.  Raises
        :class:`~repro.exceptions.RecoveryError` when no generation is
        usable.  Re-ingest the stream from the returned engine's
        :attr:`resume_offset` to catch up bit-identically.
        """
        from repro.resilience.checkpoint import recover_latest

        engine, _path, _skipped = recover_latest(
            directory, config=config, memory=memory
        )
        return engine

    def _note_checkpoint_progress(self, count: int) -> None:
        """Tell the attached checkpointer ``count`` updates just landed."""
        if self._checkpointer is not None:
            self._checkpointer.note_updates(count)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Apply every buffered update to the node sketches.

        Failure-atomic against storage errors: an in-RAM engine applies
        the whole emission coalesced (pure-RAM folds cannot fail
        partway), while an out-of-core engine applies one page batch at
        a time -- each batch's fold only mutates state after its page is
        resident, so a batch that raises (rotten page read, failed
        writeback) has not been applied, and it plus the unapplied tail
        are restored to the gutters before the error propagates
        (:meth:`_apply_emitted`, which every buffered path shares).
        Without this, an absorbed mid-flush error (a checkpointer
        swallowing a failed checkpoint) would silently drop the popped
        updates and quietly diverge from the fault-free stream.
        """
        if self._buffering is None or self._buffering.pending_updates() == 0:
            return
        self._apply_emitted(self._buffering.flush_all())

    def node_sketch(self, node: int) -> FlatNodeSketch:
        """The current sketch of one node (a detached copy)."""
        return self._pool.node_sketch(node)

    def scrub_storage(self) -> list:
        """Verify checksums of all stored sketch state.

        Flushes buffered updates and syncs dirty pages first, so the
        device is authoritative, then verifies every stored payload
        (per-block device digests plus whole-payload digests).  Returns
        the corrupt page indices.  Fully in-RAM engines have no device
        and return ``[]``.  The scrub only *detects* -- healing a
        corrupt page is :func:`repro.integrity.repair.scrub_and_repair`'s
        job.
        """
        if not self._pool.is_paged:
            return []
        with span("scrub.pass"):
            self.flush()
            self._pool.sync()
            return self._pool.scrub()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def updates_processed(self) -> int:
        return self._updates_processed

    @property
    def batches_applied(self) -> int:
        return self._batches_applied

    @property
    def node_sketch_bytes(self) -> int:
        """Bytes of a single node sketch (the paper's 12 B per bucket)."""
        return self.geometry.accounted_bytes_per_node

    def sketch_bytes(self) -> int:
        """Bytes of all node sketches (the dominant term of Figure 11)."""
        return self.node_sketch_bytes * self.num_nodes

    def buffer_bytes(self) -> int:
        """Bytes currently pinned by the buffering structure."""
        if self._buffering is None:
            return 0
        return self._buffering.pending_updates() * 8

    def total_bytes(self) -> int:
        """Total space accounting used in the space-comparison figures."""
        return self.sketch_bytes() + self.buffer_bytes()

    @property
    def io_stats(self) -> Optional[IOStats]:
        """I/O counters of the hybrid memory (``None`` when fully in RAM)."""
        return self.memory.stats if self.memory is not None else None

    @property
    def checkpoint_failures(self) -> int:
        """Policy-driven checkpoint failures over the engine's lifetime.

        Counts the attached checkpointer's failures *plus* those of any
        checkpointer that was since detached or replaced -- a swallowed
        checkpoint failure stays on the health record either way.
        """
        current = (
            self._checkpointer.checkpoint_failures
            if self._checkpointer is not None
            else 0
        )
        return self._checkpoint_failures_absorbed + current

    def _levels(self) -> Dict[str, Union[int, float]]:
        """This engine's levels, read from their owners now.

        Update totals, :class:`IOStats`, breaker and page state and the
        checkpoint failures have one home each (the engine, its memory,
        its breaker, its pool, its checkpointers); this table is the one
        read of them behind :meth:`metrics`' gauges and :meth:`health`.
        """
        levels: Dict[str, Union[int, float]] = {
            "engine.updates_processed": self._updates_processed,
            "engine.batches_applied": self._batches_applied,
        }
        stats = self.io_stats
        if stats is not None:
            levels.update((f"io.{key}", v) for key, v in stats.snapshot().items())
        breaker = self.memory.breaker if self.memory is not None else None
        if breaker is not None:
            levels["breaker.times_opened"] = breaker.times_opened
            levels["breaker.rejections"] = breaker.rejections
            levels["breaker.probes"] = breaker.probes
            levels["breaker.open"] = int(breaker.state == "open")
        if self._pool.is_paged:
            levels.update((f"page.{key}", v) for key, v in self._pool.page_stats().items())
        levels["checkpoint.failures_total"] = self.checkpoint_failures
        return levels

    def metrics(self, format: str = "snapshot"):
        """The process-wide metrics, with this engine's levels as gauges.

        ``format`` selects the representation: ``"snapshot"`` (default)
        returns the picklable
        :class:`~repro.observability.metrics.MetricsSnapshot`,
        ``"prometheus"`` the text exposition string, ``"json"`` a
        plain-dict dump.  The registry is process-wide, so counters and
        spans from every engine in the process land in one place --
        exactly ``default_registry().snapshot()`` -- while the gauges
        are this engine's levels, read when this is called.
        """
        snap = default_registry().snapshot()
        snap.gauges = {name: float(value) for name, value in self._levels().items()}
        if format == "snapshot":
            return snap
        if format == "prometheus":
            from repro.observability.exposition import prometheus_text

            return prometheus_text(snap)
        if format == "json":
            from repro.observability.exposition import metrics_json

            return metrics_json(snap)
        raise ValueError(
            f"unknown metrics format {format!r} (use 'snapshot', 'prometheus', or 'json')"
        )

    def health(self) -> dict:
        """One-call overload/degradation snapshot of the engine.

        Summarises the overload plane's telemetry -- pressure events,
        deadline misses, breaker rejections and state, working-set
        degradations, checkpoint failures -- under a single ``status``:
        ``"ok"`` (nothing degraded), ``"degraded"`` (pressure, missed
        deadlines, or failed checkpoints were absorbed; answers remain
        exact), or ``"circuit-open"`` (the device breaker is currently
        shedding I/O).  The CLI's ``--report`` prints this; the chaos
        harness records it per cycle.  It reads the same level table as
        :meth:`metrics`' gauges, so the two always agree.
        """
        levels = self._levels()
        report: dict = {
            "status": "ok",
            "updates_processed": levels["engine.updates_processed"],
            "kernel_backend": self.resolved_kernel_backend,
        }
        if "io.block_reads" in levels:
            for key in ("pressure_events", "deadline_misses", "breaker_rejections"):
                report[key] = levels[f"io.{key}"]
        if "breaker.open" in levels:
            report["breaker"] = self.memory.breaker.snapshot()
        page_stats = {n[5:]: v for n, v in levels.items() if n.startswith("page.")}
        if page_stats:
            report["page_stats"] = page_stats
        if self._checkpointer is not None or self._checkpoint_failures_absorbed:
            report["checkpoint_failures"] = levels["checkpoint.failures_total"]
        if levels.get("breaker.open"):
            report["status"] = "circuit-open"
        elif any(levels.get(name, 0) > 0 for name in _DEGRADED_WHEN_NONZERO):
            report["status"] = "degraded"
        return report

    @property
    def last_query_stats(self) -> Optional[BoruvkaStats]:
        """Diagnostics of the most recent connectivity query."""
        return self._last_query_stats

    @property
    def buffering(self) -> Optional[BufferingSystem]:
        return self._buffering

    @property
    def resolved_kernel_backend(self) -> str:
        """Which hot-kernel implementation this engine actually runs.

        ``config.kernel_backend`` is the *request* (``"auto"`` may fall
        back); this is the outcome: the resolved provider's name,
        ``"cc"`` or ``"numpy"``.
        """
        return self._kernels.name

    @property
    def tensor_pool(self) -> NodeTensorPool:
        """The whole-graph tensor pool (flat in RAM, paged under a budget).

        The sharded parallel ingest layer folds into this directly.
        """
        return self._pool

    def __repr__(self) -> str:
        mode = self.config.buffering.value
        return (
            f"GraphZeppelin(num_nodes={self.num_nodes}, rounds={self.num_rounds}, "
            f"buffering={mode}, updates={self._updates_processed})"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _buffering_page_bounds(self) -> np.ndarray:
        """Node-group boundaries the buffering layer collects columns by.

        The paged pool's own page boundaries out of core, and even node
        groups of at most :data:`~repro.sketch.tensor_pool.MAX_PAGE_NODES`
        nodes for the in-RAM pool (a gutter's capacity scales with its
        group, so the group size bounds the column one emission folds).
        """
        if self._pool.is_paged:
            return self._pool.page_bounds
        return shard_bounds(self.num_nodes, -(-self.num_nodes // MAX_PAGE_NODES))

    def _build_buffering(self) -> Optional[BufferingSystem]:
        mode = self.config.buffering
        if mode is BufferingMode.NONE:
            return None
        if mode is BufferingMode.LEAF_GUTTERS:
            return LeafGutters(
                num_nodes=self.num_nodes,
                node_sketch_bytes=self.node_sketch_bytes,
                fraction=self.config.gutter_fraction,
                memory=self.memory,
                page_bounds=self._buffering_page_bounds(),
            )
        if mode is BufferingMode.GUTTER_TREE:
            return GutterTree(
                num_nodes=self.num_nodes,
                node_sketch_bytes=self.node_sketch_bytes,
                memory=self.memory,
                page_bounds=self._buffering_page_bounds(),
            )
        raise ConfigurationError(f"unknown buffering mode {mode!r}")

    def _ingest(self, edge: Edge, validated: bool = False) -> None:
        u, v = edge
        self._updates_processed += 1
        registry = default_registry()
        if registry.enabled:
            registry.counter("ingest.updates").inc()
        if self._buffering is None:
            self._pool.apply_node_batch(u, [v])
            self._pool.apply_node_batch(v, [u])
            self._batches_applied += 2
        else:
            self._apply_emitted(self._buffering.insert_edge(u, v))
        self._note_checkpoint_progress(1)

    def _apply_emitted(self, batches: Sequence[PageBatch]) -> None:
        """Apply the page batches the buffering layer emitted.

        In RAM, where a fold cannot fail part way, the page columns are
        concatenated and handed to the pool as **one** mixed column: a
        flush can emit hundreds of batches (one per gutter), and the
        fold kernel takes them in a single pass whatever pages they
        span.  Out of core each batch folds on its own, and a batch's
        fold mutates nothing before its page is resident, so when a
        storage error (a rotten page read, a failed write-back)
        propagates, the failing batch and every one after it are
        restored to the buffers first: the updates stay accepted and
        the next flush applies them.
        """
        page_batches = [b for b in batches if len(b) > 0]
        if self._pool.is_paged:
            applied = 0
            try:
                for batch in page_batches:
                    self._apply_batch(batch)
                    applied += 1
            except BaseException:
                self._buffering.restore(page_batches[applied:])
                raise
            return
        if len(page_batches) <= 1:
            for batch in page_batches:
                self._apply_batch(batch)
            return
        dsts = np.concatenate([b.dsts for b in page_batches])
        neighbors = np.concatenate([b.neighbors for b in page_batches])
        lo = np.minimum(dsts, neighbors)
        hi = np.maximum(dsts, neighbors)
        self._pool.apply_updates(dsts, self.encoder.encode_canonical_pairs(lo, hi))
        self._batches_applied += len(page_batches)

    def _apply_batch(self, batch: PageBatch) -> None:
        """Fold one emitted page column into the sketch state.

        The whole mixed-node column encodes vectorised and folds through
        :meth:`~repro.sketch.tensor_pool.NodeTensorPool.fold_page_batch`
        -- for a paged pool that is exactly one page pin.
        """
        if len(batch) == 0:
            return
        lo = np.minimum(batch.dsts, batch.neighbors)
        hi = np.maximum(batch.dsts, batch.neighbors)
        self._pool.fold_page_batch(
            batch.node_lo,
            batch.node_hi,
            batch.dsts,
            self.encoder.encode_canonical_pairs(lo, hi),
        )
        self._batches_applied += 1
