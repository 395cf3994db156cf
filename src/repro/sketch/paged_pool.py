"""The out-of-core tensor pool: round-major sketch state in node-group pages.

:class:`PagedTensorPool` is the out-of-core twin of
:class:`~repro.sketch.tensor_pool.NodeTensorPool`: the same round-major
bucket tensors, but partitioned into contiguous node-range **pages** --
node-group slabs whose serialised payload is a whole number of device
blocks -- stored through :class:`~repro.memory.hybrid.HybridMemory` as
raw byte payloads.  The pool keeps an **LRU-pinned working set** of
pages in preallocated **frames**: page-sized byte buffers whose contents
*are* the payload, the page's tensors being views of them.  A fold pins
each page it touches (reading it from the device into a free frame if
needed), XORs into it, and marks it dirty, and dirty pages write back
through the hybrid memory -- handed a view of the frame -- when the
working set evicts them (paying modelled SSD I/O once per page instead
of once per node).  Bytes move once each way; nothing is allocated.

Folds run through the parent's entry points into this pool's one fold
path: the updates are grouped by page, and each page is pinned and
handed to the kernel provider's ``fold_page``, which folds straight into
the pinned page's tensors at page-local offsets.

Layout.  A page covering nodes ``[lo, hi)`` holds one C-order tensor of
shape ``(num_rounds, hi - lo, cols, rows)`` per bucket plane of the
geometry, back to back in plane order.  Round-major
*within the page* means one Boruvka round of the page is a contiguous
byte range of the payload, so the query side rebuilds a whole round
slab with **one batched range read**
(:meth:`~repro.memory.hybrid.HybridMemory.load_ranges`): a page that is
not resident contributes only the blocks its round stripe straddles, roughly
``1 / num_rounds`` of the page, instead of a whole-page (or per-node
blob) round trip, and the round's stripes share one device operation
and are verified a scratchful at a time.  The assembled slab feeds the
*unchanged* whole-round machinery of the parent class -- queries,
snapshots and per-node views all read :meth:`_round_view`, which is what
this pool overrides, with the bundle accessor -- so
:func:`~repro.core.boruvka.vectorized_spanning_forest` is the single
query driver for in-RAM and out-of-core engines alike.

Because every fold is the same hash + segmented-XOR kernel over the
same seeds and XOR folding is order-independent, a paged pool fed any
interleaving of the same updates holds buckets **bit-identical** to the
in-RAM pool (property-tested across RAM budgets, page sizes, and
buffering modes).

RAM accounting.  There is one RAM tier and this pool holds it:
``resident_pages + 1`` frames, allocated once and *reserved* from the
hybrid memory's budget.  The spare lets a page be read in before the
LRU victim is written back (the device-op order seeded fault plans are
keyed on); a frame beyond the reservation exists only while every
resident page is pinned or a write-back has failed.  Query-side slab
assembly is charged the same way: each round's whole-graph slab
(``1 / num_rounds`` of the pool -- exactly what the whole-round query
engine scans, in RAM or out of core) is assembled into a persistent
per-plane buffer reserved at the first round read (a query's, or a
snapshot's), and the memory charges its range-read scratch beside it,
making the budget a hard ceiling for queries and snapshots too.  The remaining floors: a budget smaller than one round
slab (or two frames) still allocates them and reserves what there was.

Concurrency: page pin/unpin/evict bookkeeping -- and with it all
hybrid-memory traffic, the query side's round batches included (they
share the memory's one range scratch, so range reads are not
re-entrant) -- serialises under one lock, while the
folds themselves (the expensive kernels) run outside it.  A pinned page
is never evicted and its frame never reused, so a fold into a pinned
page cannot land in a frame that meanwhile holds another page, even
when every resident page is pinned; nothing may keep a view of a
page's tensors past its unpin, because the frame goes on to hold
another page.  Ingest into a paged pool is serial (sharded ingest needs
the in-RAM pool), but nothing here assumes one folding thread.
Queries concurrent with folds are **not** supported, matching the
parent pool's contract: fold, publish, then query.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.edge_encoding import EdgeEncoder
from repro.exceptions import ConfigurationError
from repro.kernels.numpy_kernels import NUMPY_KERNELS
from repro.memory.hybrid import HybridMemory
from repro.observability.tracing import span
from repro.sketch.geometry import SketchGeometry
from repro.sketch.tensor_pool import MAX_PAGE_NODES, NodeTensorPool

#: Default target payload size of one page, in device blocks (16 KB
#: blocks -> 256 KB pages).  Big enough that one page-in amortises over
#: thousands of buffered updates, small enough that a handful of pages
#: fit modest RAM budgets.
DEFAULT_PAGE_TARGET_BLOCKS = 16


def plan_page_bounds(
    num_nodes: int,
    node_bytes: int,
    block_size: int,
    nodes_per_page: Optional[int] = None,
    target_blocks: int = DEFAULT_PAGE_TARGET_BLOCKS,
) -> np.ndarray:
    """Contiguous node-range page boundaries for a paged pool.

    Pages hold ``nodes_per_page`` nodes (the tail page may be smaller).
    The automatic size targets ``target_blocks`` device blocks of
    payload per page; either way a page holds at most
    :data:`~repro.sketch.tensor_pool.MAX_PAGE_NODES` nodes.  Returns
    ``num_pages + 1`` ascending boundaries.
    """
    if nodes_per_page is None:
        nodes_per_page = max(1, (target_blocks * block_size) // max(node_bytes, 1))
    nodes_per_page = int(min(max(nodes_per_page, 1), MAX_PAGE_NODES))
    bounds = np.arange(0, num_nodes + nodes_per_page, nodes_per_page, dtype=np.int64)
    bounds[-1] = num_nodes
    if bounds.size >= 2 and bounds[-1] == bounds[-2]:
        bounds = bounds[:-1]
    return bounds


class PagedTensorPool(NodeTensorPool):
    """A :class:`NodeTensorPool` whose tensors live in out-of-core pages.

    Parameters (beyond the parent's)
    --------------------------------
    memory:
        The hybrid memory pages are stored through.  Must be
        byte-budgeted (an unbounded memory means the plain in-RAM pool
        should be used instead).
    nodes_per_page:
        Page granularity; ``None`` picks a size targeting
        :data:`DEFAULT_PAGE_TARGET_BLOCKS` device blocks per page.
    resident_pages:
        Working-set budget: how many deserialised pages the pool keeps
        pinned at once.  ``None`` sizes it to half the memory's RAM
        budget, floored at one page -- a fold always needs a live
        tensor to scatter into.  The working set's frames (plus one
        spare) are **reserved** from the hybrid memory's budget
        (:meth:`~repro.memory.hybrid.HybridMemory.reserve`).
    """

    def __init__(
        self,
        num_nodes: int,
        encoder: EdgeEncoder,
        memory: HybridMemory,
        graph_seed: int = 0,
        geometry: Optional[SketchGeometry] = None,
        nodes_per_page: Optional[int] = None,
        resident_pages: Optional[int] = None,
        kernels=NUMPY_KERNELS,
    ) -> None:
        if memory is None or memory.is_unbounded:
            raise ConfigurationError(
                "PagedTensorPool needs a byte-budgeted HybridMemory; "
                "use NodeTensorPool when everything fits in RAM"
            )
        super().__init__(
            num_nodes,
            encoder,
            graph_seed=graph_seed,
            geometry=geometry,
            kernels=kernels,
            _allocate=False,
        )
        self.memory = memory
        node_bytes = self.geometry.allocated_bytes_per_node
        self.page_bounds = plan_page_bounds(
            self.num_nodes,
            node_bytes,
            memory.block_size,
            nodes_per_page=nodes_per_page,
        )
        self.num_pages = int(self.page_bounds.size - 1)
        self.nodes_per_page = int(self.page_bounds[1] - self.page_bounds[0])
        # Pages are *uniform*: the tail page's tensor is padded to the
        # full node count (unused node rows stay zero), so every payload
        # is the same whole number of device blocks.
        raw_bytes = self.nodes_per_page * node_bytes
        block = memory.block_size
        self._page_bytes = -(-raw_bytes // block) * block
        if resident_pages is None:
            budget = (memory.ram_bytes or 0) // 2
            resident_pages = budget // max(self._page_bytes, 1)
        self.resident_pages = int(min(max(resident_pages, 1), self.num_pages))
        # The working set's RAM comes out of the shared budget: the
        # frames (one spare) are reserved and allocated exactly once.
        frames = self.resident_pages + 1
        self._working_set_reserved = memory.reserve(frames * self._page_bytes)
        #: Frames not holding a page (last released, first taken).
        self._free_frames: List[np.ndarray] = [self._new_frame() for _ in range(frames)]
        # Page-local fold segment mapping: bucket (dst, slot) of a page
        # fold lands at round-major segment
        # dst * num_columns + _combined_offsets[slot] of the page.
        slots = np.arange(self.num_slots, dtype=np.int64)
        self._combined_offsets = (slots // self.num_columns) * (
            self.nodes_per_page * self.num_columns
        ) + (slots % self.num_columns)
        self._page_elems = (
            self.num_rounds * self.nodes_per_page * self.num_columns * self.num_rows
        )
        #: Byte offset of each plane's tensor inside a page payload.
        itemsizes = [dtype.itemsize for _, dtype in self.geometry.planes]
        self._plane_offsets = np.cumsum([0, *itemsizes[:-1]]) * self._page_elems

        self._lock = threading.RLock()
        #: page -> one bucket tensor per plane; insertion order doubles
        #: as LRU recency (moved on access).
        self._resident: Dict[int, Tuple[np.ndarray, ...]] = {}
        #: page -> the frame those tensors are views of.
        self._frames: Dict[int, np.ndarray] = {}
        self._pins: Dict[int, int] = {}
        self._dirty: set = set()
        #: Persistent round-slab scratch, one whole-graph round slab per
        #: bucket plane, allocated lazily at the first round read and
        #: *reserved* from the hybrid memory's budget -- query scratch
        #: is charged against the RAM budget like the fold-side working
        #: set, not stacked on top of it.
        self._slab_bufs: Optional[Tuple[np.ndarray, ...]] = None
        self._slab_reserved_bytes = 0
        #: per-plane ``(round, version)`` tag of the slab currently held
        #: in the reusable buffer above.
        self._assembled: Dict[int, Tuple[int, int]] = {}
        # Working-set telemetry (page_ins counts misses that had to read
        # the device; partial_reads counts query-side round stripes
        # served by byte-range loads; frame-table hits and misses at
        # _pin are memory.stats.cache_hits / cache_misses).
        self.page_ins = 0
        self.page_writebacks = 0
        self.partial_reads = 0
        #: Dirty evictions whose device write-back raised ``OSError``
        #: (the page stayed resident and dirty -- no data was lost).
        self.page_writeback_failures = 0
        #: Times the working set was degraded to the one-page floor by
        #: a memory-pressure event (throughput drops, answers do not).
        self.pressure_degradations = 0
        memory.add_pressure_listener(self._on_memory_pressure)

    # ------------------------------------------------------------------
    # page geometry
    # ------------------------------------------------------------------
    @property
    def is_paged(self) -> bool:
        return True

    def page_of(self, node: int) -> int:
        """The page owning ``node``."""
        return int(np.searchsorted(self.page_bounds, node, side="right") - 1)

    def page_span(self, page: int) -> Tuple[int, int]:
        """Node range ``[lo, hi)`` of one page."""
        if not 0 <= page < self.num_pages:
            raise ValueError(f"page {page} outside [0, {self.num_pages})")
        return int(self.page_bounds[page]), int(self.page_bounds[page + 1])

    def page_payload_bytes(self, page: int) -> int:
        """Serialised page size: uniform, a whole number of device blocks."""
        return self._page_bytes

    def _round_stripe_offset(self, plane: int, round_index: int) -> int:
        """Byte offset of one plane's round stripe inside a page payload."""
        itemsize = self.geometry.planes[plane][1].itemsize
        stripe = self.nodes_per_page * self.num_columns * self.num_rows * itemsize
        return int(self._plane_offsets[plane]) + round_index * stripe

    def _page_key(self, page: int) -> Tuple[str, int]:
        return ("sketch-page", page)

    def _page_shape(self) -> Tuple[int, int, int, int]:
        return (self.num_rounds, self.nodes_per_page, self.num_columns, self.num_rows)

    # ------------------------------------------------------------------
    # the LRU-pinned working set
    # ------------------------------------------------------------------
    def _new_frame(self) -> np.ndarray:
        return np.empty(self._page_bytes, dtype=np.uint8)

    def _take_frame(self) -> np.ndarray:
        """A free frame, or an overflow frame while the set is over budget."""
        return self._free_frames.pop() if self._free_frames else self._new_frame()

    def _release_frame(self, frame: np.ndarray) -> None:
        """Take back a frame no page holds; overflow frames are dropped."""
        if len(self._free_frames) + len(self._resident) <= self.resident_pages:
            self._free_frames.append(frame)

    def _frame_tensors(self, frame: np.ndarray) -> Tuple[np.ndarray, ...]:
        """The page's plane tensors as views of ``frame`` (the payload layout)."""
        return tuple(
            frame[offset : offset + self._page_elems * dtype.itemsize]
            .view(dtype)
            .reshape(self._page_shape())
            for offset, (_, dtype) in zip(self._plane_offsets, self.geometry.planes)
        )

    def _page_in(self, page: int) -> Tuple[np.ndarray, ...]:
        """Fill a frame with ``page`` and publish it as resident (lock held).

        The hybrid memory reads into the frame and verifies it there
        (block digests and payload record) *before* the page enters the
        frame table: a read that raises hands the frame back and
        publishes nothing.
        """
        frame = self._take_frame()
        try:
            key = self._page_key(page)
            if key in self.memory:
                with span("page.materialize"):
                    self.memory.load(key, frame)
                    self.page_ins += 1
            else:
                # Never-written pages are implicitly all-zero: sketches
                # are allocated lazily, construction spills nothing.
                frame.fill(0)
        except BaseException:
            self._release_frame(frame)
            raise
        entry = self._frame_tensors(frame)
        self._resident[page] = entry
        self._frames[page] = frame
        return entry

    def _write_back(self, page: int) -> None:
        """Store a resident page; the device copies out of its frame."""
        with span("page.writeback"):
            self.memory.store(self._page_key(page), self._frames[page])
            self.page_writebacks += 1

    def _pin(self, page: int) -> Tuple[np.ndarray, ...]:
        """Pin a page into the working set; pair with :meth:`_unpin`.

        The tensors are views of the page's frame, valid until the unpin.
        """
        with span("page.pin"), self._lock:
            entry = self._resident.get(page)
            if entry is not None:
                self.memory.stats.cache_hits += 1
                # Refresh recency: dict order is the LRU order.
                self._resident[page] = self._resident.pop(page)
                self._pins[page] = self._pins.get(page, 0) + 1
                return entry
            self.memory.stats.cache_misses += 1
            entry = self._page_in(page)
            # Pin BEFORE evicting: when every other resident page is
            # pinned (a one-page working set, or concurrent pins), the
            # eviction sweep must not pick the page we just brought in
            # -- its upcoming fold would land in a frame that now
            # belongs to another page and silently vanish.
            self._pins[page] = self._pins.get(page, 0) + 1
            try:
                self._evict_to_budget()
            except BaseException:
                # The caller never sees the pin, so it cannot undo it.
                self._unpin(page)
                raise
            return entry

    def _unpin(self, page: int) -> None:
        with self._lock:
            remaining = self._pins.get(page, 0) - 1
            if remaining <= 0:
                self._pins.pop(page, None)
            else:
                self._pins[page] = remaining

    @contextmanager
    def _pinned(self, page: int, dirty: bool = True):
        """Pin ``page`` for the block; a clean exit marks it dirty."""
        entry = self._pin(page)
        try:
            yield entry
            if dirty:
                with self._lock:
                    self._dirty.add(page)
        finally:
            self._unpin(page)

    def _evict_to_budget(self) -> None:
        """Evict least-recently-used unpinned pages, writing back dirty ones.

        Called with the lock held.  If every resident page is pinned the
        budget is allowed to overflow -- evicting a page mid-fold would
        lose its updates -- and pressure resolves at the next unpinned
        eviction opportunity.

        A write-back that fails must not lose the page: its buckets
        exist nowhere but in its frame.  The victim goes back
        resident-and-dirty at the MRU end (so the retry does not
        re-pick it first).  An ``OSError`` (a flaky device; the
        fault-injection tests replay this) is counted and the sweep
        stops with the budget temporarily overflowed -- the next
        eviction opportunity retries, like the all-pinned overflow
        above; anything else (an open circuit breaker) propagates.
        """
        if len(self._resident) <= self.resident_pages:
            return
        with span("page.evict"):
            while len(self._resident) > self.resident_pages:
                victim = next(
                    (p for p in self._resident if not self._pins.get(p)), None
                )
                if victim is None:
                    return
                # Out of the table while written: a pressure event inside
                # store() re-enters this sweep and must not re-pick it.
                entry = self._resident.pop(victim)
                try:
                    if victim in self._dirty:
                        self._write_back(victim)
                        self._dirty.discard(victim)
                except OSError:
                    self._resident[victim] = entry
                    self.page_writeback_failures += 1
                    return
                except BaseException:
                    self._resident[victim] = entry
                    raise
                self._release_frame(self._frames.pop(victim))

    def _on_memory_pressure(self) -> None:
        """Degrade the working set to the one-page floor under pressure.

        Registered with the hybrid memory's pressure listeners: when a
        reservation is refused or an injected allocation-pressure fault
        fires, the pool shrinks ``resident_pages`` to 1, evicts down to
        the new budget, frees the emptied frames and hands their
        reservation back.  Throughput degrades (more page churn); answers
        do not -- the fold/query paths never depended on the working-set
        size.  The degradation is sticky until :meth:`restore_working_set`.
        """
        with self._lock:
            if self.resident_pages <= 1:
                return
            freed = (self.resident_pages - 1) * self._page_bytes
            self.resident_pages = 1
            self._evict_to_budget()
            del self._free_frames[max(0, 2 - len(self._resident)) :]
            released = self.memory.release(min(freed, self._working_set_reserved))
            self._working_set_reserved -= released
            self.pressure_degradations += 1

    def restore_working_set(self, resident_pages: Optional[int] = None) -> int:
        """Re-grow a degraded working set once pressure has passed.

        Re-reserves bytes from the hybrid memory's budget for up to
        ``resident_pages`` pages (the original construction-time budget
        when ``None``), raises the working-set budget by however many
        whole pages the reservation actually covered, allocates their
        frames and hands the sub-page remainder straight back.  Returns
        the new budget.
        """
        with self._lock:
            if resident_pages is None:
                budget = (self.memory.ram_bytes or 0) // 2
                resident_pages = budget // max(self._page_bytes, 1)
            target = int(min(max(resident_pages, 1), self.num_pages))
            if target <= self.resident_pages:
                return self.resident_pages
            wanted = (target - self.resident_pages) * self._page_bytes
            taken = self.memory.reserve(wanted)
            regained = taken // self._page_bytes
            self.memory.release(taken - regained * self._page_bytes)
            self._working_set_reserved += regained * self._page_bytes
            self.resident_pages += regained
            self._free_frames.extend(self._new_frame() for _ in range(regained))
            return self.resident_pages

    def sync(self) -> None:
        """Write every dirty resident page back to the hybrid memory.

        The working set stays resident (and clean); scrub and repair
        call this to make the device authoritative.  A
        failed write-back leaves exactly the unwritten pages dirty (the
        error propagates -- sync callers need the device to actually
        be authoritative), so a later sync over a healed device
        finishes the job.
        """
        with self._lock:
            for page in sorted(self._dirty):
                if page in self._resident:
                    self._write_back(page)
                self._dirty.discard(page)

    def replace_page(self, page: int, tensors: Sequence[np.ndarray]) -> None:
        """Drop any resident copy of ``page`` and store ``tensors`` as the page.

        The write path of snapshot loading and read-repair: the new
        state comes from outside the pool, so what the working set holds
        is discarded unwritten (it was read from, or would write back
        over, the bytes being replaced) with every assembled round slab,
        and the page-shaped tensors go to the device through a borrowed
        frame without entering the working set.
        """
        with self._lock:
            if self._resident.pop(page, None) is not None:
                self._release_frame(self._frames.pop(page))
            self._dirty.discard(page)
            self._assembled.clear()
            frame = self._take_frame()
            try:
                views = self._frame_tensors(frame)
                for view, tensor in zip(views, tensors):
                    view[...] = tensor
                frame[sum(view.nbytes for view in views) :] = 0  # block padding
                self.memory.store(self._page_key(page), frame)
            finally:
                self._release_frame(frame)

    def scrub(self) -> List[int]:
        """Verify checksums of every stored page; return the corrupt ones.

        Walks all pages the hybrid memory holds
        through :meth:`~repro.memory.hybrid.HybridMemory.verify_key`,
        which checks both the per-block device digests and the
        whole-payload digest.  Returns the sorted page indices whose
        stored bytes failed -- the exact input read-repair needs.  Call
        :meth:`sync` first so dirty resident pages are represented on
        the device; the scrub itself mutates nothing.
        """
        with self._lock:
            corrupt = self.memory.scrub()
        return sorted(
            int(key[1])
            for key in corrupt
            if isinstance(key, tuple) and len(key) == 2 and key[0] == "sketch-page"
        )

    # ------------------------------------------------------------------
    # folds (updates)
    # ------------------------------------------------------------------
    def _split_by_page(
        self, pages: np.ndarray, columns: Sequence[np.ndarray]
    ) -> List[Tuple[int, List[np.ndarray]]]:
        """Group columns by page id: ascending ``(page, column_groups)``.

        One stable argsort of the (small-int) page ids groups the whole
        batch, mirroring the sharded partition step.
        """
        if self.num_pages <= np.iinfo(np.int16).max:
            order = np.argsort(pages.astype(np.int16), kind="stable")
        else:
            order = np.argsort(pages, kind="stable")
        sorted_pages = pages[order]
        cuts = np.flatnonzero(
            np.concatenate([[True], sorted_pages[1:] != sorted_pages[:-1]])
        )
        ends = np.append(cuts[1:], pages.size)
        groups = []
        for start, stop in zip(cuts.tolist(), ends.tolist()):
            rows = order[start:stop]
            groups.append((int(sorted_pages[start]), [col[rows] for col in columns]))
        return groups

    def _fold(
        self, indices: np.ndarray, dst_columns: Sequence[np.ndarray], split: bool = False
    ) -> int:
        """Fold validated edge slots page by page, whatever the provider.

        The updates are grouped by page -- a single column whose
        destinations all lie in one page, which is what
        ``fold_page_batch`` is handed, goes to that page as it is -- and
        the pages are visited in ascending order, each pinned only for
        its own ``fold_page``.  A mirrored edge's two copies are hashed
        per page (hashing is deterministic, so the buckets stay
        bit-identical).  Never split by round: a fold pins pages, and
        the LRU and the order of device operations must not depend on
        which thread folds which round range.  Paged pools keep no
        stamps.
        """
        groups = None
        if len(dst_columns) == 1:
            dsts = dst_columns[0]
            page = self.page_of(dsts.min())
            if dsts.max() < self.page_bounds[page + 1]:
                groups = [(page, indices, dsts)]
        if groups is None:
            dsts = np.concatenate(dst_columns).astype(np.int64, copy=False)
            rows = np.tile(np.arange(indices.size), len(dst_columns))
            pages = np.searchsorted(self.page_bounds, dsts, side="right") - 1
            groups = [
                (page, indices[page_rows], page_dsts)
                for page, (page_dsts, page_rows) in self._split_by_page(pages, [dsts, rows])
            ]
        for page, page_indices, page_dsts in groups:
            with self._pinned(page) as entry:
                self._kernels.fold_page(
                    self, entry, page_indices, page_dsts - self.page_bounds[page]
                )
        return len(dst_columns) * int(indices.size)

    def apply_edge_rows(self, endpoints: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The numpy provider's ``ingest_edges`` whatever the pool's provider:
        a compiled ingest writes an in-RAM pool's planes, and this pool
        folds the checked rows page by page through :meth:`apply_edges`."""
        return NUMPY_KERNELS.ingest_edges(self, endpoints)

    # The fold entry points are the parent's.  They are bound on this
    # class as well because bench/trace.py patches them per class and
    # reads a call's update count off its positional arguments.
    apply_updates = NodeTensorPool.apply_updates
    apply_edges = NodeTensorPool.apply_edges
    apply_node_batch = NodeTensorPool.apply_node_batch
    fold_shard = NodeTensorPool.fold_shard
    fold_shard_hashed = NodeTensorPool.fold_shard_hashed

    # ------------------------------------------------------------------
    # query-side slab assembly
    # ------------------------------------------------------------------
    def _read_round_stripes(
        self, plane: int, round_index: int, stripes: Iterable[Tuple[int, np.ndarray]]
    ) -> None:
        """Copy each ``(page, out)`` page's plane stripe of a round into its ``out``.

        ``out`` is a C-contiguous ``(page_nodes, cols, rows)`` array
        (the page's slice of the query slab), so tail pages hand over
        only the node rows they own.  A resident page copies out of its
        frame and a never-written one is zeros; every other page pays a
        partial-range read covering only this round's bytes, all of
        them in **one** batched
        :meth:`~repro.memory.hybrid.HybridMemory.load_ranges` that
        verifies the blocks before copying them straight into ``out``.
        Queries deliberately do not promote pages into the working set
        -- a round scan touching every page would evict the fold path's
        hot pages for read-only data.
        """
        offset = self._round_stripe_offset(plane, round_index)
        with self._lock:
            requests = []
            for page, out in stripes:
                entry = self._resident.get(page)
                if entry is not None:
                    out[...] = entry[plane][round_index, : out.shape[0]]
                    continue
                memory_key = self._page_key(page)
                if memory_key not in self.memory:
                    out.fill(0)
                    continue
                requests.append((memory_key, offset, out))
            if requests:
                self.memory.load_ranges(requests)
                self.partial_reads += len(requests)

    def _slab_buffer(self, plane: int) -> np.ndarray:
        """The persistent whole-graph round-slab buffer of one bucket plane.

        Allocated once, at the first round read, and its bytes are reserved
        from the hybrid memory's budget
        (:meth:`~repro.memory.hybrid.HybridMemory.reserve`) -- so the
        RAM budget is a hard ceiling for queries too, not just folds.
        Like the one-page working-set floor, a budget smaller than a
        single round slab still allocates the buffer (a whole-round
        query cannot scan less than one round); the reservation then
        simply claims whatever the budget had left.
        """
        with self._lock:
            if self._slab_bufs is None:
                shape = (self.num_nodes, self.num_columns, self.num_rows)
                bufs = tuple(np.empty(shape, dtype=dtype) for _, dtype in self.geometry.planes)
                self._slab_reserved_bytes = self.memory.reserve(
                    sum(buf.nbytes for buf in bufs)
                )
                self._slab_bufs = bufs
            return self._slab_bufs[plane]

    def _round_view(self, plane: int, round_index: int) -> np.ndarray:
        """Assemble one round's whole-graph slab of a plane from its page stripes.

        The slab (``1 / num_rounds`` of the plane, exactly what the
        whole-round query engine scans) is assembled into the
        budget-reserved reusable buffer, with one batched range read,
        and memoised per plane until the next fold, so a round's
        phase-1 / phase-2 decodes and the complement trick's whole-slab
        total share one assembly.  The returned array is *reused* by
        the plane's next assembly -- callers that outlive the round
        (``raw_tensors``, snapshots) copy or write it out first.
        """
        buf = self._slab_buffer(plane)
        with self._lock:
            if self._assembled.get(plane) == (round_index, self._version):
                return buf
            version = self._version
        bounds = self.page_bounds.tolist()
        self._read_round_stripes(
            plane,
            round_index,
            ((page, buf[bounds[page] : bounds[page + 1]]) for page in range(self.num_pages)),
        )
        with self._lock:
            self._assembled[plane] = (round_index, version)
        return buf

    # ------------------------------------------------------------------
    # per-node views
    # ------------------------------------------------------------------
    def _node_bundle_arrays(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """One node's bundle, unpacked into fresh arrays from its pinned page.

        Nothing may keep a view of the page: the frame goes on to hold
        another page.
        """
        page = self.page_of(node)
        with self._pinned(page, dirty=False) as entry:
            index = node - int(self.page_bounds[page])
            return self.geometry.unpack([tensor[:, index] for tensor in entry])

    def page_stats(self) -> Dict[str, int]:
        """Working-set telemetry for reports and the CLI."""
        with self._lock:
            return {
                "num_pages": self.num_pages,
                "nodes_per_page": self.nodes_per_page,
                "page_payload_bytes": self.page_payload_bytes(0),
                "page_blocks": self.page_payload_bytes(0) // self.memory.block_size,
                "resident_pages": len(self._resident),
                "resident_budget": self.resident_pages,
                "page_ins": self.page_ins,
                "page_writebacks": self.page_writebacks,
                "page_writeback_failures": self.page_writeback_failures,
                "partial_reads": self.partial_reads,
                "query_slab_reserved_bytes": self._slab_reserved_bytes,
                "pressure_degradations": self.pressure_degradations,
            }

    def __repr__(self) -> str:
        return (
            f"PagedTensorPool({self.geometry}, graph_seed={self.graph_seed}, "
            f"pages={self.num_pages}x{self.nodes_per_page}, "
            f"page_bytes={self.page_payload_bytes(0)}, "
            f"resident={self.resident_pages})"
        )
