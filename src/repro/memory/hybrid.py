"""RAM budget + block device glued into one hybrid memory.

:class:`HybridMemory` is the substrate the rest of the system stores
its large objects through.  There is **one RAM tier and the memory
does not own it**: payloads live on the
:class:`~repro.memory.block_device.FileBlockDevice` (a scratch file,
outside the process heap) and in whatever working
set a client keeps (the paged tensor pool's page frames), so
:meth:`~HybridMemory.store` writes through to the device and
:meth:`~HybridMemory.load` reads into the caller's buffer, each moving
the bytes once and charging block I/Os and modelled latency.  The RAM
budget is a ledger: clients :meth:`~HybridMemory.reserve` what they
hold, the memory's one buffer of its own (the range-read scratch) is
charged beside them, and the sum never exceeds ``ram_bytes``.  With an
unlimited budget nothing is refused -- the "everything fits in RAM"
configuration of the experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.exceptions import (
    CircuitOpenError,
    CorruptionError,
    DeadlineExceededError,
    StorageError,
)
from repro.integrity.digest import Buffer, byte_view
from repro.kernels.numpy_kernels import NUMPY_KERNELS
from repro.memory.block_device import DEFAULT_BLOCK_SIZE, DeviceProfile, FileBlockDevice
from repro.memory.metrics import IOStats
from repro.observability.tracing import span
from repro.resilience.overload import CLOSED

T = TypeVar("T")

#: Cap of the range-read scratch, in device blocks (1 MiB of 16 KB
#: blocks): a round's batch of stripe reads is hashed and verified one
#: scratchful at a time.
RANGE_SCRATCH_BLOCKS = 64


@dataclass(frozen=True)
class RetryPolicy:
    """Transient-``OSError`` retry with exponential backoff for device calls.

    Real storage fails transiently (a USB hiccup, an NFS timeout, a
    thin-provisioned volume briefly full); the hybrid memory retries
    the failed device call up to ``attempts`` total tries, sleeping
    ``backoff_seconds * multiplier**i`` between them, before letting
    the error surface.  Every failed try is counted in
    :class:`~repro.memory.metrics.IOStats` (``read_failures`` /
    ``write_failures``), retried or not, so a flaky device is visible
    even when every retry succeeds.
    """

    attempts: int = 3
    backoff_seconds: float = 0.01
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise StorageError("RetryPolicy needs at least one attempt")
        if self.backoff_seconds < 0:
            raise StorageError("backoff_seconds must be non-negative")

    def delay(self, failed_attempts: int) -> float:
        return self.backoff_seconds * self.multiplier ** max(failed_attempts - 1, 0)


class HybridMemory:
    """A keyed byte store on a block device, plus the RAM budget ledger.

    The device is a :attr:`device_type`: a :class:`FileBlockDevice`,
    whose bytes sit in a scratch file while its I/O is charged to a
    disk model.  Tests put their dict-backed fault-injection double in
    its place.

    Parameters
    ----------
    ram_bytes:
        RAM budget that :meth:`reserve` carves from.  ``None`` means
        unlimited (reservations are never refused or counted).
    block_size:
        Device block size ``B``.
    profile:
        Latency model of the backing device.
    retry:
        Optional :class:`RetryPolicy` wrapping every device read/write
        in transient-``OSError`` retry with backoff.  ``None`` (the
        default) surfaces the first failure.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`; when set,
        the plan is consulted before every device call and may raise an
        injected ``OSError`` -- the deterministic-fault-injection hook
        of the resilience tests.  ``site="block"`` corruption specs are
        forwarded to the device, which flips bits in stored blocks.
    deadline_seconds:
        Optional per-operation deadline on device calls: an attempt
        that ran longer (e.g. under an injected ``slow`` fault) raises
        :class:`~repro.exceptions.DeadlineExceededError` -- a
        ``TimeoutError``/``OSError``, so it composes with ``retry``
        like any transient failure and is counted in
        ``stats.deadline_misses``.
    breaker:
        Optional :class:`~repro.resilience.overload.CircuitBreaker`
        wrapping device I/O: it records whole-operation outcomes (after
        the retry budget, not per attempt), rejects calls with
        :class:`~repro.exceptions.CircuitOpenError` while open, and
        half-open-probes after its reset window.
        :class:`~repro.exceptions.CorruptionError` bypasses it
        entirely -- corruption is data damage, not device
        unavailability.
    kernels:
        The kernel provider of the owning engine, which hashes the
        blocks (every provider gives the same digests).

    Every device block and every stored payload carries an xxHash64
    digest; reads raise :class:`~repro.exceptions.CorruptionError` on
    mismatch, and :meth:`scrub` audits everything at rest.
    """

    device_type = FileBlockDevice

    def __init__(
        self,
        ram_bytes: Optional[int] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        profile: Optional[DeviceProfile] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan=None,
        deadline_seconds: Optional[float] = None,
        breaker=None,
        kernels=NUMPY_KERNELS,
    ) -> None:
        if ram_bytes is not None and ram_bytes < 0:
            raise StorageError("ram_bytes must be non-negative or None")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise StorageError("deadline_seconds must be positive or None")
        self.ram_bytes = ram_bytes
        self.retry = retry
        self.deadline_seconds = deadline_seconds
        self.breaker = breaker
        self.stats = IOStats()
        self.device = self.device_type(
            block_size=block_size,
            profile=profile,
            stats=self.stats,
            kernels=kernels,
        )
        self.fault_plan = fault_plan
        #: key -> ``(start_block, capacity_blocks, payload_length)``.
        self._allocations: Dict[Hashable, Tuple[int, int, int]] = {}
        #: Per-key *block* digest lists recorded at :meth:`store` time --
        #: the payload-level integrity record and, handed down to
        #: :meth:`BlockDevice.write_blob`, the write-time block digests,
        #: so the write path hashes every byte exactly once.
        self._payload_digests: Dict[Hashable, List[int]] = {}
        self._next_block = 0
        self._reserved_bytes = 0
        #: The one buffer the memory itself holds: :meth:`load_ranges_into`
        #: reads the blocks a batch of ranges straddles into it (at most
        #: :data:`RANGE_SCRATCH_BLOCKS` at a time, at least the largest
        #: range), charged to the budget as :attr:`cached_bytes`.
        self._range_scratch = np.empty(0, dtype=np.uint8)
        self._scratch_charged = 0
        #: Callbacks fired on every memory-pressure event (refused
        #: reservation or injected allocation squeeze); the paged pool
        #: registers its degrade-to-floor handler here.
        self._pressure_listeners: List[Callable[[], None]] = []
        self._in_pressure_callback = False

    # ------------------------------------------------------------------
    @property
    def fault_plan(self):
        return self._fault_plan

    @fault_plan.setter
    def fault_plan(self, plan) -> None:
        # Keep the device's reference in sync so block-corruption specs
        # reach the write path even when a plan is attached after
        # construction (the distributed workers do exactly that).
        self._fault_plan = plan
        self.device.fault_plan = plan

    @property
    def kernels(self):
        """The digest kernel provider (held by the device)."""
        return self.device.kernels

    @kernels.setter
    def kernels(self, provider) -> None:
        self.device.kernels = provider

    @property
    def is_unbounded(self) -> bool:
        """True when no RAM limit is in force (reservations are free)."""
        return self.ram_bytes is None

    @property
    def block_size(self) -> int:
        return self.device.block_size

    def store(self, key: Hashable, payload: Buffer) -> None:
        """Write (or replace) the payload for ``key`` on the device.

        ``payload`` is any contiguous byte buffer; the paged pool hands
        in a page frame and goes on reusing it, which is safe because
        the device keeps its own copy of every block.  The bytes are
        hashed **once**, here: the per-block digests go down to the
        device as its write-time records and, once the write has
        succeeded, become the payload record every later :meth:`load`
        is compared against.  A write that never happens (open breaker,
        faults past the retry budget) changes nothing -- the previous
        payload stays loadable -- so a caller still holding the bytes (a
        dirty resident page) simply keeps them.

        An unbounded memory does the same with a page: it has no RAM
        tier to hold it either, so only :meth:`reserve` differs.
        Nothing in ``src/`` stores through one (an unbounded engine
        gets the flat in-RAM pool).
        """
        view = byte_view(payload)
        digests = self.device.block_digests(view)
        if self.fault_plan is not None and self.fault_plan.on_memory_check():
            # Injected allocation squeeze: degrade (listeners shrink
            # their working sets), never refuse the bytes -- pressure
            # models load, and dropping a payload would lose data.
            self._note_pressure()
        num_blocks = max(1, -(-len(view) // self.block_size))
        previous = self._allocations.get(key)
        outgrown = previous is None or previous[1] < num_blocks
        if outgrown:
            start, capacity = self._next_block, num_blocks
        else:
            # Re-put inside an existing allocation: keep its full block
            # capacity on record, so a payload that shrinks and later
            # regrows (e.g. a recompacted page) stays in place instead
            # of taking a fresh allocation.
            start, capacity = previous[0], previous[1]

        def write() -> None:
            self.device.write_blob(start, view, _digests=digests)
            # From here on the blocks hold the new bytes -- even if the
            # attempt is then ruled past its deadline -- so the records
            # must describe them.
            self._allocations[key] = (start, capacity, len(view))
            self._payload_digests[key] = digests
            if outgrown:
                self._next_block = start + num_blocks
                if previous is not None:
                    # TRIM the superseded extent -- only now: a write that
                    # never happened must leave the old bytes readable.
                    for block_id in range(previous[0], previous[0] + previous[1]):
                        self.device.delete_block(block_id)

        self._device_call(write, is_write=True)

    def load(self, key: Hashable, out: Optional[Buffer] = None) -> Union[bytes, int]:
        """Read the payload for ``key`` off the device into ``out``.

        ``out`` is a writable contiguous buffer at least as long as the
        payload (the paged pool passes a page frame); the payload
        length is returned.  Without ``out`` the payload comes back as
        fresh ``bytes``.

        The bytes are hashed once, where they landed, and that one list
        of block digests is compared against two records: each block's
        write-time digest (inside the device) and the digests recorded
        at :meth:`store` time, so allocation bookkeeping bugs surface
        as :class:`~repro.exceptions.CorruptionError` too.  When this
        raises, ``out`` holds unverified bytes the caller must not
        publish.
        """
        start, _, length = self._allocations[key]
        buffer = bytearray(length) if out is None else out
        if length:
            # Read only the blocks the *current* payload spans -- after
            # a smaller re-put the allocation keeps its original
            # capacity, but the stale tail blocks are never touched.
            _, digests = self._device_call(
                lambda: self.device.read_into(start, -(-length // self.block_size), buffer),
                is_write=False,
            )
            if digests != self._payload_digests[key]:
                self.stats.checksum_failures += 1
                raise CorruptionError(
                    f"payload for key {key!r} failed checksum verification "
                    f"({length} bytes)"
                )
        return bytes(buffer) if out is None else length

    def load_range(
        self, key: Hashable, offset: int, length: int, out: Optional[Buffer] = None
    ) -> Union[bytes, int]:
        """Read ``length`` bytes at ``offset`` of ``key``'s payload into ``out``.

        One request of :meth:`load_ranges`.  Returns the bytes copied --
        the range is clipped to the payload -- or, without ``out``, the
        range itself as ``bytes``.
        """
        if offset < 0 or length < 0:
            raise StorageError("offset and length must be non-negative")
        if out is None:
            _, _, stored_length = self._allocations[key]
            buffer = bytearray(max(min(length, stored_length - offset), 0))
            self.load_ranges([(key, offset, buffer)])
            return bytes(buffer)
        return self.load_ranges([(key, offset, byte_view(out)[:length])])[0]

    def load_ranges(self, requests: Sequence[Tuple[Hashable, int, Buffer]]) -> List[int]:
        """Fill each ``out`` with the bytes at ``offset`` of ``key``'s payload.

        :meth:`load_ranges_into` for ``(key, offset, out)`` requests whose
        ``out`` (any writable contiguous buffer; its length is the
        range's) is a buffer of its own: the batch lands in one joined
        buffer, copied out once the whole batch has been verified.
        Returns the bytes copied per request.
        """
        views = [byte_view(out) for _, _, out in requests]
        lengths = np.array([len(view) for view in views], dtype=np.int64)
        at = np.cumsum(lengths) - lengths
        joined = np.empty(int(lengths.sum()), dtype=np.uint8)
        copied = self.load_ranges_into(
            [key for key, _, _ in requests],
            np.array([offset for _, offset, _ in requests], dtype=np.int64),
            joined, at, lengths,
        ).tolist()
        for view, start, nbytes in zip(views, at.tolist(), copied):
            view[:nbytes] = joined[start : start + nbytes]
        return copied

    def load_ranges_into(
        self,
        keys: Sequence[Hashable],
        offsets: np.ndarray,
        out: np.ndarray,
        at: np.ndarray,
        lengths: np.ndarray,
    ) -> np.ndarray:
        """Copy ``lengths[i]`` bytes at ``offsets[i]`` of ``keys[i]``'s payload
        to ``out[at[i]:]``, every range clipped to its payload.

        The paged tensor pool's query path: one Boruvka round occupies a
        contiguous byte range of every node-group page, so a page only
        pays the block reads covering that range, and a round's pages
        are read as **one** batch (``out`` is the query slab's bytes, a
        C-contiguous ``uint8`` array; ``offsets`` may be one offset for
        every request).  Exactly the blocks each range straddles are read
        and charged, in request order; they land back to back in the
        reusable scratch, and every block of a scratchful is verified
        against its write-time digest before any byte of it is copied
        out.  With no fault plan and no deadline armed, a scratchful is
        one ``kernels.read_runs`` call (read, verify, charge, copy); else
        each range goes through the fault plan, the deadline and the
        retry policy as a read of its own would
        (:meth:`BlockDevice.read_ranges`).  The whole batch is one device
        operation to the circuit breaker, one ``memory.load_ranges`` span
        and, inside it, one ``device.read`` span.  Returns the bytes
        copied per request.  Not re-entrant (one scratch): callers
        serialise range reads.
        """
        with span("memory.load_ranges"):
            count = len(keys)
            allocations = np.array(
                [self._allocations[key] for key in keys], dtype=np.int64
            ).reshape(count, 3)
            offsets = np.broadcast_to(np.asarray(offsets, dtype=np.int64), (count,))
            if (offsets < 0).any():
                raise StorageError("offset must be non-negative")
            stop = np.minimum(offsets + lengths, allocations[:, 2])
            copied = np.maximum(stop - offsets, 0)
            live = np.flatnonzero(copied)
            if not live.size:
                return copied
            if out.dtype != np.uint8 or not (out.flags.c_contiguous and out.flags.writeable):
                raise ValueError("out must be a writable C-contiguous uint8 array")
            if (at[live] < 0).any() or (at[live] + copied[live] > out.size).any():
                raise ValueError(f"a {out.size}-byte buffer cannot take every range")
            block_size = self.block_size
            first = offsets[live] // block_size
            blocks = -(-stop[live] // block_size) - first
            runs = np.stack([allocations[live, 0] + first, blocks], axis=1)
            copies = np.stack([offsets[live] - first * block_size, copied[live], at[live]], axis=1)
            scratch = self._scratch(int(blocks.sum()), int(blocks.max()))
            capacity = len(scratch) // block_size
            ends = np.cumsum(blocks)
            batch = self.fault_plan is None and self.deadline_seconds is None
            attempt = partial(self._retried_call, is_write=False)

            def read_scratchfuls() -> None:
                lo, used = 0, 0
                while lo < len(runs):
                    hi = int(np.searchsorted(ends, used + capacity, side="right"))
                    self.device.read_ranges(
                        runs[lo:hi], scratch, attempt, out, copies[lo:hi], batch
                    )
                    lo, used = hi, int(ends[hi - 1])

            self._admitted(read_scratchfuls, is_write=False)
            return copied

    def _scratch(self, total_blocks: int, largest_blocks: int) -> np.ndarray:
        """The range-read buffer for a batch of ``total_blocks`` blocks.

        Sized to the batch, capped at :data:`RANGE_SCRATCH_BLOCKS` and at
        what the budget has left, with a floor of the batch's largest
        range; only ever grown, and charged to the budget as
        :attr:`cached_bytes` (a floor like the pool's one page: with
        less room left than that, the charge is what remained).
        """
        block_size = self.block_size
        blocks = min(total_blocks, RANGE_SCRATCH_BLOCKS)
        if not self.is_unbounded:
            blocks = min(blocks, (self.ram_bytes - self._reserved_bytes) // block_size)
        nbytes = max(blocks, largest_blocks) * block_size
        if len(self._range_scratch) < nbytes:
            self._range_scratch = np.empty(nbytes, dtype=np.uint8)
            if not self.is_unbounded:
                self._scratch_charged = min(nbytes, self.ram_bytes - self._reserved_bytes)
        return self._range_scratch

    def __contains__(self, key: Hashable) -> bool:
        return key in self._allocations

    @property
    def batches_device_calls(self) -> bool:
        """Whether a run of device calls may go as one compiled call: no
        fault plan or deadline to consult per call, and no breaker that is
        not closed (a closed one admits every call, and a success only
        closes it again)."""
        return (
            self.fault_plan is None
            and self.deadline_seconds is None
            and (self.breaker is None or self.breaker.state == CLOSED)
        )

    def keys(self) -> Iterator[Hashable]:
        return iter(self._allocations)

    # ------------------------------------------------------------------
    def verify_key(self, key: Hashable) -> int:
        """Verify one key's stored bytes; returns the blocks checked.

        A throwaway :meth:`load` (real I/O, no client's working set
        touched): every block digest, then the payload record; raises
        :class:`~repro.exceptions.CorruptionError` on the first mismatch.
        """
        return -(-len(self.load(key)) // self.block_size)

    def scrub(self) -> list:
        """Audit every stored payload; returns the keys that failed.

        Walks everything on the device, verifying block and payload
        digests, counting verified blocks in ``stats.blocks_scrubbed``.
        Corruption does not stop the pass: each failing key is
        collected (its ``checksum_failures`` count still increments) so
        read-repair can heal them all in one go.
        """
        corrupt = []
        for key in list(self.keys()):
            try:
                self.stats.blocks_scrubbed += self.verify_key(key)
            except CorruptionError:
                corrupt.append(key)
        return corrupt

    def reserve(self, nbytes: int) -> int:
        """Claim ``nbytes`` of the RAM budget for a client's own buffers.

        Ledger arithmetic against ``ram_bytes``: every reservation plus
        the memory's own scratch never exceed the configured budget.
        Two callers today: the paged tensor pool's page frames (at
        construction) and its query-side round-slab buffers (at the
        first query).  Returns the bytes actually reserved (clamped to
        what the budget still had); a no-op when unbounded.

        Under an injected memory-pressure fault the reservation is
        *refused* (returns 0, counts a ``pressure_events``, notifies
        the pressure listeners) -- callers already treat a partial
        reservation as budget truth, so a refusal degrades instead of
        raising.
        """
        if self.is_unbounded:
            return 0
        if self.fault_plan is not None and self.fault_plan.on_memory_check():
            self._note_pressure()
            return 0
        free = self.ram_bytes - self._reserved_bytes - self._scratch_charged
        taken = min(max(int(nbytes), 0), free)
        self._reserved_bytes += taken
        return taken

    def release(self, nbytes: int) -> int:
        """Return previously :meth:`reserve`-d bytes to the budget.

        The degradation path: a component shrinking its working set
        under pressure frees its buffers and hands the reservation
        back.  Clamped to what is reserved; returns the bytes released.
        """
        given = min(max(int(nbytes), 0), self._reserved_bytes)
        self._reserved_bytes -= given
        return given

    @property
    def reserved_bytes(self) -> int:
        """Budget bytes currently claimed through :meth:`reserve`."""
        return self._reserved_bytes

    @property
    def cached_bytes(self) -> int:
        """Budget bytes the memory's own buffer (the range scratch) holds;
        ``cached_bytes + reserved_bytes`` is the whole RAM tier."""
        return self._scratch_charged

    def add_pressure_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback fired on every memory-pressure event."""
        self._pressure_listeners.append(listener)

    def _note_pressure(self) -> None:
        self.stats.pressure_events += 1
        if self._in_pressure_callback:
            # A listener's own eviction/write-back traffic re-entered
            # store(); count the event but do not recurse.
            return
        self._in_pressure_callback = True
        try:
            for listener in self._pressure_listeners:
                listener()
        finally:
            self._in_pressure_callback = False

    # ------------------------------------------------------------------
    # explicit accounting hooks for components (e.g. the gutter tree)
    # that model their disk traffic without storing through this object
    # ------------------------------------------------------------------
    def charge_write(self, nbytes: int, sequential: bool = True) -> None:
        """Charge the cost of writing ``nbytes`` without storing them."""
        self._charge(nbytes, is_write=True, sequential=sequential)

    def charge_read(self, nbytes: int, sequential: bool = True) -> None:
        """Charge the cost of reading ``nbytes`` without loading them."""
        self._charge(nbytes, is_write=False, sequential=sequential)

    def _charge(self, nbytes: int, is_write: bool, sequential: bool) -> None:
        if nbytes <= 0:
            return
        num_blocks = -(-nbytes // self.block_size)
        profile = self.device.profile
        if sequential:
            self.stats.sequential_accesses += num_blocks
            self.stats.modelled_seconds += num_blocks * profile.sequential_seconds_per_block
        else:
            self.stats.random_accesses += num_blocks
            self.stats.modelled_seconds += num_blocks * profile.random_seconds_per_block
        if is_write:
            self.stats.block_writes += num_blocks
            self.stats.bytes_written += nbytes
        else:
            self.stats.block_reads += num_blocks
            self.stats.bytes_read += nbytes

    # ------------------------------------------------------------------
    def _device_call(self, call: Callable[[], T], is_write: bool) -> T:
        """Run one device read/write through breaker, faults, deadline, retry.

        Composition, outermost first: the circuit breaker admits or
        rejects the whole operation (an open breaker raises
        :class:`~repro.exceptions.CircuitOpenError` without touching
        the device or the retry budget); the fault plan (when present)
        is consulted before every try -- a retried call counts as a
        fresh device operation, so an injected fault at the k-th write
        is transient unless the plan also faults the (k+1)-th, and a
        ``slow`` fault stalls the attempt; the per-attempt deadline
        turns an over-long attempt into a
        :class:`~repro.exceptions.DeadlineExceededError` (an
        ``OSError``, so it retries like any transient failure).  Each
        ``OSError`` is counted in the failure stats; with a
        :class:`RetryPolicy` the call is retried with backoff and only
        the final failure propagates.  The breaker records the
        *operation's* outcome -- transient failures a retry absorbed
        never count toward its threshold, and
        :class:`~repro.exceptions.CorruptionError` (deterministic data
        damage, not device unavailability) bypasses it entirely.
        """
        return self._admitted(lambda: self._retried_call(call, is_write), is_write)

    def _admitted(self, call: Callable[[], T], is_write: bool) -> T:
        """Run ``call`` as one device operation: breaker admission and span.

        :meth:`load_ranges_into` runs a whole batch of range reads as one
        such operation, each read going through :meth:`_retried_call` inside.
        """
        if self.breaker is not None:
            try:
                self.breaker.allow()
            except CircuitOpenError:
                self.stats.breaker_rejections += 1
                raise
        # The span covers the full operation -- retries, backoff sleeps,
        # and injected latency included -- because that is the latency a
        # caller actually experienced.
        with span("device.write" if is_write else "device.read"):
            try:
                result = call()
            except CorruptionError:
                raise
            except OSError:
                if self.breaker is not None:
                    self.breaker.record_failure()
                raise
        if self.breaker is not None:
            self.breaker.record_success()
        return result

    def _retried_call(self, call: Callable[[], T], is_write: bool) -> T:
        """The retry loop (fault plan + deadline) of :meth:`_device_call`
        and of each range of a :meth:`load_ranges_into` batch."""
        attempts = self.retry.attempts if self.retry is not None else 1
        failed = 0
        while True:
            try:
                started = time.monotonic()
                if self.fault_plan is not None:
                    if is_write:
                        self.fault_plan.on_device_write()
                    else:
                        self.fault_plan.on_device_read()
                result = call()
                if (
                    self.deadline_seconds is not None
                    and time.monotonic() - started > self.deadline_seconds
                ):
                    self.stats.deadline_misses += 1
                    raise DeadlineExceededError(
                        f"device {'write' if is_write else 'read'} exceeded its "
                        f"{self.deadline_seconds}s deadline"
                    )
                return result
            except CorruptionError:
                raise
            except OSError:
                failed += 1
                if is_write:
                    self.stats.write_failures += 1
                else:
                    self.stats.read_failures += 1
                if failed >= attempts:
                    raise
                self.stats.io_retries += 1
                delay = self.retry.delay(failed)
                if delay > 0:
                    time.sleep(delay)

    @property
    def device_bytes(self) -> int:
        return self.device.bytes_in_use

    def __repr__(self) -> str:
        limit = "unbounded" if self.is_unbounded else f"{self.ram_bytes}B"
        return f"HybridMemory(ram={limit}, block_size={self.block_size})"


class StorePlan:
    """The extents of a run of :meth:`HybridMemory.load` and
    :meth:`HybridMemory.store` calls, planned ahead of the one compiled
    call that makes them (the paged pool's batched flush).

    It allocates as :meth:`~HybridMemory.store` would, in call order, and
    changes nothing until :meth:`commit`, which records what the
    :meth:`store` calls planned so far wrote: the allocations, the
    payload digests (the blocks' write-time records) and the next free
    block.  ``check_records=False`` skips the payload-record check of
    :meth:`load`: for re-planning a prefix of a run whose call has
    since rewritten block records, every load of which passed it.
    """

    def __init__(self, memory: HybridMemory, check_records: bool = True) -> None:
        self.memory = memory
        self.check_records = check_records
        self.next_block = memory._next_block
        #: key -> ``(start_block, capacity_blocks, payload_length)``, in store order.
        self.stored: Dict[Hashable, Tuple[int, int, int]] = {}

    def __contains__(self, key: Hashable) -> bool:
        return key in self.stored or key in self.memory

    def load(self, key: Hashable, length: int) -> Optional[Tuple[int, int]]:
        """``(start_block, blocks)`` a load of ``key``'s ``length``-byte
        payload reads, or ``None`` where the batched call cannot stand in
        for :meth:`~HybridMemory.load`: another length, or a payload
        record that is not the device's block records (a load raises)."""
        stored = self.stored.get(key)
        if stored is not None:
            start, _, stored_length = stored
        else:
            memory = self.memory
            start, _, stored_length = memory._allocations[key]
            blocks = -(-stored_length // memory.block_size)
            records = memory.device._digests[start : start + blocks].tolist()
            if self.check_records and memory._payload_digests[key] != records:
                return None
        if stored_length != length:
            return None
        return start, -(-length // self.memory.block_size)

    def store(self, key: Hashable, length: int) -> Optional[Tuple[int, int]]:
        """``(start_block, blocks)`` a store of ``length`` bytes under ``key``
        writes, or ``None`` where it would move an allocation (the batched
        call keeps every extent in place)."""
        blocks = max(1, -(-length // self.memory.block_size))
        previous = self.stored.get(key) or self.memory._allocations.get(key)
        if previous is None:
            previous = (self.next_block, blocks, length)
            self.next_block += blocks
        elif previous[1] < blocks:
            return None
        self.stored[key] = (previous[0], previous[1], length)
        return previous[0], blocks

    def commit(self) -> None:
        """Record the planned stores, whose blocks the device now holds."""
        memory, block_size = self.memory, self.memory.block_size
        records = memory.device._digests
        for key, (start, capacity, length) in self.stored.items():
            memory._allocations[key] = (start, capacity, length)
            blocks = max(1, -(-length // block_size))
            memory._payload_digests[key] = records[start : start + blocks].tolist()
        memory._next_block = self.next_block
