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
        #: The one buffer the memory itself holds: :meth:`load_ranges`
        #: reads the blocks a batch of ranges straddles into it (at most
        #: :data:`RANGE_SCRATCH_BLOCKS` at a time, at least the largest
        #: range), charged to the budget as :attr:`cached_bytes`.
        self._range_scratch = bytearray()
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

        The paged tensor pool's query path: one Boruvka round occupies a
        contiguous byte range of every node-group page, so a page only
        pays the block reads covering that range, and a round's pages
        are read as **one** batch of ``(key, offset, out)`` requests
        (``out`` is the page's slice of the query slab; its length is
        the range's, clipped to the payload).  Exactly the blocks each
        range straddles are read and charged, in request order; they
        land back to back in the reusable scratch, which is hashed with
        one digest call per scratchful, and every block is verified
        against its write-time digest before any byte of that
        scratchful is copied out.  The whole batch is one device
        operation to the circuit breaker, one ``memory.load_ranges``
        span and, inside it, one ``device.read`` span, while the fault
        plan, the deadline and the retry policy apply to each range as
        they would to a read of its own.  Returns the bytes copied per
        request.  Not re-entrant (one scratch): callers serialise range
        reads.
        """
        with span("memory.load_ranges"):
            block_size = self.block_size
            copied = [0] * len(requests)
            # Plain ints per range -- a query round holds one entry per
            # spilled page, so no view is kept alive before its copy-out.
            reads = []  # (request index, first block, blocks, skip, length)
            for index, (key, offset, out) in enumerate(requests):
                if offset < 0:
                    raise StorageError("offset must be non-negative")
                start, _, stored_length = self._allocations[key]
                stop = min(offset + len(byte_view(out)), stored_length)
                if stop > offset:
                    first = offset // block_size
                    num_blocks = -(-stop // block_size) - first
                    skip = offset - first * block_size
                    reads.append((index, start + first, num_blocks, skip, stop - offset))
            if not reads:
                return copied
            scratch = self._scratch(
                sum(read[2] for read in reads), max(read[2] for read in reads)
            )
            capacity = len(scratch) // block_size

            def read_scratchfuls() -> None:
                first, used = 0, 0
                for last, read in enumerate(reads):
                    if used + read[2] > capacity:
                        self._read_scratchful(requests, reads[first:last], scratch, copied)
                        first, used = last, 0
                    used += read[2]
                self._read_scratchful(requests, reads[first:], scratch, copied)

            self._admitted(read_scratchfuls, is_write=False)
            return copied

    def _read_scratchful(
        self, requests: Sequence, reads: list, scratch: bytearray, copied: List[int]
    ) -> None:
        """Read, verify and copy out the ``reads`` that fit one scratch."""
        run_bytes = self.device.read_ranges(
            [(first, num_blocks) for _, first, num_blocks, _, _ in reads],
            scratch,
            partial(self._retried_call, is_write=False),
        )
        source = memoryview(scratch)
        at = 0
        for (index, _, _, skip, length), nbytes in zip(reads, run_bytes):
            byte_view(requests[index][2])[:length] = source[at + skip : at + skip + length]
            copied[index] = length
            at += nbytes

    def _scratch(self, total_blocks: int, largest_blocks: int) -> bytearray:
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
            self._range_scratch = bytearray(nbytes)
            if not self.is_unbounded:
                self._scratch_charged = min(nbytes, self.ram_bytes - self._reserved_bytes)
        return self._range_scratch

    def __contains__(self, key: Hashable) -> bool:
        return key in self._allocations

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

        :meth:`load_ranges` runs a whole batch of range reads as one such
        operation, each read going through :meth:`_retried_call` inside.
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
        and of each range of a :meth:`load_ranges` batch."""
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
