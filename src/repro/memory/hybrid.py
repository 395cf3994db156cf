"""RAM budget + block device glued into one hybrid memory.

:class:`HybridMemory` is the substrate the rest of the system stores
its large objects through.  Payloads are kept in a byte-budgeted LRU
cache (the RAM tier); when the cache overflows, payloads spill to the
simulated :class:`~repro.memory.block_device.BlockDevice` and later
reads charge block I/Os and modelled latency.  With an unlimited RAM
budget the device is never touched, which is the "everything fits in
RAM" configuration of the experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.exceptions import (
    CircuitOpenError,
    CorruptionError,
    DeadlineExceededError,
    StorageError,
)
from repro.memory.block_device import DEFAULT_BLOCK_SIZE, BlockDevice, DeviceProfile
from repro.memory.cache import LRUCache
from repro.memory.metrics import IOStats
from repro.observability.tracing import span

T = TypeVar("T")


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
    """A keyed byte store with a RAM budget backed by a simulated disk.

    Parameters
    ----------
    ram_bytes:
        RAM budget for cached payloads.  ``None`` means unlimited (pure
        in-RAM operation, no device traffic ever).
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
    verify_checksums:
        When true (the default) every device block and every stored
        payload carries an xxHash64 digest; reads that pull spilled
        state back in raise :class:`~repro.exceptions.CorruptionError`
        on mismatch, and :meth:`scrub` audits everything at rest.
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
        The native kernel provider of the owning engine, used to hash
        blocks (``None``: the numpy digests, same values).
    """

    def __init__(
        self,
        ram_bytes: Optional[int] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        profile: Optional[DeviceProfile] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan=None,
        verify_checksums: bool = True,
        deadline_seconds: Optional[float] = None,
        breaker=None,
        kernels=None,
    ) -> None:
        if ram_bytes is not None and ram_bytes < 0:
            raise StorageError("ram_bytes must be non-negative or None")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise StorageError("deadline_seconds must be positive or None")
        self.ram_bytes = ram_bytes
        self.retry = retry
        self.deadline_seconds = deadline_seconds
        self.breaker = breaker
        self.verify_checksums = bool(verify_checksums)
        self.stats = IOStats()
        self.device = BlockDevice(
            block_size=block_size,
            profile=profile,
            stats=self.stats,
            verify_checksums=verify_checksums,
            kernels=kernels,
        )
        self.fault_plan = fault_plan
        capacity = ram_bytes if ram_bytes is not None else (1 << 62)
        self._cache = LRUCache(capacity, stats=self.stats, on_evict=self._write_back)
        self._dirty: set = set()
        self._allocations: Dict[Hashable, Tuple[int, int, int]] = {}
        #: Per-key *block* digest lists recorded at :meth:`store` time --
        #: the payload-level integrity record and, handed down to
        #: :meth:`BlockDevice.write_blob` at persist time, the write-time
        #: block digests, so the write path hashes every byte exactly
        #: once.
        self._payload_digests: Dict[Hashable, List[int]] = {}
        self._next_block = 0
        self._reserved_bytes = 0
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
        """True when no RAM limit is in force (nothing ever spills)."""
        return self.ram_bytes is None

    @property
    def block_size(self) -> int:
        return self.device.block_size

    def store(self, key: Hashable, payload: bytes) -> None:
        """Store (or replace) the payload for ``key``.

        The per-block digests are taken *now*, while the bytes are
        authoritative: they verify the RAM-cached copy on demand
        (:meth:`verify_key`), travel down to the device when the
        payload is persisted (so write-back never re-hashes), and check
        the reassembled payload after every spilled :meth:`load`.
        """
        if self.verify_checksums:
            self._payload_digests[key] = self.device.block_digests(payload)
        if self.fault_plan is not None and self.fault_plan.on_memory_check():
            # Injected allocation squeeze: degrade (listeners shrink
            # their working sets), never refuse the bytes -- pressure
            # models load, and dropping a payload would lose data.
            self._note_pressure()
        self._dirty.add(key)
        self._cache.put(key, payload)

    def load(self, key: Hashable) -> bytes:
        """Load the payload for ``key``, reading from disk on a cache miss.

        A payload pulled back from the device is hashed once and that
        one list of block digests is compared against two records: each
        block's write-time digest (inside the device) and the digests
        recorded at :meth:`store` time, so allocation bookkeeping bugs
        surface as :class:`~repro.exceptions.CorruptionError` too.
        """
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if key not in self._allocations:
            raise KeyError(key)
        start, _, length = self._allocations[key]
        if length == 0:
            return b""
        payload, digests = self._read_spilled(start, length)
        self._verify_payload(key, payload, digests)
        self._cache.put(key, payload)
        return payload

    def _read_spilled(self, start: int, length: int) -> Tuple[bytes, Optional[List[int]]]:
        """Read a spilled payload; returns it with its block digests.

        The device verifies every block and hands back the digests it
        computed; they are the payload's own block digests (comparable
        with the :meth:`store` record) unless the blocks hold more bytes
        than the payload, in which case ``None`` is returned for them.
        """
        # Read only the blocks the *current* payload spans -- after a
        # smaller re-put the allocation keeps its original capacity, but
        # the stale tail blocks are never touched.
        blob, digests = self._device_call(
            lambda: self.device.read_blob_digests(start, -(-length // self.block_size)),
            is_write=False,
        )
        if len(blob) != length:
            return blob[:length], None
        return blob, digests

    def _verify_payload(
        self, key: Hashable, payload: bytes, digests: Optional[List[int]] = None
    ) -> None:
        """Compare ``payload``'s block digests with the :meth:`store` record.

        ``digests`` are the payload's block digests when the device
        already computed them on the way in; otherwise they are taken
        here.
        """
        if not self.verify_checksums:
            return
        expected = self._payload_digests.get(key)
        if expected is None:
            return
        if digests is None:
            digests = self.device.block_digests(payload)
        if digests != expected:
            self.stats.checksum_failures += 1
            raise CorruptionError(
                f"payload for key {key!r} failed checksum verification "
                f"({len(payload)} bytes)"
            )

    def load_range(self, key: Hashable, offset: int, length: int) -> bytes:
        """Load ``length`` bytes at ``offset`` of ``key``'s payload.

        The paged tensor pool's query path: one Boruvka round occupies a
        contiguous byte range of a node-group page, so a spilled page
        only pays the block reads covering that range instead of the
        whole slab.  A RAM-cached payload is sliced for free (counted as
        a cache hit); a spilled one reads exactly the blocks
        ``[offset, offset + length)`` straddles and charges them to
        :class:`~repro.memory.metrics.IOStats`.  Partial reads do *not*
        populate the cache -- a fragment must never shadow the full
        payload on a later :meth:`load`.
        """
        if offset < 0 or length < 0:
            raise StorageError("offset and length must be non-negative")
        cached = self._cache.get(key)
        if cached is not None:
            return cached[offset : offset + length]
        if key not in self._allocations:
            raise KeyError(key)
        start, num_blocks, stored_length = self._allocations[key]
        if offset >= stored_length or length == 0:
            return b""
        stop = min(offset + length, stored_length)
        first = offset // self.block_size
        last = min(-(-stop // self.block_size), num_blocks)
        chunk = self._device_call(
            lambda: self.device.read_blob(start + first, last - first),
            is_write=False,
        )
        base = first * self.block_size
        return chunk[offset - base : stop - base]

    def __contains__(self, key: Hashable) -> bool:
        return key in self._cache or key in self._allocations

    def keys(self) -> Iterator[Hashable]:
        seen = set()
        for key, _ in self._cache.items():
            seen.add(key)
            yield key
        for key in self._allocations:
            if key not in seen:
                yield key

    def flush(self) -> None:
        """Write every dirty cached payload back to the device."""
        for key, payload in self._cache.items():
            if key in self._dirty:
                self._persist(key, payload)

    # ------------------------------------------------------------------
    def verify_key(self, key: Hashable) -> int:
        """Verify one key's bytes wherever they live; returns blocks checked.

        RAM-cached payloads are verified against the digest recorded at
        :meth:`store` time; spilled payloads are read straight off the
        device (charging real I/O, bypassing the cache so a scrub never
        perturbs the working set) which verifies each block digest, then
        checked against the payload digest unless the cached copy is
        newer (dirty) than the spilled one.  Raises
        :class:`~repro.exceptions.CorruptionError` on the first
        mismatch.
        """
        if not self.verify_checksums:
            return 0
        blocks = 0
        cached = self._cache.peek(key)
        if cached is not None:
            blocks += max(1, -(-len(cached) // self.block_size))
            self._verify_payload(key, cached)
        allocation = self._allocations.get(key)
        if allocation is not None:
            start, _, length = allocation
            if length > 0:
                payload, digests = self._read_spilled(start, length)
                blocks += -(-length // self.block_size)
                # A dirty cached copy makes the spilled bytes stale (but
                # still internally consistent): block digests above are
                # authoritative, the payload digest is not.
                if key not in self._dirty:
                    self._verify_payload(key, payload, digests)
        if cached is None and allocation is None:
            raise KeyError(key)
        return blocks

    def scrub(self) -> list:
        """Audit every stored payload; returns the keys that failed.

        Walks all resident and spilled state, verifying block and
        payload digests, counting verified blocks in
        ``stats.blocks_scrubbed``.  Corruption does not stop the pass:
        each failing key is collected (its ``checksum_failures`` count
        still increments) so read-repair can heal them all in one go.
        """
        corrupt = []
        for key in list(self.keys()):
            try:
                self.stats.blocks_scrubbed += self.verify_key(key)
            except CorruptionError:
                corrupt.append(key)
        return corrupt

    def reserve(self, nbytes: int) -> int:
        """Carve ``nbytes`` of the RAM budget out of the byte cache.

        A component holding its own deserialised RAM claims it here, so
        the byte cache plus every reservation never exceed the
        configured budget.  Two callers today: the paged tensor pool's
        pinned page working set (at construction) and its query-side
        round-slab buffers (at the first query).  Shrinking evicts (and
        write-backs) any overflow immediately.  Returns the bytes
        actually reserved (clamped to what the cache still had); a
        no-op when unbounded.

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
        taken = min(max(int(nbytes), 0), self._cache.capacity_bytes)
        self._cache.resize(self._cache.capacity_bytes - taken)
        self._reserved_bytes += taken
        return taken

    def release(self, nbytes: int) -> int:
        """Return previously :meth:`reserve`-d bytes to the byte cache.

        The degradation path: a component shrinking its working set
        under pressure hands its reservation back so the cache can
        absorb payloads the smaller working set now spills.  Clamped to
        what is actually reserved; returns the bytes released.
        """
        if self.is_unbounded:
            return 0
        given = min(max(int(nbytes), 0), self._reserved_bytes)
        self._cache.resize(self._cache.capacity_bytes + given)
        self._reserved_bytes -= given
        return given

    @property
    def reserved_bytes(self) -> int:
        """Bytes currently carved out of the cache by :meth:`reserve`."""
        return self._reserved_bytes

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
                result = self._retried_call(call, is_write)
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
        """The retry loop of :meth:`_device_call` (fault plan + deadline)."""
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

    def _write_back(self, key: Hashable, payload: bytes) -> None:
        if key in self._dirty:
            self._persist(key, payload)

    def _persist(self, key: Hashable, payload: bytes) -> None:
        num_blocks = max(1, -(-len(payload) // self.block_size))
        allocation = self._allocations.get(key)
        if allocation is None or allocation[1] < num_blocks:
            start = self._next_block
            fresh_allocation = True
            capacity = num_blocks
        else:
            # Re-put inside an existing allocation: keep its full block
            # capacity on record, so a payload that shrinks and later
            # regrows (e.g. a recompacted page) stays in place instead
            # of leaking a fresh allocation.
            start, capacity = allocation[0], allocation[1]
            fresh_allocation = False
        digests = self._payload_digests.get(key) if self.verify_checksums else None
        self._device_call(
            lambda: self.device.write_blob(start, payload, _digests=digests),
            is_write=True,
        )
        if fresh_allocation:
            self._next_block = start + num_blocks
        self._allocations[key] = (start, capacity, len(payload))
        self._dirty.discard(key)

    @property
    def cached_bytes(self) -> int:
        return self._cache.bytes_used

    @property
    def device_bytes(self) -> int:
        return self.device.bytes_in_use

    def __repr__(self) -> str:
        limit = "unbounded" if self.is_unbounded else f"{self.ram_bytes}B"
        return f"HybridMemory(ram={limit}, block_size={self.block_size})"
