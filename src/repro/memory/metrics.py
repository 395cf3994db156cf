"""I/O statistics shared by the external-memory components."""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class IOStats:
    """Counters for block-device traffic plus a modelled elapsed time.

    ``modelled_seconds`` accumulates the latency model of the device
    that owns these counters; it is the number every "on-SSD" figure in
    the benchmark harness reports, so results do not depend on the host
    machine's actual storage.

    Every dataclass field is a counter: :meth:`snapshot` (and
    :meth:`diff`, built on it) walks ``fields(self)``, so a counter
    declared here cannot be missed by either.
    """

    block_reads: int = 0
    block_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    sequential_accesses: int = 0
    random_accesses: int = 0
    modelled_seconds: float = 0.0
    #: RAM-tier lookups.  The tier is the paged pool's frame table, so
    #: these count page pins that found their page resident / did not.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Device reads/writes that raised ``OSError`` (each failed attempt
    #: counts once, whether or not a retry later succeeded).
    read_failures: int = 0
    write_failures: int = 0
    #: Failed device calls that were retried by the hybrid memory's
    #: transient-error policy (successful or not).
    io_retries: int = 0
    #: Payloads whose stored digest did not match on read or scrub.
    checksum_failures: int = 0
    #: Blocks whose checksums a ``scrub()`` pass verified.
    blocks_scrubbed: int = 0
    #: Corrupt pages healed from a checkpoint by read-repair.
    pages_repaired: int = 0
    #: Transient memory-pressure events (refused reservations or
    #: injected allocation pressure); the paged pool degrades its
    #: working set instead of raising.
    pressure_events: int = 0
    #: Device calls that completed past their per-operation deadline
    #: (each counts once; retried like any transient failure).
    deadline_misses: int = 0
    #: Device calls rejected without being attempted because the
    #: circuit breaker was open.
    breaker_rejections: int = 0

    @property
    def total_ios(self) -> int:
        return self.block_reads + self.block_writes

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def diff(self, earlier: dict) -> dict:
        """Per-counter deltas versus an earlier :meth:`snapshot` dict.

        The canonical way to report "what did this phase cost": take a
        snapshot before, run the phase, and ``stats.diff(before)``
        afterwards.  Keys absent from ``earlier`` are treated as zero,
        so a snapshot taken before a counter existed still diffs.
        """
        current = self.snapshot()
        return {key: value - earlier.get(key, 0) for key, value in current.items()}

    def snapshot(self) -> dict:
        """A plain-dict copy, one key per counter in declaration order."""
        return {counter.name: getattr(self, counter.name) for counter in fields(self)}
