"""Deterministic fault injection: every recovery path gets a replay button.

A :class:`FaultPlan` is a *seeded, explicit* list of faults to fire at
three injection sites the fault-tolerance plane defends:

``device.read`` / ``device.write``
    The :class:`~repro.memory.hybrid.HybridMemory` consults the plan
    before every block-device call; the k-th read (or write) raises an
    :class:`InjectedFault` (an ``OSError``), exercising the
    transient-retry policy, the dirty-eviction failure path, and the
    surfacing of persistent device errors.

``snapshot``
    The checkpoint layer consults the plan around every snapshot write:
    mode ``"torn"`` truncates the just-promoted file at a byte offset
    (simulating a crash mid-write on a filesystem without atomic
    rename, or sector corruption), mode ``"corrupt"`` flips one bit of
    the promoted file's payload (silent corruption the payload digests
    must catch), and mode ``"raise"`` fails the write before the atomic
    promote (the previous generation must survive).

``block``
    The :class:`~repro.memory.block_device.BlockDevice` consults the
    plan on every block write: mode ``"corrupt"`` flips one bit of the
    k-th written block *after* its checksum was taken -- deterministic
    bit rot the read-side digest verification must detect.

``worker``
    Distributed ingest workers consult the plan at every batch: mode
    ``"kill"`` hard-exits the process (``os._exit`` -- no cleanup, like
    a SIGKILL or OOM kill), ``"raise"`` raises mid-ingest, ``"hang"``
    sleeps past any reasonable deadline (a straggler), and ``"slow"``
    sleeps a bounded ``delay_seconds`` (a degraded worker the deadline
    machinery must catch without declaring it dead).  Worker faults are
    matched by ``(worker, attempt, at)``, so by default a fault fires
    on the worker's *first* attempt only and the supervisor's
    re-dispatch succeeds -- which is exactly the recovery property the
    tests assert.

``memory``
    The :class:`~repro.memory.hybrid.HybridMemory` consults the plan on
    every admission check (a ``reserve`` call or a stored payload):
    mode ``"pressure"`` makes the k-th check report transient memory
    pressure -- a refused reservation or a budget squeeze the paged
    pool answers by degrading its working set to the floor instead of
    raising.

The latency modes (``"slow"`` everywhere, ``"hang"`` on workers) sleep
deterministic, bounded durations: ``slow`` sleeps the spec's
``delay_seconds``; ``hang`` sleeps the plan's ``hang_seconds``
(default :data:`HANG_SECONDS`) in small chunks, checking the plan's
optional ``cancel`` event so a test can reclaim a hung thread without
killing a process.

Faults are plain data: a plan pickles across process boundaries, and
:meth:`FaultPlan.random` derives a plan deterministically from a seed,
so every property-test failure replays from its seed alone.  Sites that
count operations (device reads/writes, snapshot writes) count *per
process*; worker faults are stateless index comparisons, so a plan
copied into K workers still fires each fault exactly where intended.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

#: Exit code a ``"kill"`` worker fault dies with (distinguishable from
#: a crash exit(1) in supervisor logs; any non-zero code is a failure).
KILL_EXIT_CODE = 137

#: How long a ``"hang"`` fault sleeps (overridable per plan via
#: ``hang_seconds``).  Long enough that any sane straggler timeout
#: fires first; short enough that a test whose supervisor forgets to
#: kill the straggler still terminates.
HANG_SECONDS = 60.0

#: Upper bound on a ``"slow"`` fault's ``delay_seconds`` -- slow means
#: degraded, not hung; longer stalls are what ``"hang"`` models.
MAX_SLOW_SECONDS = 30.0

#: Chunk size of interruptible sleeps (hang faults, supervisor
#: backoff): the latency ceiling on noticing a cancel request.
SLEEP_CHUNK_SECONDS = 0.02


def interruptible_sleep(seconds: float, cancel=None) -> None:
    """Sleep ``seconds`` in small chunks, returning early if ``cancel``
    (a ``threading.Event``-like object) is set.

    Shared by hang faults and the supervisor's backoff sleeps, so a
    shutdown or test teardown is never stuck behind a long
    ``time.sleep``.
    """
    deadline = time.monotonic() + seconds
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        if cancel is not None and cancel.is_set():
            return
        time.sleep(min(SLEEP_CHUNK_SECONDS, remaining))


class InjectedFault(OSError):
    """The OSError raised by injected device/snapshot faults.

    A subclass so tests can tell an injected failure from a real one;
    everything that handles faults catches plain ``OSError``.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``site`` is ``"device.read"``, ``"device.write"``, ``"block"``,
    ``"snapshot"``, ``"worker"``, or ``"memory"``.  ``at`` is the
    1-based operation count the fault fires on (device call, block
    write, snapshot write, worker batch index, or memory admission
    check).  ``worker`` / ``attempt`` scope worker faults; ``attempt``
    also scopes snapshot faults consulted from a worker (the
    supervisor's re-dispatch then writes a clean snapshot).  ``offset``
    is the byte offset a ``"torn"`` snapshot keeps, or the bit position
    a ``"corrupt"`` fault flips (reduced modulo the payload size).
    ``delay_seconds`` is how long a ``"slow"`` fault stalls the
    operation (bounded by :data:`MAX_SLOW_SECONDS`).
    """

    site: str
    at: int = 1
    mode: str = "raise"  # "raise"|"kill"|"hang"|"torn"|"corrupt"|"slow"|"pressure"
    worker: Optional[int] = None
    attempt: int = 0
    offset: int = 0
    delay_seconds: float = 0.05

    def __post_init__(self) -> None:
        valid_sites = {
            "device.read": ("raise", "slow"),
            "device.write": ("raise", "slow"),
            "block": ("corrupt",),
            "snapshot": ("raise", "torn", "corrupt", "slow"),
            "worker": ("raise", "kill", "hang", "slow"),
            "memory": ("pressure",),
        }
        if self.site not in valid_sites:
            raise ValueError(f"unknown fault site {self.site!r}")
        valid_modes = valid_sites[self.site]
        if self.mode not in valid_modes:
            raise ValueError(
                f"fault mode {self.mode!r} invalid for site {self.site!r} "
                f"(valid: {valid_modes})"
            )
        if self.at < 1:
            raise ValueError("fault 'at' counts operations from 1")
        if self.mode == "slow" and not 0 < self.delay_seconds <= MAX_SLOW_SECONDS:
            raise ValueError(
                f"slow-fault delay_seconds must be in (0, {MAX_SLOW_SECONDS}]"
            )


class FaultPlan:
    """A deterministic, picklable schedule of faults to inject.

    Build one explicitly from :class:`FaultSpec` entries, or derive one
    from a seed with :meth:`random`.  All consultation methods are
    cheap no-ops when no spec matches their site, so production code
    can carry an (absent) plan at zero cost.
    """

    def __init__(
        self,
        faults: Sequence[FaultSpec] = (),
        seed: Optional[int] = None,
        hang_seconds: Optional[float] = None,
    ):
        self.faults: Tuple[FaultSpec, ...] = tuple(faults)
        #: The seed this plan was derived from (replay bookkeeping only).
        self.seed = seed
        #: How long a ``"hang"`` worker fault sleeps (defaults to
        #: :data:`HANG_SECONDS`); chaos tests shrink it so a straggler
        #: timeout is exercised in milliseconds, not minutes.
        self.hang_seconds = float(hang_seconds) if hang_seconds is not None else None
        #: Optional ``threading.Event``: setting it wakes any hang-fault
        #: sleep early.  Not pickled -- a worker process hangs until its
        #: supervisor kills it, exactly like production.
        self.cancel = None
        self._device_reads = 0
        self._device_writes = 0
        self._block_writes = 0
        self._snapshot_writes = 0
        self._memory_checks = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        num_workers: int = 0,
        max_batches: int = 4,
        device_faults: int = 0,
        max_device_ops: int = 32,
        snapshot_tears: int = 0,
        max_snapshot_bytes: int = 4096,
        kill_fraction: float = 0.7,
        block_corruptions: int = 0,
        max_block_writes: int = 64,
        snapshot_corruptions: int = 0,
        slow_faults: int = 0,
        max_slow_delay: float = 0.05,
        pressure_faults: int = 0,
        max_memory_checks: int = 64,
        hang_seconds: Optional[float] = None,
    ) -> "FaultPlan":
        """A seeded plan: random kill points and I/O faults, replayable.

        Picks one first-attempt fault for each of ``num_workers``
        workers (``kill`` with probability ``kill_fraction``, else
        ``raise``) at a uniform batch index in ``[1, max_batches]``,
        plus ``device_faults`` read/write raises, ``snapshot_tears``
        torn checkpoint writes at uniform offsets,
        ``block_corruptions`` bit flips on uniform block writes,
        ``snapshot_corruptions`` payload bit flips on uniform snapshot
        generations, ``slow_faults`` bounded device-latency stalls (a
        uniform delay up to ``max_slow_delay``), and
        ``pressure_faults`` transient memory-pressure events on uniform
        admission checks.  Same seed, same plan -- the property tests
        print only the seed on failure.
        """
        import numpy as np

        rng = np.random.default_rng(seed)
        faults: List[FaultSpec] = []
        for worker in range(num_workers):
            mode = "kill" if rng.random() < kill_fraction else "raise"
            faults.append(
                FaultSpec(
                    site="worker",
                    worker=worker,
                    at=int(rng.integers(1, max_batches + 1)),
                    mode=mode,
                )
            )
        for _ in range(device_faults):
            site = "device.read" if rng.random() < 0.5 else "device.write"
            faults.append(FaultSpec(site=site, at=int(rng.integers(1, max_device_ops + 1))))
        for _ in range(snapshot_tears):
            faults.append(
                FaultSpec(
                    site="snapshot",
                    at=int(rng.integers(1, 4)),
                    mode="torn",
                    offset=int(rng.integers(0, max_snapshot_bytes)),
                )
            )
        for _ in range(block_corruptions):
            faults.append(
                FaultSpec(
                    site="block",
                    mode="corrupt",
                    at=int(rng.integers(1, max_block_writes + 1)),
                    offset=int(rng.integers(0, 1 << 20)),
                )
            )
        for _ in range(snapshot_corruptions):
            faults.append(
                FaultSpec(
                    site="snapshot",
                    mode="corrupt",
                    at=int(rng.integers(1, 4)),
                    offset=int(rng.integers(0, max_snapshot_bytes * 8)),
                )
            )
        for _ in range(slow_faults):
            site = "device.read" if rng.random() < 0.5 else "device.write"
            faults.append(
                FaultSpec(
                    site=site,
                    mode="slow",
                    at=int(rng.integers(1, max_device_ops + 1)),
                    delay_seconds=float(rng.uniform(max_slow_delay / 10, max_slow_delay)),
                )
            )
        for _ in range(pressure_faults):
            faults.append(
                FaultSpec(
                    site="memory",
                    mode="pressure",
                    at=int(rng.integers(1, max_memory_checks + 1)),
                )
            )
        return cls(faults, seed=seed, hang_seconds=hang_seconds)

    def for_worker(self, worker: int) -> "FaultPlan":
        """The sub-plan a single worker process needs (fresh counters)."""
        return FaultPlan(
            [f for f in self.faults if f.site == "worker" and f.worker == worker],
            seed=self.seed,
            hang_seconds=self.hang_seconds,
        )

    # ------------------------------------------------------------------
    # device I/O site (consulted by HybridMemory)
    # ------------------------------------------------------------------
    def on_device_read(self) -> None:
        """Count one device read; raise or stall if the plan faults it."""
        self._device_reads += 1
        for fault in self.faults:
            if fault.site == "device.read" and fault.at == self._device_reads:
                if fault.mode == "slow":
                    interruptible_sleep(fault.delay_seconds, self.cancel)
                    continue
                raise InjectedFault(f"injected device read fault #{self._device_reads}")

    def on_device_write(self) -> None:
        """Count one device write; raise or stall if the plan faults it."""
        self._device_writes += 1
        for fault in self.faults:
            if fault.site == "device.write" and fault.at == self._device_writes:
                if fault.mode == "slow":
                    interruptible_sleep(fault.delay_seconds, self.cancel)
                    continue
                raise InjectedFault(f"injected device write fault #{self._device_writes}")

    # ------------------------------------------------------------------
    # memory-admission site (consulted by HybridMemory)
    # ------------------------------------------------------------------
    def on_memory_check(self) -> bool:
        """Count one admission check; True when the plan injects pressure.

        Consulted by :meth:`~repro.memory.hybrid.HybridMemory.reserve`
        (the refused reservation) and on every stored payload (the
        allocation squeeze).  The caller degrades -- it never raises --
        so pressure faults model load, not failure.
        """
        self._memory_checks += 1
        for fault in self.faults:
            if (
                fault.site == "memory"
                and fault.mode == "pressure"
                and fault.at == self._memory_checks
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # block-write site (consulted by the BlockDevice itself)
    # ------------------------------------------------------------------
    def corrupt_block_write(self, payload: bytes) -> bytes:
        """Count one block write; flip a bit if the plan rots this one.

        Called by the device *after* it has taken the block's checksum,
        so the flip models silent post-write corruption: the stored
        bytes diverge from the digest and the next read of this block
        must raise a :class:`~repro.exceptions.CorruptionError`.
        """
        self._block_writes += 1
        for fault in self.faults:
            if fault.site == "block" and fault.at == self._block_writes:
                if not payload:
                    return payload
                rotten = bytearray(payload)
                bit = fault.offset % (len(rotten) * 8)
                rotten[bit >> 3] ^= 1 << (bit & 7)
                return bytes(rotten)
        return payload

    # ------------------------------------------------------------------
    # snapshot-write site (consulted by the checkpoint layer)
    # ------------------------------------------------------------------
    def before_snapshot_write(self) -> None:
        """Count one snapshot write; ``raise`` faults fire here (before
        the atomic promote, so the previous generation stays intact)
        and ``slow`` faults stall here (a checkpoint on a congested
        device)."""
        self._snapshot_writes += 1
        for fault in self.faults:
            if fault.site != "snapshot" or fault.at != self._snapshot_writes:
                continue
            if fault.mode == "slow":
                interruptible_sleep(fault.delay_seconds, self.cancel)
            elif fault.mode == "raise":
                raise InjectedFault(
                    f"injected snapshot write fault #{self._snapshot_writes}"
                )

    def after_snapshot_write(
        self,
        path: Union[str, Path],
        attempt: Optional[int] = None,
        worker: Optional[int] = None,
    ) -> None:
        """Apply any ``torn`` / ``corrupt`` fault to the just-written file.

        Damaging the file *after* the atomic promote models the failure
        the rename cannot defend against -- a corrupted or partially
        persisted file discovered at recovery time -- which is exactly
        what ``recover_latest`` (torn headers) and the payload digests
        (flipped bits) must fall back across.  ``attempt`` scopes the
        faults when a distributed worker consults the plan, so its
        re-dispatched attempt writes a clean snapshot; the checkpoint
        layer passes ``None`` (generation matching via ``at`` only).
        """
        if attempt is not None:
            # Worker context: workers never call before_snapshot_write
            # (raise-mode snapshot faults are a checkpoint-layer
            # concept), so their writes are counted here instead.  Each
            # worker process unpickles its own plan with counters reset,
            # so ``at`` indexes that worker's own snapshot writes.
            self._snapshot_writes += 1
        for fault in self.faults:
            if fault.site != "snapshot" or fault.at != self._snapshot_writes:
                continue
            if attempt is not None and fault.attempt != attempt:
                continue
            if worker is not None and fault.worker is not None and fault.worker != worker:
                continue
            if fault.mode == "torn":
                path = Path(path)
                size = path.stat().st_size
                with path.open("r+b") as handle:
                    handle.truncate(min(fault.offset, size))
            elif fault.mode == "corrupt":
                from repro.distributed.snapshot import _HEADER

                path = Path(path)
                size = path.stat().st_size
                # Flip a bit past the header so the damage is *silent*:
                # the file still parses, only the payload digests can
                # tell (a header flip would be caught as a format error,
                # which the torn mode already exercises).
                base = _HEADER.size if size > _HEADER.size else 0
                region = size - base
                if region <= 0:
                    continue
                bit = fault.offset % (region * 8)
                with path.open("r+b") as handle:
                    handle.seek(base + (bit >> 3))
                    byte = handle.read(1)[0]
                    handle.seek(base + (bit >> 3))
                    handle.write(bytes([byte ^ (1 << (bit & 7))]))

    # ------------------------------------------------------------------
    # worker site (consulted by distributed ingest workers)
    # ------------------------------------------------------------------
    def check_worker_batch(self, worker: int, attempt: int, batch_index: int) -> None:
        """Fire any fault planned for this worker/attempt/batch.

        ``kill`` hard-exits the process with :data:`KILL_EXIT_CODE`
        (no finally blocks, no atexit -- the supervisor sees exactly
        what an OOM kill looks like); ``raise`` raises an
        :class:`InjectedFault`; ``hang`` sleeps the plan's
        ``hang_seconds`` (default :data:`HANG_SECONDS`) in
        cancel-checked chunks; ``slow`` sleeps the spec's bounded
        ``delay_seconds`` and continues.
        """
        for fault in self.faults:
            if (
                fault.site == "worker"
                and fault.worker == worker
                and fault.attempt == attempt
                and fault.at == batch_index
            ):
                if fault.mode == "kill":
                    os._exit(KILL_EXIT_CODE)
                if fault.mode == "hang":
                    hang = (
                        self.hang_seconds
                        if self.hang_seconds is not None
                        else HANG_SECONDS
                    )
                    interruptible_sleep(hang, self.cancel)
                    return
                if fault.mode == "slow":
                    interruptible_sleep(fault.delay_seconds, self.cancel)
                    return
                raise InjectedFault(
                    f"injected worker fault (worker {worker}, attempt {attempt}, "
                    f"batch {batch_index})"
                )

    # ------------------------------------------------------------------
    def __reduce__(self):
        # Counters deliberately reset across pickling: each process
        # counts its own operations, matching the per-process semantics
        # documented above.  The cancel event (if any) stays behind --
        # it is a same-process test affordance, not plan state.
        return (FaultPlan, (self.faults, self.seed, self.hang_seconds))

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.faults)} faults, seed={self.seed})"
