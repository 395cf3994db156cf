"""A simulated block-addressed storage device.

The device stores byte blocks in a Python dict (so contents are real
and round-trip exactly), while charging every access to an
:class:`~repro.memory.metrics.IOStats` instance according to a latency
profile.  Sequential accesses (the block following the previously
accessed block) are charged less than random accesses, mirroring how
SSD throughput differs between streaming and random 16 KB reads.

The default profile approximates the Samsung 870 EVO SATA SSD used in
the paper's evaluation: ~530 MB/s sequential, ~90 us random-access
latency per 16 KB block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import CorruptionError, StorageError
from repro.integrity.digest import Buffer, block_digests, byte_view
from repro.memory.metrics import IOStats

#: Default block size: 16 KB, the write granularity GraphZeppelin uses
#: for its gutter tree (Section 5.1).
DEFAULT_BLOCK_SIZE = 16 * 1024


@dataclass(frozen=True)
class DeviceProfile:
    """Latency/throughput model of the simulated device."""

    #: Seconds to transfer one block when the access is sequential.
    sequential_seconds_per_block: float = DEFAULT_BLOCK_SIZE / (530 * 1024 * 1024)
    #: Seconds per random block access (seek + transfer).
    random_seconds_per_block: float = 90e-6
    #: Human-readable name for reports.
    name: str = "sata-ssd"

    @classmethod
    def nvme(cls) -> "DeviceProfile":
        """A faster NVMe-class profile for sensitivity experiments."""
        return cls(
            sequential_seconds_per_block=DEFAULT_BLOCK_SIZE / (3000 * 1024 * 1024),
            random_seconds_per_block=20e-6,
            name="nvme-ssd",
        )

    @classmethod
    def spinning_disk(cls) -> "DeviceProfile":
        """A hard-drive profile (large random penalty)."""
        return cls(
            sequential_seconds_per_block=DEFAULT_BLOCK_SIZE / (160 * 1024 * 1024),
            random_seconds_per_block=8e-3,
            name="hdd",
        )


class BlockDevice:
    """Block-addressed storage with I/O accounting.

    Parameters
    ----------
    block_size:
        Bytes per block (``B`` in the hybrid streaming model).
    profile:
        Latency model used to accumulate ``modelled_seconds``.
    stats:
        Optionally share an existing :class:`IOStats` (e.g. with a cache
        layered on top); a fresh one is created otherwise.
    verify_checksums:
        When true (the default) every written block carries an xxHash64
        digest and every read verifies it, raising
        :class:`~repro.exceptions.CorruptionError` on mismatch.  Turning
        it off skips checksumming entirely.
    kernels:
        The native kernel provider of the owning engine (``None`` for
        the numpy digests); it only changes how fast blocks are hashed,
        never a digest value.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        profile: Optional[DeviceProfile] = None,
        stats: Optional[IOStats] = None,
        verify_checksums: bool = True,
        kernels=None,
    ) -> None:
        if block_size <= 0:
            raise StorageError("block_size must be positive")
        self.block_size = int(block_size)
        self.profile = profile or DeviceProfile()
        self.stats = stats if stats is not None else IOStats()
        self.verify_checksums = bool(verify_checksums)
        self.kernels = kernels
        #: Consulted by :meth:`write_blob` for injected bit rot
        #: (``site="block"`` specs); the hybrid layer keeps it in sync
        #: with its own plan.
        self.fault_plan = None
        self._blocks: Dict[int, bytes] = {}
        self._digests: Dict[int, int] = {}
        self._last_block_accessed: Optional[int] = None

    # ------------------------------------------------------------------
    def delete_block(self, block_id: int) -> None:
        """Drop a block without charging an I/O (TRIM-style discard)."""
        self._blocks.pop(block_id, None)
        self._digests.pop(block_id, None)

    # ------------------------------------------------------------------
    def write_blob(
        self,
        start_block: int,
        payload: Buffer,
        _digests: Optional[list] = None,
    ) -> int:
        """Write an arbitrary-length blob across consecutive blocks.

        Returns the number of blocks used.  The first block of the blob
        is charged as a random access and the rest as sequential, which
        is how a contiguous node-group sketch read behaves on disk.
        ``_digests`` lets a caller that already block-digested this
        payload (the hybrid memory does, at ``store`` time) hand the
        digests down instead of paying a second hashing pass.  Every
        block is stored as its own ``bytes`` copy, so ``payload`` may be
        a view of memory the caller goes on to reuse (a page frame).
        """
        if start_block < 0:
            raise StorageError("block ids are non-negative")
        num_blocks = max(1, -(-len(payload) // self.block_size))
        if not self.verify_checksums:
            digests = None
        elif _digests is not None and len(_digests) == num_blocks:
            digests = _digests
        else:
            digests = self.block_digests(payload)
        self._charge(start_block, num_blocks, is_write=True, nbytes=len(payload))
        for i in range(num_blocks):
            chunk = bytes(payload[i * self.block_size : (i + 1) * self.block_size])
            if digests is not None:
                # Checksum what the caller handed us, then let the fault
                # plan model bit rot *after* the digest was taken -- that
                # is the silent-corruption ordering the read-side check
                # defends.
                self._digests[start_block + i] = digests[i]
            if self.fault_plan is not None:
                chunk = self.fault_plan.corrupt_block_write(chunk)
            self._blocks[start_block + i] = chunk
        return num_blocks

    def read_into(
        self, start_block: int, num_blocks: int, out: Buffer
    ) -> Tuple[int, Optional[List[int]]]:
        """Range-verified read into a caller-owned buffer.

        Every block is fetched and charged in order and copied to the
        front of ``out`` (any writable contiguous buffer long enough --
        the paged pool hands in a page frame, so a page-in allocates
        nothing); the bytes are hashed where they landed by **one**
        :func:`block_digests` call, and each digest is compared against
        the block's write-time record
        (:class:`~repro.exceptions.CorruptionError` on the first
        mismatch, leaving unverified bytes in ``out``).  Returns the
        byte count and the computed digests (``None`` when checksums
        are off), so a caller holding its own per-block record of the
        same bytes (the hybrid memory does) compares instead of hashing
        again.
        """
        view = byte_view(out)
        sizes = self._gather(start_block, num_blocks, view, 0)
        total = sum(sizes)
        if not self.verify_checksums:
            return total, None
        block_ids = range(start_block, start_block + num_blocks)
        return total, self._verify(block_ids, view, sizes)

    def read_ranges(
        self,
        runs: Sequence[Tuple[int, int]],
        out: Buffer,
        attempt: Callable[[Callable[[], List[int]]], List[int]],
    ) -> List[int]:
        """Read several runs of consecutive blocks back to back, verified once.

        ``runs`` is a sequence of ``(start_block, num_blocks)``; their
        blocks are fetched into the front of ``out`` one run after
        another and each run is charged as :meth:`read_into` would
        charge it, in order, so the random/sequential split and
        ``modelled_seconds`` are those of one :meth:`read_into` per run.
        ``attempt`` (the hybrid memory's fault/deadline/retry loop) is
        called with every run's fetch and returns its result, so a
        failed run is retried alone and the batch resumes at it.  Then
        **one** :func:`block_digests` call hashes everything that
        landed (as in :meth:`read_into`), and every block is compared
        against its write-time record before this returns: the first
        mismatch, in run order, raises
        :class:`~repro.exceptions.CorruptionError`, leaving unverified
        bytes in ``out`` for the caller to drop.  A run whose fetch
        fails for good verifies what was fetched before it first, so
        corruption there still surfaces ahead of the device error.
        Returns the byte count of each run.
        """
        view = byte_view(out)
        sizes: List[int] = []
        lengths: List[int] = []
        total = 0
        try:
            for start_block, num_blocks in runs:
                run_sizes = attempt(partial(self._gather, start_block, num_blocks, view, total))
                sizes += run_sizes
                lengths.append(sum(run_sizes))
                total += lengths[-1]
        except OSError:
            self._verify_runs(runs[: len(lengths)], view, sizes)
            raise
        self._verify_runs(runs, view, sizes)
        return lengths

    def _gather(self, start_block: int, num_blocks: int, view: memoryview, at: int) -> List[int]:
        """Copy a run of blocks to ``view[at:]`` back to back and charge it.

        Returns the sizes of the blocks copied.
        """
        blocks = self._blocks
        sizes = []
        total = at
        for block_id in range(start_block, start_block + num_blocks):
            payload = blocks.get(block_id)
            if payload is None:
                raise StorageError(f"block {block_id} has never been written")
            stop = total + len(payload)
            view[total:stop] = payload
            sizes.append(stop - total)
            total = stop
        self._charge(start_block, num_blocks, is_write=False, nbytes=total - at)
        return sizes

    def _verify_runs(
        self, runs: Sequence[Tuple[int, int]], view: memoryview, sizes: List[int]
    ) -> None:
        if self.verify_checksums:
            block_ids = chain.from_iterable(range(s, s + n) for s, n in runs)
            self._verify(block_ids, view, sizes)

    def _verify(self, block_ids: Iterable[int], view: memoryview, sizes: List[int]) -> List[int]:
        """Hash the blocks joined at the front of ``view`` and check each one.

        ``sizes`` are the joined blocks' sizes, ``block_ids`` their ids
        in the same order.  One :func:`block_digests` call covers them
        all while they sit on the ``block_size`` grid; a short block
        before the last one (or an empty last one) puts them off it, and
        then each block is hashed alone.  Returns the digests.
        """
        if not sizes:
            return []
        total = sum(sizes)
        on_grid = total == (len(sizes) - 1) * self.block_size + sizes[-1]
        if on_grid and (sizes[-1] or len(sizes) == 1):
            digests = self.block_digests(view[:total])
        else:
            digests, stop = [], 0
            for size in sizes:
                digests.append(self.block_digests(view[stop : stop + size])[0])
                stop += size
        recorded = self._digests
        for block_id, digest in zip(block_ids, digests):
            expected = recorded.get(block_id)
            if expected is not None and digest != expected:
                self.stats.checksum_failures += 1
                raise CorruptionError(
                    f"block {block_id} failed checksum verification "
                    f"({len(self._blocks[block_id])} bytes): stored content no "
                    f"longer matches its write-time digest"
                )
        return digests

    def block_digests(self, payload: Buffer) -> List[int]:
        """Digests of ``payload`` cut on this device's block grid."""
        return block_digests(payload, self.block_size, kernels=self.kernels)

    # ------------------------------------------------------------------
    @property
    def blocks_in_use(self) -> int:
        return len(self._blocks)

    @property
    def bytes_in_use(self) -> int:
        return sum(len(b) for b in self._blocks.values())

    def _charge(self, start_block: int, num_blocks: int, is_write: bool, nbytes: int) -> None:
        """Charge a run of consecutive blocks holding ``nbytes`` in all.

        Block for block what charging each in turn would add: the first
        is sequential only if it follows the last block accessed, the
        rest always are, and ``modelled_seconds`` is summed in the same
        order (so the float comes out bit-identical).
        """
        if num_blocks < 1:
            return
        stats, profile = self.stats, self.profile
        follows = (
            self._last_block_accessed is not None
            and start_block == self._last_block_accessed + 1
        )
        sequential = num_blocks if follows else num_blocks - 1
        seconds = stats.modelled_seconds
        if not follows:
            stats.random_accesses += 1
            seconds += profile.random_seconds_per_block
        for _ in range(sequential):
            seconds += profile.sequential_seconds_per_block
        stats.sequential_accesses += sequential
        stats.modelled_seconds = seconds
        if is_write:
            stats.block_writes += num_blocks
            stats.bytes_written += nbytes
        else:
            stats.block_reads += num_blocks
            stats.bytes_read += nbytes
        self._last_block_accessed = start_block + num_blocks - 1

    def __repr__(self) -> str:
        return (
            f"BlockDevice(block_size={self.block_size}, profile={self.profile.name}, "
            f"blocks_in_use={self.blocks_in_use})"
        )
