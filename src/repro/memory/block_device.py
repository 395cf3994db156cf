"""A block-addressed storage device with I/O accounting.

:class:`FileBlockDevice` is the device :class:`~repro.memory.hybrid.HybridMemory`
builds: block ``b`` lives at byte ``b * block_size`` of one unlinked
scratch file (``tempfile.TemporaryFile()``, so it honours ``TMPDIR``),
created at the first write and gone when the device is collected or the
process exits.  The sketch state therefore sits in the operating
system's page cache or on disk, not in the process heap.  The file is
scratch, not durable storage -- nothing is fsynced; snapshots are the
durable path.

The :class:`BlockDevice` base keeps everything but the bytes: per-block
lengths and write-time digests (verified on every read), fault-plan bit
rot, and the accounting that charges every access to an
:class:`~repro.memory.metrics.IOStats` instance according to a latency
profile.  Sequential accesses (the block following the previously
accessed block) are charged less than random accesses, mirroring how
SSD throughput differs between streaming and random 16 KB reads.  So
the counters and the modelled time are the same whatever holds the
bytes -- the file here, or a dict in the test suite's fault-injection
double.

The default profile approximates the Samsung 870 EVO SATA SSD used in
the paper's evaluation: ~530 MB/s sequential, ~90 us random-access
latency per 16 KB block.
"""

from __future__ import annotations

import copy
import os
import tempfile
import weakref
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import CorruptionError, StorageError
from repro.integrity.digest import Buffer, block_digests, byte_view
from repro.kernels.numpy_kernels import NUMPY_KERNELS
from repro.memory.metrics import IOStats

#: Default block size: 16 KB, the write granularity GraphZeppelin uses
#: for its gutter tree (Section 5.1).
DEFAULT_BLOCK_SIZE = 16 * 1024

#: Bytes per read/write when a device file is copied (``copy.deepcopy``).
_COPY_CHUNK = 1 << 20


@dataclass(frozen=True)
class DeviceProfile:
    """Latency/throughput model the device charges its accesses to."""

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
    """Block-addressed storage with I/O accounting and per-block digests.

    Everything but the bytes: a subclass says where they live by
    implementing :meth:`_store` (write a blob's bytes at a block) and
    :meth:`_fetch` (copy a run of written blocks into a buffer).
    :class:`FileBlockDevice` is the one the product uses.

    Parameters
    ----------
    block_size:
        Bytes per block (``B`` in the hybrid streaming model).
    profile:
        Latency model used to accumulate ``modelled_seconds``.
    stats:
        Optionally share an existing :class:`IOStats` (e.g. with a cache
        layered on top); a fresh one is created otherwise.
    kernels:
        The kernel provider of the owning engine, which hashes the
        blocks; it only changes how fast they are hashed, never a digest
        value.

    Every written block carries an xxHash64 digest and every read
    verifies it, raising :class:`~repro.exceptions.CorruptionError` on
    mismatch.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        profile: Optional[DeviceProfile] = None,
        stats: Optional[IOStats] = None,
        kernels=NUMPY_KERNELS,
    ) -> None:
        if block_size <= 0:
            raise StorageError("block_size must be positive")
        self.block_size = int(block_size)
        self.profile = profile or DeviceProfile()
        self.stats = stats if stats is not None else IOStats()
        self.kernels = kernels
        #: Consulted by :meth:`write_blob` for injected bit rot
        #: (``site="block"`` specs); the hybrid layer keeps it in sync
        #: with its own plan.
        self.fault_plan = None
        #: Per-block records, indexed by block id: the stored length
        #: (-1: never written, or discarded) and the write-time digest
        #: (``None`` for a discarded block).
        self._sizes: List[int] = []
        self._digests: List[Optional[int]] = []
        self._last_block_accessed: Optional[int] = None

    # ------------------------------------------------------------------
    # where the bytes live
    # ------------------------------------------------------------------
    def _store(self, start_block: int, data: Buffer) -> None:
        """Write ``data`` from the first byte of ``start_block`` on."""
        raise NotImplementedError

    def _fetch(self, start_block: int, sizes: List[int], view: memoryview, at: int) -> None:
        """Copy the written blocks from ``start_block`` on, whose lengths
        are ``sizes``, to ``view[at:]`` back to back."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def delete_block(self, block_id: int) -> None:
        """Drop a block without charging an I/O (TRIM-style discard)."""
        if 0 <= block_id < len(self._sizes):
            self._sizes[block_id] = -1
            self._digests[block_id] = None

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
        digests down instead of paying a second hashing pass.  The
        device keeps its own copy of the bytes, so ``payload`` may be a
        view of memory the caller goes on to reuse (a page frame).
        """
        if start_block < 0:
            raise StorageError("block ids are non-negative")
        view = byte_view(payload)
        num_blocks = max(1, -(-len(view) // self.block_size))
        if _digests is not None and len(_digests) == num_blocks:
            digests = _digests
        else:
            digests = self.block_digests(view)
        # Checksum what the caller handed us, then let the fault plan
        # model bit rot *after* the digest was taken -- that is the
        # silent-corruption ordering the read-side check defends.
        self._store(start_block, view if self.fault_plan is None else self._rotted(view))
        self._charge(start_block, num_blocks, is_write=True, nbytes=len(view))
        self._record(start_block, num_blocks, len(view), digests)
        return num_blocks

    def _rotted(self, view: memoryview) -> Buffer:
        """``view`` as it reaches the medium: every block is offered to the
        fault plan, which may flip a bit in it; copied only if one rots."""
        data, block_size = view, self.block_size
        for lo in range(0, max(len(view), 1), block_size):
            chunk = data[lo : lo + block_size]
            rotten = self.fault_plan.corrupt_block_write(chunk)
            if rotten is not chunk:
                if data is view:
                    data = bytearray(view)
                data[lo : lo + len(rotten)] = rotten
        return data

    def _record(
        self, start_block: int, num_blocks: int, nbytes: int, digests: list
    ) -> None:
        """Note the lengths and digests of a blob just written."""
        stop = start_block + num_blocks
        sizes = self._sizes
        if stop > len(sizes):
            grow = stop - len(sizes)
            sizes.extend([-1] * grow)
            self._digests.extend([None] * grow)
        block_size = self.block_size
        sizes[start_block:stop] = [block_size] * (num_blocks - 1) + [
            nbytes - (num_blocks - 1) * block_size
        ]
        self._digests[start_block:stop] = digests

    def read_into(
        self, start_block: int, num_blocks: int, out: Buffer
    ) -> Tuple[int, List[int]]:
        """Range-verified read into a caller-owned buffer.

        Every block is fetched and charged in order and copied to the
        front of ``out`` (any writable contiguous buffer long enough --
        the paged pool hands in a page frame, so a page-in allocates
        nothing); the bytes are hashed where they landed by **one**
        :func:`block_digests` call, and each digest is compared against
        the block's write-time record
        (:class:`~repro.exceptions.CorruptionError` on the first
        mismatch, leaving unverified bytes in ``out``).  Returns the
        byte count and the computed digests, so a caller holding its own
        per-block record of the same bytes (the hybrid memory does)
        compares instead of hashing again.
        """
        view = byte_view(out)
        sizes = self._gather(start_block, num_blocks, view, 0)
        total = sum(sizes)
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
        sizes = self._sizes[start_block : start_block + num_blocks] if start_block >= 0 else []
        if len(sizes) < num_blocks or -1 in sizes:
            missing = start_block + (sizes.index(-1) if -1 in sizes else len(sizes))
            raise StorageError(f"block {missing} has never been written")
        total = sum(sizes)
        if at + total > len(view):
            raise ValueError(f"a {len(view)}-byte buffer cannot take {at + total} bytes")
        if total:
            self._fetch(start_block, sizes, view, at)
        self._charge(start_block, num_blocks, is_write=False, nbytes=total)
        return sizes

    def _verify_runs(
        self, runs: Sequence[Tuple[int, int]], view: memoryview, sizes: List[int]
    ) -> None:
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
            if digest != recorded[block_id]:
                self.stats.checksum_failures += 1
                raise CorruptionError(
                    f"block {block_id} failed checksum verification "
                    f"({self._sizes[block_id]} bytes): stored content no "
                    f"longer matches its write-time digest"
                )
        return digests

    def block_digests(self, payload: Buffer) -> List[int]:
        """Digests of ``payload`` cut on this device's block grid."""
        return block_digests(payload, self.block_size, kernels=self.kernels)

    # ------------------------------------------------------------------
    @property
    def blocks_in_use(self) -> int:
        return len(self._sizes) - self._sizes.count(-1)

    @property
    def bytes_in_use(self) -> int:
        # Each unwritten block's -1 is cancelled by the count.
        return sum(self._sizes) + self._sizes.count(-1)

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
            f"{type(self).__name__}(block_size={self.block_size}, profile={self.profile.name}, "
            f"blocks_in_use={self.blocks_in_use})"
        )


class FileBlockDevice(BlockDevice):
    """A :class:`BlockDevice` whose blocks live in one unlinked scratch file.

    Block ``b`` sits at byte ``b * block_size``; a blob is one
    ``os.pwrite`` and a run of blocks one ``os.preadv`` straight into the
    caller's buffer (a short block inside a run leaves a hole in the
    file, so such a run is read block by block).  The file is made at
    the first write and closed when the device is collected; a
    ``copy.deepcopy`` gets a file of its own with the same contents.  A
    process forked after the first write inherits the descriptor, but
    its writes are refused (:class:`~repro.exceptions.StorageError`), so
    a worker can never change its parent's blocks.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: The scratch file (made at the first write), its descriptor,
        #: and the process that made it.
        self._file = None
        self._fd = -1
        self._owner = None

    def _open(self) -> int:
        """The file's descriptor, made on first use by this process."""
        if self._file is None:
            self._file = tempfile.TemporaryFile()
            self._fd, self._owner = self._file.fileno(), os.getpid()
            weakref.finalize(self, self._file.close)
        elif self._owner != os.getpid():
            raise StorageError(
                f"device file belongs to process {self._owner}; "
                "a forked process may not write it"
            )
        return self._fd

    def _store(self, start_block: int, data: Buffer) -> None:
        _pwrite(self._open(), memoryview(data), start_block * self.block_size)

    def _fetch(self, start_block: int, sizes: List[int], view: memoryview, at: int) -> None:
        block_size = self.block_size
        total = sum(sizes)
        if total == (len(sizes) - 1) * block_size + sizes[-1]:
            _pread(self._fd, view[at : at + total], start_block * block_size)
            return
        for block_id, size in enumerate(sizes, start_block):
            _pread(self._fd, view[at : at + size], block_id * block_size)
            at += size

    def __deepcopy__(self, memo) -> "FileBlockDevice":
        clone = type(self).__new__(type(self))
        memo[id(self)] = clone
        state = {key: value for key, value in self.__dict__.items() if key != "_file"}
        clone.__dict__.update(copy.deepcopy(state, memo))
        clone._file, clone._fd, clone._owner = None, -1, None
        if self._file is not None:
            target, offset = clone._open(), 0
            while chunk := os.pread(self._fd, _COPY_CHUNK, offset):
                _pwrite(target, memoryview(chunk), offset)
                offset += len(chunk)
        return clone


def _pread(fd: int, into: memoryview, offset: int) -> None:
    """Fill ``into`` from ``offset`` of ``fd`` (a regular file reads short
    only at its end, which a written block is never past)."""
    if os.preadv(fd, [into], offset) != len(into):
        raise StorageError(f"device file ends before byte {offset + len(into)}")


def _pwrite(fd: int, data: memoryview, offset: int) -> None:
    """Write all of ``data`` at ``offset`` of ``fd``."""
    done = 0
    while done < len(data):
        done += os.pwrite(fd, data[done:], offset + done)
