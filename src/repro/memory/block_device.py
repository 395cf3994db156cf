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
lengths and write-time digests (two numpy arrays indexed by block id,
verified on every read), fault-plan bit rot, and the accounting that
charges every access to an :class:`~repro.memory.metrics.IOStats`
instance according to a latency profile.  Sequential accesses (the block following the previously
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
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.exceptions import CorruptionError, StorageError
from repro.integrity.digest import Buffer, block_digests, byte_view
from repro.kernels.numpy_kernels import NUMPY_KERNELS
from repro.memory.metrics import IOStats
from repro.observability.metrics import default_registry

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

    #: The descriptor of the file block ``b`` sits in at byte
    #: ``b * block_size``, which the compiled ``read_runs`` reads
    #: directly; -1 where the bytes live elsewhere (or nowhere yet), and
    #: then every batch takes the per-run path.
    _fd = -1

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
        #: Per-block records, indexed by block id and grown by doubling:
        #: the stored length (-1: never written, or discarded) and the
        #: write-time digest (0 where the length is -1).
        self._sizes = np.full(0, -1, dtype=np.int64)
        self._digests = np.zeros(0, dtype=np.uint64)
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

    def _writable_fd(self) -> int:
        """The descriptor a compiled call may also write blocks through
        (the compiled ``fold_pages``), or -1: no file, or one another
        process made."""
        return -1

    # ------------------------------------------------------------------
    def delete_block(self, block_id: int) -> None:
        """Drop a block without charging an I/O (TRIM-style discard)."""
        if 0 <= block_id < len(self._sizes):
            self._sizes[block_id] = -1
            self._digests[block_id] = 0

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
        self._grow(stop)
        block_size = self.block_size
        self._sizes[start_block:stop] = block_size
        self._sizes[stop - 1] = nbytes - (num_blocks - 1) * block_size
        self._digests[start_block:stop] = digests

    def _grow(self, stop: int) -> None:
        """Make the records reach block ``stop - 1`` (grown by doubling)."""
        if stop > len(self._sizes):
            grow = max(stop, 2 * len(self._sizes)) - len(self._sizes)
            self._sizes = np.concatenate([self._sizes, np.full(grow, -1, np.int64)])
            self._digests = np.concatenate([self._digests, np.zeros(grow, np.uint64)])

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
        block_ids = np.arange(start_block, start_block + num_blocks)
        return sum(sizes), self._verify(block_ids, view, sizes)

    def read_ranges(
        self,
        runs: np.ndarray,
        scratch: Buffer,
        attempt: Callable[[Callable[[], List[int]]], List[int]],
        out: np.ndarray,
        copies: np.ndarray,
        batch: bool = False,
    ) -> None:
        """Read several runs of consecutive blocks back to back, verify them, copy out.

        ``runs`` is an int64 ``(k, 2)`` array of ``(start_block,
        num_blocks)``; their blocks land in the front of ``scratch`` one
        run after another, and each run is charged as :meth:`read_into`
        would charge it, in order, so the random/sequential split and
        ``modelled_seconds`` are those of one :meth:`read_into` per run.
        Every block is compared against its write-time record, and only
        then is each run's ``copies`` row ``(skip, length, at)`` applied:
        bytes ``[skip, skip + length)`` of the run go to
        ``out[at : at + length]`` (``out`` a C-contiguous ``uint8``
        array).  The first mismatch, in run order, raises
        :class:`~repro.exceptions.CorruptionError` with nothing copied.

        With ``batch`` (the caller arms no fault plan and no deadline)
        the kernel provider reads the runs in one call
        (``kernels.read_runs``).  Otherwise, and wherever that call
        declines, :meth:`_read_runs` does them one at a time through
        ``attempt`` (the hybrid memory's fault/deadline/retry loop), so a
        failed run is retried alone and the batch resumes at it.
        """
        kernels = self.kernels if batch else NUMPY_KERNELS
        kernels.read_runs(self, runs, scratch, out, copies, attempt)

    def page_steps(
        self, steps: np.ndarray, call: Callable[[np.ndarray, np.ndarray], int]
    ) -> int:
        """Run a planned sequence of whole-page reads and write-backs in one call.

        ``steps`` is the paged pool's int64 ``(k, 8)`` plan (see
        :meth:`~repro.sketch.paged_pool.PagedTensorPool.fold_planned`):
        row ``i`` reads ``steps[i, 1]`` blocks from block ``steps[i, 0]``
        (none when it is negative) and writes ``steps[i, 5]`` from block
        ``steps[i, 4]`` (none when its victim ``steps[i, 3]`` is 0).  The
        records are grown to cover every write first; ``call(counts,
        seconds)`` -- the provider's ``repro_fold_pages`` -- then runs the
        steps against them and the charge state (:meth:`_charges`), and
        returns how many it finished, whose charges are settled here and
        whose blocks are counted in ``integrity.blocks_digested``.
        """
        for start, blocks in steps[steps[:, 3] != 0][:, 4:6].tolist():
            self._grow(start + blocks)
        counts, seconds = self._charges()
        done = call(counts, seconds)
        self._settle(counts, seconds)
        registry = default_registry()
        if registry.enabled and done:
            finished = steps[:done]
            read = int(finished[finished[:, 0] >= 0, 1].sum())
            written = int(finished[finished[:, 3] != 0, 5].sum())
            registry.counter("integrity.blocks_digested").inc(read + written)
        return done

    def _read_runs(
        self,
        runs: np.ndarray,
        view: memoryview,
        attempt: Callable[[Callable[[], List[int]]], List[int]],
    ) -> List[int]:
        """The per-run path of :meth:`read_ranges`: fetch and charge each run
        through ``attempt``, then **one** :func:`block_digests` call over
        everything that landed and the checks.  A run whose fetch fails
        for good verifies what was fetched before it first, so corruption
        there still surfaces ahead of the device error.  Returns the byte
        count of each run.
        """
        sizes: List[int] = []
        lengths: List[int] = []
        total = 0
        try:
            for start_block, num_blocks in runs.tolist():
                run_sizes = attempt(partial(self._gather, start_block, num_blocks, view, total))
                sizes += run_sizes
                lengths.append(sum(run_sizes))
                total += lengths[-1]
        except OSError:
            self._verify(_block_ids(runs[: len(lengths)]), view, sizes)
            raise
        self._verify(_block_ids(runs), view, sizes)
        return lengths

    def _gather(self, start_block: int, num_blocks: int, view: memoryview, at: int) -> List[int]:
        """Copy a run of blocks to ``view[at:]`` back to back and charge it.

        Returns the sizes of the blocks copied.
        """
        sizes = self._sizes[max(start_block, 0) : start_block + num_blocks].tolist()
        if start_block < 0 or len(sizes) < num_blocks or -1 in sizes:
            missing = start_block + (sizes.index(-1) if -1 in sizes else len(sizes))
            raise StorageError(f"block {missing} has never been written")
        total = sum(sizes)
        if at + total > len(view):
            raise ValueError(f"a {len(view)}-byte buffer cannot take {at + total} bytes")
        if total:
            self._fetch(start_block, sizes, view, at)
        self._charge(start_block, num_blocks, is_write=False, nbytes=total)
        return sizes

    def _verify(self, block_ids: np.ndarray, view: memoryview, sizes: List[int]) -> List[int]:
        """Hash the blocks joined at the front of ``view`` and check each one.

        ``sizes`` are the joined blocks' sizes, ``block_ids`` their ids
        in the same order.  One :func:`block_digests` call covers them
        all while they sit on the ``block_size`` grid; a short block
        before the last one (or an empty last one) puts them off it, and
        then each block is hashed alone.  The expected digests are one
        gather of the records.  Returns the digests.
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
        bad = np.flatnonzero(np.array(digests, dtype=np.uint64) != self._digests[block_ids])
        if bad.size:
            block_id = int(block_ids[bad[0]])
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
        return int(np.count_nonzero(self._sizes >= 0))

    @property
    def bytes_in_use(self) -> int:
        return int(self._sizes[self._sizes >= 0].sum())

    def _charges(self) -> Tuple[np.ndarray, np.ndarray]:
        """The charge state as the compiled calls take it: int64 ``counts``
        ``(has_last, last block, random, sequential, block reads, bytes
        read, block writes, bytes written)`` and a one-float ``seconds``."""
        stats, last = self.stats, self._last_block_accessed
        counts = np.array(
            [last is not None, last or 0, stats.random_accesses, stats.sequential_accesses,
             stats.block_reads, stats.bytes_read, stats.block_writes, stats.bytes_written],
            dtype=np.int64,
        )
        return counts, np.array([stats.modelled_seconds])

    def _settle(self, counts: np.ndarray, seconds: np.ndarray) -> None:
        """Write a compiled call's :meth:`_charges` back."""
        stats = self.stats
        (has_last, last, stats.random_accesses, stats.sequential_accesses,
         stats.block_reads, stats.bytes_read, stats.block_writes,
         stats.bytes_written) = counts.tolist()
        self._last_block_accessed = last if has_last else None
        stats.modelled_seconds = float(seconds[0])

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
    file, so such a run is read block by block) -- or, for a batch of
    runs, a ``pread`` each inside the compiled ``read_runs``, which
    reads the file through its descriptor.  The file is made at
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

    def _writable_fd(self) -> int:
        return self._fd if self._owner == os.getpid() else -1

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


def _block_ids(runs: np.ndarray) -> np.ndarray:
    """The ids of every block of ``runs``, run after run."""
    starts, counts = runs[:, 0], runs[:, 1]
    before = np.cumsum(counts) - counts
    return np.repeat(starts - before, counts) + np.arange(int(counts.sum()))


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
