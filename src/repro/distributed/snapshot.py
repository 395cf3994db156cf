"""Pool snapshots: a whole tensor pool as one versioned binary blob.

The on-disk format (version 2, all integers little-endian)::

    header (12 fields, 96 bytes):
        magic        uint64  "SNAP" + format version in the low word
        flags        uint64  bit 0: packed buckets; bit 1: written by a
                             paged pool (informational)
        num_nodes    uint64
        graph_seed   uint64  (masked to 64 bits)
        num_rounds   uint64
        num_rows     uint64
        num_columns  uint64
        delta        float64
        pool_updates uint64  the pool's updates_applied counter
        stream_offset uint64 how many stream updates produced this state
        engine_updates uint64 the engine's updates_processed counter
        fingerprint  uint64  GraphZeppelinConfig.sketch_fingerprint()
    payload:
        one section per bucket plane of the geometry
        (:attr:`~repro.sketch.geometry.SketchGeometry.planes`), in plane
        order: that plane's round-major ``(rounds, nodes, cols, rows)``
        tensor in C order.
    digest trailer:
        one ``uint64`` :func:`~repro.integrity.digest.payload_digest`
        per (section, round) stripe, section-major (``sections x
        rounds`` entries), letting every loader reject a silently
        corrupted payload before any pool mutation.  A magic with any
        other version is refused.

Round-major payload order is what makes snapshots cheap for *both* pool
flavours: the writer streams one round slab per plane and round, read
through the pool's ``_round_view`` -- a slice of a flat
:class:`~repro.sketch.tensor_pool.NodeTensorPool`'s tensors, or one
batched range read of a
:class:`~repro.sketch.paged_pool.PagedTensorPool`'s page stripes into
its budget-reserved slab -- and the loaders stream the file back one
page (or one chunk) at a time, so a paged pool is never materialised in
RAM, going in either direction.

Because sketches are linear, snapshots are also the unit of
*distribution*: :func:`merge_snapshots_into` XOR-combines the pools of
K disjoint sub-streams into the pool of their union, bit-identically to
serial ingestion.  Engines reach both through
:meth:`~repro.core.graph_zeppelin.GraphZeppelin.load_snapshot` and
:meth:`~repro.core.graph_zeppelin.GraphZeppelin.merge_snapshots`, which
build the pool and keep the engine's counters and cached answer
current.  Every loader validates the full header -- and, for merges,
pairwise compatibility of every input -- before a single bucket is
touched, so a bad file raises a clear
:class:`~repro.exceptions.StreamFormatError` and leaves the target pool
unmutated.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, CorruptionError, StreamFormatError
from repro.integrity.digest import StreamingDigest, payload_digest
from repro.observability.tracing import span
from repro.sketch.geometry import SketchGeometry
from repro.sketch.paged_pool import PagedTensorPool
from repro.sketch.tensor_pool import NodeTensorPool

PathLike = Union[str, Path]

#: Magic identifying a pool snapshot ("SNAP" + format version 2).
SNAPSHOT_MAGIC = 0x534E4150_00000002

_FLAG_PACKED = 1 << 0
_FLAG_PAGED_ORIGIN = 1 << 1
#: Set on snapshots produced by merging: their state is a *union* of
#: sub-streams, not a prefix of any one stream, so resuming a stream on
#: top of one would XOR-cancel the already-folded updates.
_FLAG_MERGED = 1 << 2

_HEADER = struct.Struct("<7QdQQQQ")

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Elements per chunk of the streaming flat read/XOR loop (uint64 ->
#: 8 MiB per chunk).
_CHUNK_ELEMS = 1 << 20


@dataclass(frozen=True)
class SnapshotMeta:
    """Everything a snapshot header records about the pool it holds."""

    geometry: SketchGeometry
    graph_seed: int
    paged_origin: bool
    pool_updates: int
    stream_offset: int
    engine_updates: int
    fingerprint: int
    #: True for snapshots produced by a merge: a union of sub-streams,
    #: not a resumable stream prefix (``stream_offset`` is meaningless).
    merged: bool = False
    #: Per-(section, round) payload digests, section-major (empty only
    #: on the metadata :func:`save_pool_snapshot` builds before writing).
    stripe_digests: Tuple[int, ...] = ()

    @property
    def payload_bytes(self) -> int:
        """Exact payload length implied by the geometry."""
        return self.geometry.num_nodes * self.geometry.allocated_bytes_per_node

    @property
    def digest_section_bytes(self) -> int:
        """Length of the digest trailer."""
        return len(self.geometry.planes) * self.geometry.rounds * 8

    def section_offset(self, plane: int) -> int:
        """Byte offset of a bucket plane's section inside the snapshot file."""
        plane_buckets = self.geometry.num_nodes * self.geometry.buckets_per_node
        return _HEADER.size + plane_buckets * sum(
            dtype.itemsize for _, dtype in self.geometry.planes[:plane]
        )


def _pool_meta(
    pool: NodeTensorPool,
    stream_offset: int,
    engine_updates: int,
    fingerprint: int,
) -> SnapshotMeta:
    return SnapshotMeta(
        geometry=pool.geometry,
        graph_seed=pool.graph_seed & _MASK64,
        paged_origin=pool.is_paged,
        pool_updates=pool.updates_applied,
        stream_offset=int(stream_offset),
        engine_updates=int(engine_updates),
        fingerprint=int(fingerprint) & _MASK64,
    )


def _pack_header(meta: SnapshotMeta) -> bytes:
    geometry = meta.geometry
    flags = (
        _FLAG_PACKED * geometry.packed
        | _FLAG_PAGED_ORIGIN * meta.paged_origin
        | _FLAG_MERGED * meta.merged
    )
    return _HEADER.pack(
        SNAPSHOT_MAGIC,
        flags,
        geometry.num_nodes,
        meta.graph_seed,
        geometry.rounds,
        geometry.rows,
        geometry.columns,
        geometry.delta,
        meta.pool_updates,
        meta.stream_offset,
        meta.engine_updates,
        meta.fingerprint,
    )


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def save_pool_snapshot(
    pool: NodeTensorPool,
    path: PathLike,
    stream_offset: int = 0,
    engine_updates: int = 0,
    fingerprint: int = 0,
    merged: bool = False,
) -> SnapshotMeta:
    """Serialise a whole pool -- flat or paged -- to ``path``.

    The file is written to a temporary sibling and atomically renamed
    into place, so a crash mid-snapshot never leaves a half-written
    checkpoint where a resumable one is expected.  Every pool is written
    one round slab of one plane at a time, read through ``_round_view``
    (on a paged pool one batched range read; the pool is never
    materialised).  ``stream_offset`` / ``engine_updates`` /
    ``fingerprint`` are the engine-level metadata stamped into the header.  Every round
    stripe's digest is accumulated as its bytes stream out and appended
    as the trailer, so checksumming never costs a second pass over the
    payload.  Returns the metadata written (digests included).
    """
    path = Path(path)
    meta = replace(
        _pool_meta(pool, stream_offset, engine_updates, fingerprint), merged=merged
    )
    digests: List[int] = []
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with span("snapshot.save"):
            with tmp_path.open("wb") as handle:
                handle.write(_pack_header(meta))
                for plane in range(len(pool.geometry.planes)):
                    for round_index in range(pool.num_rounds):
                        data = pool._round_view(plane, round_index).tobytes(order="C")
                        digests.append(payload_digest(data))
                        handle.write(data)
                handle.write(struct.pack(f"<{len(digests)}Q", *digests))
            with span("snapshot.promote"):
                os.replace(tmp_path, path)
    except BaseException:
        # A failed write must not leave a half-written .tmp sibling
        # around (checkpoint rotation would otherwise accumulate them).
        tmp_path.unlink(missing_ok=True)
        raise
    return replace(meta, stripe_digests=tuple(digests))


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def read_snapshot_meta(path: PathLike) -> SnapshotMeta:
    """Read and fully validate a snapshot's header (not its payload).

    Checks the magic (which embeds the format version), that the
    recorded geometry is one :class:`SketchGeometry` accepts, and that
    the file holds *exactly* the payload + digest trailer the geometry
    implies -- truncated or padded files fail here, before any loader
    mutates a pool.  The stripe digests come back parsed.
    """
    path = Path(path)
    file_bytes = path.stat().st_size
    if file_bytes < _HEADER.size:
        raise StreamFormatError(f"{path}: too short to contain a snapshot header")
    with path.open("rb") as handle:
        header = handle.read(_HEADER.size)
        (
            magic,
            flags,
            num_nodes,
            graph_seed,
            num_rounds,
            num_rows,
            num_columns,
            delta,
            pool_updates,
            stream_offset,
            engine_updates,
            fingerprint,
        ) = _HEADER.unpack(header)
        if magic != SNAPSHOT_MAGIC:
            raise StreamFormatError(
                f"bad snapshot magic {magic:#x} (expected {SNAPSHOT_MAGIC:#x})"
            )
        try:
            geometry = SketchGeometry(
                num_nodes=int(num_nodes),
                rounds=int(num_rounds),
                columns=int(num_columns),
                rows=int(num_rows),
                packed=bool(flags & _FLAG_PACKED),
                delta=float(delta),
            )
        except ConfigurationError as exc:
            raise StreamFormatError(f"{path}: snapshot header geometry: {exc}") from exc
        meta = SnapshotMeta(
            geometry=geometry,
            graph_seed=int(graph_seed),
            paged_origin=bool(flags & _FLAG_PAGED_ORIGIN),
            merged=bool(flags & _FLAG_MERGED),
            pool_updates=int(pool_updates),
            stream_offset=int(stream_offset),
            engine_updates=int(engine_updates),
            fingerprint=int(fingerprint),
        )
        payload_bytes = file_bytes - _HEADER.size - meta.digest_section_bytes
        if payload_bytes != meta.payload_bytes:
            raise StreamFormatError(
                f"{path} snapshot payload length {payload_bytes} does not match "
                f"expected {meta.payload_bytes}"
            )
        handle.seek(_HEADER.size + meta.payload_bytes)
        raw = handle.read(meta.digest_section_bytes)
        count = meta.digest_section_bytes // 8
        meta = replace(meta, stripe_digests=struct.unpack(f"<{count}Q", raw))
    return meta


def verify_snapshot_payload(
    path: PathLike, meta: Optional[SnapshotMeta] = None
) -> SnapshotMeta:
    """Verify every round stripe of a snapshot against its digests.

    One sequential pass over the payload; raises
    :class:`~repro.exceptions.CorruptionError` naming the first
    mismatching stripe.  Returns the (possibly freshly read) metadata.
    """
    path = Path(path)
    if meta is None:
        meta = read_snapshot_meta(path)
    geometry = meta.geometry
    row_elems = geometry.columns * geometry.rows
    index = 0
    with path.open("rb") as handle:
        handle.seek(_HEADER.size)
        for name, dtype in geometry.planes:
            stripe_bytes = geometry.num_nodes * row_elems * dtype.itemsize
            for round_index in range(geometry.rounds):
                digest = StreamingDigest()
                remaining = stripe_bytes
                while remaining:
                    data = handle.read(min(remaining, _CHUNK_ELEMS * 8))
                    if not data:
                        raise StreamFormatError(
                            f"{path}: snapshot payload truncated mid-read"
                        )
                    digest.update(data)
                    remaining -= len(data)
                if digest.digest() != meta.stripe_digests[index]:
                    raise CorruptionError(
                        f"{path}: payload checksum mismatch "
                        f"({name} section, round {round_index})"
                    )
                index += 1
    return meta


def _check_pool_matches(meta: SnapshotMeta, pool: NodeTensorPool, what: str) -> None:
    """Reject a snapshot/pool pairing before any bucket is touched."""
    if meta.geometry != pool.geometry:
        raise StreamFormatError(
            f"{what}: geometry mismatch (snapshot {meta.geometry}, pool {pool.geometry})"
        )
    if meta.graph_seed != pool.graph_seed & _MASK64:
        raise StreamFormatError(
            f"{what}: written under graph seed {meta.graph_seed}, "
            f"pool uses {pool.graph_seed & _MASK64}"
        )


def _apply_flat(handle: BinaryIO, pool: NodeTensorPool, xor: bool) -> None:
    """Stream a snapshot payload into a flat pool's tensors, chunked.

    Stamps every node first; the caller bumps the version after.
    """
    pool._stamp()
    for tensor in pool._planes:
        flat = tensor.reshape(-1)
        position = 0
        while position < flat.size:
            count = min(_CHUNK_ELEMS, flat.size - position)
            data = handle.read(count * flat.itemsize)
            if len(data) != count * flat.itemsize:
                raise StreamFormatError("snapshot payload truncated mid-read")
            chunk = np.frombuffer(data, dtype=flat.dtype, count=count)
            if xor:
                flat[position : position + count] ^= chunk
            else:
                flat[position : position + count] = chunk
            position += count


def _read_page_tensors(
    handle: BinaryIO, meta: SnapshotMeta, pool: PagedTensorPool, page: int
) -> Tuple[np.ndarray, ...]:
    """Read one page's ``(rounds, page_nodes, cols, rows)`` tensors.

    Gathers the page's node-range stripe of every round from the
    round-major payload with seeks -- the paged counterpart of the flat
    memory dump, sized at one page regardless of pool size.  Tail pages
    come back zero-padded to the uniform page shape.
    """
    lo, hi = pool.page_span(page)
    nodes = hi - lo
    row_elems = pool.num_columns * pool.num_rows
    tensors = []
    for plane, (_, dtype) in enumerate(pool.geometry.planes):
        itemsize = dtype.itemsize
        tensor = np.zeros(pool._page_shape(), dtype=dtype)
        base = meta.section_offset(plane)
        for round_index in range(pool.num_rounds):
            offset = base + (
                (round_index * pool.num_nodes + lo) * row_elems
            ) * itemsize
            handle.seek(offset)
            data = handle.read(nodes * row_elems * itemsize)
            if len(data) != nodes * row_elems * itemsize:
                raise StreamFormatError("snapshot payload truncated mid-read")
            tensor[round_index, :nodes] = np.frombuffer(data, dtype=dtype).reshape(
                nodes, pool.num_columns, pool.num_rows
            )
        tensors.append(tensor)
    return tuple(tensors)


def _apply_paged(
    handle: BinaryIO, meta: SnapshotMeta, pool: PagedTensorPool, xor: bool
) -> None:
    """Stream a snapshot payload into a paged pool, one page at a time.

    ``xor=False`` (loading) stores each non-zero page's payload through
    the hybrid memory -- all-zero pages stay implicitly lazy, and the
    working set is not polluted with read-only loads.  ``xor=True``
    (merging) pins each page and XOR-folds in place, so the merge runs
    under the pool's normal working-set budget.
    """
    for page in range(pool.num_pages):
        tensors = _read_page_tensors(handle, meta, pool, page)
        if xor:
            with pool._pinned(page) as entry:
                for target, source in zip(entry, tensors):
                    target ^= source
        else:
            if not any(tensor.any() for tensor in tensors):
                continue
            pool.replace_page(page, tensors)


def load_snapshot_into(path: PathLike, pool: NodeTensorPool) -> SnapshotMeta:
    """Fill an *untouched* pool with a snapshot's bucket state.

    The pool (flat or paged, either bucket mode) must have been built
    with the same geometry and seed the snapshot records -- validated,
    along with the payload length, before anything is written.  Returns
    the snapshot's metadata; the pool's update counter is restored from
    it.
    """
    path = Path(path)
    with span("snapshot.load"):
        meta = read_snapshot_meta(path)
        _check_pool_matches(meta, pool, str(path))
        # The payload is digest-verified end to end *before* the first
        # bucket is applied; a silently corrupted snapshot raises
        # CorruptionError here and leaves the pool untouched.
        verify_snapshot_payload(path, meta)
        with path.open("rb") as handle:
            if pool.is_paged:
                _apply_paged(handle, meta, pool, xor=False)
            else:
                handle.seek(_HEADER.size)
                _apply_flat(handle, pool, xor=False)
        pool._updates_applied = meta.pool_updates
        pool._bump_version()
    return meta


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def _check_snapshots_compatible(paths: Sequence[Path], metas: Sequence[SnapshotMeta]) -> None:
    """All-pairs compatibility, checked before any payload is read.  Every
    input already matched the pool's geometry and seed, so what is left
    to compare is the recorded config fingerprint."""
    first_path, first = paths[0], metas[0]
    for path, meta in zip(paths[1:], metas[1:]):
        if meta.fingerprint != first.fingerprint:
            raise StreamFormatError(
                f"{path}: config fingerprint {meta.fingerprint:#x} does not "
                f"match {first_path}'s {first.fingerprint:#x}"
            )


def merge_snapshots_into(
    paths: Sequence[PathLike], pool: NodeTensorPool, verified: bool = False
) -> SnapshotMeta:
    """XOR every snapshot's buckets into ``pool``; returns merged metadata.

    The pool half of :meth:`GraphZeppelin.merge_snapshots
    <repro.core.graph_zeppelin.GraphZeppelin.merge_snapshots>`: into a
    fresh (all-zero) pool, the XOR of K snapshots built from disjoint
    sub-streams leaves it bit-identical to serially ingesting the
    concatenated stream.  Every header -- and all-pairs
    compatibility -- is validated *before* the first payload byte is
    applied, so a bad input leaves the pool unmutated.  So is
    uniqueness: one file named twice (under any spelling) would
    XOR-cancel itself, since XOR is self-inverse.  Update counters
    sum; the merged ``stream_offset`` is zero (a union of sub-streams
    is not a prefix of any one stream).  ``verified=True`` says the
    caller has already digest-checked every payload
    (:func:`verify_snapshot_payload`) since it was written, so that pass
    is not made twice.
    """
    if not paths:
        raise ValueError("merge_snapshots_into needs at least one snapshot path")
    paths = [Path(p) for p in paths]
    with span("snapshot.merge"):
        metas = [read_snapshot_meta(p) for p in paths]
        for later, path in enumerate(paths):
            for earlier in paths[:later]:
                if os.path.samefile(earlier, path):
                    raise StreamFormatError(
                        f"{path}: the same file as {earlier}; merging a snapshot "
                        "with itself would XOR-cancel it"
                    )
        for path, meta in zip(paths, metas):
            _check_pool_matches(meta, pool, str(path))
        _check_snapshots_compatible(paths, metas)
        if not verified:
            for path, meta in zip(paths, metas):
                verify_snapshot_payload(path, meta)
        merged = 0
        try:
            for path, meta in zip(paths, metas):
                with path.open("rb") as handle:
                    if pool.is_paged:
                        _apply_paged(handle, meta, pool, xor=True)
                    else:
                        handle.seek(_HEADER.size)
                        _apply_flat(handle, pool, xor=True)
                merged += meta.pool_updates
        finally:
            # A merge stopped by a storage error has written some pages:
            # the version still moves, so no cache serves the old state.
            pool.mark_external_updates(merged)
    return replace(
        metas[0],
        pool_updates=sum(meta.pool_updates for meta in metas),
        engine_updates=sum(meta.engine_updates for meta in metas),
        stream_offset=0,
        merged=True,
    )
