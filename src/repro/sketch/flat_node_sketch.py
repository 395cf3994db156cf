"""Columnar node sketches: a node's whole sketch bundle as two tensors.

In the paper a node sketch is ``ceil(log2 V)`` independent
:class:`~repro.sketch.cubesketch.CubeSketch` objects, one per Boruvka
round, each of which loops over its columns in Python, so a batched
update would cross the interpreter ``num_rounds x num_columns`` times.
:class:`FlatNodeSketch` stores the same state as two contiguous
uint64 tensors (``alpha`` and ``gamma``) covering every
``(round, row, column)`` bucket, and precomputes every (round, column)
hash seed into one seed matrix, so a batch of ``K`` edge-slot indices is

1. hashed **once** as a ``(K, rounds x columns)`` matrix
   (:func:`~repro.hashing.mixers.seeded_hash64_matrix`),
2. mapped to bucket depths with one vectorised pass, and
3. folded into every bucket by the level-peeling kernel
   (:func:`fold_hashed`): the updates' destination nodes are sorted once,
   bucket row 0 (which receives every update) is one segmented XOR over
   the destination groups, and each deeper row is a segmented XOR over
   the updates that reach it -- about half as many per row, so the whole
   fold costs about two passes over the ``updates x slots`` set whatever
   the destinations are.

The arithmetic is bit-for-bit that of the per-round CubeSketches: the
seeds are derived with the same labels, the hashes are the same
functions, and XOR folding is order-independent, so a FlatNodeSketch
and a list of per-round CubeSketches fed the same stream hold identical
buckets (the property tests assert this), and
:meth:`FlatNodeSketch.round_sketch` hands one round out as a CubeSketch.

Internally the tensors are laid out slot-major with bucket rows
innermost -- shape ``(num_rounds, num_columns, num_rows)`` -- so that a
bucket's flat offset is ``slot * num_rows + row``.  That makes the fold
kernel's scatter targets a single linear expression, and it is the same
layout :class:`~repro.sketch.tensor_pool.NodeTensorPool` uses to hold
*every* node's bundle in one allocation.  The public accessors
(:meth:`FlatNodeSketch.raw_tensors`, :meth:`FlatNodeSketch.round_arrays`)
present the conventional ``(rounds, rows, cols)`` / ``(rows, cols)``
orientation as transposed views.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.edge_encoding import EdgeEncoder
from repro.exceptions import IncompatibleSketchError
from repro.hashing.mixers import (
    finalise_hash64_inplace,
    hash_to_depth,
    mix_seed_array,
    seeded_hash64_matrix,
)
from repro.hashing.prng import derive_seed
from repro.sketch.cubesketch import (
    _CHECKSUM_LABEL,
    _MEMBERSHIP_LABEL,
    CubeSketch,
    validate_indices,
)
from repro.sketch.geometry import SketchGeometry, round_seed
from repro.sketch.sketch_base import SAMPLE_FAIL, SAMPLE_GOOD, SAMPLE_ZERO, SampleResult

_GAMMA_MASK = np.uint64(0xFFFFFFFF)
_ZERO64 = np.uint64(0)

#: Updates per internal chunk of :meth:`FlatNodeSketch.apply_indices`;
#: bounds the ``(K, slots)`` temporaries to a few tens of megabytes
#: while keeping per-chunk fixed costs amortised.
BATCH_CHUNK = 1 << 15

#: Thread-local scratch arena for the hash phase's ``(K, S)`` matrices.
#: Chunked ingest hashes millions of batches, so reusing the buffers
#: removes the dominant allocator churn of the numpy path; thread-local
#: storage keeps concurrent shard folds from sharing them.
_FOLD_SCRATCH = threading.local()


def fold_scratch(tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """A reusable per-thread scratch buffer for one role and dtype.

    Each ``(tag, dtype)`` role owns one grow-only buffer and callers get
    a view of its head, so the arena holds what the largest batch needed
    however many distinct batch sizes went through.  Buffers live until
    the thread exits.  Callers must finish consuming a view before
    requesting the same role again on the same thread.
    """
    buffers = getattr(_FOLD_SCRATCH, "buffers", None)
    if buffers is None:
        buffers = {}
        _FOLD_SCRATCH.buffers = buffers
    key = (tag, np.dtype(dtype).str)
    size = int(np.prod(shape))
    buffer = buffers.get(key)
    if buffer is None or buffer.size < size:
        buffer = buffers[key] = np.empty(size, dtype=dtype)
    return buffer[:size].reshape(shape)


def fold_scratch_bytes() -> int:
    """Bytes the calling thread's scratch arena currently holds."""
    buffers = getattr(_FOLD_SCRATCH, "buffers", {})
    return sum(buffer.nbytes for buffer in buffers.values())


@lru_cache(maxsize=64)
def flat_seed_matrices(
    graph_seed: int, geometry: SketchGeometry
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-(round, column) hash seeds, flattened round-major.

    Returns ``(membership, checksum, mixed_membership, mixed_checksum)``
    where each array has ``rounds * columns`` entries and slot
    ``s = round * columns + column``.  The raw seeds match the ones
    the per-round CubeSketches derive; the mixed variants are
    pre-diffused for :func:`~repro.hashing.mixers.seeded_hash64_matrix`.
    Seeds depend only on the graph seed and the geometry, so they are
    cached and shared across every node of an engine.
    """
    num_rounds, num_columns = geometry.rounds, geometry.columns
    membership = np.empty(num_rounds * num_columns, dtype=np.uint64)
    checksum = np.empty(num_rounds * num_columns, dtype=np.uint64)
    for round_index in range(num_rounds):
        seed = round_seed(graph_seed, round_index)
        base = round_index * num_columns
        for col in range(num_columns):
            membership[base + col] = derive_seed(seed, _MEMBERSHIP_LABEL, col)
            checksum[base + col] = derive_seed(seed, _CHECKSUM_LABEL, col)
    mixed_membership = mix_seed_array(membership)
    mixed_checksum = mix_seed_array(checksum)
    for array in (membership, checksum, mixed_membership, mixed_checksum):
        array.flags.writeable = False
    return membership, checksum, mixed_membership, mixed_checksum


def hash_depths_checksums(
    indices: np.ndarray,
    mixed_membership: np.ndarray,
    mixed_checksum: np.ndarray,
    num_rows: int,
    reuse_scratch: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Hash phase of the fold kernel: ``(K, S)`` depths and checksums.

    Split out so callers folding the *same* indices into several
    destinations (the mirrored halves of an edge batch) hash once and
    reuse the matrices.  ``reuse_scratch`` backs the hash matrices with
    the per-thread :func:`fold_scratch` arena instead of fresh
    allocations; the returned arrays are then only valid until this
    thread's next ``reuse_scratch`` call, so it is for callers that
    consume them immediately.
    """
    idx = indices.astype(np.uint64, copy=False)
    shape = (idx.size, mixed_membership.size)
    membership = seeded_hash64_matrix(
        idx,
        mixed_membership,
        out=fold_scratch("membership", shape, np.uint64) if reuse_scratch else None,
    )
    depths = hash_to_depth(membership, num_rows)
    checksums = seeded_hash64_matrix(
        idx,
        mixed_checksum,
        out=fold_scratch("checksum", shape, np.uint64) if reuse_scratch else None,
    )
    checksums &= _GAMMA_MASK
    return depths, checksums


def _segment_starts(keys: np.ndarray) -> np.ndarray:
    """First position of every run of equal values in a non-empty 1-D array."""
    new_segment = np.empty(keys.size, dtype=bool)
    new_segment[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_segment[1:])
    return np.flatnonzero(new_segment)


def _separate_planes(alpha: np.ndarray, gamma: np.ndarray) -> Tuple[np.ndarray, ...]:
    """:func:`fold_hashed`'s default planes: uint64 alpha and gamma apart."""
    return alpha, gamma


def fold_hashed(
    indices: np.ndarray,
    depths: np.ndarray,
    checksums: np.ndarray,
    num_rows: int,
    dsts: np.ndarray,
    edge_rows: Optional[np.ndarray] = None,
    dst_stride: Optional[int] = None,
    slot_offsets: Optional[np.ndarray] = None,
    pack: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, ...]] = _separate_planes,
) -> Tuple[np.ndarray, ...]:
    """Reduction phase of the fold kernel: peel the bucket rows level by level.

    ``indices`` holds ``K`` edge slots and ``depths`` / ``checksums``
    their ``(K, S)`` hash matrices (:func:`hash_depths_checksums`).
    Update ``i`` folds edge ``edge_rows[i]`` (edge ``i`` when
    ``edge_rows`` is ``None``) into node ``dsts[i]``, so the mirrored
    copies of an edge share one row of the matrices.

    An update of depth ``d`` belongs to bucket rows ``0 .. d - 1`` of its
    ``(destination, slot)`` column.  The ``M`` destinations are
    stable-sorted once and the depths and values are gathered into
    ``(S, M)`` order, which makes every column's updates contiguous.
    Row 0 receives every update: one segmented XOR over the destination
    groups.  Row ``r >= 1`` receives the updates with ``depth > r``: the
    survivors are compacted (keeping their order, so columns stay
    contiguous), segmented by the column they carry along, and reduced
    again.  Depths are geometric, so each row keeps about half of the
    row before it and the loop ends when no update is deep enough.

    Bucket ``(dst, slot, row)`` is emitted at flat offset
    ``(dst * dst_stride + slot_offsets[slot]) * num_rows + row``
    (node-major ``dst * S + slot`` by default; any mapping injective
    over ``(dst, slot)`` works, which is how the pools get round-major
    and page-local offsets straight from the kernel).

    Returns ``targets`` and one value array per bucket plane:
    ``pack(alpha, gamma)`` (a :meth:`SketchGeometry.pack
    <repro.sketch.geometry.SketchGeometry.pack>`) names the planes, each
    reduced on its own -- one reduction for packed ``alpha << 32 |
    gamma`` words -- and without it they are uint64 alpha and gamma.
    Targets are unique within one call -- at most one per
    ``(dst, slot, row)`` -- and ordered row-major, not ascending.
    """
    num_slots = depths.shape[1]
    stride = num_slots if dst_stride is None else int(dst_stride)
    offsets = np.arange(num_slots, dtype=np.int64) if slot_offsets is None else slot_offsets
    dst_arr = np.asarray(dsts).astype(np.int64, copy=False)
    order = np.argsort(dst_arr, kind="stable")
    sorted_dsts = dst_arr[order]
    rows = order if edge_rows is None else edge_rows[order]
    count = rows.size

    alpha = indices.astype(np.uint64, copy=False)[rows]
    depth = np.ascontiguousarray(depths[rows].astype(np.int8).T)
    gamma = np.ascontiguousarray(checksums[rows].T)
    planes = [np.broadcast_to(plane, gamma.shape) for plane in pack(alpha, gamma)]

    # Flat offset of a column's row 0, split into its slot and
    # destination terms so it is only ever materialised for survivors.
    slot_base = offsets * np.int64(num_rows)
    dst_base = sorted_dsts * np.int64(stride * num_rows)

    starts = _segment_starts(sorted_dsts)
    targets = [(slot_base[:, None] + dst_base[starts][None, :]).ravel()]
    values = [
        [np.bitwise_xor.reduceat(plane, starts, axis=1).ravel()] for plane in planes
    ]

    # ``flatnonzero`` + ``take`` compacts ~8x faster than boolean-mask
    # indexing, and the (S, M) flat order is slot-major, so survivors of
    # one column stay adjacent.
    keep = np.flatnonzero(depth > 1)
    slot = keep // count
    column = slot_base[slot] + dst_base[keep - slot * count]
    depth = depth.ravel().take(keep)
    planes = [np.take(plane, keep) for plane in planes]
    row = 1
    while column.size:
        starts = _segment_starts(column)
        targets.append(column.take(starts) + row)
        for emitted, plane in zip(values, planes):
            emitted.append(np.bitwise_xor.reduceat(plane, starts))
        row += 1
        keep = np.flatnonzero(depth > row)
        column = column.take(keep)
        depth = depth.take(keep)
        planes = [plane.take(keep) for plane in planes]
    return (np.concatenate(targets), *(np.concatenate(emitted) for emitted in values))


def segmented_xor(values: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """XOR-reduce consecutive row segments of a 2-D array in one pass.

    ``values`` is ``(M, W)`` with rows already grouped into segments;
    ``seg_starts`` holds each segment's first row (``seg_starts[0]`` must
    be 0 and segments must be non-empty).  Returns the
    ``(num_segments, W)`` per-segment XOR -- the query-side twin of the
    fold kernel's segmented reduction -- through ``reduceat``, which
    writes only the segment results.  When every segment is a single
    row the input is returned as-is, so callers must treat the result
    as read-only.
    """
    if seg_starts.size == values.shape[0]:
        return values
    return np.bitwise_xor.reduceat(values, seg_starts, axis=0)


#: Largest label value the int16 radix argsort fast path can represent.
_INT16_LABEL_LIMIT = int(np.iinfo(np.int16).max)


def group_nodes_by_label(
    labels: np.ndarray, node_mask: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group node ids into contiguous per-label segments.

    The shared front half of every whole-round cut query: select the
    nodes (``node_mask`` restricts to the marked ones), stable-sort
    them by label -- through numpy's int16 radix sort when every label
    fits, ~7x faster than the int64 comparison sort -- and mark the
    segment boundaries.  Returns ``(sorted_nodes, seg_starts, roots)``
    where ``roots`` holds the distinct labels in ascending order, one
    per segment.
    """
    if node_mask is None:
        nodes = np.arange(labels.size, dtype=np.int64)
        selected = np.asarray(labels, dtype=np.int64)
    else:
        nodes = np.flatnonzero(np.asarray(node_mask, dtype=bool))
        selected = np.asarray(labels, dtype=np.int64)[nodes]
    if nodes.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    # Gate the fast path on the actual label values -- labels are
    # caller-supplied and need not be node ids; an out-of-range value
    # would wrap through the cast and mis-group components.
    if int(selected.min()) >= 0 and int(selected.max()) <= _INT16_LABEL_LIMIT:
        order = np.argsort(selected.astype(np.int16), kind="stable")
    else:
        order = np.argsort(selected, kind="stable")
    sorted_nodes = nodes[order]
    sorted_labels = selected[order]
    new_seg = np.empty(sorted_labels.size, dtype=bool)
    new_seg[0] = True
    np.not_equal(sorted_labels[1:], sorted_labels[:-1], out=new_seg[1:])
    seg_starts = np.flatnonzero(new_seg)
    return sorted_nodes, seg_starts, sorted_labels[seg_starts]


def decode_column_batch(
    alpha: np.ndarray,
    gamma: np.ndarray,
    vector_length: int,
    mixed_checksum_seed: np.uint64,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode one column's buckets for many components at once.

    ``alpha`` and ``gamma`` are ``(C, num_rows)``: one column of ``C``
    merged component sketches.  Scans rows deepest-first exactly like
    :meth:`CubeSketch.query <repro.sketch.cubesketch.CubeSketch.query>`
    does within a column, checksum-verifying
    with one broadcasted hash pipeline.  Returns ``(good, zero, index)``
    where ``good[c]`` flags a verified bucket, ``zero[c]`` flags an
    all-empty column, and ``index[c]`` is the recovered edge slot (-1
    when not good).  ``mixed_checksum_seed`` is the column's checksum
    seed pre-diffused with :func:`~repro.hashing.mixers.mix_seed_array`.
    """
    count, num_rows = alpha.shape
    nonzero = (alpha != _ZERO64) | (gamma != _ZERO64)
    zero = ~nonzero.any(axis=1)
    candidates = nonzero & (alpha < np.uint64(vector_length))
    good = np.zeros(count, dtype=bool)
    index = np.full(count, -1, dtype=np.int64)
    # Checksum-hash only the candidate buckets (typically a small
    # fraction -- most buckets are empty or hold deep collisions), as a
    # compressed 1-D batch instead of the full (C, num_rows) matrix.
    flat_positions = np.flatnonzero(candidates)
    if flat_positions.size == 0:
        return good, zero, index
    flat_alpha = alpha.ravel()[flat_positions]
    hashed = finalise_hash64_inplace(flat_alpha ^ mixed_checksum_seed)
    verified = flat_positions[(hashed & _GAMMA_MASK) == gamma.ravel()[flat_positions]]
    if verified.size == 0:
        return good, zero, index
    # ``verified`` ascends component-major with rows ascending inside a
    # component; the deepest valid row is therefore each component's
    # *last* entry, i.e. the first occurrence scanning from the back.
    components = verified // num_rows
    hit_components, first_from_back = np.unique(components[::-1], return_index=True)
    picked = verified[components.size - 1 - first_from_back]
    good[hit_components] = True
    index[hit_components] = alpha.ravel()[picked].astype(np.int64)
    return good, zero, index


def query_bucket_arrays_batch(
    alpha: np.ndarray,
    gamma: np.ndarray,
    vector_length: int,
    checksum_seeds: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """CubeSketch's query over ``C`` components' bucket tensors at once.

    The batched twin of :meth:`CubeSketch.query
    <repro.sketch.cubesketch.CubeSketch.query>`: ``alpha`` and ``gamma``
    are ``(C, num_columns, num_rows)`` slot-major tensors (the tensor
    pool's native round-slice layout -- note the transpose relative to
    CubeSketch's ``(rows, cols)`` arrays), and
    instead of ``C`` :class:`SampleResult` objects the result is a pair
    of arrays: ``statuses`` (:data:`~repro.sketch.sketch_base.SAMPLE_ZERO`
    / ``SAMPLE_GOOD`` / ``SAMPLE_FAIL`` codes, uint8) and ``indices``
    (the sampled edge slot per GOOD component, -1 elsewhere).

    Columns are scanned in ascending order with deepest rows first, so
    each component reports exactly the bucket the scalar scan would --
    components resolved by an early column drop out of later columns'
    work, which is what makes whole-round Boruvka queries cheap: most
    components sample successfully from column 0.
    """
    alpha = np.asarray(alpha)
    gamma = np.asarray(gamma)
    if alpha.shape != gamma.shape or alpha.ndim != 3:
        raise ValueError("expected matching (C, num_columns, num_rows) bucket tensors")
    count, num_columns, _ = alpha.shape
    seeds = np.asarray(checksum_seeds, dtype=np.uint64)
    if seeds.shape != (num_columns,):
        raise ValueError("need exactly one checksum seed per column")
    mixed = mix_seed_array(seeds)

    statuses = np.full(count, SAMPLE_FAIL, dtype=np.uint8)
    indices = np.full(count, -1, dtype=np.int64)
    seen_nonzero = np.zeros(count, dtype=bool)
    undecided = np.arange(count)
    for col in range(num_columns):
        good, zero, index = decode_column_batch(
            alpha[undecided, col], gamma[undecided, col], vector_length, mixed[col]
        )
        seen_nonzero[undecided] |= ~zero
        hits = undecided[good]
        statuses[hits] = SAMPLE_GOOD
        indices[hits] = index[good]
        undecided = undecided[~good]
        if undecided.size == 0:
            break
    statuses[(statuses != SAMPLE_GOOD) & ~seen_nonzero] = SAMPLE_ZERO
    return statuses, indices


class FlatNodeSketch:
    """A node's entire sketch bundle as two contiguous uint64 tensors.

    The paper's per-round CubeSketch bundle with all per-round,
    per-column state flattened, so batched updates run as single numpy
    kernels; :meth:`round_sketch` hands one round out as a CubeSketch.
    """

    __slots__ = (
        "node",
        "encoder",
        "graph_seed",
        "geometry",
        "num_rounds",
        "num_rows",
        "num_columns",
        "_alpha",
        "_gamma",
        "_membership_seeds",
        "_checksum_seeds",
        "_mixed_membership",
        "_mixed_checksum",
        "_kernels",
    )

    def __init__(
        self,
        node: int,
        encoder: EdgeEncoder,
        graph_seed: int = 0,
        geometry: Optional[SketchGeometry] = None,
        kernels=None,
    ) -> None:
        self.node = int(node)
        self.encoder = encoder
        self.graph_seed = int(graph_seed)
        self.geometry = geometry or SketchGeometry.for_graph(encoder.num_nodes)
        self.num_rounds = self.geometry.rounds
        self.num_rows = self.geometry.rows
        self.num_columns = self.geometry.columns
        # Slot-major, rows innermost: bucket (round, row, col) lives at
        # flat offset (round * num_columns + col) * num_rows + row.
        shape = (self.num_rounds, self.num_columns, self.num_rows)
        self._alpha = np.zeros(shape, dtype=np.uint64)
        self._gamma = np.zeros(shape, dtype=np.uint64)
        (
            self._membership_seeds,
            self._checksum_seeds,
            self._mixed_membership,
            self._mixed_checksum,
        ) = flat_seed_matrices(self.graph_seed, self.geometry)
        #: Optional native kernel provider (see :mod:`repro.kernels`);
        #: ``None`` keeps the numpy fold.  Bit-identical either way.
        self._kernels = kernels

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        """Number of (round, column) hash slots."""
        return self.num_rounds * self.num_columns

    @property
    def vector_length(self) -> int:
        return self.encoder.vector_length

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def apply_edge(self, other_endpoint: int) -> None:
        """Toggle the edge ``{self.node, other_endpoint}`` in every round."""
        index = self.encoder.encode(self.node, other_endpoint)
        self.apply_indices(np.asarray([index], dtype=np.uint64))

    def apply_batch(self, neighbors: Iterable[int]) -> None:
        """Toggle a batch of edges ``{self.node, w}`` in every round."""
        indices = self.encoder.encode_batch(self.node, neighbors)
        self.apply_indices(indices)

    def apply_indices(self, indices: np.ndarray) -> None:
        """Fold pre-encoded edge-slot indices into every round at once."""
        idx = validate_indices(indices, self.encoder.vector_length)
        if idx is None:
            return
        kernels = getattr(self, "_kernels", None)
        if kernels is not None:
            kernels.fold_bundle(self, idx)
            return
        alpha_flat = self._alpha.reshape(-1)
        gamma_flat = self._gamma.reshape(-1)
        for start in range(0, idx.size, BATCH_CHUNK):
            chunk = idx[start : start + BATCH_CHUNK]
            depths, checksums = hash_depths_checksums(
                chunk,
                self._mixed_membership,
                self._mixed_checksum,
                self.num_rows,
                reuse_scratch=True,
            )
            targets, alpha_vals, gamma_vals = fold_hashed(
                chunk, depths, checksums, self.num_rows, np.zeros(chunk.size, dtype=np.int64)
            )
            alpha_flat[targets] ^= alpha_vals
            gamma_flat[targets] ^= gamma_vals

    # ------------------------------------------------------------------
    # queries and merging
    # ------------------------------------------------------------------
    def query_round(self, round_index: int) -> SampleResult:
        """Query the sketch reserved for Boruvka round ``round_index``."""
        return self.round_sketch(round_index).query()

    def _check_round(self, round_index: int) -> None:
        """Reject round ids the tensors would silently wrap."""
        if not 0 <= round_index < self.num_rounds:
            raise ValueError(f"round {round_index} outside [0, {self.num_rounds})")

    def round_arrays(self, round_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(rows, cols)`` views of one round's buckets."""
        self._check_round(round_index)
        alpha = self._alpha[round_index].T.view()
        gamma = self._gamma[round_index].T.view()
        alpha.flags.writeable = False
        gamma.flags.writeable = False
        return alpha, gamma

    def round_sketch(self, round_index: int) -> CubeSketch:
        """One round's buckets as a standalone CubeSketch (a copy)."""
        self._check_round(round_index)
        sketch = CubeSketch(
            self.encoder.vector_length,
            delta=self.geometry.delta,
            seed=round_seed(self.graph_seed, round_index),
            num_columns=self.num_columns,
            num_rows=self.num_rows,
        )
        sketch.load_raw_arrays(
            np.ascontiguousarray(self._alpha[round_index].T),
            np.ascontiguousarray(self._gamma[round_index].T),
        )
        return sketch

    def merge(self, other: "FlatNodeSketch") -> None:
        """Fold another node's bundle into this one (supernode merge)."""
        if not self.is_compatible(other):
            raise IncompatibleSketchError(
                "node sketches from different graphs/seeds cannot be merged"
            )
        self._alpha ^= other._alpha
        self._gamma ^= other._gamma

    def is_compatible(self, other: object) -> bool:
        # Bucket mode is how a pool stores buckets; a view holds uint64
        # tensors either way, so views of packed and wide pools compare.
        return (
            isinstance(other, FlatNodeSketch)
            and replace(other.geometry, packed=False) == replace(self.geometry, packed=False)
            and other.graph_seed == self.graph_seed
        )

    def copy(self) -> "FlatNodeSketch":
        clone = FlatNodeSketch.__new__(FlatNodeSketch)
        clone.node = self.node
        clone.encoder = self.encoder
        clone.graph_seed = self.graph_seed
        clone.geometry = self.geometry
        clone.num_rounds = self.num_rounds
        clone.num_rows = self.num_rows
        clone.num_columns = self.num_columns
        clone._alpha = self._alpha.copy()
        clone._gamma = self._gamma.copy()
        clone._membership_seeds = self._membership_seeds
        clone._checksum_seeds = self._checksum_seeds
        clone._mixed_membership = self._mixed_membership
        clone._mixed_checksum = self._mixed_checksum
        clone._kernels = getattr(self, "_kernels", None)
        return clone

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Total payload bytes across all rounds (paper's accounting)."""
        return self.geometry.accounted_bytes_per_node

    def is_empty(self) -> bool:
        return not self._alpha.any() and not self._gamma.any()

    def raw_tensors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(rounds, rows, cols)`` views of the full tensors."""
        alpha = self._alpha.transpose(0, 2, 1).view()
        gamma = self._gamma.transpose(0, 2, 1).view()
        alpha.flags.writeable = False
        gamma.flags.writeable = False
        return alpha, gamma

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlatNodeSketch):
            return NotImplemented
        return (
            self.is_compatible(other)
            and np.array_equal(self._alpha, other._alpha)
            and np.array_equal(self._gamma, other._gamma)
        )

    def __repr__(self) -> str:
        return (
            f"FlatNodeSketch(node={self.node}, rounds={self.num_rounds}, "
            f"rows={self.num_rows}, cols={self.num_columns}, bytes={self.size_bytes()})"
        )
