"""The numba native kernel provider (preferred; ``pip install .[native]``).

Importing this module requires :mod:`numba`; the registry in
:mod:`repro.kernels` catches the ``ImportError`` and falls back to the
runtime-compiled C provider (:mod:`repro.kernels.native_cc`).  Both
providers implement the same fused loops -- see the C module's
docstring for the why -- and both are property-tested bit-identical to
the numpy kernels.

The jitted kernels run ``nogil`` (the sharded thread ingest overlaps
shard folds) and ``parallel`` over hash slots / segments / components,
whose writes are disjoint by construction:

* fold: slot ``s`` only touches flat offsets congruent to
  ``slot_offsets[s]`` within a destination's bucket block, so the
  per-slot ``prange`` iterations never alias;
* segmented XOR: each segment owns its output row;
* decode: each component owns its output element.

All uint64 arithmetic is written with explicit ``np.uint64`` constants:
numba follows numpy's promotion rules, where ``uint64 op int64`` would
silently become ``float64`` and break bit-identity.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numba import njit, prange

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_XXP2 = np.uint64(0xC2B2AE3D27D4EB4F)
_XXP3 = np.uint64(0x165667B19E3779F9)
_LOW32 = np.uint64(0xFFFFFFFF)
_U0 = np.uint64(0)
_U1 = np.uint64(1)
_S27 = np.uint64(27)
_S29 = np.uint64(29)
_S30 = np.uint64(30)
_S31 = np.uint64(31)
_S32 = np.uint64(32)
_S33 = np.uint64(33)
_S3 = np.uint64(3)
_MASK64 = 0xFFFFFFFFFFFFFFFF

_JIT = dict(cache=True, nogil=True)


@njit(inline="always", **_JIT)
def _finalise(v):
    v = v + _GAMMA
    v ^= v >> _S30
    v *= _MUL1
    v ^= v >> _S27
    v *= _MUL2
    v ^= v >> _S31
    v ^= v >> _S33
    v *= _XXP2
    v ^= v >> _S29
    v *= _XXP3
    v ^= v >> _S32
    return v


@njit(inline="always", **_JIT)
def _splitmix64(v):
    v = v + _GAMMA
    v ^= v >> _S30
    v *= _MUL1
    v ^= v >> _S27
    v *= _MUL2
    v ^= v >> _S31
    return v


@njit(inline="always", **_JIT)
def _load_le64(data, start, count):
    w = _U0
    for j in range(count):
        w |= np.uint64(data[start + j]) << (np.uint64(j) << _S3)
    return w


@njit(inline="always", **_JIT)
def _depth(h, num_rows):
    if h == _U0:
        return num_rows
    t = 0
    while (h >> np.uint64(t)) & _U1 == _U0:
        t += 1
    if t > num_rows - 1:
        t = num_rows - 1
    return t + 1


@njit(parallel=True, **_JIT)
def _fold_packed(pool, idx, dsts, mm, mc, num_rows, dst_stride, slot_offsets):
    for s in prange(mm.size):
        mms = mm[s]
        mcs = mc[s]
        off = slot_offsets[s]
        for i in range(idx.size):
            v = idx[i]
            g = _finalise(v ^ mcs) & _LOW32
            depth = _depth(_finalise(v ^ mms), num_rows)
            base = (dsts[i] * dst_stride + off) * num_rows
            val = (v << _S32) | g
            for r in range(depth):
                pool[base + r] ^= val


@njit(parallel=True, **_JIT)
def _fold_wide(alpha, gamma, idx, dsts, mm, mc, num_rows, dst_stride, slot_offsets):
    for s in prange(mm.size):
        mms = mm[s]
        mcs = mc[s]
        off = slot_offsets[s]
        for i in range(idx.size):
            v = idx[i]
            g = _finalise(v ^ mcs) & _LOW32
            depth = _depth(_finalise(v ^ mms), num_rows)
            base = (dsts[i] * dst_stride + off) * num_rows
            g32 = np.uint32(g)
            for r in range(depth):
                alpha[base + r] ^= v
                gamma[base + r] ^= g32


@njit(parallel=True, **_JIT)
def _fold_sep64(alpha, gamma, idx, mm, mc, num_rows):
    for s in prange(mm.size):
        mms = mm[s]
        mcs = mc[s]
        base = s * num_rows
        for i in range(idx.size):
            v = idx[i]
            g = _finalise(v ^ mcs) & _LOW32
            depth = _depth(_finalise(v ^ mms), num_rows)
            for r in range(depth):
                alpha[base + r] ^= v
                gamma[base + r] ^= g


@njit(parallel=True, **_JIT)
def _fold_edges_packed(pool, idx, lo, hi, mm, mc, num_rows, dst_stride, slot_offsets):
    for s in prange(mm.size):
        mms = mm[s]
        mcs = mc[s]
        off = slot_offsets[s]
        for i in range(idx.size):
            v = idx[i]
            g = _finalise(v ^ mcs) & _LOW32
            depth = _depth(_finalise(v ^ mms), num_rows)
            val = (v << _S32) | g
            base_lo = (lo[i] * dst_stride + off) * num_rows
            base_hi = (hi[i] * dst_stride + off) * num_rows
            for r in range(depth):
                pool[base_lo + r] ^= val
                pool[base_hi + r] ^= val


@njit(parallel=True, **_JIT)
def _fold_edges_wide(
    alpha, gamma, idx, lo, hi, mm, mc, num_rows, dst_stride, slot_offsets
):
    for s in prange(mm.size):
        mms = mm[s]
        mcs = mc[s]
        off = slot_offsets[s]
        for i in range(idx.size):
            v = idx[i]
            g = _finalise(v ^ mcs) & _LOW32
            depth = _depth(_finalise(v ^ mms), num_rows)
            g32 = np.uint32(g)
            base_lo = (lo[i] * dst_stride + off) * num_rows
            base_hi = (hi[i] * dst_stride + off) * num_rows
            for r in range(depth):
                alpha[base_lo + r] ^= v
                gamma[base_lo + r] ^= g32
                alpha[base_hi + r] ^= v
                gamma[base_hi + r] ^= g32


@njit(parallel=True, **_JIT)
def _seg_xor(slab, node_stride, base_off, width, nodes, seg_starts, out):
    n_rows = nodes.size
    n_segs = seg_starts.size
    for s in prange(n_segs):
        start = seg_starts[s]
        end = seg_starts[s + 1] if s + 1 < n_segs else n_rows
        for w in range(width):
            out[s, w] = 0
        for r in range(start, end):
            base = nodes[r] * node_stride + base_off
            for w in range(width):
                out[s, w] ^= slab[base + w]


@njit(parallel=True, **_JIT)
def _decode_column(alpha, gamma, num_rows, veclen, mixed_seed, good, zero, index):
    count = alpha.shape[0]
    for c in prange(count):
        any_nonzero = False
        best = np.int64(-1)
        for r in range(num_rows):
            av = alpha[c, r]
            gv = gamma[c, r]
            if av == _U0 and gv == _U0:
                continue
            any_nonzero = True
            if av >= veclen:
                continue
            if (_finalise(av ^ mixed_seed) & _LOW32) == gv:
                best = np.int64(av)
        good[c] = best >= 0
        zero[c] = not any_nonzero
        index[c] = best


@njit(**_JIT)
def _block_digests(data, block_size, seed, out):
    # out[b] digests bytes [b * block_size, (b + 1) * block_size) exactly
    # like repro.integrity.digest.payload_digest: little-endian words
    # (zero-padded tail) mixed with their diffused position and the
    # diffused seed, XOR-reduced, length folded through the finaliser.
    mixed_seed = _splitmix64(seed)
    for b in range(out.size):
        start = b * block_size
        length = min(block_size, data.size - start)
        nwords = length >> 3
        acc = _U0
        for i in range(nwords):
            word = _load_le64(data, start + 8 * i, 8)
            acc ^= _splitmix64(word ^ _splitmix64(np.uint64(i)) ^ mixed_seed)
        if length & 7:
            word = _load_le64(data, start + 8 * nwords, length & 7)
            acc ^= _splitmix64(word ^ _splitmix64(np.uint64(nwords)) ^ mixed_seed)
        out[b] = _finalise(acc ^ _splitmix64(np.uint64(length)) ^ mixed_seed)


def _as_i64(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


def _as_u64(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.uint64)


class NumbaKernels:
    """Native kernel provider backed by numba-jitted loops.

    Same high-level interface as
    :class:`~repro.kernels.native_cc.CcKernels`; instances are
    process-wide singletons that survive copy/pickle by reference.
    """

    name = "numba"
    is_native = True

    def __init__(self) -> None:
        # Touch one trivial jit so a broken numba install fails here,
        # at provider construction, where the registry can fall back.
        _depth(np.uint64(1), 2)

    def __copy__(self) -> "NumbaKernels":
        return self

    def __deepcopy__(self, memo) -> "NumbaKernels":
        return self

    def __reduce__(self):
        from repro.kernels import resolve_kernels

        return (resolve_kernels, ("native",))

    # -- ingest folds ---------------------------------------------------
    def fold_pool(self, pool, indices: np.ndarray, dsts: np.ndarray) -> None:
        idx = _as_u64(indices)
        dst = _as_i64(dsts)
        if pool._packed:
            _fold_packed(
                pool._buckets.reshape(-1), idx, dst, pool._mixed_membership,
                pool._mixed_checksum, pool.num_rows, pool.num_columns,
                pool._slot_offsets,
            )
        else:
            _fold_wide(
                pool._alpha.reshape(-1), pool._gamma.reshape(-1), idx, dst,
                pool._mixed_membership, pool._mixed_checksum, pool.num_rows,
                pool.num_columns, pool._slot_offsets,
            )

    def fold_pool_edges(
        self, pool, indices: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> None:
        idx = _as_u64(indices)
        lo64 = _as_i64(lo)
        hi64 = _as_i64(hi)
        if pool._packed:
            _fold_edges_packed(
                pool._buckets.reshape(-1), idx, lo64, hi64,
                pool._mixed_membership, pool._mixed_checksum, pool.num_rows,
                pool.num_columns, pool._slot_offsets,
            )
        else:
            _fold_edges_wide(
                pool._alpha.reshape(-1), pool._gamma.reshape(-1), idx, lo64,
                hi64, pool._mixed_membership, pool._mixed_checksum,
                pool.num_rows, pool.num_columns, pool._slot_offsets,
            )

    def fold_page(
        self, pool, entry: Tuple[np.ndarray, ...], indices: np.ndarray,
        local_dsts: np.ndarray,
    ) -> None:
        idx = _as_u64(indices)
        dst = _as_i64(local_dsts)
        if pool._packed:
            _fold_packed(
                entry[0].reshape(-1), idx, dst, pool._mixed_membership,
                pool._mixed_checksum, pool.num_rows, pool.num_columns,
                pool._combined_offsets,
            )
        else:
            _fold_wide(
                entry[0].reshape(-1), entry[1].reshape(-1), idx, dst,
                pool._mixed_membership, pool._mixed_checksum, pool.num_rows,
                pool.num_columns, pool._combined_offsets,
            )

    def fold_bundle(self, sketch, indices: np.ndarray) -> None:
        _fold_sep64(
            sketch._alpha.reshape(-1), sketch._gamma.reshape(-1),
            _as_u64(indices), sketch._mixed_membership,
            sketch._mixed_checksum, sketch.num_rows,
        )

    # -- query-side kernels ---------------------------------------------
    def segment_xor(
        self,
        slab: np.ndarray,
        nodes: np.ndarray,
        seg_starts: np.ndarray,
        col_start: int,
        col_stop: int,
        num_rows: int,
    ) -> np.ndarray:
        slab = np.ascontiguousarray(slab)
        nodes = _as_i64(nodes)
        starts = _as_i64(seg_starts)
        width = (col_stop - col_start) * num_rows
        out = np.empty((starts.size, width), dtype=slab.dtype)
        _seg_xor(
            slab.reshape(-1), slab.shape[1] * slab.shape[2],
            col_start * num_rows, width, nodes, starts, out,
        )
        return out

    def decode_column(
        self,
        alpha: np.ndarray,
        gamma: np.ndarray,
        vector_length: int,
        mixed_seed: np.uint64,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        alpha = _as_u64(alpha)
        gamma = _as_u64(gamma)
        count, num_rows = alpha.shape
        good = np.empty(count, dtype=np.bool_)
        zero = np.empty(count, dtype=np.bool_)
        index = np.empty(count, dtype=np.int64)
        _decode_column(
            alpha, gamma, num_rows, np.uint64(vector_length),
            np.uint64(mixed_seed), good, zero, index,
        )
        return good, zero, index

    # -- storage integrity ----------------------------------------------
    def block_digests(self, data, block_size: int, seed: int) -> np.ndarray:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        raw = np.frombuffer(data, dtype=np.uint8)
        out = np.empty(max(1, -(-raw.size // block_size)), dtype=np.uint64)
        _block_digests(raw, block_size, np.uint64(seed & _MASK64), out)
        return out
