"""The compiled-C native kernel provider (gcc + ctypes, zero dependencies).

This module implements the six hot kernels of the engine -- the ingest
fold, the query-side segmented XOR-reduce, the batched bucket decode,
the storage-integrity block digest, and the fused sample and the round
tail of a Boruvka round -- as a small C library compiled
**at first use** with the host's C compiler and loaded through
:mod:`ctypes`.  It is the provider of the ``native`` kernel backend,
property-tested bit-identical to the numpy path.

Why compiling beats the numpy kernels:

* **fold**: the numpy fold materialises two ``(K, slots)`` uint64 hash
  matrices, argsorts a composite key, and runs ~15 vectorised passes of
  prefix-scan emission machinery.  The C fold is one loop in two phases
  per (slot, block of <= 256 updates).  Phase 1 hashes the block --
  checksum word and membership hash -- into 4 KiB of stack scratch with
  no store to the pool, which the compiler turns into vector code.
  Phase 2 walks the block, prefetches the destination buckets a few
  updates ahead, and writes the rows without a data-dependent branch:
  **row r is written <=> the low r bits of the membership hash are
  zero**, so rows 0..3 take one masked 4-lane XOR per update and the
  row loop (depth via ``ctz``, not a float ``log2`` round trip) runs
  for one update in 16.  A masked XOR still touches its row, so that
  head applies from ``num_rows >= 4``; a two-node graph (3 rows) keeps
  the plain depth loop.  XOR folding is order-independent, so the
  buckets are bit-identical to the argsort + prefix-scan emission path.
* **segmented XOR**: ``np.bitwise_xor.reduceat`` runs a scalar inner
  loop (~5 ns/element), and even the blocked two-level scheme pays a
  gather copy of the reordered rows.  The C kernel fuses the gather and
  the reduce: one pass over the segment's rows, auto-vectorised by the
  compiler, writing only the per-segment sums.
* **decode**: the numpy batched decoder makes ~6 full passes over the
  ``(C, rows)`` bucket arrays building masks before it can hash the
  candidates.  The C decoder scans each component's rows once,
  checksum-hashing only candidate buckets inline.
* **block digests**: the numpy digest of a 16 KB block is ~37 us of
  call overhead (a position-vector XOR, five in-place splitmix passes,
  a reduce, a scalar finaliser) around ~2 us of arithmetic.  The C
  kernel mixes, XOR-reduces, length-folds and finalises every block of
  a blob in one pass with no temporaries, so a page-in pays one call.
* **round sample**: composed from the kernels above, a round still
  pays an argsort and ``>> 32`` / ``& LOW32`` over fresh ``(segments,
  rows)`` temporaries.  ``sample_components`` counting-sorts the active
  nodes by label, XORs column 0 of each component into a scratch row,
  decodes it, and reads columns 1..C-1 only while unresolved.
* **round tail**: ``round_tail`` runs the per-edge Python union-by-size
  loop (no path compression, so the same trees) and the relabel in C.

The calls release the GIL (ctypes ``CDLL`` semantics), which is what
finally lets the sharded thread ingest scale past the numpy kernels'
serialised sections -- and what lets one serial fold use every core.
A CubeSketch's rounds are independent sketches and the pool is
round-major, so a contiguous range of rounds is a disjoint slab of the
pool, and a slot range is just an offset into the seed and slot-offset
vectors the C loop already walks.  A serial in-RAM fold with at least
two :data:`SPLIT_FLOOR` of (update, slot) work, in a process that may
use more than one core, is cut into balanced round ranges of at least
that much work each (one round apiece once the batch is large).  The
caller and ``usable_cores() - 1`` threads of a process-wide helper pool
claim the ranges one at a time until none is left, and the call returns
once every range has finished.  Claiming, not a fixed share per
thread, is what keeps the call steady on a shared host: a helper whose
core is busy elsewhere folds fewer ranges instead of holding the
caller up, so a split fold costs at most about what the serial fold
does.  No partition step, no second hash, no lock on the pool; XOR
into disjoint buckets is order-free, so the pool stays bit-identical
whichever thread folds which range.  The sharded workers'
``fold_shard`` (they already occupy the cores), the paged pool's page
folds and the per-node bundle fold never split.

The shared library is cached under ``$REPRO_KERNEL_CACHE`` (default: a
``repro-ckernels`` directory in the system temp dir) under a name made
of the source hash, the build flavour and -- for the ``-march=native``
flavour, which may only run on the CPU it was built for -- the host's
CPU identity, so each source revision compiles once per kind of
machine and a cache directory can be shared or baked into an image;
concurrent builds race benignly through an atomic rename.
"""

from __future__ import annotations

import collections
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import weakref
from typing import Optional, Tuple

import numpy as np

_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <string.h>

/* Bit-identical C twins of repro.hashing.mixers: splitmix64 followed by
 * the xxHash64 avalanche, over pre-mixed (seed-diffused) keys.  All
 * arithmetic is mod 2^64, exactly like numpy uint64 with overflow
 * ignored. */
static inline uint64_t repro_splitmix64(uint64_t v) {
    v += 0x9E3779B97F4A7C15ULL;
    v ^= v >> 30; v *= 0xBF58476D1CE4E5B9ULL;
    v ^= v >> 27; v *= 0x94D049BB133111EBULL;
    v ^= v >> 31;
    return v;
}

static inline uint64_t repro_avalanche(uint64_t v) {
    v ^= v >> 33; v *= 0xC2B2AE3D27D4EB4FULL;
    v ^= v >> 29; v *= 0x165667B19E3779F9ULL;
    v ^= v >> 32;
    return v;
}

static inline uint64_t repro_finalise(uint64_t key) {
    return repro_avalanche(repro_splitmix64(key));
}

/* depth = 1 + trailing-zero bits of the membership hash, clamped to
 * num_rows; an all-zero hash belongs to every row.  Matches
 * hash_to_depth's log2(lowest set bit) formulation bit for bit. */
static inline int64_t repro_depth(uint64_t h, int64_t num_rows) {
    int64_t t;
    if (h == 0) return num_rows;
    t = (int64_t)__builtin_ctzll(h);
    if (t > num_rows - 1) t = num_rows - 1;
    return t + 1;
}

/* ------------------------------------------------------------------ */
/* Ingest folds: one two-phase loop behind all five entry points.      */
/* Slot-outer, so one (round, column) seed pair stays in registers and */
/* writes cluster inside one round's slab; per slot, blocks of at most */
/* REPRO_FOLD_BLOCK updates go through                                 */
/*   phase 1: checksum word and membership hash of the block into two  */
/*     stack arrays (fold_shard runs concurrently on threads), no      */
/*     store to the pool -- straight-line code the compiler vectorises */
/*     (vpmullq under -march=native);                                  */
/*   phase 2: walk the block, prefetch the destination buckets         */
/*     REPRO_FOLD_AHEAD updates on (a small delta in a large pool is   */
/*     one dependent miss per (update, slot, destination); the block's */
/*     first ones are touched before phase 1, which hides them), and   */
/*     write the rows without a data-dependent branch.                 */
/* Row mask identity: row r takes the update <=> depth > r <=> the low */
/* r bits of the membership hash h are zero (h == 0 reaches every row; */
/* the clamp at num_rows never shows because r < num_rows).  Depth is  */
/* geometric, so rows 0..3 are XORed unconditionally, row r under the  */
/* mask (h & ((1 << r) - 1)) == 0 -- one 4-lane vector op per plane -- */
/* and the row loop is entered only when (h & 15) == 0, one update in  */
/* 16.  A masked XOR still touches its row, so that head needs         */
/* num_rows >= 4; narrower geometries (a two-node graph has 3 rows)    */
/* keep the plain depth loop: no row >= num_rows is read or written.   */
/* Bucket (dst, slot, row) lands at flat offset REPRO_AT + row, the    */
/* same injective segment mapping the numpy kernel emits.              */
/* ------------------------------------------------------------------ */

#define REPRO_FOLD_BLOCK 256
#define REPRO_FOLD_AHEAD 16
#define REPRO_AT(dst) (((dst) * dst_stride + slot_offsets[s]) * num_rows)

/* Update j goes to the NDST nodes DST(e, j); STORE(OP, at) applies a
 * per-plane OP (below) at bucket offset `at`. */
#define REPRO_FOLD(NDST, DST, STORE)                                        \
    uint64_t gs[REPRO_FOLD_BLOCK], hs[REPRO_FOLD_BLOCK];                    \
    const int64_t head = num_rows >= 4 ? 4 : 0;                             \
    int64_t s, b, i, e, r;                                                  \
    for (s = 0; s < num_slots; s++) {                                       \
        const uint64_t mms = mm[s], mcs = mc[s];                            \
        for (b = 0; b < k; b += REPRO_FOLD_BLOCK) {                         \
            const int64_t n =                                               \
                k - b < REPRO_FOLD_BLOCK ? k - b : REPRO_FOLD_BLOCK;        \
            for (i = 0; i < n && i < REPRO_FOLD_AHEAD; i++)                 \
                for (e = 0; e < NDST; e++)                                  \
                    STORE(REPRO_TOUCH, REPRO_AT(DST(e, b + i)));            \
            for (i = 0; i < n; i++) {                                       \
                gs[i] = repro_finalise(idx[b + i] ^ mcs) & 0xFFFFFFFFULL;   \
                hs[i] = repro_finalise(idx[b + i] ^ mms);                   \
            }                                                               \
            for (i = 0; i < n; i++) {                                       \
                const int64_t j = b + i, ahead = j + REPRO_FOLD_AHEAD;      \
                const uint64_t v = idx[j], g = gs[i], h = hs[i];            \
                const int deep = !head || !(h & 15);                        \
                for (e = 0; e < NDST && ahead < k; e++)                     \
                    STORE(REPRO_TOUCH, REPRO_AT(DST(e, ahead)));            \
                for (e = 0; e < NDST; e++) {                                \
                    const int64_t at = REPRO_AT(DST(e, j));                 \
                    if (head) STORE(REPRO_HEAD, at);                        \
                    if (__builtin_expect(deep, 0)) {                        \
                        const int64_t depth = repro_depth(h, num_rows);     \
                        for (r = head; r < depth; r++)                      \
                            STORE(REPRO_XOR, at + r);                       \
                    }                                                       \
                }                                                           \
            }                                                               \
        }                                                                   \
    }

/* One destination column (NULL: everything into bundle 0), or both
 * endpoints of a canonical edge -- hashed once, scattered twice. */
#define REPRO_FOLD_ARGS                                                     \
    int64_t k, const uint64_t *mm, const uint64_t *mc, int64_t num_slots,   \
    int64_t num_rows, int64_t dst_stride, const int64_t *slot_offsets
#define REPRO_NODE_ARGS                                                     \
    const uint64_t *idx, const int64_t *dsts, REPRO_FOLD_ARGS
#define REPRO_NODE_DST(e, j) (dsts ? dsts[j] : 0)
#define REPRO_EDGE_ARGS                                                     \
    const uint64_t *idx, const int64_t *lo, const int64_t *hi, REPRO_FOLD_ARGS
#define REPRO_EDGE_DST(e, j) ((e) ? hi[j] : lo[j])

/* Per-plane ops at p for the plane's word x: prefetch the head rows
 * (they may straddle a cache line); fold x into rows 0..3 under the row
 * masks of h (T: four rows as a vector, any alignment); fold x into *p. */
typedef uint64_t repro_u64x4
    __attribute__((vector_size(32), aligned(8), may_alias));
typedef uint32_t repro_u32x4
    __attribute__((vector_size(16), aligned(4), may_alias));
#define REPRO_TOUCH(T, p, x)                                                \
    (__builtin_prefetch(p, 1), __builtin_prefetch((p) + 3, 1))
#define REPRO_HEAD(T, p, x)                                                 \
    (*(T *)(p) ^=                                                           \
     (T){x, x, x, x} & (T)(((T){h, h, h, h} & (T){0, 1, 3, 7}) == 0))
#define REPRO_XOR(T, p, x) (*(p) ^= (x))

/* The three bucket layouts; gamma stays 32-bit in wide mode. */
#define REPRO_PACKED(OP, at) OP(repro_u64x4, pool + (at), (v << 32) | g)
#define REPRO_WIDE(OP, at)                                                  \
    (OP(repro_u64x4, alpha + (at), v), OP(repro_u32x4, gamma + (at), g))
#define REPRO_SEP64(OP, at)                                                 \
    (OP(repro_u64x4, alpha + (at), v), OP(repro_u64x4, gamma + (at), g))

void repro_fold_packed(uint64_t *pool, REPRO_NODE_ARGS) {
    REPRO_FOLD(1, REPRO_NODE_DST, REPRO_PACKED)
}

void repro_fold_wide(uint64_t *alpha, uint32_t *gamma, REPRO_NODE_ARGS) {
    REPRO_FOLD(1, REPRO_NODE_DST, REPRO_WIDE)
}

void repro_fold_sep64(uint64_t *alpha, uint64_t *gamma, REPRO_NODE_ARGS) {
    REPRO_FOLD(1, REPRO_NODE_DST, REPRO_SEP64)
}

void repro_fold_edges_packed(uint64_t *pool, REPRO_EDGE_ARGS) {
    REPRO_FOLD(2, REPRO_EDGE_DST, REPRO_PACKED)
}

void repro_fold_edges_wide(uint64_t *alpha, uint32_t *gamma, REPRO_EDGE_ARGS) {
    REPRO_FOLD(2, REPRO_EDGE_DST, REPRO_WIDE)
}

/* ------------------------------------------------------------------ */
/* Query-side segmented XOR: fused gather + reduce over a round slab.  */
/* Row `nodes[r]` of the slab contributes elements                     */
/* [base_off, base_off + width) (a contiguous column span); segment s  */
/* covers gather rows [seg_starts[s], seg_starts[s+1]).                */
/* ------------------------------------------------------------------ */

#define REPRO_SEG_XOR(T)                                                    \
    int64_t s, r, w;                                                        \
    for (s = 0; s < n_segs; s++) {                                          \
        const int64_t start = seg_starts[s];                                \
        const int64_t end = (s + 1 < n_segs) ? seg_starts[s + 1] : n_rows;  \
        T *o = out + s * width;                                             \
        for (w = 0; w < width; w++) o[w] = 0;                               \
        for (r = start; r < end; r++) {                                     \
            const T *row = slab + nodes[r] * node_stride + base_off;        \
            for (w = 0; w < width; w++) o[w] ^= row[w];                     \
        }                                                                   \
    }

void repro_seg_xor_u64(const uint64_t *slab, int64_t node_stride,
                       int64_t base_off, int64_t width, const int64_t *nodes,
                       int64_t n_rows, const int64_t *seg_starts,
                       int64_t n_segs, uint64_t *out) {
    REPRO_SEG_XOR(uint64_t)
}

void repro_seg_xor_u32(const uint32_t *slab, int64_t node_stride,
                       int64_t base_off, int64_t width, const int64_t *nodes,
                       int64_t n_rows, const int64_t *seg_starts,
                       int64_t n_segs, uint32_t *out) {
    REPRO_SEG_XOR(uint32_t)
}

/* ------------------------------------------------------------------ */
/* Batched bucket decode: a column is scanned from the deepest row up   */
/* and the first verified bucket wins (the numpy decoder's pick); *any */
/* is set once a non-empty bucket is seen, so always before a hit.     */
/* g == NULL: `a` holds packed alpha<<32 | gamma words.                */
/* ------------------------------------------------------------------ */

static inline int64_t repro_decode_one(const uint64_t *a, const uint64_t *g,
                                       int64_t num_rows, uint64_t veclen,
                                       uint64_t mixed_seed, int *any) {
    int64_t r;
    for (r = num_rows - 1; r >= 0; r--) {
        const uint64_t av = g ? a[r] : a[r] >> 32;
        const uint64_t gv = g ? g[r] : a[r] & 0xFFFFFFFFULL;
        if (av == 0 && gv == 0) continue;
        *any = 1;
        if (av >= veclen) continue;
        if ((repro_finalise(av ^ mixed_seed) & 0xFFFFFFFFULL) == gv)
            return (int64_t)av;
    }
    return -1;
}

void repro_decode_column(const uint64_t *alpha, const uint64_t *gamma,
                         int64_t count, int64_t num_rows, uint64_t veclen,
                         uint64_t mixed_seed, uint8_t *good, uint8_t *zero,
                         int64_t *index) {
    int64_t c;
    for (c = 0; c < count; c++) {
        int any = 0;
        const int64_t best = repro_decode_one(
            alpha + c * num_rows, gamma + c * num_rows, num_rows, veclen,
            mixed_seed, &any);
        good[c] = (uint8_t)(best >= 0);
        zero[c] = (uint8_t)(!any);
        index[c] = best;
    }
}

/* ------------------------------------------------------------------ */
/* Fused round sample: group -> reduce -> decode for every component   */
/* of a Boruvka round, no per-segment intermediates.  Active nodes     */
/* (mask NULL = all) are counting-sorted by label -- the caller        */
/* guarantees 0 <= labels[i] < num_nodes -- so components come out in  */
/* ascending label order.  Per component: XOR column 0 of the members, */
/* decode, and only if that fails pull columns 1..C-1 in one pass.     */
/* status 0 ZERO (every column empty), 1 GOOD, 2 FAIL as SAMPLE_*;     */
/* `gamma` NULL = packed slab; scratch `work` 2*num_nodes, `acc`       */
/* 2*num_cols*num_rows; outputs num_nodes.  Returns the count.         */
/* ------------------------------------------------------------------ */

#define REPRO_PREFETCH_AHEAD 8

/* XOR [off, off + width) of `count` member rows (`avail` readable). */
static inline void repro_xor_members(
        const uint64_t *slab, const uint32_t *gamma, int64_t stride,
        int64_t off, int64_t width, const int64_t *members, int64_t count,
        int64_t avail, uint64_t *xa, uint64_t *xg) {
    int64_t m, w;
    for (w = 0; w < width; w++) xa[w] = 0;
    if (gamma) for (w = 0; w < width; w++) xg[w] = 0;
    for (m = 0; m < count; m++) {
        const int64_t at = members[m] * stride + off;
        if (m + REPRO_PREFETCH_AHEAD < avail) {
            const int64_t next =
                members[m + REPRO_PREFETCH_AHEAD] * stride + off;
            for (w = 0; w < width && w < 32; w += 8)
                __builtin_prefetch(slab + next + w);
            if (gamma) __builtin_prefetch(gamma + next);
        }
        for (w = 0; w < width; w++) xa[w] ^= slab[at + w];
        if (gamma) for (w = 0; w < width; w++) xg[w] ^= gamma[at + w];
    }
}

int64_t repro_sample_components(
        const uint64_t *slab, const uint32_t *gamma, int64_t num_nodes,
        int64_t num_cols, int64_t num_rows, const int64_t *labels,
        const uint8_t *mask, uint64_t veclen, const uint64_t *mixed_seeds,
        int64_t *work, uint64_t *acc, int64_t *roots, uint8_t *statuses,
        int64_t *indices) {
    const int64_t stride = num_cols * num_rows;
    int64_t *cursor = work, *sorted = work + num_nodes;
    uint64_t *xa = acc, *xg = gamma ? acc + stride : NULL;
    int64_t i, c, col, count = 0, total = 0, start = 0;

    memset(cursor, 0, (size_t)num_nodes * sizeof(int64_t));
    for (i = 0; i < num_nodes; i++)
        if (!mask || mask[i]) cursor[labels[i]]++;
    for (i = 0; i < num_nodes; i++) {
        const int64_t size = cursor[i];
        if (!size) continue;
        roots[count++] = i;
        cursor[i] = total;
        total += size;
    }
    for (i = 0; i < num_nodes; i++)
        if (!mask || mask[i]) sorted[cursor[labels[i]]++] = i;

    for (c = 0; c < count; c++) {
        const int64_t end = cursor[roots[c]];
        int any = 0;
        int64_t best;
        repro_xor_members(slab, gamma, stride, 0, num_rows, sorted + start,
                          end - start, total - start, xa, xg);
        best = repro_decode_one(xa, xg, num_rows, veclen, mixed_seeds[0], &any);
        if (best < 0 && num_cols > 1) {
            repro_xor_members(slab, gamma, stride, num_rows,
                              stride - num_rows, sorted + start, end - start,
                              total - start, xa, xg);
            for (col = 1; col < num_cols && best < 0; col++)
                best = repro_decode_one(
                    xa + (col - 1) * num_rows,
                    xg ? xg + (col - 1) * num_rows : NULL, num_rows, veclen,
                    mixed_seeds[col], &any);
        }
        statuses[c] = (uint8_t)(best >= 0 ? 1 : (any ? 2 : 0));
        indices[c] = best;
        start = end;
    }
    return count;
}

/* ------------------------------------------------------------------ */
/* Boruvka round tail: union by size, no path compression, over the    */
/* sampled edges (ties keep u's root); merged roots lose `settled`,    */
/* merging edges are recorded in order, then every label is chased to  */
/* its root.  All ids must lie in [0, num_nodes).  Returns the merges. */
/* ------------------------------------------------------------------ */

int64_t repro_round_tail(int64_t *parent, int64_t *size, uint8_t *settled,
                         int64_t *labels, int64_t num_nodes,
                         const int64_t *us, const int64_t *vs, int64_t k,
                         int64_t *merged_u, int64_t *merged_v) {
    int64_t i, merges = 0;
    for (i = 0; i < k; i++) {
        int64_t ru = us[i], rv = vs[i];
        while (parent[ru] != ru) ru = parent[ru];
        while (parent[rv] != rv) rv = parent[rv];
        if (ru == rv) continue;
        if (size[ru] < size[rv]) { const int64_t t = ru; ru = rv; rv = t; }
        parent[rv] = ru;
        size[ru] += size[rv];
        settled[ru] = settled[rv] = 0;
        merged_u[merges] = us[i];
        merged_v[merges++] = vs[i];
    }
    if (merges)
        for (i = 0; i < num_nodes; i++) {
            int64_t root = labels[i];
            while (parent[root] != root) root = parent[root];
            labels[i] = root;
        }
    return merges;
}

/* ------------------------------------------------------------------ */
/* Storage digests (repro.integrity.digest): out[b] is the digest of   */
/* bytes [b * block_size, (b + 1) * block_size) of `data`, the last    */
/* block possibly short; an empty payload is one empty block.  Words   */
/* are little-endian with a zero-padded tail, each mixed with its      */
/* diffused position and the diffused seed, XOR-reduced, then folded   */
/* with the block's byte length through the seeded finaliser.          */
/* ------------------------------------------------------------------ */

static inline uint64_t repro_load_le64(const uint8_t *p, size_t n) {
    uint64_t w = 0;
    memcpy(&w, p, n);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    return w;
}

void repro_block_digests(const uint8_t *data, int64_t nbytes,
                         int64_t block_size, uint64_t seed, uint64_t *out) {
    const uint64_t mixed_seed = repro_splitmix64(seed);
    const int64_t num_blocks =
        nbytes > 0 ? (nbytes + block_size - 1) / block_size : 1;
    int64_t b, i;
    for (b = 0; b < num_blocks; b++) {
        const uint8_t *p = data + b * block_size;
        const int64_t rest = nbytes - b * block_size;
        const int64_t len = rest < block_size ? rest : block_size;
        const int64_t nwords = len >> 3;
        uint64_t acc = 0;
        for (i = 0; i < nwords; i++)
            acc ^= repro_splitmix64(repro_load_le64(p + 8 * i, 8)
                                    ^ repro_splitmix64((uint64_t)i)
                                    ^ mixed_seed);
        if (len & 7)
            acc ^= repro_splitmix64(
                repro_load_le64(p + 8 * nwords, (size_t)(len & 7))
                ^ repro_splitmix64((uint64_t)nwords) ^ mixed_seed);
        out[b] = repro_finalise(
            acc ^ repro_splitmix64((uint64_t)len) ^ mixed_seed);
    }
}
"""

_U64P = ctypes.POINTER(ctypes.c_uint64)
_U32P = ctypes.POINTER(ctypes.c_uint32)
_I64P = ctypes.POINTER(ctypes.c_int64)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_I64 = ctypes.c_int64
_U64 = ctypes.c_uint64

_SIGNATURES = {
    "repro_fold_packed": [_U64P, _U64P, _I64P, _I64, _U64P, _U64P, _I64, _I64, _I64, _I64P],
    "repro_fold_wide": [_U64P, _U32P, _U64P, _I64P, _I64, _U64P, _U64P, _I64, _I64, _I64, _I64P],
    "repro_fold_sep64": [_U64P, _U64P, _U64P, _I64P, _I64, _U64P, _U64P, _I64, _I64, _I64, _I64P],
    "repro_fold_edges_packed": [_U64P, _U64P, _I64P, _I64P, _I64, _U64P, _U64P, _I64, _I64, _I64, _I64P],
    "repro_fold_edges_wide": [_U64P, _U32P, _U64P, _I64P, _I64P, _I64, _U64P, _U64P, _I64, _I64, _I64, _I64P],
    "repro_seg_xor_u64": [_U64P, _I64, _I64, _I64, _I64P, _I64, _I64P, _I64, _U64P],
    "repro_seg_xor_u32": [_U32P, _I64, _I64, _I64, _I64P, _I64, _I64P, _I64, _U32P],
    "repro_decode_column": [_U64P, _U64P, _I64, _I64, _U64, _U64, _U8P, _U8P, _I64P],
    "repro_block_digests": [_U8P, _I64, _I64, _U64, _U64P],
    "repro_sample_components": [_U64P, _U32P, _I64, _I64, _I64, _I64P, _U8P, _U64, _U64P, _I64P, _U64P, _I64P, _U8P, _I64P],
    "repro_round_tail": [_I64P, _I64P, _U8P, _I64P, _I64, _I64P, _I64P, _I64, _I64P, _I64P],
}


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured:
        return configured
    return os.path.join(tempfile.gettempdir(), "repro-ckernels")


def find_compiler() -> Optional[str]:
    """The C compiler the provider would build with, or ``None``."""
    configured = os.environ.get("CC")
    if configured:
        return shutil.which(configured)
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def _host_cpu_tag() -> str:
    """``<machine>-<digest>`` naming the CPU a ``-march=native`` build assumes.

    The digest covers the instruction-set flags the OS reports, so two
    hosts sharing a cache directory (a network mount, a baked image)
    share a native build only when neither has an instruction the other
    lacks.
    """
    identity = platform.machine() + platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            identity += next(
                (line for line in handle if line.startswith(("flags", "Features"))), ""
            )
    except OSError:
        pass
    digest = hashlib.sha256(identity.encode("ascii", "replace")).hexdigest()[:8]
    return f"{platform.machine()}-{digest}"


def _library_path(native: bool) -> str:
    """Where one build flavour of this source revision is cached.

    A ``-march=native`` library may execute only on the CPU it was
    built for (the fold's hash phase is AVX-512 code where the builder
    has it: ``SIGILL`` anywhere else), so its name carries the host's
    CPU identity; the portable flavour runs on any CPU of the
    architecture.  Neither name can be taken for the other.
    """
    digest = hashlib.sha256(_C_SOURCE.encode("ascii")).hexdigest()[:16]
    flavour = f"native-{_host_cpu_tag()}" if native else f"portable-{platform.machine()}"
    return os.path.join(_cache_dir(), f"repro_ckernels_{digest}_{flavour}.so")


def _compile(compiler: str, flags: list, so_path: str) -> None:
    """Build ``_C_SOURCE`` with ``flags`` and publish it at ``so_path``."""
    cache = os.path.dirname(so_path)
    os.makedirs(cache, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as workdir:
        source = os.path.join(workdir, "kernels.c")
        with open(source, "w", encoding="ascii") as handle:
            handle.write(_C_SOURCE)
        built = os.path.join(workdir, "kernels.so")
        subprocess.run(
            [compiler, *flags, "-O3", "-fPIC", "-shared", source, "-o", built],
            check=True, capture_output=True,
        )
        # Atomic publish: concurrent processes race benignly.
        os.replace(built, so_path)


def _build_library() -> ctypes.CDLL:
    """Compile (once per source revision, flavour and CPU) and load the library."""
    compiler = find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (set $CC or install gcc/clang)")
    so_path = _library_path(native=True)
    if not os.path.exists(so_path):
        # -march=native unlocks the vectorised fold hashing and the
        # wide-vector segmented XOR; some toolchains (cross compilers,
        # old clangs) reject it, so fall back to the portable build
        # rather than fail.
        try:
            _compile(compiler, ["-march=native"], so_path)
        except (subprocess.CalledProcessError, OSError):
            so_path = _library_path(native=False)
            if not os.path.exists(so_path):
                _compile(compiler, [], so_path)
    lib = ctypes.CDLL(so_path)
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        # The two round kernels return a count, the rest nothing.
        returns_count = name in ("repro_sample_components", "repro_round_tail")
        fn.restype = _I64 if returns_count else None
    return lib


def _u64(array: np.ndarray):
    return array.ctypes.data_as(_U64P)


def _u32(array: np.ndarray):
    return array.ctypes.data_as(_U32P)


def _i64(array: np.ndarray):
    return array.ctypes.data_as(_I64P)


def _as_i64(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


def _as_u64(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.uint64)


#: Least (update, slot) work one round range of a split fold is given:
#: below it, handing a range to a helper thread costs more than folding
#: it on the caller.  A hand-off costs ~50-100 us on a 2-core x86 VM,
#: the fold ~10 ns per (edge, slot), so two ranges broke even near
#: 18k pairs of edge-fold work and won 1.5-1.9x from 36k.
SPLIT_FLOOR = 1 << 14

#: The fold helpers' ``ThreadPoolExecutor`` once a fold has split.
_helpers = None
_helpers_lock = threading.Lock()


def _helper_pool():
    """The process-wide fold helpers: ``usable_cores() - 1`` threads, made on first use."""
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            # Lazy: repro.parallel imports the engine, which imports this
            # module, and a process that never splits skips the import.
            from concurrent.futures import ThreadPoolExecutor

            from repro.parallel.cost_model import usable_cores

            _helpers = ThreadPoolExecutor(
                max(usable_cores() - 1, 1), thread_name_prefix="repro-fold"
            )
        return _helpers


def _forget_helpers() -> None:
    """A forked child has none of its parent's threads: start from no pool."""
    global _helpers, _helpers_lock
    _helpers = None
    _helpers_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def split_ranges(work: int, num_rounds: int) -> int:
    """Round ranges a serial fold of ``work`` (update, slot) pairs is cut into.

    ``min(num_rounds, work // SPLIT_FLOOR)`` when the process may use
    more than one core, else one: every range gets a whole number of
    rounds and at least :data:`SPLIT_FLOOR` of work, so a batch splits
    once it holds two floors' worth.  The count comes from the batch
    size and the affinity mask only, and does not follow the core count:
    more ranges than threads is what lets a fast thread take over a slow
    one's share.  A one-core process never starts a helper.
    """
    if work < 2 * SPLIT_FLOOR or num_rounds < 2:
        return 1
    from repro.parallel.cost_model import usable_cores

    if usable_cores() < 2:
        return 1
    return min(num_rounds, work // SPLIT_FLOOR)


class _RoundSplit:
    """One split fold: its round ranges, claimed one at a time by the
    caller (from the first round up) and the helper threads (from the
    last round down) until none is left."""

    def __init__(self, fold, head: tuple, tails: tuple) -> None:
        self._fold = fold
        self._head = head
        self._unclaimed = collections.deque(tails)
        self._left = len(tails)
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._errors: list = []

    def _claim(self, from_last: bool):
        with self._lock:
            if not self._unclaimed:
                return None
            return self._unclaimed.pop() if from_last else self._unclaimed.popleft()

    def drain(self, from_last: bool = False) -> None:
        """Fold unclaimed ranges until none is left.

        The caller takes the low rounds, which the query reads first, and
        the helpers the high ones, so each thread keeps writing the same
        slabs from one fold to the next.  A range that raises is recorded
        and the thread moves on, so the caller's :meth:`wait` still sees
        every range finish.
        """
        while (tail := self._claim(from_last)) is not None:
            try:
                self._fold(*self._head, *tail)
            except BaseException as error:  # re-raised by wait()
                self._errors.append(error)
            with self._lock:
                self._left -= 1
                if not self._left:
                    self._finished.set()

    def wait(self) -> None:
        """Block until every range has finished; raise the first error."""
        self._finished.wait()
        if self._errors:
            raise self._errors[0]


class CcKernels:
    """Native kernel provider backed by the runtime-compiled C library.

    One instance per process (see :func:`repro.kernels.native_kernels`);
    the high-level methods translate pool/sketch state into the flat
    pointer-and-stride arguments the C entry points take.  All calls
    release the GIL.
    """

    name = "cc"
    is_native = True

    def __init__(self) -> None:
        self._lib = _build_library()
        #: pool -> its bound fold arguments (see :meth:`_fold_tail`).
        self._fold_tails: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # Singletons survive copy/pickle by reference/name: a pool carrying
    # a kernels object must stay deep-copyable and picklable even
    # though a ctypes library handle is neither.
    def __copy__(self) -> "CcKernels":
        return self

    def __deepcopy__(self, memo) -> "CcKernels":
        return self

    def __reduce__(self):
        from repro.kernels import resolve_kernels

        return (resolve_kernels, ("native",))

    # ------------------------------------------------------------------
    # ingest folds
    # ------------------------------------------------------------------
    def _fold_tail(self, pool, offsets: np.ndarray, ranges: int = 1) -> tuple:
        """The pool-constant tails of a fold cut into ``ranges`` round ranges.

        One ``(mm, mc, num_slots, num_rows, dst_stride, slot_offsets)``
        per range, each covering the slots of a contiguous run of rounds
        (run lengths differ by at most one): the seed and offset vectors
        are slot-indexed and round-major, so a range is three pointers
        into them.  The vectors never change for the life of a pool, so
        the pointers (which keep the arrays alive) are built on the
        first fold with that range count instead of on every 64-edge
        delta.  The cache holds no reference to the pool itself.
        """
        bound = self._fold_tails.get(pool)
        if bound is None or bound[0] is not offsets:
            bound = self._fold_tails[pool] = (offsets, {})
        tails = bound[1].get(ranges)
        if tails is None:
            cols = pool.num_columns
            bounds = [r * pool.num_rounds // ranges for r in range(ranges + 1)]
            tails = bound[1][ranges] = tuple(
                (
                    _u64(pool._mixed_membership[lo * cols : hi * cols]),
                    _u64(pool._mixed_checksum[lo * cols : hi * cols]),
                    (hi - lo) * cols, pool.num_rows, cols,
                    _i64(offsets[lo * cols : hi * cols]),
                )
                for lo, hi in zip(bounds[:-1], bounds[1:])
            )
        return tails

    def _fold_nodes(self, tensors, indices, dsts) -> tuple:
        """``(entry point, leading arguments)`` of a one-column fold into
        packed ``(buckets,)`` or wide planes; the tail follows."""
        idx = _as_u64(indices)
        dst = _as_i64(dsts)
        if len(tensors) == 1:
            return self._lib.repro_fold_packed, (
                _u64(tensors[0]), _u64(idx), _i64(dst), idx.size,
            )
        return self._lib.repro_fold_wide, (
            _u64(tensors[0]), _u32(tensors[1]), _u64(idx), _i64(dst), idx.size,
        )

    def _fold_split(self, pool, fold, head: tuple, split: bool) -> None:
        """Run one in-RAM pool fold, over round ranges when ``split`` allows.

        ``head`` is the entry point's arguments up to the update count
        ``k`` (its last element); the work is ``k * num_slots``.  The
        caller and up to ``usable_cores() - 1`` helpers claim the ranges
        one at a time, and the call returns only after every range has
        finished -- also when one raised, whose error then propagates:
        no helper is left writing into the pool.  A helper that starts
        after the caller has claimed the last range finds nothing to do.
        """
        ranges = split_ranges(head[-1] * pool.num_slots, pool.num_rounds) if split else 1
        tails = self._fold_tail(pool, pool._slot_offsets, ranges)
        if ranges == 1:
            fold(*head, *tails[0])
            return
        from repro.parallel.cost_model import usable_cores

        run = _RoundSplit(fold, head, tails)
        helpers = _helper_pool()
        for _ in range(min(usable_cores(), ranges) - 1):
            helpers.submit(run.drain, True)
        run.drain()
        run.wait()

    def fold_pool(
        self, pool, indices: np.ndarray, dsts: np.ndarray, split: bool = False
    ) -> None:
        """Fold a mixed multi-node batch straight into the pool tensors.

        ``split``: the caller is a serial entry point, so a large batch
        may spread its rounds over the helper threads.
        """
        tensors = (pool._buckets,) if pool._packed else (pool._alpha, pool._gamma)
        self._fold_split(pool, *self._fold_nodes(tensors, indices, dsts), split)

    def fold_pool_edges(
        self, pool, indices: np.ndarray, lo: np.ndarray, hi: np.ndarray,
        split: bool = False,
    ) -> None:
        """Fold both mirrored halves of a canonical edge batch (hash once);
        ``split`` as :meth:`fold_pool`."""
        idx = _as_u64(indices)
        lo64 = _as_i64(lo)
        hi64 = _as_i64(hi)
        if pool._packed:
            fold = self._lib.repro_fold_edges_packed
            head = (_u64(pool._buckets), _u64(idx), _i64(lo64), _i64(hi64), idx.size)
        else:
            fold = self._lib.repro_fold_edges_wide
            head = (
                _u64(pool._alpha), _u32(pool._gamma), _u64(idx), _i64(lo64),
                _i64(hi64), idx.size,
            )
        self._fold_split(pool, fold, head, split)

    def fold_page(
        self, pool, entry: Tuple[np.ndarray, ...], indices: np.ndarray,
        local_dsts: np.ndarray,
    ) -> None:
        """Fold one page's column into its pinned tensors (paged pool).

        Never split: it runs under the pool lock on batches of about a
        hundred updates.
        """
        fold, head = self._fold_nodes(entry, indices, local_dsts)
        fold(*head, *self._fold_tail(pool, pool._combined_offsets)[0])

    def fold_bundle(self, sketch, indices: np.ndarray) -> None:
        """Fold edge slots into one node's whole bundle (FlatNodeSketch)."""
        idx = _as_u64(indices)
        offsets = _bundle_offsets(sketch.num_slots)
        self._lib.repro_fold_sep64(
            _u64(sketch._alpha), _u64(sketch._gamma), _u64(idx), None,
            idx.size, _u64(sketch._mixed_membership),
            _u64(sketch._mixed_checksum), sketch.num_slots, sketch.num_rows,
            0, _i64(offsets),
        )

    # ------------------------------------------------------------------
    # query-side kernels
    # ------------------------------------------------------------------
    def segment_xor(
        self,
        slab: np.ndarray,
        nodes: np.ndarray,
        seg_starts: np.ndarray,
        col_start: int,
        col_stop: int,
        num_rows: int,
    ) -> np.ndarray:
        """Fused gather + per-segment XOR over one round slab.

        ``slab`` is the ``(num_nodes, cols, rows)`` round view (uint64
        packed/alpha or uint32 gamma); returns the
        ``(num_segments, (col_stop - col_start) * rows)`` per-segment
        XOR of rows ``nodes`` grouped by ``seg_starts`` -- bit-identical
        to gathering and reducing with
        :func:`~repro.sketch.flat_node_sketch.segmented_xor`.
        """
        slab = np.ascontiguousarray(slab)
        nodes = _as_i64(nodes)
        starts = _as_i64(seg_starts)
        width = (col_stop - col_start) * num_rows
        node_stride = slab.shape[1] * slab.shape[2]
        base_off = col_start * num_rows
        out = np.empty((starts.size, width), dtype=slab.dtype)
        if slab.dtype == np.uint64:
            self._lib.repro_seg_xor_u64(
                _u64(slab), node_stride, base_off, width, _i64(nodes),
                nodes.size, _i64(starts), starts.size, _u64(out),
            )
        else:
            self._lib.repro_seg_xor_u32(
                _u32(slab), node_stride, base_off, width, _i64(nodes),
                nodes.size, _i64(starts), starts.size, _u32(out),
            )
        return out

    def decode_column(
        self,
        alpha: np.ndarray,
        gamma: np.ndarray,
        vector_length: int,
        mixed_seed: np.uint64,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode one column's buckets for many components at once.

        Same contract (and bit-identical results) as
        :func:`~repro.sketch.flat_node_sketch.decode_column_batch`.
        """
        alpha = _as_u64(alpha)
        gamma = _as_u64(gamma)
        count, num_rows = alpha.shape
        good = np.empty(count, dtype=np.uint8)
        zero = np.empty(count, dtype=np.uint8)
        index = np.empty(count, dtype=np.int64)
        self._lib.repro_decode_column(
            _u64(alpha), _u64(gamma), count, num_rows,
            np.uint64(vector_length), np.uint64(mixed_seed),
            good.ctypes.data_as(_U8P), zero.ctypes.data_as(_U8P), _i64(index),
        )
        return good.view(np.bool_), zero.view(np.bool_), index

    def sample_components(
        self, slabs: Tuple[np.ndarray, ...], labels: np.ndarray,
        node_mask: Optional[np.ndarray], vector_length: int,
        mixed_seeds: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cut-sample every component of one round in a single fused pass.

        ``slabs`` is the round's ``(packed,)`` or ``(alpha, gamma)``
        view(s), ``mixed_seeds`` its per-column checksum seeds.  The
        caller has checked ``labels`` to lie in ``[0, num_nodes)`` and
        ``node_mask`` to be contiguous bools; results as the composed path.
        """
        slab = np.ascontiguousarray(slabs[0])
        gamma = np.ascontiguousarray(slabs[1]) if len(slabs) == 2 else None
        num_nodes, num_cols, num_rows = slab.shape
        labels = _as_i64(labels)
        seeds = _as_u64(mixed_seeds)
        work = np.empty(2 * num_nodes, dtype=np.int64)
        acc = np.empty(2 * num_cols * num_rows, dtype=np.uint64)
        roots, indices = np.empty((2, num_nodes), dtype=np.int64)
        statuses = np.empty(num_nodes, dtype=np.uint8)
        count = self._lib.repro_sample_components(
            _u64(slab), None if gamma is None else _u32(gamma), num_nodes,
            num_cols, num_rows, _i64(labels),
            None if node_mask is None else node_mask.ctypes.data_as(_U8P),
            np.uint64(vector_length), _u64(seeds), _i64(work), _u64(acc),
            _i64(roots), statuses.ctypes.data_as(_U8P), _i64(indices),
        )
        return roots[:count], statuses[:count], indices[:count]

    def round_tail(
        self, parent: np.ndarray, size: np.ndarray, settled: np.ndarray,
        labels: np.ndarray, sampled_u: np.ndarray, sampled_v: np.ndarray,
    ) -> Tuple[np.ndarray, list]:
        """Compiled twin of :func:`repro.core.boruvka.round_tail`; the
        int64 (``settled``: bool) per-node arrays are updated **in place**."""
        for array in (parent, size, labels, settled):
            dtype = np.bool_ if array is settled else np.int64
            if array.dtype != dtype or array.shape != labels.shape or not array.flags.c_contiguous:
                raise TypeError("round_tail needs contiguous int64/bool per-node arrays")
        us = _as_i64(sampled_u)
        vs = _as_i64(sampled_v)
        merged = np.empty((2, us.size), dtype=np.int64)
        merges = self._lib.repro_round_tail(
            _i64(parent), _i64(size), settled.ctypes.data_as(_U8P),
            _i64(labels), labels.size, _i64(us), _i64(vs), us.size,
            _i64(merged[0]), _i64(merged[1]),
        )
        return labels, list(zip(*merged[:, :merges].tolist()))

    # ------------------------------------------------------------------
    # storage integrity
    # ------------------------------------------------------------------
    def block_digests(self, data, block_size: int, seed: int) -> np.ndarray:
        """Digest every ``block_size``-byte block of ``data`` in one pass.

        Entry ``i`` equals the numpy
        :func:`~repro.integrity.digest.payload_digest` of block ``i``
        bit-for-bit (the final block may be short; an empty payload is
        one empty block).  ``data`` is any contiguous byte buffer.
        """
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        raw = np.frombuffer(data, dtype=np.uint8)
        out = np.empty(max(1, -(-raw.size // block_size)), dtype=np.uint64)
        self._lib.repro_block_digests(
            raw.ctypes.data_as(_U8P), raw.size, block_size,
            seed & 0xFFFFFFFFFFFFFFFF, _u64(out),
        )
        return out


_OFFSET_CACHE: dict = {}


def _bundle_offsets(num_slots: int) -> np.ndarray:
    """Identity slot offsets for single-bundle (slot-major) folds."""
    cached = _OFFSET_CACHE.get(num_slots)
    if cached is None:
        cached = np.arange(num_slots, dtype=np.int64)
        _OFFSET_CACHE[num_slots] = cached
    return cached
