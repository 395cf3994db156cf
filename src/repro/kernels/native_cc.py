"""The compiled-C native kernel provider (gcc + ctypes, zero dependencies).

This module implements the hot kernels of the engine -- the ingest
fold and its canonical edge batch, the query-side segmented XOR-reduce,
the batched bucket decode, the storage-integrity block digest, and the
fused sample and the round tail of a Boruvka round -- as a small C library compiled
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
* **canonical edges**: twenty numpy calls, cold after a query, checked and
  encoded a 64-edge delta in twice the fold's time; the kernel is one call.
* **segmented XOR**: ``np.bitwise_xor.reduceat`` runs a scalar inner
  loop (~5 ns/element) over a gather copy of the reordered rows.  The C
  kernel fuses the gather and the reduce: one pass over the segment's
  rows, auto-vectorised by the compiler, writing only the per-segment
  sums.
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
  rows)`` temporaries.  ``repro_sample_components`` counting-sorts the active
  nodes by label, XORs column 0 of each component into a scratch row,
  decodes it, and reads columns 1..C-1 only while unresolved.  Given an
  in-RAM pool's round memo, it re-samples only the components whose
  members or member sketches changed since that round's last read.
* **round tail**: ``repro_round_tail`` tallies and settles a round's
  samples, validates and decodes its edge slots, and runs the per-edge
  union by size (no path compression, so the same trees), the relabel
  and the next round's active mask in C.
* **Boruvka**: ``repro_boruvka`` runs both over a query's rounds under
  the driver's stop rule, resuming from any round.
  :meth:`CcKernels.bind_query` binds its buffers once per pool
  (:class:`CcBoruvka`): a query over an in-RAM pool is one call, and
  over a paged pool one call per round, on the slab the pool assembles.

The calls release the GIL (ctypes ``CDLL`` semantics), which is what
finally lets the sharded thread ingest scale past the numpy kernels'
serialised sections -- and what lets one serial fold use every core.
A slot range of the pool is just an offset into the seed and
slot-offset vectors the C loop already walks, so a serial in-RAM fold
with at least two :data:`SPLIT_FLOOR` of (update, slot) work is cut
into round ranges that the caller and the helper threads claim, as
:mod:`repro.sketch.round_split` describes (the numpy fold splits the
same way, with its own floor).  The sharded workers' ``fold_shard``
(they already occupy the cores), the paged pool's page folds and the
per-node bundle fold never split.

The shared library is cached under ``$REPRO_KERNEL_CACHE`` (default: a
``repro-ckernels`` directory in the system temp dir) under a name made
of the source hash, the build flavour and -- for the ``-march=native``
flavour, which may only run on the CPU it was built for -- the host's
CPU identity, so each source revision compiles once per kind of
machine and a cache directory can be shared or baked into an image;
concurrent builds race benignly through an atomic rename.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import weakref
from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from repro.core.boruvka import MERGED, run_rounds
from repro.core.edge_encoding import edge_batch_error
from repro.observability.metrics import default_registry
from repro.observability.tracing import record_span, span
from repro.sketch.round_split import fold_ranges, round_ranges, split_ranges

_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <string.h>
#include <time.h>

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

/* Canonical edge batch: row j is edges[j * row_stride] and the int64  */
/* col_stride after it.  Returns the first row with an endpoint outside */
/* [0, n) or a self loop, writing nothing; else -1 after writing lo <   */
/* hi, idx = lo * slot_nodes + hi and both stamps (NULL: none).         */
int64_t repro_canonical_edges(const int64_t *edges, int64_t k, int64_t row_stride,
                              int64_t col_stride, int64_t n, int64_t slot_nodes,
                              int64_t *lo, int64_t *hi, uint64_t *idx,
                              int64_t *stamps, int64_t stamp) {
    int64_t j;
    for (j = 0; j < k; j++) {
        const int64_t u = edges[j * row_stride], v = edges[j * row_stride + col_stride];
        if ((uint64_t)u >= (uint64_t)n || (uint64_t)v >= (uint64_t)n || u == v) return j;
    }
    for (j = 0; j < k; j++) {
        const int64_t u = edges[j * row_stride], v = edges[j * row_stride + col_stride];
        lo[j] = u < v ? u : v;
        hi[j] = u < v ? v : u;
        idx[j] = (uint64_t)lo[j] * (uint64_t)slot_nodes + (uint64_t)hi[j];
        if (stamps) stamps[u] = stamps[v] = stamp;
    }
    return -1;
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
/* (mask NULL = all) are counting-sorted by label, so components come  */
/* out in ascending label order; an active label outside              */
/* [0, num_nodes) returns -1 and voids the memo (every label -1).      */
/* Per component: XOR column 0 of the members,                         */
/* decode, and only if that fails pull columns 1..C-1 in one pass.     */
/* status 0 ZERO (every column empty), 1 GOOD, 2 FAIL as SAMPLE_*;     */
/* `gamma` NULL = packed slab; scratch `work` 2*num_nodes + 1 int64,   */
/* `acc` 2*num_cols*num_rows, `changed` num_nodes bytes; outputs       */
/* num_nodes.  Returns the count; work[2*num_nodes] = reused count.    */
/*                                                                    */
/* Memo (memo_labels NULL = none): this round's previous read -- each  */
/* node's label then (-1 inactive) and, by root, the status and index  */
/* it sampled.  A sample is a function of the member set and the       */
/* members' sketches only, so a component is re-sampled only when a    */
/* node joined or left it (label or active flag differs, which marks   */
/* both its new and its old root) or a member's stamp is newer than    */
/* `read_version`; every other component copies its memoised answer.   */
/* The memo is refreshed in place.                                     */
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
        int64_t num_nodes, int64_t num_cols, int64_t num_rows,
        const int64_t *labels, const uint8_t *mask, uint64_t veclen,
        int64_t *work, uint64_t *acc, uint8_t *changed, int64_t *roots,
        uint8_t *statuses, int64_t *indices, const uint64_t *slab,
        const uint32_t *gamma, const uint64_t *mixed_seeds,
        int64_t *memo_labels, uint8_t *memo_statuses, int64_t *memo_indices,
        const int64_t *stamps, int64_t read_version) {
    const int64_t stride = num_cols * num_rows;
    int64_t *cursor = work, *sorted = work + num_nodes;
    uint64_t *xa = acc, *xg = gamma ? acc + stride : NULL;
    int64_t i, c, col, count = 0, total = 0, start = 0, reused = 0;

    memset(cursor, 0, (size_t)num_nodes * sizeof(int64_t));
    if (memo_labels) memset(changed, 0, (size_t)num_nodes);
    for (i = 0; i < num_nodes; i++) {
        const int on = !mask || mask[i];
        const int64_t label = on ? labels[i] : -1;
        if (on && (label < 0 || label >= num_nodes)) {
            if (memo_labels) memset(memo_labels, 0xff, (size_t)num_nodes * sizeof(int64_t));
            return -1;
        }
        if (memo_labels) {
            const int64_t last = memo_labels[i];
            if (label != last || (label >= 0 && stamps[i] > read_version)) {
                if (label >= 0) changed[label] = 1;
                if (last >= 0) changed[last] = 1;
                memo_labels[i] = label;
            }
        }
        if (label >= 0) cursor[label]++;
    }
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
        const int64_t root = roots[c], end = cursor[root];
        int any = 0;
        int64_t best;
        if (memo_labels && !changed[root]) {
            statuses[c] = memo_statuses[root];
            indices[c] = memo_indices[root];
            reused++;
            start = end;
            continue;
        }
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
        if (memo_labels) {
            memo_statuses[root] = statuses[c];
            memo_indices[root] = best;
        }
        start = end;
    }
    work[2 * num_nodes] = reused;
    return count;
}

/* ------------------------------------------------------------------ */
/* Boruvka round tail: count ZERO / FAIL / GOOD / invalid samples into */
/* counts[0..3], settle ZERO roots, decode in order the GOOD slots     */
/* u * slot_nodes + v with u < v (the EdgeEncoder's layout) into       */
/* `work`, union them by size (no path compression, ties keep u's      */
/* root; merged roots lose `settled`), append merging edges at         */
/* counts[5] of the (2, num_nodes) `edges`, relabel, and set           */
/* active[i] = !settled[labels[i]].  counts[4] = the merges,           */
/* counts[5] += them.  -1 (state undefined): a root or a decoded       */
/* endpoint outside [0, num_nodes).                                    */
/* ------------------------------------------------------------------ */

int64_t repro_round_tail(int64_t *parent, int64_t *size, uint8_t *settled,
                         int64_t *labels, uint8_t *active, int64_t num_nodes,
                         int64_t slot_nodes, const int64_t *roots,
                         const uint8_t *statuses, const int64_t *indices,
                         int64_t *work, int64_t *edges, int64_t *counts,
                         int64_t count) {
    int64_t *us = work, *vs = work + num_nodes;
    int64_t *merged_u = edges + counts[5], *merged_v = merged_u + num_nodes;
    int64_t i, k = 0, merges = 0;
    counts[0] = counts[1] = counts[2] = counts[3] = 0;
    for (i = 0; i < count; i++) {
        const int64_t idx = indices[i], u = idx / slot_nodes, v = idx % slot_nodes;
        if (roots[i] < 0 || roots[i] >= num_nodes) return -1;
        if (statuses[i] == 0) {
            counts[0]++;
            settled[roots[i]] = 1;
        } else if (statuses[i] == 2) {
            counts[1]++;
        } else if (statuses[i] == 1) {
            counts[2]++;
            if (idx < 0 || u >= v || idx >= slot_nodes * slot_nodes) counts[3]++;
            else if (v >= num_nodes) return -1;
            else { us[k] = u; vs[k++] = v; }
        }
    }
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
    for (i = 0; i < num_nodes; i++) {
        int64_t root = labels[i];
        if (merges) {
            while (parent[root] != root) root = parent[root];
            labels[i] = root;
        }
        active[i] = !settled[root];
    }
    counts[4] = merges;
    counts[5] += merges;
    return merges;
}

/* ------------------------------------------------------------------ */
/* Rounds first .. num_rounds - 1 of one query, under the Python       */
/* driver's stop rule: sample round r (`slab` / `gamma` hold round     */
/* `first`, later rounds follow; memo row r unless memo_labels is NULL; */
/* read_versions[r] = version), then run its tail.  Round 0 resets the */
/* query; a later first round resumes from the state its buffers hold. */
/* table row r: counts[0..4], reused components, sample and tail ns.   */
/* Returns the next round; -1 / -2 as the sample / the tail fails.     */
/* ------------------------------------------------------------------ */

static inline int64_t repro_now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
}

int64_t repro_boruvka(
        int64_t *labels, int64_t first, int64_t num_rounds, int64_t version,
        const uint64_t *slab, const uint32_t *gamma,
        int64_t num_nodes, int64_t num_cols, int64_t num_rows, uint64_t veclen,
        int64_t slot_nodes, int64_t *parent, int64_t *size, uint8_t *settled,
        uint8_t *active, int64_t *work, uint64_t *acc, uint8_t *changed,
        int64_t *roots, uint8_t *statuses, int64_t *indices, int64_t *edges,
        int64_t *counts, const uint64_t *mixed_seeds, int64_t *memo_labels,
        uint8_t *memo_statuses, int64_t *memo_indices, const int64_t *stamps,
        int64_t *read_versions, int64_t *table) {
    const int64_t slab_size = num_nodes * num_cols * num_rows;
    int64_t i, r, components, found;
    if (first == 0) {
        for (i = 0; i < num_nodes; i++) {
            labels[i] = parent[i] = i;
            size[i] = 1;
        }
        memset(settled, 0, (size_t)num_nodes);
        memset(active, 1, (size_t)num_nodes);
        counts[5] = 0;
    }
    components = num_nodes - counts[5];
    found = first == 0 || counts[4] > 0 || counts[1] > 0;
    for (r = first; r < num_rounds && components > 1 && found; r++) {
        const int64_t at = r * num_nodes, shift = (r - first) * slab_size;
        const int64_t start = repro_now_ns();
        int64_t *row = table + 8 * r, count, sampled;
        count = repro_sample_components(
            num_nodes, num_cols, num_rows, labels, active, veclen, work, acc,
            changed, roots, statuses, indices, slab + shift,
            gamma ? gamma + shift : NULL, mixed_seeds + r * num_cols,
            memo_labels ? memo_labels + at : NULL,
            memo_labels ? memo_statuses + at : NULL,
            memo_labels ? memo_indices + at : NULL, stamps,
            memo_labels ? read_versions[r] : 0);
        if (count < 0) return -1;
        if (memo_labels) read_versions[r] = version;
        sampled = repro_now_ns();
        if (repro_round_tail(parent, size, settled, labels, active, num_nodes,
                             slot_nodes, roots, statuses, indices, work, edges,
                             counts, count) < 0)
            return -2;
        memcpy(row, counts, 5 * sizeof(int64_t));
        row[5] = work[2 * num_nodes];
        row[6] = sampled - start;
        row[7] = repro_now_ns() - sampled;
        components -= counts[4];
        found = counts[4] > 0 || counts[1] > 0;
    }
    return r;
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

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_U64 = ctypes.c_uint64

# Every pointer argument is a plain ``void *`` address (see :func:`_addr`).
_SIGNATURES = {
    "repro_fold_packed": [_P, _P, _P, _I64, _P, _P, _I64, _I64, _I64, _P],
    "repro_fold_wide": [_P, _P, _P, _P, _I64, _P, _P, _I64, _I64, _I64, _P],
    "repro_fold_sep64": [_P, _P, _P, _P, _I64, _P, _P, _I64, _I64, _I64, _P],
    "repro_fold_edges_packed": [_P, _P, _P, _P, _I64, _P, _P, _I64, _I64, _I64, _P],
    "repro_fold_edges_wide": [_P, _P, _P, _P, _P, _I64, _P, _P, _I64, _I64, _I64, _P],
    "repro_canonical_edges": [_P, _I64, _I64, _I64, _I64, _I64, _P, _P, _P, _P, _I64],
    "repro_seg_xor_u64": [_P, _I64, _I64, _I64, _P, _I64, _P, _I64, _P],
    "repro_seg_xor_u32": [_P, _I64, _I64, _I64, _P, _I64, _P, _I64, _P],
    "repro_decode_column": [_P, _P, _I64, _I64, _U64, _U64, _P, _P, _P],
    "repro_block_digests": [_P, _I64, _I64, _U64, _P],
    "repro_sample_components": [_I64, _I64, _I64, _P, _P, _U64, *[_P] * 13, _I64],
    "repro_round_tail": [_P, _P, _P, _P, _P, _I64, _I64, _P, _P, _P, _P, _P, _P, _I64],
    "repro_boruvka": [_P, _I64, _I64, _I64, _P, _P, _I64, _I64, _I64, _U64, _I64, *[_P] * 19],
}
_RETURNS = {"repro_sample_components", "repro_round_tail", "repro_boruvka", "repro_canonical_edges"}


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
        # The round kernels return a count, the canonical edges a row.
        fn.restype = _I64 if name in _RETURNS else None
    return lib


def _addr(array: Optional[np.ndarray]) -> Optional[int]:
    """``array``'s data address for a ``void *`` argument (``None``: NULL).

    ``ndarray.ctypes.data_as`` builds a reference cycle per pointer, and
    the fold and the round kernels run on every delta and every query
    round, so those cycles would pile up as garbage between collections.
    A plain address builds none -- but neither does it keep the array
    alive: every array passed must be referenced by the caller until the
    call returns (a converted temporary bound to a local, not an inline
    ``_addr(np.ascontiguousarray(...))``).  ``__array_interface__`` is
    read in C, where ``ndarray.ctypes`` runs a Python helper per call.
    """
    return None if array is None else array.__array_interface__["data"][0]


def _as_i64(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


def _as_u64(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.uint64)


#: Most ``(lo, hi, idx)`` rows a pool keeps between edge batches (1.5 MiB,
#: one ``GraphZeppelin.ingest`` chunk); a longer batch allocates its own.
INGEST_SCRATCH_ROWS = 1 << 16

#: Least (update, slot) work one round range of a split fold is given:
#: below it, handing a range to a helper thread costs more than folding
#: it on the caller.  A hand-off costs ~50-100 us on a 2-core x86 VM,
#: the fold ~10 ns per (edge, slot), so two ranges broke even near
#: 18k pairs of edge-fold work and won 1.5-1.9x from 36k.
SPLIT_FLOOR = 1 << 14


class CcKernels:
    """Native kernel provider backed by the runtime-compiled C library.

    One instance per process (see :func:`repro.kernels.native_kernels`);
    the high-level methods translate pool/sketch state into the flat
    pointer-and-stride arguments the C entry points take.  All calls
    release the GIL.
    """

    name = "cc"
    #: The fold hashes in-kernel, so the sharded producer only partitions.
    hoists_hash = False
    #: The bound query keeps every round's sample in a pool's ``RoundMemo``.
    memoises_rounds = True

    def __init__(self) -> None:
        self._lib = _build_library()
        #: pool -> its bound fold arguments (see :meth:`_bound`).
        self._fold_tails: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # The singleton survives copy and pickle by name: a pool carrying a
    # provider must stay deep-copyable and picklable even though a
    # ctypes library handle is neither.
    def __reduce__(self):
        from repro.kernels import resolve_kernels

        return (resolve_kernels, ("native",))

    # ------------------------------------------------------------------
    # ingest folds
    # ------------------------------------------------------------------
    def _bound(self, pool, offsets: np.ndarray) -> list:
        """``pool``'s ``[arrays, tails by range count, (lo, hi, idx) scratch,
        (edge fold, *plane addresses), stamp address, CcBoruvka]`` from its
        first fold or query: the arrays keep the addresses valid; the pool
        itself is not held."""
        arrays = (offsets, pool._mixed_membership, pool._mixed_checksum, pool._planes, pool._stamps)
        bound = self._fold_tails.get(pool)
        if bound is None or any(x is not y for x, y in zip(bound[0], arrays)):
            layout = "packed" if len(pool._planes) == 1 else "wide"
            fold = (getattr(self._lib, f"repro_fold_edges_{layout}"), *map(_addr, pool._planes))
            empty = np.empty((3, 0), np.int64)
            bound = self._fold_tails[pool] = [arrays, {}, empty, fold, _addr(pool._stamps), None]
        return bound

    def _fold_tail(self, pool, offsets: np.ndarray, ranges: int = 1) -> tuple:
        """The pool-constant tails of a fold cut into ``ranges`` round ranges.

        One ``(mm, mc, num_slots, num_rows, dst_stride, slot_offsets)``
        per range, each covering the slots of a contiguous run of rounds
        (run lengths differ by at most one): the seed and offset vectors
        are slot-indexed and round-major, so a range is three addresses
        into them.  The vectors never change for the life of a pool, so
        the addresses are computed on the first fold with that range
        count instead of on every 64-edge delta (:meth:`_bound`).
        """
        bound = self._bound(pool, offsets)
        tails = bound[1].get(ranges)
        if tails is None:
            cols = pool.num_columns
            tails = bound[1][ranges] = tuple(
                (
                    _addr(pool._mixed_membership[lo * cols :]),
                    _addr(pool._mixed_checksum[lo * cols :]),
                    (hi - lo) * cols, pool.num_rows, cols,
                    _addr(offsets[lo * cols :]),
                )
                for lo, hi in round_ranges(pool.num_rounds, ranges)
            )
        return tails

    def _fold_head(self, planes, idx: np.ndarray, dst_columns) -> tuple:
        """``(entry point, leading arguments)`` of a fold of the uint64
        ``idx`` into the int64 nodes of one destination column (or both
        endpoint columns of an edge batch) of a pool's bucket ``planes``;
        the tail follows.  The caller keeps every array alive through
        the call."""
        edges = "edges_" if len(dst_columns) == 2 else ""
        layout = "packed" if len(planes) == 1 else "wide"
        fold = getattr(self._lib, f"repro_fold_{edges}{layout}")
        return fold, (*map(_addr, planes), _addr(idx), *map(_addr, dst_columns), idx.size)

    def _fold_split(self, pool, fold, head: tuple, split: bool) -> None:
        """Run one in-RAM pool fold, over round ranges when ``split`` allows.

        ``head`` is the entry point's arguments up to the update count
        ``k`` (its last element); the work is ``k * num_slots``, cut by
        :data:`SPLIT_FLOOR` and run by
        :func:`~repro.sketch.round_split.fold_ranges`.
        """
        ranges = (
            split_ranges(head[-1] * pool.num_slots, pool.num_rounds, SPLIT_FLOOR)
            if split else 1
        )
        with span("ingest.fold"):
            fold_ranges(fold, head, self._fold_tail(pool, pool._slot_offsets, ranges))

    def fold_pool(
        self, pool, indices: np.ndarray, dsts: np.ndarray, split: bool = False
    ) -> None:
        """Fold a mixed multi-node batch straight into the pool tensors.

        ``split``: the caller is a serial entry point, so a large batch
        may spread its rounds over the helper threads.
        """
        idx, dst = _as_u64(indices), _as_i64(dsts)
        self._fold_split(pool, *self._fold_head(pool._planes, idx, (dst,)), split)

    def fold_pool_edges(
        self, pool, indices: np.ndarray, lo: np.ndarray, hi: np.ndarray,
        split: bool = False,
    ) -> None:
        """Fold both mirrored halves of a canonical edge batch (hash once);
        ``split`` as :meth:`fold_pool`."""
        idx, lo64, hi64 = _as_u64(indices), _as_i64(lo), _as_i64(hi)
        self._fold_split(pool, *self._fold_head(pool._planes, idx, (lo64, hi64)), split)

    def fold_page(
        self, pool, entry: Tuple[np.ndarray, ...], indices: np.ndarray,
        local_dsts: np.ndarray,
    ) -> None:
        """Fold one page's column into its pinned tensors (paged pool).

        Never split: it runs under the pool lock on batches of about a
        hundred updates.
        """
        idx, dst = _as_u64(indices), _as_i64(local_dsts)
        fold, head = self._fold_head(entry, idx, (dst,))
        with span("ingest.fold"):
            fold(*head, *self._fold_tail(pool, pool._combined_offsets)[0])

    def fold_bundle(self, sketch, indices: np.ndarray) -> None:
        """Fold edge slots into one node's whole bundle (FlatNodeSketch)."""
        idx = _as_u64(indices)
        offsets = _bundle_offsets(sketch.num_slots)
        self._lib.repro_fold_sep64(
            _addr(sketch._alpha), _addr(sketch._gamma), _addr(idx), None,
            idx.size, _addr(sketch._mixed_membership),
            _addr(sketch._mixed_checksum), sketch.num_slots, sketch.num_rows,
            0, _addr(offsets),
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
        kernel = (
            self._lib.repro_seg_xor_u64 if slab.dtype == np.uint64
            else self._lib.repro_seg_xor_u32
        )
        kernel(
            _addr(slab), node_stride, base_off, width, _addr(nodes),
            nodes.size, _addr(starts), starts.size, _addr(out),
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
            _addr(alpha), _addr(gamma), count, num_rows,
            np.uint64(vector_length), np.uint64(mixed_seed),
            _addr(good), _addr(zero), _addr(index),
        )
        return good.view(np.bool_), zero.view(np.bool_), index

    def bind_query(self, pool) -> "CcBoruvka":
        """``pool``'s :class:`CcBoruvka`, kept in the :meth:`_bound` entry its
        folds use and rebound only when its round memos were swapped."""
        bound = self._bound(pool, pool._combined_offsets if pool.is_paged else pool._slot_offsets)
        if bound[5] is None or bound[5].memo is not pool._round_memos:
            bound[5] = CcBoruvka(self, pool)
        bound[5].version = pool._version
        return bound[5]

    def ingest_edges(self, pool, endpoints: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Check, orient, encode and stamp ``(k, 2)`` int64 edge rows of an
        in-RAM pool in one call (a bad row raises :func:`edge_batch_error`,
        nothing written), then fold them as :meth:`fold_pool_edges` does;
        returns ``(lo, hi)``, valid until the pool's next batch."""
        if endpoints.dtype != np.int64 or endpoints.shape[1:] != (2,):
            raise ValueError("expected (k, 2) int64 edge rows")
        if not endpoints.flags.aligned:  # strides not in whole int64s
            endpoints = np.ascontiguousarray(endpoints)
        k, (step, col) = endpoints.shape[0], endpoints.strides
        bound = self._bound(pool, pool._slot_offsets)
        columns = bound[2] if bound[2].shape[1] >= k else np.empty((3, k), np.int64)
        if k <= INGEST_SCRATCH_ROWS:
            bound[2] = columns
        lo, hi, idx = (_addr(columns) + row * columns.strides[0] for row in range(3))
        (fold, *planes), stamps = bound[3:5]
        bad = self._lib.repro_canonical_edges(
            _addr(endpoints), k, step >> 3, col >> 3, pool.num_nodes,
            pool.encoder.num_nodes, lo, hi, idx, stamps, pool._version + 1,
        )
        if bad >= 0:
            raise edge_batch_error(endpoints, bad, pool.num_nodes)
        try:
            self._fold_split(pool, fold, (*planes, idx, lo, hi, k), True)
            pool._updates_applied += 2 * k
        finally:
            pool._bump_version()
        return columns[0, :k], columns[1, :k]

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
            _addr(raw), raw.size, block_size, seed & 0xFFFFFFFFFFFFFFFF, _addr(out),
        )
        return out


class CcBoruvka:
    """The Boruvka rounds of a pool's queries, in C, bound once per pool.

    Its :meth:`CcKernels._bound` entry keeps the query state, a per-round
    table and, on an in-RAM pool, every round's memo at fixed addresses;
    the C loop resets the state at round 0.  A query over an in-RAM pool
    is one ``repro_boruvka`` call; over a paged pool, each round is the
    slab ``_round_views`` assembles, then one call that runs that round
    and resumes from the last.  Each :meth:`run` gives the forest fresh
    ``labels``; ``version`` is the pool's at :meth:`CcKernels.bind_query`.
    """

    def __init__(self, kernels: CcKernels, pool) -> None:
        n, cols, rows, rounds = pool.num_nodes, pool.num_columns, pool.num_rows, pool.num_rounds
        self._kernels, self._rounds, self.version = kernels, rounds, pool._version
        # A paged pool keeps no memo and is held weakly: the entry must not keep it alive.
        self.memo = memo = None if pool.is_paged else pool._bind_round_memos()
        self._views = weakref.WeakMethod(pool._round_views) if pool.is_paged else None
        self._slabs = tuple(map(_addr, (*pool._planes, None)[:2]))
        # parent, size, roots, indices; settled, active, statuses, changed
        ints, flags = np.empty((4, n), np.int64), np.empty((4, n), np.uint8)
        self.edges, counts = np.empty((2, n), np.int64), np.empty(MERGED + 1, np.int64)
        self._table = np.empty((rounds, 8), np.int64)
        scratch = (np.empty(2 * n + 1, np.int64), np.empty(2 * cols * rows, np.uint64))
        self._buffers = (ints, flags, counts, scratch)  # the addresses below stay valid
        memos = (None,) * 5 if memo is None else (
            memo.labels, memo.statuses, memo.indices, pool._stamps, memo.read_versions
        )
        self._args = (
            n, cols, rows, pool.encoder.vector_length, pool.encoder.num_nodes,
            *map(_addr, (ints[0], ints[1], flags[0], flags[1], *scratch, flags[3], ints[2],
                         flags[2], ints[3], self.edges, counts, pool._mixed_checksum,
                         *memos, self._table)),
        )

    def run(self, num_rounds: int) -> list:
        """:meth:`RoundQuery.run <repro.core.boruvka.RoundQuery.run>` in C."""
        if num_rounds > self._rounds:
            raise ValueError(f"{num_rounds} rounds asked of a {self._rounds}-round pool")
        self.labels = np.empty(self._args[0], dtype=np.int64)  # round 0 labels every node
        if self._views is None:
            return self._call(0, num_rounds, *self._slabs)
        return run_rounds(self._args[0], num_rounds, self._paged_round)

    def _paged_round(self, round_index: int) -> list:
        views = self._views()(round_index)  # the pool's reusable slab buffers
        return self._call(round_index, round_index + 1, *(*map(_addr, views), None)[:2])[0]

    def _call(self, first: int, stop: int, slab: int, gamma: Optional[int]) -> list:
        """Rounds ``first .. stop - 1`` over the slabs from round ``first``'s,
        until the stop rule holds; publishes ``query.reused_components`` and
        the round spans the loop timed.  Their ``counts[:MERGED]`` rows."""
        start = perf_counter()
        ran = self._kernels._lib.repro_boruvka(
            _addr(self.labels), first, stop, self.version, slab, gamma, *self._args
        )
        if ran < 0:  # -1: the sample failed, -2: the tail
            raise ValueError(("component label", "round sample")[-1 - ran] + " outside the graph")
        table = self._table[first:ran].tolist()
        registry = default_registry()
        if registry.enabled:
            reused = sum(row[5] for row in table)
            if reused:
                registry.counter("query.reused_components").inc(reused)
            for *_, sample_ns, tail_ns in table:
                sample, tail = sample_ns * 1e-9, tail_ns * 1e-9
                record_span("query.sample", start, sample)
                record_span("query.unionfind", start + sample, tail)
                record_span("query.round", start, sample + tail)
                start += sample + tail
        return [row[:MERGED] for row in table]


_OFFSET_CACHE: dict = {}


def _bundle_offsets(num_slots: int) -> np.ndarray:
    """Identity slot offsets for single-bundle (slot-major) folds."""
    cached = _OFFSET_CACHE.get(num_slots)
    if cached is None:
        cached = np.arange(num_slots, dtype=np.int64)
        _OFFSET_CACHE[num_slots] = cached
    return cached
