"""Vectorised payload digests for the storage integrity plane.

The sketch layer already checksum-verifies every *bucket* (the xxHash
column that bucket decoding validates), but everything below it --
device blocks, spilled pages, snapshot payloads -- used to be trusted
byte-for-byte.  This module supplies the one digest primitive the whole
integrity plane shares: a position-sensitive xxHash64-style digest of a
byte payload, computed with the same vectorised mixing kernels the
sketch hot path uses (:mod:`repro.hashing.mixers`), so checksumming a
16 KB block is a handful of numpy passes rather than a Python loop --
or, when the caller passes the native kernel provider its engine
resolved (``kernels=``), one compiled pass over the bytes.  Digests are
an on-disk format: the numpy code here is the reference, and every
provider's ``block_digests`` kernel is bit-identical to it.

The digest views the payload as little-endian 64-bit words (the tail is
zero-padded), XORs each word with its diffused word position and the
diffused seed, runs the five splitmix64 passes (a full-avalanche
finaliser -- the per-word stage is the whole-payload hot path),
XOR-reduces, and finally folds in the byte length through the seeded
xxHash64 avalanche.  XORing
diffused positions makes the digest order-sensitive (a permutation of
blocks does not collide) while keeping the reduction associative, which
is what lets :class:`StreamingDigest` consume a round stripe page by
page and :func:`block_digests` checksum a whole blob in one shot.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

import numpy as np

from repro.hashing.mixers import (
    MASK64,
    finalise_hash64_inplace,
    seeded_hash64,
    splitmix64,
    splitmix64_array,
    splitmix64_inplace,
)
from repro.observability.metrics import default_registry

#: Seed for every storage digest.  Fixed (not configurable): digests are
#: an on-disk format, so two processes must always agree on it.
DIGEST_SEED = 0x1BAD_B10C

Buffer = Union[bytes, bytearray, memoryview]


def byte_view(buffer) -> memoryview:
    """``buffer`` (numpy arrays included) as a flat ``uint8`` view, no copy."""
    view = memoryview(buffer)
    return view if view.ndim == 1 and view.format == "B" else view.cast("B")

#: Cache of seed-premixed diffused word-position vectors keyed by
#: ``(start, count, mixed_seed)``.  Block-sized payloads hit
#: ``(0, block_size // 8, ...)`` on every call, which removes the
#: ``arange`` + splitmix pass *and* the seed XOR from the per-block hot
#: path -- one XOR against the cached vector plus the in-place
#: finaliser is the whole per-word pipeline.
_POSITION_CACHE: Dict[Tuple[int, int, int], np.ndarray] = {}
_POSITION_CACHE_MAX = 32


def _premixed_positions(start: int, count: int, mixed_seed: int) -> np.ndarray:
    cached = _POSITION_CACHE.get((start, count, mixed_seed))
    if cached is not None:
        return cached
    mixed = splitmix64_array(np.arange(start, start + count, dtype=np.uint64))
    mixed ^= np.uint64(mixed_seed)
    if start == 0 and len(_POSITION_CACHE) < _POSITION_CACHE_MAX:
        _POSITION_CACHE[(start, count, mixed_seed)] = mixed
    return mixed


def _hash_words(words: np.ndarray, start: int, seed: int) -> int:
    """XOR-reduce the position-mixed word hashes of ``words`` (word ``start``).

    The word hash is ``splitmix64(w ^ diffused_pos ^ mixed_seed)``:
    XOR is associative, so the diffused seed folds into the cached
    position vector, and the whole per-word pipeline is one XOR plus
    the five in-place splitmix passes.  The xxHash avalanche runs once,
    on the final scalar (:meth:`StreamingDigest.digest`), not per word.
    """
    mixed_seed = splitmix64(seed & MASK64)
    v = words ^ _premixed_positions(start, words.size, mixed_seed)
    splitmix64_inplace(v)
    return int(np.bitwise_xor.reduce(v))


class StreamingDigest:
    """Incrementally digest a payload fed in arbitrary chunks.

    ``update`` may be called with chunks of any length (including
    lengths that are not multiples of eight -- the uint32 gamma stripes
    of a wide pool); the final :meth:`digest` equals
    ``payload_digest(concatenation_of_chunks)`` bit-for-bit.
    """

    __slots__ = ("_seed", "_mixed_seed", "_acc", "_words", "_nbytes", "_tail")

    def __init__(self, seed: int = DIGEST_SEED) -> None:
        self._seed = seed
        self._mixed_seed = splitmix64(seed & MASK64)
        self._acc = 0
        self._words = 0
        self._nbytes = 0
        self._tail = b""

    def update(self, data: Buffer) -> None:
        self._nbytes += len(data)
        if self._tail:
            data = self._tail + bytes(data)
        whole = len(data) & ~7
        if whole:
            words = np.frombuffer(data, dtype="<u8", count=whole >> 3)
            self._acc ^= _hash_words(words, self._words, self._seed)
            self._words += whole >> 3
        self._tail = bytes(data[whole:])

    def digest(self) -> int:
        acc = self._acc
        if self._tail:
            word = int.from_bytes(self._tail.ljust(8, b"\0"), "little")
            acc ^= splitmix64(word ^ splitmix64(self._words) ^ self._mixed_seed)
        return seeded_hash64(acc ^ splitmix64(self._nbytes), self._seed)


def payload_digest(data: Buffer, seed: int = DIGEST_SEED, kernels=None) -> int:
    """The 64-bit digest of one byte payload.

    ``kernels`` is the caller's resolved native provider (or ``None``
    for the numpy reference); the value is the same either way.
    """
    if kernels is not None:
        return int(kernels.block_digests(data, max(len(data), 1), seed)[0])
    digest = StreamingDigest(seed)
    digest.update(data)
    return digest.digest()


def block_digests(
    payload: Buffer, block_size: int, seed: int = DIGEST_SEED, kernels=None
) -> List[int]:
    """Per-block digests of a blob, one pass over all of its blocks.

    Entry ``i`` equals ``payload_digest(payload[i*B : (i+1)*B])``
    bit-for-bit, so a writer checksums every block of a blob at once
    and a reader verifies any block range against those records.  With
    ``kernels`` (the native provider the owning engine resolved) the
    whole blob is one compiled call; without, full blocks share one
    vectorised numpy pass.  Counts the blocks it hashed in the
    ``integrity.blocks_digested`` registry counter.
    """
    data = memoryview(payload)
    num_blocks = max(1, -(-len(data) // block_size))
    registry = default_registry()
    if registry.enabled:
        registry.counter("integrity.blocks_digested").inc(num_blocks)
    if kernels is not None:
        return kernels.block_digests(data, block_size, seed).tolist()
    full = len(data) // block_size
    digests: List[int] = []
    if full and block_size % 8 == 0:
        words_per_block = block_size >> 3
        mixed_seed = splitmix64(seed & MASK64)
        words = np.frombuffer(data, dtype="<u8", count=full * words_per_block)
        v = words.reshape(full, words_per_block) ^ _premixed_positions(
            0, words_per_block, mixed_seed
        )
        splitmix64_inplace(v)
        accs = np.bitwise_xor.reduce(v, axis=1)
        with np.errstate(over="ignore"):
            accs ^= np.uint64(splitmix64(block_size) ^ mixed_seed)
        finalise_hash64_inplace(accs)
        digests.extend(int(d) for d in accs)
    else:
        full = 0
    for i in range(full, num_blocks):
        digests.append(payload_digest(data[i * block_size : (i + 1) * block_size], seed))
    return digests


__all__ = [
    "DIGEST_SEED",
    "MASK64",
    "StreamingDigest",
    "block_digests",
    "byte_view",
    "payload_digest",
]
