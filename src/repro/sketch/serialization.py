"""Serialisation of a CubeSketch to and from bytes.

The external-memory substrate in :mod:`repro.memory` works on byte
blobs, so a sketch needs a compact, deterministic binary form:
``header (5 x uint64 little-endian): magic, vector_length, rows, cols,
seed`` followed by the raw ``alpha`` array (uint64) and ``gamma``
array (uint64), both in C order.  The magic and length checks are
shared with the pool snapshot format of :mod:`repro.distributed.snapshot`.

The general-purpose sampler holds unbounded Python integers and exists
only as an in-memory baseline; it does not round-trip.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.exceptions import StreamFormatError
from repro.sketch.cubesketch import CubeSketch

#: Magic number identifying a serialised CubeSketch ("CUBE" + version 1).
CUBESKETCH_MAGIC = 0x43554245_00000001

_HEADER_STRUCT = struct.Struct("<5Q")


def check_magic(actual: int, expected: int, what: str) -> None:
    """Raise a uniform :class:`StreamFormatError` on a magic mismatch.

    Shared by every binary format in the repo (sketch blobs here, pool
    snapshots in :mod:`repro.distributed.snapshot`): the version is
    embedded in the magic's low word, so an old reader rejecting a new
    format -- or a corrupted header -- fails the same way.
    """
    if actual != expected:
        raise StreamFormatError(f"bad {what} magic {actual:#x} (expected {expected:#x})")


def check_payload_length(actual: int, expected: int, what: str) -> None:
    """Raise a uniform :class:`StreamFormatError` on a truncated/padded blob."""
    if actual != expected:
        raise StreamFormatError(
            f"{what} length {actual} does not match expected {expected}"
        )


def cubesketch_to_bytes(sketch: CubeSketch) -> bytes:
    """Serialise a CubeSketch to a compact byte string."""
    alpha, gamma = sketch.raw_arrays()
    header = _HEADER_STRUCT.pack(
        CUBESKETCH_MAGIC,
        sketch.vector_length,
        sketch.num_rows,
        sketch.num_columns,
        sketch.seed,
    )
    return header + alpha.tobytes(order="C") + gamma.astype(np.uint64).tobytes(order="C")


def cubesketch_from_bytes(payload: bytes, delta: float = 0.01) -> CubeSketch:
    """Reconstruct a CubeSketch previously produced by
    :func:`cubesketch_to_bytes`.

    The failure probability ``delta`` is not stored (it is implied by the
    column count); passing it restores the original attribute for
    display purposes only.
    """
    if len(payload) < _HEADER_STRUCT.size:
        raise StreamFormatError("payload too short to contain a sketch header")
    magic, vector_length, rows, cols, seed = _HEADER_STRUCT.unpack_from(payload)
    check_magic(magic, CUBESKETCH_MAGIC, "sketch")
    check_payload_length(
        len(payload), _HEADER_STRUCT.size + 2 * rows * cols * 8, "sketch payload"
    )

    body = np.frombuffer(payload, dtype=np.uint64, offset=_HEADER_STRUCT.size)
    alpha = body[: rows * cols].reshape(rows, cols)
    gamma = body[rows * cols :].reshape(rows, cols)

    sketch = CubeSketch(
        int(vector_length),
        delta=delta,
        seed=int(seed),
        num_rows=int(rows),
        num_columns=int(cols),
    )
    sketch.load_raw_arrays(alpha, gamma)
    return sketch


def serialized_size_bytes(sketch: CubeSketch) -> int:
    """Exact byte length :func:`cubesketch_to_bytes` will produce."""
    return _HEADER_STRUCT.size + 2 * sketch.num_rows * sketch.num_columns * 8
