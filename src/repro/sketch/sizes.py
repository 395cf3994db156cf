"""The paper's closed-form sketch sizes (Figures 5 and 11).

Figure 5 of the paper compares the byte size of CubeSketch and the
general-purpose sampler across vector lengths from 10^3 to 10^12, and
Figure 11 the space of whole graph sketches.  The largest of those
sketches are never instantiated in this reproduction (nor do they need
to be -- size is a deterministic function of the parameters), so the
benchmarks use these closed forms.  This module keeps only those
forms: the rounds, columns and rows formulas they evaluate live in
:mod:`repro.sketch.geometry`, which also derives the geometry the
engine allocates.
"""

from __future__ import annotations

from repro.sketch.geometry import (
    BYTES_PER_CUBE_BUCKET,
    cubesketch_num_columns,
    cubesketch_num_rows,
    num_boruvka_rounds,
)

#: Machine word used by the general sampler for vectors shorter than
#: :data:`WIDE_ARITHMETIC_THRESHOLD` (64-bit integers).
STANDARD_WORD_BYTES = 8

#: Word used once 128-bit arithmetic becomes necessary.
STANDARD_WIDE_WORD_BYTES = 16

#: Vector length at which the general sampler must switch to 128-bit
#: arithmetic (the paper places this at 10^10 coordinates, i.e. graphs
#: with >= 10^5 nodes).
WIDE_ARITHMETIC_THRESHOLD = 10**10


def cubesketch_num_buckets(vector_length: int, delta: float = 0.01) -> int:
    """Total bucket count of a CubeSketch with the default geometry."""
    return cubesketch_num_rows(vector_length) * cubesketch_num_columns(delta)


def cubesketch_size_bytes(vector_length: int, delta: float = 0.01) -> int:
    """Payload bytes of a CubeSketch (12 bytes per bucket)."""
    return cubesketch_num_buckets(vector_length, delta) * BYTES_PER_CUBE_BUCKET


def standard_l0_num_buckets(vector_length: int, delta: float = 0.01) -> int:
    """Total bucket count of the general sampler (same geometry)."""
    return cubesketch_num_buckets(vector_length, delta)


def standard_l0_word_bytes(vector_length: int) -> int:
    """Bytes per stored integer for the general sampler at this length."""
    if vector_length >= WIDE_ARITHMETIC_THRESHOLD:
        return STANDARD_WIDE_WORD_BYTES
    return STANDARD_WORD_BYTES


def standard_l0_size_bytes(vector_length: int, delta: float = 0.01) -> int:
    """Payload bytes of the general sampler: three words per bucket."""
    words = 3 * standard_l0_num_buckets(vector_length, delta)
    return words * standard_l0_word_bytes(vector_length)


def node_sketch_size_bytes(num_nodes: int, delta: float = 0.01) -> int:
    """Bytes of one GraphZeppelin node sketch.

    A node sketch is ``ceil(log2(V))`` CubeSketches over vectors of
    length ``V^2`` (the edge-slot universe), one per Boruvka round.
    """
    return num_boruvka_rounds(num_nodes) * cubesketch_size_bytes(num_nodes * num_nodes, delta)


def graph_sketch_size_bytes(num_nodes: int, delta: float = 0.01) -> int:
    """Bytes of the whole GraphZeppelin sketch structure (V node sketches)."""
    return num_nodes * node_sketch_size_bytes(num_nodes, delta)
