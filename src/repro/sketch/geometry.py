"""The shape of a GraphZeppelin node sketch, derived in one place.

A node sketch is one CubeSketch per Boruvka round, each a matrix of
``columns x rows`` buckets:

* ``rounds  = ceil(log2 V)`` -- Boruvka halves the component count
  each round, and every round needs independent hash functions;
* ``columns = min(ceil(log2 1/delta), 3)`` for ``delta >= 0.01``, and
  the paper's ``ceil(log2 1/delta)`` below -- ``delta`` bounds the
  per-*query* incomplete rate (see :func:`node_sketch_columns`);
* ``rows    = ceil(log2 V^2) + 1`` -- one per hash depth of the
  ``V^2`` edge-slot universe; row 0 receives every index.

Buckets are **packed** (32-bit alpha and 32-bit gamma in one uint64, 8
bytes) while the edge-slot universe fits in 32 bits, i.e. up to 65 536
nodes, and **wide** (uint64 alpha + uint32 gamma, 12 bytes) above.  The
paper accounts every bucket at 12 bytes either way.  A pool stores one
round-major tensor per **plane** (:attr:`SketchGeometry.planes`): the
packed words alone, or an alpha plane then a gamma plane.  Every bucket
operation a pool runs is an XOR per plane, so the planes are all a pool
knows of the layout; :meth:`SketchGeometry.pack` and
:meth:`SketchGeometry.unpack` convert between them and ``(alpha, gamma)``.

:meth:`SketchGeometry.for_graph` is the only derivation.  Pools, node
views, snapshot readers and the engine's byte counts read its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hashing.prng import derive_seed

#: Paper accounting of a CubeSketch bucket: 64-bit ``alpha`` + 32-bit ``gamma``.
BYTES_PER_CUBE_BUCKET = 12

#: Largest edge-slot universe whose alpha fits the packed 32-bit half.
PACKED_MAX_VECTOR = 1 << 32

#: Smallest per-query bound the reliability harness certifies at
#: :data:`CERTIFIED_COLUMNS` node-sketch columns (at 2 048 nodes).
CERTIFIED_DELTA = 0.01
CERTIFIED_COLUMNS = 3

#: Label used when deriving the per-round sketch seeds from the graph seed.
_ROUND_SEED_LABEL = 0x524F554E  # "ROUN"

_SHIFT32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)
_PACKED_PLANES = (("packed", np.dtype(np.uint64)),)
_WIDE_PLANES = (("alpha", np.dtype(np.uint64)), ("gamma", np.dtype(np.uint32)))


def num_boruvka_rounds(num_nodes: int) -> int:
    """Number of sketch rounds a graph on ``num_nodes`` nodes needs."""
    if num_nodes < 2:
        raise ConfigurationError("a graph needs at least two nodes")
    return max(1, math.ceil(math.log2(num_nodes)))


def cubesketch_num_columns(delta: float) -> int:
    """Columns for failure probability ``delta``: 7 at the paper's 1/100."""
    if not 0 < delta < 1:
        raise ConfigurationError("delta must be in (0, 1)")
    return max(1, math.ceil(math.log2(1.0 / delta)))


def node_sketch_columns(delta: float) -> int:
    """Columns of every round sketch of a node at per-query bound ``delta``.

    The paper sizes each CubeSketch for failure probability ``delta``
    alone, ``ceil(log2 1/delta)`` = 7 columns at 1/100.  A node sketch
    does not need that: columns fail nearly independently (a sample
    fails at ~0.3 per column), and a failed sample only defers its
    component to the next Boruvka round, of which a query has spare.
    The Section 6.3 reliability harness (:mod:`repro.analysis.reliability`)
    measures 3 columns at 0 wrong and 0 incomplete answers, with a 95 %
    upper bound on the per-query incomplete rate below 1/100, so
    ``delta >= CERTIFIED_DELTA`` is capped at :data:`CERTIFIED_COLUMNS`.
    That bound is certified at 2 048 nodes over the harness's eight
    graph families and at 16 384 nodes over the two that use the most
    rounds (path, communities); the other families' 45 queries each at
    16 384 nodes were all complete and right, which is evidence, not a
    bound, and wide mode (past 65 536 nodes) is unmeasured.
    Smaller bounds keep the paper's count: ``delta = 1/128`` builds the
    7-column sketch, bit for bit.
    """
    columns = cubesketch_num_columns(delta)
    if delta >= CERTIFIED_DELTA:
        return min(columns, CERTIFIED_COLUMNS)
    return columns


def cubesketch_num_rows(vector_length: int) -> int:
    """Number of bucket rows: ``ceil(log2(n)) + 1`` (row 0 catches all)."""
    if vector_length < 1:
        raise ConfigurationError("vector_length must be at least 1")
    return max(1, math.ceil(math.log2(max(vector_length, 2)))) + 1


def cube_shape(vector_length: int, delta: float) -> Tuple[int, int]:
    """``(columns, rows)`` of a CubeSketch over ``vector_length`` coordinates."""
    return cubesketch_num_columns(delta), cubesketch_num_rows(vector_length)


def round_seed(graph_seed: int, round_index: int) -> int:
    """The shared hash seed of every node's round-``round_index`` sketch."""
    return derive_seed(graph_seed, _ROUND_SEED_LABEL, round_index)


@dataclass(frozen=True)
class SketchGeometry:
    """Rounds, columns, rows and bucket mode of every node sketch of a graph.

    Construction validates; :meth:`for_graph` derives.  ``delta`` is the
    per-query bound the columns were derived from: recorded (snapshot
    headers store it), not compared -- two bounds with the same column
    count build the same sketch.
    """

    num_nodes: int
    rounds: int
    columns: int
    rows: int
    packed: bool
    delta: float = field(compare=False)

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ConfigurationError("a graph needs at least two nodes")
        if self.rounds < 1 or self.columns < 1:
            raise ConfigurationError(
                f"a node sketch needs at least one round and column, not {self}"
            )
        if self.rows != cubesketch_num_rows(self.vector_length):
            raise ConfigurationError(
                f"{self.num_nodes} nodes need {cubesketch_num_rows(self.vector_length)} "
                f"bucket rows, not {self.rows}"
            )
        if self.packed and self.vector_length > PACKED_MAX_VECTOR:
            raise ConfigurationError(
                f"{self.num_nodes} nodes overflow packed 32-bit buckets"
            )

    @classmethod
    def for_graph(cls, num_nodes: int, delta: float = 0.01) -> "SketchGeometry":
        """The geometry of a ``num_nodes``-node graph at per-query bound ``delta``."""
        vector_length = num_nodes * num_nodes
        return cls(
            num_nodes,
            num_boruvka_rounds(num_nodes),
            node_sketch_columns(delta),
            cubesketch_num_rows(vector_length),
            vector_length <= PACKED_MAX_VECTOR,
            delta,
        )

    @property
    def vector_length(self) -> int:
        """Length of a node's characteristic vector (the edge-slot universe)."""
        return self.num_nodes * self.num_nodes

    @property
    def buckets_per_node(self) -> int:
        return self.rounds * self.columns * self.rows

    @property
    def planes(self) -> Tuple[Tuple[str, np.dtype], ...]:
        """``(name, dtype)`` of every bucket plane, in storage order.

        Packed: one uint64 plane of ``alpha << 32 | gamma`` words.  Wide:
        a uint64 alpha plane, then a uint32 gamma plane.
        """
        return _PACKED_PLANES if self.packed else _WIDE_PLANES

    def pack(self, alpha: np.ndarray, gamma: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Bucket ``(alpha, gamma)`` values as one array per plane, in its dtype.

        The arguments broadcast against each other like any numpy pair.
        """
        if self.packed:
            return ((alpha << _SHIFT32) | gamma,)
        return alpha.astype(np.uint64, copy=False), gamma.astype(np.uint32)

    def unpack(self, values: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """Bucket ``(alpha, gamma)`` of one array per plane, as fresh uint64 arrays."""
        if self.packed:
            (words,) = values
            return words >> _SHIFT32, words & _LOW32
        alpha, gamma = values
        return alpha.astype(np.uint64), gamma.astype(np.uint64)

    @property
    def allocated_bytes_per_node(self) -> int:
        """Bytes one node's buckets occupy in a pool: 8 packed, 12 wide."""
        return self.buckets_per_node * sum(dtype.itemsize for _, dtype in self.planes)

    @property
    def accounted_bytes_per_node(self) -> int:
        """The paper's accounting: :data:`BYTES_PER_CUBE_BUCKET` per bucket."""
        return self.buckets_per_node * BYTES_PER_CUBE_BUCKET
