"""CubeSketch: the paper's l0-sampler for vectors over the integers mod 2.

A CubeSketch is a matrix of buckets with ``num_columns = O(log 1/delta)``
columns and ``num_rows = O(log n)`` rows.  A vector index ``e`` belongs
to bucket row ``r`` of column ``j`` when the low ``r`` bits of a
per-column membership hash of ``e`` are zero, so row 0 receives every
index and each deeper row receives roughly half the indices of the row
above.  Each bucket stores only two values:

* ``alpha`` -- the XOR of all indices inserted into the bucket,
* ``gamma`` -- the XOR of their per-column checksums.

Because every vector coordinate is 0 or 1, an even number of updates to
the same index cancels out, exactly like the characteristic vectors of
graph nodes whose shared edge disappears when the two node vectors are
added.  A bucket whose support is a single index ``e`` therefore holds
``alpha = e`` and ``gamma = checksum(e)``, which the query recognises by
recomputing the checksum (Figure 6 of the paper).

Updates are a handful of XORs and one 64-bit hash per column; there is
no division and no modular exponentiation, which is where the three
orders of magnitude of speedup over the general-purpose sampler come
from (Figure 4).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, IncompatibleSketchError
from repro.hashing.mixers import (
    hash_to_depth,
    seeded_hash64,
    seeded_hash64_array,
    trailing_zeros64,
)
from repro.hashing.prng import derive_seed
from repro.sketch.sketch_base import L0Sampler, SampleResult
from repro.sketch.geometry import BYTES_PER_CUBE_BUCKET, cube_shape

_GAMMA_MASK = np.uint64(0xFFFFFFFF)

#: Label constants used when deriving per-column hash seeds.
_MEMBERSHIP_LABEL = 1
_CHECKSUM_LABEL = 2


def validate_indices(indices, vector_length: int) -> Optional[np.ndarray]:
    """Validate a raw batch of coordinates (edge slots) before hashing.

    A negative, fractional, NaN, infinite or out-of-range index raises
    ``ValueError`` instead of going through the uint64 cast, which
    would wrap or truncate it into another coordinate and silently fold
    it there.  Integral floats and every integer dtype are accepted.
    Returns the batch as a uint64 array, or ``None`` for an empty batch.
    """
    idx = np.asarray(indices)
    if idx.size == 0:
        return None
    if idx.ndim != 1:
        raise ValueError("expected a one-dimensional index array")
    if idx.dtype.kind == "f" and not (np.isfinite(idx) & (idx == np.trunc(idx))).all():
        raise ValueError("batch contains a non-integral index")
    if idx.dtype.kind in "if" and (idx < 0).any():
        raise ValueError("batch contains a negative index")
    if int(idx.max()) >= vector_length:
        raise ValueError("batch contains an index outside the sketched vector")
    return idx.astype(np.uint64, copy=False)


class CubeSketch(L0Sampler):
    """An l0-sampler over Z_2^n built from XOR buckets.

    Parameters
    ----------
    vector_length:
        Length ``n`` of the sketched vector (for graph connectivity this
        is the number of possible edge slots, ``O(V^2)``).
    delta:
        Failure probability bound; the default 1/100 matches the paper's
        per-round sketches and yields 7 columns.
    seed:
        Seed fixing the per-column hash functions.  Sketches can only be
        merged when they share the same seed and dimensions.
    num_columns, num_rows:
        Optional explicit dimensions, overriding the defaults derived
        from ``vector_length`` and ``delta``.  Used by tests and by the
        ablation benchmarks.
    """

    def __init__(
        self,
        vector_length: int,
        delta: float = 0.01,
        seed: int = 0,
        num_columns: Optional[int] = None,
        num_rows: Optional[int] = None,
    ) -> None:
        if vector_length < 1:
            raise ConfigurationError("vector_length must be at least 1")
        if vector_length > 1 << 62:
            raise ConfigurationError(
                "vector_length above 2^62 would overflow the 64-bit alpha field"
            )
        if not 0 < delta < 1:
            raise ConfigurationError("delta must be in (0, 1)")

        self.vector_length = int(vector_length)
        self.delta = float(delta)
        self.seed = int(seed)
        columns, rows = cube_shape(vector_length, delta)
        self.num_columns = int(num_columns if num_columns is not None else columns)
        self.num_rows = int(num_rows if num_rows is not None else rows)
        if self.num_columns < 1 or self.num_rows < 1:
            raise ConfigurationError("sketch must have at least one row and column")

        self._alpha = np.zeros((self.num_rows, self.num_columns), dtype=np.uint64)
        self._gamma = np.zeros((self.num_rows, self.num_columns), dtype=np.uint64)
        self._membership_seeds = [
            derive_seed(self.seed, _MEMBERSHIP_LABEL, col) for col in range(self.num_columns)
        ]
        self._checksum_seeds = [
            derive_seed(self.seed, _CHECKSUM_LABEL, col) for col in range(self.num_columns)
        ]
        self._updates_applied = 0

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update(self, index: int, delta: int = 1) -> None:
        """Toggle coordinate ``index`` of the sketched Z_2 vector.

        ``delta`` is accepted for interface compatibility; over Z_2 both
        +1 and -1 are the same toggle, so only its parity matters and a
        zero delta is rejected.
        """
        if delta % 2 == 0:
            raise ValueError("a Z_2 sketch update must have odd delta (a toggle)")
        self._check_index(index)
        for col in range(self.num_columns):
            membership = seeded_hash64(index, self._membership_seeds[col])
            depth = min(trailing_zeros64(membership) + 1, self.num_rows)
            checksum = seeded_hash64(index, self._checksum_seeds[col]) & 0xFFFFFFFF
            idx64 = np.uint64(index)
            check64 = np.uint64(checksum)
            for row in range(depth):
                self._alpha[row, col] ^= idx64
                self._gamma[row, col] ^= check64
        self._updates_applied += 1

    def update_batch(self, indices: Iterable[int]) -> None:
        """Toggle a batch of coordinates with vectorised hashing.

        Equivalent to calling :meth:`update` once per index, but hashes
        the whole batch per column with numpy and folds the XORs with a
        prefix scan, which is what makes buffered (batched) ingestion
        fast (Section 5.1).
        """
        if isinstance(indices, (np.ndarray, list, tuple)):
            idx = np.asarray(indices)
        else:
            # Generators and other lazy iterables materialise once here,
            # instead of the old list() round-trip that copied sequence
            # inputs twice.
            idx = np.fromiter(indices, dtype=np.int64)
        idx = validate_indices(idx, self.vector_length)
        if idx is None:
            return

        for col in range(self.num_columns):
            membership = seeded_hash64_array(idx, self._membership_seeds[col])
            depths = hash_to_depth(membership, self.num_rows)
            checksums = seeded_hash64_array(idx, self._checksum_seeds[col]) & _GAMMA_MASK

            # Bucket rows are nested: an index with depth d belongs to rows
            # 0..d-1.  Sorting by depth (descending) lets us compute every
            # row's XOR fold as a prefix of one cumulative XOR scan.
            order = np.argsort(-depths, kind="stable")
            sorted_idx = idx[order]
            sorted_checks = checksums[order]
            sorted_depths = depths[order]
            cum_alpha = np.bitwise_xor.accumulate(sorted_idx)
            cum_gamma = np.bitwise_xor.accumulate(sorted_checks)
            # counts[r] = number of indices with depth >= r + 1 (members of row r)
            counts = np.searchsorted(
                -sorted_depths, -(np.arange(1, self.num_rows + 1)), side="right"
            )
            for row in range(self.num_rows):
                count = int(counts[row])
                if count == 0:
                    break
                self._alpha[row, col] ^= cum_alpha[count - 1]
                self._gamma[row, col] ^= cum_gamma[count - 1]
        self._updates_applied += int(idx.size)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self) -> SampleResult:
        """Attempt to recover one nonzero coordinate of the sketched vector.

        Buckets are scanned from the deepest row down to row 0: deep rows
        subsample the support aggressively, so when the vector has many
        nonzero coordinates the singleton bucket (if any) sits in a deep
        row.  Returns ``ZERO`` when every bucket is empty, ``FAIL`` when
        no bucket passes its checksum, and ``GOOD`` with the recovered
        index otherwise.
        """
        any_nonempty = False
        for col in range(self.num_columns):
            checksum_seed = self._checksum_seeds[col]
            for row in range(self.num_rows - 1, -1, -1):
                alpha = int(self._alpha[row, col])
                gamma = int(self._gamma[row, col])
                if alpha == 0 and gamma == 0:
                    continue
                any_nonempty = True
                if alpha >= self.vector_length:
                    continue
                if (seeded_hash64(alpha, checksum_seed) & 0xFFFFFFFF) == gamma:
                    return SampleResult.good(alpha)
        if not any_nonempty:
            return SampleResult.zero()
        return SampleResult.fail()

    def is_empty(self) -> bool:
        """True when every bucket is zero (the sketched vector is zero)."""
        return not self._alpha.any() and not self._gamma.any()

    # ------------------------------------------------------------------
    # linearity
    # ------------------------------------------------------------------
    def merge(self, other: "L0Sampler") -> None:
        """Add ``other`` into this sketch: ``S(x) + S(y) = S(x XOR y)``."""
        if not self.is_compatible(other):
            raise IncompatibleSketchError(
                "cannot merge CubeSketches with different shapes or seeds"
            )
        assert isinstance(other, CubeSketch)
        self._alpha ^= other._alpha
        self._gamma ^= other._gamma
        self._updates_applied += other._updates_applied

    def is_compatible(self, other: "L0Sampler") -> bool:
        return (
            isinstance(other, CubeSketch)
            and other.vector_length == self.vector_length
            and other.num_rows == self.num_rows
            and other.num_columns == self.num_columns
            and other.seed == self.seed
        )

    def copy(self) -> "CubeSketch":
        """An independent deep copy of this sketch."""
        clone = CubeSketch(
            self.vector_length,
            delta=self.delta,
            seed=self.seed,
            num_columns=self.num_columns,
            num_rows=self.num_rows,
        )
        clone._alpha = self._alpha.copy()
        clone._gamma = self._gamma.copy()
        clone._updates_applied = self._updates_applied
        return clone

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        return self.num_rows * self.num_columns

    @property
    def updates_applied(self) -> int:
        """Number of coordinate updates folded into this sketch so far."""
        return self._updates_applied

    def size_bytes(self) -> int:
        """Payload size using the paper's 12-bytes-per-bucket accounting."""
        return self.num_buckets * BYTES_PER_CUBE_BUCKET

    def raw_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The underlying (alpha, gamma) arrays (read-only views)."""
        alpha = self._alpha.view()
        gamma = self._gamma.view()
        alpha.flags.writeable = False
        gamma.flags.writeable = False
        return alpha, gamma

    def load_raw_arrays(self, alpha: np.ndarray, gamma: np.ndarray) -> None:
        """Replace bucket contents with copies of ``(rows, cols)`` arrays."""
        if alpha.shape != self._alpha.shape or gamma.shape != self._gamma.shape:
            raise ValueError("array shapes do not match the sketch dimensions")
        self._alpha = alpha.astype(np.uint64, copy=True)
        self._gamma = gamma.astype(np.uint64, copy=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CubeSketch):
            return NotImplemented
        return (
            self.is_compatible(other)
            and np.array_equal(self._alpha, other._alpha)
            and np.array_equal(self._gamma, other._gamma)
        )

    def __repr__(self) -> str:
        return (
            f"CubeSketch(vector_length={self.vector_length}, delta={self.delta}, "
            f"rows={self.num_rows}, cols={self.num_columns}, seed={self.seed})"
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.vector_length:
            raise ValueError(
                f"index {index} outside sketched vector of length {self.vector_length}"
            )

    @classmethod
    def sum_of(cls, sketches: Sequence["CubeSketch"]) -> "CubeSketch":
        """The linear combination (XOR) of a non-empty list of sketches."""
        if not sketches:
            raise ValueError("sum_of requires at least one sketch")
        total = sketches[0].copy()
        for sketch in sketches[1:]:
            total.merge(sketch)
        return total

