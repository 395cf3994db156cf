"""The general-purpose l0-sampler baseline (after Cormode & Firmani).

This is the "standard l0" algorithm of Figure 3 in the paper: each
bucket stores three integers

* ``a`` -- the running sum of ``index * delta``,
* ``b`` -- the running sum of ``delta`` (the bucket's support size when
  every coordinate is 0/1),
* ``c`` -- the running sum of ``delta * r^index mod p`` for a random
  per-column base ``r`` and prime ``p``.

A bucket with a single surviving coordinate has ``a / b`` equal to that
coordinate, which the query verifies through the modular-exponentiation
checksum.  The checksum is exactly the expensive part: every update
performs ``O(log n)``-bit modular exponentiation per column, and once
the vector is longer than ``10^10`` coordinates the arithmetic no
longer fits in a 64-bit word (the paper's 128-bit cliff, visible in
Figure 4).  Python integers emulate that wide arithmetic directly,
which keeps the baseline faithful -- and appropriately slow.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError, IncompatibleSketchError
from repro.hashing.mixers import seeded_hash64, trailing_zeros64
from repro.hashing.prng import derive_seed
from repro.sketch.sketch_base import L0Sampler, SampleResult
from repro.sketch.geometry import cube_shape
from repro.sketch.sizes import WIDE_ARITHMETIC_THRESHOLD, standard_l0_size_bytes

#: Mersenne prime 2^61 - 1: the checksum modulus while 64-bit arithmetic suffices.
MERSENNE_PRIME_61 = (1 << 61) - 1
#: Mersenne prime 2^127 - 1, used once 64-bit arithmetic is insufficient.
MERSENNE_PRIME_127 = (1 << 127) - 1

_MEMBERSHIP_LABEL = 11
_BASE_LABEL = 12


class StandardL0Sketch(L0Sampler):
    """General-purpose l0-sampler over integer vectors.

    Parameters mirror :class:`repro.sketch.cubesketch.CubeSketch`; the
    additional ``force_wide_arithmetic`` flag lets benchmarks exercise
    the 128-bit code path on small vectors.
    """

    def __init__(
        self,
        vector_length: int,
        delta: float = 0.01,
        seed: int = 0,
        num_columns: Optional[int] = None,
        num_rows: Optional[int] = None,
        force_wide_arithmetic: bool = False,
    ) -> None:
        if vector_length < 1:
            raise ConfigurationError("vector_length must be at least 1")
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

        self.uses_wide_arithmetic = (
            force_wide_arithmetic or self.vector_length >= WIDE_ARITHMETIC_THRESHOLD
        )
        self.prime = MERSENNE_PRIME_127 if self.uses_wide_arithmetic else MERSENNE_PRIME_61

        self._membership_seeds = [
            derive_seed(self.seed, _MEMBERSHIP_LABEL, col) for col in range(self.num_columns)
        ]
        # Per-column base r for the checksum r^index mod p.
        self._bases = [
            (derive_seed(self.seed, _BASE_LABEL, col) % (self.prime - 2)) + 2
            for col in range(self.num_columns)
        ]
        # Buckets hold arbitrarily large Python integers (a can reach
        # n * number_of_updates), so plain nested lists are the honest
        # representation of the baseline's storage.
        self._a: List[List[int]] = [[0] * self.num_columns for _ in range(self.num_rows)]
        self._b: List[List[int]] = [[0] * self.num_columns for _ in range(self.num_rows)]
        self._c: List[List[int]] = [[0] * self.num_columns for _ in range(self.num_rows)]
        self._updates_applied = 0

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update(self, index: int, delta: int = 1) -> None:
        """Add ``delta`` to coordinate ``index`` of the sketched vector."""
        if delta == 0:
            raise ValueError("delta must be non-zero")
        if not 0 <= index < self.vector_length:
            raise ValueError(
                f"index {index} outside sketched vector of length {self.vector_length}"
            )
        prime = self.prime
        for col in range(self.num_columns):
            membership = seeded_hash64(index, self._membership_seeds[col])
            depth = min(trailing_zeros64(membership) + 1, self.num_rows)
            checksum_term = pow(self._bases[col], index, prime)
            for row in range(depth):
                self._a[row][col] += index * delta
                self._b[row][col] += delta
                self._c[row][col] = (self._c[row][col] + delta * checksum_term) % prime
        self._updates_applied += 1

    def update_batch(self, indices: Iterable[int]) -> None:
        """Apply a batch of +1 updates (no vectorised fast path exists).

        The baseline's cost is dominated by per-update modular
        exponentiation, so batching cannot amortise it -- which is
        exactly the behaviour the paper measures.
        """
        if isinstance(indices, np.ndarray):
            indices = indices.tolist()
        for index in indices:
            self.update(int(index), 1)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self) -> SampleResult:
        """Recover a nonzero coordinate, scanning deepest buckets first."""
        any_nonempty = False
        prime = self.prime
        for col in range(self.num_columns):
            base = self._bases[col]
            for row in range(self.num_rows - 1, -1, -1):
                a = self._a[row][col]
                b = self._b[row][col]
                c = self._c[row][col]
                if a == 0 and b == 0 and c == 0:
                    continue
                any_nonempty = True
                if b == 0 or a % b != 0:
                    continue
                value = a // b
                if not 0 <= value < self.vector_length:
                    continue
                if c % prime == (b * pow(base, value, prime)) % prime:
                    return SampleResult.good(value)
        if not any_nonempty:
            return SampleResult.zero()
        return SampleResult.fail()

    def is_empty(self) -> bool:
        """True when every bucket is zero."""
        return all(
            self._a[r][c] == 0 and self._b[r][c] == 0 and self._c[r][c] == 0
            for r in range(self.num_rows)
            for c in range(self.num_columns)
        )

    # ------------------------------------------------------------------
    # linearity
    # ------------------------------------------------------------------
    def merge(self, other: "L0Sampler") -> None:
        if not self.is_compatible(other):
            raise IncompatibleSketchError(
                "cannot merge StandardL0Sketches with different shapes or seeds"
            )
        assert isinstance(other, StandardL0Sketch)
        prime = self.prime
        for row in range(self.num_rows):
            for col in range(self.num_columns):
                self._a[row][col] += other._a[row][col]
                self._b[row][col] += other._b[row][col]
                self._c[row][col] = (self._c[row][col] + other._c[row][col]) % prime
        self._updates_applied += other._updates_applied

    def is_compatible(self, other: "L0Sampler") -> bool:
        return (
            isinstance(other, StandardL0Sketch)
            and other.vector_length == self.vector_length
            and other.num_rows == self.num_rows
            and other.num_columns == self.num_columns
            and other.seed == self.seed
            and other.prime == self.prime
        )

    def copy(self) -> "StandardL0Sketch":
        clone = StandardL0Sketch(
            self.vector_length,
            delta=self.delta,
            seed=self.seed,
            num_columns=self.num_columns,
            num_rows=self.num_rows,
            force_wide_arithmetic=self.uses_wide_arithmetic,
        )
        clone._a = [row[:] for row in self._a]
        clone._b = [row[:] for row in self._b]
        clone._c = [row[:] for row in self._c]
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
        return self._updates_applied

    def size_bytes(self) -> int:
        """Size under the paper's three-words-per-bucket accounting."""
        return standard_l0_size_bytes(self.vector_length, self.delta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StandardL0Sketch):
            return NotImplemented
        return (
            self.is_compatible(other)
            and self._a == other._a
            and self._b == other._b
            and self._c == other._c
        )

    def __repr__(self) -> str:
        return (
            f"StandardL0Sketch(vector_length={self.vector_length}, delta={self.delta}, "
            f"rows={self.num_rows}, cols={self.num_columns}, seed={self.seed}, "
            f"wide={self.uses_wide_arithmetic})"
        )
