"""Common interface and result types for l0-samplers.

Definition 1 of the paper describes an l0-sampler by three properties:
it is *sampleable* (a query returns a nonzero coordinate of the sketched
vector), *linear* (sketches of two vectors can be added to obtain a
sketch of the sum), and it has *low failure probability*.  The
:class:`L0Sampler` abstract base class captures exactly that interface
so the connectivity algorithm, tests, and benchmarks are agnostic to
which sampler is plugged in.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Iterable, Optional


class SampleOutcome(enum.Enum):
    """The three possible results of querying an l0-sampler."""

    #: A nonzero coordinate was recovered.
    GOOD = "good"
    #: Every bucket was empty: the sketched vector is (believed to be) zero.
    ZERO = "zero"
    #: The vector is nonzero but no bucket could produce a sample.
    FAIL = "fail"


#: Integer encodings of :class:`SampleOutcome` used by the batched query
#: path, where per-component results travel as ``(status, index)`` numpy
#: arrays instead of :class:`SampleResult` objects.
SAMPLE_ZERO = 0
SAMPLE_GOOD = 1
SAMPLE_FAIL = 2


@dataclass(frozen=True, slots=True)
class SampleResult:
    """Result of a query: an outcome plus the sampled index when GOOD."""

    outcome: SampleOutcome
    index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.outcome is SampleOutcome.GOOD and self.index is None:
            raise ValueError("a GOOD sample must carry an index")
        if self.outcome is not SampleOutcome.GOOD and self.index is not None:
            raise ValueError("only GOOD samples carry an index")

    @property
    def is_good(self) -> bool:
        return self.outcome is SampleOutcome.GOOD

    @property
    def is_zero(self) -> bool:
        return self.outcome is SampleOutcome.ZERO

    @property
    def is_fail(self) -> bool:
        return self.outcome is SampleOutcome.FAIL

    @classmethod
    def good(cls, index: int) -> "SampleResult":
        return cls(SampleOutcome.GOOD, index)

    @classmethod
    def zero(cls) -> "SampleResult":
        return cls(SampleOutcome.ZERO)

    @classmethod
    def fail(cls) -> "SampleResult":
        return cls(SampleOutcome.FAIL)


class L0Sampler(abc.ABC):
    """Abstract l0-sampler over a fixed-length vector.

    Concrete samplers are constructed with the vector length, a failure
    probability ``delta``, and a seed that fixes their hash functions.
    Two sketches are *compatible* (and can be merged) when they were
    constructed with the same parameters and seed.
    """

    #: Length of the sketched vector.
    vector_length: int
    #: Failure probability bound delta.
    delta: float
    #: Seed fixing the hash functions.
    seed: int

    @abc.abstractmethod
    def update(self, index: int, delta: int = 1) -> None:
        """Apply a single coordinate update to the sketch."""

    @abc.abstractmethod
    def update_batch(self, indices: Iterable[int]) -> None:
        """Apply a batch of +1 coordinate updates (toggles for Z_2)."""

    @abc.abstractmethod
    def query(self) -> SampleResult:
        """Attempt to recover a nonzero coordinate of the sketched vector."""

    @abc.abstractmethod
    def merge(self, other: "L0Sampler") -> None:
        """Add ``other`` into this sketch in place (linearity)."""

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Size of the sketch payload in bytes (paper's accounting)."""

    @abc.abstractmethod
    def is_compatible(self, other: "L0Sampler") -> bool:
        """Whether ``other`` can legally be merged into this sketch."""

    def __iadd__(self, other: "L0Sampler") -> "L0Sampler":
        self.merge(other)
        return self
