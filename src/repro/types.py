"""Shared lightweight value types used across the package.

These types intentionally stay close to the paper's vocabulary:

* an *edge* is an unordered pair of node identifiers,
* a *stream update* is an edge plus an insert/delete flag,
* a *node id* is a non-negative integer smaller than the declared number
  of nodes.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

NodeId = int
Edge = Tuple[int, int]


class UpdateType(enum.IntEnum):
    """Whether a stream update inserts or deletes its edge."""

    INSERT = 1
    DELETE = -1

    @property
    def delta(self) -> int:
        """The +1 / -1 delta used by the characteristic-vector formulation."""
        return int(self.value)


@dataclass(frozen=True, slots=True)
class EdgeUpdate:
    """A single dynamic-graph stream update ``((u, v), delta)``.

    The endpoints are stored in canonical order (``u < v``); construction
    normalises them.  Self loops are rejected because the streaming model
    only defines simple graphs.
    """

    u: int
    v: int
    kind: UpdateType = UpdateType.INSERT

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"self loop ({self.u}, {self.v}) is not a valid update")
        if self.u < 0 or self.v < 0:
            raise ValueError(f"negative node id in update ({self.u}, {self.v})")
        if self.u > self.v:
            lo, hi = self.v, self.u
            object.__setattr__(self, "u", lo)
            object.__setattr__(self, "v", hi)

    @property
    def edge(self) -> Edge:
        """The canonical ``(min, max)`` endpoint pair."""
        return (self.u, self.v)

    @property
    def is_insert(self) -> bool:
        return self.kind is UpdateType.INSERT

    @property
    def is_delete(self) -> bool:
        return self.kind is UpdateType.DELETE

    def inverted(self) -> "EdgeUpdate":
        """The update that undoes this one (insert <-> delete)."""
        other = UpdateType.DELETE if self.is_insert else UpdateType.INSERT
        return EdgeUpdate(self.u, self.v, other)


def canonical_edge(u: int, v: int) -> Edge:
    """Return ``(u, v)`` with endpoints sorted; reject self loops.

    >>> canonical_edge(5, 2)
    (2, 5)

    Endpoints must be integers (``operator.index``: Python or numpy
    ints); a float such as ``0.5`` is rejected rather than truncated.
    """
    try:
        u, v = operator.index(u), operator.index(v)
    except TypeError:
        raise ValueError(f"non-integer node id in edge ({u!r}, {v!r})") from None
    if u == v:
        raise ValueError(f"self loop ({u}, {v}) is not a valid edge")
    if u < 0 or v < 0:
        raise ValueError(f"negative node id in edge ({u}, {v})")
    return (u, v) if u < v else (v, u)


def iter_edges(pairs: Iterable[Tuple[int, int]]) -> Iterator[Edge]:
    """Yield canonicalised edges from an iterable of endpoint pairs."""
    for u, v in pairs:
        yield canonical_edge(u, v)
