"""The in-memory dynamic graph stream object."""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from operator import attrgetter
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import StreamFormatError
from repro.types import Edge, EdgeUpdate, UpdateType

#: Rows turned into ``EdgeUpdate`` objects per step of an iteration, so
#: walking a large stream never holds more than this many at once.
_ITER_CHUNK_ROWS = 1 << 13

_KIND_OF = {int(kind): kind for kind in UpdateType}
_COLUMNS = (attrgetter("kind"), attrgetter("u"), attrgetter("v"))


def update_rows(updates: Iterable[EdgeUpdate], kinds: bool = True) -> np.ndarray:
    """``(N, 3)`` int64 ``(kind, u, v)`` rows of a run of update objects;
    ``kinds=False`` leaves the kind column zero (an ``IntEnum`` read is slow)."""
    if not isinstance(updates, (list, tuple)):
        updates = list(updates)
    rows = np.zeros((len(updates), 3), dtype=np.int64)
    for column, getter in enumerate(_COLUMNS):
        if column or kinds:
            rows[:, column] = np.fromiter(map(getter, updates), np.int64, len(updates))
    return rows


def _row_label(index: int) -> str:
    return f"row {index}"


def canonical_rows(rows, where: Callable[[int], str] = _row_label) -> np.ndarray:
    """Check ``(N, 3)`` ``(kind, u, v)`` rows and orient them ``u < v``.

    The one place the update rules are enforced on columnar input: the
    kind is ``+1`` (insert) or ``-1`` (delete), node ids are
    non-negative, and no row is a self loop.  The first offending row
    raises :class:`~repro.exceptions.StreamFormatError` prefixed with
    ``where(index)``, so a file reader can name its path and line.
    Returns a read-only int64 array: the input itself when it already is
    one with nothing to reorient (a ``frombuffer`` view of file bytes
    stays zero-copy), otherwise a copy, so the caller's array is neither
    frozen nor aliased.
    """
    rows = np.asarray(rows)
    if rows.size == 0:
        rows = np.empty((0, 3), dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise StreamFormatError("stream rows must form an (N, 3) (kind, u, v) array")
    if rows.dtype.kind not in "iu":
        raise StreamFormatError(f"stream rows must be integers, not {rows.dtype}")
    rows = rows.astype(np.int64, copy=False)
    kind, u, v = rows[:, 0], rows[:, 1], rows[:, 2]
    bad = (u == v) | (u < 0) | (v < 0) | ((kind != 1) & (kind != -1))
    if bad.any():
        index = int(np.argmax(bad))
        row_kind, row_u, row_v = rows[index].tolist()
        if row_kind not in _KIND_OF:
            reason = f"update kind {row_kind} is neither +1 (insert) nor -1 (delete)"
        elif row_u == row_v:
            reason = f"self loop ({row_u}, {row_v}) is not a valid update"
        else:
            reason = f"negative node id in update ({row_u}, {row_v})"
        raise StreamFormatError(f"{where(index)}: {reason}")
    reversed_rows = u > v
    if reversed_rows.any():
        rows = rows.copy()
        rows[reversed_rows, 1], rows[reversed_rows, 2] = v[reversed_rows], u[reversed_rows]
    elif rows.flags.writeable:
        rows = rows.copy()
    rows.flags.writeable = False
    return rows


def _edges_after(rows: np.ndarray) -> Set[Edge]:
    """The edge set a run of canonical rows leaves behind.

    Replaying insert = add and delete = discard, an edge is live exactly
    when the last update that names it is an insertion.
    """
    if rows.shape[0] == 0:
        return set()
    kind, u, v = rows[:, 0], rows[:, 1], rows[:, 2]
    order = np.lexsort((v, u))  # stable: equal edges stay in stream order
    sorted_u, sorted_v = u[order], v[order]
    last = np.ones(order.size, dtype=bool)
    last[:-1] = (sorted_u[1:] != sorted_u[:-1]) | (sorted_v[1:] != sorted_v[:-1])
    live = order[last & (kind[order] == 1)]
    return set(zip(u[live].tolist(), v[live].tolist()))


class StreamUpdates(SequenceABC):
    """A stream's rows seen as a sequence of :class:`~repro.types.EdgeUpdate`.

    Objects are built when an element is asked for and not kept; a slice
    is another view of the same rows.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return StreamUpdates(self.rows[index])
        kind, u, v = self.rows[index].tolist()
        return EdgeUpdate(u, v, _KIND_OF[kind])

    def __iter__(self) -> Iterator[EdgeUpdate]:
        for start in range(0, self.rows.shape[0], _ITER_CHUNK_ROWS):
            for kind, u, v in self.rows[start : start + _ITER_CHUNK_ROWS].tolist():
                yield EdgeUpdate(u, v, _KIND_OF[kind])

    def __eq__(self, other) -> bool:
        if isinstance(other, StreamUpdates):
            return np.array_equal(self.rows, other.rows)
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"StreamUpdates({len(self)} updates)"


def _as_rows(updates) -> np.ndarray:
    if isinstance(updates, (GraphStream, StreamUpdates)):
        return updates.rows
    rows = update_rows(updates)
    rows.flags.writeable = False  # ours alone: canonical_rows need not copy it
    return rows


class GraphStream:
    """A finite stream of edge updates over ``num_nodes`` nodes.

    The stream is one read-only ``(N, 3)`` int64 array of
    ``(kind, u, v)`` rows (:attr:`rows`; kind ``+1`` inserts, ``-1``
    deletes, ``u < v``), 24 bytes per update -- the layout of the binary
    stream file, so reading one is a single ``frombuffer``.  Rows are
    checked and canonicalised once, at construction
    (:func:`canonical_rows`).  ``updates`` may be a sequence of
    :class:`~repro.types.EdgeUpdate` or (a slice of) another stream's
    :attr:`updates`, and :meth:`from_rows` takes the array itself;
    iterating or indexing builds ``EdgeUpdate`` objects on demand.
    ``final_edges()`` replays the stream to recover the edge set it
    defines (the set E_i after the last update), which tests use as
    ground truth.
    """

    def __init__(
        self,
        num_nodes: int,
        updates: Sequence[EdgeUpdate] = (),
        name: str = "stream",
    ) -> None:
        self.num_nodes = num_nodes
        self.name = name
        self._rows = canonical_rows(_as_rows(updates))

    @classmethod
    def from_rows(
        cls,
        num_nodes: int,
        rows,
        name: str = "stream",
        where: Callable[[int], str] = _row_label,
    ) -> "GraphStream":
        """A stream over ``(N, 3)`` ``(kind, u, v)`` rows.

        ``where`` names a row in the error raised for the first
        malformed one (see :func:`canonical_rows`).
        """
        return cls._over(num_nodes, canonical_rows(rows, where), name)

    @classmethod
    def _over(cls, num_nodes: int, rows: np.ndarray, name: str) -> "GraphStream":
        """Wrap rows that :func:`canonical_rows` already returned."""
        stream = cls.__new__(cls)
        stream.num_nodes = num_nodes
        stream.name = name
        stream._rows = rows
        return stream

    @property
    def rows(self) -> np.ndarray:
        """The read-only ``(N, 3)`` int64 ``(kind, u, v)`` array."""
        return self._rows

    @property
    def updates(self) -> StreamUpdates:
        """The stream as a sequence of ``EdgeUpdate`` (built on demand)."""
        return StreamUpdates(self._rows)

    def __iter__(self) -> Iterator[EdgeUpdate]:
        return iter(self.updates)

    def __len__(self) -> int:
        return self._rows.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphStream):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.name == other.name
            and np.array_equal(self._rows, other._rows)
        )

    __hash__ = None

    @property
    def num_updates(self) -> int:
        return len(self)

    def append(self, update: EdgeUpdate) -> None:
        self.extend([update])

    def extend(self, updates: Sequence[EdgeUpdate]) -> None:
        """Append updates; copies the stream once, so batch the calls."""
        rows = np.concatenate([self._rows, canonical_rows(_as_rows(updates))])
        rows.flags.writeable = False
        self._rows = rows

    def edge_array(self, start: int = 0) -> np.ndarray:
        """The stream's endpoints as an ``(N, 2)`` int64 array.

        Over Z_2 an insertion and a deletion are the same toggle, so the
        update-type column is not needed for sketch ingestion; this is
        the columnar input
        :meth:`~repro.core.graph_zeppelin.GraphZeppelin.ingest_batch`
        consumes.  The result is a read-only view of :attr:`rows`, not a
        copy.  ``start`` skips a stream prefix -- the resume path seeks
        to a snapshot's recorded offset and ingests only the remaining
        updates.
        """
        return self._rows[start:, 1:]

    def edge_array_chunks(
        self, chunk_size: int = 1 << 14, start: int = 0
    ) -> Iterator[np.ndarray]:
        """The stream as consecutive ``(chunk_size, 2)`` edge arrays.

        The input side of the sharded ingest pipeline
        (:meth:`~repro.parallel.graph_workers.ShardedIngestor.ingest_stream`):
        the producer partitions chunk ``k + 1`` while the shard workers
        fold chunk ``k``.  The final chunk may be shorter; chunks are
        views of the stream's one rows array, so iterating costs no
        copies.  ``start`` seeks past a stream prefix (resume from a
        snapshot offset).
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        array = self.edge_array(start=start)
        for position in range(0, array.shape[0], chunk_size):
            yield array[position : position + chunk_size]

    # ------------------------------------------------------------------
    def final_edges(self) -> Set[Edge]:
        """The edge set defined by the whole stream."""
        return _edges_after(self._rows)

    def edges_at(self, position: int) -> Set[Edge]:
        """The edge set defined by the stream prefix of length ``position``."""
        return _edges_after(self._rows[:position])

    def prefix(self, position: int, name: Optional[str] = None) -> "GraphStream":
        """A new stream consisting of the first ``position`` updates."""
        return self._over(
            self.num_nodes, self._rows[:position], name or f"{self.name}[:{position}]"
        )

    def suffix(self, position: int, name: Optional[str] = None) -> "GraphStream":
        """The stream from update ``position`` onward.

        The complement of :meth:`prefix`: a snapshot taken at stream
        offset ``k`` resumes by ingesting ``suffix(k)``, and
        ``prefix(k)`` + ``suffix(k)`` replay the whole stream.
        """
        return self._over(
            self.num_nodes, self._rows[position:], name or f"{self.name}[{position}:]"
        )

    def counts(self) -> Tuple[int, int]:
        """``(num_insertions, num_deletions)`` in the stream."""
        inserts = int(np.count_nonzero(self._rows[:, 0] == 1))
        return inserts, len(self) - inserts

    def checkpoints(self, every_fraction: float = 0.1) -> List[int]:
        """Stream positions at every ``every_fraction`` of its length.

        The query-latency experiment (Figure 16) issues a connectivity
        query at each of these positions.
        """
        if not 0 < every_fraction <= 1:
            raise ValueError("every_fraction must be in (0, 1]")
        step = max(1, int(len(self) * every_fraction))
        positions = list(range(step, len(self) + 1, step))
        if positions and positions[-1] != len(self):
            positions.append(len(self))
        return positions

    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: Sequence[Edge], name: str = "insert-only"
    ) -> "GraphStream":
        """An insert-only stream that simply inserts each edge once."""
        pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        rows = np.ones((pairs.shape[0], 3), dtype=np.int64)
        rows[:, 1:] = pairs
        return cls.from_rows(num_nodes, rows, name=name)

    def __repr__(self) -> str:
        inserts, deletes = self.counts()
        return (
            f"GraphStream(name={self.name!r}, num_nodes={self.num_nodes}, "
            f"updates={len(self)} [{inserts} ins / {deletes} del])"
        )
