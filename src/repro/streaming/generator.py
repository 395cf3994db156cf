"""Converting a static graph into a dynamic insert/delete stream.

Section 6.1 of the paper turns each static input graph into a random
stream of edge insertions and deletions with four guarantees:

(i)   an insertion of edge ``e`` always occurs before a deletion of ``e``,
(ii)  an edge never receives two consecutive updates of the same type,
(iii) a small set of nodes (fewer than 150) is disconnected from the
      rest of the graph so the final graph has non-trivial components,
(iv)  by the end of the stream exactly the input graph remains (minus
      the edges removed to satisfy (iii)).

The conversion deliberately inserts *extra* edges that are not part of
the input graph, as long as they are deleted again before the stream
ends -- this is what makes deletions a first-class part of the
workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set

import numpy as np

from repro.exceptions import GraphGenerationError
from repro.streaming.stream import GraphStream
from repro.types import Edge, canonical_edge


@dataclass(frozen=True)
class StreamConversionSettings:
    """Knobs of the graph-to-stream conversion.

    Attributes
    ----------
    churn_fraction:
        Fraction of the input edge count added as extra insert+delete
        churn pairs (edges not in the final graph).
    disconnect_nodes:
        Number of nodes to isolate from the final graph (paper: fewer
        than 150); clamped to leave at least two connected nodes.
    reinsert_fraction:
        Fraction of the *kept* edges that are additionally deleted and
        re-inserted mid-stream (exercising rule (ii) without changing
        the final graph).
    seed:
        Seed of the permutation and churn randomness.
    """

    churn_fraction: float = 0.1
    disconnect_nodes: int = 8
    reinsert_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.churn_fraction < 0 or self.reinsert_fraction < 0:
            raise GraphGenerationError("churn/reinsert fractions must be non-negative")
        if self.disconnect_nodes < 0:
            raise GraphGenerationError("disconnect_nodes must be non-negative")


def graph_to_stream(
    num_nodes: int,
    edges: Sequence[Edge],
    settings: StreamConversionSettings | None = None,
    name: str = "stream",
) -> GraphStream:
    """Convert a static edge list into a randomised insert/delete stream.

    The returned stream satisfies guarantees (i)-(iv) above; its final
    edge set equals ``edges`` minus every edge incident to the nodes
    chosen for disconnection.
    """
    settings = settings or StreamConversionSettings()
    rng = np.random.default_rng(settings.seed)
    canonical = _canonicalise(edges)

    # (iii) choose nodes to disconnect; every edge touching them is
    # inserted and later deleted, so they end the stream isolated.
    num_disconnect = min(settings.disconnect_nodes, max(num_nodes - 2, 0))
    disconnected = set(
        int(node) for node in rng.choice(num_nodes, size=num_disconnect, replace=False)
    ) if num_disconnect else set()

    kept_edges: List[Edge] = []
    removed_edges: List[Edge] = []
    for edge in canonical:
        if edge[0] in disconnected or edge[1] in disconnected:
            removed_edges.append(edge)
        else:
            kept_edges.append(edge)

    # Extra churn edges: sampled uniformly from slots not in the input
    # graph; inserted and deleted again before the stream ends.
    churn_edges = _sample_absent_edges(
        num_nodes, set(canonical), int(len(canonical) * settings.churn_fraction), rng
    )

    # Kept edges selected for a delete + re-insert cycle.
    num_reinsert = int(len(kept_edges) * settings.reinsert_fraction)
    reinsert_positions = (
        rng.choice(len(kept_edges), size=num_reinsert, replace=False)
        if num_reinsert
        else np.empty(0, dtype=np.int64)
    )

    # One update sequence per edge -- insert, delete, insert, ... -- of
    # length 1 for a kept edge (3 when it also gets the delete +
    # re-insert cycle) and 2 for every removed or churn edge, interleaved
    # randomly while preserving each edge's internal order (which is
    # what guarantees (i) and (ii)).
    sequence_edges = np.array(
        kept_edges + removed_edges + churn_edges, dtype=np.int64
    ).reshape(-1, 2)
    lengths = np.full(sequence_edges.shape[0], 2, dtype=np.int64)
    lengths[: len(kept_edges)] = 1
    lengths[reinsert_positions] = 3
    return GraphStream.from_rows(
        num_nodes, _interleave(sequence_edges, lengths, rng), name=name
    )


# ----------------------------------------------------------------------
def _canonicalise(edges: Sequence[Edge]) -> List[Edge]:
    seen: Set[Edge] = set()
    result: List[Edge] = []
    for u, v in edges:
        edge = canonical_edge(u, v)
        if edge not in seen:
            seen.add(edge)
            result.append(edge)
    return result


def _sample_absent_edges(
    num_nodes: int, present: Set[Edge], count: int, rng: np.random.Generator
) -> List[Edge]:
    """Sample ``count`` distinct edges not present in the input graph."""
    max_edges = num_nodes * (num_nodes - 1) // 2
    count = min(count, max(0, max_edges - len(present)))
    absent: List[Edge] = []
    chosen: Set[Edge] = set()
    attempts = 0
    while len(absent) < count and attempts < 50 * (count + 1):
        attempts += 1
        u = int(rng.integers(0, num_nodes))
        v = int(rng.integers(0, num_nodes))
        if u == v:
            continue
        edge = canonical_edge(u, v)
        if edge in present or edge in chosen:
            continue
        chosen.add(edge)
        absent.append(edge)
    return absent


def _interleave(
    edges: np.ndarray, lengths: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Randomly interleave per-edge sequences into ``(kind, u, v)`` rows.

    Sequence ``s`` is ``lengths[s]`` updates of ``edges[s]`` alternating
    insert, delete, insert, ...; each sequence's order is preserved.
    """
    # One tag per update naming its sequence, shuffled; the k-th
    # occurrence of a tag is that sequence's k-th update.
    tags = np.repeat(np.arange(lengths.size), lengths)
    rng.shuffle(tags)
    order = np.argsort(tags, kind="stable")
    occurrence = np.empty(tags.size, dtype=np.int64)
    occurrence[order] = np.arange(tags.size) - (np.cumsum(lengths) - lengths)[tags[order]]
    rows = np.empty((tags.size, 3), dtype=np.int64)
    rows[:, 0] = 1 - 2 * (occurrence & 1)
    rows[:, 1:] = edges[tags]
    return rows
