"""Input generators of the four benchmark workloads.

Pure numpy and driven only by the workload seed: nothing here imports
the program under test, which only ever receives the arrays (or the
stream file) these functions produce.  Every generator is vectorised so
set-up never builds per-edge Python objects.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import List, Tuple

import numpy as np

#: Layout of the program's binary stream format (``repro.streaming.io``):
#: a ``<IIQ`` header (magic "GZST", node count, update count) followed by
#: one little-endian int64 triple ``(kind, u, v)`` per update, kind = +1
#: for an insertion and -1 for a deletion.
STREAM_MAGIC = 0x475A5354
_STREAM_HEADER = struct.Struct("<IIQ")

#: Graph500 initiator, shared by the R-MAT and the Kronecker generator.
RMAT_INITIATOR = (0.57, 0.19, 0.19, 0.05)

# popcount of every 16-bit value (node ids stay below 2**16 here).
_POPCOUNT16 = (
    np.unpackbits(np.arange(1 << 16, dtype=">u2").view(np.uint8))
    .reshape(-1, 16)
    .sum(axis=1)
    .astype(np.int64)
)


def uniform_edges(rng: np.random.Generator, num_nodes: int, num_edges: int) -> np.ndarray:
    """``num_edges`` uniform random node pairs (G(n, m) with rare repeats).

    A repeated pair is a second toggle of the same edge; the oracle
    tracks toggle parity, so repeats are legal input.
    """
    u = rng.integers(0, num_nodes, num_edges)
    v = (u + 1 + rng.integers(0, num_nodes - 1, num_edges)) % num_nodes
    return np.stack([u, v], axis=1)


def community_edges(
    rng: np.random.Generator, num_nodes: int, community_size: int, num_edges: int
) -> np.ndarray:
    """Random edges whose endpoints share a community of consecutive ids."""
    communities = num_nodes // community_size
    base = rng.integers(0, communities, num_edges) * community_size
    a = rng.integers(0, community_size, num_edges)
    b = (a + 1 + rng.integers(0, community_size - 1, num_edges)) % community_size
    return np.stack([base + a, base + b], axis=1)


def bridge_steps(
    rng: np.random.Generator,
    num_nodes: int,
    community_size: int,
    steps: int,
    per_step: int,
    window: int,
) -> List[np.ndarray]:
    """Per-step deltas of a sliding window of inter-community bridges.

    Step ``t`` inserts ``per_step`` fresh bridges and deletes the ones
    inserted at step ``t - window``, so ``window * per_step`` bridges
    are live in the steady state.
    """
    communities = num_nodes // community_size
    cu = rng.integers(0, communities, (steps, per_step))
    cv = (cu + 1 + rng.integers(0, communities - 1, (steps, per_step))) % communities
    u = cu * community_size + rng.integers(0, community_size, (steps, per_step))
    v = cv * community_size + rng.integers(0, community_size, (steps, per_step))
    fresh = np.stack([u, v], axis=2)
    return [
        fresh[t] if t < window else np.concatenate([fresh[t], fresh[t - window]])
        for t in range(steps)
    ]


def rmat_edges(
    rng: np.random.Generator,
    scale: int,
    num_edges: int,
    initiator: Tuple[float, float, float, float] = RMAT_INITIATOR,
) -> np.ndarray:
    """``num_edges`` R-MAT node pairs over ``2**scale`` nodes, no self loops.

    Ids are left unscrambled, so the hot nodes -- and with them the hot
    sketch pages -- sit together at the low end of the id range.
    """
    a, b, c, _ = initiator
    draw = num_edges + num_edges // 8 + 64  # head-room for dropped self loops
    u = np.zeros(draw, dtype=np.int64)
    v = np.zeros(draw, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(draw)
        u = (u << 1) | (r >= a + b)
        v = (v << 1) | (((r >= a) & (r < a + b)) | (r >= a + b + c))
    keep = u != v
    edges = np.stack([u[keep], v[keep]], axis=1)[:num_edges]
    if edges.shape[0] != num_edges:
        raise RuntimeError("R-MAT draw produced too many self loops")
    return edges


def kronecker_edges(
    rng: np.random.Generator,
    scale: int,
    density: float,
    initiator: Tuple[float, float, float, float] = RMAT_INITIATOR,
) -> np.ndarray:
    """A dense stochastic Kronecker graph: one Bernoulli draw per slot.

    Slot ``(u, v)`` has weight ``a^z * b^m * d^o`` with ``z``/``m``/``o``
    the bit positions where both ids are 0 / differ / are both 1 (the
    ``scale``-th Kronecker power of the symmetrised initiator); weights
    are scaled by a common factor, found by bisection, so the clipped
    probabilities average ``density``.  Returns canonical ``u < v`` rows.
    """
    a, b, _, d = initiator
    u, v = np.triu_indices(1 << scale, k=1)
    ones = _POPCOUNT16[u & v]
    mixed = _POPCOUNT16[u ^ v]
    log_weight = (scale - ones - mixed) * np.log(a) + mixed * np.log(b) + ones * np.log(d)
    lo, hi = -60.0, 60.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.minimum(1.0, np.exp(log_weight + mid)).mean() < density:
            lo = mid
        else:
            hi = mid
    keep = rng.random(u.size) < np.minimum(1.0, np.exp(log_weight + hi))
    return np.stack([u[keep], v[keep]], axis=1).astype(np.int64)


def stream_conversion(
    rng: np.random.Generator,
    num_nodes: int,
    edges: np.ndarray,
    churn_share: float,
    reinsert_share: float,
    disconnected: int,
) -> np.ndarray:
    """The paper's graph-to-stream rules as an ``(N, 3)`` ``(kind, u, v)`` array.

    * ``disconnected`` random nodes end isolated: their edges are
      inserted and later deleted;
    * every other graph edge is inserted, and a ``reinsert_share`` of
      them is additionally deleted and re-inserted;
    * ``churn_share * |edges|`` non-edges are inserted and later deleted.

    Events get uniform random times; an edge's own events keep their
    order, so every prefix of the stream is a legal update sequence.
    """
    isolated = np.zeros(num_nodes, dtype=bool)
    isolated[rng.choice(num_nodes, size=disconnected, replace=False)] = True
    transient = isolated[edges[:, 0]] | isolated[edges[:, 1]]

    codes = edges[:, 0] * num_nodes + edges[:, 1]
    want = int(churn_share * edges.shape[0])
    cu = rng.integers(0, num_nodes, 2 * want + 64)
    cv = rng.integers(0, num_nodes, 2 * want + 64)
    lo, hi = np.minimum(cu, cv), np.maximum(cu, cv)
    fresh = (lo != hi) & ~np.isin(lo * num_nodes + hi, codes)
    churn = np.unique(np.stack([lo[fresh], hi[fresh]], axis=1), axis=0)
    churn = churn[rng.permutation(churn.shape[0])[:want]]

    pairs = np.concatenate([edges, churn])
    events = np.ones(pairs.shape[0], dtype=np.int64)
    events[: edges.shape[0]][rng.random(edges.shape[0]) < reinsert_share] = 3
    events[: edges.shape[0]][transient] = 2
    events[edges.shape[0] :] = 2

    times = np.sort(rng.random((pairs.shape[0], 3)), axis=1)
    live = np.arange(3)[None, :] < events[:, None]
    kinds = np.broadcast_to(np.array([1, -1, 1], dtype=np.int64), live.shape)
    order = np.argsort(times[live], kind="stable")
    rows = np.nonzero(live)[0][order]
    return np.column_stack([kinds[live][order], pairs[rows]])


def write_stream_file(path: Path, num_nodes: int, updates: np.ndarray) -> None:
    """Write ``(kind, u, v)`` rows in the program's binary stream layout."""
    with open(path, "wb") as handle:
        handle.write(_STREAM_HEADER.pack(STREAM_MAGIC, num_nodes, updates.shape[0]))
        handle.write(np.ascontiguousarray(updates, dtype="<i8").tobytes())
