"""The reliability experiment (Section 6.3), and the gate on the geometry.

GraphZeppelin's connectivity answers are correct only with high
probability.  The paper compares its answers against an exact reference
at thousands of checkpoints and observes zero failures.  This module
runs the same check at a scale that bounds the failure rate:

* every stream goes through :meth:`GraphZeppelin.ingest_batch`, the
  columnar path the engine really uses, and each query is one
  :meth:`~GraphZeppelin.list_spanning_forest`;
* the reference is exact over the **toggle-parity** edge set -- a pair
  is present iff it appears an odd number of times, which is what the
  sketch encodes (a set-union reference calls a correct answer wrong on
  any stream that repeats a pair);
* an answer is *incomplete* when Boruvka ran out of rounds (the engine
  flags it), and *wrong* when it claims to be complete but its
  partition differs from the reference or it holds an edge the graph
  does not;
* :func:`run_reliability` repeats one query per seed over graph
  :data:`FAMILIES`, chosen for the shapes that use the most Boruvka
  rounds (long paths, bridges between communities) or stress
  cancellation (churn, R-MAT skew with deletions as first-class
  updates), and reports per (columns, family) the per-sample failure
  rate, a rounds-used histogram, and the incomplete and wrong counts
  with one-sided Clopper-Pearson 95 % upper bounds.

The node-sketch column rule (:func:`repro.sketch.geometry.node_sketch_columns`)
is certified by this harness: ``benchmarks/bench_sec63_reliability.py``
drives it, and ``python benchmarks/bench_sec63_reliability.py --seeds
300`` exits non-zero on any wrong answer or on an incomplete-rate bound
above ``delta``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import GraphZeppelinConfig
from repro.core.dsu import DisjointSetUnion
from repro.core.graph_zeppelin import GraphZeppelin
from repro.streaming.stream import GraphStream

#: A family builds a stream of ``(N, 2)`` edge toggles over ``num_nodes``
#: nodes from a seeded generator.
Family = Callable[[int, np.random.Generator], np.ndarray]


def clopper_pearson_upper(successes: int, trials: int, confidence: float = 0.95) -> float:
    """One-sided Clopper-Pearson upper bound on a binomial rate.

    The ``p`` at which seeing ``successes`` or fewer in ``trials`` has
    probability ``1 - confidence``; ``1 - 0.05 ** (1 / trials)`` for 0
    successes, so 299 clean trials bound the rate below 1/100.
    """
    if trials <= 0:
        return 1.0
    if successes >= trials:
        return 1.0
    tail = 1.0 - confidence
    if successes == 0:
        return 1.0 - tail ** (1.0 / trials)

    def cdf(p: float) -> float:
        log_p, log_q = math.log(p), math.log1p(-p)
        return sum(
            math.exp(
                math.lgamma(trials + 1)
                - math.lgamma(k + 1)
                - math.lgamma(trials - k + 1)
                + k * log_p
                + (trials - k) * log_q
            )
            for k in range(successes + 1)
        )

    low, high = successes / trials, 1.0
    for _ in range(60):  # the CDF falls in p: bisect for cdf(p) == tail
        mid = (low + high) / 2
        if cdf(mid) > tail:
            low = mid
        else:
            high = mid
    return high


# ----------------------------------------------------------------------
# the exact reference
# ----------------------------------------------------------------------
def parity_edges(num_nodes: int, edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` of every pair toggled an odd number of times."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    keys, counts = np.unique(lo * num_nodes + hi, return_counts=True)
    odd = keys[counts % 2 == 1]
    return odd // num_nodes, odd % num_nodes


def exact_labels(num_nodes: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A component label per node of the graph with edges ``(lo, hi)``."""
    dsu = DisjointSetUnion(num_nodes)
    dsu.add_edges(zip(lo.tolist(), hi.tolist()))
    return np.asarray(dsu.component_labels(), dtype=np.int64)


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two label arrays group the nodes identically."""
    pairs = np.unique(np.stack([a, b], axis=1), axis=0).shape[0]
    return pairs == np.unique(a).size == np.unique(b).size


def answer_is_right(forest, num_nodes: int, lo: np.ndarray, hi: np.ndarray) -> bool:
    """The forest's partition is the reference's, and each of its edges exists."""
    present = set((lo * num_nodes + hi).tolist())
    forest_edges = forest.edge_array
    keys = (forest_edges.min(axis=1) * num_nodes + forest_edges.max(axis=1)).tolist()
    return all(key in present for key in keys) and same_partition(
        np.asarray(forest.labels), exact_labels(num_nodes, lo, hi)
    )


# ----------------------------------------------------------------------
# graph families
# ----------------------------------------------------------------------
def _uniform(num_nodes: int, count: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.integers(0, num_nodes, count)
    v = (u + 1 + rng.integers(0, num_nodes - 1, count)) % num_nodes
    return np.stack([u, v], axis=1)


def _path(nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    edges = np.stack([nodes[:-1], nodes[1:]], axis=1)
    return edges[rng.permutation(edges.shape[0])]


def _rmat(num_nodes: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """R-MAT pairs (a, b, c = 0.57, 0.19, 0.19): a few hubs, a long tail."""
    scale = max(1, math.ceil(math.log2(num_nodes)))
    u = np.zeros(count, dtype=np.int64)
    v = np.zeros(count, dtype=np.int64)
    for _ in range(scale):
        draw = rng.random(count)
        u = 2 * u + (draw >= 0.76)  # quadrants c and d
        v = 2 * v + (((draw >= 0.57) & (draw < 0.76)) | (draw >= 0.95))  # b and d
    u, v = u % num_nodes, v % num_nodes
    keep = u != v
    return np.stack([u[keep], v[keep]], axis=1)


def family_path(num_nodes: int, rng: np.random.Generator) -> np.ndarray:
    """A Hamiltonian path: one component, the most Boruvka rounds."""
    return _path(rng.permutation(num_nodes), rng)


def family_uniform_sparse(num_nodes: int, rng: np.random.Generator) -> np.ndarray:
    """``n / 2`` uniform pairs: many small trees and singletons."""
    return _uniform(num_nodes, num_nodes // 2, rng)


def family_uniform_dense(num_nodes: int, rng: np.random.Generator) -> np.ndarray:
    """``4 n`` uniform pairs: one giant component, repeated pairs cancel."""
    return _uniform(num_nodes, 4 * num_nodes, rng)


def family_churn(num_nodes: int, rng: np.random.Generator) -> np.ndarray:
    """``10 n`` insertions, then 95 % of them deleted again."""
    inserts = _uniform(num_nodes, 10 * num_nodes, rng)
    deletes = inserts[rng.permutation(inserts.shape[0])[: inserts.shape[0] * 95 // 100]]
    return np.concatenate([inserts, deletes])


def family_half_path(num_nodes: int, rng: np.random.Generator) -> np.ndarray:
    """A path over half the nodes; the other half stay singletons."""
    return _path(rng.permutation(num_nodes)[: num_nodes // 2], rng)


def family_communities(num_nodes: int, rng: np.random.Generator) -> np.ndarray:
    """20-node communities (a path plus 20 chords each) joined in a path
    by single bridges."""
    order = rng.permutation(num_nodes)
    position = np.arange(num_nodes)
    start = position - position % 20
    size = np.minimum(20, num_nodes - start)
    partner = order[start + rng.integers(0, size)]
    chords = np.stack([order, partner], axis=1)
    chords = chords[chords[:, 0] != chords[:, 1]]
    edges = np.concatenate([np.stack([order[:-1], order[1:]], axis=1), chords])
    return edges[rng.permutation(edges.shape[0])]


def family_star(num_nodes: int, rng: np.random.Generator) -> np.ndarray:
    """One hub adjacent to every other node."""
    hub = int(rng.integers(0, num_nodes))
    others = np.delete(np.arange(num_nodes), hub)
    return np.stack([np.full(others.size, hub), others], axis=1)[rng.permutation(others.size)]


def family_rmat_churn(num_nodes: int, rng: np.random.Generator) -> np.ndarray:
    """Contest-style skew: ``4 n`` R-MAT insertions, then half of them
    deleted, interleaved with ``n`` further insertions."""
    inserts = _rmat(num_nodes, 4 * num_nodes, rng)
    deletes = inserts[rng.permutation(inserts.shape[0])[: inserts.shape[0] // 2]]
    tail = np.concatenate([deletes, _rmat(num_nodes, num_nodes, rng)])
    return np.concatenate([inserts, tail[rng.permutation(tail.shape[0])]])


FAMILIES: Dict[str, Family] = {
    "path": family_path,
    "uniform_n/2": family_uniform_sparse,
    "uniform_4n": family_uniform_dense,
    "churn_10n_to_5%": family_churn,
    "half_path": family_half_path,
    "communities_20": family_communities,
    "star": family_star,
    "rmat_churn": family_rmat_churn,
}


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------
@dataclass
class ReliabilityCell:
    """The outcome of every query of one family at one geometry."""

    family: str
    num_nodes: int
    delta: float
    columns: int
    rounds: int
    queries: int = 0
    incomplete: int = 0
    wrong: int = 0
    samples: int = 0
    failed_samples: int = 0
    rounds_used: Counter = field(default_factory=Counter)

    @property
    def sample_failure_rate(self) -> float:
        return self.failed_samples / self.samples if self.samples else 0.0

    @property
    def incomplete_upper(self) -> float:
        return clopper_pearson_upper(self.incomplete, self.queries)

    @property
    def wrong_upper(self) -> float:
        return clopper_pearson_upper(self.wrong, self.queries)

    @property
    def certified(self) -> bool:
        """No wrong answer, and the incomplete-rate bound within ``delta``."""
        return self.wrong == 0 and self.incomplete_upper <= self.delta

    def row(self) -> Dict[str, str]:
        """One row for :func:`~repro.analysis.tables.render_table`."""
        histogram = " ".join(f"{r}:{n}" for r, n in sorted(self.rounds_used.items()))
        return {
            "family": self.family,
            "cols": str(self.columns),
            "queries": str(self.queries),
            "sample fail": f"{self.sample_failure_rate:.4f}",
            "rounds used": f"{histogram} (of {self.rounds})",
            "incomplete": f"{self.incomplete} (<= {self.incomplete_upper:.4f})",
            "wrong": f"{self.wrong} (<= {self.wrong_upper:.4f})",
        }


def run_reliability(
    num_nodes: int = 2048,
    seeds: Iterable[int] = range(300),
    deltas: Sequence[float] = (0.01,),
    families: Optional[Dict[str, Family]] = None,
) -> List[ReliabilityCell]:
    """One query per (delta, family, seed), each checked exactly.

    Seed ``s`` fixes both the family's stream and the engine's hash
    functions, so a cell is reproducible and its queries independent.
    """
    families = FAMILIES if families is None else families
    seeds = list(seeds)
    cells = []
    for delta in deltas:
        for index, (name, build) in enumerate(families.items()):
            cell = None
            for seed in seeds:
                edges = build(num_nodes, np.random.default_rng([index, seed]))
                config = GraphZeppelinConfig(delta=delta, seed=seed)
                engine = GraphZeppelin(num_nodes, config)
                if cell is None:
                    geometry = engine.geometry
                    cell = ReliabilityCell(
                        name, num_nodes, delta, geometry.columns, geometry.rounds
                    )
                engine.ingest_batch(edges)
                forest = engine.list_spanning_forest()
                stats = engine.last_query_stats
                cell.queries += 1
                cell.samples += stats.component_queries
                cell.failed_samples += stats.failed_samples
                cell.rounds_used[stats.rounds_used] += 1
                if not forest.complete:
                    cell.incomplete += 1
                elif not answer_is_right(forest, num_nodes, *parity_edges(num_nodes, edges)):
                    cell.wrong += 1
            cells.append(cell)
    return cells


# ----------------------------------------------------------------------
# checkpoints along one stream
# ----------------------------------------------------------------------
@dataclass
class ReliabilityResult:
    """Aggregate outcome of a batch of correctness checks on one stream."""

    stream_name: str
    num_nodes: int
    checks: int = 0
    failures: int = 0
    incomplete_forests: int = 0
    mismatched_checkpoints: List[int] = field(default_factory=list)

    @property
    def failure_rate(self) -> float:
        return self.failures / self.checks if self.checks else 0.0

    @property
    def all_correct(self) -> bool:
        return self.failures == 0


def run_reliability_trials(
    stream: GraphStream,
    num_checkpoints: int = 10,
    trials: int = 1,
    base_seed: int = 0,
    config: Optional[GraphZeppelinConfig] = None,
) -> ReliabilityResult:
    """Query at evenly spaced stream positions, each checked exactly.

    Each of ``trials`` engines (seed ``base_seed + t``; the rest of
    ``config`` kept) ingests the stream in :meth:`ingest_batch` slices
    between ``num_checkpoints`` positions and is queried at each.  A
    check fails when the partition differs from the toggle-parity
    reference's (incomplete answers are counted, and fail only if
    their partition is wrong).
    """
    result = ReliabilityResult(stream_name=stream.name, num_nodes=stream.num_nodes)
    checkpoints = stream.checkpoints(1.0 / max(num_checkpoints, 1))
    edges = stream.edge_array()
    base = config or GraphZeppelinConfig()
    for trial in range(trials):
        engine = GraphZeppelin(stream.num_nodes, config=replace(base, seed=base_seed + trial))
        position = 0
        for checkpoint in checkpoints:
            engine.ingest_batch(edges[position:checkpoint])
            position = checkpoint
            result.checks += 1
            forest = engine.list_spanning_forest()
            if not forest.complete:
                result.incomplete_forests += 1
            lo, hi = parity_edges(stream.num_nodes, edges[:checkpoint])
            if not same_partition(
                np.asarray(forest.labels), exact_labels(stream.num_nodes, lo, hi)
            ):
                result.failures += 1
                result.mismatched_checkpoints.append(checkpoint)
    return result
