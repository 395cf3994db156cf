"""Sketch-based Boruvka: recover a spanning forest from cut samplers.

The driver is written against a tiny abstraction -- a callable that,
given a Boruvka round and the member nodes of a component, returns an
l0 sample of the component's cut vector -- so the same algorithm runs
on top of GraphZeppelin's CubeSketches, the StreamingCC baseline's
general-purpose sketches, and the exact (adjacency matrix) oracle used
in tests.

Each round queries every active component once, using that round's
independent sketches; sampled edges that join two distinct components
are added to the forest and the components merged.  The loop ends when
no component yields a new edge (all remaining cuts are empty) or when
the provisioned number of rounds is exhausted, in which case the result
is flagged incomplete (the paper's asymptotically-small failure case).

The driver works a whole round at a time.  :func:`vectorized_spanning_forest`
runs one :class:`RoundQuery` per query over a batched sampler: one
sampler call per round, then the round tail -- validate and decode the
samples, union-find, relabel -- through :func:`round_tail`.  Over a
tensor pool, :func:`pool_spanning_forest` runs the query the pool's
kernel provider binds: the numpy provider's is a :class:`RoundQuery`
sampling the pool, the compiled one's runs the same rounds in C (one
call for every round of an in-RAM pool, one per round of a paged one);
both stop under :func:`run_rounds`.  A per-component sampler runs under
the driver through :func:`batch_sampler_from_scalar`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.edge_encoding import EdgeEncoder
from repro.core.spanning_forest import SpanningForest
from repro.exceptions import ConnectivityError
from repro.observability.metrics import default_registry
from repro.observability.tracing import span
from repro.sketch.flat_node_sketch import group_nodes_by_label
from repro.sketch.sketch_base import (
    SAMPLE_FAIL,
    SAMPLE_GOOD,
    SAMPLE_ZERO,
    SampleOutcome,
    SampleResult,
)

#: Signature of the per-component cut sampler: (round, member nodes) -> sample.
CutSampler = Callable[[int, Sequence[int]], SampleResult]

#: Signature of the whole-round cut sampler: (round, per-node component
#: labels, active-node mask) -> (component roots ascending, status codes,
#: sampled edge slots).  This is what the vectorized driver consumes; the
#: tensor pool implements it as one segmented XOR-reduce per round.
BatchCutSampler = Callable[
    [int, np.ndarray, Optional[np.ndarray]],
    Tuple[np.ndarray, np.ndarray, np.ndarray],
]


@dataclass
class BoruvkaStats:
    """Bookkeeping produced by one run of the sketch Boruvka algorithm."""

    rounds_used: int = 0
    component_queries: int = 0
    good_samples: int = 0
    zero_samples: int = 0
    failed_samples: int = 0
    invalid_samples: int = 0
    merges: int = 0
    per_round_merges: List[int] = field(default_factory=list)


def _count(name: str, amount: int = 1) -> None:
    """Add ``amount`` to the registry counter ``name`` (skipped when disabled)."""
    registry = default_registry()
    if registry.enabled and amount:
        registry.counter(name).inc(amount)


def batch_sampler_from_scalar(cut_sampler: CutSampler) -> BatchCutSampler:
    """Adapt a per-component :data:`CutSampler` to the batched signature.

    Groups nodes by component label with one argsort (no per-merge list
    concatenation) and calls the scalar sampler once per segment, so a
    sampler without a whole-round kernel (the StreamingCC baseline, a
    test's per-component reference sampler) still runs under the array
    driver.
    Member lists are passed in ascending node order; every sampler in
    the tree XOR-folds or sums its members, so the order cannot change
    the sample.
    """

    def batch(
        round_index: int,
        labels: np.ndarray,
        node_mask: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        sorted_nodes, seg_starts, roots = group_nodes_by_label(
            np.asarray(labels), node_mask
        )
        if roots.size == 0:
            return roots, np.empty(0, dtype=np.uint8), roots.copy()
        seg_ends = np.append(seg_starts[1:], sorted_nodes.size)
        statuses = np.empty(roots.size, dtype=np.uint8)
        indices = np.full(roots.size, -1, dtype=np.int64)
        for position, (start, end) in enumerate(zip(seg_starts, seg_ends)):
            result = cut_sampler(round_index, sorted_nodes[start:end].tolist())
            if result.outcome is SampleOutcome.GOOD:
                statuses[position] = SAMPLE_GOOD
                indices[position] = result.index
            elif result.outcome is SampleOutcome.ZERO:
                statuses[position] = SAMPLE_ZERO
            else:
                statuses[position] = SAMPLE_FAIL
        return roots, statuses, indices

    return batch


#: A query's ``counts`` after a round tail: that round's tallies, then all its merges.
ZEROS, FAILS, GOODS, INVALID, MERGES, MERGED = range(6)


def run_rounds(num_nodes: int, num_rounds: int, step: Callable[[int], list]) -> List[list]:
    """Call ``step(round)`` for rounds 0, 1, ... while fewer than ``num_rounds``
    ran, more than one component is left and the last round merged or failed
    (a failed sample says nothing about the cut being empty, so it is retried
    in a fresh round); the rule is checked before a round is read.  Returns
    the rows ``step`` returned, each one round's ``counts[:MERGED]``."""
    table: List[list] = []
    components, found_edge = num_nodes, True
    for round_index in range(num_rounds):
        if components < 2 or not found_edge:
            break
        row = step(round_index)
        table.append(row)
        components -= row[MERGES]
        found_edge = row[MERGES] > 0 or row[FAILS] > 0
    return table


class RoundQuery:
    """One query's per-node state and its Boruvka rounds, in numpy.

    A round samples the components of ``labels`` with an ``active`` node
    in one :data:`BatchCutSampler` call (the numpy provider's bound query
    wraps a tensor pool's ``query_components``), then runs
    :func:`round_tail` over them; :meth:`run` steps the rounds.  Fresh
    per query: the forest adopts ``labels`` without copying.
    """

    def __init__(self, num_nodes: int, encoder: EdgeEncoder, sampler: BatchCutSampler) -> None:
        self._sampler = sampler
        self.encoder = encoder
        self.labels = np.arange(num_nodes, dtype=np.int64)
        # settled[r] for a current component root r: its cut has been
        # observed empty, so it is skipped until (and unless) another
        # component's sampled edge merges into it.
        self.settled = np.zeros(num_nodes, dtype=bool)
        self.active = np.ones(num_nodes, dtype=bool)
        self.edges = np.empty((2, num_nodes), dtype=np.int64)
        self.counts = np.zeros(MERGED + 1, dtype=np.int64)
        # lists: round_tail's loop indexes them per edge
        self.parent, self.size = list(range(num_nodes)), [1] * num_nodes

    def run(self, num_rounds: int) -> List[List[int]]:
        """The rounds :func:`run_rounds` allows: one ``counts[:MERGED]`` row each."""
        return run_rounds(self.labels.size, num_rounds, self._round)

    def _round(self, round_index: int) -> List[int]:
        with span("query.round"):
            sample = self._sampler(round_index, self.labels, self.active)
            with span("query.unionfind"):
                round_tail(self, *sample)
        return self.counts[:MERGED].tolist()


def round_tail(
    query: RoundQuery, roots: np.ndarray, statuses: np.ndarray, indices: np.ndarray
) -> None:
    """Settle, validate, decode, union and relabel one round of ``query`` (numpy).

    ZERO roots are settled; GOOD slots are validated and decoded by the
    query's :class:`EdgeEncoder` (an invalid one is a corrupted bucket
    that slipped past its checksum: counted, ignored).  Unions are by
    size, ties keeping ``u``'s root, **without** path compression (the
    trees stay logarithmically shallow).  Writes the labels, the next
    round's ``active`` mask, the merging edges (appended to ``edges`` in
    merge order) and the ``counts``; the native round tail is its twin.
    """
    parent, size, settled, labels = query.parent, query.size, query.settled, query.labels
    zero = statuses == SAMPLE_ZERO
    settled[roots[zero]] = True
    good_indices = indices[statuses == SAMPLE_GOOD]
    valid = query.encoder.valid_index_mask(good_indices)
    sampled_u, sampled_v = query.encoder.decode_endpoints(good_indices[valid])
    num_nodes = labels.size
    # Samples the merge loop would skip untouched are dropped vectorised
    # first: an edge inside one pre-round component, and re-occurrences
    # of an edge two components sampled from both sides (the first union
    # makes the second a no-op; if the first is skipped so is the second).
    crossing = labels[sampled_u] != labels[sampled_v]
    sampled_u = sampled_u[crossing]
    sampled_v = sampled_v[crossing]
    pair_keys = sampled_u * num_nodes + sampled_v  # any injective key would do
    keep = np.sort(np.unique(pair_keys, return_index=True)[1])
    sampled_u = sampled_u[keep]
    sampled_v = sampled_v[keep]
    merged_at: List[int] = []  # positions of the samples that merged
    changed_roots: List[int] = []
    for position, (u, v) in enumerate(zip(sampled_u.tolist(), sampled_v.tolist())):
        root_u = u
        while parent[root_u] != root_u:
            root_u = parent[root_u]
        root_v = v
        while parent[root_v] != root_v:
            root_v = parent[root_v]
        if root_u == root_v:
            continue
        if size[root_u] < size[root_v]:
            root_u, root_v = root_v, root_u
        parent[root_v] = root_u
        size[root_u] += size[root_v]
        settled[root_u] = False
        settled[root_v] = False
        changed_roots.append(root_u)
        changed_roots.append(root_v)
        merged_at.append(position)

    if len(merged_at) > num_nodes // 64:
        # Mass-merge round: re-derive every node's root in a few
        # whole-array gathers by chasing the parent array to its fixed
        # point (union by size keeps the trees a handful of levels deep).
        parent_array = np.asarray(parent, dtype=np.int64)
        labels = parent_array[labels]
        chased = parent_array[labels]
        while not np.array_equal(chased, labels):
            labels = chased
            chased = parent_array[labels]
    elif merged_at:
        # Few merges: patch only the roots that took part in a union
        # instead of converting the whole parent list.
        relabel = np.arange(num_nodes, dtype=np.int64)
        for old_root in changed_roots:
            new_root = old_root
            while parent[new_root] != new_root:
                new_root = parent[new_root]
            relabel[old_root] = new_root
        labels = relabel[labels]
    query.labels = labels
    np.logical_not(settled[labels], out=query.active)
    offset, merges = int(query.counts[MERGED]), len(merged_at)
    query.edges[:, offset : offset + merges] = sampled_u[merged_at], sampled_v[merged_at]
    query.counts[:] = (
        np.count_nonzero(zero), np.count_nonzero(statuses == SAMPLE_FAIL), good_indices.size,
        good_indices.size - np.count_nonzero(valid), merges, offset + merges,
    )


def vectorized_spanning_forest(
    num_nodes: int,
    num_rounds: int,
    encoder: EdgeEncoder,
    batch_cut_sampler: BatchCutSampler,
    strict: bool = False,
) -> tuple[SpanningForest, BoruvkaStats]:
    """Run Boruvka's algorithm one whole round at a time.

    Component membership is an int64 label per node, and the rounds are
    :meth:`RoundQuery.run` of one query: per round, **one** sampler call
    for every active component's cut, then the round tail, which touches
    the union-find only for the at-most ``n - 1`` actual merges.  The
    forest keeps the merge edges and the final labels as arrays: no
    union-find object and no per-edge tuple is built unless a caller
    reads ``forest.edges``.  Output -- forest, stats, counters, and the
    per-component samples behind them -- is equal to the per-component
    Boruvka loop's under the same sketches
    (``tests/sketch_reference.py`` holds that loop): it visits surviving
    components in ascending root order, which is exactly the
    sorted-label order the batched samplers return.
    """
    query = RoundQuery(num_nodes, encoder, batch_cut_sampler)
    return _run_query(query, num_nodes, num_rounds, strict)


def pool_spanning_forest(
    pool, num_rounds: int, strict: bool = False
) -> tuple[SpanningForest, BoruvkaStats]:
    """:func:`vectorized_spanning_forest` over a tensor pool's first
    ``num_rounds`` rounds, run by the query its kernel provider binds
    (``bind_query``): a round over a paged pool is one foreign call on
    the compiled provider, and a whole query over an in-RAM pool is one.
    Forest, stats and counters are the same whichever provider runs."""
    return _run_query(pool._kernels.bind_query(pool), pool.num_nodes, num_rounds, strict)


def _run_query(query, num_nodes: int, num_rounds: int, strict: bool):
    """Run ``query``'s rounds and build the forest and stats from its table."""
    table = query.run(num_rounds)
    stats = BoruvkaStats(rounds_used=len(table))
    num_components, found_edge = num_nodes, True
    for zeros, failures, goods, invalid, merges in table:
        stats.component_queries += zeros + failures + goods
        stats.zero_samples += zeros
        stats.failed_samples += failures
        stats.good_samples += goods
        stats.invalid_samples += invalid
        stats.merges += merges
        stats.per_round_merges.append(merges)
        num_components -= merges
        found_edge = merges > 0 or failures > 0
    _count("query.rounds", stats.rounds_used)
    _count("query.failed_samples", stats.failed_samples)
    # The rounds stop early only on convergence: still merging means exhausted.
    complete = not (found_edge and num_components > 1)
    if not complete:
        _count("query.incomplete")
        if strict:
            raise ConnectivityError(
                f"Boruvka did not converge within {num_rounds} rounds "
                f"({num_components} components remain)"
            )

    edge_array = query.edges[:, : stats.merges].T.copy()
    forest = SpanningForest.from_prevalidated(num_nodes, edge_array, query.labels, complete=complete)
    return forest, stats
