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

Two drivers share that contract: the per-component scalar reference
(:func:`sketch_spanning_forest`) and the whole-round one engines run
(:func:`vectorized_spanning_forest`): one batched sampler call per
round, then the round tail -- union-find plus relabel -- through
:func:`round_tail` or a native provider's compiled twin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.dsu import DisjointSetUnion
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
from repro.types import Edge

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


def sketch_spanning_forest(
    num_nodes: int,
    num_rounds: int,
    encoder: EdgeEncoder,
    cut_sampler: CutSampler,
    strict: bool = False,
) -> tuple[SpanningForest, BoruvkaStats]:
    """Run Boruvka's algorithm over sketched cut samplers.

    Parameters
    ----------
    num_nodes:
        Number of nodes in the graph.
    num_rounds:
        Number of independent sketch rounds available.
    encoder:
        The edge-slot encoder shared by the sketches; used to decode and
        validate sampled indices.
    cut_sampler:
        ``cut_sampler(round_index, members)`` must return a
        :class:`SampleResult` for the cut between ``members`` and the
        rest of the graph, computed from the round's sketches.
    strict:
        When true, exhausting the rounds while merges were still
        happening raises :class:`ConnectivityError`; otherwise the
        partial forest is returned with ``complete=False``.  Either way
        the exhaustion is counted first (registry counter
        ``query.incomplete``), as are failed samples
        (``query.failed_samples``).
    """
    dsu = DisjointSetUnion(num_nodes)
    members: Dict[int, List[int]] = {node: [node] for node in range(num_nodes)}
    # Components whose cut has been observed empty: they can never merge
    # again and are skipped in later rounds.
    settled: Set[int] = set()
    forest_edges: List[Edge] = []
    stats = BoruvkaStats()

    found_edge = True
    round_index = 0
    while found_edge and dsu.num_components > 1:
        if round_index >= num_rounds:
            _count("query.incomplete")
            if strict:
                raise ConnectivityError(
                    f"Boruvka did not converge within {num_rounds} rounds "
                    f"({dsu.num_components} components remain)"
                )
            forest = SpanningForest.from_edges(num_nodes, forest_edges, complete=False)
            return forest, stats

        found_edge = False
        stats.rounds_used = round_index + 1
        sampled_edges: List[Edge] = []
        failures_this_round = 0

        for root in list(members.keys()):
            if root in settled:
                continue
            stats.component_queries += 1
            result = cut_sampler(round_index, members[root])
            if result.is_zero:
                stats.zero_samples += 1
                settled.add(root)
                continue
            if result.is_fail:
                stats.failed_samples += 1
                failures_this_round += 1
                continue
            stats.good_samples += 1
            assert result.index is not None
            if not encoder.is_valid_index(result.index):
                # A corrupted bucket slipped past its checksum; ignore it.
                stats.invalid_samples += 1
                continue
            sampled_edges.append(encoder.decode(result.index))
        _count("query.failed_samples", failures_this_round)

        merges_this_round = 0
        for u, v in sampled_edges:
            root_u, root_v = dsu.find(u), dsu.find(v)
            if root_u == root_v:
                continue
            dsu.union(u, v)
            # Union by size keeps one of the two old roots as the new root.
            new_root = dsu.find(u)
            old_root = root_v if new_root == root_u else root_u
            members[new_root] = members[new_root] + members.pop(old_root)
            settled.discard(new_root)
            settled.discard(old_root)
            forest_edges.append((u, v) if u < v else (v, u))
            merges_this_round += 1
            found_edge = True

        stats.merges += merges_this_round
        stats.per_round_merges.append(merges_this_round)
        # A failed sample says nothing about the cut being empty; as long as
        # unused rounds (with fresh, independent sketches) remain, retry the
        # unresolved components there instead of declaring convergence.
        if failures_this_round and not found_edge:
            found_edge = True
        round_index += 1

    forest = SpanningForest.from_edges(num_nodes, forest_edges, complete=True)
    return forest, stats


def batch_sampler_from_scalar(cut_sampler: CutSampler) -> BatchCutSampler:
    """Adapt a per-component :data:`CutSampler` to the batched signature.

    Groups nodes by component label with one argsort (no per-merge list
    concatenation) and calls the scalar sampler once per segment, so a
    sampler without a whole-round kernel (the StreamingCC baseline, a
    test's reference sampler over ``query_merged``) still runs under the
    array driver.
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


def round_tail(
    parent: List[int],
    size: List[int],
    settled: np.ndarray,
    labels: np.ndarray,
    sampled_u: np.ndarray,
    sampled_v: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Union one round's sampled edges and relabel the nodes (numpy path).

    ``parent`` / ``size`` (plain lists: half the cost of DSU method
    calls) and the per-root empty-cut flags ``settled`` are updated in
    place.  Unions are by size, ties keeping ``u``'s root, **without**
    path compression: decisions depend only on roots and sizes, so that
    is transparent, and the trees stay logarithmically shallow.  Returns
    the new labels and, as one ``(2, m)`` int64 array, the edges
    (validated samples, ``u < v``) that merged two components, in merge
    order; a native provider's ``round_tail`` is the compiled twin over
    int64 arrays.
    """
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
    return labels, np.stack((sampled_u, sampled_v))[:, merged_at]


def vectorized_spanning_forest(
    num_nodes: int,
    num_rounds: int,
    encoder: EdgeEncoder,
    batch_cut_sampler: BatchCutSampler,
    strict: bool = False,
    kernels=None,
) -> tuple[SpanningForest, BoruvkaStats]:
    """Run Boruvka's algorithm one whole round at a time.

    The array twin of :func:`sketch_spanning_forest`: component
    membership is an int64 label per node (no Python member lists, no
    O(n) concatenation per merge), every active component's cut is
    sampled by **one** ``batch_cut_sampler`` call per round, sampled
    indices are validated and decoded with vectorised
    :class:`EdgeEncoder` expressions, and the union-find is touched only
    for the at-most ``n - 1`` actual merges, by :func:`round_tail` or
    the compiled ``round_tail`` of ``kernels`` (a native provider) when
    it has one.  The forest keeps the concatenated merge edges and the
    final labels as arrays: no union-find object and no per-edge tuple
    is built unless a caller reads ``forest.edges``.  Output -- forest,
    stats, and the per-component samples
    behind them -- is bit-identical to the scalar driver under the same
    sketches, whichever tail runs: the scalar loop visits surviving
    components in ascending root order (dict insertion order), which is
    exactly the sorted-label order the batched samplers return.
    """
    tail = getattr(kernels, "round_tail", None)
    if tail is None:
        tail = round_tail
        parent, size = list(range(num_nodes)), [1] * num_nodes
    else:
        parent = np.arange(num_nodes, dtype=np.int64)
        size = np.ones(num_nodes, dtype=np.int64)
    num_components = num_nodes
    labels = np.arange(num_nodes, dtype=np.int64)
    # settled[r] for a current component root r: its cut has been
    # observed empty, so it is skipped until (and unless) another
    # component's sampled edge merges into it.
    settled = np.zeros(num_nodes, dtype=bool)
    # Each round's merging edges as a (2, m) array, joined once at the end.
    merged_rounds: List[np.ndarray] = [np.empty((2, 0), dtype=np.int64)]
    stats = BoruvkaStats()

    complete = True
    found_edge = True
    round_index = 0
    while found_edge and num_components > 1:
        if round_index >= num_rounds:
            _count("query.incomplete")
            if strict:
                raise ConnectivityError(
                    f"Boruvka did not converge within {num_rounds} rounds "
                    f"({num_components} components remain)"
                )
            complete = False
            break

        stats.rounds_used = round_index + 1
        _count("query.rounds")
        with span("query.round"):
            active = ~settled[labels]
            roots, statuses, indices = batch_cut_sampler(round_index, labels, active)
            stats.component_queries += int(roots.size)

            zero_mask = statuses == SAMPLE_ZERO
            settled[roots[zero_mask]] = True
            stats.zero_samples += int(np.count_nonzero(zero_mask))
            failures_this_round = int(np.count_nonzero(statuses == SAMPLE_FAIL))
            stats.failed_samples += failures_this_round

            good_mask = statuses == SAMPLE_GOOD
            stats.good_samples += int(np.count_nonzero(good_mask))
            good_indices = indices[good_mask]
            valid = encoder.valid_index_mask(good_indices)
            # Corrupted buckets that slipped past their checksums; ignore them.
            stats.invalid_samples += int(good_indices.size - np.count_nonzero(valid))
            sampled_u, sampled_v = encoder.decode_endpoints(good_indices[valid])
            with span("query.unionfind"):
                labels, merged = tail(parent, size, settled, labels, sampled_u, sampled_v)

        _count("query.failed_samples", failures_this_round)
        merged_rounds.append(merged)
        merges_this_round = merged.shape[1]
        num_components -= merges_this_round
        stats.merges += merges_this_round
        stats.per_round_merges.append(merges_this_round)
        # A failed sample says nothing about the cut being empty; as long as
        # unused rounds (with fresh, independent sketches) remain, retry the
        # unresolved components there instead of declaring convergence.
        found_edge = merges_this_round > 0 or failures_this_round > 0
        round_index += 1

    edge_array = np.concatenate(merged_rounds, axis=1).T.copy()
    forest = SpanningForest.from_prevalidated(num_nodes, edge_array, labels, complete=complete)
    return forest, stats
