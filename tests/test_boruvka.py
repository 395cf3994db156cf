"""Tests for the generic sketch-Boruvka driver.

The driver is exercised with an *exact* cut sampler (computed from an
explicit edge set), so these tests isolate the Boruvka control flow --
component bookkeeping, settled detection, round limits -- from sketch
randomness.  The driver contracts (round exhaustion, ``SAMPLE_FAIL``
retry, invalid slots, plain-Python public views) are held on every
driver users can run: the scalar reference, and the whole-round driver
with the numpy and with the native round tail.
"""

import json
from typing import Sequence

import pytest

from repro.core.boruvka import (
    batch_sampler_from_scalar,
    sketch_spanning_forest,
    vectorized_spanning_forest,
)
from repro.core.edge_encoding import EdgeEncoder
from repro.exceptions import ConnectivityError
from repro.observability import default_registry
from repro.sketch.sketch_base import SampleResult


@pytest.fixture(params=["scalar", "vectorized-numpy", "vectorized-native"])
def run_driver(request):
    """``run(num_nodes, num_rounds, encoder, cut_sampler, strict=False)``."""
    if request.param == "scalar":
        return sketch_spanning_forest
    kernels = None
    if request.param == "vectorized-native":
        kernels = request.getfixturevalue("native_provider")

    def run(num_nodes, num_rounds, encoder, cut_sampler, strict=False):
        return vectorized_spanning_forest(
            num_nodes, num_rounds, encoder, batch_sampler_from_scalar(cut_sampler),
            strict=strict, kernels=kernels,
        )

    return run


def exact_cut_sampler(num_nodes, edges):
    """A deterministic, always-correct cut sampler over a known edge set."""
    encoder = EdgeEncoder(num_nodes)

    def sampler(round_index: int, members: Sequence[int]) -> SampleResult:
        member_set = set(members)
        for u, v in edges:
            if (u in member_set) != (v in member_set):
                return SampleResult.good(encoder.encode(u, v))
        return SampleResult.zero()

    return encoder, sampler


def failing_then_exact_sampler(num_nodes, edges, fail_rounds):
    """A sampler that FAILs for the first ``fail_rounds`` rounds."""
    encoder, exact = exact_cut_sampler(num_nodes, edges)

    def sampler(round_index: int, members: Sequence[int]) -> SampleResult:
        if round_index < fail_rounds:
            return SampleResult.fail()
        return exact(round_index, members)

    return encoder, sampler


def test_connected_graph_yields_single_component():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    encoder, sampler = exact_cut_sampler(6, edges)
    forest, stats = sketch_spanning_forest(6, 3, encoder, sampler)
    assert forest.num_components == 1
    assert forest.num_edges == 5
    assert forest.complete
    assert stats.merges == 5


def test_multiple_components_identified():
    edges = [(0, 1), (1, 2), (4, 5)]
    encoder, sampler = exact_cut_sampler(8, edges)
    forest, stats = sketch_spanning_forest(8, 3, encoder, sampler)
    assert forest.num_components == 5  # {0,1,2}, {4,5}, {3}, {6}, {7}
    assert forest.connected(0, 2)
    assert forest.connected(4, 5)
    assert not forest.connected(0, 4)


def test_empty_graph_needs_one_round():
    encoder, sampler = exact_cut_sampler(4, [])
    forest, stats = sketch_spanning_forest(4, 2, encoder, sampler)
    assert forest.num_components == 4
    assert stats.zero_samples == 4
    assert stats.merges == 0


def test_boruvka_uses_logarithmically_many_rounds():
    """A path graph on 64 nodes should finish in about log2(64) rounds."""
    num_nodes = 64
    edges = [(i, i + 1) for i in range(num_nodes - 1)]
    encoder, sampler = exact_cut_sampler(num_nodes, edges)
    forest, stats = sketch_spanning_forest(num_nodes, 10, encoder, sampler)
    assert forest.num_components == 1
    assert stats.rounds_used <= 8


def _counter(name):
    return default_registry().snapshot().counters.get(name, 0)


def test_transient_failures_are_tolerated(run_driver):
    edges = [(0, 1), (1, 2)]
    encoder, sampler = failing_then_exact_sampler(4, edges, fail_rounds=2)
    failed = _counter("query.failed_samples")
    forest, stats = run_driver(4, 6, encoder, sampler)
    assert forest.complete
    assert forest.connected(0, 2)
    assert stats.failed_samples == 8  # four singletons, two failing rounds
    assert _counter("query.failed_samples") == failed + 8
    assert stats.per_round_merges[:2] == [0, 0]


def test_round_exhaustion_returns_incomplete_forest(run_driver):
    edges = [(0, 1), (1, 2)]
    encoder, sampler = failing_then_exact_sampler(4, edges, fail_rounds=100)
    incomplete = _counter("query.incomplete")
    forest, stats = run_driver(4, 3, encoder, sampler, strict=False)
    assert not forest.complete
    assert forest.num_edges == 0
    assert stats.rounds_used == 3
    assert _counter("query.incomplete") == incomplete + 1


def test_round_exhaustion_raises_in_strict_mode(run_driver):
    edges = [(0, 1), (1, 2)]
    encoder, sampler = failing_then_exact_sampler(4, edges, fail_rounds=100)
    incomplete = _counter("query.incomplete")
    with pytest.raises(ConnectivityError):
        run_driver(4, 3, encoder, sampler, strict=True)
    assert _counter("query.incomplete") == incomplete + 1


def test_round_exhaustion_mid_merge_keeps_the_partial_forest(run_driver):
    """(1, 2) is only sampled once {0, 1} and {2, 3} exist: one round is short."""
    encoder, sampler = exact_cut_sampler(4, [(0, 1), (2, 3), (1, 2)])
    forest, stats = run_driver(4, 1, encoder, sampler)
    assert not forest.complete
    assert forest.edges == ((0, 1), (2, 3))
    assert stats.merges == 2 and forest.num_components == 2
    with pytest.raises(ConnectivityError):
        run_driver(4, 1, encoder, sampler, strict=True)


def test_forest_views_are_plain_python(run_driver):
    """Whatever arrays a driver works on, the forest hands out ``int``s."""
    edges = [(0, 1), (1, 2), (4, 5)]
    encoder, sampler = exact_cut_sampler(7, edges)
    forest, _ = run_driver(7, 4, encoder, sampler)
    assert json.loads(json.dumps(forest.edges)) == [list(e) for e in forest.edges]
    assert forest.connected(0, 2) is True
    assert forest.connected(0, 4) is False
    for value in (
        [node for component in forest.components() for node in component]
        + forest.component_labels()
        + [endpoint for edge in forest.edges for endpoint in edge]
    ):
        assert type(value) is int


def test_invalid_sample_indices_are_rejected(run_driver):
    """A sampler returning a non-edge index must not corrupt the forest."""
    encoder = EdgeEncoder(4)
    calls = {"count": 0}

    def sampler(round_index, members):
        calls["count"] += 1
        if calls["count"] == 1:
            return SampleResult.good(2 * 4 + 1)  # decodes to (2,1): invalid slot
        member_set = set(members)
        if (0 in member_set) != (1 in member_set):
            return SampleResult.good(encoder.encode(0, 1))
        return SampleResult.zero()

    forest, stats = run_driver(4, 4, encoder, sampler)
    assert stats.invalid_samples == 1
    assert forest.connected(0, 1)
    assert forest.edges == ((0, 1),)


def test_sampler_receives_growing_components():
    edges = [(0, 1), (2, 3), (1, 2)]
    encoder, exact = exact_cut_sampler(4, edges)
    seen_sizes = []

    def sampler(round_index, members):
        seen_sizes.append(len(members))
        return exact(round_index, members)

    forest, _ = sketch_spanning_forest(4, 4, encoder, sampler)
    assert forest.num_components == 1
    assert max(seen_sizes) > 1  # later rounds query merged supernodes


def test_stats_per_round_merges_sum_to_total():
    edges = [(i, i + 1) for i in range(15)]
    encoder, sampler = exact_cut_sampler(16, edges)
    _, stats = sketch_spanning_forest(16, 6, encoder, sampler)
    assert sum(stats.per_round_merges) == stats.merges == 15
