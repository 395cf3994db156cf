"""The array-valued spanning forest, held to the tuple reference.

A Boruvka driver's :class:`SpanningForest` keeps the ``(E, 2)`` int64
``edge_array`` its round tails produced and the driver's final per-node
``labels``; the ``edges`` tuple is built only when read.  Every view
must equal ``SpanningForest.from_edges(forest.edges)`` and a union-find
over those edges, on numpy and native kernels over flat and paged
pools.  The engine's component queries leave the tuple unbuilt, a large
path query allocates few Python objects, the narrow (one- to
three-node) graphs, delete-to-empty and one giant component among
singletons answer from empty or small arrays, and an exhausted query is
counted in the metrics registry before a strict engine raises.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boruvka import vectorized_spanning_forest
from repro.core.config import BufferingMode, GraphZeppelinConfig
from repro.core.dsu import DisjointSetUnion
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.core.spanning_forest import SpanningForest
from repro.exceptions import ConfigurationError, ConnectivityError
from repro.kernels import native_kernels
from repro.observability import default_registry

NUM_NODES = 24
POOLS = pytest.mark.parametrize("paged", [False, True], ids=["flat", "paged"])
PROVIDERS = pytest.mark.parametrize("backend", ["numpy", "native"])

node_ids = st.integers(min_value=0, max_value=NUM_NODES - 1)
edge_lists = st.lists(
    st.tuples(node_ids, node_ids).filter(lambda e: e[0] != e[1]), max_size=80
)


def _native_or_skip():
    provider = native_kernels()
    if provider is None:
        pytest.skip("no native kernel provider usable")
    return provider


def _engine(num_nodes, backend, paged=False, seed=0, **overrides):
    if backend == "native":
        _native_or_skip()
    config = GraphZeppelinConfig(
        buffering=BufferingMode.NONE,
        kernel_backend=backend,
        ram_budget_bytes=4_000 if paged else None,
        seed=seed,
        **overrides,
    )
    return GraphZeppelin(num_nodes, config=config)


def _path(nodes):
    nodes = np.asarray(nodes, dtype=np.int64)
    return np.stack([nodes[:-1], nodes[1:]], axis=1)


def _counter(name):
    return default_registry().snapshot().counters.get(name, 0)


def assert_matches_reference(forest):
    """Every view equals the tuple forest and a union-find over its edges."""
    reference = SpanningForest.from_edges(
        forest.num_nodes, forest.edges, complete=forest.complete
    )
    assert forest == reference and hash(forest) == hash(reference)
    assert list(forest) == list(reference.edges)
    assert forest.edge_array.dtype == np.int64 and forest.labels.dtype == np.int64
    assert forest.edge_array.shape == (len(forest.edges), 2) == (forest.num_edges, 2)
    assert forest.edge_array.flags.c_contiguous
    assert not forest.edge_array.flags.writeable and not forest.labels.flags.writeable
    dsu = DisjointSetUnion(forest.num_nodes)
    dsu.add_edges(forest.edges)
    assert forest.num_components == reference.num_components == dsu.num_components
    assert forest.components() == reference.components() == dsu.components()
    assert forest.component_labels() == dsu.component_labels()
    assert forest.partition_signature() == reference.partition_signature()
    for node in range(forest.num_nodes):
        members = {other for other in range(forest.num_nodes) if dsu.connected(node, other)}
        assert forest.component_of(node) == members
        for other in range(forest.num_nodes):
            assert forest.connected(node, other) is dsu.connected(node, other)


@POOLS
@PROVIDERS
@given(edges=edge_lists, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_every_view_equals_the_tuple_reference(backend, paged, edges, seed):
    engine = _engine(NUM_NODES, backend, paged, seed)
    if edges:
        engine.ingest_batch(np.asarray(edges, dtype=np.int64))
    assert_matches_reference(engine.list_spanning_forest())


@POOLS
@PROVIDERS
def test_component_queries_leave_the_edge_tuple_unbuilt(backend, paged):
    engine = _engine(NUM_NODES, backend, paged, seed=4)
    engine.ingest_batch(np.asarray([[0, 1], [1, 2], [5, 6], [9, 7]]))
    forest = engine.list_spanning_forest()
    assert engine.connected_components() == forest.components()
    assert engine.is_connected(0, 2) and not engine.is_connected(0, 5)
    assert engine.num_connected_components() == NUM_NODES - 4
    assert engine.list_spanning_forest() is forest
    assert forest._edges is None
    assert sorted(forest.edges) == [(0, 1), (1, 2), (5, 6), (7, 9)]
    assert forest.edges is forest.edges


@PROVIDERS
def test_a_path_query_allocates_fewer_than_a_thousand_blocks(backend):
    """4 096 nodes: the tuple forest and its union-find took over 8 000 blocks."""
    num_nodes = 4096
    engine = _engine(num_nodes, backend, seed=3)
    path = _path(range(num_nodes))
    engine.ingest_batch(path)
    engine.list_spanning_forest()  # the first query sets up kernels and instruments
    engine.ingest_batch(np.concatenate([path[:1], path[:1]]))  # cancels; drops the cache
    gc.collect()
    before = sys.getallocatedblocks()
    forest = engine.list_spanning_forest()
    grown = sys.getallocatedblocks() - before
    assert forest.complete and forest.num_components == 1
    assert grown < 1000


@PROVIDERS
def test_one_node_forest_needs_no_round(backend):
    kernels = _native_or_skip() if backend == "native" else None

    def sampler(round_index, labels, mask):
        raise AssertionError("a one-node graph has no cut to sample")

    forest, stats = vectorized_spanning_forest(1, 3, EdgeEncoder(2), sampler, kernels=kernels)
    assert forest.complete and stats.rounds_used == 0
    assert forest.edge_array.shape == (0, 2) and forest.edge_array.dtype == np.int64
    assert forest.components() == [{0}] and forest.connected(0, 0)
    assert_matches_reference(forest)
    with pytest.raises(ConfigurationError):
        GraphZeppelin(1)


@PROVIDERS
@pytest.mark.parametrize("num_nodes", [2, 3])
def test_narrow_engines_answer_from_small_arrays(backend, num_nodes):
    engine = _engine(num_nodes, backend, seed=num_nodes)
    forest = engine.list_spanning_forest()
    assert forest.complete and forest.edges == ()
    assert forest.edge_array.shape == (0, 2) and forest.edge_array.dtype == np.int64
    assert engine.connected_components() == [{node} for node in range(num_nodes)]
    assert engine.num_connected_components() == num_nodes
    assert all(engine.is_connected(node, node) for node in range(num_nodes))
    assert_matches_reference(forest)
    last = num_nodes - 1
    engine.ingest_batch(np.asarray([[last, 0]]))
    forest = engine.list_spanning_forest()
    assert forest.complete and forest.edge_array.tolist() == [[0, last]]
    assert forest.components() == [{0, last}] + [{node} for node in range(1, last)]
    assert engine.is_connected(last, 0)
    assert_matches_reference(forest)


@POOLS
@PROVIDERS
def test_delete_to_empty_answers_singletons(backend, paged):
    engine = _engine(NUM_NODES, backend, paged, seed=6)
    pairs = np.sort(np.random.default_rng(6).integers(0, NUM_NODES, (60, 2)), axis=1)
    edges = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
    engine.ingest_batch(edges)
    assert engine.num_connected_components() < NUM_NODES
    engine.ingest_batch(edges[::-1])  # every edge deleted again
    forest = engine.list_spanning_forest()
    assert forest.complete
    assert forest.edge_array.shape == (0, 2) and forest.edge_array.dtype == np.int64
    assert forest.components() == [{node} for node in range(NUM_NODES)]
    assert engine.is_connected(5, 5) and not engine.is_connected(0, 1)
    assert_matches_reference(forest)


@POOLS
@PROVIDERS
def test_one_giant_component_among_singletons(backend, paged):
    singletons = list(range(3, NUM_NODES, 4))
    giant = [node for node in range(NUM_NODES) if node % 4 != 3]
    engine = _engine(NUM_NODES, backend, paged, seed=8)
    engine.ingest_batch(_path(np.random.default_rng(8).permutation(giant)))
    forest = engine.list_spanning_forest()
    assert forest.complete and forest.edge_array.shape == (len(giant) - 1, 2)
    assert forest.components() == [set(giant)] + [{node} for node in singletons]
    assert forest.num_components == 1 + len(singletons)
    assert engine.is_connected(giant[0], giant[-1]) and engine.is_connected(3, 3)
    assert not engine.is_connected(0, 3)
    assert_matches_reference(forest)


@PROVIDERS
@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_round_exhaustion_is_counted_before_a_strict_query_raises(backend, strict, monkeypatch):
    engine = _engine(32, backend, seed=2, strict_queries=strict)
    engine.ingest_batch(_path(range(32)))
    monkeypatch.setattr(engine, "num_rounds", 1)  # a path needs about log2(32) rounds
    incomplete, failed = _counter("query.incomplete"), _counter("query.failed_samples")
    if strict:
        with pytest.raises(ConnectivityError):
            engine.list_spanning_forest()
    else:
        forest = engine.list_spanning_forest()
        assert not forest.complete and forest.num_components > 1
        assert_matches_reference(forest)
        assert _counter("query.failed_samples") == failed + engine.last_query_stats.failed_samples
    assert _counter("query.incomplete") == incomplete + 1
