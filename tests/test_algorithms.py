"""Tests for the extension algorithms: bipartiteness and edge connectivity."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.bipartiteness import BipartitenessSketch, is_bipartite
from repro.algorithms.edge_connectivity import (
    ConnectivityCertificate,
    EdgeConnectivitySketch,
    find_bridges,
)
from repro.core.config import GraphZeppelinConfig
from repro.exceptions import ConfigurationError
from repro.generators.erdos_renyi import erdos_renyi_gnm
from repro.generators.random_graphs import random_spanning_tree


# ----------------------------------------------------------------------
# bipartiteness
# ----------------------------------------------------------------------
def test_even_cycle_is_bipartite():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert is_bipartite(4, edges, seed=1)


def test_odd_cycle_is_not_bipartite():
    edges = [(0, 1), (1, 2), (2, 0)]
    assert not is_bipartite(3, edges, seed=1)


def test_forest_is_bipartite():
    num_nodes, edges = random_spanning_tree(20, seed=2)
    assert is_bipartite(num_nodes, edges, seed=3)


def test_complete_bipartite_graph():
    left = range(0, 5)
    right = range(5, 11)
    edges = [(u, v) for u in left for v in right]
    assert is_bipartite(11, edges, seed=4)
    # Adding one edge inside a side creates an odd cycle.
    assert not is_bipartite(11, edges + [(0, 1)], seed=4)


def test_bipartiteness_tracks_deletions():
    sketch = BipartitenessSketch(6, config=GraphZeppelinConfig(seed=5))
    for u, v in [(0, 1), (1, 2), (2, 0), (3, 4)]:
        sketch.insert(u, v)
    assert not sketch.is_bipartite()
    sketch.delete(2, 0)  # breaks the triangle
    assert sketch.is_bipartite()
    assert sketch.updates_processed == 5


def test_bipartiteness_matches_networkx_on_random_graphs():
    for seed in range(6):
        num_nodes, edges = erdos_renyi_gnm(18, 24 + seed * 3, seed=seed)
        expected = nx.is_bipartite(nx.Graph(edges)) if edges else True
        # networkx only sees nodes with edges; isolated nodes cannot break
        # bipartiteness, so the comparison is still exact.
        assert is_bipartite(num_nodes, edges, seed=seed) == expected


def test_bipartiteness_component_counts_relationship():
    sketch = BipartitenessSketch(8, config=GraphZeppelinConfig(seed=6))
    for u, v in [(0, 1), (1, 2), (4, 5)]:
        sketch.insert(u, v)
    graph_components, cover_components = sketch.component_counts()
    assert cover_components == 2 * graph_components
    assert sketch.sketch_bytes() > 0


def test_bipartiteness_validation():
    with pytest.raises(ConfigurationError):
        BipartitenessSketch(1)
    sketch = BipartitenessSketch(4)
    with pytest.raises(ValueError):
        sketch.edge_update(0, 4)


# ----------------------------------------------------------------------
# exact bridge finding helper
# ----------------------------------------------------------------------
def test_find_bridges_on_known_graph():
    #   0-1-2 triangle, bridge 2-3, then 3-4-5 triangle
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
    assert find_bridges(6, edges) == [(2, 3)]


def test_find_bridges_tree_all_edges_are_bridges():
    num_nodes, edges = random_spanning_tree(12, seed=7)
    assert sorted(find_bridges(num_nodes, edges)) == sorted(edges)


def test_find_bridges_cycle_has_none():
    edges = [(i, (i + 1) % 8) for i in range(8)]
    assert find_bridges(8, edges) == []


def test_find_bridges_matches_networkx():
    for seed in range(5):
        num_nodes, edges = erdos_renyi_gnm(16, 22, seed=seed + 10)
        expected = sorted(
            tuple(sorted(edge)) for edge in nx.bridges(nx.Graph(edges))
        ) if edges else []
        assert find_bridges(num_nodes, edges) == expected


# ----------------------------------------------------------------------
# edge connectivity certificates
# ----------------------------------------------------------------------
def stream_into(sketch, edges):
    for u, v in edges:
        sketch.insert(u, v)


def test_certificate_of_a_cycle():
    edges = [(i, (i + 1) % 6) for i in range(6)]
    sketch = EdgeConnectivitySketch(6, k=2, config=GraphZeppelinConfig(seed=8))
    stream_into(sketch, edges)
    certificate = sketch.certificate_and_restore()
    assert certificate.is_connected()
    assert certificate.is_k_edge_connected(2)        # a cycle is 2-edge-connected
    assert not certificate.bridges()
    assert certificate.min_cut_lower_bound() == 2


def test_certificate_detects_bridge():
    # Two triangles joined by a single edge (the bridge).
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
    sketch = EdgeConnectivitySketch(6, k=2, config=GraphZeppelinConfig(seed=9))
    stream_into(sketch, edges)
    assert sketch.bridges() == [(2, 3)]
    assert not sketch.is_k_edge_connected()


def test_certificate_respects_deletions():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    sketch = EdgeConnectivitySketch(5, k=2, config=GraphZeppelinConfig(seed=10))
    stream_into(sketch, edges)
    assert sketch.is_k_edge_connected()
    sketch.delete(0, 1)   # the cycle becomes a path: every edge a bridge
    certificate = sketch.certificate_and_restore()
    assert not certificate.is_k_edge_connected(2)
    assert len(certificate.bridges()) == 4


def _pool_tensors(sketch):
    """Copies of every sketch copy's flushed tensors."""
    tensors = []
    for engine in sketch._engines:
        engine.flush()
        tensors.extend(np.array(t) for t in engine.tensor_pool.raw_tensors())
    return tensors


def _same_tensors(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _scalar_peel(sketch):
    """The peel replaying every forest edge as one ``edge_update`` (the reference)."""
    forests, removed = [], []
    for engine in sketch._engines:
        for edge in removed:
            engine.edge_update(*edge)
        forest = engine.list_spanning_forest()
        forests.append(forest.edges)
        removed.extend(forest.edges)
    return tuple(forests)


def test_batched_peel_is_bit_identical_to_the_scalar_replay():
    num_nodes, edges = erdos_renyi_gnm(16, 40, seed=31)
    batched, scalar = (
        EdgeConnectivitySketch(num_nodes, k=3, config=GraphZeppelinConfig(seed=31))
        for _ in range(2)
    )
    for sketch in (batched, scalar):
        stream_into(sketch, edges)
    assert batched.certificate().forests == _scalar_peel(scalar)
    assert _same_tensors(_pool_tensors(batched), _pool_tensors(scalar))


def test_certificate_queries_do_not_consume_the_sketches():
    edges = [(i, (i + 1) % 6) for i in range(6)]
    sketch = EdgeConnectivitySketch(6, k=2, config=GraphZeppelinConfig(seed=11))
    stream_into(sketch, edges)
    unpeeled = _pool_tensors(sketch)
    first = sketch.certificate_and_restore()
    assert _same_tensors(_pool_tensors(sketch), unpeeled)
    second = sketch.certificate_and_restore()
    assert first.edges == second.edges
    # The stream can also continue after a query.
    sketch.insert(0, 3)
    third = sketch.certificate_and_restore()
    assert third.is_connected()


def test_complete_graph_is_highly_connected():
    num_nodes = 6
    edges = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    sketch = EdgeConnectivitySketch(num_nodes, k=3, config=GraphZeppelinConfig(seed=12))
    stream_into(sketch, edges)
    certificate = sketch.certificate_and_restore()
    assert certificate.is_k_edge_connected(3)
    assert certificate.min_cut_lower_bound() == 3
    # The certificate is sparse: at most k(V-1) edges.
    assert certificate.num_edges <= 3 * (num_nodes - 1)


def test_disconnected_graph_is_not_k_connected():
    sketch = EdgeConnectivitySketch(6, k=2, config=GraphZeppelinConfig(seed=13))
    stream_into(sketch, [(0, 1), (1, 2), (3, 4)])
    certificate = sketch.certificate_and_restore()
    assert not certificate.is_connected()
    assert not certificate.is_k_edge_connected()
    assert certificate.min_cut_lower_bound() == 0


def test_certificate_matches_networkx_connectivity():
    for seed in range(4):
        num_nodes, edges = erdos_renyi_gnm(12, 26, seed=seed + 20)
        graph = nx.Graph(edges)
        graph.add_nodes_from(range(num_nodes))
        expected_2ec = (
            nx.is_connected(graph) and nx.edge_connectivity(graph) >= 2
        )
        sketch = EdgeConnectivitySketch(num_nodes, k=2, config=GraphZeppelinConfig(seed=seed))
        stream_into(sketch, edges)
        assert sketch.is_k_edge_connected() == expected_2ec


def test_certificate_validation():
    with pytest.raises(ConfigurationError):
        EdgeConnectivitySketch(1, k=2)
    with pytest.raises(ConfigurationError):
        EdgeConnectivitySketch(4, k=0)
    sketch = EdgeConnectivitySketch(4, k=1)
    with pytest.raises(ConfigurationError):
        sketch.bridges()
    certificate = ConnectivityCertificate(num_nodes=3, k=1, forests=(((0, 1),),))
    with pytest.raises(ValueError):
        certificate.is_k_edge_connected(2)
    with pytest.raises(ValueError):
        certificate.is_k_edge_connected(0)
