"""Tests for NodeSketch: per-node bundles of round sketches."""

import pytest

from repro.core.edge_encoding import EdgeEncoder
from repro.core.node_sketch import NodeSketch, merged_round_sketch
from repro.exceptions import ConfigurationError, IncompatibleSketchError
from repro.sketch.geometry import num_boruvka_rounds, round_seed


@pytest.fixture
def encoder():
    return EdgeEncoder(16)


def test_num_rounds_is_log2_of_nodes():
    assert num_boruvka_rounds(2) == 1
    assert num_boruvka_rounds(16) == 4
    assert num_boruvka_rounds(17) == 5
    assert num_boruvka_rounds(1024) == 10
    with pytest.raises(ConfigurationError):
        num_boruvka_rounds(1)


def test_round_seeds_differ_by_round_but_not_node():
    assert round_seed(1, 0) != round_seed(1, 1)
    assert round_seed(1, 0) != round_seed(2, 0)


def test_node_sketch_shares_hashes_across_nodes(encoder):
    """Sketches of different nodes in the same round must be mergeable."""
    a = NodeSketch(0, encoder, graph_seed=9)
    b = NodeSketch(1, encoder, graph_seed=9)
    for round_index in range(a.num_rounds):
        assert a.round_sketch(round_index).seed == b.round_sketch(round_index).seed
    a.merge(b)  # must not raise


def test_rounds_use_independent_hashes(encoder):
    sketch = NodeSketch(0, encoder, graph_seed=9)
    seeds = {s.seed for s in sketch.sketches}
    assert len(seeds) == sketch.num_rounds


def test_apply_edge_and_query(encoder):
    sketch = NodeSketch(3, encoder, graph_seed=1)
    sketch.apply_edge(7)
    for round_index in range(sketch.num_rounds):
        result = sketch.query_round(round_index)
        assert result.is_good
        assert encoder.decode(result.index) == (3, 7)


def test_apply_batch_equivalent_to_single_edges(encoder):
    a = NodeSketch(2, encoder, graph_seed=5)
    b = NodeSketch(2, encoder, graph_seed=5)
    for neighbor in (0, 5, 9):
        a.apply_edge(neighbor)
    b.apply_batch([0, 5, 9])
    for round_index in range(a.num_rounds):
        assert a.round_sketch(round_index) == b.round_sketch(round_index)


def test_shared_edge_cancels_when_merging_endpoints(encoder):
    """Edge {u, v} appears in both node sketches and must cancel on merge."""
    u_sketch = NodeSketch(4, encoder, graph_seed=2)
    v_sketch = NodeSketch(9, encoder, graph_seed=2)
    u_sketch.apply_edge(9)
    v_sketch.apply_edge(4)
    u_sketch.merge(v_sketch)
    assert u_sketch.is_empty()


def test_cut_edges_survive_component_merge(encoder):
    """Merging component {0,1} keeps only the edge crossing to node 2."""
    s0 = NodeSketch(0, encoder, graph_seed=3)
    s1 = NodeSketch(1, encoder, graph_seed=3)
    # edges: (0,1) internal, (1,2) crossing
    s0.apply_edge(1)
    s1.apply_edge(0)
    s1.apply_edge(2)
    merged = merged_round_sketch([s0, s1], round_index=0)
    result = merged.query()
    assert result.is_good
    assert encoder.decode(result.index) == (1, 2)


def test_merged_round_sketch_does_not_mutate_inputs(encoder):
    s0 = NodeSketch(0, encoder, graph_seed=3)
    s1 = NodeSketch(1, encoder, graph_seed=3)
    s0.apply_edge(1)
    s1.apply_edge(0)
    before = s0.round_sketch(0).copy()
    merged_round_sketch([s0, s1], 0)
    assert s0.round_sketch(0) == before


def test_merged_round_sketch_requires_input(encoder):
    with pytest.raises(ValueError):
        merged_round_sketch([], 0)


def test_merge_rejects_different_graph_seed(encoder):
    a = NodeSketch(0, encoder, graph_seed=1)
    b = NodeSketch(1, encoder, graph_seed=2)
    with pytest.raises(IncompatibleSketchError):
        a.merge(b)


def test_copy_is_deep(encoder):
    a = NodeSketch(0, encoder, graph_seed=1)
    a.apply_edge(5)
    clone = a.copy()
    clone.apply_edge(7)
    assert a.round_sketch(0) != clone.round_sketch(0)


def test_size_bytes_accounts_all_rounds(encoder):
    sketch = NodeSketch(0, encoder, graph_seed=0)
    assert sketch.size_bytes() == sum(s.size_bytes() for s in sketch.sketches)
    assert sketch.size_bytes() == sketch.num_rounds * sketch.sketches[0].size_bytes()
