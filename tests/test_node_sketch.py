"""Tests for node sketches: per-node bundles of round sketches (FlatNodeSketch)."""

import pytest

from repro.core.edge_encoding import EdgeEncoder
from repro.core.node_sketch import merged_round_sketch
from repro.exceptions import ConfigurationError, IncompatibleSketchError
from repro.sketch.flat_node_sketch import FlatNodeSketch
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
    a = FlatNodeSketch(0, encoder, graph_seed=9)
    b = FlatNodeSketch(1, encoder, graph_seed=9)
    for round_index in range(a.num_rounds):
        assert a.round_sketch(round_index).seed == b.round_sketch(round_index).seed
    a.merge(b)  # must not raise


def test_rounds_use_independent_hashes(encoder):
    sketch = FlatNodeSketch(0, encoder, graph_seed=9)
    seeds = {sketch.round_sketch(r).seed for r in range(sketch.num_rounds)}
    assert len(seeds) == sketch.num_rounds


def test_apply_edge_and_query(encoder):
    sketch = FlatNodeSketch(3, encoder, graph_seed=1)
    sketch.apply_edge(7)
    for round_index in range(sketch.num_rounds):
        result = sketch.query_round(round_index)
        assert result.is_good
        assert encoder.decode(result.index) == (3, 7)


def test_apply_batch_equivalent_to_single_edges(encoder):
    a = FlatNodeSketch(2, encoder, graph_seed=5)
    b = FlatNodeSketch(2, encoder, graph_seed=5)
    for neighbor in (0, 5, 9):
        a.apply_edge(neighbor)
    b.apply_batch([0, 5, 9])
    for round_index in range(a.num_rounds):
        assert a.round_sketch(round_index) == b.round_sketch(round_index)


def test_shared_edge_cancels_when_merging_endpoints(encoder):
    """Edge {u, v} appears in both node sketches and must cancel on merge."""
    u_sketch = FlatNodeSketch(4, encoder, graph_seed=2)
    v_sketch = FlatNodeSketch(9, encoder, graph_seed=2)
    u_sketch.apply_edge(9)
    v_sketch.apply_edge(4)
    u_sketch.merge(v_sketch)
    assert u_sketch.is_empty()


def test_cut_edges_survive_component_merge(encoder):
    """Merging component {0,1} keeps only the edge crossing to node 2."""
    s0 = FlatNodeSketch(0, encoder, graph_seed=3)
    s1 = FlatNodeSketch(1, encoder, graph_seed=3)
    # edges: (0,1) internal, (1,2) crossing
    s0.apply_edge(1)
    s1.apply_edge(0)
    s1.apply_edge(2)
    merged = merged_round_sketch([s0, s1], round_index=0)
    result = merged.query()
    assert result.is_good
    assert encoder.decode(result.index) == (1, 2)


def test_merged_round_sketch_does_not_mutate_inputs(encoder):
    s0 = FlatNodeSketch(0, encoder, graph_seed=3)
    s1 = FlatNodeSketch(1, encoder, graph_seed=3)
    s0.apply_edge(1)
    s1.apply_edge(0)
    before = s0.round_sketch(0).copy()
    merged_round_sketch([s0, s1], 0)
    assert s0.round_sketch(0) == before


def test_merged_round_sketch_requires_input(encoder):
    with pytest.raises(ValueError):
        merged_round_sketch([], 0)


def test_merge_rejects_different_graph_seed(encoder):
    a = FlatNodeSketch(0, encoder, graph_seed=1)
    b = FlatNodeSketch(1, encoder, graph_seed=2)
    with pytest.raises(IncompatibleSketchError):
        a.merge(b)


def test_copy_is_deep(encoder):
    a = FlatNodeSketch(0, encoder, graph_seed=1)
    a.apply_edge(5)
    clone = a.copy()
    clone.apply_edge(7)
    assert a.round_sketch(0) != clone.round_sketch(0)


def test_size_bytes_accounts_all_rounds(encoder):
    sketch = FlatNodeSketch(0, encoder, graph_seed=0)
    rounds = [sketch.round_sketch(r) for r in range(sketch.num_rounds)]
    assert sketch.size_bytes() == sum(s.size_bytes() for s in rounds)
    assert sketch.size_bytes() == sketch.num_rounds * rounds[0].size_bytes()


@pytest.mark.parametrize("round_index", [-1, 4])
def test_round_ids_outside_the_bundle_are_rejected(encoder, round_index):
    """A negative round id used to wrap around to the last round."""
    sketch = FlatNodeSketch(0, encoder, graph_seed=0)
    sketch.apply_edge(3)
    assert sketch.num_rounds == 4
    for read in (sketch.round_sketch, sketch.round_arrays, sketch.query_round):
        with pytest.raises(ValueError, match="round"):
            read(round_index)
    with pytest.raises(ValueError, match="round"):
        merged_round_sketch([sketch, sketch.copy()], round_index=round_index)
