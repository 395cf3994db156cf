"""Additional property-based tests on core data structures and invariants.

These extend the CubeSketch properties with invariants of the
surrounding machinery: edge encoding, DSU behaviour, node-sketch
linearity at the graph level, and stream conversion legality.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.dsu import DisjointSetUnion
from repro.core.edge_encoding import EdgeEncoder
from repro.sketch.flat_node_sketch import FlatNodeSketch
from repro.streaming.generator import StreamConversionSettings, graph_to_stream
from repro.streaming.validation import validate_stream

NUM_NODES = 32

nodes = st.integers(min_value=0, max_value=NUM_NODES - 1)
edge_pairs = st.tuples(nodes, nodes).filter(lambda pair: pair[0] != pair[1])
edge_lists = st.lists(edge_pairs, min_size=0, max_size=40)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ----------------------------------------------------------------------
# edge encoding
# ----------------------------------------------------------------------
@given(pair=edge_pairs)
@settings(max_examples=200, deadline=None)
def test_encode_decode_roundtrip(pair):
    encoder = EdgeEncoder(NUM_NODES)
    index = encoder.encode(*pair)
    u, v = encoder.decode(index)
    assert {u, v} == {pair[0], pair[1]}
    assert encoder.is_valid_index(index)


@given(first=edge_pairs, second=edge_pairs)
@settings(max_examples=200, deadline=None)
def test_encoding_is_injective_on_edges(first, second):
    encoder = EdgeEncoder(NUM_NODES)
    same_edge = {first[0], first[1]} == {second[0], second[1]}
    same_index = encoder.encode(*first) == encoder.encode(*second)
    assert same_edge == same_index


# ----------------------------------------------------------------------
# DSU invariants
# ----------------------------------------------------------------------
@given(edges=edge_lists)
@settings(max_examples=100, deadline=None)
def test_dsu_components_partition_the_nodes(edges):
    dsu = DisjointSetUnion(NUM_NODES)
    dsu.add_edges(edges)
    components = dsu.components()
    all_nodes = sorted(node for component in components for node in component)
    assert all_nodes == list(range(NUM_NODES))
    assert len(components) == dsu.num_components
    # Connectivity is an equivalence relation consistent with the labels.
    labels = dsu.component_labels()
    for u, v in edges:
        assert labels[u] == labels[v]


@given(edges=edge_lists)
@settings(max_examples=100, deadline=None)
def test_dsu_component_count_decreases_by_successful_unions(edges):
    dsu = DisjointSetUnion(NUM_NODES)
    successful = 0
    for u, v in edges:
        if dsu.union(u, v):
            successful += 1
    assert dsu.num_components == NUM_NODES - successful


# ----------------------------------------------------------------------
# node-sketch linearity at the graph level
# ----------------------------------------------------------------------
@given(edges=edge_lists, seed=seeds)
@settings(max_examples=50, deadline=None)
def test_component_merge_cancels_internal_edges(edges, seed):
    """XOR of all node sketches in the whole graph is the empty sketch.

    Every edge appears in exactly two node vectors, so summing *all*
    characteristic vectors cancels everything -- the graph-level version
    of the linearity property.
    """
    encoder = EdgeEncoder(NUM_NODES)
    sketches = [FlatNodeSketch(v, encoder, graph_seed=seed) for v in range(NUM_NODES)]
    # Apply each update to both endpoints (duplicates allowed: they toggle).
    for u, v in edges:
        sketches[u].apply_edge(v)
        sketches[v].apply_edge(u)
    total = sketches[0].copy()
    for sketch in sketches[1:]:
        total.merge(sketch)
    assert total.is_empty()


@given(edges=edge_lists, seed=seeds)
@settings(max_examples=50, deadline=None)
def test_single_node_sketch_samples_incident_edges(edges, seed):
    encoder = EdgeEncoder(NUM_NODES)
    node = 0
    sketch = FlatNodeSketch(node, encoder, graph_seed=seed)
    incident = Counter()
    for u, v in edges:
        if node in (u, v):
            other = v if u == node else u
            incident[other] += 1
            sketch.apply_edge(other)
    live_neighbors = {other for other, count in incident.items() if count % 2 == 1}
    result = sketch.query_round(0)
    if not live_neighbors:
        assert result.is_zero
    elif result.is_good:
        u, v = encoder.decode(result.index)
        assert {u, v} - {node} <= live_neighbors


# ----------------------------------------------------------------------
# stream conversion legality
# ----------------------------------------------------------------------
@given(
    edges=edge_lists,
    seed=seeds,
    churn=st.floats(min_value=0.0, max_value=1.5),
    reinsert=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=50, deadline=None)
def test_graph_to_stream_always_produces_legal_streams(edges, seed, churn, reinsert):
    settings_obj = StreamConversionSettings(
        churn_fraction=churn,
        reinsert_fraction=reinsert,
        disconnect_nodes=2,
        seed=seed,
    )
    stream = graph_to_stream(NUM_NODES, edges, settings=settings_obj)
    report = validate_stream(stream)
    assert report.valid, report.first_violation
    # The final graph never contains an edge absent from the input.
    canonical_input = {(min(u, v), max(u, v)) for u, v in edges}
    assert stream.final_edges() <= canonical_input
