"""Tests for the graph-to-stream conversion (paper Section 6.1 rules)."""

import hashlib

import pytest

from repro.exceptions import GraphGenerationError
from repro.generators.erdos_renyi import erdos_renyi_gnm
from repro.streaming.generator import StreamConversionSettings, graph_to_stream
from repro.streaming.validation import validate_stream


def conversion(num_nodes=40, num_edges=80, **kwargs):
    _, edges = erdos_renyi_gnm(num_nodes, num_edges, seed=kwargs.pop("graph_seed", 1))
    settings = StreamConversionSettings(**kwargs) if kwargs else None
    return edges, graph_to_stream(num_nodes, edges, settings=settings)


def test_stream_is_valid_dynamic_graph_stream():
    _, stream = conversion(seed=2, churn_fraction=0.5, reinsert_fraction=0.3)
    report = validate_stream(stream)
    assert report.valid, report.first_violation


def test_rule_i_insert_before_delete():
    """Every deletion must be preceded by a matching insertion."""
    _, stream = conversion(seed=3, churn_fraction=1.0)
    live = set()
    for update in stream:
        if update.is_insert:
            assert update.edge not in live
            live.add(update.edge)
        else:
            assert update.edge in live
            live.remove(update.edge)


def test_rule_ii_no_consecutive_same_type_per_edge():
    _, stream = conversion(seed=4, churn_fraction=0.5, reinsert_fraction=0.5)
    last_kind = {}
    for update in stream:
        if update.edge in last_kind:
            assert last_kind[update.edge] != update.kind
        last_kind[update.edge] = update.kind


def test_rule_iii_disconnected_nodes_are_isolated():
    edges, stream = conversion(num_nodes=50, num_edges=120, seed=5, disconnect_nodes=6)
    final = stream.final_edges()
    # Nodes incident to no final edge exist (the disconnected set), and
    # every final edge is one of the input edges.
    final_nodes = {node for edge in final for node in edge}
    assert len(final_nodes) < 50
    assert final <= set(edges)


def test_rule_iv_final_graph_is_input_minus_disconnected():
    edges, stream = conversion(num_nodes=30, num_edges=60, seed=6, disconnect_nodes=0)
    assert stream.final_edges() == set(edges)


def test_churn_edges_do_not_survive():
    edges, stream = conversion(num_nodes=30, num_edges=40, seed=7, churn_fraction=2.0,
                               disconnect_nodes=0)
    assert stream.final_edges() == set(edges)
    # Churn made the stream strictly longer than the edge count.
    assert len(stream) > len(edges)


def test_reinserted_edges_survive():
    edges, stream = conversion(
        num_nodes=30, num_edges=40, seed=8, disconnect_nodes=0, reinsert_fraction=1.0
    )
    assert stream.final_edges() == set(edges)
    inserts, deletes = stream.counts()
    assert deletes > 0


def test_conversion_is_deterministic_per_seed():
    _, stream_a = conversion(seed=9)
    _, stream_b = conversion(seed=9)
    assert [ (u.edge, u.kind) for u in stream_a ] == [ (u.edge, u.kind) for u in stream_b ]
    _, stream_c = conversion(seed=10)
    assert [ (u.edge, u.kind) for u in stream_a ] != [ (u.edge, u.kind) for u in stream_c ]


def test_conversion_reproduces_the_streams_of_earlier_versions():
    # The interleave is vectorised; a seed must still name the same
    # stream (digest recorded when updates were shuffled as objects).
    num_nodes, edges = erdos_renyi_gnm(40, 150, seed=2)
    stream = graph_to_stream(
        num_nodes,
        edges,
        settings=StreamConversionSettings(
            seed=2, churn_fraction=0.5, reinsert_fraction=0.4, disconnect_nodes=3
        ),
    )
    assert len(stream) == 424
    assert hashlib.sha256(stream.rows.astype("<i8").tobytes()).hexdigest() == (
        "03db11962b8fb1c746836712337d8889c4d59bfb984fc408a931616feaa63c9c"
    )


def test_duplicate_input_edges_are_collapsed():
    stream = graph_to_stream(5, [(0, 1), (1, 0), (0, 1)],
                             settings=StreamConversionSettings(disconnect_nodes=0, seed=0))
    assert stream.final_edges() == {(0, 1)}


def test_disconnect_clamped_for_tiny_graphs():
    stream = graph_to_stream(3, [(0, 1), (1, 2)],
                             settings=StreamConversionSettings(disconnect_nodes=100, seed=1))
    report = validate_stream(stream)
    assert report.valid


def test_invalid_settings_rejected():
    with pytest.raises(GraphGenerationError):
        StreamConversionSettings(churn_fraction=-1)
    with pytest.raises(GraphGenerationError):
        StreamConversionSettings(disconnect_nodes=-1)
