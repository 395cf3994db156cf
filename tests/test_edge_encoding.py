"""Tests for the edge <-> vector-index encoding."""

import numpy as np
import pytest

from repro.core.edge_encoding import EdgeEncoder
from repro.exceptions import ConfigurationError


def test_roundtrip_all_edges_small_graph():
    encoder = EdgeEncoder(10)
    for u in range(10):
        for v in range(u + 1, 10):
            index = encoder.encode(u, v)
            assert encoder.decode(index) == (u, v)
            assert encoder.is_valid_index(index)


def test_encode_is_order_insensitive():
    encoder = EdgeEncoder(100)
    assert encoder.encode(3, 97) == encoder.encode(97, 3)


def test_distinct_edges_get_distinct_indices():
    encoder = EdgeEncoder(32)
    indices = {
        encoder.encode(u, v) for u in range(32) for v in range(u + 1, 32)
    }
    assert len(indices) == 32 * 31 // 2


def test_vector_length_covers_all_indices():
    encoder = EdgeEncoder(17)
    max_index = max(
        encoder.encode(u, v) for u in range(17) for v in range(u + 1, 17)
    )
    assert max_index < encoder.vector_length


def test_self_loop_rejected():
    encoder = EdgeEncoder(10)
    with pytest.raises(ValueError):
        encoder.encode(3, 3)


def test_out_of_range_node_rejected():
    encoder = EdgeEncoder(10)
    with pytest.raises(ValueError):
        encoder.encode(0, 10)
    with pytest.raises(ValueError):
        encoder.encode(-1, 5)


def test_decode_rejects_non_canonical_indices():
    encoder = EdgeEncoder(10)
    # index of (v, u) with v > u is not a canonical slot
    bad_index = 7 * 10 + 2
    assert not encoder.is_valid_index(bad_index)
    with pytest.raises(ValueError):
        encoder.decode(bad_index)


def test_decode_rejects_out_of_universe_index():
    encoder = EdgeEncoder(10)
    with pytest.raises(ValueError):
        encoder.decode(100)
    assert not encoder.is_valid_index(100)
    assert not encoder.is_valid_index(-1)


def test_diagonal_indices_invalid():
    encoder = EdgeEncoder(10)
    for node in range(10):
        assert not encoder.is_valid_index(node * 10 + node)


def test_encode_batch_matches_scalar():
    encoder = EdgeEncoder(50)
    node = 7
    neighbors = [0, 3, 12, 49]
    batch = encoder.encode_batch(node, neighbors)
    assert batch.tolist() == [encoder.encode(node, w) for w in neighbors]


def test_encode_batch_empty():
    encoder = EdgeEncoder(50)
    assert encoder.encode_batch(3, []).size == 0


def test_encode_batch_rejects_self_loop_and_range():
    encoder = EdgeEncoder(50)
    with pytest.raises(ValueError):
        encoder.encode_batch(3, [3])
    with pytest.raises(ValueError):
        encoder.encode_batch(3, [50])


def test_requires_two_nodes():
    with pytest.raises(ConfigurationError):
        EdgeEncoder(1)
