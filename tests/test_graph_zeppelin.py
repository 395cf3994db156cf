"""Unit tests for the GraphZeppelin engine's public API and bookkeeping."""

import numpy as np
import pytest

from repro.core.config import BufferingMode, GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import ConfigurationError, InvalidStreamError
from repro.types import EdgeUpdate, UpdateType


def test_requires_at_least_two_nodes():
    with pytest.raises(ConfigurationError):
        GraphZeppelin(1)


def test_empty_graph_has_all_singletons():
    gz = GraphZeppelin(8, config=GraphZeppelinConfig(seed=1))
    forest = gz.list_spanning_forest()
    assert forest.num_components == 8
    assert forest.num_edges == 0


def test_insert_and_query_small_graph(gz_small):
    gz_small.insert(0, 1)
    gz_small.insert(1, 2)
    gz_small.insert(4, 5)
    forest = gz_small.list_spanning_forest()
    assert forest.connected(0, 2)
    assert forest.connected(4, 5)
    assert not forest.connected(0, 4)
    assert forest.num_components == 16 - 4 + 1  # 13 components


def test_delete_disconnects(gz_small):
    gz_small.insert(0, 1)
    gz_small.insert(1, 2)
    gz_small.delete(1, 2)
    forest = gz_small.list_spanning_forest()
    assert forest.connected(0, 1)
    assert not forest.connected(1, 2)


def test_edge_update_is_a_toggle():
    gz = GraphZeppelin(8, config=GraphZeppelinConfig(seed=3))
    gz.edge_update(2, 3)
    assert gz.list_spanning_forest().connected(2, 3)
    gz.edge_update(2, 3)
    assert not gz.list_spanning_forest().connected(2, 3)


def test_stream_can_continue_after_query():
    gz = GraphZeppelin(8, config=GraphZeppelinConfig(seed=4))
    gz.insert(0, 1)
    assert gz.list_spanning_forest().connected(0, 1)
    gz.insert(1, 2)
    forest = gz.list_spanning_forest()
    assert forest.connected(0, 2)


def test_validation_rejects_double_insert():
    gz = GraphZeppelin(8, config=GraphZeppelinConfig(validate_stream=True))
    gz.insert(0, 1)
    with pytest.raises(InvalidStreamError):
        gz.insert(1, 0)


def test_validation_rejects_delete_of_absent_edge():
    gz = GraphZeppelin(8, config=GraphZeppelinConfig(validate_stream=True))
    with pytest.raises(InvalidStreamError):
        gz.delete(0, 1)


def test_without_validation_no_edge_tracking():
    gz = GraphZeppelin(8, config=GraphZeppelinConfig(validate_stream=False))
    gz.insert(0, 1)
    gz.insert(0, 1)  # silently toggles the edge away again
    assert not gz.list_spanning_forest().connected(0, 1)


def test_self_loop_rejected():
    gz = GraphZeppelin(8)
    with pytest.raises(ValueError):
        gz.edge_update(3, 3)


def test_out_of_range_node_rejected():
    gz = GraphZeppelin(8)
    with pytest.raises(ValueError):
        gz.edge_update(0, 8)


def test_apply_update_and_ingest():
    gz = GraphZeppelin(8, config=GraphZeppelinConfig(seed=5))
    updates = [
        EdgeUpdate(0, 1, UpdateType.INSERT),
        EdgeUpdate(1, 2, UpdateType.INSERT),
        EdgeUpdate(0, 1, UpdateType.DELETE),
    ]
    assert gz.ingest(updates) == 3
    forest = gz.list_spanning_forest()
    assert forest.connected(1, 2)
    assert not forest.connected(0, 1)
    assert gz.updates_processed == 3


def test_connected_components_and_counts():
    gz = GraphZeppelin(6, config=GraphZeppelinConfig(seed=6))
    gz.insert(0, 1)
    gz.insert(2, 3)
    components = gz.connected_components()
    assert {0, 1} in components and {2, 3} in components
    assert gz.num_connected_components() == 4
    assert gz.is_connected(0, 1)
    assert not gz.is_connected(0, 2)


def test_all_buffering_modes_agree_on_result(small_stream):
    partitions = []
    for mode in (BufferingMode.NONE, BufferingMode.LEAF_GUTTERS, BufferingMode.GUTTER_TREE):
        gz = GraphZeppelin(
            small_stream.num_nodes,
            config=GraphZeppelinConfig(buffering=mode, seed=17),
        )
        for update in small_stream:
            gz.edge_update(update.u, update.v)
        partitions.append(gz.list_spanning_forest().partition_signature())
    assert partitions[0] == partitions[1] == partitions[2]


def test_buffered_updates_are_flushed_on_query():
    gz = GraphZeppelin(
        64, config=GraphZeppelinConfig(buffering=BufferingMode.LEAF_GUTTERS, seed=2)
    )
    gz.insert(10, 20)
    assert gz.buffering is not None
    # The update is still sitting in a gutter (capacity >> 1 update)...
    assert gz.buffering.pending_updates() > 0
    # ...but the query must flush it and see the edge.
    assert gz.list_spanning_forest().connected(10, 20)
    assert gz.buffering.pending_updates() == 0


def test_space_accounting():
    gz = GraphZeppelin(32, config=GraphZeppelinConfig(seed=1))
    assert gz.node_sketch_bytes > 0
    assert gz.sketch_bytes() == 32 * gz.node_sketch_bytes
    assert gz.total_bytes() >= gz.sketch_bytes()
    gz.insert(0, 1)
    assert gz.buffer_bytes() >= 0


def test_query_stats_exposed():
    gz = GraphZeppelin(8, config=GraphZeppelinConfig(seed=9))
    gz.insert(0, 1)
    gz.list_spanning_forest()
    stats = gz.last_query_stats
    assert stats is not None
    assert stats.merges >= 1
    assert stats.rounds_used >= 1


def test_io_stats_none_when_fully_in_ram():
    gz = GraphZeppelin(8)
    assert gz.io_stats is None


def test_io_stats_present_with_ram_budget():
    gz = GraphZeppelin(
        16, config=GraphZeppelinConfig(ram_budget_bytes=64 * 1024, seed=3)
    )
    gz.insert(0, 1)
    gz.list_spanning_forest()
    assert gz.io_stats is not None


def test_repr_mentions_mode():
    gz = GraphZeppelin(8)
    assert "GraphZeppelin" in repr(gz)
    assert "leaf_gutters" in repr(gz)


def test_node_sketch_accessor():
    gz = GraphZeppelin(8, config=GraphZeppelinConfig(buffering=BufferingMode.NONE, seed=1))
    gz.insert(2, 5)
    sketch = gz.node_sketch(2)
    result = sketch.query_round(0)
    assert result.is_good


def test_query_node_ids_outside_the_graph_are_rejected():
    """``labels[-1]`` is node 7: ``is_connected(-1, 0)`` used to answer True."""
    gz = GraphZeppelin(8, config=GraphZeppelinConfig(seed=1))
    gz.insert(0, 7)
    assert gz.is_connected(7, 0)
    for u, v in ((-1, 0), (0, -1), (0, 8)):
        with pytest.raises(ValueError, match="outside"):
            gz.is_connected(u, v)
    forest = gz.list_spanning_forest()
    for node in (-1, 8):
        with pytest.raises(ValueError, match="outside"):
            forest.component_of(node)


@pytest.mark.parametrize("validate", [False, True])
@pytest.mark.parametrize(
    "edges",
    [np.array([[0.9, 2.2]]), np.array([[0.0, 2.0]]), np.array([[True, False]])],
    ids=["fractional", "integral-float", "bool"],
)
def test_non_integer_batch_endpoints_are_rejected(edges, validate):
    """``[[0.9, 2.2]]`` used to be truncated to the edge (0, 2)."""
    gz = GraphZeppelin(8, config=GraphZeppelinConfig(seed=1, validate_stream=validate))
    with pytest.raises(InvalidStreamError, match="integer"):
        gz.ingest_batch(edges)
    assert gz.updates_processed == 0
    assert gz.num_connected_components() == 8


@pytest.mark.parametrize("buffering", [BufferingMode.NONE, BufferingMode.LEAF_GUTTERS])
@pytest.mark.parametrize("method", ["insert", "delete", "edge_update"])
def test_non_integer_point_endpoints_are_rejected(buffering, method):
    """``insert(0.5, 3)`` used to join nodes 0 and 3."""
    gz = GraphZeppelin(8, config=GraphZeppelinConfig(seed=1, buffering=buffering))
    for u, v in ((0.5, 3), (0, 3.0), (np.float64(1.0), 2)):
        with pytest.raises(ValueError, match="integer"):
            getattr(gz, method)(u, v)
    assert gz.updates_processed == 0
    gz.insert(np.int64(0), np.int32(3))
    assert gz.is_connected(0, 3)
