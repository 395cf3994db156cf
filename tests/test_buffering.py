"""Tests for the buffering layer: leaf gutters, gutter tree."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.buffering.base import (
    BYTES_PER_BUFFERED_UPDATE,
    PageBatch,
    gutter_capacity_updates,
)
from repro.buffering.gutter_tree import GutterTree
from repro.buffering.leaf_gutters import LeafGutters
from repro.exceptions import ConfigurationError
from repro.memory.hybrid import HybridMemory


# ----------------------------------------------------------------------
# capacity helpers
# ----------------------------------------------------------------------
def test_gutter_capacity_updates():
    assert gutter_capacity_updates(800, 0.5) == 50
    assert gutter_capacity_updates(8, 0.001) == 1  # clamps at the minimum
    with pytest.raises(ValueError):
        gutter_capacity_updates(0, 0.5)
    with pytest.raises(ValueError):
        gutter_capacity_updates(100, 0)


# ----------------------------------------------------------------------
# LeafGutters (default bounds: every node its own one-node page)
# ----------------------------------------------------------------------
def test_leaf_gutter_emits_batch_when_full():
    gutters = LeafGutters(num_nodes=10, capacity_updates=3)
    assert gutters.insert(0, 1) == []
    assert gutters.insert(0, 2) == []
    emitted = gutters.insert(0, 3)
    assert len(emitted) == 1
    batch = emitted[0]
    assert (batch.page, batch.node_lo, batch.node_hi) == (0, 0, 1)
    assert batch.dsts.tolist() == [0, 0, 0]
    assert batch.neighbors.tolist() == [1, 2, 3]
    assert gutters.pending_for(0) == 0


def test_leaf_gutter_capacity_from_sketch_size():
    gutters = LeafGutters(num_nodes=4, node_sketch_bytes=800, fraction=0.5)
    assert gutters.capacity_per_node == 50


def test_leaf_gutter_flush_all_returns_remaining():
    gutters = LeafGutters(num_nodes=10, capacity_updates=100)
    gutters.insert(1, 2)
    gutters.insert(3, 4)
    batches = gutters.flush_all()
    assert [(batch.node_lo, batch.node_hi) for batch in batches] == [(1, 2), (3, 4)]
    assert gutters.pending_updates() == 0


def test_leaf_gutter_insert_edge_buffers_both_directions():
    gutters = LeafGutters(num_nodes=10, capacity_updates=100)
    gutters.insert_edge(1, 2)
    assert gutters.pending_for(1) == 1
    assert gutters.pending_for(2) == 1


def test_leaf_gutter_rejects_bad_nodes_and_config():
    gutters = LeafGutters(num_nodes=4, capacity_updates=2)
    with pytest.raises(ValueError):
        gutters.insert(0, 9)
    with pytest.raises(ConfigurationError):
        LeafGutters(num_nodes=0, capacity_updates=1)
    with pytest.raises(ConfigurationError):
        LeafGutters(num_nodes=4)  # needs sketch bytes or explicit capacity
    with pytest.raises(ConfigurationError):
        LeafGutters(num_nodes=4, capacity_updates=0)


def test_leaf_gutter_charges_io_when_memory_bounded():
    memory = HybridMemory(ram_bytes=0, block_size=1024)
    gutters = LeafGutters(num_nodes=8, capacity_updates=2, memory=memory)
    gutters.insert(0, 1)
    gutters.insert(0, 2)
    assert memory.stats.bytes_read > 0


# ----------------------------------------------------------------------
# GutterTree
# ----------------------------------------------------------------------
def make_tree(**kwargs):
    defaults = dict(
        num_nodes=64,
        node_sketch_bytes=400,
        buffer_bytes=256,        # tiny buffers so flushes happen in tests
        flush_block_bytes=64,
        leaf_fraction=0.2,
    )
    defaults.update(kwargs)
    return GutterTree(**defaults)


def test_gutter_tree_structure():
    tree = make_tree()
    assert tree.fanout == 4
    assert tree.height >= 1
    assert tree.capacity_per_node == 10


def test_gutter_tree_buffers_until_root_fills():
    tree = make_tree()
    emitted = []
    for i in range(20):
        emitted.extend(tree.insert(i % 8, (i + 1) % 8))
    # Updates are buffered; some batches may or may not have been emitted
    # yet, but nothing is lost.
    assert tree.pending_updates() + sum(len(b) for b in emitted) == 20


def test_gutter_tree_flush_all_preserves_every_update():
    tree = make_tree()
    inserted = 0
    emitted = []
    for i in range(100):
        u = i % 16
        v = (i * 7 + 1) % 16
        if u == v:
            continue
        emitted.extend(tree.insert(u, v))
        inserted += 1
    emitted.extend(tree.flush_all())
    assert sum(len(batch) for batch in emitted) == inserted
    assert tree.pending_updates() == 0


def test_gutter_tree_batches_are_per_node():
    tree = make_tree()
    for _ in range(30):
        tree.insert(3, 5)
    batches = tree.flush_all()
    assert all((batch.node_lo, batch.node_hi) == (3, 4) for batch in batches)
    assert all((batch.dsts == 3).all() for batch in batches)
    assert sum(len(b) for b in batches) == 30


def test_gutter_tree_charges_device_traffic():
    memory = HybridMemory(ram_bytes=0, block_size=64)
    tree = make_tree(memory=memory)
    for i in range(200):
        tree.insert(i % 32, (i + 1) % 32)
    tree.flush_all()
    assert memory.stats.bytes_written > 0
    assert memory.stats.bytes_read > 0
    assert tree.flush_count > 0


def test_gutter_tree_validation():
    with pytest.raises(ConfigurationError):
        GutterTree(num_nodes=0, node_sketch_bytes=100)
    with pytest.raises(ConfigurationError):
        GutterTree(num_nodes=4, node_sketch_bytes=0)
    with pytest.raises(ConfigurationError):
        GutterTree(num_nodes=4, node_sketch_bytes=100, buffer_bytes=0)
    tree = make_tree()
    with pytest.raises(ValueError):
        tree.insert(0, 999)


# ----------------------------------------------------------------------
# Explicit page bounds: gutters keyed per node group
# ----------------------------------------------------------------------
def test_page_batch_len_and_size():
    batch = PageBatch(
        page=2, node_lo=8, node_hi=12,
        dsts=np.asarray([8, 9, 8]), neighbors=np.asarray([1, 2, 3]),
    )
    assert len(batch) == 3
    assert batch.size_bytes == 3 * BYTES_PER_BUFFERED_UPDATE


def test_leaf_gutters_page_mode_emits_mixed_node_columns():
    bounds = np.asarray([0, 4, 8, 10])
    gutters = LeafGutters(num_nodes=10, capacity_updates=2, page_bounds=bounds)
    # Page 0 holds nodes 0-3 with capacity 2 * 4 = 8 updates.
    emitted = []
    for i in range(7):
        emitted.extend(gutters.insert(i % 4, 9))
    assert emitted == []
    assert gutters.pending_for(0) == 2
    emitted.extend(gutters.insert(3, 9))  # 8th update fills page 0
    assert len(emitted) == 1
    batch = emitted[0]
    assert isinstance(batch, PageBatch)
    assert (batch.page, batch.node_lo, batch.node_hi) == (0, 0, 4)
    assert batch.dsts.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]
    assert gutters.pending_updates() == 0


def test_leaf_gutters_page_mode_insert_batch_and_flush():
    bounds = np.asarray([0, 4, 8, 10])
    gutters = LeafGutters(num_nodes=10, capacity_updates=100, page_bounds=bounds)
    gutters.insert_batch(np.asarray([0, 5, 9, 1]), np.asarray([2, 6, 3, 7]))
    assert gutters.pending_updates() == 4
    batches = gutters.flush_all()
    assert [b.page for b in batches] == [0, 1, 2]
    assert batches[0].dsts.tolist() == [0, 1]       # insertion order kept
    assert batches[0].neighbors.tolist() == [2, 7]
    assert batches[2].dsts.tolist() == [9]
    assert gutters.pending_updates() == 0


def test_gutter_tree_page_mode_emits_page_batches():
    bounds = np.asarray([0, 8, 16])
    tree = make_tree(num_nodes=16, page_bounds=bounds)
    emitted = []
    for i in range(200):
        emitted.extend(tree.insert(i % 16, (i + 3) % 16))
    emitted.extend(tree.flush_all())
    assert all(isinstance(b, PageBatch) for b in emitted)
    assert sum(len(b) for b in emitted) == 200
    assert tree.pending_updates() == 0
    for batch in emitted:
        assert ((batch.dsts >= batch.node_lo) & (batch.dsts < batch.node_hi)).all()


# ----------------------------------------------------------------------
# The tree against its own leaves: same updates out, per page
# ----------------------------------------------------------------------
_NODES = 16
_node = st.integers(0, _NODES - 1)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _node, _node),
        st.tuples(st.just("insert_batch"), st.lists(st.tuples(_node, _node), max_size=40)),
        st.tuples(st.just("restore"), st.integers(0, 4)),
        st.tuples(st.just("flush_all")),
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(cuts=st.sets(st.integers(1, _NODES - 1), max_size=6), operations=_operations)
def test_gutter_tree_emits_what_its_leaves_emit(cuts, operations):
    """Tiny buffers (three updates per vertex, fan-out 2, four levels, two
    updates per leaf node): under any interleaving of ``insert``,
    ``insert_batch``, ``restore`` (of the last few batches each structure
    emitted) and ``flush_all``, the tree and plain leaf gutters over the
    same pages emit the same ``(dst, neighbor)`` multiset per page, every
    batch inside its page, and nothing stays pending."""
    bounds = np.asarray([0, *sorted(cuts), _NODES])
    tree = GutterTree(
        _NODES, node_sketch_bytes=16, buffer_bytes=24, flush_block_bytes=12,
        leaf_fraction=1.0, page_bounds=bounds,
    )
    leaves = LeafGutters(_NODES, capacity_updates=2, page_bounds=bounds)
    assert (tree.height, tree.fanout, tree.capacity_per_node) == (4, 2, 2)
    emitted = {tree: [], leaves: []}
    for name, *args in operations:
        for gutters, batches in emitted.items():
            if name == "insert":
                batches.extend(gutters.insert(*args))
            elif name == "insert_batch":
                columns = np.asarray(args[0], dtype=np.int64).reshape(-1, 2)
                batches.extend(gutters.insert_batch(columns[:, 0], columns[:, 1]))
            elif name == "restore":
                count = min(args[0], len(batches))
                gutters.restore(batches[len(batches) - count :])
                del batches[len(batches) - count :]
            else:
                batches.extend(gutters.flush_all())
    emitted[tree].extend(tree.flush_all())
    emitted[leaves].extend(leaves.flush_all())

    def per_page(batches):
        for batch in batches:
            assert (batch.node_lo, batch.node_hi) == tuple(bounds[batch.page : batch.page + 2])
            assert ((batch.dsts >= batch.node_lo) & (batch.dsts < batch.node_hi)).all()
        return Counter(
            (batch.page, dst, neighbor)
            for batch in batches
            for dst, neighbor in zip(batch.dsts.tolist(), batch.neighbors.tolist())
        )

    assert per_page(emitted[tree]) == per_page(emitted[leaves])
    assert tree.pending_updates() == leaves.pending_updates() == 0
