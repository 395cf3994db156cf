"""Three node-sketch columns at the default delta, and what that keeps.

:func:`~repro.sketch.geometry.node_sketch_columns` caps a node sketch at
3 columns for ``delta >= 0.01``.  Per-(round, column) hash seeds do not
depend on the column count, so the 3-column pool is a prefix of the
7-column one that ``delta = 1/128`` still builds: same buckets, bit for
bit, in every pool layout and under both kernel providers.  A snapshot
the 7-column rule wrote at ``delta = 0.01`` is refused with a typed
error that names both column counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.distributed.snapshot import read_snapshot_meta
from repro.exceptions import RecoveryError, StreamFormatError
from repro.resilience.checkpoint import CheckpointPolicy, recover_latest
from repro.sketch import geometry as geometry_module
from repro.sketch.tensor_pool import NodeTensorPool
from sketch_reference import SEVEN_COLUMN_DELTA, pool_geometry

NUM_NODES = 300


def _edges(seed: int, count: int = 4000) -> np.ndarray:
    """Random pairs with repeats, so some updates toggle an edge back out."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, NUM_NODES, count)
    v = (u + 1 + rng.integers(0, NUM_NODES - 1, count)) % NUM_NODES
    return np.stack([u, v], axis=1)


def _engine(delta: float, paged: bool, kernels: str, **settings) -> GraphZeppelin:
    budget = None
    if paged:
        state = GraphZeppelin(NUM_NODES, GraphZeppelinConfig(delta=delta)).sketch_bytes()
        budget = state // 4
    config = GraphZeppelinConfig(
        delta=delta, seed=17, kernel_backend=kernels, ram_budget_bytes=budget, **settings
    )
    return GraphZeppelin(NUM_NODES, config)


@pytest.mark.parametrize("kernels", ["numpy", "native"])
@pytest.mark.parametrize("paged", [False, True], ids=["flat", "paged"])
def test_default_pool_is_the_first_three_columns_of_the_seven_column_pool(
    request, paged, kernels
):
    if kernels == "native":
        request.getfixturevalue("native_provider")  # skips when none is usable
    default = _engine(0.01, paged, kernels)
    seven = _engine(SEVEN_COLUMN_DELTA, paged, kernels)
    assert (default.geometry.columns, seven.geometry.columns) == (3, 7)
    assert default.tensor_pool.is_paged is seven.tensor_pool.is_paged is paged
    edges = _edges(seed=5)
    for engine in (default, seven):
        for start in range(0, edges.shape[0], 1000):
            engine.ingest_batch(edges[start : start + 1000])
        engine.flush()
    for short, full in zip(default.tensor_pool.raw_tensors(), seven.tensor_pool.raw_tensors()):
        assert short.any()
        assert np.array_equal(short, full[:, :, :3, :])
    assert seven.sketch_bytes() * 3 == default.sketch_bytes() * 7


@pytest.mark.parametrize("wide", [False, True], ids=["packed", "wide"])
def test_prefix_holds_in_both_bucket_modes(wide):
    encoder = EdgeEncoder(NUM_NODES)
    pools = [
        NodeTensorPool(
            NUM_NODES,
            encoder,
            graph_seed=8,
            geometry=pool_geometry(NUM_NODES, wide=wide, delta=delta),
        )
        for delta in (0.01, SEVEN_COLUMN_DELTA)
    ]
    edges = _edges(seed=6)
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    for pool in pools:
        pool.apply_edges(lo, hi, encoder.encode_canonical_pairs(lo, hi))
    for short, full in zip(pools[0].raw_tensors(), pools[1].raw_tensors()):
        assert np.array_equal(short, full[:, :, :3, :])


# ----------------------------------------------------------------------
# snapshots: the column count is part of the typed compatibility check
# ----------------------------------------------------------------------
@pytest.fixture
def seven_column_rule(monkeypatch):
    """The pre-cap rule: the paper's ``ceil(log2 1/delta)`` at every delta.
    An engine built under it at ``delta = 0.01`` writes what that build
    wrote: 7 columns recorded at ``delta = 0.01``."""
    monkeypatch.setattr(
        geometry_module, "node_sketch_columns", geometry_module.cubesketch_num_columns
    )
    return monkeypatch


#: What an engine built at ``delta = 0.01`` says of a 7-column snapshot.
ENGINE_MISMATCH = r"geometry mismatch \(snapshot .*columns=7.*, pool .*columns=3"


def _seven_column_snapshot(path, seven_column_rule):
    engine = GraphZeppelin(NUM_NODES, GraphZeppelinConfig(seed=17, validate_stream=False))
    assert engine.geometry.columns == 7
    engine.ingest_batch(_edges(seed=7, count=500))
    engine.save_snapshot(path)
    seven_column_rule.undo()
    return path


def test_seven_column_snapshot_at_the_default_delta_is_refused(tmp_path, seven_column_rule):
    path = _seven_column_snapshot(tmp_path / "seven.snap", seven_column_rule)
    meta = read_snapshot_meta(path)
    assert (meta.geometry.columns, meta.geometry.delta) == (7, 0.01)
    with pytest.raises(StreamFormatError, match=ENGINE_MISMATCH):
        GraphZeppelin.load_snapshot(path)
    with pytest.raises(StreamFormatError, match=ENGINE_MISMATCH):
        GraphZeppelin.load_snapshot(
            path, config=GraphZeppelinConfig(seed=17, validate_stream=False)
        )
    with pytest.raises(StreamFormatError, match=ENGINE_MISMATCH):
        GraphZeppelin(NUM_NODES, GraphZeppelinConfig(seed=17)).merge_snapshots([path])


def test_seven_column_checkpoint_is_refused_on_recovery(tmp_path, seven_column_rule):
    engine = GraphZeppelin(NUM_NODES, GraphZeppelinConfig(seed=17, validate_stream=False))
    engine.attach_checkpointer(tmp_path, policy=CheckpointPolicy(every_n_updates=100, keep=2))
    engine.ingest_batch(_edges(seed=7, count=300))
    assert list(tmp_path.glob("ckpt-*.snap"))
    seven_column_rule.undo()
    with pytest.raises(RecoveryError, match=ENGINE_MISMATCH):
        recover_latest(tmp_path)


def test_seven_column_delta_snapshot_round_trips(tmp_path):
    engine = _engine(SEVEN_COLUMN_DELTA, paged=False, kernels="numpy", validate_stream=False)
    engine.ingest_batch(_edges(seed=9))
    path = tmp_path / "seven.snap"
    engine.save_snapshot(path)
    assert read_snapshot_meta(path).geometry == engine.geometry
    loaded = GraphZeppelin.load_snapshot(path)
    assert loaded.geometry.columns == 7
    merged = GraphZeppelin(NUM_NODES, GraphZeppelinConfig(seed=17, delta=SEVEN_COLUMN_DELTA))
    merged.merge_snapshots([path])
    for tensors in (loaded.tensor_pool.raw_tensors(), merged.tensor_pool.raw_tensors()):
        for got, want in zip(tensors, engine.tensor_pool.raw_tensors()):
            assert np.array_equal(got, want)
    assert loaded.list_spanning_forest().edges == engine.list_spanning_forest().edges
