"""One ``SketchGeometry``: derived once, validated once, read everywhere.

The rounds / columns / rows formulas and the bucket mode come out of
:meth:`SketchGeometry.for_graph` and nowhere else.  The central test
swaps that builder for a smaller geometry and drives the whole engine
-- flat and paged pools, numpy and native kernels -- through it: every
tensor, byte count, answer and snapshot must follow, and a pool of the
real default geometry must refuse to mix with the result.  A site that
still derived its own rounds or columns would disagree and fail here.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.distributed.snapshot import load_pool_snapshot, read_snapshot_meta
from repro.exceptions import ConfigurationError, StreamFormatError
from repro.sketch.geometry import SketchGeometry, cubesketch_num_columns, node_sketch_columns
from repro.sketch.tensor_pool import NodeTensorPool
from repro.types import EdgeUpdate, UpdateType
from sketch_reference import SEVEN_COLUMN_DELTA
from stream_oracle import ListStream

NUM_NODES = 256


def test_default_geometry_formulas():
    geometry = SketchGeometry.for_graph(20_000, SEVEN_COLUMN_DELTA)
    assert (geometry.rounds, geometry.columns, geometry.rows) == (15, 7, 30)
    # The paper's 12 B per bucket; the packed pool allocates 8.
    assert geometry.accounted_bytes_per_node == 37_800
    assert geometry.allocated_bytes_per_node == 25_200
    assert SketchGeometry.for_graph(1024, delta=0.125).columns == 3


def test_default_delta_builds_three_columns():
    geometry = SketchGeometry.for_graph(20_000)
    assert (geometry.rounds, geometry.columns, geometry.rows) == (15, 3, 30)
    assert geometry.accounted_bytes_per_node == 16_200
    assert geometry.allocated_bytes_per_node == 10_800
    assert geometry == replace(SketchGeometry.for_graph(20_000, SEVEN_COLUMN_DELTA), columns=3)


@pytest.mark.parametrize(
    "delta, columns",
    [(0.5, 1), (0.25, 2), (0.125, 3), (0.05, 3), (0.01, 3), (0.0099, 7), (1 / 128, 7), (1e-3, 10)],
)
def test_node_sketch_columns(delta, columns):
    """Capped at 3 where the reliability harness certifies it, the paper's
    ``ceil(log2 1/delta)`` below 1/100; the standalone CubeSketch keeps
    the paper's count everywhere."""
    assert node_sketch_columns(delta) == columns
    assert cubesketch_num_columns(delta) >= columns
    assert cubesketch_num_columns(0.01) == 7


@pytest.mark.parametrize("num_nodes, packed", [(65_536, True), (65_537, False)])
def test_packed_wide_boundary(num_nodes, packed):
    geometry = SketchGeometry.for_graph(num_nodes)
    assert geometry.packed is packed
    assert geometry.allocated_bytes_per_node == geometry.buckets_per_node * (8 if packed else 12)
    if not packed:
        with pytest.raises(ConfigurationError, match="packed"):
            replace(geometry, packed=True)


@pytest.mark.parametrize("rounds", [0, -1])
def test_pool_with_fewer_than_one_round_is_rejected(rounds):
    """A 0-round geometry once built a ``(0, 64, 7, 13)`` pool; -1 hit numpy."""
    with pytest.raises(ConfigurationError, match="at least one round"):
        NodeTensorPool(
            64, EdgeEncoder(64), geometry=replace(SketchGeometry.for_graph(64), rounds=rounds)
        )


def test_geometry_validation():
    geometry = SketchGeometry.for_graph(64)
    with pytest.raises(ConfigurationError, match="column"):
        replace(geometry, columns=0)
    with pytest.raises(ConfigurationError, match="rows"):
        replace(geometry, rows=geometry.rows + 1)
    with pytest.raises(ConfigurationError, match="two nodes"):
        SketchGeometry.for_graph(1)
    with pytest.raises(ConfigurationError):
        NodeTensorPool(32, EdgeEncoder(32), geometry=geometry)
    # delta is recorded, not compared: the same columns are the same sketch.
    assert SketchGeometry.for_graph(64, 0.01) == SketchGeometry.for_graph(64, 0.1)
    assert SketchGeometry.for_graph(64, SEVEN_COLUMN_DELTA) == SketchGeometry.for_graph(64, 0.009)
    assert SketchGeometry.for_graph(64, 0.01) != SketchGeometry.for_graph(64, 0.009)


def _stream(seed):
    """Inserts of 3n random edges, then deletes of every fifth one."""
    rng = np.random.default_rng(seed)
    edges = {}
    while len(edges) < 3 * NUM_NODES:
        u, v = (int(x) for x in rng.integers(0, NUM_NODES, 2))
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), None)
    inserts = [EdgeUpdate(u, v, UpdateType.INSERT) for u, v in edges]
    deletes = [EdgeUpdate(u.u, u.v, UpdateType.DELETE) for u in inserts[::5]]
    return ListStream(NUM_NODES, inserts + deletes)


def _exact_partition(edges):
    parent = list(range(NUM_NODES))

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for u, v in edges:
        parent[find(u)] = find(v)
    groups = {}
    for node in range(NUM_NODES):
        groups.setdefault(find(node), set()).add(node)
    return frozenset(frozenset(group) for group in groups.values())


@pytest.mark.parametrize("kernels", ["numpy", "native"])
@pytest.mark.parametrize("paged", [False, True], ids=["flat", "paged"])
def test_every_site_reads_the_one_builder(request, monkeypatch, tmp_path, paged, kernels):
    if kernels == "native":
        request.getfixturevalue("native_provider")  # skips when none is usable
    real = SketchGeometry.for_graph

    def two_columns(cls, num_nodes, delta=0.01):
        default = real(num_nodes, delta)
        return replace(default, columns=2, rounds=default.rounds - 2)

    monkeypatch.setattr(SketchGeometry, "for_graph", classmethod(two_columns))
    geometry = SketchGeometry.for_graph(NUM_NODES)
    assert (geometry.rounds, geometry.columns) == (6, 2)

    config = GraphZeppelinConfig(
        seed=41,
        kernel_backend=kernels,
        ram_budget_bytes=NUM_NODES * geometry.allocated_bytes_per_node // 4 if paged else None,
    )
    engine = GraphZeppelin(NUM_NODES, config=config)
    pool = engine.tensor_pool
    assert pool.is_paged is paged
    assert engine.geometry == pool.geometry == geometry
    assert engine.num_rounds == geometry.rounds
    alpha, gamma = pool.raw_tensors()
    shape = (geometry.rounds, NUM_NODES, geometry.columns, geometry.rows)
    assert alpha.shape == gamma.shape == shape

    stream = _stream(seed=7)
    engine.ingest_batch(stream.edge_array())
    forest = engine.list_spanning_forest()
    assert forest.complete
    assert forest.partition_signature() == _exact_partition(stream.final_edges())
    assert engine.total_bytes() == NUM_NODES * geometry.accounted_bytes_per_node

    path = tmp_path / "two-columns.snap"
    engine.save_snapshot(path)
    assert read_snapshot_meta(path).geometry == geometry
    loaded = GraphZeppelin.load_snapshot(path, config=config)
    assert loaded.geometry == geometry
    assert loaded.list_spanning_forest().edges == forest.edges
    reloaded, _ = load_pool_snapshot(path)
    assert reloaded.geometry == geometry

    monkeypatch.undo()
    default = NodeTensorPool(NUM_NODES, EdgeEncoder(NUM_NODES), graph_seed=41)
    assert default.geometry != geometry
    with pytest.raises(StreamFormatError, match="geometry"):
        GraphZeppelin.load_snapshot(path, config=config)
    with pytest.raises(StreamFormatError, match="geometry"):
        load_pool_snapshot(path)
