"""End-to-end tests for the columnar ingest pipeline.

``GraphZeppelin.ingest_batch`` must produce exactly the same sketch
state and connectivity answers as feeding the same updates through the
per-edge ``edge_update`` path, in every backend / buffering
configuration, because the sketch fold is order- and
partition-independent.
"""

from __future__ import annotations

import functools
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import graph_zeppelin
from repro.core.config import BufferingMode, GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.distributed.snapshot import read_snapshot_meta
from repro.exceptions import InvalidStreamError
from repro.integrity.digest import payload_digest
from repro.kernels import native_kernels, native_unavailable_reason
from repro.memory.hybrid import HybridMemory
from repro.resilience.checkpoint import CheckpointPolicy, list_checkpoints
from repro.streaming.stream import GraphStream
from repro.types import EdgeUpdate, UpdateType
from dict_device import DEVICE_TYPES
from sketch_reference import (
    assert_node_state_matches,
    reference_forest,
    reference_node_sketches,
)


def _random_edges(num_nodes: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, num_nodes, count)
    v = rng.integers(0, num_nodes, count)
    keep = u != v
    return np.stack([u[keep], v[keep]], axis=1).astype(np.int64)


def _engine_state(engine: GraphZeppelin):
    engine.flush()
    state = []
    for node in range(engine.num_nodes):
        sketch = engine.node_sketch(node)
        for round_index in range(engine.num_rounds):
            alpha, gamma = sketch.round_arrays(round_index)
            state.append((alpha.copy(), gamma.copy()))
    return state


@pytest.mark.parametrize(
    "buffering, device",
    [
        pytest.param(mode, device, id=str(mode) + ("" if device is None else f"-{device}"))
        for device in (None, *sorted(DEVICE_TYPES))
        for mode in (BufferingMode.NONE, BufferingMode.LEAF_GUTTERS, BufferingMode.GUTTER_TREE)
    ],
)
def test_ingest_batch_matches_per_edge_path(buffering, device, monkeypatch):
    """Every buffering mode, in RAM or paged on either device (``device``
    set: eight pages and a RAM budget of a quarter of the state), holds
    the in-RAM unbuffered engine's sketch state bit for bit, by either
    path."""
    edges = _random_edges(32, 300, seed=1)
    paging = {}
    if device is not None:
        monkeypatch.setattr(HybridMemory, "device_type", DEVICE_TYPES[device])
        paging = dict(ram_budget_bytes=16 * 1024, nodes_per_page=4)
    config = GraphZeppelinConfig(buffering=buffering, seed=9, **paging)
    per_edge = GraphZeppelin(32, config=config)
    columnar = GraphZeppelin(32, config=config)
    reference = GraphZeppelin(32, config=GraphZeppelinConfig(seed=9))
    assert per_edge.tensor_pool.is_paged == (device is not None)

    for u, v in edges.tolist():
        per_edge.edge_update(u, v)
    assert columnar.ingest_batch(edges) == edges.shape[0]
    reference.ingest_batch(edges)

    state = _engine_state(reference)
    for engine in (per_edge, columnar):
        for (alpha_a, gamma_a), (alpha_b, gamma_b) in zip(state, _engine_state(engine)):
            assert np.array_equal(alpha_a, alpha_b)
            assert np.array_equal(gamma_a, gamma_b)
        assert engine.updates_processed == reference.updates_processed
        assert engine.buffer_bytes() == 0
    forest = reference.list_spanning_forest()
    assert per_edge.list_spanning_forest().edges == forest.edges
    assert columnar.list_spanning_forest().edges == forest.edges


def test_flat_and_legacy_backends_answer_identically():
    """The pool holds what per-round CubeSketch bundles hold, and answers alike."""
    edges = _random_edges(40, 250, seed=4)
    flat = GraphZeppelin(40, config=GraphZeppelinConfig(seed=3))
    flat.ingest_batch(edges)
    assert_node_state_matches(flat, reference_node_sketches(40, edges.tolist(), seed=3))
    forest, stats = reference_forest(flat)
    assert flat.list_spanning_forest().edges == forest.edges
    assert flat.last_query_stats == stats


def test_ingest_batch_out_of_core_flat_backend():
    """A RAM budget routes flat sketches through the hybrid store."""
    edges = _random_edges(16, 120, seed=6)
    config = GraphZeppelinConfig.out_of_core(ram_budget_bytes=16 * 1024, seed=2)
    out_of_core = GraphZeppelin(16, config=config)
    in_ram = GraphZeppelin(16, config=GraphZeppelinConfig(seed=2))
    out_of_core.ingest_batch(edges)
    in_ram.ingest_batch(edges)
    out_of_core.flush()
    in_ram.flush()
    assert out_of_core.io_stats is not None
    assert out_of_core.io_stats.modelled_seconds > 0
    assert (
        out_of_core.list_spanning_forest().edges == in_ram.list_spanning_forest().edges
    )


def test_ingest_batch_mixed_with_per_edge_updates():
    """Columnar and scalar ingestion interleave freely (same toggles)."""
    edges = _random_edges(20, 80, seed=8)
    mixed = GraphZeppelin(20, config=GraphZeppelinConfig(seed=5))
    pure = GraphZeppelin(20, config=GraphZeppelinConfig(seed=5))
    half = edges.shape[0] // 2
    mixed.ingest_batch(edges[:half])
    for u, v in edges[half:].tolist():
        mixed.edge_update(u, v)
    pure.ingest_batch(edges)
    assert mixed.list_spanning_forest().edges == pure.list_spanning_forest().edges


def test_ingest_batch_toggle_cancels_like_edge_update():
    engine = GraphZeppelin(8, config=GraphZeppelinConfig(seed=1))
    engine.ingest_batch(np.asarray([[0, 1], [0, 1]]))
    engine.flush()
    assert engine.node_sketch(0).is_empty()
    assert engine.node_sketch(1).is_empty()


def test_ingest_batch_validation():
    engine = GraphZeppelin(8, config=GraphZeppelinConfig(seed=1))
    assert engine.ingest_batch(np.empty((0, 2), dtype=np.int64)) == 0
    with pytest.raises(InvalidStreamError):
        engine.ingest_batch(np.asarray([[0, 1, 2]]))
    with pytest.raises(InvalidStreamError):
        engine.ingest_batch(np.asarray([[0, 8]]))
    with pytest.raises(InvalidStreamError):
        engine.ingest_batch(np.asarray([[-1, 2]]))
    with pytest.raises(InvalidStreamError):
        engine.ingest_batch(np.asarray([[3, 3]]))
    # Failed batches must not be half-applied.
    assert engine.updates_processed == 0


def test_ingest_batch_keeps_stream_validator_in_sync():
    """With validate_stream on, ingest_batch toggles the tracked edge set."""
    engine = GraphZeppelin(8, config=GraphZeppelinConfig(seed=1, validate_stream=True))
    engine.ingest_batch(np.asarray([[0, 1], [2, 3], [2, 3]]))
    # {0,1} is now present: a validated insert must reject it, a
    # validated delete must accept it.
    with pytest.raises(InvalidStreamError):
        engine.insert(0, 1)
    engine.delete(0, 1)
    # {2,3} toggled twice (net absent): delete must reject.
    with pytest.raises(InvalidStreamError):
        engine.delete(2, 3)
    engine.insert(2, 3)


def test_ingest_batch_accepts_python_lists():
    engine = GraphZeppelin(8, config=GraphZeppelinConfig(seed=1))
    assert engine.ingest_batch([(0, 1), (2, 3)]) == 2
    forest = engine.list_spanning_forest()
    assert forest.connected(0, 1)
    assert forest.connected(2, 3)
    assert not forest.connected(0, 2)


def test_stream_edge_array_matches_iteration(medium_stream):
    array = medium_stream.edge_array()
    assert array.shape == (len(medium_stream), 2)
    for row, update in zip(array.tolist(), medium_stream):
        assert tuple(row) == (update.u, update.v)


def test_columnar_stream_ingest_matches_scalar(medium_stream):
    scalar = GraphZeppelin(medium_stream.num_nodes, config=GraphZeppelinConfig(seed=13))
    columnar = GraphZeppelin(
        medium_stream.num_nodes, config=GraphZeppelinConfig(seed=13)
    )
    for update in medium_stream:
        scalar.edge_update(update.u, update.v)
    columnar.ingest_batch(medium_stream.edge_array())
    assert (
        scalar.list_spanning_forest().edges == columnar.list_spanning_forest().edges
    )


# ----------------------------------------------------------------------
# ingest(): the columnar twin of one apply_update per element
# ----------------------------------------------------------------------
_NATIVE_UNAVAILABLE = pytest.mark.skipif(
    native_kernels() is None,
    reason=f"no native kernel provider usable ({native_unavailable_reason()})",
)
_POOLS = {
    "flat": {},
    "paged": {"ram_budget_bytes": 3_000, "nodes_per_page": 5},
}
_SOURCES = {
    "list": list,
    "generator": lambda updates: (update for update in updates),
    "stream": lambda updates: GraphStream(_INGEST_NODES, updates),
    "stream-slice": lambda updates: GraphStream(_INGEST_NODES, updates).updates[:],
}
_INGEST_NODES = 24


def _legal_updates(count: int, seed: int):
    """A legal insert/delete sequence over few enough edges to repeat."""
    rng = np.random.default_rng(seed)
    live, updates = set(), []
    while len(updates) < count:
        u, v = sorted(rng.integers(0, _INGEST_NODES, 2).tolist())
        if u == v:
            continue
        kind = UpdateType.DELETE if (u, v) in live else UpdateType.INSERT
        live ^= {(u, v)}
        # Endpoints in either order: EdgeUpdate canonicalises.
        updates.append(EdgeUpdate(v, u, kind) if len(updates) % 3 else EdgeUpdate(u, v, kind))
    return updates


def _per_update(engine: GraphZeppelin, updates) -> None:
    for update in updates:
        engine.apply_update(update)


def _pool_digests(engine: GraphZeppelin):
    engine.flush()
    return [
        payload_digest(np.ascontiguousarray(tensor).tobytes())
        for tensor in engine.tensor_pool.raw_tensors()
    ]


@pytest.mark.parametrize(
    "kernel_backend", ["numpy", pytest.param("native", marks=_NATIVE_UNAVAILABLE)]
)
@pytest.mark.parametrize("pool", sorted(_POOLS))
@pytest.mark.parametrize("source", sorted(_SOURCES))
def test_ingest_matches_the_per_update_loop(monkeypatch, source, pool, kernel_backend):
    # Several chunks, the last one short.
    monkeypatch.setattr(graph_zeppelin, "INGEST_CHUNK_ROWS", 64)
    updates = _legal_updates(300, seed=4)
    config = dict(seed=21, kernel_backend=kernel_backend, **_POOLS[pool])
    reference = GraphZeppelin(_INGEST_NODES, config=GraphZeppelinConfig(**config))
    columnar = GraphZeppelin(_INGEST_NODES, config=GraphZeppelinConfig(**config))
    assert columnar.tensor_pool.is_paged == (pool == "paged")

    _per_update(reference, updates)
    assert columnar.ingest(_SOURCES[source](updates)) == len(updates)

    assert columnar.updates_processed == reference.updates_processed == len(updates)
    assert _pool_digests(columnar) == _pool_digests(reference)
    assert (
        columnar.list_spanning_forest().edges == reference.list_spanning_forest().edges
    )
    assert columnar.ingest([]) == 0 and columnar.ingest(GraphStream(_INGEST_NODES)) == 0


@pytest.mark.parametrize("pool", sorted(_POOLS))
def test_ingest_matches_edge_by_edge_node_sketches(monkeypatch, pool):
    monkeypatch.setattr(graph_zeppelin, "INGEST_CHUNK_ROWS", 64)
    updates = _legal_updates(150, seed=5)
    columnar = GraphZeppelin(
        _INGEST_NODES, config=GraphZeppelinConfig(seed=3, **_POOLS[pool])
    )
    columnar.ingest(GraphStream(_INGEST_NODES, updates))
    reference = reference_node_sketches(
        _INGEST_NODES, [update.edge for update in updates], seed=3
    )
    assert_node_state_matches(columnar, reference)


def _illegal_at(updates, k: int, kind: UpdateType):
    """``updates`` with an illegal ``kind`` update spliced in at index ``k``."""
    live = GraphStream(_INGEST_NODES, updates).edges_at(k)
    if kind is UpdateType.INSERT:
        edge = sorted(live)[0]
    else:
        edge = next(
            (u, v)
            for u in range(_INGEST_NODES)
            for v in range(u + 1, _INGEST_NODES)
            if (u, v) not in live
        )
    return updates[:k] + [EdgeUpdate(*edge, kind)] + updates[k:]


@pytest.mark.parametrize("source", sorted(_SOURCES))
@pytest.mark.parametrize("kind", list(UpdateType))
@pytest.mark.parametrize("k", [5, 63, 64, 65, 200])
def test_validating_ingest_applies_exactly_the_valid_prefix(monkeypatch, k, kind, source):
    monkeypatch.setattr(graph_zeppelin, "INGEST_CHUNK_ROWS", 64)
    updates = _illegal_at(_legal_updates(260, seed=6), k, kind)
    config = GraphZeppelinConfig(seed=8, validate_stream=True)
    reference = GraphZeppelin(_INGEST_NODES, config=config)
    columnar = GraphZeppelin(_INGEST_NODES, config=config)

    with pytest.raises(InvalidStreamError) as expected:
        _per_update(reference, updates)
    with pytest.raises(InvalidStreamError) as raised:
        columnar.ingest(_SOURCES[source](updates))

    assert str(raised.value) == str(expected.value)
    assert columnar.updates_processed == reference.updates_processed == k
    assert columnar._current_edges == reference._current_edges
    assert _pool_digests(columnar) == _pool_digests(reference)
    # Both engines carry on from the same place.
    _per_update(reference, updates[k + 1 :])
    columnar.ingest(updates[k + 1 :])
    assert columnar._current_edges == reference._current_edges
    assert _pool_digests(columnar) == _pool_digests(reference)


def test_ingest_rejects_an_endpoint_outside_the_graph_after_the_prefix(monkeypatch):
    monkeypatch.setattr(graph_zeppelin, "INGEST_CHUNK_ROWS", 64)
    updates = _legal_updates(100, seed=7)
    reference = GraphZeppelin(_INGEST_NODES, config=GraphZeppelinConfig(seed=2))
    columnar = GraphZeppelin(_INGEST_NODES, config=GraphZeppelinConfig(seed=2))
    _per_update(reference, updates[:70])
    with pytest.raises(InvalidStreamError, match=r"\(3, 24\).*outside \[0, 24\)"):
        columnar.ingest(updates[:70] + [EdgeUpdate(24, 3)] + updates[70:])
    assert columnar.updates_processed == 70
    assert _pool_digests(columnar) == _pool_digests(reference)


@pytest.mark.parametrize(
    "bad, message",
    [((3, 3), r"update \(3, 3\) is a self loop"),
     ((-1, 2), r"update \(-1, 2\) references a node outside \[0, 24\)"),
     ((3, 24), r"update \(3, 24\) references a node outside \[0, 24\)")],
    ids=["self-loop", "negative", "outside"],
)
def test_regression_ingest_applies_the_prefix_before_any_rejected_update(monkeypatch, bad, message):
    """Update objects that bypass ``EdgeUpdate``'s checks: a self loop or a
    negative endpoint once rejected the whole chunk, prefix included."""
    monkeypatch.setattr(graph_zeppelin, "INGEST_CHUNK_ROWS", 64)
    updates = _legal_updates(100, seed=7)
    reference = GraphZeppelin(_INGEST_NODES, config=GraphZeppelinConfig(seed=2))
    columnar = GraphZeppelin(_INGEST_NODES, config=GraphZeppelinConfig(seed=2))
    _per_update(reference, updates[:70])
    spliced = SimpleNamespace(u=bad[0], v=bad[1], kind=UpdateType.INSERT)
    with pytest.raises(InvalidStreamError, match=message):
        columnar.ingest(updates[:70] + [spliced] + updates[70:])
    assert columnar.updates_processed == 70
    assert _pool_digests(columnar) == _pool_digests(reference)


def _checkpoints_written(directory, every: int, run) -> list:
    """``engine_updates`` of every checkpoint an engine writes at cadence
    ``every`` while ``run`` feeds it the cadence test's 290 updates."""
    engine = GraphZeppelin(_INGEST_NODES, config=GraphZeppelinConfig(seed=5))
    engine.attach_checkpointer(
        directory, policy=CheckpointPolicy(every_n_updates=every, keep=1_000)
    )
    # Start the stream off the cadence's beat.
    engine.insert(0, 1)
    engine.delete(0, 1)
    run(engine, _legal_updates(290, seed=9))
    return sorted(
        read_snapshot_meta(path).engine_updates for _, path in list_checkpoints(directory)
    )


@functools.lru_cache(maxsize=None)
def _per_update_checkpoints(every: int) -> tuple:
    """The per-update reference of a cadence: one run, shared by both sources."""
    with tempfile.TemporaryDirectory() as directory:
        return tuple(_checkpoints_written(Path(directory), every, _per_update))


@pytest.mark.parametrize("source", ["generator", "stream"])
@pytest.mark.parametrize("every", [1, 100, 63, 64, 65])
def test_ingest_checkpoints_at_the_per_update_cadence(monkeypatch, tmp_path, every, source):
    monkeypatch.setattr(graph_zeppelin, "INGEST_CHUNK_ROWS", 64)
    written = _checkpoints_written(
        tmp_path, every, lambda engine, items: engine.ingest(_SOURCES[source](items))
    )
    assert tuple(written) == _per_update_checkpoints(every)
    assert written == list(range(every, 292 + 1, every))
