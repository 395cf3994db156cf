"""The multi-ingestor driver must be invisible to correctness.

K worker processes each ingest a round-robin slice of the stream and
the merged engine must be bit-identical -- tensors, forest, update
counters -- to one engine ingesting the whole stream serially.  Plus
unit coverage of the partitioner and the driver's guard rails.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.distributed.multi_ingestor import (
    distributed_ingest,
    partition_round_robin,
)
from repro.exceptions import ConfigurationError

NUM_NODES = 40


def _random_edges(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, NUM_NODES, count)
    v = rng.integers(0, NUM_NODES, count)
    keep = u != v
    return np.stack([u[keep], v[keep]], axis=1).astype(np.int64)


def _serial_reference(edges: np.ndarray, config: GraphZeppelinConfig) -> GraphZeppelin:
    engine = GraphZeppelin(NUM_NODES, config=config)
    engine.ingest_batch(edges)
    return engine


def test_partition_round_robin_covers_every_row():
    edges = _random_edges(101, seed=2)
    parts = partition_round_robin(edges, 3)
    assert sum(part.shape[0] for part in parts) == edges.shape[0]
    assert max(p.shape[0] for p in parts) - min(p.shape[0] for p in parts) <= 1
    reassembled = np.concatenate(parts)
    order = np.lexsort((reassembled[:, 1], reassembled[:, 0]))
    expected = np.lexsort((edges[:, 1], edges[:, 0]))
    assert np.array_equal(reassembled[order], edges[expected])
    for part in parts:
        assert part.flags.c_contiguous  # crosses a process boundary


def test_partition_round_robin_rejects_zero_parts():
    with pytest.raises(ValueError):
        partition_round_robin(_random_edges(4, seed=1), 0)


@pytest.mark.parametrize("num_ingestors", [1, 2, 3])
def test_distributed_ingest_bit_identical_to_serial(num_ingestors):
    edges = _random_edges(300, seed=5)
    config = GraphZeppelinConfig(seed=21)
    serial = _serial_reference(edges, config)
    engine, report = distributed_ingest(
        edges, NUM_NODES, config=config, num_ingestors=num_ingestors
    )
    assert np.array_equal(
        serial.tensor_pool._planes, engine.tensor_pool._planes
    )
    assert (
        engine.list_spanning_forest().partition_signature()
        == serial.list_spanning_forest().partition_signature()
    )
    assert engine.updates_processed == serial.updates_processed
    assert engine.tensor_pool.updates_applied == serial.tensor_pool.updates_applied
    assert report.num_ingestors == num_ingestors
    assert sum(report.per_worker_updates) == serial.updates_processed
    assert report.updates_total == serial.updates_processed
    assert report.merge_seconds >= 0.0
    assert report.snapshot_bytes > 0


def test_distributed_ingest_paged_config():
    """Workers and the merge target can both run under a RAM budget."""
    edges = _random_edges(200, seed=9)
    config = GraphZeppelinConfig(seed=3, ram_budget_bytes=8_000)
    serial = _serial_reference(edges, GraphZeppelinConfig(seed=3))
    serial.flush()
    engine, _ = distributed_ingest(edges, NUM_NODES, config=config, num_ingestors=2)
    assert engine.tensor_pool.is_paged
    ref_alpha, ref_gamma = serial.tensor_pool.raw_tensors()
    got_alpha, got_gamma = engine.tensor_pool.raw_tensors()
    assert np.array_equal(ref_alpha, got_alpha)
    assert np.array_equal(
        np.asarray(ref_gamma, dtype=np.uint64), np.asarray(got_gamma, dtype=np.uint64)
    )
    assert (
        engine.list_spanning_forest().partition_signature()
        == serial.list_spanning_forest().partition_signature()
    )


def test_distributed_ingest_keeps_snapshots_when_asked(tmp_path):
    edges = _random_edges(60, seed=7)
    engine, _ = distributed_ingest(
        edges,
        NUM_NODES,
        config=GraphZeppelinConfig(seed=1),
        num_ingestors=2,
        workdir=tmp_path,
        keep_snapshots=True,
    )
    snapshots = sorted(tmp_path.glob("ingestor-*.snap"))
    assert len(snapshots) == 2
    assert engine.num_connected_components() >= 1


def test_distributed_ingest_rejects_stream_validation():
    with pytest.raises(ConfigurationError, match="validate"):
        distributed_ingest(
            _random_edges(10, seed=1),
            NUM_NODES,
            config=GraphZeppelinConfig(validate_stream=True),
        )


def test_distributed_ingest_rejects_zero_ingestors():
    with pytest.raises(ValueError):
        distributed_ingest(
            _random_edges(10, seed=1), NUM_NODES, num_ingestors=0
        )


def test_keep_snapshots_reports_their_location():
    """With the default temp workdir, kept snapshots must be findable."""
    import shutil

    edges = _random_edges(40, seed=3)
    _, report = distributed_ingest(
        edges, NUM_NODES, config=GraphZeppelinConfig(seed=1),
        num_ingestors=2, keep_snapshots=True,
    )
    try:
        assert report.workdir is not None
        assert len(report.snapshot_paths) == 2
        from pathlib import Path

        assert all(Path(p).exists() for p in report.snapshot_paths)
    finally:
        shutil.rmtree(report.workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# snapshot validation: a bad file re-dispatches, a reader bug surfaces
# ----------------------------------------------------------------------
@pytest.mark.parametrize("torn_in", ["header", "payload", "digest trailer"])
def test_truncated_worker_snapshot_is_redispatched(tmp_path, torn_in):
    from repro.distributed.snapshot import _HEADER
    from repro.resilience import FaultPlan, FaultSpec

    edges = _random_edges(200, seed=15)
    config = GraphZeppelinConfig(seed=6)
    # A flat pool's snapshot layout depends on the geometry only, so an
    # empty engine's snapshot tells where header, payload and trailer lie.
    meta = GraphZeppelin(NUM_NODES, config=config).save_snapshot(tmp_path / "probe.snap")
    size = (tmp_path / "probe.snap").stat().st_size
    assert size == _HEADER.size + meta.payload_bytes + meta.digest_section_bytes
    keep_bytes = {
        "header": _HEADER.size // 2,
        "payload": _HEADER.size + meta.payload_bytes // 2,
        "digest trailer": size - 8,
    }[torn_in]
    plan = FaultPlan(
        [FaultSpec(site="snapshot", mode="torn", at=1, offset=keep_bytes,
                   worker=1, attempt=0)]
    )
    engine, report = distributed_ingest(
        edges, NUM_NODES, config=config, num_ingestors=2, fault_plan=plan
    )
    assert report.worker_attempts == [1, 2]
    assert report.worker_retries == 1
    assert np.array_equal(
        engine.tensor_pool._planes, _serial_reference(edges, config).tensor_pool._planes
    )


def test_snapshot_reader_bug_propagates_instead_of_redispatching(monkeypatch):
    import repro.distributed.snapshot as snapshot

    calls = []

    def broken_reader(path):
        calls.append(path)
        raise AttributeError("a programming error, not a bad snapshot")

    monkeypatch.setattr(snapshot, "read_snapshot_meta", broken_reader)
    with pytest.raises(AttributeError, match="programming error"):
        distributed_ingest(
            _random_edges(60, seed=2), NUM_NODES,
            config=GraphZeppelinConfig(seed=1), num_ingestors=2,
        )
    assert len(calls) == 1  # surfaced on first sight, no retry budget spent


def test_each_worker_snapshot_is_digest_checked_once(monkeypatch):
    """validate() verifies the payload before the merge, and the merge
    does not verify it again: one payload pass per worker snapshot."""
    import repro.distributed.snapshot as snapshot

    checked = []
    verify = snapshot.verify_snapshot_payload

    def counting(path, meta=None):
        checked.append(Path(path).name)
        return verify(path, meta)

    monkeypatch.setattr(snapshot, "verify_snapshot_payload", counting)
    edges = _random_edges(200, seed=4)
    config = GraphZeppelinConfig(seed=1)
    engine, _ = distributed_ingest(edges, NUM_NODES, config=config, num_ingestors=2)
    assert sorted(checked) == ["ingestor-0.snap", "ingestor-1.snap"]
    assert np.array_equal(
        engine.tensor_pool._planes, _serial_reference(edges, config).tensor_pool._planes
    )
