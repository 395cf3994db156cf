"""The fault-tolerance plane must never change answers.

Three pillars under test: policy-driven rotating checkpoints with
auto-recovery (``repro.resilience.checkpoint``), deterministic seeded
fault injection (``repro.resilience.faults``), and the self-healing
supervised distributed ingest (``repro.resilience.supervisor`` driving
``distributed_ingest``).  The recurring assertion is bit-identity: a
run that crashed, recovered, retried, or re-dispatched must finish with
tensors and forests identical to a run that never failed.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.distributed.multi_ingestor import distributed_ingest
from repro.exceptions import (
    ConfigurationError,
    RecoveryError,
    WorkerFailure,
)
from repro.resilience import (
    CheckpointPolicy,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    WorkerRetryPolicy,
    checkpoint_filename,
    list_checkpoints,
    recover_latest,
)

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


def _assert_same_state(got: GraphZeppelin, expected: GraphZeppelin) -> None:
    expected.flush()
    got.flush()
    ref_alpha, ref_gamma = expected.tensor_pool.raw_tensors()
    got_alpha, got_gamma = got.tensor_pool.raw_tensors()
    assert np.array_equal(ref_alpha, got_alpha)
    assert np.array_equal(
        np.asarray(ref_gamma, dtype=np.uint64),
        np.asarray(got_gamma, dtype=np.uint64),
    )
    assert (
        got.list_spanning_forest().partition_signature()
        == expected.list_spanning_forest().partition_signature()
    )


# ----------------------------------------------------------------------
# checkpoint policy
# ----------------------------------------------------------------------
def test_policy_fires_on_updates_or_wall_clock():
    policy = CheckpointPolicy(every_n_updates=100, interval_seconds=10.0)
    assert not policy.due(99, 9.9)
    assert policy.due(100, 0.0)
    assert policy.due(0, 10.0)


def test_policy_disabled_thresholds_never_fire():
    policy = CheckpointPolicy(every_n_updates=None, interval_seconds=None)
    assert not policy.due(10**9, 10**9)


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        CheckpointPolicy(every_n_updates=0)
    with pytest.raises(ConfigurationError):
        CheckpointPolicy(interval_seconds=0.0)
    with pytest.raises(ConfigurationError):
        CheckpointPolicy(keep=0)


def test_list_checkpoints_orders_newest_first_and_skips_strays(tmp_path):
    for generation in (3, 1, 2):
        (tmp_path / checkpoint_filename(generation)).write_bytes(b"x")
    (tmp_path / "ckpt-00000009.snap.tmp").write_bytes(b"x")
    (tmp_path / "notes.txt").write_bytes(b"x")
    found = list_checkpoints(tmp_path)
    assert [generation for generation, _ in found] == [3, 2, 1]
    assert list_checkpoints(tmp_path / "missing") == []


# ----------------------------------------------------------------------
# checkpointer: rotation, generations, policy-driven writes
# ----------------------------------------------------------------------
def test_attach_checkpointer_writes_generations_during_ingest(tmp_path):
    edges = _random_edges(400, seed=3)
    engine = GraphZeppelin(NUM_NODES)
    checkpointer = engine.attach_checkpointer(
        tmp_path, policy=CheckpointPolicy(every_n_updates=60, keep=2)
    )
    for start in range(0, edges.shape[0], 50):
        engine.ingest_batch(edges[start : start + 50])
    assert checkpointer.checkpoints_written >= 3
    # Checkpointing never perturbs the engine it snapshots.
    _assert_same_state(engine, _serial_reference(edges, GraphZeppelinConfig()))
    # Rotation: only the `keep` newest generations remain on disk.
    remaining = list_checkpoints(tmp_path)
    assert len(remaining) == 2
    assert remaining[0][0] == checkpointer.generation
    assert engine.detach_checkpointer() is checkpointer
    assert engine.checkpointer is None


def test_generation_counter_resumes_from_directory(tmp_path):
    engine = GraphZeppelin(NUM_NODES)
    engine.ingest_batch(_random_edges(50, seed=1))
    first = engine.attach_checkpointer(tmp_path, policy=CheckpointPolicy(keep=5))
    first.checkpoint()
    first.checkpoint()
    # A second (e.g. recovered) engine keeps appending generations.
    second = GraphZeppelin(NUM_NODES)
    checkpointer = second.attach_checkpointer(
        tmp_path, policy=CheckpointPolicy(keep=5)
    )
    assert checkpointer.generation == 2
    checkpointer.checkpoint()
    assert list_checkpoints(tmp_path)[0][0] == 3


def test_wall_clock_policy_with_fake_clock(tmp_path):
    clock = [0.0]
    engine = GraphZeppelin(NUM_NODES)
    checkpointer = engine.attach_checkpointer(
        tmp_path,
        policy=CheckpointPolicy(every_n_updates=None, interval_seconds=5.0),
        clock=lambda: clock[0],
    )
    engine.edge_update(0, 1)
    assert checkpointer.checkpoints_written == 0
    clock[0] = 6.0
    engine.edge_update(1, 2)
    assert checkpointer.checkpoints_written == 1
    # The interval timer resets after the write.
    clock[0] = 8.0
    engine.edge_update(2, 3)
    assert checkpointer.checkpoints_written == 1


def test_policy_driven_failure_is_swallowed_and_counted(tmp_path):
    engine = GraphZeppelin(NUM_NODES)
    plan = FaultPlan([FaultSpec(site="snapshot", at=1, mode="raise")])
    checkpointer = engine.attach_checkpointer(
        tmp_path, policy=CheckpointPolicy(every_n_updates=10), fault_plan=plan
    )
    engine.ingest_batch(_random_edges(30, seed=2))
    assert checkpointer.checkpoint_failures == 1
    # The failed write left no file; the next due checkpoint (snapshot
    # write #2, not faulted) succeeds.
    engine.ingest_batch(_random_edges(30, seed=3))
    assert checkpointer.checkpoints_written == 1
    assert len(list_checkpoints(tmp_path)) == 1


def test_explicit_checkpoint_raises_on_injected_fault(tmp_path):
    engine = GraphZeppelin(NUM_NODES)
    plan = FaultPlan([FaultSpec(site="snapshot", at=1, mode="raise")])
    checkpointer = engine.attach_checkpointer(tmp_path, fault_plan=plan)
    with pytest.raises(InjectedFault):
        checkpointer.checkpoint()
    assert list_checkpoints(tmp_path) == []


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
def test_recover_latest_empty_directory_raises(tmp_path):
    with pytest.raises(RecoveryError, match="no checkpoints"):
        recover_latest(tmp_path)


def test_recover_latest_skips_merged_snapshots(tmp_path):
    edges = _random_edges(100, seed=4)
    engine = _serial_reference(edges, GraphZeppelinConfig(seed=2))
    engine.save_snapshot(tmp_path / checkpoint_filename(1))
    from repro.distributed.snapshot import merge_snapshots, save_pool_snapshot

    pool, meta = merge_snapshots([tmp_path / checkpoint_filename(1)])
    save_pool_snapshot(
        pool, tmp_path / checkpoint_filename(2), merged=True,
        fingerprint=meta.fingerprint,
    )
    recovered, path, skipped = recover_latest(tmp_path)
    assert path == tmp_path / checkpoint_filename(1)
    assert len(skipped) == 1 and "merged" in skipped[0][1]
    _assert_same_state(recovered, engine)


def test_recover_latest_all_corrupt_raises(tmp_path):
    for generation in (1, 2):
        (tmp_path / checkpoint_filename(generation)).write_bytes(b"garbage")
    with pytest.raises(RecoveryError, match="2 rejected"):
        recover_latest(tmp_path)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_torn_newest_generation_falls_back_and_resumes_bit_identical(
    tmp_path, seed
):
    """Property: a torn final checkpoint (seeded byte offset) loses only
    the post-checkpoint suffix; recovery + re-ingest is bit-identical."""
    rng = np.random.default_rng(seed)
    edges = _random_edges(300, seed=seed + 10)
    engine = GraphZeppelin(NUM_NODES)
    tear_offset = int(rng.integers(0, 2048))
    plan = FaultPlan(
        [FaultSpec(site="snapshot", at=3, mode="torn", offset=tear_offset)],
        seed=seed,
    )
    engine.attach_checkpointer(
        tmp_path,
        policy=CheckpointPolicy(every_n_updates=80, keep=3),
        fault_plan=plan,
    )
    for start in range(0, edges.shape[0], 40):
        engine.ingest_batch(edges[start : start + 40])
    assert len(list_checkpoints(tmp_path)) >= 2
    recovered, path, skipped = recover_latest(tmp_path)
    # Generation 3 was torn after its atomic promote; recovery must have
    # fallen back past it.
    assert [p.name for p, _ in skipped] == [checkpoint_filename(3)]
    assert path.name == checkpoint_filename(2)
    recovered.ingest_batch(edges[recovered.resume_offset :])
    _assert_same_state(recovered, _serial_reference(edges, GraphZeppelinConfig()))


@pytest.mark.parametrize("ram_budget", [None, 8_000])
def test_crash_resume_bit_identical(tmp_path, ram_budget):
    """Checkpoint mid-stream, 'crash', recover, finish: identical state
    under both the flat in-RAM pool and the paged out-of-core pool."""
    edges = _random_edges(400, seed=6)
    config = GraphZeppelinConfig(seed=9, ram_budget_bytes=ram_budget)
    engine = GraphZeppelin(NUM_NODES, config=config)
    engine.attach_checkpointer(tmp_path, policy=CheckpointPolicy(every_n_updates=120))
    for start in range(0, edges.shape[0], 60):
        engine.ingest_batch(edges[start : start + 60])
    del engine  # the crash

    recovered = GraphZeppelin.recover_latest(tmp_path, config=config)
    if ram_budget is not None:
        assert recovered.tensor_pool.is_paged
    assert 0 < recovered.resume_offset < edges.shape[0]
    recovered.ingest_batch(edges[recovered.resume_offset :])
    _assert_same_state(recovered, _serial_reference(edges, config))


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------
def test_fault_spec_validation():
    with pytest.raises(ValueError, match="site"):
        FaultSpec(site="gpu")
    with pytest.raises(ValueError, match="mode"):
        FaultSpec(site="device.read", mode="kill")
    with pytest.raises(ValueError, match="mode"):
        FaultSpec(site="worker", mode="torn")
    with pytest.raises(ValueError, match="counts operations"):
        FaultSpec(site="worker", at=0)


def test_random_plans_are_deterministic_per_seed():
    first = FaultPlan.random(42, num_workers=3, device_faults=2, snapshot_tears=1)
    second = FaultPlan.random(42, num_workers=3, device_faults=2, snapshot_tears=1)
    assert first.faults == second.faults
    assert first.faults != FaultPlan.random(43, num_workers=3).faults


def test_plan_pickles_with_fresh_counters():
    plan = FaultPlan([FaultSpec(site="device.read", at=1)], seed=5)
    with pytest.raises(InjectedFault):
        plan.on_device_read()
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.faults == plan.faults and clone.seed == 5
    # The clone counts its own operations from zero.
    with pytest.raises(InjectedFault):
        clone.on_device_read()


def test_device_fault_fires_at_kth_operation():
    plan = FaultPlan([FaultSpec(site="device.write", at=3)])
    plan.on_device_write()
    plan.on_device_write()
    with pytest.raises(InjectedFault):
        plan.on_device_write()
    plan.on_device_write()  # one-shot: operation 4 passes


def test_for_worker_isolates_worker_faults():
    plan = FaultPlan(
        [
            FaultSpec(site="worker", worker=0, at=1, mode="raise"),
            FaultSpec(site="worker", worker=1, at=2, mode="raise"),
            FaultSpec(site="device.read", at=1),
        ]
    )
    sub = plan.for_worker(1)
    assert all(f.worker == 1 for f in sub.faults)
    sub.check_worker_batch(1, 0, 1)
    with pytest.raises(InjectedFault):
        sub.check_worker_batch(1, 0, 2)
    # Wrong attempt: the supervisor's re-dispatch does not re-fire it.
    sub.check_worker_batch(1, 1, 2)


# ----------------------------------------------------------------------
# supervised distributed ingest
# ----------------------------------------------------------------------
def test_supervised_ingest_recovers_from_kill_bit_identical():
    edges = _random_edges(300, seed=8)
    config = GraphZeppelinConfig(seed=4)
    plan = FaultPlan([FaultSpec(site="worker", worker=1, at=2, mode="kill")])
    engine, report = distributed_ingest(
        edges, NUM_NODES, config=config, num_ingestors=3, chunk_size=32,
        fault_plan=plan,
    )
    _assert_same_state(engine, _serial_reference(edges, config))
    assert report.worker_attempts[1] == 2
    assert report.worker_retries == 1
    assert sum(report.per_worker_updates) == report.updates_total


def test_supervised_ingest_straggler_killed_and_redispatched():
    edges = _random_edges(300, seed=12)
    config = GraphZeppelinConfig(seed=4)
    plan = FaultPlan([FaultSpec(site="worker", worker=0, at=1, mode="hang")])
    engine, report = distributed_ingest(
        edges, NUM_NODES, config=config, num_ingestors=3, chunk_size=32,
        fault_plan=plan, straggler_timeout=0.5,
    )
    _assert_same_state(engine, _serial_reference(edges, config))
    assert report.straggler_kills == 1
    assert report.worker_attempts[0] == 2


def test_exhausted_retries_raise_worker_failure_with_context():
    edges = _random_edges(120, seed=2)
    plan = FaultPlan(
        [
            FaultSpec(site="worker", worker=2, at=1, mode="raise", attempt=a)
            for a in range(3)
        ]
    )
    with pytest.raises(WorkerFailure) as excinfo:
        distributed_ingest(
            edges, NUM_NODES, num_ingestors=3, chunk_size=16,
            fault_plan=plan,
            retry=WorkerRetryPolicy(max_retries=1, backoff_seconds=0.0),
        )
    failure = excinfo.value
    assert failure.worker_index == 2
    assert failure.slice_size == len(edges[2::3])
    # The worker's .err traceback tail travels into the message.
    assert "InjectedFault" in str(failure)
    assert pickle.loads(pickle.dumps(failure)).worker_index == 2


def test_workdir_removed_on_failure_paths(tmp_path, monkeypatch):
    """The temp workdir must not leak even when the run raises."""
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    edges = _random_edges(60, seed=2)
    plan = FaultPlan(
        [
            FaultSpec(site="worker", worker=0, at=1, mode="raise", attempt=a)
            for a in range(3)
        ]
    )
    with pytest.raises(WorkerFailure):
        distributed_ingest(
            edges, NUM_NODES, num_ingestors=2, chunk_size=8,
            fault_plan=plan,
            retry=WorkerRetryPolicy(max_retries=1, backoff_seconds=0.0),
        )
    assert list(tmp_path.glob("repro-distributed-*")) == []


@pytest.mark.parametrize("seed", [101, 102, 103])
@pytest.mark.parametrize("ram_budget", [None, 8_000])
def test_supervised_ingest_random_kill_points_bit_identical(seed, ram_budget):
    """Property: seeded random kills/raises across workers, flat and
    paged pools -- recovery always lands on the fault-free state."""
    plan = FaultPlan.random(seed, num_workers=3, max_batches=3)
    edges = _random_edges(240, seed=seed)
    config = GraphZeppelinConfig(seed=7, ram_budget_bytes=ram_budget)
    engine, report = distributed_ingest(
        edges, NUM_NODES, config=config, num_ingestors=3, chunk_size=32,
        fault_plan=plan,
    )
    assert report.worker_retries >= 1, f"plan {plan!r} injected nothing"
    _assert_same_state(engine, _serial_reference(edges, config))
    assert engine.updates_processed == len(edges)
