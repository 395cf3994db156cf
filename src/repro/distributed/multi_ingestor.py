"""Distributed ingest: K supervised ingestor processes, one XOR merge.

This is the stream-parallel complement of the node-sharded layer in
:mod:`repro.parallel.graph_workers`: instead of splitting the *node
space* of one pool across workers, the *stream* is partitioned
round-robin across ``num_ingestors`` worker **processes**, each of
which builds a complete, independent engine over its sub-stream (using
the sharded columnar pipeline internally, so every worker keeps the
int16-radix fold fast path), snapshots its pool, and exits.  The
coordinator XOR-merges each snapshot the moment its worker finishes --
by sketch linearity, the final pool is bit-identical to serially
ingesting the whole stream, in *any* merge order.

Round-robin partitioning is deliberate: any partition works (XOR folds
commute), but round-robin keeps worker loads equal regardless of how
the stream is ordered, and a worker's slice is a strided view away.

Snapshot files are the hand-off medium because they are also the
*recovery* medium: a worker's slice is self-contained (edges by value
in, one snapshot file out), so a worker that dies, exits with a bad
snapshot, or straggles is simply re-run from its slice in a fresh
process -- the :class:`~repro.resilience.supervisor.WorkerSupervisor`
owns that loop.  Because the merge is a pure XOR of disjoint
sub-streams, a run that lost and re-dispatched workers produces pools
bit-identical to a fault-free run (property-tested).  Locally the files
live in a temporary directory and are deleted after the merge unless
``keep_snapshots`` -- including when the run fails.
"""

from __future__ import annotations

import pickle
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import ConfigurationError, CorruptionError, StreamFormatError
from repro.observability.metrics import MetricsSnapshot, default_registry
from repro.observability.tracing import span

#: How many bytes of a worker's error file travel back in the failure
#: reason (the full traceback stays on disk until cleanup).
_ERR_TAIL_BYTES = 2048


def partition_round_robin(edges: np.ndarray, num_parts: int) -> List[np.ndarray]:
    """Deal an ``(N, 2)`` edge array round-robin into ``num_parts`` slices.

    Slice ``k`` holds rows ``k, k + num_parts, k + 2 * num_parts, ...``
    -- sizes differ by at most one row.  Slices are contiguous copies
    (they cross a process boundary, where a strided view would pickle
    its whole base array).
    """
    if num_parts < 1:
        raise ValueError("num_parts must be at least 1")
    array = np.ascontiguousarray(np.asarray(edges, dtype=np.int64))
    return [np.ascontiguousarray(array[part::num_parts]) for part in range(num_parts)]


def process_context():
    """Fork on Linux (cheap startup); spawn everywhere else.

    Workers are self-contained -- they receive their sub-stream by value
    and hand results back through snapshot files -- so both start
    methods behave identically.  macOS offers fork but CPython defaults
    it to spawn there for a reason (forking after ObjC/Accelerate
    initialisation can crash children), so fork is only taken where it
    is the platform default anyway.
    """
    # Imported here: snapshot merging and the engine import this module
    # without ever starting a worker process.
    import multiprocessing

    use_fork = (
        sys.platform.startswith("linux")
        and "fork" in multiprocessing.get_all_start_methods()
    )
    return multiprocessing.get_context("fork" if use_fork else "spawn")


@dataclass
class DistributedReport:
    """What a distributed run did, phase by phase."""

    num_ingestors: int
    updates_total: int = 0
    per_worker_updates: List[int] = field(default_factory=list)
    ingest_seconds: float = 0.0
    merge_seconds: float = 0.0
    snapshot_bytes: int = 0
    #: Where the worker snapshots live when they were kept (explicit
    #: ``workdir`` or ``keep_snapshots``); ``None``/empty after cleanup.
    workdir: Optional[str] = None
    snapshot_paths: List[str] = field(default_factory=list)
    #: Supervisor telemetry: spawn count per worker (1 each when the
    #: run was fault-free), total re-dispatches, straggler kills, and
    #: absolute-deadline kills.
    worker_attempts: List[int] = field(default_factory=list)
    worker_retries: int = 0
    straggler_kills: int = 0
    deadline_kills: int = 0
    #: Merged per-worker metrics (each worker process resets its
    #: registry, records its slice's spans/counters, and ships its
    #: engine's ``metrics()`` back next to its pool snapshot; gauges are
    #: the max of the worker engines' levels).  ``None`` when the
    #: workers ran with observability disabled.
    metrics: Optional[MetricsSnapshot] = None


def _worker_ingest(task: Tuple) -> None:
    """One ingestor attempt: build a pool from a stream slice, snapshot it.

    Runs in a worker process under the supervisor.  The engine ingests
    through the sharded columnar pipeline when it holds a flat in-RAM
    pool (the shard-local fold keeps numpy's int16 radix sort even at
    one worker thread); paged pools ingest serially in chunks -- their
    fold planner already batches per page.  The snapshot records
    ``stream_offset=0``: a worker's pool is a *slice*, not a prefix,
    and only the merged total is meaningful.

    The chunk generator consults the fault plan before every chunk, so
    injected kills/hangs/raises land at a deterministic batch index
    regardless of ingest path.  Any exception is written to
    ``<snapshot>.err`` (the supervisor folds its tail into the failure
    record) before the non-zero exit.
    """
    num_nodes, config, edges, path, chunk_size, worker, attempt, fault_plan = task
    path = Path(path)
    err_path = path.with_suffix(path.suffix + ".err")
    err_path.unlink(missing_ok=True)
    try:
        # A forked worker inherits the parent's registry contents; reset
        # so the shipped snapshot covers exactly this attempt's work and
        # the coordinator's absorb never double-counts.
        registry = default_registry()
        registry.reset()
        with span("worker.attempt"):
            engine = GraphZeppelin(num_nodes, config=config)
            if fault_plan is not None and engine.memory is not None:
                engine.memory.fault_plan = fault_plan

            def chunks():
                for index, start in enumerate(range(0, edges.shape[0], chunk_size)):
                    if fault_plan is not None:
                        fault_plan.check_worker_batch(worker, attempt, index + 1)
                    yield edges[start : start + chunk_size]

            if not engine.tensor_pool.is_paged:
                with engine.parallel_ingestor(backend="threads") as ingestor:
                    ingestor.ingest_stream(chunks())
            else:
                for chunk in chunks():
                    engine.ingest_batch(chunk)
            engine.save_snapshot(path, stream_offset=0)
        if registry.enabled:
            # Ship this attempt's registry back next to the snapshot (the
            # same sidecar pattern as the .err traceback); best-effort --
            # a failed metrics write must not fail a healthy ingest.
            try:
                with path.with_suffix(path.suffix + ".metrics").open("wb") as handle:
                    pickle.dump(engine.metrics(), handle)
            except OSError:
                pass
        if fault_plan is not None:
            # Post-promote corruption hook, attempt-scoped: a ``corrupt``
            # snapshot fault bound to this attempt silently damages the
            # already-written file, exactly what the supervisor's payload
            # verification must catch; the re-dispatched attempt (a
            # different ``attempt`` value) writes clean.
            fault_plan.after_snapshot_write(path, attempt=attempt, worker=worker)
    except BaseException:
        try:
            err_path.write_text(traceback.format_exc())
        except OSError:
            pass
        sys.exit(1)


def _read_error_tail(path: Path) -> Optional[str]:
    """Last line of a worker's ``.err`` traceback, for failure context."""
    try:
        blob = path.read_bytes()[-_ERR_TAIL_BYTES:]
    except OSError:
        return None
    lines = blob.decode("utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else None


def distributed_ingest(
    edges: Union[np.ndarray, "np.typing.ArrayLike"],
    num_nodes: int,
    config: Optional[GraphZeppelinConfig] = None,
    num_ingestors: int = 2,
    chunk_size: int = 1 << 14,
    workdir: Optional[Union[str, Path]] = None,
    keep_snapshots: bool = False,
    fault_plan=None,
    retry=None,
    straggler_timeout: Optional[float] = None,
    worker_deadline: Optional[float] = None,
) -> Tuple[GraphZeppelin, DistributedReport]:
    """Ingest one edge stream across ``num_ingestors`` processes and merge.

    Partitions ``edges`` round-robin and runs one :func:`_worker_ingest`
    process per slice under a
    :class:`~repro.resilience.supervisor.WorkerSupervisor`: a worker
    that dies, exits with an unreadable snapshot, straggles past
    ``straggler_timeout`` (once a peer has finished), or outlives the
    absolute per-attempt ``worker_deadline`` (no peer evidence needed,
    so even a cluster-wide hang is bounded) is re-dispatched from its
    slice with bounded backoff (``retry``, a
    :class:`~repro.resilience.supervisor.WorkerRetryPolicy`).  Each
    validated snapshot is XOR-merged into the coordinator's engine the
    moment it lands -- completed workers are never held up by a slow or
    re-dispatched peer -- and the final engine's forest, tensors, and
    update counts are bit-identical to serially ingesting ``edges``
    on one engine, faults or not (property-tested).  A worker that
    exhausts its retries raises
    :class:`~repro.exceptions.WorkerFailure` carrying the worker index
    and slice size.

    ``fault_plan`` (a :class:`~repro.resilience.faults.FaultPlan`)
    ships to every worker for deterministic fault injection: worker
    kills/hangs/raises at chosen batch indices and device-I/O faults in
    out-of-core configs.

    A RAM-budgeted ``config`` works -- each worker builds its own paged
    pool and the merge runs page by page under the coordinator's
    budget.
    """
    from repro.distributed.snapshot import read_snapshot_meta, verify_snapshot_payload
    from repro.resilience.supervisor import WorkerSupervisor

    config = config or GraphZeppelinConfig()
    if config.validate_stream:
        raise ConfigurationError(
            "distributed ingest cannot validate streams: workers only see "
            "slices, and per-slice edge tracking is not union-consistent"
        )
    if num_ingestors < 1:
        raise ValueError("num_ingestors must be at least 1")

    parts = partition_round_robin(edges, num_ingestors)
    report = DistributedReport(num_ingestors=num_ingestors)
    report.per_worker_updates = [0] * num_ingestors
    owns_workdir = workdir is None
    workdir = Path(
        tempfile.mkdtemp(prefix="repro-distributed-") if owns_workdir else workdir
    )
    workdir.mkdir(parents=True, exist_ok=True)
    paths = [workdir / f"ingestor-{k}.snap" for k in range(num_ingestors)]
    context = process_context()
    fingerprint = config.sketch_fingerprint()

    engine = GraphZeppelin(num_nodes, config=config)

    def spawn(worker: int, attempt: int):
        task = (
            num_nodes,
            config,
            parts[worker],
            str(paths[worker]),
            int(chunk_size),
            worker,
            attempt,
            fault_plan,
        )
        process = context.Process(
            target=_worker_ingest, args=(task,), daemon=True
        )
        with span("distributed.dispatch"):
            process.start()
        return process

    def validate(worker: int) -> Optional[str]:
        # Only what the two readers document is a bad snapshot (missing,
        # truncated, torn, rotten) and worth a re-dispatch; any other
        # exception is a bug in the reader and must surface, not burn
        # the supervisor's retry budget.
        try:
            meta = read_snapshot_meta(paths[worker])
        except (OSError, StreamFormatError) as exc:
            return f"snapshot unreadable: {exc}"
        if meta.geometry.num_nodes != num_nodes:
            return f"snapshot has {meta.geometry.num_nodes} nodes, expected {num_nodes}"
        if meta.fingerprint != fingerprint:
            return (
                f"snapshot fingerprint {meta.fingerprint:#x} does not match "
                f"config fingerprint {fingerprint:#x}"
            )
        try:
            # Full payload digest check *before* the coordinator merges:
            # a silently corrupted worker snapshot must trigger a
            # re-dispatch, never an XOR of rotten bytes into the pool.
            verify_snapshot_payload(paths[worker], meta)
        except CorruptionError:
            return "payload checksum mismatch"
        except (OSError, StreamFormatError) as exc:
            return f"snapshot unreadable: {exc}"
        return None

    def on_complete(worker: int) -> None:
        # Partial (incremental) merge: XOR this snapshot in now, while
        # slower or re-dispatched peers are still running.
        merge_start = time.perf_counter()
        with span("distributed.merge"):
            # validate() has digest-checked this payload; one pass is enough.
            meta = engine.merge_snapshots([paths[worker]], verified=True)
        report.merge_seconds += time.perf_counter() - merge_start
        report.per_worker_updates[worker] = meta.engine_updates
        report.snapshot_bytes += paths[worker].stat().st_size
        # Fold the worker's metrics sidecar (when it shipped one) into
        # the report and the coordinator's live registry -- worker
        # telemetry aggregates across processes exactly like the pool
        # snapshots the workers shipped alongside it.  The worker
        # engines' levels (its gauges) stay in the report.
        metrics_path = paths[worker].with_suffix(paths[worker].suffix + ".metrics")
        try:
            with metrics_path.open("rb") as handle:
                worker_metrics = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError):
            worker_metrics = None
        if isinstance(worker_metrics, MetricsSnapshot):
            report.metrics = (
                worker_metrics
                if report.metrics is None
                else report.metrics.merged_with(worker_metrics)
            )
            if default_registry().enabled:
                default_registry().absorb(worker_metrics)

    def describe_failure(worker: int) -> Optional[str]:
        return _read_error_tail(
            paths[worker].with_suffix(paths[worker].suffix + ".err")
        )

    try:
        ingest_start = time.perf_counter()
        supervisor = WorkerSupervisor(
            spawn=spawn,
            validate=validate,
            slice_sizes=[part.shape[0] for part in parts],
            on_complete=on_complete,
            describe_failure=describe_failure,
            retry=retry,
            straggler_timeout=straggler_timeout,
            worker_deadline=worker_deadline,
        )
        records = supervisor.run()
        report.ingest_seconds = (
            time.perf_counter() - ingest_start - report.merge_seconds
        )
        report.worker_attempts = [record.attempts for record in records]
        report.worker_retries = sum(len(record.failures) for record in records)
        report.straggler_kills = sum(record.straggler_kills for record in records)
        report.deadline_kills = sum(record.deadline_kills for record in records)
        report.updates_total = engine.updates_processed
        if not owns_workdir or keep_snapshots:
            report.workdir = str(workdir)
            report.snapshot_paths = [str(path) for path in paths]
        return engine, report
    finally:
        if owns_workdir and not keep_snapshots:
            shutil.rmtree(workdir, ignore_errors=True)
