"""Chaos soak: composite fault schedules over full engine lifecycles.

The previous resilience planes each test one fault family in isolation
-- a killed worker here, a torn checkpoint there, one rotten block.
Production failures compose: a slow device makes a checkpoint miss its
deadline while a worker hangs and the RAM budget is squeezed.  This
module is the harness that soaks the whole stack in that composition:

* a :class:`ChaosSchedule` is a seeded, deterministic list of
  **cycles**, each pairing an ingest kind (``"serial"`` or
  ``"distributed"``) with a :class:`~repro.resilience.faults.FaultPlan`
  drawn from a rotating menu spanning *every* fault family -- device
  raises, latency stalls (``slow``), memory pressure, torn and
  silently corrupted snapshots, rotten device blocks, and worker
  kills/hangs/raises;

* :func:`run_chaos_soak` drives one engine through the schedule:
  ingest a stream chunk (recovering from the newest valid checkpoint
  and re-ingesting the suffix whenever a fault surfaces), scrub and
  read-repair when the cycle planted silent corruption, and query the
  spanning forest every cycle -- the full
  ingest -> query -> checkpoint -> scrub -> recover loop, over and
  over, under fire.

The invariants the property tests (``tests/test_chaos.py``) assert on
the resulting :class:`ChaosReport`:

1. **bit-identity** -- the surviving engine's tensors and forest
   partition match a fault-free serial shadow ingest of the same
   stream (sketch linearity makes every recovery order equivalent);
2. **bounded RAM** -- the hybrid memory's own buffer plus every
   reservation (page frames, query slab) never exceeded the configured
   budget at any observation point;
3. **bounded wall-clock** -- every injected stall is interruptible or
   deadline-bounded, so the whole soak finishes in bounded time.

Determinism: the schedule is a pure function of its seed, so a failing
soak replays from ``(seed, cycles)`` alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    CorruptionError,
    RecoveryError,
    WorkerFailure,
)
from repro.observability.metrics import MetricsSnapshot, default_registry
from repro.resilience.faults import FaultPlan, FaultSpec

#: The menu serial cycles rotate through; each entry exercises one
#: fault family (``None`` is a calm cycle -- recovery from the *last*
#: cycle's mess must not depend on more faults arriving).
_SERIAL_MENU = ("raise", "slow", "pressure", "torn", "corrupt", None)

#: The menu distributed cycles rotate through (worker-site modes).
_WORKER_MENU = ("kill", "hang", "raise", "slow")


class ChaosSchedule:
    """A deterministic, seeded sequence of per-cycle fault plans.

    ``cycle_plans`` is a sequence of ``(kind, plan)`` pairs: ``kind``
    is ``"serial"`` (one :meth:`GraphZeppelin.ingest_batch` chunk under
    device/snapshot/memory faults) or ``"distributed"`` (the chunk
    routed through :func:`~repro.distributed.multi_ingestor.distributed_ingest`
    under worker faults).  Build one by hand for a targeted soak, or
    derive one from a seed with :meth:`random`.
    """

    def __init__(
        self,
        cycle_plans: Sequence[Tuple[str, FaultPlan]],
        seed: Optional[int] = None,
    ) -> None:
        plans = tuple(cycle_plans)
        for kind, plan in plans:
            if kind not in ("serial", "distributed"):
                raise ConfigurationError(
                    f"unknown chaos cycle kind {kind!r} "
                    "(use 'serial' or 'distributed')"
                )
            if not isinstance(plan, FaultPlan):
                raise ConfigurationError("each cycle needs a FaultPlan")
        self.cycle_plans: Tuple[Tuple[str, FaultPlan], ...] = plans
        self.seed = seed

    def __len__(self) -> int:
        return len(self.cycle_plans)

    @property
    def modes_covered(self) -> set:
        """Every fault mode some cycle of this schedule injects."""
        return {
            spec.mode for _, plan in self.cycle_plans for spec in plan.faults
        }

    @property
    def distributed_cycles(self) -> int:
        return sum(1 for kind, _ in self.cycle_plans if kind == "distributed")

    @classmethod
    def random(
        cls,
        seed: int,
        cycles: int = 24,
        distributed_every: int = 6,
        max_slow_delay: float = 0.02,
        hang_seconds: float = 0.5,
    ) -> "ChaosSchedule":
        """A seeded schedule rotating through every fault family.

        Every ``distributed_every``-th cycle is distributed, its worker
        fault rotating through kill / hang / raise / slow (always on
        attempt 0, so the supervisor's re-dispatch lands clean);
        serial cycles rotate through device raises, ``slow`` stalls,
        memory pressure, torn checkpoints, rotten blocks, and calm
        cycles.  ``hang_seconds`` bounds the injected hangs so a soak's
        wall clock is dominated by work, not sleeps.  Same
        ``(seed, cycles)``, same schedule -- a failing soak replays
        from the seed alone.
        """
        if cycles < 1:
            raise ConfigurationError("a chaos schedule needs at least one cycle")
        if distributed_every < 1:
            raise ConfigurationError("distributed_every must be at least 1")
        rng = np.random.default_rng(seed)
        plans: List[Tuple[str, FaultPlan]] = []
        serial_index = 0
        distributed_index = 0
        for cycle in range(cycles):
            sub_seed = int(rng.integers(0, 2**31))
            if (cycle + 1) % distributed_every == 0:
                mode = _WORKER_MENU[distributed_index % len(_WORKER_MENU)]
                distributed_index += 1
                spec = FaultSpec(
                    site="worker",
                    worker=int(rng.integers(0, 2)),
                    at=int(rng.integers(1, 3)),
                    mode=mode,
                    delay_seconds=max_slow_delay if mode == "slow" else 0.05,
                )
                plans.append(
                    (
                        "distributed",
                        FaultPlan([spec], seed=sub_seed, hang_seconds=hang_seconds),
                    )
                )
                continue
            family = _SERIAL_MENU[serial_index % len(_SERIAL_MENU)]
            serial_index += 1
            if family == "raise":
                plan = FaultPlan.random(sub_seed, device_faults=1, max_device_ops=4)
            elif family == "slow":
                plan = FaultPlan.random(
                    sub_seed,
                    slow_faults=1,
                    max_device_ops=4,
                    max_slow_delay=max_slow_delay,
                )
            elif family == "pressure":
                plan = FaultPlan.random(
                    sub_seed, pressure_faults=1, max_memory_checks=4
                )
            elif family == "torn":
                plan = FaultPlan.random(sub_seed, snapshot_tears=1)
            elif family == "corrupt":
                plan = FaultPlan.random(
                    sub_seed, block_corruptions=1, max_block_writes=8
                )
            else:
                plan = FaultPlan([], seed=sub_seed)
            plans.append(("serial", plan))
        return cls(plans, seed=seed)

    def __repr__(self) -> str:
        return (
            f"ChaosSchedule({len(self.cycle_plans)} cycles, "
            f"{self.distributed_cycles} distributed, seed={self.seed}, "
            f"modes={sorted(self.modes_covered)})"
        )


@dataclass
class ChaosReport:
    """What one chaos soak survived, in numbers."""

    cycles: int = 0
    distributed_cycles: int = 0
    #: Every fault mode the schedule injected (sorted).
    modes: List[str] = field(default_factory=list)
    updates_total: int = 0
    queries: int = 0
    #: Full checkpoint-recovery round trips (an engine was rebuilt from
    #: the newest valid generation -- or from scratch -- and the stream
    #: suffix re-ingested).
    recoveries: int = 0
    checkpoints_written: int = 0
    checkpoint_failures: int = 0
    #: Scrub-and-repair passes that actually healed pages, and the
    #: pages they healed.
    repairs: int = 0
    pages_repaired: int = 0
    #: Distributed-plane telemetry, summed over distributed cycles.
    worker_retries: int = 0
    straggler_kills: int = 0
    deadline_kills: int = 0
    #: Overload-plane telemetry, summed across every engine the soak
    #: ran (recoveries replace the engine; counters are absorbed first).
    pressure_events: int = 0
    deadline_misses: int = 0
    breaker_rejections: int = 0
    io_retries: int = 0
    #: RAM-budget invariant: the highest cached-plus-reserved byte
    #: count observed, against the configured budget (``None`` when
    #: the engine ran unbounded).
    peak_cached_bytes: int = 0
    ram_budget_bytes: Optional[int] = None
    elapsed_seconds: float = 0.0
    #: The surviving engine's :meth:`GraphZeppelin.health` snapshot.
    final_health: dict = field(default_factory=dict)
    #: Final metrics-registry snapshot of the soak (spans over every
    #: ingest/query/checkpoint/recovery the soak ran, plus worker
    #: registries merged in by the distributed cycles).  ``None`` when
    #: observability was disabled.
    metrics: Optional[MetricsSnapshot] = None


def run_chaos_soak(
    schedule: ChaosSchedule,
    edges: np.ndarray,
    num_nodes: int,
    config=None,
    workdir: Union[str, Path, None] = None,
    num_ingestors: int = 2,
    straggler_timeout: Optional[float] = 0.25,
    worker_deadline: Optional[float] = None,
    checkpoint_keep: int = 3,
):
    """Soak one engine through a chaos schedule; return ``(engine, report)``.

    The stream is split into ``len(schedule)`` contiguous chunks, one
    per cycle.  Each cycle attaches its fault plan to the engine's
    hybrid memory and checkpointer, ingests its chunk (serially or
    through the distributed multi-ingestor), and queries the spanning
    forest.  Any surfaced failure -- injected ``OSError``, missed
    deadline, open breaker, detected corruption -- triggers a full
    recovery: rebuild from the newest valid checkpoint (or from
    scratch when none exists), re-attach the checkpointer, re-ingest
    the stream suffix, and continue the soak.  Cycles that planted
    silent block corruption run
    :func:`~repro.integrity.repair.scrub_and_repair` before querying.

    The surviving engine is bit-identical to a fault-free serial
    ingest of ``edges`` (the caller asserts it; sketch linearity is
    why it holds).  ``workdir`` (default: a ``chaos`` sibling of the
    caller's choice is required) holds the checkpoint generations and
    per-cycle distributed snapshot scratch.
    """
    from repro.core.config import GraphZeppelinConfig
    from repro.core.graph_zeppelin import GraphZeppelin
    from repro.distributed.multi_ingestor import distributed_ingest
    from repro.distributed.snapshot import merge_snapshots_into
    from repro.integrity.repair import scrub_and_repair
    from repro.resilience.checkpoint import CheckpointPolicy
    from repro.resilience.supervisor import WorkerRetryPolicy

    if workdir is None:
        raise ConfigurationError("run_chaos_soak needs a workdir for checkpoints")
    config = config or GraphZeppelinConfig()
    edges = np.ascontiguousarray(np.asarray(edges, dtype=np.int64))
    total_updates = int(edges.shape[0])
    cycles = len(schedule)
    if cycles < 1:
        raise ConfigurationError("the schedule is empty")
    chunk = -(-total_updates // cycles)
    workdir = Path(workdir)
    ckpt_dir = workdir / "ckpt"
    policy = CheckpointPolicy(every_n_updates=max(chunk, 1), keep=checkpoint_keep)
    report = ChaosReport(
        cycles=cycles,
        distributed_cycles=schedule.distributed_cycles,
        modes=sorted(schedule.modes_covered),
        ram_budget_bytes=config.ram_budget_bytes,
    )

    engine = GraphZeppelin(num_nodes, config=config)
    checkpointer = engine.attach_checkpointer(ckpt_dir, policy=policy)

    def absorb(old_engine, old_checkpointer) -> None:
        # An engine about to be replaced takes its telemetry with it;
        # fold the counters into the report first.
        stats = old_engine.io_stats
        if stats is not None:
            snapshot = stats.snapshot()
            for key in (
                "pressure_events",
                "deadline_misses",
                "breaker_rejections",
                "io_retries",
            ):
                setattr(report, key, getattr(report, key) + snapshot[key])
        if old_checkpointer is not None:
            report.checkpoints_written += old_checkpointer.checkpoints_written
            report.checkpoint_failures += old_checkpointer.checkpoint_failures

    def attach_plan(plan: Optional[FaultPlan]) -> None:
        if engine.memory is not None:
            engine.memory.fault_plan = plan
        if engine.checkpointer is not None:
            engine.checkpointer.fault_plan = plan

    def observe_budget() -> None:
        memory = engine.memory
        if memory is not None and not memory.is_unbounded:
            report.peak_cached_bytes = max(
                report.peak_cached_bytes,
                memory.cached_bytes + memory.reserved_bytes,
            )

    def recover(position_end: int) -> None:
        # Full recovery round trip: drop the (possibly half-mutated)
        # engine, rebuild from the newest valid checkpoint -- or from
        # scratch when none qualifies -- and re-ingest the suffix
        # fault-free.  Sketch linearity makes the result bit-identical
        # to never having failed.
        nonlocal engine, checkpointer
        absorb(engine, checkpointer)
        try:
            engine = GraphZeppelin.recover_latest(ckpt_dir, config=config)
            resume = engine.resume_offset
        except RecoveryError:
            engine = GraphZeppelin(num_nodes, config=config)
            resume = 0
        checkpointer = engine.attach_checkpointer(ckpt_dir, policy=policy)
        report.recoveries += 1
        if resume < position_end:
            engine.ingest_batch(edges[resume:position_end])

    started = time.perf_counter()
    position = 0
    for cycle, (kind, plan) in enumerate(schedule.cycle_plans):
        end = min(position + chunk, total_updates)
        chunk_edges = edges[position:end]
        if kind == "serial" or chunk_edges.shape[0] == 0:
            attach_plan(plan)
            try:
                if chunk_edges.shape[0]:
                    engine.ingest_batch(chunk_edges)
            except (CircuitOpenError, CorruptionError, OSError):
                attach_plan(None)
                recover(end)
            finally:
                attach_plan(None)
        else:
            # Distributed cycle: the chunk is ingested by supervised
            # worker processes into a side engine, whose snapshot is
            # XOR-merged into the soaking engine -- linearity again.
            dist_dir = workdir / f"dist-{cycle}"
            try:
                side, dist_report = distributed_ingest(
                    chunk_edges,
                    num_nodes,
                    config=config,
                    num_ingestors=num_ingestors,
                    chunk_size=max(1, chunk_edges.shape[0] // 4),
                    workdir=dist_dir,
                    fault_plan=plan,
                    retry=WorkerRetryPolicy(max_retries=3, backoff_seconds=0.01),
                    straggler_timeout=straggler_timeout,
                    worker_deadline=worker_deadline,
                )
                report.worker_retries += dist_report.worker_retries
                report.straggler_kills += dist_report.straggler_kills
                report.deadline_kills += dist_report.deadline_kills
                merge_path = dist_dir / "cycle-merge.snap"
                side.save_snapshot(merge_path, stream_offset=0)
                merge_snapshots_into([merge_path], engine.tensor_pool)
                engine._updates_processed += side.updates_processed
                engine._cached_forest = None
                engine._note_checkpoint_progress(int(chunk_edges.shape[0]))
            except (WorkerFailure, CorruptionError, OSError):
                # The whole distributed attempt is expendable: nothing
                # merged into the soaking engine (the merge is the last
                # step), so recovery re-ingests the chunk serially.
                recover(end)
        position = end
        observe_budget()

        if any(spec.mode == "corrupt" for spec in plan.faults):
            if engine.memory is not None and not engine.memory.is_unbounded:
                try:
                    repair = scrub_and_repair(engine, ckpt_dir, edges)
                    if not repair.clean:
                        report.repairs += 1
                        report.pages_repaired += len(repair.repaired_pages)
                except (RecoveryError, CorruptionError):
                    # No checkpoint qualifies as a repair source (or the
                    # damage reaches beyond pages): fall back to the
                    # full recovery round trip.
                    recover(position)

        try:
            engine.list_spanning_forest()
        except (CircuitOpenError, CorruptionError, OSError):
            recover(position)
            engine.list_spanning_forest()
        report.queries += 1
        observe_budget()

    report.elapsed_seconds = time.perf_counter() - started
    report.updates_total = engine.updates_processed
    absorb(engine, checkpointer)
    report.final_health = engine.health()
    if default_registry().enabled:
        report.metrics = engine.metrics()
    return engine, report
