"""The four workloads: set-up, timed operations, and answer checks.

Each workload is a class with ``setup()`` (inputs from the seed, engine
construction, provider resolve, warm-up) and ``run(recorder)`` (the
timed operations).  Load is closed-loop from this one thread: an
operation is issued when the previous one has returned.  The only other
threads are the two shard workers of ``ram_uniform_numpy``'s sharded
phase.  The program's own defaults (metrics registry on, GC on,
``config.seed = 0``) are left alone; the workload seed only shapes the
inputs.

An *operation* is one timed ingest call (or call sequence) or one
query.  It *fails* when the answer it produced is not exact: forest or
partition different from the oracle's, ``complete=False``, sharded
forest different from the serial one, delete-to-empty not all
singletons, or the out-of-core RAM tier above its budget.  An operation
that raises aborts the run.

The work of a run is a fixed function of ``(--seed, --seconds)``, sized
so the timed part takes about ``--seconds`` on the reference host: the
same seed then gives the same counts (block I/Os, query rounds) on
every run and on both sides of a comparison.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.distributed.snapshot import merge_snapshots_into
from repro.kernels import native_unavailable_reason
from repro.streaming.io import read_stream_binary
from repro.types import EdgeUpdate, UpdateType

from bench import workloads
from bench.oracle import ToggleOracle
from bench.trace import Tracer

SHARD_WORKERS = 2


class Recorder:
    """Times operations and counts attempts, failures and query work."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.seconds_by_kind: Dict[str, float] = defaultdict(float)
        self.query_counts: Dict[str, int] = defaultdict(int)

    def timed(self, kind: str, fn: Callable, *args):
        """Run one operation; returns ``(result, seconds)``."""
        self.attempted += 1
        root = self.tracer.root(kind) if self.tracer is not None else nullcontext()
        start = time.perf_counter()
        with root:
            result = fn(*args)
        seconds = time.perf_counter() - start
        self.seconds_by_kind[kind] += seconds
        return result, seconds

    @property
    def timed_total_s(self) -> float:
        return sum(self.seconds_by_kind.values())

    def verify(self, ok: bool, what: str) -> None:
        """Record the verdict on the operation that was just timed."""
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def note_query(self, engine) -> None:
        stats = engine.last_query_stats
        self.query_counts["core.query_rounds"] += stats.rounds_used
        self.query_counts["core.component_queries"] += stats.component_queries
        self.query_counts["core.failed_samples"] += stats.failed_samples
        self.query_counts["core.good_samples"] += stats.good_samples


def _native_config(**overrides):
    return GraphZeppelinConfig(kernel_backend="auto", **overrides)


def _require_native(engine, workload: str) -> None:
    if engine.resolved_kernel_backend == "numpy":
        raise SystemExit(
            f"{workload}: kernel_backend='auto' resolved to numpy "
            f"({native_unavailable_reason()}); a *_native workload never falls "
            "back -- install a C compiler or numba"
        )


def _warm_up(engine, batch: np.ndarray) -> None:
    """Ingest a batch twice: first touch of pool and scratch, XOR-cancelled."""
    engine.ingest_batch(batch)
    engine.ingest_batch(batch)
    engine.flush()


class Workload:
    """Base of the four workloads; ``sizes`` scale with ``--seconds``."""

    name = ""

    def __init__(self, seed: int, seconds: int, smoke: bool, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.sizes = self.plan(max(int(seconds), 1), smoke)
        self.kernel_backend = "numpy"
        #: Samples the end-to-end metrics are medians of.
        self.ingest_rates: List[float] = []
        self.query_s: List[float] = []
        self.answer_s: List[float] = []
        self.state_bytes_per_node = 0.0
        #: Workload-specific per-layer metrics.
        self.layer: Dict[str, float] = {}

    def plan(self, seconds: int, smoke: bool) -> Dict[str, int]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, rec: Recorder) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _query(
        self, rec: Recorder, engine, oracle: Optional[ToggleOracle], what: str, sample: bool = True
    ):
        """Timed ``list_spanning_forest``; checked when an oracle is given."""
        forest, seconds = rec.timed("query", engine.list_spanning_forest)
        rec.note_query(engine)
        if sample:
            self.query_s.append(seconds)
        if oracle is not None:
            rec.verify(
                forest.complete and oracle.forest_is_exact(forest.edges),
                f"{what}: forest differs from the exact oracle",
            )
        return forest, seconds


class RamUniformNumpy(Workload):
    name = "ram_uniform_numpy"

    def plan(self, seconds, smoke):
        if smoke:
            return {"nodes": 512, "chunk": 256, "chunks": 4, "calls": 2}
        calls = 4
        return {
            "nodes": 20_000,
            "chunk": 8_192,
            "chunks": calls * max(1, round(seconds / calls)),
            "calls": calls,
        }

    def setup(self):
        s = self.sizes
        rng = np.random.default_rng(self.seed)
        edges = workloads.uniform_edges(rng, s["nodes"], s["chunk"] * s["chunks"])
        self.chunks = [
            edges[i : i + s["chunk"]] for i in range(0, edges.shape[0], s["chunk"])
        ]
        self.engine = GraphZeppelin(s["nodes"])
        self.kernel_backend = self.engine.resolved_kernel_backend
        _warm_up(self.engine, self.chunks[0])

    def run(self, rec):
        s = self.sizes
        oracle = ToggleOracle(s["nodes"])
        engine = self.engine
        serial_s = []
        for i, chunk in enumerate(self.chunks):
            _, ingest = rec.timed("ingest", engine.ingest_batch, chunk)
            oracle.toggle(chunk)
            forest, query = self._query(rec, engine, oracle, f"serial segment {i}")
            serial_s.append(ingest)
            self.ingest_rates.append(chunk.shape[0] / ingest)
            self.answer_s.append(ingest + query)
        self.state_bytes_per_node = engine.total_bytes() / s["nodes"]
        serial_edges = forest.edges

        # Same stream, same chunking, through the sharded path on a fresh
        # engine (same config.seed, so the forest must be bit-identical),
        # then once more: every edge toggled twice leaves the empty graph.
        del engine, self.engine  # free the serial pool before the next one is touched
        engine = GraphZeppelin(s["nodes"])
        _warm_up(engine, self.chunks[0])
        per_call = len(self.chunks) // s["calls"]
        sharded_s = []
        with engine.parallel_ingestor(num_workers=SHARD_WORKERS, backend="threads") as ingestor:
            for phase in ("insert", "delete"):
                for call in range(s["calls"]):
                    group = self.chunks[call * per_call : (call + 1) * per_call]
                    _, seconds = rec.timed("ingest_stream", ingestor.ingest_stream, group)
                    sharded_s.append(seconds)
                forest, _ = self._query(rec, engine, None, f"sharded {phase}")
                if phase == "insert":
                    ok = forest.complete and forest.edges == serial_edges
                    what = "sharded forest differs from the serial forest"
                else:
                    ok = forest.complete and forest.num_components == s["nodes"]
                    what = "delete-to-empty did not leave all singletons"
                rec.verify(ok, what)
            workers, shards = ingestor.effective_workers, ingestor.num_shards
        sharded_rate = per_call * s["chunk"] / statistics.median(sharded_s)
        self.layer.update(
            {
                "parallel.sharded_updates_per_s": sharded_rate,
                "parallel.speedup_vs_serial": sharded_rate * statistics.median(serial_s) / s["chunk"],
                "parallel.effective_workers": workers,
                "parallel.shards": shards,
            }
        )


class RamBridgesQueryNative(Workload):
    name = "ram_bridges_query_native"

    def plan(self, seconds, smoke):
        if smoke:
            return {"nodes": 600, "community": 20, "steps": 24, "per_step": 8,
                    "window": 4, "check_every": 5}
        return {"nodes": 8_000, "community": 20, "steps": 34 * seconds, "per_step": 32,
                "window": 8, "check_every": 20}

    def setup(self):
        s = self.sizes
        rng = np.random.default_rng(self.seed)
        self.intra = workloads.community_edges(
            rng, s["nodes"], s["community"], 3 * s["nodes"] // 2
        )
        self.deltas = workloads.bridge_steps(
            rng, s["nodes"], s["community"], s["steps"], s["per_step"], s["window"]
        )
        self.engine = GraphZeppelin(s["nodes"], _native_config())
        _require_native(self.engine, self.name)
        self.kernel_backend = self.engine.resolved_kernel_backend
        self.engine.ingest_batch(self.intra)
        _warm_up(self.engine, self.deltas[0])
        self.engine.list_spanning_forest()

    def run(self, rec):
        s = self.sizes
        engine = self.engine
        oracle = ToggleOracle(s["nodes"])
        oracle.toggle(self.intra)
        ingest_s = []
        last = len(self.deltas) - 1
        for step, delta in enumerate(self.deltas):
            _, ingest = rec.timed("ingest", engine.ingest_batch, delta)
            oracle.toggle(delta)
            checked = step % s["check_every"] == 0 or step == last
            _, query = self._query(rec, engine, oracle if checked else None, f"step {step}")
            ingest_s.append(ingest)
            self.ingest_rates.append(delta.shape[0] / ingest)
            self.answer_s.append(ingest + query)
        self.state_bytes_per_node = engine.total_bytes() / s["nodes"]
        answers = sorted(self.answer_s)
        self.layer.update(
            {
                "core.answer_ms_p95": 1e3 * answers[int(0.95 * (len(answers) - 1))],
                "core.ingest_small_batch_ms_p50": 1e3 * statistics.median(ingest_s),
            }
        )
        if rec.tracer is not None:
            self._snapshot_round_trip(rec, oracle)

    def _snapshot_round_trip(self, rec, oracle):
        """save -> load -> merge of the final state (traced runs only)."""
        engine = self.engine
        path = self.workdir / "bridges.snap"
        rec.timed("snapshot_save", engine.save_snapshot, path)
        loaded, _ = rec.timed(
            "snapshot_load", GraphZeppelin.load_snapshot, path, _native_config()
        )
        rec.verify(
            loaded.list_spanning_forest().edges == engine.list_spanning_forest().edges,
            "loaded snapshot answers differently from the engine that wrote it",
        )
        del loaded
        merged = GraphZeppelin(self.sizes["nodes"], _native_config())
        rec.timed("snapshot_merge", merge_snapshots_into, [path], merged.tensor_pool)
        forest = merged.list_spanning_forest()
        rec.verify(
            forest.complete and oracle.forest_is_exact(forest.edges),
            "merged snapshot differs from the exact oracle",
        )
        self.layer["distributed.snapshot_bytes_per_node"] = (
            path.stat().st_size / self.sizes["nodes"]
        )
        path.unlink()


class OocSkewChurnNative(Workload):
    name = "ooc_skew_churn_native"

    PRIMING_EPOCHS = 2  # epochs before the first deletion batch exists

    def plan(self, seconds, smoke):
        if smoke:
            return {"scale": 8, "per_epoch": 512, "epochs": self.PRIMING_EPOCHS + 3}
        return {
            "scale": 13,
            "per_epoch": 16_384,
            "epochs": self.PRIMING_EPOCHS + max(3, round(0.9 * seconds)),
        }

    def setup(self):
        s = self.sizes
        nodes = 1 << s["scale"]
        rng = np.random.default_rng(self.seed)
        self.batches = [
            workloads.rmat_edges(rng, s["scale"], s["per_epoch"]) for _ in range(s["epochs"])
        ]
        # An unbounded engine is never touched, so this costs no memory.
        state = GraphZeppelin(nodes).sketch_bytes()
        self.budget = state // 8
        self.engine = GraphZeppelin(
            nodes, GraphZeppelinConfig.out_of_core(self.budget, kernel_backend="auto")
        )
        _require_native(self.engine, self.name)
        self.kernel_backend = self.engine.resolved_kernel_backend
        _warm_up(self.engine, self.batches[0])
        self.engine.list_spanning_forest()

    def _epoch(self, epoch: int) -> None:
        engine = self.engine
        engine.ingest_batch(self.batches[epoch])
        if epoch >= self.PRIMING_EPOCHS:
            engine.ingest_batch(self.batches[epoch - self.PRIMING_EPOCHS])
        engine.flush()

    def run(self, rec):
        s = self.sizes
        nodes = 1 << s["scale"]
        engine, memory = self.engine, self.engine.memory
        oracle = ToggleOracle(nodes)
        peak_tier = 0
        before_io = before_pages = None
        updates = 0
        for epoch in range(s["epochs"]):
            sample = epoch >= self.PRIMING_EPOCHS
            if sample and before_io is None:
                before_io = engine.io_stats.snapshot()
                before_pages = engine.tensor_pool.page_stats()
            _, ingest = rec.timed("ingest", self._epoch, epoch)
            tier = memory.cached_bytes + memory.reserved_bytes
            peak_tier = max(peak_tier, tier)
            rec.verify(tier <= self.budget, f"epoch {epoch}: RAM tier {tier} B above budget")
            oracle.toggle(self.batches[epoch])
            count = s["per_epoch"]
            if sample:
                oracle.toggle(self.batches[epoch - self.PRIMING_EPOCHS])
                count *= 2
            _, query = self._query(rec, engine, oracle, f"epoch {epoch}", sample)
            tier = memory.cached_bytes + memory.reserved_bytes
            peak_tier = max(peak_tier, tier)
            if sample:
                updates += count
                self.ingest_rates.append(count / ingest)
                self.answer_s.append(ingest + query)
        self.state_bytes_per_node = engine.total_bytes() / nodes
        io = engine.io_stats.diff(before_io)
        pages = engine.tensor_pool.page_stats()
        lookups = io["cache_hits"] + io["cache_misses"]
        self.layer.update(
            {
                "memory.block_ios_per_update": (io["block_reads"] + io["block_writes"]) / updates,
                "memory.device_bytes_per_update": (io["bytes_read"] + io["bytes_written"]) / updates,
                "memory.block_reads": io["block_reads"],
                "memory.block_writes": io["block_writes"],
                "memory.cache_hit_rate": io["cache_hits"] / lookups if lookups else 0.0,
                "memory.modelled_io_s": io["modelled_seconds"],
                "memory.page_ins": pages["page_ins"] - before_pages["page_ins"],
                "memory.page_writebacks": pages["page_writebacks"] - before_pages["page_writebacks"],
                "memory.partial_reads": pages["partial_reads"] - before_pages["partial_reads"],
                "memory.ram_tier_peak_share": peak_tier / self.budget,
            }
        )


class FileKronDenseNative(Workload):
    name = "file_kron_dense_native"

    def plan(self, seconds, smoke):
        if smoke:
            return {"scale": 6, "reps": 2, "point_steps": 3, "point_updates": 200}
        return {
            "scale": 10,
            "reps": max(3, round(2 * seconds / 3)),
            "point_steps": 10,
            "point_updates": 25_000,
        }

    def setup(self):
        s = self.sizes
        self.nodes = 1 << s["scale"]
        rng = np.random.default_rng(self.seed)
        graph = workloads.kronecker_edges(rng, s["scale"], density=0.4)
        self.updates = workloads.stream_conversion(
            rng, self.nodes, graph, churn_share=0.10, reinsert_share=0.05, disconnected=8
        )
        self.path = self.workdir / "kron.stream"
        workloads.write_stream_file(self.path, self.nodes, self.updates)
        # The per-update phase replays a stream prefix through the scalar
        # API; the program's own update type is built here, in set-up.
        kinds = {1: UpdateType.INSERT, -1: UpdateType.DELETE}
        prefix = s["point_steps"] * s["point_updates"]
        if prefix > self.updates.shape[0]:
            raise RuntimeError("stream shorter than the per-update phase replays")
        rows = self.updates[:prefix].tolist()
        self.point_updates = [EdgeUpdate(u, v, kinds[kind]) for kind, u, v in rows]
        engine = GraphZeppelin(self.nodes, _native_config())
        _require_native(engine, self.name)
        self.kernel_backend = engine.resolved_kernel_backend
        _warm_up(engine, self.updates[: 1 << 14, 1:])
        engine.connected_components()

    # ------------------------------------------------------------------
    def _load(self):
        stream = read_stream_binary(self.path)
        engine = GraphZeppelin(stream.num_nodes, _native_config())
        return stream, engine, list(stream.edge_array_chunks())

    def run(self, rec):
        s = self.sizes
        total = self.updates.shape[0]
        rep_s = []
        for rep in range(s["reps"]):
            oracle = ToggleOracle(self.nodes)
            (stream, engine, chunks), elapsed = rec.timed("load", self._load)
            rec.verify(len(stream) == total, f"rep {rep}: stream length differs from the file")
            marks = stream.checkpoints(0.1)
            position = 0
            for chunk in chunks:
                _, seconds = rec.timed("ingest", engine.ingest_batch, chunk)
                elapsed += seconds
                oracle.toggle(chunk)
                position += chunk.shape[0]
                if marks and position >= marks[0]:
                    while marks and position >= marks[0]:
                        marks.pop(0)
                    components, seconds = rec.timed("query", engine.connected_components)
                    rec.note_query(engine)
                    rec.verify(
                        oracle.partition_is_exact(components),
                        f"rep {rep} at update {position}: partition differs from the oracle",
                    )
                    elapsed += seconds
                    self.query_s.append(seconds)
            rep_s.append(elapsed)
            self.ingest_rates.append(total / elapsed)
        self.state_bytes_per_node = engine.total_bytes() / self.nodes

        # Per-update API on a fresh engine: ingest(updates) + flush(), then
        # the answer.
        engine = GraphZeppelin(self.nodes, _native_config())
        oracle = ToggleOracle(self.nodes)
        size = s["point_updates"]
        point_s = []
        for step in range(s["point_steps"]):
            batch = self.point_updates[step * size : (step + 1) * size]

            def ingest_and_flush():
                engine.ingest(batch)
                engine.flush()

            _, ingest = rec.timed("point_ingest", ingest_and_flush)
            oracle.toggle(self.updates[step * size : (step + 1) * size, 1:])
            components, query = rec.timed("query", engine.connected_components)
            rec.note_query(engine)
            rec.verify(
                oracle.partition_is_exact(components),
                f"point step {step}: partition differs from the oracle",
            )
            point_s.append(ingest)
            self.answer_s.append(ingest + query)
        self.layer.update(
            {
                "streaming.file_to_forest_s": statistics.median(rep_s),
                "core.point_updates_per_s": size / statistics.median(point_s),
            }
        )


WORKLOADS = {
    cls.name: cls
    for cls in (RamUniformNumpy, RamBridgesQueryNative, OocSkewChurnNative, FileKronDenseNative)
}
