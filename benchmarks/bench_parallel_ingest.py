"""Parallel-ingest benchmark: sharded columnar workers vs serial columnar.

The repo's performance ledger for the parallel layer.  Four paths over
the same random multi-graph stream:

* ``serial columnar``: single-threaded ``ingest_batch`` -- the baseline
  the sharded pipeline must beat;
* ``sharded threads`` at 1, 2, and 4 workers: the
  :class:`~repro.parallel.graph_workers.ShardedIngestor` pipeline
  (partition + per-shard folds) on the thread backend;
* ``sharded processes`` at 4 workers: pool tensors in shared memory,
  worker processes attached by name.

Every sharded row is checked for a **bit-identical** spanning forest
(and pool tensors) against the serial baseline, recorded per backend as
``forest_bit_identical`` in ``BENCH_parallel.json``.

Serial and sharded ingest run the same fold kernel, so sharding buys
concurrency only: with at least two usable cores, sharded threads at 4
workers must not be slower than the serial columnar rate on the
20k-node / 60k-update stream (see ``MIN_SPEEDUP``).  On one core there
is nothing to win and only bit-identity is asserted.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the workload
and asserts bit-identity on both backends only: its per-shard groups
are too small for a rate comparison to mean anything.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
from _timing import TIMING_REPS, interleaved_medians
from conftest import print_table

from repro.analysis.tables import render_table
from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.generators.random_graphs import random_multigraph_edges
from repro.parallel.cost_model import usable_cores
from repro.parallel.graph_workers import ShardedIngestor

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Benchmark scale: the ISSUE's acceptance workload is a 20k-node,
#: 60k-update random stream; smoke mode shrinks it for CI.
NUM_NODES = 2_000 if SMOKE else 20_000
NUM_EDGES = 6_000 if SMOKE else 60_000
#: Required sharded-over-serial rate ratio at 4 workers, applied to the
#: full-scale run on hosts with at least two usable cores.  Earlier
#: floors (2x, then 1.4x) were met on ONE core because only shard-local
#: folds reached the old kernel's int16 sort; with one kernel for every
#: fold, a single core has nothing left to win.  Absolute rates live in
#: the ledger.
MIN_SPEEDUP = 1.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

SEED = 9

#: Hot-kernel backend of the measured engines (the committed ledger is
#: the numpy baseline; ``BENCH_kernels.json`` ledgers native-vs-numpy).
KERNEL_BACKEND = os.environ.get("REPRO_BENCH_KERNEL_BACKEND", "numpy")


def _engine() -> GraphZeppelin:
    return GraphZeppelin(
        NUM_NODES,
        config=GraphZeppelinConfig(seed=SEED, kernel_backend=KERNEL_BACKEND),
    )


def _release(engine: GraphZeppelin) -> None:
    """Free an engine's (possibly shared-memory) pool between rows."""
    engine.tensor_pool.release_shared()


def _pools_equal(a: GraphZeppelin, b: GraphZeppelin) -> bool:
    """Bit-compare two engines' pool tensors without unpacking copies."""
    pa, pb = a.tensor_pool, b.tensor_pool
    if pa._packed and pb._packed:
        return np.array_equal(pa._buckets, pb._buckets)
    return all(
        np.array_equal(x, y) for x, y in zip(pa.raw_tensors(), pb.raw_tensors())
    )


def test_parallel_ingest_ledger():
    edges = random_multigraph_edges(NUM_NODES, NUM_EDGES, seed=5)
    count = int(edges.shape[0])

    def serial():
        engine = _engine()
        engine.ingest_batch(edges)
        return engine

    def sharded(backend: str, workers: int):
        def run():
            engine = _engine()
            with ShardedIngestor(engine, num_workers=workers, backend=backend) as ing:
                ing.ingest_stream(
                    edges[s : s + (1 << 14)] for s in range(0, count, 1 << 14)
                )
            return engine

        return run

    specs = [
        ("serial columnar (ingest_batch)", count, serial),
        ("sharded threads x1", count, sharded("threads", 1)),
        ("sharded threads x2", count, sharded("threads", 2)),
        ("sharded threads x4", count, sharded("threads", 4)),
        ("sharded processes x4", count, sharded("processes", 4)),
    ]

    # Bit-identity of every sharded engine against the serial baseline
    # (first repetition only -- the paths are deterministic): identical
    # pool tensors imply identical forests, but both are checked so the
    # ledger records the user-visible guarantee.  Engines are verified
    # and freed as soon as possible -- the pools are hundreds of
    # megabytes at full scale -- except the baseline, which is kept
    # through the first interleaved pass for the comparisons.
    row_identical = {}
    reference = {}

    def on_result(label: str, rep: int, engine: GraphZeppelin) -> None:
        if rep == 0 and label.startswith("serial"):
            reference["engine"] = engine
            reference["forest"] = engine.list_spanning_forest().partition_signature()
            return
        if rep == 0 and label.startswith("sharded"):
            row_identical[label] = bool(
                _pools_equal(reference["engine"], engine)
                and engine.list_spanning_forest().partition_signature()
                == reference["forest"]
            )
        _release(engine)

    def on_rep_end(rep: int) -> None:
        if rep == 0:
            _release(reference.pop("engine"))

    medians = interleaved_medians(
        [(label, run) for label, _, run in specs],
        reps=TIMING_REPS,
        on_result=on_result,
        on_rep_end=on_rep_end,
    )

    rows = []
    for label, updates, _ in specs:
        seconds = medians[label]
        row = {
            "path": label,
            "updates": updates,
            "seconds": round(seconds, 4),
            "updates_per_sec": round(updates / seconds, 1),
        }
        if label in row_identical:
            row["forest_bit_identical"] = row_identical[label]
        rows.append(row)
    identical = {
        backend: all(
            same for label, same in row_identical.items() if backend in label
        )
        for backend in ("threads", "processes")
    }

    serial_rate = rows[0]["updates_per_sec"]
    for row in rows:
        row["speedup_vs_serial"] = round(row["updates_per_sec"] / serial_rate, 2)
    print_table(
        render_table(
            rows,
            title=(
                f"Parallel ingest ({NUM_NODES} nodes, {count} edge updates, "
                f"{usable_cores()} cores{', smoke' if SMOKE else ''})"
            ),
        )
    )

    payload = {
        "num_nodes": NUM_NODES,
        "num_edge_updates": count,
        "cores": usable_cores(),
        "kernel_backend": _engine().resolved_kernel_backend,
        "smoke": SMOKE,
        "forest_bit_identical": identical,
        "rows": rows,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert identical["threads"], "threads backend diverged from serial ingest"
    assert identical["processes"], "processes backend diverged from serial ingest"
    if not SMOKE and usable_cores() >= 2:
        threads4 = next(r for r in rows if r["path"] == "sharded threads x4")
        assert threads4["updates_per_sec"] >= MIN_SPEEDUP * serial_rate, (
            f"sharded threads x4 only {threads4['updates_per_sec'] / serial_rate:.2f}x "
            f"over serial columnar (need >= {MIN_SPEEDUP}x)"
        )
