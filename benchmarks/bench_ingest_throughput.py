"""Ingest-throughput micro-benchmark: per-edge vs columnar.

Not a paper figure -- this is the repo's own performance ledger for the
ingest pipeline.  Two paths over the same random multi-graph stream:

* ``per-edge``: one ``edge_update`` call per stream update through the
  gutters (the scalar API);
* ``columnar``: ``ingest_batch`` end-to-end -- canonicalise, mirror,
  encode, and fold the whole edge array through the tensor-pool kernel.

(The committed ledger's per-CubeSketch and grouped-per-node rows timed
paths retired in PR 18.)

The measured updates/sec land in ``BENCH_ingest.json`` next to this
file so future PRs can track the trajectory.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the workload
to run in seconds.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
from conftest import print_table

from repro.analysis.tables import render_table
from repro.core.config import BufferingMode, GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Benchmark scale: the ISSUE's acceptance workload is a 10k-node
#: random stream; smoke mode shrinks it for CI.
NUM_NODES = 1_000 if SMOKE else 10_000
NUM_EDGES = 2_000 if SMOKE else 30_000
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"


def _random_edges(num_nodes: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, num_nodes, count)
    v = rng.integers(0, num_nodes, count)
    keep = u != v
    return np.stack([u[keep], v[keep]], axis=1).astype(np.int64)


#: Hot-kernel backend of the measured engines (set
#: ``REPRO_BENCH_KERNEL_BACKEND=auto``/``native`` to ledger the
#: compiled kernels; the committed ledger is the numpy baseline --
#: ``BENCH_kernels.json`` holds the native-vs-numpy comparison).
KERNEL_BACKEND = os.environ.get("REPRO_BENCH_KERNEL_BACKEND", "numpy")


def _engine() -> GraphZeppelin:
    return GraphZeppelin(
        NUM_NODES,
        config=GraphZeppelinConfig(
            buffering=BufferingMode.LEAF_GUTTERS, seed=3, kernel_backend=KERNEL_BACKEND
        ),
    )


def _measure(label: str, run) -> dict:
    start = time.perf_counter()
    engine = run()
    elapsed = max(time.perf_counter() - start, 1e-9)
    updates = engine.updates_processed
    return {
        "path": label,
        "updates": updates,
        "seconds": round(elapsed, 4),
        "updates_per_sec": round(updates / elapsed, 1),
    }


def test_ingest_throughput_ledger():
    edges = _random_edges(NUM_NODES, NUM_EDGES, seed=5)

    def per_edge():
        engine = _engine()
        for u, v in edges.tolist():
            engine.edge_update(u, v)
        engine.flush()
        return engine

    def columnar():
        engine = _engine()
        engine.ingest_batch(edges)
        engine.flush()
        return engine

    rows = [
        _measure("per-edge (edge_update)", per_edge),
        _measure("columnar (ingest_batch)", columnar),
    ]
    for row in rows:
        row["speedup_vs_per_edge"] = round(
            row["updates_per_sec"] / max(rows[0]["updates_per_sec"], 1e-9), 2
        )
    print_table(
        render_table(
            rows,
            title=(
                f"Ingest throughput ({NUM_NODES} nodes, {edges.shape[0]} edge updates"
                f"{', smoke' if SMOKE else ''})"
            ),
        )
    )

    payload = {
        "num_nodes": NUM_NODES,
        "num_edge_updates": int(edges.shape[0]),
        "kernel_backend": _engine().resolved_kernel_backend,
        "smoke": SMOKE,
        "rows": rows,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    per_edge_rate = rows[0]["updates_per_sec"]
    columnar_rate = rows[1]["updates_per_sec"]
    # Loose sanity floor (0.5x) -- CI timing noise on shared runners
    # makes a tight ratio flaky; the ledger records the exact numbers
    # for trend tracking.
    assert columnar_rate > per_edge_rate * 0.5


def test_columnar_ingest_kernel(benchmark):
    """pytest-benchmark timing of the bare columnar ingest kernel."""
    edges = _random_edges(NUM_NODES, NUM_EDGES // 4, seed=11)
    engine = _engine()
    benchmark.pedantic(engine.ingest_batch, args=(edges,), rounds=1, iterations=1)
