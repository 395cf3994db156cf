"""Out-of-core ingest benchmark: the paged pool against the in-RAM pool.

The repo's performance ledger for the out-of-core engine (ISSUE 4).
Two engines ingest the same random stream through the same user API
(`ingest_batch` chunks, then `flush`):

* ``in-RAM columnar``: no RAM budget -- the reference the out-of-core
  row must stay **bit-identical** to (same forest, same bucket tensors
  under the same seed);
* ``paged columnar``: ``ram_budget_bytes`` set, the
  :class:`~repro.sketch.paged_pool.PagedTensorPool` -- node-group
  pages through the hybrid memory, page-coalesced buffering, combined
  fold kernel.

The RAM budget is an eighth of the sketch-state bytes, which leaves
well over half of the pages spilled to the simulated SSD (the spill
fraction is recorded and asserted >= 50%).  The workload is the
out-of-core regime the paper's Figures 12/15 target: a graph whose
node universe dwarfs the buffered updates per node.

Acceptance: a forest and bucket tensors bit-identical to the in-RAM
engine at >= 50% spill.  (The seed design's per-node blob store, which
the committed ledger's third row and its 5x floor measured, was retired
in PR 18.)  Smoke mode (``REPRO_BENCH_SMOKE=1``, CI) shrinks the
workload.
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
from repro.sketch.sizes import node_sketch_size_bytes

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Benchmark scale: a wide, sparse stream (the out-of-core regime --
#: most nodes see only a handful of updates between flushes).
NUM_NODES = 2_000 if SMOKE else 30_000
NUM_EDGES = 2_000 if SMOKE else 20_000
#: Ingest chunk handed to ``ingest_batch`` (the buffering layer sits
#: behind it either way).
CHUNK = 1_000 if SMOKE else 4_000
#: Required spill: at least half the pages must not fit the working set.
MIN_SPILL_FRACTION = 0.5

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_outofcore.json"

SEED = 13


def _ram_budget() -> int:
    return node_sketch_size_bytes(NUM_NODES) * NUM_NODES // 8


def _config(kind: str) -> GraphZeppelinConfig:
    if kind == "in_ram":
        return GraphZeppelinConfig(seed=SEED)
    return GraphZeppelinConfig(seed=SEED, ram_budget_bytes=_ram_budget())


def _ingest(kind: str, edges: np.ndarray) -> GraphZeppelin:
    engine = GraphZeppelin(NUM_NODES, config=_config(kind))
    for start in range(0, edges.shape[0], CHUNK):
        engine.ingest_batch(edges[start : start + CHUNK])
    engine.flush()
    return engine


def _tensors_equal(a: GraphZeppelin, b: GraphZeppelin) -> bool:
    alpha_a, gamma_a = a.tensor_pool.raw_tensors()
    alpha_b, gamma_b = b.tensor_pool.raw_tensors()
    return bool(
        np.array_equal(alpha_a, alpha_b)
        and np.array_equal(
            np.asarray(gamma_a, dtype=np.uint64), np.asarray(gamma_b, dtype=np.uint64)
        )
    )


def test_outofcore_ingest_ledger():
    edges = random_multigraph_edges(NUM_NODES, NUM_EDGES, seed=5)
    count = int(edges.shape[0])

    specs = ["in_ram", "paged"]
    engines = {}

    def on_result(kind: str, rep: int, engine: GraphZeppelin) -> None:
        # The first repetition's engines are kept for the correctness
        # half of the ledger below; later repetitions are timing-only.
        if rep == 0:
            engines[kind] = engine

    medians = interleaved_medians(
        [(kind, (lambda kind=kind: _ingest(kind, edges))) for kind in specs],
        reps=TIMING_REPS,
        on_result=on_result,
    )

    # Correctness half of the ledger: the out-of-core engine answers
    # with the in-RAM forest, and the paged pool's bucket tensors are
    # bit-identical to the in-RAM pool's.
    reference_forest = engines["in_ram"].list_spanning_forest().partition_signature()
    paged_identical = _tensors_equal(engines["in_ram"], engines["paged"]) and (
        engines["paged"].list_spanning_forest().partition_signature()
        == reference_forest
    )

    page_info = engines["paged"].tensor_pool.page_stats()
    spill_fraction = 1.0 - page_info["resident_budget"] / page_info["num_pages"]
    io_per_update = engines["paged"].io_stats.total_ios / count

    rows = []
    for kind, label in [
        ("in_ram", "in-RAM columnar (reference)"),
        ("paged", "paged columnar (PagedTensorPool)"),
    ]:
        seconds = medians[kind]
        row = {
            "path": label,
            "seconds": round(seconds, 4),
            "updates_per_sec": round(count / seconds, 1),
        }
        if kind != "in_ram":
            row["block_ios"] = engines[kind].io_stats.total_ios
            row["ios_per_update"] = round(io_per_update, 3)
            row["modelled_io_seconds"] = round(
                engines[kind].io_stats.modelled_seconds, 3
            )
        rows.append(row)

    print_table(
        render_table(
            rows,
            title=(
                f"Out-of-core ingest ({NUM_NODES} nodes, {count} edge updates, "
                f"RAM budget {_ram_budget() >> 20} MiB, "
                f"{page_info['num_pages']} pages x {page_info['nodes_per_page']} "
                f"nodes, spill {spill_fraction:.0%}{', smoke' if SMOKE else ''})"
            ),
        )
    )

    payload = {
        "num_nodes": NUM_NODES,
        "num_edge_updates": count,
        "ram_budget_bytes": _ram_budget(),
        "page_payload_bytes": page_info["page_payload_bytes"],
        "nodes_per_page": page_info["nodes_per_page"],
        "num_pages": page_info["num_pages"],
        "resident_budget_pages": page_info["resident_budget"],
        "spill_fraction": round(spill_fraction, 4),
        "smoke": SMOKE,
        "timing_reps": TIMING_REPS,
        "rows": rows,
        "paged_bit_identical_to_in_ram": paged_identical,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")

    # Acceptance: bit-identical answers at >= 50% spill.
    assert paged_identical, "paged pool diverged from the in-RAM reference"
    assert spill_fraction >= MIN_SPILL_FRACTION, (
        f"workload only spills {spill_fraction:.0%} of pages; "
        "tighten the RAM budget"
    )


if __name__ == "__main__":
    test_outofcore_ingest_ledger()
