"""Snapshots, XOR merges, and distributed multi-process ingest.

This example walks the three faces of the distributed plane on one
random stream:

1. **Checkpoint / resume**: ingest half the stream, snapshot the pool,
   "crash", reload, and finish from the recorded offset -- the final
   forest is bit-identical to a run that never stopped.
2. **Snapshot merge**: two engines ingest disjoint halves of the
   stream; XOR-merging their snapshots into a fresh engine
   (``GraphZeppelin.merge_snapshots``) yields the pool of the whole
   stream (sketch linearity).
3. **Distributed driver**: the same split/merge run end to end across
   worker processes with one call.

Run with:  python examples/distributed_snapshot_merge.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import GraphZeppelin, GraphZeppelinConfig
from repro.distributed.multi_ingestor import distributed_ingest
from repro.generators.random_graphs import random_multigraph_edges


def main() -> None:
    num_nodes, num_updates = 3_000, 30_000
    edges = random_multigraph_edges(num_nodes, num_updates, seed=7)
    config = GraphZeppelinConfig(seed=1)
    workdir = Path(tempfile.mkdtemp(prefix="repro-example-"))

    # --- the uninterrupted reference -----------------------------------
    reference = GraphZeppelin(num_nodes, config=config)
    reference.ingest_batch(edges)
    reference_forest = reference.list_spanning_forest()
    print(f"reference: {reference_forest.num_components} components")

    # --- 1. checkpoint, crash, resume ----------------------------------
    half = num_updates // 2
    engine = GraphZeppelin(num_nodes, config=config)
    engine.ingest_batch(edges[:half])
    checkpoint = workdir / "half.snap"
    engine.save_snapshot(checkpoint, stream_offset=half)
    del engine  # the "crash"

    resumed = GraphZeppelin.load_snapshot(checkpoint)
    resumed.ingest_batch(edges[resumed.resume_offset :])
    same = (
        resumed.list_spanning_forest().partition_signature()
        == reference_forest.partition_signature()
    )
    print(f"resume from offset {half}: bit-identical forest = {same}")

    # --- 2. ingest disjoint halves, merge the snapshots ----------------
    paths = []
    for part in range(2):
        worker = GraphZeppelin(num_nodes, config=config)
        worker.ingest_batch(edges[part::2])  # round-robin slice
        paths.append(workdir / f"part{part}.snap")
        worker.save_snapshot(paths[-1])
    merged = GraphZeppelin(num_nodes, config=config)
    meta = merged.merge_snapshots(paths)
    identical = all(
        np.array_equal(got, want)
        for got, want in zip(
            merged.tensor_pool.raw_tensors(), reference.tensor_pool.raw_tensors()
        )
    )
    print(f"merged {len(paths)} snapshots: {meta.pool_updates} folded updates, "
          f"tensors bit-identical = {identical}")

    # --- 3. the multi-process driver, end to end -----------------------
    start = time.perf_counter()
    merged_engine, report = distributed_ingest(
        edges, num_nodes, config=config, num_ingestors=2
    )
    elapsed = time.perf_counter() - start
    same = (
        merged_engine.list_spanning_forest().partition_signature()
        == reference_forest.partition_signature()
    )
    print(
        f"distributed x{report.num_ingestors}: {elapsed:.2f}s total "
        f"(ingest {report.ingest_seconds:.2f}s, merge {report.merge_seconds:.3f}s, "
        f"snapshots {report.snapshot_bytes >> 20} MiB), "
        f"bit-identical forest = {same}"
    )


if __name__ == "__main__":
    main()
