"""Sharded columnar parallel ingest: many workers, one tensor pool.

This example streams a random dynamic graph through the sharded
parallel ingest layer and shows the model behind it: the node space is
split into contiguous shards, each batch of edges is partitioned into
per-shard groups with one vectorised pass, and shard workers fold
their groups into disjoint slabs of the whole-graph tensor pool -- no
locks, and bit-identical results to serial ingestion.

Run with:  python examples/parallel_sharded_ingest.py
"""

import time

from repro import GraphZeppelin, GraphZeppelinConfig
from repro.generators.random_graphs import random_multigraph_edges
from repro.parallel.graph_workers import ShardedIngestor


def main() -> None:
    num_nodes, num_updates = 5_000, 20_000
    edges = random_multigraph_edges(num_nodes, num_updates, seed=7)
    chunks = [edges[start : start + 4096] for start in range(0, edges.shape[0], 4096)]

    # --- serial columnar baseline --------------------------------------
    serial = GraphZeppelin(num_nodes, config=GraphZeppelinConfig(seed=1))
    start = time.perf_counter()
    serial.ingest_batch(edges)
    serial_seconds = time.perf_counter() - start
    serial_forest = serial.list_spanning_forest()
    print(f"serial ingest_batch   : {serial_seconds:6.2f}s "
          f"({edges.shape[0] / serial_seconds:,.0f} updates/s)")

    # --- sharded parallel ingest ---------------------------------------
    # The ingestor partitions chunk k+1 while its worker threads fold
    # chunk k.
    engine = GraphZeppelin(num_nodes, config=GraphZeppelinConfig(seed=1))
    start = time.perf_counter()
    with ShardedIngestor(engine, num_workers=4, backend="threads") as ingestor:
        ingestor.ingest_stream(chunks)
        print(f"shards                : {ingestor.num_shards} node ranges "
              f"over {ingestor.num_workers} workers")
    parallel_seconds = time.perf_counter() - start
    print(f"sharded ingest (x4)   : {parallel_seconds:6.2f}s "
          f"({edges.shape[0] / parallel_seconds:,.0f} updates/s, "
          f"{serial_seconds / parallel_seconds:.1f}x)")

    # --- identical answers ---------------------------------------------
    forest = engine.list_spanning_forest()
    same = forest.partition_signature() == serial_forest.partition_signature()
    print(f"components            : {forest.num_components} "
          f"(bit-identical to serial: {same})")

    # Queries and further (serial or parallel) ingest keep working on
    # the same engine -- the shards exist only inside the ingestor.
    engine.ingest_batch(random_multigraph_edges(num_nodes, 1_000, seed=8))
    print(f"after 1k more updates : {engine.num_connected_components()} components")


if __name__ == "__main__":
    main()
