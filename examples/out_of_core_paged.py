"""The paged out-of-core engine: columnar ingest past the RAM budget.

A RAM-budgeted GraphZeppelin keeps its sketch state in a
:class:`~repro.sketch.paged_pool.PagedTensorPool` -- the round-major
bucket tensors partitioned into node-group *pages* (whole device
blocks each) behind the hybrid-memory substrate.  Buffered updates are
collected per page and fold through the columnar kernel in one page
pin; connectivity queries assemble each Boruvka round's slab with
partial-range reads and run the same vectorized whole-round driver the
in-RAM engine uses.

This example ingests one stream two ways -- in RAM and paged
out-of-core -- then shows:

* bit-identical spanning forests across both,
* the paged pool's page geometry and working-set telemetry.

Run with:  python examples/out_of_core_paged.py
"""

import time

import numpy as np

from repro import GraphZeppelin, GraphZeppelinConfig
from repro.analysis.tables import format_bytes, format_rate, render_table
from repro.generators.random_graphs import random_multigraph_edges

NUM_NODES = 6_000
NUM_EDGES = 12_000
CHUNK = 2_000
SEED = 21


def ingest(config: GraphZeppelinConfig, edges: np.ndarray) -> tuple:
    engine = GraphZeppelin(NUM_NODES, config=config)
    start = time.perf_counter()
    for offset in range(0, edges.shape[0], CHUNK):
        engine.ingest_batch(edges[offset : offset + CHUNK])
    engine.flush()
    forest = engine.list_spanning_forest()
    return engine, time.perf_counter() - start, forest


def main() -> None:
    edges = random_multigraph_edges(NUM_NODES, NUM_EDGES, seed=3)
    # An unbounded engine is never touched, so sizing from it costs no memory.
    state = GraphZeppelin(NUM_NODES, GraphZeppelinConfig(seed=SEED)).sketch_bytes()
    budget = state // 4
    print(
        f"{NUM_NODES} nodes, {edges.shape[0]} edge updates, "
        f"RAM budget {format_bytes(budget)} (sketch state {format_bytes(state)})\n"
    )

    in_ram, in_ram_s, in_ram_forest = ingest(GraphZeppelinConfig(seed=SEED), edges)
    paged, paged_s, paged_forest = ingest(
        GraphZeppelinConfig(seed=SEED, ram_budget_bytes=budget), edges
    )

    rows = []
    for name, engine, seconds in [
        ("in RAM (NodeTensorPool)", in_ram, in_ram_s),
        ("SSD, paged (PagedTensorPool)", paged, paged_s),
    ]:
        stats = engine.io_stats
        rows.append(
            {
                "configuration": name,
                "wall_s": f"{seconds:.2f}",
                "rate": format_rate(edges.shape[0] / seconds),
                "block_ios": stats.total_ios if stats else 0,
                "modelled_io_s": f"{stats.modelled_seconds:.2f}" if stats else "-",
            }
        )
    print(render_table(rows, title="Out-of-core ingest: in RAM vs paged"))

    assert in_ram_forest.partition_signature() == paged_forest.partition_signature()
    print("\nBoth engines return the same spanning forest "
          f"({in_ram_forest.num_components} components).")

    info = paged.tensor_pool.page_stats()
    print(
        f"\nPaged pool geometry: {info['num_pages']} pages x "
        f"{info['nodes_per_page']} nodes, {format_bytes(info['page_payload_bytes'])} "
        f"({info['page_blocks']} blocks) each; working set "
        f"{info['resident_budget']} pages "
        f"({info['page_ins']} page-ins, {info['page_writebacks']} write-backs, "
        f"{info['partial_reads']} partial round reads)."
    )
    io = paged.io_stats
    print(
        f"RAM tier: {format_bytes(paged.memory.reserved_bytes + paged.memory.cached_bytes)} "
        f"of the budget held (page frames, query slab, range scratch); "
        f"{io.cache_hits} of {io.cache_hits + io.cache_misses} pins of a stored page "
        f"found it resident (hit rate {io.cache_hit_rate:.2f})."
    )

    print("\nParallel ingest: ShardedIngestor needs the in-RAM pool; "
          "this engine ingests serially (engine.ingest_batch).")


if __name__ == "__main__":
    main()
