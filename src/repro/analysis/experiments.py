"""Experiment drivers for every table and figure in the evaluation.

Each public function reproduces one experiment from Section 6 of the
paper (or Section 3's micro-benchmarks) and returns a list of plain
dict rows, ready to be rendered with
:func:`repro.analysis.tables.render_table`.  The benchmark files under
``benchmarks/`` are thin wrappers that call these drivers with
laptop-scale parameters and print the tables; tests call them with even
smaller parameters to keep the harness covered.

Timing convention: ingestion rates count *stream updates per second of
processing time*, where processing time is wall-clock time plus the
modelled I/O time accumulated by the hybrid-memory substrate (zero for
in-RAM configurations).  This keeps the "on SSD" numbers meaningful and
machine-independent.  It is a substitution for the paper's measured SSD
time: the spilled state lives in a file the OS page cache may hold, so
the wall clock alone would time RAM, and the block device's latency
model charges each block access what an SSD would take instead.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.aspen_like import AspenLike
from repro.baselines.space_models import space_crossover_table
from repro.baselines.terrace_like import TerraceLike
from repro.core.config import BufferingMode, GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.generators.datasets import DATASET_SPECS, Dataset, load_dataset
from repro.parallel.cost_model import ThreadScalingModel
from repro.sketch.cubesketch import CubeSketch
from repro.sketch.sizes import cubesketch_size_bytes, standard_l0_size_bytes
from repro.sketch.standard_l0 import StandardL0Sketch
from repro.streaming.stream import GraphStream

#: Batch size the paper feeds Aspen and Terrace (scaled down by callers).
DEFAULT_BASELINE_BATCH_SIZE = 10_000


# ======================================================================
# Figure 4 / Figure 5: l0-sampler micro-benchmarks
# ======================================================================
def measure_l0_update_rates(
    vector_lengths: Sequence[int],
    cubesketch_updates: int = 20_000,
    standard_updates: int = 400,
    seed: int = 0,
) -> List[Dict]:
    """Single-threaded update rates of both samplers (Figure 4).

    The general-purpose sampler is orders of magnitude slower, so it is
    measured over a smaller update count; rates are normalised to
    updates/second either way.
    """
    rows: List[Dict] = []
    rng = np.random.default_rng(seed)
    for vector_length in vector_lengths:
        cube = CubeSketch(vector_length, seed=seed)
        indices = rng.integers(0, vector_length, size=cubesketch_updates, dtype=np.uint64)
        start = time.perf_counter()
        cube.update_batch(indices)
        cube_elapsed = max(time.perf_counter() - start, 1e-9)
        cube_rate = cubesketch_updates / cube_elapsed

        standard = StandardL0Sketch(vector_length, seed=seed)
        standard_indices = rng.integers(0, vector_length, size=standard_updates)
        start = time.perf_counter()
        for index in standard_indices:
            standard.update(int(index), 1)
        standard_elapsed = max(time.perf_counter() - start, 1e-9)
        standard_rate = standard_updates / standard_elapsed

        rows.append(
            {
                "vector_length": vector_length,
                "standard_l0_rate": round(standard_rate, 1),
                "cubesketch_rate": round(cube_rate, 1),
                "speedup": round(cube_rate / standard_rate, 1),
                "standard_uses_wide_ints": standard.uses_wide_arithmetic,
            }
        )
    return rows


def sketch_size_table(
    vector_lengths: Sequence[int], delta: float = 0.01
) -> List[Dict]:
    """Sketch sizes of both samplers across vector lengths (Figure 5)."""
    rows = []
    for vector_length in vector_lengths:
        standard = standard_l0_size_bytes(vector_length, delta)
        cube = cubesketch_size_bytes(vector_length, delta)
        rows.append(
            {
                "vector_length": vector_length,
                "standard_l0_bytes": standard,
                "cubesketch_bytes": cube,
                "size_reduction": round(standard / cube, 2),
            }
        )
    return rows


# ======================================================================
# Table 10: dataset dimensions
# ======================================================================
def dataset_dimension_table(
    names: Optional[Sequence[str]] = None,
    scale_reduction: int = 6,
    seed: int = 0,
) -> Tuple[List[Dict], Dict[str, Dataset]]:
    """Dimensions of the generated datasets next to the paper's (Table 10).

    Returns the rows plus the generated datasets keyed by name, so
    downstream experiments can reuse them without regenerating.
    """
    names = list(names) if names else sorted(DATASET_SPECS)
    rows = []
    datasets: Dict[str, Dataset] = {}
    for name in names:
        dataset = load_dataset(name, scale_reduction=scale_reduction, seed=seed)
        datasets[name] = dataset
        spec = dataset.spec
        rows.append(
            {
                "dataset": name,
                "paper_nodes": spec.paper_nodes,
                "paper_edges": spec.paper_edges,
                "paper_updates": spec.paper_stream_updates,
                "nodes": dataset.num_nodes,
                "edges": dataset.num_edges,
                "stream_updates": dataset.num_stream_updates,
                "density": round(dataset.density(), 4),
            }
        )
    return rows, datasets


# ======================================================================
# Figure 11: space usage
# ======================================================================
def space_usage_comparison(
    dataset_names: Optional[Sequence[str]] = None,
    measured_datasets: Optional[Dict[str, Dataset]] = None,
) -> Dict[str, List[Dict]]:
    """Space comparison at paper scale (modelled) and generated scale (measured).

    Returns two tables:

    * ``"paper_scale"`` -- the Figure 11a reproduction from the closed-form
      space models evaluated at the paper's true node/edge counts,
    * ``"measured"`` -- actual byte sizes of the three systems built on
      the generated (scaled-down) streams, when datasets are supplied.
    """
    dataset_names = list(dataset_names) if dataset_names else [
        "kron13", "kron15", "kron16", "kron17", "kron18"
    ]
    paper_rows = []
    workloads = [
        {
            "name": name,
            "num_nodes": DATASET_SPECS[name].paper_nodes,
            "num_edges": DATASET_SPECS[name].paper_edges,
        }
        for name in dataset_names
        if name in DATASET_SPECS
    ]
    for comparison in space_crossover_table(workloads):
        paper_rows.append(
            {
                "dataset": comparison.name,
                "aspen_bytes": comparison.aspen,
                "terrace_bytes": comparison.terrace,
                "graphzeppelin_bytes": comparison.graphzeppelin,
                "gz_vs_aspen": round(comparison.graphzeppelin_vs_aspen, 3),
                "gz_vs_terrace": round(comparison.graphzeppelin_vs_terrace, 3),
            }
        )

    measured_rows: List[Dict] = []
    if measured_datasets:
        for name, dataset in measured_datasets.items():
            engine = GraphZeppelin(dataset.num_nodes, config=GraphZeppelinConfig())
            aspen = AspenLike(dataset.num_nodes)
            terrace = TerraceLike(dataset.num_nodes)
            _ingest_graphzeppelin(engine, dataset.stream)
            _ingest_batched_baseline(aspen, dataset.stream)
            _ingest_terrace(terrace, dataset.stream)
            measured_rows.append(
                {
                    "dataset": name,
                    "nodes": dataset.num_nodes,
                    "aspen_bytes": aspen.size_bytes(),
                    "terrace_bytes": terrace.size_bytes(),
                    "graphzeppelin_bytes": engine.total_bytes(),
                }
            )
    return {"paper_scale": paper_rows, "measured": measured_rows}


# ======================================================================
# Figures 12 and 13: ingestion rates (in RAM and out of core)
# ======================================================================
def ingestion_rate_comparison(
    dataset: Dataset,
    ram_budget_bytes: Optional[int] = None,
    baseline_batch_size: int = DEFAULT_BASELINE_BATCH_SIZE,
    include_terrace: bool = True,
    seed: int = 0,
) -> List[Dict]:
    """Ingestion rates of every system on one dataset (Figures 12a / 13).

    With ``ram_budget_bytes`` set, all systems run against a hybrid
    memory of that size so the out-of-core penalty appears in their
    processing time; otherwise everything is in RAM.
    """
    stream = dataset.stream
    rows: List[Dict] = []

    aspen = AspenLike(dataset.num_nodes, ram_budget_bytes=ram_budget_bytes)
    rows.append(
        _rate_row(
            "aspen-like",
            stream,
            lambda: _ingest_batched_baseline(aspen, stream, baseline_batch_size),
            io_stats=aspen.io_stats,
        )
    )

    if include_terrace:
        terrace = TerraceLike(dataset.num_nodes, ram_budget_bytes=ram_budget_bytes)
        rows.append(
            _rate_row(
                "terrace-like",
                stream,
                lambda: _ingest_terrace(terrace, stream, baseline_batch_size),
                io_stats=terrace.io_stats,
            )
        )

    gutter_tree_engine = GraphZeppelin(
        dataset.num_nodes,
        config=GraphZeppelinConfig(
            buffering=BufferingMode.GUTTER_TREE,
            ram_budget_bytes=ram_budget_bytes,
            seed=seed,
        ),
    )
    rows.append(
        _rate_row(
            "graphzeppelin (gutter tree)",
            stream,
            lambda: _ingest_graphzeppelin(gutter_tree_engine, stream),
            io_stats=gutter_tree_engine.io_stats,
        )
    )

    leaf_engine = GraphZeppelin(
        dataset.num_nodes,
        config=GraphZeppelinConfig(
            buffering=BufferingMode.LEAF_GUTTERS,
            ram_budget_bytes=ram_budget_bytes,
            seed=seed,
        ),
    )
    rows.append(
        _rate_row(
            "graphzeppelin (leaf-only)",
            stream,
            lambda: _ingest_graphzeppelin(leaf_engine, stream),
            io_stats=leaf_engine.io_stats,
        )
    )

    columnar_engine = GraphZeppelin(
        dataset.num_nodes,
        config=GraphZeppelinConfig(
            buffering=BufferingMode.LEAF_GUTTERS,
            ram_budget_bytes=ram_budget_bytes,
            seed=seed,
        ),
    )
    rows.append(
        _rate_row(
            "graphzeppelin (columnar)",
            stream,
            lambda: _ingest_graphzeppelin_columnar(columnar_engine, stream),
            io_stats=columnar_engine.io_stats,
        )
    )
    return rows


def cc_query_time_comparison(
    dataset: Dataset,
    ram_budget_bytes: Optional[int] = None,
    baseline_batch_size: int = DEFAULT_BASELINE_BATCH_SIZE,
    include_terrace: bool = True,
    seed: int = 0,
) -> List[Dict]:
    """Connected-components time after full ingestion (Figure 12c)."""
    stream = dataset.stream
    rows: List[Dict] = []

    aspen = AspenLike(dataset.num_nodes, ram_budget_bytes=ram_budget_bytes)
    _ingest_batched_baseline(aspen, stream, baseline_batch_size)
    rows.append(_query_row("aspen-like", aspen, io_stats=aspen.io_stats))

    if include_terrace:
        terrace = TerraceLike(dataset.num_nodes, ram_budget_bytes=ram_budget_bytes)
        _ingest_terrace(terrace, stream, baseline_batch_size)
        rows.append(_query_row("terrace-like", terrace, io_stats=terrace.io_stats))

    for label, buffering in (
        ("graphzeppelin (gutter tree)", BufferingMode.GUTTER_TREE),
        ("graphzeppelin (leaf-only)", BufferingMode.LEAF_GUTTERS),
    ):
        engine = GraphZeppelin(
            dataset.num_nodes,
            config=GraphZeppelinConfig(
                buffering=buffering, ram_budget_bytes=ram_budget_bytes, seed=seed
            ),
        )
        _ingest_graphzeppelin(engine, stream)
        rows.append(_query_row(label, engine, io_stats=engine.io_stats))
    return rows


# ======================================================================
# Figure 14: thread scaling
# ======================================================================
def thread_scaling_experiment(
    dataset: Dataset,
    measured_thread_counts: Sequence[int] = (1, 2, 4),
    modelled_thread_counts: Sequence[int] = (1, 2, 4, 8, 16, 24, 32, 40, 46),
    seed: int = 0,
) -> Dict[str, List[Dict]]:
    """Measured small-scale thread scaling plus the calibrated model curve."""
    measured_rows: List[Dict] = []
    single_thread_rate = None
    for num_workers in measured_thread_counts:
        engine = GraphZeppelin(
            dataset.num_nodes, config=GraphZeppelinConfig(seed=seed)
        )
        start = time.perf_counter()
        with engine.parallel_ingestor(num_workers=num_workers) as ingestor:
            ingestor.ingest_stream(dataset.stream.edge_array_chunks())
        elapsed = max(time.perf_counter() - start, 1e-9)
        rate = len(dataset.stream) / elapsed
        if num_workers == 1 or single_thread_rate is None:
            single_thread_rate = rate
        measured_rows.append(
            {
                "threads": num_workers,
                "ingestion_rate": round(rate, 1),
                "speedup": round(rate / single_thread_rate, 2),
            }
        )

    model = ThreadScalingModel.paper_like(single_thread_rate or 1.0)
    modelled_rows = [
        {
            "threads": row["threads"],
            "ingestion_rate": round(row["ingestion_rate"], 1),
            "speedup": round(row["speedup"], 2),
        }
        for row in model.curve(list(modelled_thread_counts))
    ]
    return {"measured": measured_rows, "modelled": modelled_rows}


# ======================================================================
# Figure 15: gutter size sweep
# ======================================================================
def buffer_size_sweep(
    dataset: Dataset,
    fractions: Sequence[float] = (0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0),
    ram_budget_bytes: Optional[int] = None,
    seed: int = 0,
) -> List[Dict]:
    """Ingestion rate as a function of the leaf-gutter size (Figure 15).

    A fraction of ``0.0`` means "no buffering" (each update applied
    immediately), the paper's worst case.
    """
    rows = []
    for fraction in fractions:
        if fraction <= 0:
            config = GraphZeppelinConfig(
                buffering=BufferingMode.NONE,
                ram_budget_bytes=ram_budget_bytes,
                seed=seed,
            )
        else:
            config = GraphZeppelinConfig(
                buffering=BufferingMode.LEAF_GUTTERS,
                gutter_fraction=fraction,
                ram_budget_bytes=ram_budget_bytes,
                seed=seed,
            )
        engine = GraphZeppelin(dataset.num_nodes, config=config)
        row = _rate_row(
            f"f={fraction}",
            dataset.stream,
            lambda engine=engine: _ingest_graphzeppelin(engine, dataset.stream),
            io_stats=engine.io_stats,
        )
        row["gutter_fraction"] = fraction
        rows.append(row)
    return rows


# ======================================================================
# Figure 16: query latency while streaming
# ======================================================================
def query_latency_over_stream(
    dataset: Dataset,
    num_checkpoints: int = 10,
    ram_budget_bytes: Optional[int] = None,
    gutter_fraction: float = 0.1,
    baseline_batch_size: int = DEFAULT_BASELINE_BATCH_SIZE,
    seed: int = 0,
) -> List[Dict]:
    """Query latency at checkpoints through the stream (Figure 16a/16b)."""
    stream = dataset.stream
    checkpoints = set(stream.checkpoints(1.0 / max(num_checkpoints, 1)))

    engine = GraphZeppelin(
        dataset.num_nodes,
        config=GraphZeppelinConfig(
            buffering=BufferingMode.LEAF_GUTTERS,
            gutter_fraction=gutter_fraction,
            ram_budget_bytes=ram_budget_bytes,
            seed=seed,
        ),
    )
    aspen = AspenLike(dataset.num_nodes, ram_budget_bytes=ram_budget_bytes)

    rows = []
    pending_inserts: List = []
    pending_deletes: List = []
    position = 0
    for update in stream:
        engine.edge_update(update.u, update.v)
        if update.is_insert:
            pending_inserts.append(update.edge)
        else:
            pending_deletes.append(update.edge)
        if len(pending_inserts) >= baseline_batch_size:
            aspen.batch_insert(pending_inserts)
            pending_inserts = []
        if len(pending_deletes) >= baseline_batch_size:
            aspen.batch_delete(pending_deletes)
            pending_deletes = []
        position += 1
        if position in checkpoints:
            aspen.batch_insert(pending_inserts)
            aspen.batch_delete(pending_deletes)
            pending_inserts, pending_deletes = [], []
            rows.append(
                {
                    "progress": round(position / len(stream), 2),
                    "graphzeppelin_query_seconds": _timed_query(engine),
                    "aspen_query_seconds": _timed_query(aspen),
                }
            )
    return rows


# ======================================================================
# shared helpers
# ======================================================================
def _ingest_graphzeppelin(engine: GraphZeppelin, stream: GraphStream) -> None:
    for update in stream:
        engine.edge_update(update.u, update.v)
    # Ingestion is only finished once every buffered update has reached the
    # sketches; including the flush keeps rates comparable across buffer
    # sizes and is what the paper's ingestion numbers measure.
    engine.flush()


def _ingest_graphzeppelin_columnar(
    engine: GraphZeppelin, stream: GraphStream, chunk_size: int = 65536
) -> None:
    """Columnar ingestion: the stream as one edge array through
    :meth:`GraphZeppelin.ingest_batch`, in bounded chunks."""
    edges = stream.edge_array()
    for start in range(0, edges.shape[0], chunk_size):
        engine.ingest_batch(edges[start : start + chunk_size])
    engine.flush()


def _ingest_batched_baseline(
    system: AspenLike, stream: GraphStream, batch_size: int = DEFAULT_BASELINE_BATCH_SIZE
) -> None:
    """Feed a stream to a batch-parallel system as same-type batches.

    Mirrors the paper's methodology: updates are grouped into batches of
    insertions and batches of deletions, because that is the only
    interface those systems expose.  An insert and a delete of the same
    edge that fall into the same pending window cancel each other before
    either batch is applied, so batching does not change the final graph
    (the paper waves this away; cancelling keeps the cross-system
    correctness comparisons meaningful).
    """
    pending_inserts: dict = {}
    pending_deletes: dict = {}
    for update in stream:
        edge = update.edge
        if update.is_insert:
            if edge in pending_deletes:
                del pending_deletes[edge]
                continue
            pending_inserts[edge] = None
            if len(pending_inserts) >= batch_size:
                system.batch_insert(list(pending_inserts))
                pending_inserts = {}
        else:
            if edge in pending_inserts:
                del pending_inserts[edge]
                continue
            pending_deletes[edge] = None
            if len(pending_deletes) >= batch_size:
                system.batch_delete(list(pending_deletes))
                pending_deletes = {}
    if pending_inserts:
        system.batch_insert(list(pending_inserts))
    if pending_deletes:
        system.batch_delete(list(pending_deletes))


def _ingest_terrace(
    system: TerraceLike, stream: GraphStream, batch_size: int = DEFAULT_BASELINE_BATCH_SIZE
) -> None:
    """Terrace path: batched inserts, individual deletes (footnote 2)."""
    pending_inserts: dict = {}
    for update in stream:
        edge = update.edge
        if update.is_insert:
            pending_inserts[edge] = None
            if len(pending_inserts) >= batch_size:
                system.batch_insert(list(pending_inserts))
                pending_inserts = {}
        else:
            if edge in pending_inserts:
                del pending_inserts[edge]
                continue
            system.delete(update.u, update.v)
    if pending_inserts:
        system.batch_insert(list(pending_inserts))


def _rate_row(name: str, stream: GraphStream, run, io_stats=None) -> Dict:
    """Time a full ingestion run and convert it to an updates/second row."""
    modelled_before = io_stats.modelled_seconds if io_stats is not None else 0.0
    start = time.perf_counter()
    run()
    wall = time.perf_counter() - start
    modelled_after = io_stats.modelled_seconds if io_stats is not None else 0.0
    modelled = modelled_after - modelled_before
    total = max(wall + modelled, 1e-9)
    return {
        "system": name,
        "updates": len(stream),
        "wall_seconds": round(wall, 4),
        "modelled_io_seconds": round(modelled, 4),
        "ingestion_rate": round(len(stream) / total, 1),
    }


def _query_row(name: str, system, io_stats=None) -> Dict:
    modelled_before = io_stats.modelled_seconds if io_stats is not None else 0.0
    start = time.perf_counter()
    forest = system.list_spanning_forest()
    wall = time.perf_counter() - start
    modelled_after = io_stats.modelled_seconds if io_stats is not None else 0.0
    return {
        "system": name,
        "query_seconds": round(wall + (modelled_after - modelled_before), 4),
        "components": forest.num_components,
    }


def _timed_query(system) -> float:
    start = time.perf_counter()
    system.list_spanning_forest()
    return round(time.perf_counter() - start, 5)
