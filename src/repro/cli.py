"""Command-line interface for the GraphZeppelin reproduction.

Four subcommands cover the everyday workflow:

``repro-graph datasets``
    List the Table-10 dataset registry (paper-scale and generated sizes).

``repro-graph generate <name> <out.stream>``
    Generate a dataset and write its dynamic stream to a file (binary by
    default, ``--text`` for the human-readable format).

``repro-graph validate <stream>``
    Check that a stream file obeys the dynamic-graph-stream rules and
    print its statistics.

``repro-graph components <stream>``
    Ingest a stream file with GraphZeppelin (serial ingest hands the
    file's rows to the columnar ``ingest_batch`` path in chunks; no
    per-update Python objects are built) and print the connected
    components (optionally comparing against the exact in-memory
    reference with ``--verify``).  ``--distributed K`` splits the
    stream round-robin across K ingestor processes and XOR-merges
    their pool snapshots -- bit-identical to serial ingestion.

Three more cover the snapshot/merge plane:

``repro-graph snapshot <stream> <out.snap>``
    Ingest a stream (or its ``--up-to N`` prefix) and checkpoint the
    engine's pool to a snapshot file.

``repro-graph resume <snapshot> <stream>``
    Reload a checkpoint, continue ingesting the stream from the
    recorded offset, and print the components -- the crash-recovery
    path, bit-identical to an uninterrupted run.

``repro-graph merge <output> <input> [<input> ...]``
    XOR-combine snapshots of disjoint sub-streams into one snapshot
    (by sketch linearity, the snapshot of their union).

And one covers the integrity plane:

``repro-graph scrub <target>``
    Verify the payload digests of a snapshot file, or of every
    generation in a checkpoint directory, without loading any of them
    into a pool.  Exit code 1 when anything is corrupt.  During ingest,
    ``components --scrub-every N`` scrubs the engine's own storage
    every N updates (pairing it with ``--checkpoint-dir`` turns a
    detected corruption into an automatic read-repair), and
    ``--report`` prints the full I/O and integrity counter ledger.

The module is also importable: :func:`main` takes an ``argv`` list,
which is how the tests drive it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.tables import format_bytes, render_table
from repro.baselines.adjacency_matrix import AdjacencyMatrixGraph
from repro.core.config import BufferingMode, GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.generators.datasets import DATASET_SPECS, available_datasets, load_dataset
from repro.observability.log import configure_logging
from repro.streaming.io import (
    read_stream_binary,
    read_stream_text,
    write_stream_binary,
    write_stream_text,
)
from repro.streaming.validation import validate_stream
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-graph",
        description="GraphZeppelin reproduction: streaming connected components tools",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="structured diagnostics on stderr (-v info, -vv debug)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser(
        "datasets", help="list the dataset registry (paper Table 10)"
    )
    datasets_parser.add_argument(
        "--scale-reduction", type=int, default=6,
        help="powers of two to shrink each dataset by (default 6)",
    )

    generate_parser = subparsers.add_parser(
        "generate", help="generate a dataset's dynamic stream and write it to a file"
    )
    generate_parser.add_argument("name", choices=available_datasets())
    generate_parser.add_argument("output", type=Path)
    generate_parser.add_argument("--scale-reduction", type=int, default=6)
    generate_parser.add_argument("--seed", type=int, default=0)
    generate_parser.add_argument(
        "--text", action="store_true", help="write the text format instead of binary"
    )

    validate_parser = subparsers.add_parser(
        "validate", help="check a stream file against the dynamic-stream rules"
    )
    validate_parser.add_argument("stream", type=Path)
    validate_parser.add_argument(
        "--text", action="store_true", help="the file is in the text format"
    )

    components_parser = subparsers.add_parser(
        "components", help="compute connected components of a stream file"
    )
    components_parser.add_argument("stream", type=Path)
    components_parser.add_argument(
        "--text", action="store_true", help="the file is in the text format"
    )
    components_parser.add_argument("--seed", type=int, default=0)
    components_parser.add_argument(
        "--buffering", choices=[mode.value for mode in BufferingMode],
        default=BufferingMode.LEAF_GUTTERS.value,
    )
    components_parser.add_argument(
        "--ram-budget-mib", type=float, default=None,
        help="optional RAM budget; sketches beyond it page to the simulated SSD",
    )
    components_parser.add_argument(
        "--kernel-backend", choices=["numpy", "native", "auto"], default="numpy",
        help="hot-kernel implementation: pure numpy (default), the compiled "
             "C provider (errors when unavailable), or auto "
             "(native when available, numpy otherwise); bit-identical results",
    )
    components_parser.add_argument(
        "--workers", type=int, default=1,
        help="parallel ingest worker threads; above 1 an in-RAM engine "
             "ingests through the sharded columnar pipeline (a RAM-budgeted "
             "one ingests serially)",
    )
    components_parser.add_argument(
        "--distributed", type=int, default=None, metavar="K",
        help="split the stream round-robin across K ingestor processes and "
             "XOR-merge their pool snapshots (bit-identical to serial ingest)",
    )
    components_parser.add_argument(
        "--verify", action="store_true",
        help="also ingest into an exact adjacency matrix and compare answers",
    )
    components_parser.add_argument(
        "--show", type=int, default=10, help="how many components to print (largest first)"
    )
    components_parser.add_argument(
        "--checkpoint-dir", type=Path, default=None, metavar="DIR",
        help="write rotating generation-numbered checkpoints into DIR during "
             "ingest; 'resume DIR <stream>' recovers from the newest valid one",
    )
    components_parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint every N ingested updates (default 250000); "
             "requires --checkpoint-dir",
    )
    components_parser.add_argument(
        "--scrub-every", type=int, default=None, metavar="N",
        help="verify the checksums of all stored sketch pages every N ingested "
             "updates (serial ingest only); with --checkpoint-dir a detected "
             "corruption is healed by read-repair instead of aborting",
    )
    components_parser.add_argument(
        "--report", action="store_true",
        help="print the I/O and integrity counter ledger after the run",
    )
    components_parser.add_argument(
        "--metrics-out", type=Path, default=None, metavar="FILE",
        help="write the run's metrics registry to FILE in Prometheus text "
             "exposition format ('-' for stdout)",
    )
    components_parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="record spans into a bounded trace ring and write Chrome "
             "trace_event JSON to FILE (load via chrome://tracing)",
    )

    snapshot_parser = subparsers.add_parser(
        "snapshot", help="ingest a stream (prefix) and checkpoint the pool to a file"
    )
    snapshot_parser.add_argument("stream", type=Path)
    snapshot_parser.add_argument("output", type=Path)
    snapshot_parser.add_argument(
        "--text", action="store_true", help="the stream file is in the text format"
    )
    snapshot_parser.add_argument("--seed", type=int, default=0)
    snapshot_parser.add_argument(
        "--up-to", type=int, default=None, metavar="N",
        help="only ingest the first N updates (default: the whole stream); "
             "the snapshot records the offset so 'resume' continues there",
    )
    snapshot_parser.add_argument(
        "--ram-budget-mib", type=float, default=None,
        help="optional RAM budget; the checkpoint streams page by page",
    )
    # Engine flags the snapshot command does not expose follow the
    # components subcommand's defaults; set once so they cannot drift.
    snapshot_parser.set_defaults(
        buffering=BufferingMode.LEAF_GUTTERS.value, workers=1,
        kernel_backend="numpy",
    )

    resume_parser = subparsers.add_parser(
        "resume", help="reload a checkpoint, finish the stream, print components"
    )
    resume_parser.add_argument(
        "snapshot", type=Path,
        help="a snapshot file, or a checkpoint directory (the newest valid "
             "generation is recovered, falling back across corrupt ones)",
    )
    resume_parser.add_argument("stream", type=Path)
    resume_parser.add_argument(
        "--text", action="store_true", help="the stream file is in the text format"
    )
    resume_parser.add_argument(
        "--ram-budget-mib", type=float, default=None,
        help="optional RAM budget for the resumed engine",
    )
    resume_parser.add_argument(
        "--show", type=int, default=10, help="how many components to print (largest first)"
    )
    resume_parser.add_argument(
        "--report", action="store_true",
        help="print the I/O and integrity counter ledger after the run",
    )
    resume_parser.add_argument(
        "--metrics-out", type=Path, default=None, metavar="FILE",
        help="write the run's metrics registry to FILE in Prometheus text "
             "exposition format ('-' for stdout)",
    )
    resume_parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="record spans into a bounded trace ring and write Chrome "
             "trace_event JSON to FILE (load via chrome://tracing)",
    )

    stats_parser = subparsers.add_parser(
        "stats",
        help="ingest a stream, query once, and print the metrics registry",
    )
    stats_parser.add_argument("stream", type=Path)
    stats_parser.add_argument(
        "--text", action="store_true", help="the file is in the text format"
    )
    stats_parser.add_argument("--seed", type=int, default=0)
    stats_parser.add_argument(
        "--ram-budget-mib", type=float, default=None,
        help="optional RAM budget; sketches beyond it page to the simulated SSD",
    )
    stats_parser.add_argument(
        "--format", choices=["prometheus", "json"], default="prometheus",
        help="exposition format (default prometheus text)",
    )
    stats_parser.set_defaults(
        buffering=BufferingMode.LEAF_GUTTERS.value, workers=1,
        kernel_backend="numpy",
    )

    scrub_parser = subparsers.add_parser(
        "scrub", help="verify the payload digests of snapshots/checkpoints"
    )
    scrub_parser.add_argument(
        "target", type=Path,
        help="a snapshot file, or a checkpoint directory (every generation "
             "is verified, newest first)",
    )

    merge_parser = subparsers.add_parser(
        "merge", help="XOR-combine pool snapshots of disjoint sub-streams"
    )
    merge_parser.add_argument("output", type=Path)
    merge_parser.add_argument("inputs", type=Path, nargs="+")
    merge_parser.add_argument(
        "--ram-budget-mib", type=float, default=None,
        help="merge through a RAM-budgeted paged pool instead of in RAM",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose)
    handlers = {
        "datasets": _cmd_datasets,
        "generate": _cmd_generate,
        "validate": _cmd_validate,
        "components": _cmd_components,
        "snapshot": _cmd_snapshot,
        "resume": _cmd_resume,
        "merge": _cmd_merge,
        "scrub": _cmd_scrub,
        "stats": _cmd_stats,
    }
    return handlers[args.command](args)


# ----------------------------------------------------------------------
def _cmd_datasets(args) -> int:
    rows = []
    for name in available_datasets():
        spec = DATASET_SPECS[name]
        shrink = 1 << args.scale_reduction
        rows.append(
            {
                "dataset": name,
                "family": spec.family,
                "paper_nodes": spec.paper_nodes,
                "paper_edges": spec.paper_edges,
                "generated_nodes": max(spec.paper_nodes // shrink, 1),
                "description": spec.description,
            }
        )
    print(render_table(rows, title=f"Dataset registry (scale reduction {args.scale_reduction})"))
    return 0


def _cmd_generate(args) -> int:
    dataset = load_dataset(args.name, scale_reduction=args.scale_reduction, seed=args.seed)
    writer = write_stream_text if args.text else write_stream_binary
    writer(dataset.stream, args.output)
    print(
        f"wrote {args.output}: {dataset.num_nodes} nodes, {dataset.num_edges} edges, "
        f"{len(dataset.stream)} updates"
    )
    return 0


def _read_stream(path: Path, text: bool):
    reader = read_stream_text if text else read_stream_binary
    return reader(path)


def _cmd_validate(args) -> int:
    stream = _read_stream(args.stream, args.text)
    report = validate_stream(stream)
    print(f"stream      : {args.stream}")
    print(f"nodes       : {stream.num_nodes}")
    print(f"updates     : {report.num_updates} "
          f"({report.num_insertions} insertions, {report.num_deletions} deletions)")
    print(f"final edges : {report.final_edge_count}")
    print(f"valid       : {report.valid}")
    if not report.valid:
        print(f"first violation: {report.first_violation}")
        return 1
    return 0


def _print_forest(engine, num_nodes: int, ingest_mode: str, show: int) -> None:
    """The shared tail of every component-printing command."""
    forest = engine.list_spanning_forest()
    components = sorted(forest.components(), key=len, reverse=True)
    print(f"nodes            : {num_nodes}")
    print(f"updates ingested : {engine.updates_processed} ({ingest_mode})")
    print(f"components       : {forest.num_components}")
    print(f"sketch space     : {format_bytes(engine.sketch_bytes())}")
    pool = engine.tensor_pool
    if pool.is_paged:
        page_info = pool.page_stats()
        print(f"page size        : {page_info['nodes_per_page']} nodes / "
              f"{format_bytes(page_info['page_payload_bytes'])} "
              f"({page_info['page_blocks']} blocks)")
        # The RAM tier is the pool's working set of page frames: a hit
        # is a page pin that found its page already resident.
        stats = engine.io_stats
        pins = stats.cache_hits + stats.cache_misses
        print(f"RAM-tier hit rate: {stats.cache_hit_rate:.1%} "
              f"({stats.cache_hits}/{pins} page pins, "
              f"{page_info['resident_pages']}/{page_info['num_pages']} pages resident)")
    if engine.io_stats is not None:
        print(f"modelled disk I/O: {engine.io_stats.total_ios} block accesses, "
              f"{engine.io_stats.modelled_seconds:.3f}s")
    for position, component in enumerate(components[:show], start=1):
        members = sorted(component)
        preview = ", ".join(map(str, members[:12]))
        suffix = ", ..." if len(members) > 12 else ""
        print(f"  component {position:3d} (size {len(members):5d}): {preview}{suffix}")


def _ram_budget_bytes(args) -> Optional[int]:
    """The --ram-budget-mib flag as bytes (None = everything in RAM)."""
    if args.ram_budget_mib is None:
        return None
    return int(args.ram_budget_mib * 1024 * 1024)


def _engine_config(args, **overrides) -> GraphZeppelinConfig:
    """Build an engine config from the flags shared by stream commands.

    Subcommands that do not expose every engine flag supply the shared
    defaults via ``parser.set_defaults`` at parser-construction time.
    """
    settings = dict(
        buffering=BufferingMode(args.buffering),
        ram_budget_bytes=_ram_budget_bytes(args),
        seed=args.seed,
        kernel_backend=getattr(args, "kernel_backend", "numpy"),
        num_workers=max(args.workers, 1),
    )
    settings.update(overrides)
    return GraphZeppelinConfig(**settings)


def _attach_cli_checkpointer(args, engine):
    """Wire --checkpoint-dir/--checkpoint-every onto an engine (or None)."""
    if args.checkpoint_dir is None:
        return None
    from repro.resilience.checkpoint import DEFAULT_EVERY_N_UPDATES, CheckpointPolicy

    every = args.checkpoint_every or DEFAULT_EVERY_N_UPDATES
    return engine.attach_checkpointer(
        args.checkpoint_dir, policy=CheckpointPolicy(every_n_updates=every)
    )


def _print_checkpointer(checkpointer) -> None:
    if checkpointer is None:
        return
    print(f"checkpoints      : {checkpointer.checkpoints_written} written to "
          f"{checkpointer.directory} (generation {checkpointer.generation}, "
          f"{checkpointer.checkpoint_failures} failed)")


#: Histograms the --report ledger summarises, in print order (any that
#: recorded nothing are skipped).
_REPORT_SPANS = (
    "ingest.batch",
    "ingest.fold",
    "query.round",
    "page.pin",
    "device.read",
    "device.write",
    "checkpoint.write",
    "scrub.pass",
)


def _print_io_report(engine, checkpointer=None) -> None:
    """The --report ledger: every fault and integrity counter in one place.

    Counters come from the same ``engine.metrics()`` snapshot (its
    ``io.*`` gauges) that ``stats`` / ``--metrics-out`` expose, so the
    ledger and the exposition formats can never disagree.
    """
    health = engine.health()
    snap = engine.metrics()
    print(f"kernel backend   : {health['kernel_backend']} "
          f"(requested {engine.config.kernel_backend})")
    counters = {n[3:]: int(v) for n, v in snap.gauges.items() if n.startswith("io.")}
    if not counters:
        print("io report        : engine is fully in RAM (no device)")
    else:
        print(f"io failures      : {counters['read_failures']} read, "
              f"{counters['write_failures']} write, "
              f"{counters['io_retries']} retried")
        print(f"integrity        : {counters['checksum_failures']} checksum failures, "
              f"{counters['blocks_scrubbed']} blocks scrubbed, "
              f"{counters['pages_repaired']} pages repaired, "
              f"{snap.counters.get('integrity.blocks_digested', 0)} blocks digested")
        print(f"overload         : {counters['pressure_events']} pressure events, "
              f"{counters['deadline_misses']} deadline misses, "
              f"{counters['breaker_rejections']} breaker rejections")
    breaker = health.get("breaker")
    if breaker is not None:
        print(f"circuit breaker  : {breaker['state']} "
              f"(opened {breaker['times_opened']}x, "
              f"{breaker['probes']} half-open probes)")
    page_stats = health.get("page_stats")
    if page_stats is not None and page_stats.get("pressure_degradations"):
        print(f"working set      : degraded {page_stats['pressure_degradations']}x "
              f"({page_stats['resident_pages']}/{page_stats['num_pages']} "
              f"pages resident)")
    if checkpointer is not None:
        print(f"checkpoint errors: {checkpointer.checkpoint_failures} writes "
              f"failed, {checkpointer.rotation_failures} rotations failed")
    for name in _REPORT_SPANS:
        hist = snap.histograms.get(name)
        if hist is None or hist.count == 0:
            continue
        print(f"span {name:<12}: {hist.count} x, "
              f"p50 {hist.quantile(0.50) * 1e3:.3f}ms, "
              f"p99 {hist.quantile(0.99) * 1e3:.3f}ms, "
              f"total {hist.sum:.3f}s")
    print(f"health           : {health['status']}")


def _install_cli_trace(args) -> None:
    """Install the process trace ring when --trace-out was requested."""
    if getattr(args, "trace_out", None) is not None:
        from repro.observability.tracing import install_trace_ring

        install_trace_ring()


def _write_observability_outputs(args, engine) -> None:
    """Honour --metrics-out / --trace-out after a run."""
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out is not None:
        text = engine.metrics("prometheus")
        if str(metrics_out) == "-":
            print(text, end="")
        else:
            metrics_out.write_text(text)
            print(f"metrics          : wrote {metrics_out}")
    trace_out = getattr(args, "trace_out", None)
    if trace_out is not None:
        import json

        from repro.observability.tracing import chrome_trace

        trace = chrome_trace()
        trace_out.write_text(json.dumps(trace))
        print(f"trace            : wrote {trace_out} "
              f"({len(trace['traceEvents'])} spans)")


def _cmd_components(args) -> int:
    stream = _read_stream(args.stream, args.text)
    config = _engine_config(args)
    _install_cli_trace(args)
    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        print("error: --checkpoint-every requires --checkpoint-dir")
        return 1
    if args.checkpoint_dir is not None and args.distributed is not None:
        print("error: --checkpoint-dir does not combine with --distributed "
              "(worker snapshots already checkpoint each slice)")
        return 1
    if args.scrub_every is not None:
        if args.scrub_every < 1:
            print("error: --scrub-every must be at least 1")
            return 1
        if args.distributed is not None or args.workers > 1:
            print("error: --scrub-every needs serial ingest (scrubbing pauses "
                  "the stream at exact update counts)")
            return 1
    if args.distributed is not None:
        from repro.distributed.multi_ingestor import distributed_ingest

        engine, report = distributed_ingest(
            stream.edge_array(),
            stream.num_nodes,
            config=config,
            num_ingestors=max(args.distributed, 1),
        )
        ingest_mode = (
            f"distributed x{report.num_ingestors} "
            f"(ingest {report.ingest_seconds:.2f}s, merge {report.merge_seconds:.2f}s, "
            f"snapshots {format_bytes(report.snapshot_bytes)})"
        )
        _print_forest(engine, stream.num_nodes, ingest_mode, args.show)
        if args.report:
            _print_io_report(engine)
        _write_observability_outputs(args, engine)
        return _verify_components(args, stream, engine)
    engine = GraphZeppelin(stream.num_nodes, config=config)
    checkpointer = _attach_cli_checkpointer(args, engine)
    sharded = args.workers > 1 and not engine.tensor_pool.is_paged
    if args.workers > 1 and not sharded:
        print("note: a RAM-budgeted engine ingests serially "
              "(--workers shards the in-RAM pool only)")
    if sharded:
        with engine.parallel_ingestor() as ingestor:
            ingestor.ingest_stream(stream.edge_array_chunks())
        # Report what actually ran: the worker count is clamped to the
        # usable cores.
        effective = ingestor.effective_workers
        ingest_mode = f"threads x{effective}"
        if effective != args.workers:
            ingest_mode += f" (clamped from {args.workers})"
    elif args.scrub_every is not None:
        code = _ingest_with_scrubbing(args, stream, engine)
        if code != 0:
            return code
        ingest_mode = f"serial, scrubbed every {args.scrub_every} updates"
    else:
        engine.ingest(stream)
        ingest_mode = "serial"
    _print_forest(engine, stream.num_nodes, ingest_mode, args.show)
    _print_checkpointer(checkpointer)
    if args.report:
        _print_io_report(engine, checkpointer)
    _write_observability_outputs(args, engine)
    return _verify_components(args, stream, engine)


def _ingest_with_scrubbing(args, stream, engine) -> int:
    """Serial ingest punctuated by scrub passes every --scrub-every updates.

    A scrub that finds corrupt pages triggers read-repair when a
    checkpoint directory is available (the healed run continues, and by
    linearity finishes bit-identical to an unfaulted one); without one
    there is nothing to heal from, so the run aborts with exit code 1.
    """
    edges = stream.edge_array()
    for start in range(0, edges.shape[0], args.scrub_every):
        engine.ingest_batch(edges[start : start + args.scrub_every])
        corrupt = engine.scrub_storage()
        if not corrupt:
            continue
        print(f"scrub at update {engine.updates_processed}: "
              f"corrupt pages {corrupt}")
        if args.checkpoint_dir is None:
            print("error: corruption detected and no --checkpoint-dir to "
                  "repair from")
            return 1
        from repro.integrity.repair import repair_pages, find_valid_checkpoint

        path, meta, _ = find_valid_checkpoint(engine, args.checkpoint_dir)
        replayed = repair_pages(engine, corrupt, path, meta, edges)
        print(f"read-repair      : healed {len(corrupt)} page(s) from "
              f"{path.name}, replayed {replayed} suffix folds")
    return 0


def _verify_components(args, stream, engine) -> int:
    if not getattr(args, "verify", False):
        return 0
    reference = AdjacencyMatrixGraph(stream.num_nodes, strict=False)
    for update in stream:
        reference.apply_update(update)
    matches = (
        reference.spanning_forest().partition_signature()
        == engine.list_spanning_forest().partition_signature()
    )
    print(f"matches exact reference: {matches}")
    return 0 if matches else 2


def _cmd_snapshot(args) -> int:
    stream = _read_stream(args.stream, args.text)
    config = _engine_config(args)
    engine = GraphZeppelin(stream.num_nodes, config=config)
    limit = len(stream) if args.up_to is None else min(max(args.up_to, 0), len(stream))
    engine.ingest_batch(stream.edge_array()[:limit])
    meta = engine.save_snapshot(args.output, stream_offset=limit)
    print(f"wrote {args.output}: {meta.geometry.num_nodes} nodes, "
          f"{meta.pool_updates} folded updates, stream offset {meta.stream_offset}, "
          f"{format_bytes(args.output.stat().st_size)}")
    return 0


def _cmd_resume(args) -> int:
    from repro.distributed.snapshot import read_snapshot_meta
    from repro.exceptions import RecoveryError, StreamFormatError

    stream = _read_stream(args.stream, args.text)
    _install_cli_trace(args)
    ram_budget = _ram_budget_bytes(args)
    if args.snapshot.is_dir():
        # A checkpoint directory: auto-recover from the newest valid
        # generation, falling back across torn/corrupt ones.
        from repro.resilience.checkpoint import recover_latest

        memory = None
        if ram_budget is not None:
            from repro.memory.hybrid import HybridMemory

            memory = HybridMemory(ram_bytes=ram_budget)
        try:
            engine, snapshot_path, skipped = recover_latest(
                args.snapshot, memory=memory
            )
        except RecoveryError as exc:
            print(f"error: {exc}")
            return 1
        for rejected, reason in skipped:
            print(f"note: skipped {rejected.name}: {reason}")
        print(f"recovered from {snapshot_path}")
    else:
        snapshot_path = args.snapshot
        meta = read_snapshot_meta(snapshot_path)
        if meta.merged:
            # A merged snapshot holds a *union* of sub-streams, not a
            # stream prefix; re-ingesting a stream on top of it would
            # XOR-cancel the updates it already folded.
            print(f"error: {snapshot_path} is a merged snapshot, not a resumable "
                  "checkpoint (its state is a union of sub-streams, not a stream "
                  "prefix); query it via 'merge'/'components' instead")
            return 1
        config = None
        if ram_budget is not None:
            config = GraphZeppelinConfig(
                seed=meta.graph_seed, delta=meta.geometry.delta, ram_budget_bytes=ram_budget
            )
        engine = GraphZeppelin.load_snapshot(snapshot_path, config=config)

    # The checkpoint must actually belong to this stream: a recorded
    # offset past the end (or a node-count mismatch) means the stream
    # file is not the one the checkpoint was taken from -- silently
    # ingesting the empty suffix would "succeed" with wrong state.
    if engine.num_nodes != stream.num_nodes:
        raise StreamFormatError(
            f"checkpoint {snapshot_path} was taken over {engine.num_nodes} "
            f"nodes, but {args.stream} declares {stream.num_nodes}"
        )
    offset = engine.resume_offset
    if offset > len(stream):
        raise StreamFormatError(
            f"checkpoint {snapshot_path} records stream offset {offset}, but "
            f"{args.stream} holds only {len(stream)} updates; the stream file "
            "does not match the one the checkpoint was taken from"
        )
    remaining = stream.edge_array(start=offset)
    engine.ingest_batch(remaining)
    mode = f"resumed at offset {offset} (+{remaining.shape[0]} updates)"
    _print_forest(engine, stream.num_nodes, mode, args.show)
    if args.report:
        _print_io_report(engine)
    _write_observability_outputs(args, engine)
    return 0


def _cmd_stats(args) -> int:
    """Ingest a stream, query once, and print the metrics exposition."""
    import json

    stream = _read_stream(args.stream, args.text)
    config = _engine_config(args)
    engine = GraphZeppelin(stream.num_nodes, config=config)
    engine.ingest_batch(stream.edge_array())
    engine.list_spanning_forest()
    if args.format == "json":
        print(json.dumps(engine.metrics("json"), indent=2, sort_keys=True))
    else:
        print(engine.metrics("prometheus"), end="")
    return 0


def _cmd_scrub(args) -> int:
    """Verify payload digests of a snapshot file or checkpoint directory."""
    from repro.distributed.snapshot import read_snapshot_meta, verify_snapshot_payload
    from repro.exceptions import CorruptionError, StreamFormatError

    if args.target.is_dir():
        from repro.resilience.checkpoint import list_checkpoints

        paths = [path for _, path in list_checkpoints(args.target)]
        if not paths:
            print(f"error: no checkpoints found in {args.target}")
            return 1
    else:
        paths = [args.target]
    corrupt = 0
    for path in paths:
        try:
            meta = verify_snapshot_payload(path, read_snapshot_meta(path))
        except CorruptionError as exc:
            print(f"{path}: CORRUPT ({exc})")
            corrupt += 1
            continue
        except (StreamFormatError, OSError) as exc:
            print(f"{path}: CORRUPT (unreadable: {exc})")
            corrupt += 1
            continue
        print(f"{path}: ok ({len(meta.stripe_digests)} stripe digests verified)")
    if corrupt:
        print(f"{corrupt}/{len(paths)} file(s) corrupt")
        return 1
    return 0


def _cmd_merge(args) -> int:
    from repro.distributed.snapshot import read_snapshot_meta, save_pool_snapshot

    # An engine of the first input's seed and delta (paged under
    # --ram-budget-mib) takes every input through its one merge path.
    first = read_snapshot_meta(args.inputs[0])
    config = GraphZeppelinConfig(
        seed=first.graph_seed,
        delta=first.geometry.delta,
        ram_budget_bytes=_ram_budget_bytes(args),
    )
    engine = GraphZeppelin(first.geometry.num_nodes, config=config)
    meta = engine.merge_snapshots(args.inputs)
    save_pool_snapshot(
        engine.tensor_pool,
        args.output,
        stream_offset=meta.stream_offset,
        engine_updates=meta.engine_updates,
        fingerprint=meta.fingerprint,
        merged=True,
    )
    print(f"merged {len(args.inputs)} snapshots -> {args.output}: "
          f"{meta.geometry.num_nodes} nodes, {meta.pool_updates} folded updates, "
          f"{format_bytes(args.output.stat().st_size)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
