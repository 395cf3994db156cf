"""The observability plane must be invisible to correctness.

Three contracts under test: the disabled fast path allocates nothing on
the ingest hot loop; turning instrumentation on (or merging worker
snapshots) never changes a single sketch bit; and the metric snapshots
themselves merge associatively, so distributed aggregation is
order-independent exactly like the XOR sketches.  Plus coverage of the
three ``health()`` statuses and the exposition formats.
"""

from __future__ import annotations

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.observability import (
    DEFAULT_LATENCY_BUCKETS,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    chrome_trace,
    default_registry,
    disable,
    enable,
    install_trace_ring,
    metrics_json,
    prometheus_text,
    span,
)
from repro.observability.tracing import remove_trace_ring
from repro.resilience.checkpoint import CheckpointPolicy

NUM_NODES = 48


@pytest.fixture(autouse=True)
def _observability_restored():
    """Every test leaves the process-wide registry enabled and clean."""
    yield
    enable()
    default_registry().reset()
    remove_trace_ring()


def _random_edges(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, NUM_NODES, count)
    v = rng.integers(0, NUM_NODES, count)
    keep = u != v
    return np.stack([u[keep], v[keep]], axis=1).astype(np.int64)


def _ingested(edges: np.ndarray, seed: int = 9) -> GraphZeppelin:
    engine = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=seed))
    engine.ingest_batch(edges)
    return engine


def _same_state(a: GraphZeppelin, b: GraphZeppelin) -> bool:
    forests_match = (
        a.list_spanning_forest().partition_signature()
        == b.list_spanning_forest().partition_signature()
    )
    return forests_match and all(
        np.array_equal(np.asarray(x, dtype=np.uint64), np.asarray(y, dtype=np.uint64))
        for x, y in zip(a.tensor_pool.raw_tensors(), b.tensor_pool.raw_tensors())
    )


# ----------------------------------------------------------------------
# disabled fast path
# ----------------------------------------------------------------------
def test_disabled_span_is_a_shared_singleton():
    disable()
    assert span("ingest.fold") is span("query.round")
    enable()
    assert span("ingest.fold") is not span("query.round")


def test_disabled_path_allocates_nothing_on_the_fold_hot_loop():
    edges = _random_edges(600, seed=3)
    engine = _ingested(edges[:200])  # warm every lazy code path first
    disable()
    engine.ingest_batch(edges[200:400])  # and the disabled branch itself
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    engine.ingest_batch(edges[400:])
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    grown = [
        stat
        for stat in after.compare_to(before, "lineno")
        if stat.size_diff > 0 and "observability" in stat.traceback[0].filename
    ]
    assert not grown, f"disabled observability allocated: {grown}"


def _paged(kernel_backend: str) -> GraphZeppelin:
    """A paged engine at 1/8 of its sketch state in 4-node pages, holding
    a flushed graph."""
    state = GraphZeppelin(NUM_NODES).sketch_bytes()
    config = GraphZeppelinConfig.out_of_core(
        state // 8, seed=9, kernel_backend=kernel_backend, nodes_per_page=4
    )
    engine = GraphZeppelin(NUM_NODES, config)
    engine.ingest_batch(_random_edges(300, seed=4))
    engine.flush()
    return engine


@pytest.mark.parametrize("kernel_backend", ["numpy", "auto"])
def test_a_paged_query_reads_each_round_in_one_load_ranges_span(kernel_backend):
    """The round's stripes are one batch: one ``memory.load_ranges`` span
    around one ``device.read`` per round, timed under the round spans."""
    engine = _paged(kernel_backend)
    default_registry().reset()
    engine.list_spanning_forest()
    histograms = default_registry().snapshot().histograms
    rounds = engine.last_query_stats.rounds_used
    assert histograms["memory.load_ranges"].count == histograms["device.read"].count == rounds
    assert histograms["query.round"].count == rounds


@pytest.mark.parametrize("kernel_backend", ["numpy", "auto"])
def test_disabled_path_allocates_nothing_on_a_paged_query(kernel_backend):
    engine = _paged(kernel_backend)
    engine.list_spanning_forest()  # warm every lazy code path first
    disable()
    for seed in (5, 6):  # the disabled branch itself, then the traced query
        engine.ingest_batch(_random_edges(20, seed=seed))
        engine.flush()
        if seed == 5:
            engine.list_spanning_forest()
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    engine.list_spanning_forest()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    grown = [
        stat
        for stat in after.compare_to(before, "lineno")
        if stat.size_diff > 0 and "observability" in stat.traceback[0].filename
    ]
    assert not grown, f"disabled observability allocated: {grown}"


def test_disabled_run_records_no_metrics():
    disable()
    default_registry().reset()
    engine = _ingested(_random_edges(150, seed=4))
    engine.list_spanning_forest()
    snap = default_registry().snapshot()
    assert not snap.counters and not snap.histograms
    # Levels are the engine's, not the registry's: still read when disabled.
    assert engine.metrics().gauges["engine.updates_processed"] == engine.updates_processed


# ----------------------------------------------------------------------
# observability never changes a sketch bit
# ----------------------------------------------------------------------
def test_forests_bit_identical_with_observability_on_off():
    edges = _random_edges(500, seed=7)
    enable()
    install_trace_ring()  # registry + ring: the most instrumented configuration
    on = _ingested(edges)
    on.list_spanning_forest()
    disable()
    remove_trace_ring()
    off = _ingested(edges)
    off.list_spanning_forest()
    assert _same_state(on, off)


def test_sharded_threads_bit_identical_under_observability():
    edges = _random_edges(500, seed=11)
    serial = _ingested(edges)
    parallel = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=9))
    with parallel.parallel_ingestor(num_workers=2, backend="threads") as ingestor:
        ingestor.ingest_stream(
            edges[start : start + 100] for start in range(0, edges.shape[0], 100)
        )
    assert _same_state(serial, parallel)
    # Thread-pool ingest records fold spans in the same process registry.
    assert default_registry().snapshot().histograms["ingest.fold"].count > 0


def test_serial_numpy_chunk_records_one_hash_and_one_fold_span():
    edges = _random_edges(300, seed=17)  # well inside one fold pass at 48 nodes
    default_registry().reset()
    _ingested(edges)
    histograms = default_registry().snapshot().histograms
    assert histograms["ingest.hash"].count == 1
    assert histograms["ingest.fold"].count == 1


def test_ingest_updates_counts_once_per_update_on_every_path():
    edges = _random_edges(400, seed=19)

    default_registry().reset()
    _ingested(edges)
    assert default_registry().snapshot().counters["ingest.updates"] == edges.shape[0]

    default_registry().reset()
    sharded = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=9))
    with sharded.parallel_ingestor(num_workers=2, backend="threads") as ingestor:
        ingestor.ingest_batch(edges)
    assert default_registry().snapshot().counters["ingest.updates"] == edges.shape[0]

    default_registry().reset()
    paged = GraphZeppelin(
        NUM_NODES,
        config=GraphZeppelinConfig(seed=9, ram_budget_bytes=64_000, nodes_per_page=8),
    )
    assert paged.tensor_pool.is_paged
    paged.ingest_batch(edges)
    paged.flush()
    assert default_registry().snapshot().counters["ingest.updates"] == edges.shape[0]
    assert default_registry().snapshot().histograms["ingest.fold"].count > 0


def test_distributed_merge_bit_identical_and_counters_equal_serial(tmp_path):
    from repro.distributed.multi_ingestor import distributed_ingest

    edges = _random_edges(400, seed=13)
    config = GraphZeppelinConfig(seed=9)
    default_registry().reset()
    serial = _ingested(edges)
    serial_updates = default_registry().snapshot().counters["ingest.updates"]
    assert serial_updates == edges.shape[0]

    default_registry().reset()
    engine, report = distributed_ingest(
        edges, NUM_NODES, config=config, num_ingestors=2, workdir=tmp_path
    )
    assert _same_state(serial, engine)
    # Worker snapshots merged into the report must account for every
    # update exactly once -- the metrics analogue of the XOR merge.
    assert report.metrics is not None
    assert report.metrics.counters["ingest.updates"] == serial_updates
    # And the coordinator absorbed them into the live registry.
    assert (
        default_registry().snapshot().counters["ingest.updates"] == serial_updates
    )
    # The worker engines' levels stay in the report (max across workers);
    # the registry takes none, and the coordinator's gauges are its own.
    assert report.metrics.gauges["engine.updates_processed"] == max(
        report.per_worker_updates
    )
    assert default_registry().snapshot().gauges == {}
    assert engine.metrics().gauges == {
        "engine.updates_processed": float(edges.shape[0]),
        "engine.batches_applied": float(engine.batches_applied),
        "checkpoint.failures_total": 0.0,
    }


# ----------------------------------------------------------------------
# snapshot algebra
# ----------------------------------------------------------------------
def test_histogram_merge_is_associative_and_commutative():
    rng = np.random.default_rng(17)
    snaps = []
    for _ in range(3):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for value in rng.uniform(1e-6, 2.0, 200):
            hist.observe(float(value))
        snaps.append(registry.snapshot().histograms["lat"])
    a, b, c = snaps
    left = a.merged_with(b).merged_with(c)
    right = a.merged_with(b.merged_with(c))
    # Bucket counts are integers: merge order is exactly immaterial.
    # The float running sum is associative only up to rounding.
    assert (left.bounds, left.counts, left.count) == (
        right.bounds, right.counts, right.count
    )
    assert left.sum == pytest.approx(right.sum)
    assert a.merged_with(b) == b.merged_with(a)
    assert left.count == a.count + b.count + c.count
    assert left.sum == pytest.approx(a.sum + b.sum + c.sum)


def test_histogram_merge_rejects_mismatched_buckets():
    a = HistogramSnapshot(bounds=(0.1, 1.0), counts=(0, 1, 0), sum=0.5, count=1)
    b = HistogramSnapshot(
        bounds=DEFAULT_LATENCY_BUCKETS,
        counts=tuple([0] * (len(DEFAULT_LATENCY_BUCKETS) + 1)),
        sum=0.0,
        count=0,
    )
    with pytest.raises(ValueError):
        a.merged_with(b)


def test_snapshot_merge_counters_add_gauges_max():
    a = MetricsSnapshot(counters={"x": 3}, gauges={"level": 2.0})
    b = MetricsSnapshot(counters={"x": 4, "y": 1}, gauges={"level": 5.0})
    merged = a.merged_with(b)
    assert merged.counters == {"x": 7, "y": 1}
    assert merged.gauges == {"level": 5.0}


def test_registry_absorb_matches_snapshot_merge():
    a = MetricsRegistry()
    a.counter("n").inc(2)
    a.histogram("h").observe(0.01)
    b = MetricsRegistry()
    b.counter("n").inc(5)
    b.histogram("h").observe(0.5)
    merged = a.snapshot().merged_with(b.snapshot())
    a.absorb(b.snapshot())
    assert a.snapshot() == merged
    # A worker's shipped snapshot carries its engine's levels as gauges;
    # the registry absorbs its counters and histograms, not those.
    shipped = b.snapshot()
    shipped.gauges = {"io.block_reads": 37.0}
    merged = a.snapshot().merged_with(shipped)
    a.absorb(shipped)
    assert a.snapshot() == dataclasses.replace(merged, gauges={})


# ----------------------------------------------------------------------
# health statuses
# ----------------------------------------------------------------------
def test_health_ok_on_a_clean_run():
    engine = _ingested(_random_edges(100, seed=19))
    report = engine.health()
    assert report["status"] == "ok"
    assert "checkpoint_failures" not in report


def test_health_degraded_on_checkpoint_failures_and_persists_after_detach(
    tmp_path, monkeypatch
):
    engine = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=9))
    engine.attach_checkpointer(
        tmp_path, policy=CheckpointPolicy(every_n_updates=50)
    )
    assert engine.health()["status"] == "ok"
    monkeypatch.setattr(
        engine, "save_snapshot", lambda *a, **k: (_ for _ in ()).throw(OSError("dead"))
    )
    engine.ingest_batch(_random_edges(200, seed=21))
    report = engine.health()
    assert report["status"] == "degraded"
    assert report["checkpoint_failures"] >= 1
    # Detaching the checkpointer must not launder the failure history.
    failures = engine.checkpoint_failures
    engine.detach_checkpointer()
    report = engine.health()
    assert report["status"] == "degraded"
    assert report["checkpoint_failures"] == failures


def test_health_circuit_open_wins_over_degraded():
    from repro.memory.hybrid import HybridMemory
    from repro.resilience.overload import CircuitBreaker

    breaker = CircuitBreaker(failure_threshold=1, reset_seconds=3600.0)
    budget = GraphZeppelin(NUM_NODES).sketch_bytes() // 4
    memory = HybridMemory(ram_bytes=budget, breaker=breaker)
    engine = GraphZeppelin(
        NUM_NODES,
        config=GraphZeppelinConfig(seed=9, ram_budget_bytes=budget),
        memory=memory,
    )
    engine.ingest_batch(_random_edges(100, seed=23))
    breaker.record_failure()  # threshold 1: opens immediately
    report = engine.health()
    assert report["status"] == "circuit-open"
    assert report["breaker"]["state"] == "open"


# ----------------------------------------------------------------------
# exposition
# ----------------------------------------------------------------------
def test_prometheus_text_well_formed():
    engine = _ingested(_random_edges(200, seed=29))
    engine.list_spanning_forest()
    text = engine.metrics("prometheus")
    assert "# TYPE ingest_updates counter" in text
    assert "# TYPE ingest_batch histogram" in text
    for name in ("ingest_batch", "query_round"):
        buckets = re.findall(
            rf'^{name}_bucket{{le="([^"]+)"}} (\d+)$', text, re.MULTILINE
        )
        assert buckets and buckets[-1][0] == "+Inf"
        counts = [int(count) for _, count in buckets]
        assert counts == sorted(counts)  # cumulative
        total = int(re.search(rf"^{name}_count (\d+)$", text, re.MULTILINE).group(1))
        assert counts[-1] == total > 0
        assert re.search(rf"^{name}_sum ", text, re.MULTILINE)


def test_metrics_json_matches_snapshot():
    engine = _ingested(_random_edges(200, seed=31))
    engine.list_spanning_forest()
    snap = engine.metrics()
    payload = engine.metrics("json")
    assert payload["counters"]["ingest.updates"] == snap.counters["ingest.updates"]
    hist = payload["histograms"]["query.round"]
    assert hist["count"] == snap.histograms["query.round"].count
    assert hist["p50"] <= hist["p99"]
    assert prometheus_text(snap) == engine.metrics("prometheus")
    assert metrics_json(snap) == payload


def test_metrics_gauges_are_the_called_engines_own_levels():
    """A paged engine's I/O and page levels equal their owners' counts and
    never show up in another engine's ``metrics()``."""
    budget = GraphZeppelin(NUM_NODES).sketch_bytes() // 4
    paged = GraphZeppelin(
        NUM_NODES, config=GraphZeppelinConfig(seed=9, ram_budget_bytes=budget)
    )
    paged.ingest_batch(_random_edges(200, seed=43))
    paged.list_spanning_forest()
    gauges = paged.metrics().gauges

    def levels(prefix):
        return {n[len(prefix):]: v for n, v in gauges.items() if n.startswith(prefix)}

    assert levels("io.") == paged.io_stats.snapshot()
    assert levels("page.") == paged.tensor_pool.page_stats()
    in_ram = _ingested(_random_edges(100, seed=43))
    assert in_ram.io_stats is None
    assert set(in_ram.metrics().gauges) == {
        "engine.updates_processed",
        "engine.batches_applied",
        "checkpoint.failures_total",
    }


def test_metrics_rejects_unknown_format():
    engine = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=9))
    with pytest.raises(ValueError):
        engine.metrics("xml")


def test_registry_state_not_part_of_sketch_fingerprint():
    config = GraphZeppelinConfig(seed=9)
    before = config.sketch_fingerprint()
    engine = _ingested(_random_edges(100, seed=37))
    engine.list_spanning_forest()
    assert config.sketch_fingerprint() == before


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def test_trace_ring_exports_chrome_trace():
    ring = install_trace_ring(capacity=64)
    engine = _ingested(_random_edges(200, seed=41))
    engine.list_spanning_forest()
    assert len(ring) > 0
    trace = chrome_trace()
    events = trace["traceEvents"]
    assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(events[0])
    assert all(event["ph"] == "X" for event in events)
    assert min(event["ts"] for event in events) == 0.0
    names = {event["name"] for event in events}
    assert "query.round" in names and "ingest.fold" in names


def test_trace_ring_is_bounded():
    ring = install_trace_ring(capacity=8)
    for i in range(50):
        with span(f"s{i % 4}"):
            pass
    assert len(ring) == 8


# ----------------------------------------------------------------------
# the stats CLI surface
# ----------------------------------------------------------------------
def test_cli_stats_prints_prometheus(tmp_path, capsys):
    from repro.cli import main

    stream_path = tmp_path / "s.stream"
    assert main(
        ["generate", "kron13", str(stream_path), "--scale-reduction", "8", "--seed", "3"]
    ) == 0
    default_registry().reset()
    assert main(["stats", str(stream_path)]) == 0
    out = capsys.readouterr().out
    assert "# TYPE ingest_updates counter" in out
    assert "engine_updates_processed" in out


def test_cli_components_writes_metrics_and_trace(tmp_path, capsys):
    import json

    from repro.cli import main

    stream_path = tmp_path / "s.stream"
    assert main(
        ["generate", "kron13", str(stream_path), "--scale-reduction", "8", "--seed", "3"]
    ) == 0
    metrics_path = tmp_path / "m.prom"
    trace_path = tmp_path / "t.json"
    assert main(
        [
            "components", str(stream_path),
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        ]
    ) == 0
    capsys.readouterr()
    assert "# TYPE" in metrics_path.read_text()
    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]
