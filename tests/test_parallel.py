"""Tests for the parallel cost models."""

import json
from pathlib import Path

import pytest

from repro.parallel.cost_model import ShardedIngestModel, ThreadScalingModel

BENCH_PARALLEL = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


# ----------------------------------------------------------------------
# ThreadScalingModel
# ----------------------------------------------------------------------
def test_model_speedup_is_monotone_then_saturates():
    model = ThreadScalingModel.paper_like(single_thread_rate=100_000)
    speedups = [model.speedup(t) for t in (1, 2, 4, 8, 16, 24, 46)]
    assert speedups[0] == pytest.approx(1.0, abs=0.05)
    assert all(b > a for a, b in zip(speedups, speedups[1:]))
    # diminishing returns: the last doubling gains less than the first
    assert speedups[1] / speedups[0] > speedups[-1] / speedups[-2]


def test_model_matches_paper_scale_at_46_threads():
    """The paper reports ~26x at 46 threads; the calibrated model should land nearby."""
    model = ThreadScalingModel.paper_like(single_thread_rate=160_000)
    assert 20 <= model.speedup(46) <= 32


def test_model_rate_scales_with_single_thread_rate():
    slow = ThreadScalingModel.paper_like(1000)
    fast = ThreadScalingModel.paper_like(2000)
    assert fast.ingestion_rate(8) == pytest.approx(2 * slow.ingestion_rate(8))


def test_model_hyperthread_discount():
    model = ThreadScalingModel(single_thread_rate=1000, physical_cores=4, hyperthread_yield=0.3)
    assert model.effective_workers(4) == 4
    assert model.effective_workers(8) == pytest.approx(4 + 4 * 0.3)


def test_model_curve_rows():
    model = ThreadScalingModel.paper_like(1000)
    rows = model.curve([1, 2, 4])
    assert [row["threads"] for row in rows] == [1, 2, 4]
    assert all("ingestion_rate" in row and "speedup" in row for row in rows)


def test_model_rejects_zero_threads():
    with pytest.raises(ValueError):
        ThreadScalingModel.paper_like(1000).speedup(0)


# ----------------------------------------------------------------------
# ShardedIngestModel
# ----------------------------------------------------------------------
def test_sharded_model_speedup_monotone_and_core_limited():
    model = ShardedIngestModel(fold_rate=50_000, available_cores=8)
    speedups = [model.speedup(w) for w in (1, 2, 4, 8, 16, 32)]
    assert speedups[0] == pytest.approx(1.0)
    assert all(b >= a for a, b in zip(speedups, speedups[1:]))
    # Workers beyond the available cores add nothing.
    assert model.speedup(16) == model.speedup(8)
    # Amdahl bound: the serial partition step caps the speedup.
    assert model.speedup(8) < 1.0 / model.partition_fraction


def test_sharded_model_single_core_predicts_flat_scaling():
    model = ShardedIngestModel(fold_rate=50_000, available_cores=1)
    assert model.speedup(4) == pytest.approx(1.0)


def test_sharded_model_curve_rows_and_validation():
    model = ShardedIngestModel(fold_rate=10_000)
    rows = model.curve([1, 2, 4])
    assert [row["workers"] for row in rows] == [1, 2, 4]
    assert all("ingestion_rate" in row and "speedup" in row for row in rows)
    with pytest.raises(ValueError):
        model.speedup(0)


def test_sharded_model_calibration_matches_measured_bench_rows():
    """Calibrated predictions must sit near the BENCH_parallel.json rows.

    The model is calibrated from the measured one-worker sharded rate
    and the recorded core count; its predicted rate at every measured
    worker count must land within a sane factor of the measurement.
    The tolerance is loose (3x) because the ledger rows come from
    shared CI runners, but it still catches a model whose shape has
    drifted from the pipeline it prices.
    """
    if not BENCH_PARALLEL.exists():
        pytest.skip("BENCH_parallel.json not generated yet")
    payload = json.loads(BENCH_PARALLEL.read_text())
    measured = {}
    for row in payload["rows"]:
        path = row["path"]
        if path.startswith("sharded threads x"):
            measured[int(path.rsplit("x", 1)[1])] = row["updates_per_sec"]
    assert 1 in measured, "ledger is missing the one-worker sharded row"

    batch = min(payload["num_edge_updates"], 1 << 14)
    model = ShardedIngestModel.calibrated(
        measured[1], batch_size=batch, available_cores=payload.get("cores") or 1
    )
    assert model.ingestion_rate(1) == pytest.approx(measured[1], rel=1e-6)
    for workers, rate in measured.items():
        predicted = model.ingestion_rate(workers)
        assert predicted / rate < 3.0 and rate / predicted < 3.0, (
            f"model predicts {predicted:.0f} upd/s at {workers} workers, "
            f"measured {rate:.0f}"
        )
