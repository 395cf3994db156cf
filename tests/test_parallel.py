"""Tests for the Figure-14 thread-scaling model."""

import pytest

from repro.parallel.cost_model import ThreadScalingModel


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
