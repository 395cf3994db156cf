"""Tests for the shared sketch interface pieces: results and sizes."""

import pytest

from repro.sketch.cubesketch import CubeSketch
from repro.sketch.sketch_base import SampleOutcome, SampleResult
from repro.sketch.sizes import (
    cubesketch_num_buckets,
    cubesketch_num_columns,
    cubesketch_num_rows,
    cubesketch_size_bytes,
    graph_sketch_size_bytes,
    node_sketch_size_bytes,
    standard_l0_size_bytes,
)


# ----------------------------------------------------------------------
# SampleResult
# ----------------------------------------------------------------------
def test_sample_result_constructors():
    good = SampleResult.good(5)
    assert good.is_good and good.index == 5
    zero = SampleResult.zero()
    assert zero.is_zero and zero.index is None
    fail = SampleResult.fail()
    assert fail.is_fail


def test_sample_result_validation():
    with pytest.raises(ValueError):
        SampleResult(SampleOutcome.GOOD, None)
    with pytest.raises(ValueError):
        SampleResult(SampleOutcome.ZERO, 3)


# ----------------------------------------------------------------------
# size formulas
# ----------------------------------------------------------------------
def test_column_count_follows_delta():
    assert cubesketch_num_columns(0.01) == 7
    assert cubesketch_num_columns(0.5) == 1
    assert cubesketch_num_columns(0.001) == 10


def test_row_count_grows_logarithmically():
    assert cubesketch_num_rows(2) == 2
    assert cubesketch_num_rows(1024) == 11
    assert cubesketch_num_rows(10**6) == 21


def test_size_formulas_reject_bad_input():
    with pytest.raises(ValueError):
        cubesketch_num_columns(0)
    with pytest.raises(ValueError):
        cubesketch_num_rows(0)
    with pytest.raises(ValueError):
        node_sketch_size_bytes(1)


def test_cubesketch_size_matches_instance():
    for length in (100, 10_000, 10**6):
        sketch = CubeSketch(length)
        assert sketch.size_bytes() == cubesketch_size_bytes(length)


def test_standard_is_larger_than_cubesketch_everywhere():
    for length in (10**3, 10**6, 10**9, 10**10, 10**12):
        assert standard_l0_size_bytes(length) > cubesketch_size_bytes(length)


def test_size_reduction_reaches_4x_for_huge_vectors():
    """Figure 5: ~2x for small vectors, ~4x once 128-bit ints are needed."""
    small_ratio = standard_l0_size_bytes(10**6) / cubesketch_size_bytes(10**6)
    large_ratio = standard_l0_size_bytes(10**12) / cubesketch_size_bytes(10**12)
    assert 1.5 <= small_ratio <= 2.5
    assert 3.5 <= large_ratio <= 4.5


def test_buckets_formula_consistency():
    assert cubesketch_num_buckets(10**6) == cubesketch_num_rows(10**6) * 7


def test_node_and_graph_sketch_sizes_scale():
    per_node = node_sketch_size_bytes(1024)
    assert graph_sketch_size_bytes(1024) == 1024 * per_node
    assert node_sketch_size_bytes(4096) > per_node
