"""Unit tests for the general-purpose (standard) l0-sampler baseline."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, IncompatibleSketchError
from repro.sketch.sizes import WIDE_ARITHMETIC_THRESHOLD
from repro.sketch.standard_l0 import (
    MERSENNE_PRIME_61,
    MERSENNE_PRIME_127,
    StandardL0Sketch,
)


def test_empty_sketch_reports_zero_vector():
    sketch = StandardL0Sketch(100, seed=1)
    assert sketch.query().is_zero
    assert sketch.is_empty()


def test_single_insert_recovered():
    sketch = StandardL0Sketch(1000, seed=1)
    sketch.update(321, 1)
    result = sketch.query()
    assert result.is_good
    assert result.index == 321


def test_insert_then_delete_cancels():
    sketch = StandardL0Sketch(1000, seed=1)
    sketch.update(321, 1)
    sketch.update(321, -1)
    assert sketch.query().is_zero


def test_query_returns_support_member():
    sketch = StandardL0Sketch(5000, seed=2)
    support = {10, 200, 4999}
    for index in support:
        sketch.update(index, 1)
    result = sketch.query()
    assert result.is_good
    assert result.index in support


def test_negative_entries_are_still_sampleable():
    """Graph characteristic vectors contain -1 entries; sampling must work."""
    sketch = StandardL0Sketch(1000, seed=3)
    sketch.update(77, -1)
    result = sketch.query()
    assert result.is_good
    assert result.index == 77


def test_update_rejects_zero_delta():
    sketch = StandardL0Sketch(100, seed=0)
    with pytest.raises(ValueError):
        sketch.update(5, 0)


def test_update_rejects_out_of_range_index():
    sketch = StandardL0Sketch(100, seed=0)
    with pytest.raises(ValueError):
        sketch.update(100, 1)


def test_merge_adds_vectors():
    a = StandardL0Sketch(1000, seed=4)
    b = StandardL0Sketch(1000, seed=4)
    a.update(5, 1)
    b.update(5, -1)
    b.update(9, 1)
    a.merge(b)
    result = a.query()
    assert result.is_good
    assert result.index == 9


def test_merge_requires_compatible_sketches():
    a = StandardL0Sketch(1000, seed=4)
    b = StandardL0Sketch(1000, seed=5)
    with pytest.raises(IncompatibleSketchError):
        a.merge(b)


def test_update_batch_matches_sequential():
    a = StandardL0Sketch(500, seed=6)
    b = StandardL0Sketch(500, seed=6)
    indices = [1, 3, 3, 7]
    for index in indices:
        a.update(index, 1)
    b.update_batch(np.array(indices))
    assert a == b


def test_copy_independent():
    a = StandardL0Sketch(100, seed=1)
    a.update(10, 1)
    clone = a.copy()
    clone.update(20, 1)
    assert a != clone


def test_wide_arithmetic_threshold():
    small = StandardL0Sketch(10**6, seed=0)
    assert not small.uses_wide_arithmetic
    assert small.prime == MERSENNE_PRIME_61
    wide = StandardL0Sketch(WIDE_ARITHMETIC_THRESHOLD, seed=0)
    assert wide.uses_wide_arithmetic
    assert wide.prime == MERSENNE_PRIME_127


def test_force_wide_arithmetic_flag():
    sketch = StandardL0Sketch(1000, seed=0, force_wide_arithmetic=True)
    assert sketch.uses_wide_arithmetic
    sketch.update(3, 1)
    assert sketch.query().index == 3


def test_size_accounting_quadruples_for_wide_vectors():
    narrow = StandardL0Sketch(10**6).size_bytes()
    wide = StandardL0Sketch(WIDE_ARITHMETIC_THRESHOLD).size_bytes()
    assert wide > narrow
    # Per-bucket cost doubles (8B -> 16B words); bucket count also grows
    # with log(n), so the ratio is at least 2.
    assert wide / narrow >= 2


def test_default_geometry_matches_cubesketch():
    standard = StandardL0Sketch(10**6)
    assert standard.num_columns == 7
    assert standard.num_rows == 21


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        StandardL0Sketch(0)
    with pytest.raises(ConfigurationError):
        StandardL0Sketch(10, delta=0)


def test_failure_never_fabricates_index():
    rng = np.random.default_rng(1)
    for trial in range(30):
        sketch = StandardL0Sketch(512, seed=trial)
        support = rng.choice(512, size=int(rng.integers(1, 60)), replace=False)
        for index in support:
            sketch.update(int(index), 1)
        result = sketch.query()
        if result.is_good:
            assert result.index in set(support.tolist())
