"""Unit tests for the CubeSketch l0-sampler."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, IncompatibleSketchError
from repro.hashing.mixers import seeded_hash64
from repro.sketch.cubesketch import CubeSketch
from repro.sketch.sketch_base import SampleOutcome


def exhaustive_samples(sketch: CubeSketch) -> list:
    """All distinct indices recoverable from any bucket of ``sketch``.

    The query stops at the first good bucket; this checks every one.
    """
    found = set()
    alphas, gammas = sketch.raw_arrays()
    for col in range(sketch.num_columns):
        for alpha, gamma in zip(alphas[:, col].tolist(), gammas[:, col].tolist()):
            if (alpha == 0 and gamma == 0) or alpha >= sketch.vector_length:
                continue
            expected = seeded_hash64(alpha, sketch._checksum_seeds[col]) & 0xFFFFFFFF
            if expected == gamma:
                found.add(alpha)
    return sorted(found)


def test_empty_sketch_reports_zero_vector():
    sketch = CubeSketch(100, seed=1)
    assert sketch.query().is_zero
    assert sketch.is_empty()


def test_single_update_is_recovered():
    sketch = CubeSketch(1000, seed=1)
    sketch.update(137)
    result = sketch.query()
    assert result.is_good
    assert result.index == 137


def test_double_update_cancels():
    sketch = CubeSketch(1000, seed=1)
    sketch.update(137)
    sketch.update(137)
    assert sketch.query().is_zero
    assert sketch.is_empty()


def test_query_returns_some_nonzero_coordinate():
    sketch = CubeSketch(10_000, seed=2)
    support = {3, 981, 5555, 9999}
    for index in support:
        sketch.update(index)
    result = sketch.query()
    assert result.is_good
    assert result.index in support


def test_update_rejects_out_of_range_index():
    sketch = CubeSketch(10, seed=0)
    with pytest.raises(ValueError):
        sketch.update(10)
    with pytest.raises(ValueError):
        sketch.update(-1)


def test_update_rejects_even_delta():
    sketch = CubeSketch(10, seed=0)
    with pytest.raises(ValueError):
        sketch.update(3, delta=2)


def test_update_accepts_minus_one_delta_as_toggle():
    sketch = CubeSketch(10, seed=0)
    sketch.update(3, delta=-1)
    assert sketch.query().index == 3


def test_batch_update_equivalent_to_sequential():
    a = CubeSketch(5000, seed=9)
    b = CubeSketch(5000, seed=9)
    indices = [1, 2, 3, 999, 2, 4321]
    for index in indices:
        a.update(index)
    b.update_batch(np.array(indices, dtype=np.uint64))
    assert a == b


def test_batch_update_empty_is_noop():
    sketch = CubeSketch(100, seed=3)
    sketch.update_batch([])
    assert sketch.is_empty()


def test_batch_update_rejects_out_of_range():
    sketch = CubeSketch(100, seed=3)
    with pytest.raises(ValueError):
        sketch.update_batch([5, 100])


def test_batch_update_rejects_2d_input():
    sketch = CubeSketch(100, seed=3)
    with pytest.raises(ValueError):
        sketch.update_batch(np.zeros((2, 2), dtype=np.uint64))


def test_merge_is_xor_of_vectors():
    a = CubeSketch(1000, seed=4)
    b = CubeSketch(1000, seed=4)
    a.update(5)
    a.update(7)
    b.update(7)
    b.update(9)
    a.merge(b)
    # 7 cancels; remaining support {5, 9}
    samples = exhaustive_samples(a)
    assert set(samples) <= {5, 9}
    assert a.query().index in {5, 9}


def test_merge_requires_same_seed():
    a = CubeSketch(1000, seed=4)
    b = CubeSketch(1000, seed=5)
    with pytest.raises(IncompatibleSketchError):
        a.merge(b)


def test_merge_requires_same_length():
    a = CubeSketch(1000, seed=4)
    b = CubeSketch(2000, seed=4)
    with pytest.raises(IncompatibleSketchError):
        a.merge(b)


def test_iadd_operator_merges():
    a = CubeSketch(100, seed=1)
    b = CubeSketch(100, seed=1)
    a.update(1)
    b.update(2)
    a += b
    assert set(exhaustive_samples(a)) <= {1, 2}
    assert not a.is_empty()


def test_copy_is_independent():
    a = CubeSketch(100, seed=1)
    a.update(10)
    clone = a.copy()
    clone.update(20)
    assert a != clone
    assert a.query().index == 10


def test_equality_semantics():
    a = CubeSketch(100, seed=1)
    b = CubeSketch(100, seed=1)
    assert a == b
    a.update(5)
    assert a != b
    b.update(5)
    assert a == b
    assert a != "not a sketch"


def test_default_geometry_matches_paper():
    # delta = 1/100 -> 7 columns; rows = ceil(log2(n)) + 1.
    sketch = CubeSketch(10**6, delta=0.01)
    assert sketch.num_columns == 7
    assert sketch.num_rows == 21


def test_size_bytes_is_12_per_bucket():
    sketch = CubeSketch(10**6)
    assert sketch.size_bytes() == sketch.num_buckets * 12


def test_explicit_geometry_override():
    sketch = CubeSketch(100, num_rows=5, num_columns=3)
    assert sketch.num_rows == 5
    assert sketch.num_columns == 3


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        CubeSketch(0)
    with pytest.raises(ConfigurationError):
        CubeSketch(100, delta=0.0)
    with pytest.raises(ConfigurationError):
        CubeSketch(100, delta=1.5)
    with pytest.raises(ConfigurationError):
        CubeSketch(1 << 63)
    with pytest.raises(ConfigurationError):
        CubeSketch(100, num_rows=0)


def test_updates_applied_counter():
    sketch = CubeSketch(100, seed=1)
    sketch.update(3)
    sketch.update_batch([4, 5])
    assert sketch.updates_applied == 3


def test_sum_of_matches_pairwise_merges():
    sketches = []
    for index in range(4):
        sketch = CubeSketch(500, seed=8)
        sketch.update(index * 11 + 1)
        sketches.append(sketch)
    total = CubeSketch.sum_of(sketches)
    manual = sketches[0].copy()
    for sketch in sketches[1:]:
        manual.merge(sketch)
    assert total == manual


def test_sum_of_rejects_empty_list():
    with pytest.raises(ValueError):
        CubeSketch.sum_of([])


def test_failure_rate_is_below_delta():
    """Across many random non-zero vectors the sampler should rarely fail."""
    rng = np.random.default_rng(0)
    failures = 0
    trials = 200
    for trial in range(trials):
        sketch = CubeSketch(4096, delta=0.01, seed=trial)
        support_size = int(rng.integers(1, 300))
        support = rng.choice(4096, size=support_size, replace=False)
        sketch.update_batch(support.astype(np.uint64))
        result = sketch.query()
        if result.is_fail:
            failures += 1
        elif result.is_good:
            assert result.index in set(support.tolist())
    # delta = 1/100; allow generous slack for 200 trials.
    assert failures <= 8


def test_raw_arrays_are_readonly_views():
    sketch = CubeSketch(100, seed=1)
    alpha, gamma = sketch.raw_arrays()
    with pytest.raises(ValueError):
        alpha[0, 0] = 1
    with pytest.raises(ValueError):
        gamma[0, 0] = 1


def test_repr_mentions_dimensions():
    text = repr(CubeSketch(100, seed=1))
    assert "CubeSketch" in text and "rows" in text
