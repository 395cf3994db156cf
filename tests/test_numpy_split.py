"""The numpy fold's round split (:mod:`repro.sketch.round_split`).

A serial numpy fold with enough work is cut into Boruvka round ranges
that the caller and the helper threads claim.  These tests hold it to
the unsplit numpy bytes and the native provider's, to the serial entry
points only (never the paged pool or a shard worker), to a clean error
story, and to a bounded scratch arena on the long-lived helpers.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.memory.hybrid import HybridMemory
from repro.sketch.flat_node_sketch import fold_scratch_bytes
from repro.sketch.paged_pool import PagedTensorPool
from repro.sketch.round_split import round_ranges, split_ranges
from repro.sketch.tensor_pool import _FOLD_PASS_ELEMENTS, NodeTensorPool
from sketch_reference import pool_geometry


@pytest.fixture
def split(fold_helpers, monkeypatch):
    """``(force, handed)`` for the numpy round split on any host.

    ``force(cores, floor=None)`` fixes what the split degree is computed
    from; ``handed`` collects every job handed to a helper thread.
    """
    from repro.parallel import cost_model
    from repro.sketch import tensor_pool

    def force(cores, floor=None):
        monkeypatch.setattr(cost_model, "usable_cores", lambda: cores)
        if floor is not None:
            monkeypatch.setattr(tensor_pool, "SPLIT_FLOOR", floor)

    return force, fold_helpers


def _random_pairs(num_nodes, count, rng):
    lo = rng.integers(0, num_nodes - 1, count)
    return lo, lo + 1 + rng.integers(0, num_nodes - 1 - lo)


def _case(num_nodes, count, force_wide=False, num_rounds=None, kernels=(None, None)):
    """``(pools, lo, hi, indices)``: one pool per ``kernels`` entry, one edge batch."""
    encoder = EdgeEncoder(num_nodes)
    lo, hi = _random_pairs(num_nodes, count, np.random.default_rng(3))
    pools = [
        NodeTensorPool(
            num_nodes, encoder, graph_seed=9,
            geometry=pool_geometry(num_nodes, wide=force_wide, rounds=num_rounds),
            kernels=provider,
        )
        for provider in kernels
    ]
    return pools, lo, hi, encoder.encode_canonical_pairs(lo, hi)


def _fold(entry, pool, lo, hi, indices):
    """Both halves of the edge batch through ``apply_edges`` or ``apply_updates``."""
    if entry == "apply_edges":
        pool.apply_edges(lo, hi, indices)
    else:
        pool.apply_updates(np.concatenate([lo, hi]), np.concatenate([indices, indices]))


def _tensor_bytes(pool):
    return [np.asarray(t, dtype=np.uint64).tobytes() for t in pool.raw_tensors()]


@pytest.mark.parametrize("ranges", [1, 2, 3, "rounds", "rounds + 2"])
@pytest.mark.parametrize("entry", ["apply_edges", "apply_updates"])
@pytest.mark.parametrize("force_wide", [False, True])
def test_numpy_round_split_is_bit_identical(split, force_wide, entry, ranges):
    from repro.kernels import native_kernels

    force, handed = split
    (split_pool, serial_pool), lo, hi, indices = _case(100, 600, force_wide)
    rounds = split_pool.num_rounds
    ranges = {"rounds": rounds, "rounds + 2": rounds + 2}.get(ranges, ranges)
    work = 2 * indices.size * split_pool.num_slots
    force(3, floor=work // ranges)
    expected = min(ranges, rounds)
    assert split_ranges(work, rounds, work // ranges) == expected
    _fold(entry, split_pool, lo, hi, indices)
    assert len(handed) == min(3, expected) - 1
    force(1)
    _fold(entry, serial_pool, lo, hi, indices)
    assert len(handed) == min(3, expected) - 1
    assert split_pool.raw_tensors()[0].any()
    assert split_pool.updates_applied == serial_pool.updates_applied == 2 * indices.size
    assert _tensor_bytes(split_pool) == _tensor_bytes(serial_pool)
    provider = native_kernels()
    if provider is not None:
        (native_pool,), *_ = _case(100, 600, force_wide, kernels=(provider,))
        _fold(entry, native_pool, lo, hi, indices)
        assert _tensor_bytes(split_pool) == _tensor_bytes(native_pool)


def test_round_ranges_are_whole_balanced_and_cover_every_round():
    for rounds in range(1, 12):
        for ranges in range(1, rounds + 1):
            runs = round_ranges(rounds, ranges)
            assert runs[0][0] == 0 and runs[-1][1] == rounds
            assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
            lengths = [hi - lo for lo, hi in runs]
            assert min(lengths) >= 1 and max(lengths) - min(lengths) <= 1


def test_one_round_pool_never_splits(split):
    force, handed = split
    force(4, floor=1)
    (split_pool, serial_pool), lo, hi, indices = _case(100, 600, num_rounds=1)
    split_pool.apply_edges(lo, hi, indices)
    assert handed == []
    serial_pool._fold(indices, (lo, hi))
    assert _tensor_bytes(split_pool) == _tensor_bytes(serial_pool)


@pytest.mark.parametrize(
    "work, splits",
    [("floor - 1", False), ("floor", False), ("under 2 * floor", False), ("2 * floor", True)],
)
def test_numpy_split_starts_at_two_floors_of_work(split, work, splits):
    force, handed = split
    (split_pool, serial_pool), lo, hi, indices = _case(100, 600)
    total = 2 * indices.size * split_pool.num_slots  # even: two halves
    floor = {
        "floor - 1": total + 1,
        "floor": total,
        "under 2 * floor": total // 2 + 1,
        "2 * floor": total // 2,
    }[work]
    force(2, floor=floor)
    split_pool.apply_edges(lo, hi, indices)
    assert len(handed) == int(splits)
    serial_pool._fold(indices, (lo, hi))
    assert _tensor_bytes(split_pool) == _tensor_bytes(serial_pool)


def test_default_engine_ingest_batch_splits_and_matches_serial(split):
    force, handed = split
    edges = np.stack(_random_pairs(512, 65_536, np.random.default_rng(8)), axis=1)
    engines = [GraphZeppelin(512, GraphZeppelinConfig(seed=4)) for _ in range(2)]
    force(2)  # the real floor
    engines[0].ingest_batch(edges)
    assert handed
    force(1)
    engines[1].ingest_batch(edges)
    split_engine, serial_engine = engines
    assert _tensor_bytes(split_engine.tensor_pool) == _tensor_bytes(serial_engine.tensor_pool)
    assert (
        split_engine.list_spanning_forest().edges
        == serial_engine.list_spanning_forest().edges
    )


def test_paged_pool_hands_no_range_to_the_helpers(split):
    force, handed = split
    force(2, floor=1)  # any fold allowed to split would
    encoder = EdgeEncoder(64)
    lo, hi = _random_pairs(64, 2_000, np.random.default_rng(5))
    indices = encoder.encode_canonical_pairs(lo, hi)
    paged = PagedTensorPool(
        64, encoder, memory=HybridMemory(ram_bytes=0, block_size=1024),
        graph_seed=9, nodes_per_page=8,
    )
    reference = NodeTensorPool(64, encoder, graph_seed=9)
    for pool in (paged, reference):
        pool.apply_edges(lo, hi, indices)
        pool.apply_updates(hi, indices)
        pool.fold_page_batch(0, 8, lo[lo < 8], indices[lo < 8])
    assert len(handed) == 3  # the in-RAM reference split each time ...
    assert _tensor_bytes(paged) == _tensor_bytes(reference)  # ... the pages never


def test_sharded_workers_hand_no_range_to_the_helpers(split):
    from repro.parallel.graph_workers import ShardedIngestor

    force, handed = split
    force(2, floor=1)
    edges = np.stack(_random_pairs(300, 20_000, np.random.default_rng(6)), axis=1)
    sharded, serial = (
        GraphZeppelin(300, GraphZeppelinConfig(seed=4, num_workers=workers))
        for workers in (2, 1)
    )
    with ShardedIngestor(sharded, backend="threads", num_workers=2) as ingestor:
        ingestor.ingest_stream([edges[:8_000], edges[8_000:]])
    assert handed == []
    serial.ingest_batch(edges)  # ... and the serial path does split
    assert handed
    assert _tensor_bytes(sharded.tensor_pool) == _tensor_bytes(serial.tensor_pool)


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_failed_numpy_range_propagates_after_every_range_finished(
    split, monkeypatch, failing
):
    force, _ = split
    force(3, floor=1)
    (pool,), lo, hi, indices = _case(100, 600, num_rounds=4, kernels=(None,))
    real = NodeTensorPool._fold_rounds
    caller = threading.current_thread()
    lock = threading.Lock()
    calls, failed, finished = [], [], []

    def flaky(self, *args):
        on_caller = threading.current_thread() is caller
        with lock:
            calls.append(on_caller)
            fail = on_caller == (failing == "caller") and not failed
            if fail:
                failed.append(on_caller)
        if fail:
            raise RuntimeError("injected")
        time.sleep(0.2)
        real(self, *args)
        finished.append(on_caller)

    monkeypatch.setattr(NodeTensorPool, "_fold_rounds", flaky)
    with pytest.raises(RuntimeError, match="injected"):
        pool.apply_edges(lo, hi, indices)
    assert failed == [failing == "caller"]
    assert len(calls) == 4  # the failing thread went on to claim more
    assert len(finished) == 3  # no range still writing when the error surfaced


def test_helper_scratch_stays_within_one_pass(split):
    """The helpers live as long as the process and their scratch arenas
    only grow: a large split fold leaves each holding at most the two
    hash matrices of one pass."""
    from repro.sketch import round_split

    force, handed = split
    force(2)  # one helper thread, the real floor
    (pool,), lo, hi, indices = _case(2_048, 16_384, kernels=(None,))
    pool.apply_edges(lo, hi, indices)
    assert handed
    helper_bytes = round_split._helper_pool().submit(fold_scratch_bytes).result()
    assert 0 < helper_bytes <= 2 * 8 * _FOLD_PASS_ELEMENTS
