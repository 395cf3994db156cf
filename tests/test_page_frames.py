"""The paged pool's working set is a fixed set of page frames.

A page-in reads the device *into* a frame and verifies it there, a
write-back hands the device a view of the frame, and nothing in between
allocates a page.  These tests pin what that design must not change --
LRU policy and device-op order, by counts recorded at the commit before
frames existed -- and what it newly has to guarantee: a failed page-in
or write-back publishes nothing and leaks no frame, no caller is left
holding a view of a frame that went on to hold another page, and a
steady-state epoch makes no page-sized allocation.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.core.config import GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import CorruptionError
from repro.kernels import native_kernels
from repro.memory.hybrid import HybridMemory
from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault
from repro.sketch.paged_pool import PagedTensorPool
from sketch_reference import SEVEN_COLUMN_DELTA, pool_geometry


def _pool(num_nodes=48, resident_pages=3, **settings) -> PagedTensorPool:
    settings.setdefault("graph_seed", 3)
    return PagedTensorPool(
        num_nodes,
        EdgeEncoder(num_nodes),
        memory=HybridMemory(ram_bytes=0, block_size=1024),
        nodes_per_page=4,
        resident_pages=resident_pages,
        **settings,
    )


def _random_fold(pool, rng, count=200) -> None:
    u = rng.integers(0, pool.num_nodes, count)
    v = (u + 1 + rng.integers(0, pool.num_nodes - 1, count)) % pool.num_nodes
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    pool.apply_edges(lo, hi, pool.encoder.encode_canonical_pairs(lo, hi))


def _all_frames(pool):
    return list(pool._free_frames) + list(pool._frames.values())


def _page_copy(pool, page):
    entry = pool._pin(page)
    try:
        return tuple(tensor.copy() for tensor in entry)
    finally:
        pool._unpin(page)


def _assert_frame_table_intact(pool) -> None:
    """Every frame is accounted for exactly once and none is an overflow."""
    assert len(pool._free_frames) + len(pool._resident) == pool.resident_pages + 1
    assert set(pool._frames) == set(pool._resident)
    frames = _all_frames(pool)
    assert len({id(frame) for frame in frames}) == len(frames)
    for page, entry in pool._resident.items():
        assert all(np.shares_memory(tensor, pool._frames[page]) for tensor in entry)


# ----------------------------------------------------------------------
# a failed page-in publishes nothing and leaks nothing
# ----------------------------------------------------------------------
def test_failed_page_ins_publish_nothing_and_leak_no_frame():
    faulty, clean = _pool(), _pool()
    rng = np.random.default_rng(17)
    for pool in (faulty, clean):
        _random_fold(pool, np.random.default_rng(5))
        pool.sync()
    faulty.memory.fault_plan = FaultPlan(
        [FaultSpec(site="device.read", at=at) for at in range(3, 400, 7)]
        # Rot lands on write-backs made *during* the loop, so the pages
        # it hits are found by the page-ins that follow.
        + [FaultSpec(site="block", mode="corrupt", at=at, offset=at) for at in range(5, 400, 37)]
    )
    failures = {InjectedFault: 0, CorruptionError: 0}
    for step in range(200):
        page = int(rng.integers(0, faulty.num_pages))
        was_resident = page in faulty._resident
        try:
            entry = faulty._pin(page)
        except (InjectedFault, CorruptionError) as exc:
            failures[type(exc)] += 1
            assert not was_resident and page not in faulty._resident
            assert page not in faulty._pins and page not in faulty._frames
            _assert_frame_table_intact(faulty)
            continue
        try:
            # Dirty the page identically on both sides, so evictions
            # keep writing (and the block faults keep landing).
            twin = clean._pin(page)
            try:
                for tensor, other in zip(entry, twin):
                    tensor[0, 0, 0, 0] ^= tensor.dtype.type(step + 1)
                    other[0, 0, 0, 0] ^= other.dtype.type(step + 1)
                faulty._dirty.add(page)
                clean._dirty.add(page)
            finally:
                clean._unpin(page)
        finally:
            faulty._unpin(page)
        _assert_frame_table_intact(faulty)
    assert failures[InjectedFault] >= 10 and failures[CorruptionError] >= 3

    # The plan is lifted and the rotten pages repaired from the twin:
    # every page-in now returns what the fault-free pool holds.
    faulty.memory.fault_plan = None
    faulty.sync()
    rotten = faulty.scrub()
    assert rotten
    for page in rotten:
        faulty.replace_page(page, _page_copy(clean, page))
    assert faulty.scrub() == []
    for page in range(faulty.num_pages):
        for got, expected in zip(_page_copy(faulty, page), _page_copy(clean, page)):
            assert np.array_equal(got, expected)
    _assert_frame_table_intact(faulty)


def test_failed_write_back_restores_the_victim_at_the_mru_end_with_its_frame():
    pool = _pool()
    _random_fold(pool, np.random.default_rng(7))
    order = list(pool._resident)
    victim = order[0]
    assert victim in pool._dirty and len(order) == pool.resident_pages
    frame, before = pool._frames[victim], pool._frames[victim].copy()
    newcomer = next(page for page in range(pool.num_pages) if page not in pool._resident)

    pool.memory.fault_plan = FaultPlan([FaultSpec(site="device.write", at=1)])
    pool._pin(newcomer)
    pool._unpin(newcomer)
    assert pool.page_writeback_failures == 1
    # Nothing lost: the victim is back, most recent, dirty, in its own
    # frame; the newcomer took the spare and the budget overflows by one.
    assert list(pool._resident) == order[1:] + [newcomer, victim]
    assert victim in pool._dirty and pool._frames[victim] is frame
    assert np.array_equal(frame, before)
    assert not pool._free_frames and len(pool._resident) == pool.resident_pages + 1

    # The next miss pages into an overflow frame, the retried sweep
    # drains the backlog, and the overflow frame does not survive.
    pool.memory.fault_plan = None
    third = next(page for page in range(pool.num_pages) if page not in pool._resident)
    pool._pin(third)
    pool._unpin(third)
    _assert_frame_table_intact(pool)
    pool.sync()
    assert not pool._dirty and pool.scrub() == []


# ----------------------------------------------------------------------
# aliasing: the device keeps copies, callers keep copies
# ----------------------------------------------------------------------
def test_device_keeps_a_copy_of_a_written_back_frame():
    pool = _pool()
    _random_fold(pool, np.random.default_rng(11))
    pool.sync()
    page = next(iter(pool._resident))
    expected = _page_copy(pool, page)
    # Scribble over the frame after its write-back, then let the LRU drop
    # the (clean) page without another write and hand its frame to other
    # pages: the next page-in must see the bytes the device copied.
    pool._frames[page].fill(0xAB)
    others = [p for p in range(pool.num_pages) if p not in pool._resident]
    for other in others[: pool.resident_pages + 1]:
        pool._pin(other)
        pool._unpin(other)
    assert page not in pool._resident
    _assert_frame_table_intact(pool)
    for got, want in zip(_page_copy(pool, page), expected):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("force_wide", [False, True])
@pytest.mark.parametrize("num_rounds", [1, 3])
def test_no_accessor_returns_a_view_of_a_frame(force_wide, num_rounds):
    """With one round a node's bundle slice is already contiguous, so
    ``ascontiguousarray`` would hand out the frame itself."""
    pool = _pool(num_nodes=24, geometry=pool_geometry(24, wide=force_wide, rounds=num_rounds))
    _random_fold(pool, np.random.default_rng(13), count=80)
    node = next(iter(pool._resident)) * pool.nodes_per_page + 1
    sketch = pool.node_sketch(node)
    held = [
        *pool._node_bundle_arrays(node),
        sketch._alpha,
        sketch._gamma,
        pool._round_view(0, 0),
        *pool.raw_tensors(),
    ]
    frames = _all_frames(pool)
    assert len(frames) == pool.resident_pages + 1
    for array in held:
        assert not any(np.shares_memory(array, frame) for frame in frames)
    snapshot = [array.copy() for array in held]
    for frame in frames:
        frame.fill(0xEE)
    for array, want in zip(held, snapshot):
        assert np.array_equal(array, want)


# ----------------------------------------------------------------------
# policy and device-op order, pinned by counts taken at the parent commit
# ----------------------------------------------------------------------
def _recorded_paged_run(num_nodes: int, budget_divisor: int, kernel_backend: str = "numpy"):
    """Five seeded epochs (ingest, flush, query) on a paged engine and its
    flat twin, both on ``kernel_backend``.  Returns the pool's page
    statistics, ``(block_reads, block_writes)`` and every device op as
    ``(kind, start_block, blocks)``, all taken before the closing
    bit-identity check.  The counts were recorded on the 7-column sketch,
    so both engines run at :data:`SEVEN_COLUMN_DELTA`."""
    config = GraphZeppelinConfig(
        delta=SEVEN_COLUMN_DELTA, seed=3, validate_stream=False, kernel_backend=kernel_backend
    )
    state = GraphZeppelin(num_nodes, config).sketch_bytes()
    engine = GraphZeppelin(
        num_nodes,
        GraphZeppelinConfig.out_of_core(
            state // budget_divisor,
            delta=SEVEN_COLUMN_DELTA,
            validate_stream=False,
            seed=3,
            nodes_per_page=4,
            kernel_backend=kernel_backend,
        ),
    )
    flat = GraphZeppelin(num_nodes, config)
    device, ops = engine.memory.device, []
    read_into, read_ranges, write_blob = device.read_into, device.read_ranges, device.write_blob
    page_steps = device.page_steps

    def recording_read(start, blocks, out):
        ops.append(("read", start, blocks))
        return read_into(start, blocks, out)

    def recording_batch(runs, *args):
        # A batch of stripe reads is one read per stripe, in order.
        ops.extend(("read", start, blocks) for start, blocks in runs.tolist())
        return read_ranges(runs, *args)

    def recording_write(start, payload, _digests=None):
        ops.append(("write", start, -(-len(payload) // device.block_size)))
        return write_blob(start, payload, _digests=_digests)

    def recording_steps(steps, call):
        # A planned flush step reads its page, then writes its victim back;
        # only the steps the call finished happened.
        done = page_steps(steps, call)
        for read, blocks, _, victim, write, written, *_ in steps[:done].tolist():
            if read >= 0:
                ops.append(("read", read, blocks))
            if victim:
                ops.append(("write", write, written))
        return done

    device.read_into, device.read_ranges = recording_read, recording_batch
    device.write_blob, device.page_steps = recording_write, recording_steps
    rng = np.random.default_rng(2024)
    for _ in range(5):
        u = rng.integers(0, num_nodes, 512)
        v = (u + 1 + rng.integers(0, num_nodes - 1, 512)) % num_nodes
        edges = np.stack([u, v], axis=1)
        for side in (engine, flat):
            side.ingest_batch(edges)
            side.flush()
        assert engine.list_spanning_forest().edges == flat.list_spanning_forest().edges
    result = (
        engine.tensor_pool.page_stats(),
        (engine.io_stats.block_reads, engine.io_stats.block_writes),
        list(ops),
    )
    for got, want in zip(engine.tensor_pool.raw_tensors(), flat.tensor_pool.raw_tensors()):
        assert np.array_equal(got, want)
    return result


_NO_NATIVE = pytest.mark.skipif(native_kernels() is None, reason="no native kernel provider")


@pytest.mark.parametrize(
    "kernel_backend, device",
    [
        pytest.param("numpy", "file", id="numpy"),
        pytest.param("native", "file", id="native", marks=_NO_NATIVE),
        pytest.param("numpy", "dict", id="numpy-dict"),
        pytest.param("native", "dict", id="native-dict", marks=_NO_NATIVE),
    ],
    indirect=["device"],
)
def test_device_traffic_repeats_the_parent_commit_op_for_op(kernel_backend, device):
    """Budget = state / 8 (the benchmark's ratio).  At the parent the byte
    cache had no room left once the slab was reserved, so its device
    traffic is exactly the LRU policy's -- and must be op for op ours.
    Under either provider: the native query reads a round's stripes only
    when the stop rule lets that round run, as the numpy driver does.
    On either device: where the bytes live moves no device op."""
    stats, block_ios, ops = _recorded_paged_run(256, 8, kernel_backend)
    assert (stats["num_pages"], stats["page_blocks"], stats["resident_budget"]) == (64, 2, 5)
    assert (stats["page_ins"], stats["page_writebacks"], stats["partial_reads"]) == (
        256, 315, 1003,
    )
    assert block_ios == (1894, 630)
    assert len(ops) == 1574
    assert hashlib.sha1(repr(ops).encode()).hexdigest() == (
        "319e2033196fa1d68378aaf13e95a080addaa744"
    )
    # The first miss on a full working set: the page is read (into the
    # spare frame) *before* the LRU victim is written back.
    assert ops[354:358] == [("read", 0, 2), ("write", 118, 2), ("read", 2, 2), ("write", 120, 2)]


def test_device_traffic_is_within_a_percent_where_the_parent_cache_had_hits():
    """Budget = state / 6: the parent's byte cache kept about one page and
    scored 23 hits in 3 180 lookups.  Policy counts repeat exactly; the
    block counts differ by those hits (reads) and by the re-stores the
    cache absorbed (writes)."""
    stats, (block_reads, block_writes), ops = _recorded_paged_run(512, 6)
    assert (stats["page_ins"], stats["page_writebacks"], stats["partial_reads"]) == (
        512, 628, 2668,
    )
    parent_reads, parent_writes = 5396, 1881
    assert 0 <= block_reads - parent_reads <= parent_reads // 100
    assert 0 <= block_writes - parent_writes <= parent_writes // 100
    # Read, then write-back -- on every eviction once pages exist on the
    # device, not just the first: each write directly follows the
    # whole-page read of the page that displaced its victim.
    def page_read(op):
        return op[0] == "read" and op[2] == stats["page_blocks"]

    first_read = next(i for i, op in enumerate(ops) if op[0] == "read")
    late_writes = [i for i, op in enumerate(ops) if op[0] == "write" and i > first_read]
    assert len(late_writes) > 400
    assert all(page_read(ops[i - 1]) for i in late_writes)


# ----------------------------------------------------------------------
# steady state allocates no page
# ----------------------------------------------------------------------
def test_a_warmed_epoch_makes_no_page_sized_allocation(native_provider, monkeypatch):
    """Traced from before the engine exists, so that the simulated disk's
    own contents (a rewritten block replaces one of the same size) net
    out and what is left is the RAM the epoch itself asked for.  The
    epoch's flush goes through the batched ``fold_pages`` call (no
    per-page ``fold_page``) and its query reads its rounds through the
    batched ``read_runs`` path, so this also holds both to no page- or
    slab-sized buffer.

    Both snapshots count live blocks only: garbage waiting in a
    reference cycle is collected first.  Otherwise whether an earlier
    test's engines -- or this one's cycles -- are still traced depends
    on when the collector last ran, and so on which test files share
    the run."""
    num_nodes = 1024
    state = GraphZeppelin(num_nodes).sketch_bytes()
    rng = np.random.default_rng(31)
    gc.collect()
    tracemalloc.start()
    try:
        engine = GraphZeppelin(
            num_nodes,
            GraphZeppelinConfig.out_of_core(
                state // 10, kernel_backend="auto", validate_stream=False, seed=3
            ),
        )
        pool = engine.tensor_pool
        page_bytes = pool.page_payload_bytes(0)
        assert pool.num_pages >= 10 * pool.resident_pages

        def epoch():
            for _ in range(2):
                u = rng.integers(0, num_nodes, 256)
                v = (u + 1 + rng.integers(0, num_nodes - 1, 256)) % num_nodes
                engine.ingest_batch(np.stack([u, v], axis=1))
            engine.flush()
            return engine.list_spanning_forest()

        for _ in range(3):  # every page on the device, slab and scratch sized
            epoch()
        assert len(list(engine.memory.keys())) == pool.num_pages
        page_ins, device_bytes = pool.page_ins, engine.memory.device_bytes

        def large_blocks():
            gc.collect()
            return Counter(
                (trace.size, trace.traceback)
                for trace in tracemalloc.take_snapshot().traces
                if trace.size >= page_bytes // 2
            )

        calls = Counter()
        for name in ("fold_page", "_fold_steps"):
            method = getattr(native_provider, name)
            monkeypatch.setattr(
                native_provider, name,
                lambda *args, _name=name, _method=method: calls.update([_name]) or _method(*args),
            )
        before = large_blocks()
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        epoch()
        _, peak = tracemalloc.get_traced_memory()
        after = large_blocks()
    finally:
        tracemalloc.stop()
    assert calls["_fold_steps"] >= 1 and calls["fold_page"] == 0
    assert pool.page_ins - page_ins >= pool.num_pages // 2  # the epoch did page
    assert engine.memory.device_bytes == device_bytes
    assert sum(before.values()) >= pool.resident_pages + 1  # the frames are traced
    assert not after - before
    assert peak - baseline < page_bytes
