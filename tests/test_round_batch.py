"""A query round reads all of its page stripes as one batch.

The paged pool hands every non-resident page's stripe of a round to
:meth:`HybridMemory.load_ranges` in one call: one circuit-breaker
admission and one device span for the batch, blocks gathered into the
range scratch and hashed a scratchful at a time, every block verified
before a byte of its scratchful is copied out.  These tests pin what the
batch must keep from one range read per stripe: bytes, block charges and
modelled seconds, the fault plan's numbering, per-stripe retry and
deadline, corruption detection, and the answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import CorruptionError, DeadlineExceededError
from repro.integrity.repair import scrub_and_repair
from repro.kernels import native_kernels, native_unavailable_reason
from repro.memory.hybrid import RANGE_SCRATCH_BLOCKS, HybridMemory, RetryPolicy
from repro.observability.metrics import default_registry
from repro.resilience.checkpoint import CheckpointPolicy
from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault
from repro.resilience.overload import CircuitBreaker
from dict_device import rot_stored_block
from sketch_reference import SEVEN_COLUMN_DELTA

NATIVE = native_kernels()
BACKENDS = [
    pytest.param("numpy", id="numpy"),
    pytest.param(
        "native",
        id="native",
        marks=pytest.mark.skipif(
            NATIVE is None,
            reason=f"no native kernel provider usable ({native_unavailable_reason()})",
        ),
    ),
]
BLOCK = 16


def _blocks_digested() -> int:
    return default_registry().counter("integrity.blocks_digested").value


def _memory(**settings) -> HybridMemory:
    """Three payloads on a 16-byte-block device, one with a short tail block."""
    settings.setdefault("ram_bytes", 1 << 20)
    memory = HybridMemory(block_size=BLOCK, **settings)
    rng = np.random.default_rng(3)
    for key, length in (("a", 40 * BLOCK), ("b", 30 * BLOCK + 5), ("c", 50 * BLOCK)):
        memory.store(key, rng.integers(0, 256, length, dtype=np.uint8).tobytes())
    return memory


def _requests(seed: int = 9, count: int = 60):
    """Seeded ``(key, offset, length)`` ranges: straddling, clipped, empty."""
    rng = np.random.default_rng(seed)
    lengths = {"a": 40 * BLOCK, "b": 30 * BLOCK + 5, "c": 50 * BLOCK}
    ranges = []
    for _ in range(count):
        key = "abc"[int(rng.integers(0, 3))]
        offset = int(rng.integers(0, lengths[key] + 8))
        ranges.append((key, offset, int(rng.integers(0, 5 * BLOCK))))
    return ranges


def _batch(memory, ranges):
    outs = [bytearray(length) for _, _, length in ranges]
    copied = memory.load_ranges([(key, offset, out) for (key, offset, _), out in zip(ranges, outs)])
    return [bytes(out[:n]) for out, n in zip(outs, copied)]


def _charges(memory):
    stats = memory.stats
    return (
        stats.block_reads,
        stats.bytes_read,
        stats.random_accesses,
        stats.sequential_accesses,
        stats.modelled_seconds,
    )


# ----------------------------------------------------------------------
# HybridMemory.load_ranges against one load_range per request
# ----------------------------------------------------------------------
def test_a_batch_reads_charges_and_hashes_what_one_read_per_range_would():
    ranges = _requests()
    single, batched = _memory(), _memory()
    digested = _blocks_digested()
    expected = [single.load_range(key, offset, length) for key, offset, length in ranges]
    per_range = _blocks_digested() - digested
    digested = _blocks_digested()
    assert _batch(batched, ranges) == expected
    assert _blocks_digested() - digested == per_range
    # Same blocks in the same order: the float is summed identically.
    assert _charges(batched) == _charges(single)
    assert 2 * RANGE_SCRATCH_BLOCKS < per_range  # the batch took several scratchfuls
    assert batched.cached_bytes == RANGE_SCRATCH_BLOCKS * BLOCK


def test_the_scratch_is_capped_by_what_the_budget_has_left_with_a_one_range_floor():
    memory = _memory(ram_bytes=20 * BLOCK)
    assert memory.reserve(14 * BLOCK) == 14 * BLOCK
    ranges = [("a", BLOCK * i, BLOCK) for i in range(0, 40, 2)]
    assert _batch(memory, ranges) == [memory.load_range(*r) for r in ranges]
    assert memory.cached_bytes == 6 * BLOCK
    assert memory.cached_bytes + memory.reserved_bytes == memory.ram_bytes
    # No room left: the scratch still holds the largest range, charged
    # for what the budget had.
    tight = _memory(ram_bytes=4 * BLOCK)
    assert tight.reserve(4 * BLOCK) == 4 * BLOCK
    assert _batch(tight, [("c", 0, 3 * BLOCK)]) == [tight.load_range("c", 0, 3 * BLOCK)]
    assert len(tight._range_scratch) == 3 * BLOCK and tight.cached_bytes == 0


def test_one_breaker_admission_and_one_span_per_batch():
    breaker = CircuitBreaker(failure_threshold=2)
    memory = _memory(breaker=breaker)
    admissions = []
    allow = breaker.allow
    breaker.allow = lambda: admissions.append(1) or allow()
    spans = default_registry().histogram("device.read")
    before = spans.count
    _batch(memory, _requests())
    assert len(admissions) == 1 and spans.count - before == 1


def test_a_failed_range_is_retried_alone_and_the_batch_resumes_there():
    ranges = [("a", BLOCK * i, 2 * BLOCK) for i in range(0, 40, 4)]
    clean = _memory()
    expected = _batch(clean, ranges)
    plan = FaultPlan(
        [
            FaultSpec(site="device.read", at=3),
            FaultSpec(site="device.read", at=6, mode="slow", delay_seconds=0.05),
        ]
    )
    memory = _memory(retry=RetryPolicy(attempts=2, backoff_seconds=0.0))
    memory.deadline_seconds, memory.fault_plan = 0.02, plan  # reads only, not the stores
    gathered = []
    gather = memory.device._gather
    memory.device._gather = lambda start, blocks, view, at: (
        gathered.append(start) or gather(start, blocks, view, at)
    )
    assert _batch(memory, ranges) == expected
    stats = memory.stats
    assert (stats.read_failures, stats.io_retries, stats.deadline_misses) == (2, 2, 1)
    # Read 3 failed before touching the device; read 6 (the fifth range)
    # was gathered, ruled too slow and gathered again -- nothing else.
    starts = [memory._allocations["a"][0] + i for i in range(0, 40, 4)]
    assert gathered == starts[:5] + starts[4:]
    assert stats.block_reads == clean.stats.block_reads + 2


def test_retries_exhausted_mid_batch_surface_the_device_error():
    memory = _memory(retry=RetryPolicy(attempts=2, backoff_seconds=0.0))
    memory.fault_plan = FaultPlan([FaultSpec(site="device.read", at=k) for k in (2, 3)])
    with pytest.raises(InjectedFault):
        _batch(memory, [("a", 0, BLOCK), ("b", 0, BLOCK), ("c", 0, BLOCK)])
    assert (memory.stats.read_failures, memory.stats.io_retries) == (2, 1)


def test_a_slow_range_past_its_retries_raises_the_deadline_error():
    plan = FaultPlan(
        [FaultSpec(site="device.read", at=1, mode="slow", delay_seconds=0.05)]
    )
    memory = _memory()
    memory.deadline_seconds, memory.fault_plan = 0.02, plan  # reads only, not the stores
    with pytest.raises(DeadlineExceededError):
        _batch(memory, [("a", 0, BLOCK), ("b", 0, BLOCK)])
    assert memory.stats.deadline_misses == 1


def _rot(memory, key, block_offset, bit=5):
    block = memory._allocations[key][0] + block_offset
    rot_stored_block(memory.device, block, bit)
    return block


def test_corruption_names_the_first_bad_block_and_no_byte_of_its_scratchful_is_copied():
    breaker = CircuitBreaker(failure_threshold=1)
    memory = _memory(breaker=breaker)
    ranges = [("a", BLOCK * i, BLOCK) for i in range(0, 40, 2)]  # one block each
    first = _rot(memory, "a", 10)  # the sixth range
    _rot(memory, "a", 30)  # the sixteenth, later in the same scratchful
    outs = [bytearray(b"\xee" * BLOCK) for _ in ranges]
    with pytest.raises(CorruptionError, match=rf"block {first} failed"):
        memory.load_ranges([(key, offset, out) for (key, offset, _), out in zip(ranges, outs)])
    assert memory.stats.checksum_failures == 1
    assert all(out == b"\xee" * BLOCK for out in outs)
    # Data damage, not device unavailability: the breaker saw nothing.
    assert breaker.state == "closed" and breaker.snapshot()["consecutive_failures"] == 0


def test_corruption_gathered_before_a_failed_range_surfaces_first():
    memory = _memory()
    block = _rot(memory, "a", 0)
    memory.fault_plan = FaultPlan([FaultSpec(site="device.read", at=2)])
    with pytest.raises(CorruptionError, match=rf"block {block} failed"):
        _batch(memory, [("a", 0, BLOCK), ("b", 0, BLOCK)])


# ----------------------------------------------------------------------
# the paged query: faults and rot inside a round
# ----------------------------------------------------------------------
NUM_NODES = 128


def _paged(backend: str, delta: float = 0.01, **settings) -> GraphZeppelin:
    state = GraphZeppelin(NUM_NODES, GraphZeppelinConfig(delta=delta)).sketch_bytes()
    config = GraphZeppelinConfig.out_of_core(
        state // 8,
        delta=delta,
        validate_stream=False,
        seed=5,
        nodes_per_page=4,
        kernel_backend=backend,
        io_retry_backoff_seconds=0.0,
        **settings,
    )
    return GraphZeppelin(NUM_NODES, config)


def _edges(seed: int = 77, count: int = 600) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, NUM_NODES, count)
    v = (u + 1 + rng.integers(0, NUM_NODES - 1, count)) % NUM_NODES
    return np.stack([u, v], axis=1)


def _flat_forest(delta: float = 0.01):
    flat = GraphZeppelin(
        NUM_NODES, GraphZeppelinConfig(delta=delta, seed=5, validate_stream=False)
    )
    flat.ingest_batch(_edges())
    return flat.list_spanning_forest()


# read_failures, io_retries, deadline_misses and the extra block reads
# over a clean query -- recorded at the commit that read one stripe per
# device operation, on the 7-column sketch, and the same under both
# providers.
SEEDED_READ_FAULTS = [
    pytest.param([FaultSpec(site="device.read", at=3)], {}, (1, 1, 0, 0), id="raise"),
    pytest.param(
        [FaultSpec(site="device.read", at=3), FaultSpec(site="device.read", at=5)],
        {},
        (2, 2, 0, 0),
        id="raise-twice",
    ),
    pytest.param(
        [FaultSpec(site="device.read", at=4, mode="slow", delay_seconds=0.05)],
        {"io_deadline_seconds": 0.02},
        (1, 1, 1, 1),
        id="slow",
    ),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("faults, settings, expected", SEEDED_READ_FAULTS)
def test_seeded_read_faults_inside_a_round_keep_their_numbering(
    backend, faults, settings, expected
):
    def query(plan):
        engine = _paged(backend, SEVEN_COLUMN_DELTA, io_retry_attempts=2, **settings)
        engine.ingest_batch(_edges())
        engine.flush()
        before = engine.io_stats.snapshot()
        engine.memory.fault_plan = plan
        forest = engine.list_spanning_forest()
        return forest, engine.io_stats.diff(before)

    clean_forest, clean = query(None)
    forest, stats = query(FaultPlan(faults))
    assert forest.edges == clean_forest.edges == _flat_forest(SEVEN_COLUMN_DELTA).edges
    assert (
        stats["read_failures"],
        stats["io_retries"],
        stats["deadline_misses"],
        stats["block_reads"] - clean["block_reads"],
    ) == expected
    assert clean["block_reads"] == 120  # round stripes of one block each


@pytest.mark.parametrize("backend", BACKENDS)
def test_rot_in_a_page_read_mid_round_is_caught_before_the_slab_and_repaired(
    backend, tmp_path
):
    engine = _paged(backend)
    engine.attach_checkpointer(tmp_path, policy=CheckpointPolicy(every_n_updates=200, keep=3))
    edges = _edges()
    engine.ingest_batch(edges)
    engine.flush()
    pool = engine.tensor_pool
    # Re-store a non-resident page with its own bytes; the plan rots the
    # first block written, which holds the start of its round-0 stripe.
    spilled = [p for p in range(pool.num_pages) if p not in pool._resident]
    page = spilled[len(spilled) // 2]
    copy = tuple(tensor.copy() for tensor in pool._pin(page))
    pool._unpin(page)
    engine.memory.fault_plan = FaultPlan([FaultSpec(site="block", mode="corrupt", at=1, offset=37)])
    pool.replace_page(page, copy)
    engine.memory.fault_plan = None
    assert page not in pool._resident
    slab = pool._slab_buffer(0)
    slab.fill(0xEEEEEEEE)
    failures = engine.io_stats.checksum_failures
    with pytest.raises(CorruptionError):
        engine.list_spanning_forest()
    assert engine.io_stats.checksum_failures == failures + 1
    assert pool._assembled == {}
    # Every slab row holds either the sentinel or its verified value.
    flat = GraphZeppelin(NUM_NODES, GraphZeppelinConfig(seed=5, validate_stream=False))
    flat.ingest_batch(edges)
    truth = flat.tensor_pool._round_view(0, 0)
    lo, hi = pool.page_span(page)
    assert (slab[lo:hi] == 0xEEEEEEEE).all()
    for row, want in zip(slab, truth):
        assert (row == 0xEEEEEEEE).all() or np.array_equal(row, want)

    report = scrub_and_repair(engine, tmp_path, edges)
    assert page in report.repaired_pages
    assert engine.list_spanning_forest() == flat.list_spanning_forest()
