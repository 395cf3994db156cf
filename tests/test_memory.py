"""Tests for the hybrid-memory substrate (block device, budget ledger, store)."""

from dataclasses import dataclass, fields

import pytest

from repro.exceptions import StorageError
from repro.memory.block_device import DEFAULT_BLOCK_SIZE, BlockDevice, DeviceProfile
from repro.memory.hybrid import HybridMemory
from repro.memory.metrics import IOStats


# ----------------------------------------------------------------------
# IOStats
# ----------------------------------------------------------------------
def test_iostats_totals():
    stats = IOStats(block_reads=2, block_writes=3, bytes_read=10, bytes_written=20)
    assert stats.total_ios == 5
    assert stats.total_bytes == 30
    assert stats.cache_hit_rate == 0.0
    stats.cache_hits, stats.cache_misses = 3, 1
    assert stats.cache_hit_rate == 0.75


def test_iostats_snapshot_keys():
    snap = IOStats().snapshot()
    assert "block_reads" in snap and "modelled_seconds" in snap
    assert list(snap) == [counter.name for counter in fields(IOStats)]


def test_iostats_helpers_cover_every_declared_counter():
    """A counter added to the dataclass reaches snapshot and diff without
    being listed anywhere else."""

    @dataclass
    class Extended(IOStats):
        page_faults: int = 0

    stats = Extended(block_reads=4, modelled_seconds=0.5, page_faults=7)
    before = stats.snapshot()
    assert before["page_faults"] == 7 and list(before)[-1] == "page_faults"
    stats.page_faults += 3
    assert stats.diff(before)["page_faults"] == 3


# ----------------------------------------------------------------------
# BlockDevice
# ----------------------------------------------------------------------
def _read(device, start_block, num_blocks):
    out = bytearray(num_blocks * device.block_size)
    total, _ = device.read_into(start_block, num_blocks, out)
    return bytes(out[:total])


def test_block_roundtrip_and_counters():
    device = BlockDevice(block_size=64)
    assert device.write_blob(0, b"hello") == 1
    assert _read(device, 0, 1) == b"hello"
    assert device.stats.block_writes == 1
    assert device.stats.block_reads == 1
    assert device.stats.bytes_written == 5


def test_reading_unwritten_block_fails():
    device = BlockDevice()
    with pytest.raises(StorageError):
        _read(device, 7, 1)


def test_sequential_vs_random_accounting():
    device = BlockDevice(block_size=16)
    device.write_blob(0, b"a")
    device.write_blob(1, b"b")   # sequential
    device.write_blob(10, b"c")  # random
    assert device.stats.sequential_accesses == 1
    assert device.stats.random_accesses == 2
    assert device.stats.modelled_seconds > 0


def test_blob_roundtrip_spans_blocks():
    device = BlockDevice(block_size=8)
    payload = bytes(range(30))
    blocks = device.write_blob(5, payload)
    assert blocks == 4
    assert _read(device, 5, blocks) == payload


def test_delete_block_is_free():
    device = BlockDevice(block_size=8)
    device.write_blob(0, b"x")
    ios_before = device.stats.total_ios
    device.delete_block(0)
    assert device.blocks_in_use == 0
    assert device.stats.total_ios == ios_before
    with pytest.raises(StorageError):
        _read(device, 0, 1)


def test_device_profiles_ordering():
    assert DeviceProfile.nvme().random_seconds_per_block < DeviceProfile().random_seconds_per_block
    assert DeviceProfile.spinning_disk().random_seconds_per_block > DeviceProfile().random_seconds_per_block


def test_invalid_block_size_rejected():
    with pytest.raises(StorageError):
        BlockDevice(block_size=0)


# ----------------------------------------------------------------------
# HybridMemory
# ----------------------------------------------------------------------
def test_unbounded_memory_stores_on_the_device_and_reserves_nothing():
    """One tier: "unbounded" only means the ledger never refuses or counts."""
    memory = HybridMemory(ram_bytes=None)
    memory.store("k", b"payload")
    assert memory.load("k") == b"payload"
    assert memory.is_unbounded
    assert (memory.stats.block_writes, memory.stats.block_reads) == (1, 1)
    assert memory.reserve(1 << 40) == 0 and memory.release(1 << 40) == 0
    assert memory.load_range("k", 2, 3) == b"ylo"
    assert memory.reserved_bytes == 0 and memory.cached_bytes == 0


def test_bounded_memory_spills_and_reloads():
    memory = HybridMemory(ram_bytes=16, block_size=32)
    memory.store("a", b"A" * 16)
    memory.store("b", b"B" * 16)  # evicts "a" to the device
    assert memory.load("a") == b"A" * 16
    assert memory.stats.block_writes >= 1
    assert memory.stats.block_reads >= 1


def test_missing_key_raises():
    memory = HybridMemory(ram_bytes=None)
    with pytest.raises(KeyError):
        memory.load("missing")
    assert "missing" not in memory


def test_store_overwrite_returns_latest():
    memory = HybridMemory(ram_bytes=8, block_size=16)
    memory.store("a", b"v1v1v1v1")
    memory.store("b", b"v2v2v2v2")
    memory.store("a", b"v3v3v3v3")
    assert memory.load("a") == b"v3v3v3v3"
    # The payload record follows the overwrite: verification compares
    # the new bytes with the new digests, never a stale record.
    assert memory.verify_key("a") == 1 and memory.scrub() == []
    assert memory.stats.checksum_failures == 0


def test_charge_helpers_accumulate_modelled_time():
    memory = HybridMemory(ram_bytes=0, block_size=1024)
    before = memory.stats.modelled_seconds
    memory.charge_read(4096, sequential=False)
    memory.charge_write(4096, sequential=True)
    assert memory.stats.modelled_seconds > before
    assert memory.stats.block_reads == 4
    assert memory.stats.block_writes == 4
    memory.charge_read(0)
    assert memory.stats.block_reads == 4


def test_keys_lists_every_stored_key():
    memory = HybridMemory(ram_bytes=8, block_size=16)
    memory.store("a", b"12345678")
    memory.store("b", b"12345678")
    memory.store("a", b"x")
    assert list(memory.keys()) == ["a", "b"]
    assert "a" in memory and "c" not in memory


def test_zero_ram_budget_routes_everything_through_device():
    """Every store persists immediately, every load reads the device."""
    memory = HybridMemory(ram_bytes=0, block_size=16)
    memory.store("a", b"A" * 40)
    assert memory.stats.block_writes == 3  # ceil(40 / 16)
    assert memory.load("a") == b"A" * 40
    assert memory.stats.block_reads == 3
    # The memory keeps no copy, so a repeat load pays the reads again.
    assert memory.load("a") == b"A" * 40
    assert memory.stats.block_reads == 6
    assert memory.cached_bytes == 0


def test_smaller_reput_over_spilled_allocation():
    """Shrinking a spilled payload reuses its allocation and reads back exactly."""
    memory = HybridMemory(ram_bytes=0, block_size=16)
    memory.store("k", b"X" * 60)            # 4 blocks on the device
    start_before = memory._allocations["k"][0]
    memory.store("k", b"y" * 20)            # 2 blocks, re-put in place
    start_after, capacity, length = memory._allocations["k"]
    assert start_after == start_before      # no new allocation
    assert (capacity, length) == (4, 20)    # span kept, length updated
    reads_before = memory.stats.block_reads
    assert memory.load("k") == b"y" * 20    # stale tail blocks never leak
    assert memory.stats.block_reads - reads_before == 2  # ...nor get read
    memory.store("k", b"Z" * 33)            # regrow within the original span
    assert memory._allocations["k"][0] == start_before
    assert memory.load("k") == b"Z" * 33


def test_load_range_reads_only_straddled_blocks():
    memory = HybridMemory(ram_bytes=0, block_size=16)
    payload = bytes(range(64))  # 4 blocks
    memory.store("k", payload)
    stats_before = memory.stats.snapshot()
    # Range [20, 40) straddles blocks 1 and 2 only.
    assert memory.load_range("k", 20, 20) == payload[20:40]
    assert memory.stats.block_reads - stats_before["block_reads"] == 2
    assert memory.stats.bytes_read - stats_before["bytes_read"] == 32
    # A one-block range costs one read; a full-range read costs all four.
    assert memory.load_range("k", 0, 16) == payload[:16]
    assert memory.load_range("k", 0, 64) == payload
    assert memory.stats.block_reads - stats_before["block_reads"] == 2 + 1 + 4


def test_load_range_edge_cases():
    memory = HybridMemory(ram_bytes=0, block_size=16)
    memory.store("k", b"q" * 20)
    assert memory.load_range("k", 0, 0) == b""
    assert memory.load_range("k", 25, 8) == b""      # past the payload
    assert memory.load_range("k", 16, 100) == b"qqqq"  # clamped to length
    with pytest.raises(KeyError):
        memory.load_range("missing", 0, 4)
    with pytest.raises(StorageError):
        memory.load_range("k", -1, 4)


def test_load_and_load_range_fill_a_caller_buffer():
    """The frame path: bytes land in ``out``, the length comes back."""
    memory = HybridMemory(ram_bytes=64, block_size=16)
    payload = bytes(range(40))
    memory.store("k", memoryview(bytearray(payload)))  # any byte buffer stores
    frame = bytearray(48)
    assert memory.load("k", frame) == 40
    assert bytes(frame) == payload + b"\0" * 8
    tail = bytearray(12)
    assert memory.load_range("k", 30, 100, tail) == 10  # clipped to the payload
    assert bytes(tail) == payload[30:] + b"\0\0" and memory.load_range("k", 40, 4, tail) == 0
    # The one buffer the memory holds itself is charged to the budget,
    # beside the reservations and never past the ceiling.
    assert memory.cached_bytes == 32 and memory.reserve(64) == 32
    assert memory.cached_bytes + memory.reserved_bytes == 64


# ----------------------------------------------------------------------
# transient-fault retry and failure accounting
# ----------------------------------------------------------------------
def test_retry_policy_validation_and_backoff():
    from repro.memory.hybrid import RetryPolicy

    with pytest.raises(StorageError):
        RetryPolicy(attempts=0)
    with pytest.raises(StorageError):
        RetryPolicy(backoff_seconds=-1.0)
    policy = RetryPolicy(attempts=3, backoff_seconds=0.01, multiplier=2.0)
    assert policy.delay(1) == pytest.approx(0.01)
    assert policy.delay(2) == pytest.approx(0.02)


def test_transient_write_fault_retried_and_counted():
    from repro.memory.hybrid import RetryPolicy
    from repro.resilience.faults import FaultPlan, FaultSpec

    memory = HybridMemory(
        ram_bytes=0,
        block_size=16,
        retry=RetryPolicy(attempts=3, backoff_seconds=0.0),
        fault_plan=FaultPlan([FaultSpec(site="device.write", at=1)]),
    )
    memory.store("k", b"payload")  # zero-budget: goes straight to device
    assert memory.load("k") == b"payload"
    assert memory.stats.write_failures == 1
    assert memory.stats.io_retries == 1


def test_transient_read_fault_retried_and_counted():
    from repro.memory.hybrid import RetryPolicy
    from repro.resilience.faults import FaultPlan, FaultSpec

    memory = HybridMemory(
        ram_bytes=0, block_size=16, retry=RetryPolicy(attempts=2, backoff_seconds=0.0)
    )
    memory.store("k", b"payload")
    memory.fault_plan = FaultPlan([FaultSpec(site="device.read", at=1)])
    assert memory.load("k") == b"payload"
    assert memory.stats.read_failures == 1
    assert memory.stats.io_retries == 1


def test_persistent_fault_surfaces_after_retries_exhausted():
    from repro.memory.hybrid import RetryPolicy
    from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault

    memory = HybridMemory(
        ram_bytes=0,
        block_size=16,
        retry=RetryPolicy(attempts=2, backoff_seconds=0.0),
        fault_plan=FaultPlan(
            [FaultSpec(site="device.write", at=k) for k in (1, 2)]
        ),
    )
    with pytest.raises(InjectedFault):
        memory.store("k", b"payload")
    assert memory.stats.write_failures == 2
    assert memory.stats.io_retries == 1


def test_without_retry_policy_first_failure_surfaces():
    from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault

    memory = HybridMemory(
        ram_bytes=0, block_size=16,
        fault_plan=FaultPlan([FaultSpec(site="device.write", at=1)]),
    )
    with pytest.raises(InjectedFault):
        memory.store("k", b"payload")
    assert memory.stats.write_failures == 1
    assert memory.stats.io_retries == 0


def test_failed_fresh_write_does_not_leak_blocks():
    """A fresh allocation whose write fails must not advance the block
    cursor, or every retry would burn address space."""
    from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault

    memory = HybridMemory(ram_bytes=0, block_size=16)
    memory.fault_plan = FaultPlan([FaultSpec(site="device.write", at=1)])
    with pytest.raises(InjectedFault):
        memory.store("k", b"payload")
    assert memory._next_block == 0
    memory.fault_plan = None
    memory.store("k", b"payload")
    assert memory.load("k") == b"payload"
    assert memory._next_block == 1


# ----------------------------------------------------------------------
# checksummed storage: corruption round-trips (integrity plane)
# ----------------------------------------------------------------------
def _rot_device_block(memory, key, block_offset=0, bit=0):
    """Flip one bit of the ``block_offset``-th device block backing ``key``."""
    start, _, _ = memory._allocations[key]
    raw = bytearray(memory.device._blocks[start + block_offset])
    raw[bit >> 3] ^= 1 << (bit & 7)
    memory.device._blocks[start + block_offset] = bytes(raw)


def test_spilled_block_bit_flip_raises_typed_error():
    from repro.exceptions import CorruptionError

    memory = HybridMemory(ram_bytes=0, block_size=16)
    memory.store("k", bytes(range(48)))
    failures_before = memory.stats.checksum_failures
    _rot_device_block(memory, "k", block_offset=1, bit=37)
    with pytest.raises(CorruptionError, match="checksum"):
        memory.load("k")
    assert memory.stats.checksum_failures == failures_before + 1
    # CorruptionError is not an OSError: the transient-retry machinery
    # must never spin on deterministic corruption.
    assert not issubclass(CorruptionError, OSError)


def test_tail_block_corruption_detected_by_load_verify_and_scrub():
    """Flip a bit in the partial tail block, past a block boundary."""
    from repro.exceptions import CorruptionError

    memory = HybridMemory(ram_bytes=256, block_size=16)
    payload = bytes(range(16 * 2 + 5))  # tail block holds 5 live bytes
    memory.store("k", payload)
    _rot_device_block(memory, "k", block_offset=2, bit=3)
    # Ranges inside the healthy blocks still serve good bytes...
    assert memory.load_range("k", 0, 32) == payload[:32]
    # ...every read that touches the tail block flags it.
    frame = bytearray(48)
    for read in (
        lambda: memory.load("k"),
        lambda: memory.load("k", frame),
        lambda: memory.load_range("k", 30, 7),
        lambda: memory.verify_key("k"),
    ):
        with pytest.raises(CorruptionError, match="block 2 failed"):
            read()
    assert memory.scrub() == ["k"]
    assert memory.stats.checksum_failures == 5


def test_load_range_straddling_corrupt_block_detected():
    from repro.exceptions import CorruptionError

    memory = HybridMemory(ram_bytes=0, block_size=16)
    payload = bytes(range(64))  # blocks 0..3
    memory.store("k", payload)
    _rot_device_block(memory, "k", block_offset=2, bit=11)
    # A range touching only healthy blocks must NOT false-positive...
    assert memory.load_range("k", 0, 16) == payload[:16]
    assert memory.load_range("k", 48, 16) == payload[48:]
    assert memory.stats.checksum_failures == 0
    # ...while a straddle read crossing the rotten block fails typed.
    with pytest.raises(CorruptionError):
        memory.load_range("k", 20, 20)  # straddles blocks 1-2
    assert memory.stats.checksum_failures == 1


def test_clean_store_load_soak_has_zero_false_positives():
    import random

    rng = random.Random(99)
    memory = HybridMemory(ram_bytes=128, block_size=16)
    payloads = {}
    for round_index in range(200):
        key = f"k{rng.randrange(12)}"
        if key in payloads and rng.random() < 0.5:
            loaded = memory.load(key)
            assert loaded == payloads[key]
        else:
            payload = bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 70)))
            payloads[key] = payload
            memory.store(key, payload)
    assert memory.scrub() == []
    assert memory.stats.checksum_failures == 0
    assert memory.stats.blocks_scrubbed > 0


def test_load_after_oversize_restore_returns_the_new_bytes():
    """Re-storing a key past its allocation moves it; loads, range reads
    and the scrub follow, and shrinking back stays in the new place."""
    memory = HybridMemory(ram_bytes=100, block_size=16)
    memory.store("k", b"a" * 50)
    memory.store("k", b"b" * 200)
    assert memory.load("k") == b"b" * 200
    assert memory.load_range("k", 190, 20) == b"b" * 10
    assert memory._allocations["k"] == (4, 13, 200)
    assert memory.scrub() == [] and memory.stats.checksum_failures == 0
    memory.store("k", b"c" * 30)
    assert memory.load("k") == b"c" * 30 and memory._allocations["k"] == (4, 13, 30)


def test_outgrown_allocation_is_trimmed_once_the_regrow_succeeded():
    """Regression: a payload that no longer fits moved to fresh blocks
    and the old extent leaked (5 blocks / 80 B for 64 live bytes)."""
    from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault

    memory = HybridMemory(ram_bytes=0, block_size=16)
    memory.store("k", b"s" * 16)
    # A failed regrow must leave the old bytes readable: TRIM comes last.
    memory.fault_plan = FaultPlan([FaultSpec(site="device.write", at=1)])
    with pytest.raises(InjectedFault):
        memory.store("k", b"L" * 64)
    assert memory.load("k") == b"s" * 16 and memory.scrub() == []
    assert (memory.device.blocks_in_use, memory.device_bytes) == (1, 16)
    memory.fault_plan = None
    memory.store("k", b"L" * 64)
    assert memory.load("k") == b"L" * 64
    assert (memory.device.blocks_in_use, memory.device_bytes) == (4, 64)
    assert 0 not in memory.device._blocks and memory.scrub() == []


def test_a_write_ruled_too_slow_is_still_described_by_the_records():
    """The deadline verdict comes after the blocks were written: the
    allocation and payload record must follow the bytes, not the verdict."""
    from repro.exceptions import DeadlineExceededError
    from repro.resilience.faults import FaultPlan, FaultSpec

    plan = FaultPlan([FaultSpec(site="device.write", at=2, mode="slow", delay_seconds=0.05)])
    memory = HybridMemory(ram_bytes=0, block_size=16, fault_plan=plan, deadline_seconds=0.02)
    memory.store("k", b"old" * 10)
    with pytest.raises(DeadlineExceededError):
        memory.store("k", b"new" * 20)
    assert memory.stats.deadline_misses == 1
    assert memory.load("k") == b"new" * 20 and memory.scrub() == []
    assert memory.device.blocks_in_use == 4


def test_scrub_mutates_nothing():
    memory = HybridMemory(ram_bytes=64, block_size=16)
    for key in ("a", "b", "c"):
        memory.store(key, key.encode() * 30)
    memory.load_range("a", 3, 20)
    state = (
        dict(memory._allocations),
        {key: list(digests) for key, digests in memory._payload_digests.items()},
        dict(memory.device._blocks),
        memory.cached_bytes,
        memory.reserved_bytes,
    )
    hits, misses = memory.stats.cache_hits, memory.stats.cache_misses
    assert memory.scrub() == []
    assert (memory.stats.cache_hits, memory.stats.cache_misses) == (hits, misses)
    assert state == (
        memory._allocations,
        memory._payload_digests,
        memory.device._blocks,
        memory.cached_bytes,
        memory.reserved_bytes,
    )
    assert memory.stats.blocks_scrubbed == 6
