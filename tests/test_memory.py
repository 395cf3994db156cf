"""Tests for the hybrid-memory substrate (block device, cache, store)."""

from dataclasses import dataclass, fields

import pytest

from repro.exceptions import StorageError
from repro.memory.block_device import DEFAULT_BLOCK_SIZE, BlockDevice, DeviceProfile
from repro.memory.cache import LRUCache
from repro.memory.hybrid import HybridMemory
from repro.memory.metrics import IOStats


# ----------------------------------------------------------------------
# IOStats
# ----------------------------------------------------------------------
def test_iostats_accumulation_and_reset():
    stats = IOStats(block_reads=2, block_writes=3, bytes_read=10, bytes_written=20)
    assert stats.total_ios == 5
    assert stats.total_bytes == 30
    merged = stats.merged_with(IOStats(block_reads=1))
    assert merged.block_reads == 3
    stats.reset()
    assert stats.total_ios == 0
    assert stats.cache_hit_rate == 0.0


def test_iostats_snapshot_keys():
    snap = IOStats().snapshot()
    assert "block_reads" in snap and "modelled_seconds" in snap
    assert list(snap) == [counter.name for counter in fields(IOStats)]


def test_iostats_helpers_cover_every_declared_counter():
    """A counter added to the dataclass reaches snapshot, merged_with,
    diff and reset without being listed anywhere else."""

    @dataclass
    class Extended(IOStats):
        page_faults: int = 0

    stats = Extended(block_reads=4, modelled_seconds=0.5, page_faults=7)
    before = stats.snapshot()
    assert before["page_faults"] == 7 and list(before)[-1] == "page_faults"
    merged = stats.merged_with(Extended(block_reads=1, page_faults=2))
    assert isinstance(merged, Extended)
    assert (merged.block_reads, merged.modelled_seconds, merged.page_faults) == (5, 0.5, 9)
    stats.page_faults += 3
    assert stats.diff(before)["page_faults"] == 3
    stats.reset()
    assert stats == Extended()


# ----------------------------------------------------------------------
# BlockDevice
# ----------------------------------------------------------------------
def test_block_roundtrip_and_counters():
    device = BlockDevice(block_size=64)
    device.write_block(0, b"hello")
    assert device.read_block(0) == b"hello"
    assert device.stats.block_writes == 1
    assert device.stats.block_reads == 1
    assert device.stats.bytes_written == 5


def test_block_size_enforced():
    device = BlockDevice(block_size=4)
    with pytest.raises(StorageError):
        device.write_block(0, b"too large")


def test_reading_unwritten_block_fails():
    device = BlockDevice()
    with pytest.raises(StorageError):
        device.read_block(7)


def test_sequential_vs_random_accounting():
    device = BlockDevice(block_size=16)
    device.write_block(0, b"a")
    device.write_block(1, b"b")   # sequential
    device.write_block(10, b"c")  # random
    assert device.stats.sequential_accesses == 1
    assert device.stats.random_accesses == 2
    assert device.stats.modelled_seconds > 0


def test_blob_roundtrip_spans_blocks():
    device = BlockDevice(block_size=8)
    payload = bytes(range(30))
    blocks = device.write_blob(5, payload)
    assert blocks == 4
    assert device.read_blob(5, blocks)[: len(payload)] == payload


def test_delete_block_is_free():
    device = BlockDevice(block_size=8)
    device.write_block(0, b"x")
    ios_before = device.stats.total_ios
    device.delete_block(0)
    assert not device.has_block(0)
    assert device.stats.total_ios == ios_before


def test_device_profiles_ordering():
    assert DeviceProfile.nvme().random_seconds_per_block < DeviceProfile().random_seconds_per_block
    assert DeviceProfile.spinning_disk().random_seconds_per_block > DeviceProfile().random_seconds_per_block


def test_invalid_block_size_rejected():
    with pytest.raises(StorageError):
        BlockDevice(block_size=0)


# ----------------------------------------------------------------------
# LRUCache
# ----------------------------------------------------------------------
def test_cache_hit_and_miss_counters():
    cache = LRUCache(100)
    assert cache.get("a") is None
    cache.put("a", b"123")
    assert cache.get("a") == b"123"
    assert cache.stats.cache_hits == 1
    assert cache.stats.cache_misses == 1


def test_cache_evicts_lru_when_over_budget():
    evicted = []
    cache = LRUCache(10, on_evict=lambda key, payload: evicted.append(key))
    cache.put("a", b"12345")
    cache.put("b", b"12345")
    cache.get("a")            # refresh "a"; "b" becomes LRU
    cache.put("c", b"12345")  # evicts "b"
    assert "b" in evicted
    assert "a" in cache and "c" in cache


def test_cache_rejects_oversized_items_via_callback():
    evicted = []
    cache = LRUCache(4, on_evict=lambda key, payload: evicted.append(key))
    cache.put("big", b"123456789")
    assert "big" not in cache
    assert evicted == ["big"]


def test_cache_flush_evicts_everything():
    evicted = []
    cache = LRUCache(100, on_evict=lambda key, payload: evicted.append(key))
    cache.put("a", b"1")
    cache.put("b", b"2")
    cache.flush()
    assert len(cache) == 0
    assert set(evicted) == {"a", "b"}


def test_cache_pop_does_not_invoke_callback():
    evicted = []
    cache = LRUCache(100, on_evict=lambda key, payload: evicted.append(key))
    cache.put("a", b"1")
    assert cache.pop("a") == b"1"
    assert evicted == []


def test_cache_oversize_reput_drops_the_stale_entry():
    """An uncacheable re-put must not leave the key's old payload behind."""
    evicted = []
    cache = LRUCache(100, on_evict=lambda k, v: evicted.append((k, v)))
    cache.put("k", b"a" * 50)
    cache.put("other", b"o" * 10)
    cache.put("k", b"b" * 200)  # larger than the whole cache
    assert evicted == [("k", b"b" * 200)]
    assert "k" not in cache and cache.get("k") is None
    assert cache.bytes_used == 10 and len(cache) == 1


def test_cache_peek_counts_nothing_and_keeps_lru_order():
    cache = LRUCache(100)
    cache.put("a", b"1" * 40)
    cache.put("b", b"2" * 40)
    hits, misses = cache.stats.cache_hits, cache.stats.cache_misses
    assert cache.peek("a") == b"1" * 40
    assert cache.peek("missing") is None
    assert (cache.stats.cache_hits, cache.stats.cache_misses) == (hits, misses)
    cache.put("c", b"3" * 40)  # "a" is still the LRU entry and goes first
    assert "a" not in cache and "b" in cache and "c" in cache


def test_zero_capacity_cache_never_stores():
    cache = LRUCache(0)
    cache.put("a", b"")
    assert cache.get("a") in (None, b"")


# ----------------------------------------------------------------------
# HybridMemory
# ----------------------------------------------------------------------
def test_unbounded_memory_never_touches_device():
    memory = HybridMemory(ram_bytes=None)
    memory.store("k", b"payload")
    assert memory.load("k") == b"payload"
    assert memory.is_unbounded
    assert memory.stats.block_reads == 0
    assert memory.stats.block_writes == 0


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


def test_flush_persists_dirty_entries():
    memory = HybridMemory(ram_bytes=1024, block_size=32)
    memory.store("a", b"abc")
    memory.flush()
    assert memory.device_bytes > 0


def test_store_overwrite_returns_latest():
    memory = HybridMemory(ram_bytes=8, block_size=16)
    memory.store("a", b"v1v1v1v1")
    memory.store("b", b"v2v2v2v2")
    memory.store("a", b"v3v3v3v3")
    assert memory.load("a") == b"v3v3v3v3"


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


def test_keys_lists_cached_and_spilled():
    memory = HybridMemory(ram_bytes=8, block_size=16)
    memory.store("a", b"12345678")
    memory.store("b", b"12345678")
    assert set(memory.keys()) == {"a", "b"}


def test_zero_ram_budget_routes_everything_through_device():
    """ram_bytes=0: every store persists immediately, every load reads disk."""
    memory = HybridMemory(ram_bytes=0, block_size=16)
    memory.store("a", b"A" * 40)
    assert memory.stats.block_writes == 3  # ceil(40 / 16)
    assert memory.load("a") == b"A" * 40
    assert memory.stats.block_reads == 3
    # Nothing is ever cached, so a repeat load pays the reads again.
    assert memory.load("a") == b"A" * 40
    assert memory.stats.block_reads == 6
    assert memory.cached_bytes == 0


def test_dirty_eviction_write_back_ordering():
    """LRU evictions persist dirty payloads oldest-first, and only once."""
    writes = []
    memory = HybridMemory(ram_bytes=32, block_size=16)
    original_persist = memory._persist

    def recording_persist(key, payload):
        writes.append(key)
        original_persist(key, payload)

    memory._persist = recording_persist
    memory.store("a", b"A" * 16)
    memory.store("b", b"B" * 16)
    assert writes == []           # both fit: nothing written back yet
    memory.store("c", b"C" * 16)  # budget is 2 payloads: evicts "a"
    memory.store("d", b"D" * 16)  # evicts "b"
    assert writes == ["a", "b"]   # write-back follows LRU order
    memory.flush()                # persists the remaining dirty entries
    assert writes == ["a", "b", "c", "d"]
    memory.flush()                # clean entries are not re-written
    assert writes == ["a", "b", "c", "d"]
    assert memory.load("a") == b"A" * 16


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


def test_load_range_slices_cached_payload_without_io():
    memory = HybridMemory(ram_bytes=1024, block_size=16)
    memory.store("k", bytes(range(64)))
    reads_before = memory.stats.block_reads
    assert memory.load_range("k", 10, 5) == bytes(range(10, 15))
    assert memory.stats.block_reads == reads_before
    assert memory.stats.cache_hits >= 1


def test_load_range_reads_only_straddled_blocks():
    memory = HybridMemory(ram_bytes=0, block_size=16)
    payload = bytes(range(64))  # 4 blocks, never cached (zero budget)
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


def test_load_range_does_not_populate_cache():
    """A partial read must never shadow the full payload."""
    memory = HybridMemory(ram_bytes=64, block_size=16)
    memory.store("a", b"A" * 48)
    memory.store("b", b"B" * 48)  # evicts "a" (written back dirty)
    assert memory.load_range("a", 0, 8) == b"A" * 8
    assert memory.load("a") == b"A" * 48


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


def test_cache_eviction_keeps_payload_when_write_back_raises():
    """A raising eviction callback must not lose the evicted payload."""
    calls = []

    def failing_write_back(key, payload):
        calls.append(key)
        raise OSError("device full")

    cache = LRUCache(32, on_evict=failing_write_back)
    cache.put("a", b"A" * 24)
    with pytest.raises(OSError):
        cache.put("b", b"B" * 24)
    assert calls == ["a"]
    # "a" was reinserted at the MRU end; nothing was lost.
    assert "a" in cache and cache.get("a") == b"A" * 24


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


def test_cached_payload_boundary_block_corruption_detected():
    """Flip a bit in the partial tail block of a spilled-but-cached payload."""
    from repro.exceptions import CorruptionError

    memory = HybridMemory(ram_bytes=256, block_size=16)
    payload = bytes(range(16 * 2 + 5))  # tail block holds 5 live bytes
    memory.store("k", payload)
    memory.flush()  # device copy persisted; cache still holds "k"
    _rot_device_block(memory, "k", block_offset=2, bit=3)
    # The cached copy is clean, so plain loads still serve good bytes...
    assert memory.load("k") == payload
    # ...but verification reads the device copy underneath and flags it.
    with pytest.raises(CorruptionError):
        memory.verify_key("k")
    assert memory.scrub() == ["k"]
    assert memory.stats.checksum_failures >= 1


def test_load_range_straddling_corrupt_block_detected():
    from repro.exceptions import CorruptionError

    memory = HybridMemory(ram_bytes=0, block_size=16)
    payload = bytes(range(64))  # blocks 0..3, never cached (zero budget)
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
    memory.flush()
    assert memory.scrub() == []
    assert memory.stats.checksum_failures == 0
    assert memory.stats.blocks_scrubbed > 0


def test_verify_key_skips_stale_spilled_payload_of_dirty_key():
    """A dirty cached payload makes the spilled copy stale but consistent:
    block digests still verify, the (old) payload digest must not be
    compared against the (new) recorded one."""
    memory = HybridMemory(ram_bytes=256, block_size=16)
    memory.store("k", b"old-payload-old-payload!")
    memory.flush()
    memory.store("k", b"NEW-payload-NEW-payload!")  # dirty over stale spill
    assert memory.verify_key("k") > 0  # no CorruptionError
    assert memory.stats.checksum_failures == 0


def test_load_after_oversize_restore_returns_the_new_bytes():
    """Regression: re-storing a key with a payload larger than the RAM
    tier used to leave the old cached copy answering every load."""
    memory = HybridMemory(ram_bytes=100, block_size=16)
    memory.store("k", b"a" * 50)
    memory.store("k", b"b" * 200)
    assert memory.load("k") == b"b" * 200
    assert memory.load_range("k", 190, 20) == b"b" * 10
    # The oversize payload went straight to the device: nothing cached,
    # nothing dirty, one allocation of exactly its size on record.
    assert memory.cached_bytes == 0 and "k" not in memory._dirty
    assert memory._allocations["k"][2] == 200
    assert memory.scrub() == [] and memory.stats.checksum_failures == 0
    memory.store("k", b"c" * 30)  # and back to a cacheable size
    assert memory.load("k") == b"c" * 30 and memory.cached_bytes == 30


def test_scrub_does_not_touch_cache_counters_or_lru_order():
    memory = HybridMemory(ram_bytes=64, block_size=16)
    for key in ("a", "b", "c"):
        memory.store(key, key.encode() * 30)
    memory.load("a")  # cached: "c" (LRU) then "a"; "b" is spilled
    order = [key for key, _ in memory._cache.items()]
    assert order == ["c", "a"]
    hits, misses = memory.stats.cache_hits, memory.stats.cache_misses
    assert memory.scrub() == []
    assert (memory.stats.cache_hits, memory.stats.cache_misses) == (hits, misses)
    assert [key for key, _ in memory._cache.items()] == order
