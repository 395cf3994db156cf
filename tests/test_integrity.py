"""Tests for the integrity plane: digests, detection, scrub, read-repair."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import CorruptionError, RecoveryError
from repro.integrity.digest import (
    DIGEST_SEED,
    StreamingDigest,
    block_digests,
    payload_digest,
)
from repro.integrity.repair import RepairReport, find_valid_checkpoint, scrub_and_repair
from repro.kernels import native_kernels, native_unavailable_reason
from repro.memory.block_device import BlockDevice
from repro.memory.hybrid import HybridMemory
from repro.observability.metrics import default_registry
from repro.resilience.checkpoint import CheckpointPolicy, recover_latest
from repro.resilience.faults import FaultPlan, FaultSpec

NUM_NODES = 40

NATIVE = native_kernels()
#: The digest providers: the numpy reference and, when one is usable,
#: the native kernels (skipped like ``tests/test_native_kernels.py``).
PROVIDERS = [
    pytest.param(None, id="numpy"),
    pytest.param(
        NATIVE,
        id="native",
        marks=pytest.mark.skipif(
            NATIVE is None,
            reason=f"no native kernel provider usable ({native_unavailable_reason()})",
        ),
    ),
]


def _blocks_digested() -> int:
    return default_registry().counter("integrity.blocks_digested").value


def _random_edges(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, NUM_NODES, size=(count, 2))
    return edges[edges[:, 0] != edges[:, 1]]


def _paged_config(**overrides) -> GraphZeppelinConfig:
    settings = dict(ram_budget_bytes=1 << 14, validate_stream=False)
    settings.update(overrides)
    return GraphZeppelinConfig(**settings)


def _settle(engine) -> None:
    """Flush buffers and sync pages: the device is authoritative."""
    engine.flush()
    if engine.tensor_pool is not None and engine.tensor_pool.is_paged:
        engine.tensor_pool.sync()


def _flip_spilled_bit(engine, rng) -> int:
    """Flip one seeded bit in a random allocated device block; return the page."""
    memory = engine.memory
    keys = [k for k in memory._allocations if isinstance(k, tuple) and k[0] == "sketch-page"]
    key = keys[int(rng.integers(0, len(keys)))]
    start, num_blocks, length = memory._allocations[key]
    block = start + int(rng.integers(0, max(1, -(-length // memory.block_size))))
    raw = bytearray(memory.device._blocks[block])
    bit = int(rng.integers(0, len(raw) * 8))
    raw[bit >> 3] ^= 1 << (bit & 7)
    memory.device._blocks[block] = bytes(raw)
    return int(key[1])


def _pools_equal(a, b) -> bool:
    if a.is_paged and b.is_paged:
        assert a.num_pages == b.num_pages
        for page in range(a.num_pages):
            ta, tb = a._pin(page), b._pin(page)
            a._unpin(page), b._unpin(page)
            if not all((x == y).all() for x, y in zip(ta, tb)):
                return False
        return True
    return all((x == y).all() for x, y in zip(a._planes, b._planes))


# ----------------------------------------------------------------------
# digest kernels
# ----------------------------------------------------------------------
def test_payload_digest_deterministic_and_content_sensitive():
    data = os.urandom(4096)
    assert payload_digest(data) == payload_digest(data)
    flipped = bytearray(data)
    flipped[1234] ^= 1
    assert payload_digest(bytes(flipped)) != payload_digest(data)


def test_payload_digest_length_and_position_sensitive():
    # Appending zeros changes the digest (length is folded in) ...
    assert payload_digest(b"abc") != payload_digest(b"abc\0\0")
    # ... and swapping two words changes it (positions are diffused in).
    words = os.urandom(8) + os.urandom(8)
    swapped = words[8:] + words[:8]
    assert payload_digest(words) != payload_digest(swapped)


def test_payload_digest_seed_and_empty():
    data = os.urandom(64)
    assert payload_digest(data, seed=DIGEST_SEED) != payload_digest(data, seed=7)
    assert payload_digest(b"") == payload_digest(b"")
    assert payload_digest(b"") != payload_digest(b"\0")


@pytest.mark.parametrize("chunk", [1, 3, 7, 8, 13, 64, 1000])
def test_streaming_digest_matches_one_shot(chunk):
    data = os.urandom(3001)
    digest = StreamingDigest()
    for start in range(0, len(data), chunk):
        digest.update(data[start : start + chunk])
    assert digest.digest() == payload_digest(data)


def test_block_digests_match_per_block_digests():
    data = os.urandom(16 * 7 + 5)  # seven full blocks plus a tail
    digests = block_digests(data, 16)
    assert len(digests) == 8
    for index in range(8):
        block = data[index * 16 : (index + 1) * 16]
        assert digests[index] == payload_digest(block)


@pytest.mark.parametrize("kernels", PROVIDERS)
@settings(max_examples=120, deadline=None)
@given(
    block_size=st.sampled_from([8, 13, 16, 64]),  # 13: blocks off the word grid
    length_case=st.integers(0, 8),
    seed=st.one_of(st.sampled_from([0, 7, DIGEST_SEED]), st.integers(0, 2**64 - 1)),
    chunk=st.integers(1, 40),
    data=st.data(),
)
def test_digest_format_is_one_function(kernels, block_size, length_case, seed, chunk, data):
    """Digests are an on-disk format: every way of computing them agrees.

    provider ``block_digests`` == numpy ``block_digests`` == per-block
    ``payload_digest`` == ``StreamingDigest`` fed in arbitrary chunks.
    """
    B = block_size
    length = (0, 1, 7, 8, 9, B - 1, B, B + 1, 3 * B + 5)[length_case]
    payload = data.draw(st.binary(min_size=length, max_size=length))
    reference = block_digests(payload, B, seed)
    assert block_digests(payload, B, seed, kernels=kernels) == reference
    blocks = [payload[i : i + B] for i in range(0, max(length, 1), B)]
    assert [payload_digest(block, seed, kernels=kernels) for block in blocks] == reference
    for block, expected in zip(blocks, reference):
        streamed = StreamingDigest(seed)
        for start in range(0, len(block), chunk):
            streamed.update(block[start : start + chunk])
        assert streamed.digest() == expected


@pytest.mark.parametrize("kernels", PROVIDERS)
def test_golden_digests_recorded_at_the_parent_commit(kernels):
    """Values computed by the code before the native digest kernel existed."""
    long = bytes(range(256)) * 65 + b"tail"
    assert payload_digest(long, kernels=kernels) == 0x5752346DBF09FF86
    assert block_digests(long, 16384, kernels=kernels) == [
        0xF01223E076466150, 0x475C2DE736F1DB1C,
    ]
    short = b"GraphZeppelin"
    assert payload_digest(short, seed=7, kernels=kernels) == 0xF33A2D552B874CA9
    assert block_digests(short, 5, seed=7, kernels=kernels) == [
        0xF9B3073F714F98E7, 0x3813B05D6770369B, 0xBB215477C19EF827,
    ]
    assert payload_digest(b"", kernels=kernels) == 0xADD60C7865CBCEC5


# ----------------------------------------------------------------------
# fault specs
# ----------------------------------------------------------------------
def test_block_and_snapshot_corrupt_spec_validation():
    FaultSpec(site="block", mode="corrupt", at=3, offset=99)
    FaultSpec(site="snapshot", mode="corrupt", at=1, offset=12)
    with pytest.raises(ValueError):
        FaultSpec(site="block", mode="raise")
    with pytest.raises(ValueError):
        FaultSpec(site="device.read", mode="corrupt")


def test_corrupt_block_write_flips_exact_bit():
    plan = FaultPlan([FaultSpec(site="block", mode="corrupt", at=2, offset=11)])
    clean = bytes(range(16))
    assert plan.corrupt_block_write(clean) == clean  # write #1 untouched
    rotten = plan.corrupt_block_write(clean)  # write #2 hit
    assert rotten != clean
    delta = [i for i in range(16) if rotten[i] != clean[i]]
    assert delta == [11 // 8]
    assert rotten[1] == clean[1] ^ (1 << (11 & 7))
    assert plan.corrupt_block_write(clean) == clean  # write #3 untouched


def test_random_plan_generates_corruption_specs_and_pickles_reset():
    import pickle

    plan = FaultPlan.random(seed=5, block_corruptions=2, snapshot_corruptions=1)
    sites = sorted(fault.site for fault in plan.faults)
    assert sites == ["block", "block", "snapshot"]
    assert all(f.mode == "corrupt" for f in plan.faults)
    plan.corrupt_block_write(b"x" * 8)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone._block_writes == 0
    assert clone.faults == plan.faults


# ----------------------------------------------------------------------
# detection: injected block corruption surfaces as a typed error
# ----------------------------------------------------------------------
def test_injected_block_corruption_detected_by_scrub():
    engine = GraphZeppelin(NUM_NODES, config=_paged_config())
    engine.memory.fault_plan = FaultPlan(
        [FaultSpec(site="block", mode="corrupt", at=3, offset=777)]
    )
    engine.ingest_batch(_random_edges(300, seed=3))
    _settle(engine)
    engine.memory.fault_plan = None
    corrupt = engine.scrub_storage()
    assert corrupt, "injected block bit-flip went undetected"
    assert engine.memory.stats.checksum_failures >= 1


def test_corruption_error_is_not_retried():
    """CorruptionError is deterministic: the retry policy must not retry it."""
    from repro.memory.hybrid import HybridMemory, RetryPolicy

    memory = HybridMemory(
        ram_bytes=0, block_size=16, retry=RetryPolicy(attempts=5, backoff_seconds=0.0)
    )
    memory.store("k", b"0123456789abcdef")
    raw = bytearray(memory.device._blocks[memory._allocations["k"][0]])
    raw[0] ^= 0x01
    memory.device._blocks[memory._allocations["k"][0]] = bytes(raw)
    with pytest.raises(CorruptionError):
        memory.load("k")
    assert memory.stats.checksum_failures == 1
    assert memory.stats.io_retries == 0


def test_unchecked_memory_does_not_verify():
    """verify_checksums=False: no detection, no cost."""
    from repro.memory.hybrid import HybridMemory

    memory = HybridMemory(ram_bytes=0, block_size=16, verify_checksums=False)
    memory.store("k", b"0123456789abcdef")
    raw = bytearray(memory.device._blocks[memory._allocations["k"][0]])
    raw[0] ^= 0x01
    memory.device._blocks[memory._allocations["k"][0]] = bytes(raw)
    assert memory.load("k") != b"0123456789abcdef"  # rot passes through
    assert memory.stats.checksum_failures == 0
    assert memory.scrub() == []


def test_unchecked_engine_is_bit_identical_to_checked():
    """Verification never perturbs state: the same spilled pages and the
    same forest with the digests on (default) or off."""
    edges = _random_edges(600, seed=35)
    checked = GraphZeppelin(NUM_NODES, config=_paged_config())
    unchecked = GraphZeppelin(
        NUM_NODES,
        config=_paged_config(),
        memory=HybridMemory(ram_bytes=1 << 14, verify_checksums=False),
    )
    for engine in (checked, unchecked):
        engine.ingest_batch(edges)
        _settle(engine)
    assert checked.memory.stats.block_writes > 0  # pages really went to the device
    assert _pools_equal(checked.tensor_pool, unchecked.tensor_pool)
    assert (
        checked.list_spanning_forest().partition_signature()
        == unchecked.list_spanning_forest().partition_signature()
    )


# ----------------------------------------------------------------------
# range-verified reads: one hash per page-in, and no check lost with it
# ----------------------------------------------------------------------
def _spill(kernels, payload: bytes, rotten_write=None, **settings) -> HybridMemory:
    """Store ``payload`` under "k" on a 16-byte-block device with no RAM
    tier; ``rotten_write`` flips one bit of that block write after its
    digest was taken."""
    plan = None
    if rotten_write is not None:
        plan = FaultPlan([FaultSpec(site="block", mode="corrupt", at=rotten_write, offset=37)])
    memory = HybridMemory(ram_bytes=0, block_size=16, fault_plan=plan, kernels=kernels, **settings)
    memory.store("k", payload)
    return memory


@pytest.mark.parametrize("kernels", PROVIDERS)
@pytest.mark.parametrize("k", range(4))
def test_bit_flip_in_any_block_is_named_counted_and_never_cached(kernels, k):
    payload = os.urandom(4 * 16 - 3)
    memory = _spill(kernels, payload, rotten_write=k + 1)
    block = memory._allocations["k"][0] + k
    with pytest.raises(CorruptionError, match=rf"block {block} failed"):
        memory.load("k")
    assert memory.stats.checksum_failures == 1
    # A straddling partial read crosses the clean neighbours and block k.
    with pytest.raises(CorruptionError, match=rf"block {block} failed"):
        memory.load_range("k", max(16 * k - 2, 0), 20)
    assert memory.stats.checksum_failures == 2
    assert memory.cached_bytes + memory.reserved_bytes == 0
    assert memory.scrub() == ["k"]


@pytest.mark.parametrize("kernels", PROVIDERS)
def test_tampered_payload_record_fails_although_every_block_verifies(kernels):
    payload = os.urandom(50)
    memory = _spill(kernels, payload)
    start = memory._allocations["k"][0]
    blob = bytearray(4 * 16)
    total, _ = memory.device.read_into(start, 4, blob)  # device-level checks pass
    assert bytes(blob[:total]) == payload
    memory._payload_digests["k"][2] ^= 1
    with pytest.raises(CorruptionError, match="payload for key 'k'"):
        memory.load("k")
    assert memory.stats.checksum_failures == 1
    assert memory.cached_bytes + memory.reserved_bytes == 0
    assert memory.scrub() == ["k"]


@pytest.mark.parametrize("kernels", PROVIDERS)
def test_short_non_final_block_is_verified_block_by_block(kernels):
    device = BlockDevice(block_size=16, kernels=kernels)
    parts = [b"a" * 16, b"b" * 5, b"c" * 16, b""]
    for block_id, part in enumerate(parts):
        device.write_blob(block_id, part)
    blob = bytearray(4 * 16)
    total, digests = device.read_into(0, 4, blob)
    assert bytes(blob[:total]) == b"".join(parts)
    assert digests == [payload_digest(part) for part in parts]
    device._blocks[2] = b"c" * 15 + b"d"
    with pytest.raises(CorruptionError, match="block 2 failed"):
        device.read_into(0, 4, blob)
    assert device.stats.checksum_failures == 1
    assert device.read_into(0, 2, blob)[0] == 21 and bytes(blob[:21]) == b"a" * 16 + b"b" * 5


def test_unchecked_memory_digests_nothing():
    memory = HybridMemory(ram_bytes=0, block_size=16, verify_checksums=False)
    before = _blocks_digested()
    memory.store("k", os.urandom(70))
    assert len(memory.load("k")) == 70 and len(memory.load_range("k", 10, 30)) == 30
    assert memory.scrub() == []
    assert _blocks_digested() == before


@pytest.mark.parametrize("kernels", PROVIDERS)
def test_page_in_hashes_every_block_exactly_once(kernels):
    """The tentpole, pinned: n blocks in, n blocks digested -- not 2n."""
    n = 5
    before = _blocks_digested()
    memory = _spill(kernels, os.urandom(n * 16 - 3))
    assert _blocks_digested() - before == n  # store: hashed once, written with those digests
    before = _blocks_digested()
    memory.load("k")
    assert _blocks_digested() - before == n
    before = _blocks_digested()
    memory.load_range("k", 20, 20)  # blocks 1-2
    assert _blocks_digested() - before == 2
    before = _blocks_digested()
    assert memory.verify_key("k") == n
    assert _blocks_digested() - before == n


@pytest.mark.parametrize("writer, reader", [(None, NATIVE), (NATIVE, None)])
@pytest.mark.skipif(NATIVE is None, reason="no native kernel provider usable")
def test_device_records_written_by_one_provider_verify_under_the_other(writer, reader):
    payload = os.urandom(16 * 6 + 11)
    memory = _spill(writer, payload)
    memory.kernels = reader
    assert memory.load("k") == payload
    assert memory.load_range("k", 30, 40) == payload[30:70]
    assert memory.scrub() == [] and memory.stats.checksum_failures == 0


@pytest.mark.skipif(NATIVE is None, reason="no native kernel provider usable")
def test_numpy_written_snapshot_and_checkpoint_load_under_native_digests(tmp_path):
    """State written by the numpy digest path (the only one the parent
    commit had) loads, pages in and scrubs clean under the native one."""
    writer = GraphZeppelin(NUM_NODES, config=_paged_config())
    checkpointer = writer.attach_checkpointer(
        tmp_path / "ck", policy=CheckpointPolicy(every_n_updates=100, keep=2)
    )
    edges = _random_edges(300, seed=23)
    for start in range(0, edges.shape[0], 100):
        writer.ingest_batch(edges[start : start + 100])
    assert checkpointer.checkpoints_written >= 1
    writer.save_snapshot(tmp_path / "a.snap")

    native = _paged_config(kernel_backend="native")
    loaded = GraphZeppelin.load_snapshot(tmp_path / "a.snap", config=native)
    assert loaded.memory.kernels is NATIVE
    assert _pools_equal(loaded.tensor_pool, writer.tensor_pool)
    _settle(loaded)
    assert loaded.scrub_storage() == []
    recovered, _, skipped = recover_latest(tmp_path / "ck", config=native)
    assert skipped == [] and recovered.memory.kernels is NATIVE
    _settle(recovered)
    assert recovered.scrub_storage() == []
    assert recovered.memory.stats.checksum_failures == 0


# ----------------------------------------------------------------------
# snapshot format v2
# ----------------------------------------------------------------------
@pytest.fixture
def flat_engine():
    engine = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(validate_stream=False))
    engine.ingest_batch(_random_edges(250, seed=9))
    return engine


def test_snapshot_v2_records_and_verifies_stripe_digests(tmp_path, flat_engine):
    from repro.distributed.snapshot import read_snapshot_meta, verify_snapshot_payload

    path = tmp_path / "a.snap"
    written = flat_engine.save_snapshot(path)
    assert written.version == 2 and written.verified
    meta = read_snapshot_meta(path)
    assert meta.stripe_digests == written.stripe_digests
    assert len(meta.stripe_digests) == meta.geometry.rounds * (1 if meta.geometry.packed else 2)
    assert verify_snapshot_payload(path).verified


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_snapshot_payload_bit_flip_rejected_without_mutation(tmp_path, flat_engine, seed):
    from repro.distributed.snapshot import _HEADER, load_snapshot_into

    path = tmp_path / "a.snap"
    meta = flat_engine.save_snapshot(path)
    rng = np.random.default_rng(seed)
    raw = bytearray(path.read_bytes())
    bit = int(rng.integers(0, meta.payload_bytes * 8))
    raw[_HEADER.size + (bit >> 3)] ^= 1 << (bit & 7)
    path.write_bytes(bytes(raw))
    target = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(validate_stream=False))
    with pytest.raises(CorruptionError, match="payload checksum mismatch"):
        load_snapshot_into(path, target.tensor_pool)
    tensors = target.tensor_pool._planes
    assert all(not t.any() for t in tensors), "corrupt load mutated the pool"


def test_flat_and_paged_snapshots_share_stripe_digests(tmp_path):
    """Both writers emit the exact round-major byte stream, digests included."""
    edges = _random_edges(300, seed=17)
    flat = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(validate_stream=False))
    paged = GraphZeppelin(NUM_NODES, config=_paged_config())
    flat.ingest_batch(edges)
    paged.ingest_batch(edges)
    meta_flat = flat.save_snapshot(tmp_path / "flat.snap")
    meta_paged = paged.save_snapshot(tmp_path / "paged.snap")
    assert meta_flat.stripe_digests == meta_paged.stripe_digests


def test_v1_snapshot_loads_unverified_and_bit_identical(tmp_path, flat_engine):
    from repro.distributed.snapshot import (
        SNAPSHOT_MAGIC_V1,
        _HEADER,
        load_pool_snapshot,
        read_snapshot_meta,
        verify_snapshot_payload,
    )

    path = tmp_path / "v2.snap"
    meta2 = flat_engine.save_snapshot(path)
    v1 = tmp_path / "v1.snap"
    raw = bytearray(path.read_bytes())
    raw[:8] = struct.pack("<Q", SNAPSHOT_MAGIC_V1)
    v1.write_bytes(bytes(raw[: _HEADER.size + meta2.payload_bytes]))

    meta1 = read_snapshot_meta(v1)
    assert meta1.version == 1 and not meta1.verified
    assert meta1.stripe_digests is None and meta1.digest_section_bytes == 0
    assert not verify_snapshot_payload(v1).verified  # passes through
    pool, _ = load_pool_snapshot(v1)
    assert _pools_equal(pool, flat_engine.tensor_pool)


def test_recover_latest_reports_checksum_mismatch_distinctly(tmp_path):
    from repro.distributed.snapshot import _HEADER

    engine = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(validate_stream=False))
    checkpointer = engine.attach_checkpointer(
        tmp_path, policy=CheckpointPolicy(every_n_updates=100, keep=3)
    )
    edges = _random_edges(300, seed=21)
    for start in range(0, edges.shape[0], 100):
        engine.ingest_batch(edges[start : start + 100])
    assert checkpointer.checkpoints_written >= 2
    newest = sorted(tmp_path.glob("ckpt-*.snap"))[-1]
    raw = bytearray(newest.read_bytes())
    raw[_HEADER.size + 4321] ^= 0x20
    newest.write_bytes(bytes(raw))

    recovered, path, skipped = recover_latest(tmp_path)
    assert path != newest
    assert (newest, "payload checksum mismatch") in skipped
    assert recovered.updates_processed < engine.updates_processed


# ----------------------------------------------------------------------
# scrub & read-repair
# ----------------------------------------------------------------------
def test_scrub_clean_runs_have_zero_false_positives():
    engine = GraphZeppelin(NUM_NODES, config=_paged_config())
    edges = _random_edges(600, seed=33)
    for start in range(0, edges.shape[0], 150):
        engine.ingest_batch(edges[start : start + 150])
        assert engine.scrub_storage() == []
    assert engine.memory.stats.checksum_failures == 0
    assert engine.memory.stats.blocks_scrubbed > 0
    # fully in-RAM engines have nothing to scrub
    ram = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(validate_stream=False))
    ram.ingest_batch(edges)
    assert ram.scrub_storage() == []


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_scrub_and_repair_is_bit_identical_to_fault_free(tmp_path, seed):
    edges = _random_edges(600, seed=seed)
    reference = GraphZeppelin(NUM_NODES, config=_paged_config())
    reference.ingest_batch(edges)
    _settle(reference)

    engine = GraphZeppelin(NUM_NODES, config=_paged_config())
    engine.attach_checkpointer(
        tmp_path / "ck", policy=CheckpointPolicy(every_n_updates=200, keep=3)
    )
    engine.ingest_batch(edges)
    _settle(engine)
    rng = np.random.default_rng(seed)
    page = _flip_spilled_bit(engine, rng)

    report = scrub_and_repair(engine, tmp_path / "ck", edges)
    assert isinstance(report, RepairReport) and not report.clean
    assert page in report.corrupt_pages
    assert report.repaired_pages == report.corrupt_pages
    assert engine.memory.stats.pages_repaired == len(report.repaired_pages)
    assert engine.scrub_storage() == []
    assert _pools_equal(engine.tensor_pool, reference.tensor_pool)
    assert engine.tensor_pool.updates_applied == reference.tensor_pool.updates_applied
    assert (
        engine.list_spanning_forest().partition_signature()
        == reference.list_spanning_forest().partition_signature()
    )


def test_scrub_and_repair_clean_pass_is_a_no_op(tmp_path):
    engine = GraphZeppelin(NUM_NODES, config=_paged_config())
    engine.ingest_batch(_random_edges(200, seed=5))
    report = scrub_and_repair(engine, tmp_path, None)
    assert report.clean and report.checkpoint_path is None
    assert engine.memory.stats.pages_repaired == 0


def test_repair_without_usable_checkpoint_raises(tmp_path):
    engine = GraphZeppelin(NUM_NODES, config=_paged_config())
    engine.ingest_batch(_random_edges(200, seed=5))
    _settle(engine)
    _flip_spilled_bit(engine, np.random.default_rng(0))
    with pytest.raises(RecoveryError, match="no valid repair checkpoint"):
        scrub_and_repair(engine, tmp_path / "empty", _random_edges(200, seed=5))


def test_find_valid_checkpoint_skips_corrupt_generation(tmp_path):
    from repro.distributed.snapshot import _HEADER

    engine = GraphZeppelin(NUM_NODES, config=_paged_config())
    engine.attach_checkpointer(
        tmp_path, policy=CheckpointPolicy(every_n_updates=150, keep=4)
    )
    edges = _random_edges(500, seed=13)
    for start in range(0, edges.shape[0], 150):
        engine.ingest_batch(edges[start : start + 150])
    generations = sorted(tmp_path.glob("ckpt-*.snap"))
    assert len(generations) >= 2
    newest = generations[-1]
    raw = bytearray(newest.read_bytes())
    raw[_HEADER.size + 99] ^= 0x08
    newest.write_bytes(bytes(raw))
    path, meta, skipped = find_valid_checkpoint(engine, tmp_path)
    assert path != newest
    assert (str(newest), "payload checksum mismatch") in skipped
    assert meta.stream_offset <= engine.updates_processed


def test_checkpointer_counts_rotation_failures(tmp_path, monkeypatch):
    from pathlib import Path

    engine = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(validate_stream=False))
    checkpointer = engine.attach_checkpointer(
        tmp_path, policy=CheckpointPolicy(every_n_updates=100, keep=1)
    )
    real_unlink = Path.unlink

    def refusing_unlink(self, missing_ok=False):
        if self.name.startswith("ckpt-"):
            raise OSError("unlink refused")
        return real_unlink(self, missing_ok=missing_ok)

    monkeypatch.setattr(Path, "unlink", refusing_unlink)
    edges = _random_edges(350, seed=2)
    for start in range(0, edges.shape[0], 100):
        engine.ingest_batch(edges[start : start + 100])
    assert checkpointer.checkpoints_written >= 2
    assert checkpointer.rotation_failures >= 1
    assert checkpointer.checkpoint_failures == 0


# ----------------------------------------------------------------------
# distributed: worker snapshot corruption self-heals
# ----------------------------------------------------------------------
def test_worker_snapshot_corruption_self_heals_bit_identically():
    from repro.distributed.multi_ingestor import distributed_ingest

    edges = _random_edges(300, seed=3)
    config = GraphZeppelinConfig(validate_stream=False)
    reference, _ = distributed_ingest(edges, NUM_NODES, config=config, num_ingestors=2)
    plan = FaultPlan(
        [FaultSpec(site="snapshot", mode="corrupt", at=1, offset=999, worker=1, attempt=0)]
    )
    engine, report = distributed_ingest(
        edges, NUM_NODES, config=config, num_ingestors=2, fault_plan=plan
    )
    assert report.worker_attempts == [1, 2]
    assert report.worker_retries == 1
    assert _pools_equal(engine.tensor_pool, reference.tensor_pool)


# ----------------------------------------------------------------------
# CLI: scrub subcommand, --scrub-every, --report
# ----------------------------------------------------------------------
@pytest.fixture
def stream_file(tmp_path):
    from repro.cli import main

    path = tmp_path / "small.stream"
    assert main(
        ["generate", "p2p-gnutella", str(path), "--scale-reduction", "9", "--seed", "4"]
    ) == 0
    return path


def test_cli_scrub_snapshot_ok_and_corrupt(tmp_path, stream_file, capsys):
    from repro.cli import main
    from repro.distributed.snapshot import _HEADER

    snap = tmp_path / "a.snap"
    assert main(["snapshot", str(stream_file), str(snap)]) == 0
    capsys.readouterr()
    assert main(["scrub", str(snap)]) == 0
    assert "ok" in capsys.readouterr().out
    raw = bytearray(snap.read_bytes())
    raw[_HEADER.size + 7] ^= 0x04
    snap.write_bytes(bytes(raw))
    assert main(["scrub", str(snap)]) == 1
    assert "CORRUPT" in capsys.readouterr().out


def test_cli_scrub_checkpoint_directory(tmp_path, stream_file, capsys):
    from repro.cli import main

    ckdir = tmp_path / "ck"
    assert main(
        [
            "components", str(stream_file),
            "--checkpoint-dir", str(ckdir), "--checkpoint-every", "150",
        ]
    ) == 0
    capsys.readouterr()
    assert main(["scrub", str(ckdir)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "ckpt-" in out
    assert main(["scrub", str(tmp_path / "missing")]) == 1


def test_cli_components_scrub_every_and_report(stream_file, capsys):
    from repro.cli import main

    assert main(
        [
            "components", str(stream_file),
            "--ram-budget-mib", "0.05", "--scrub-every", "400", "--report",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "scrubbed every 400 updates" in out
    assert "integrity        : 0 checksum failures" in out
    assert "io failures" in out


def test_cli_report_shows_blocks_digested(stream_file, capsys):
    import re

    from repro.cli import main

    assert main(["components", str(stream_file), "--ram-budget-mib", "0.05", "--report"]) == 0
    match = re.search(r"integrity +: .* (\d+) blocks digested", capsys.readouterr().out)
    assert match is not None and int(match.group(1)) > 0


def test_cli_resume_report_and_v1_note(tmp_path, stream_file, capsys):
    from repro.cli import main
    from repro.distributed.snapshot import (
        SNAPSHOT_MAGIC_V1,
        _HEADER,
        read_snapshot_meta,
    )

    snap = tmp_path / "half.snap"
    assert main(["snapshot", str(stream_file), str(snap), "--up-to", "500"]) == 0
    capsys.readouterr()
    assert main(["resume", str(snap), str(stream_file), "--report"]) == 0
    out = capsys.readouterr().out
    assert "io report        : engine is fully in RAM" in out
    assert "pre-digest" not in out

    meta = read_snapshot_meta(snap)
    raw = bytearray(snap.read_bytes())
    raw[:8] = struct.pack("<Q", SNAPSHOT_MAGIC_V1)
    snap.write_bytes(bytes(raw[: _HEADER.size + meta.payload_bytes]))
    assert main(["resume", str(snap), str(stream_file)]) == 0
    assert "pre-digest" in capsys.readouterr().out


def test_cli_scrub_every_rejects_parallel_ingest(stream_file, capsys):
    from repro.cli import main

    assert main(
        ["components", str(stream_file), "--scrub-every", "100", "--workers", "2"]
    ) == 1
    assert "serial ingest" in capsys.readouterr().out
