"""The block device contract, on the file device and on the dict double.

:class:`~repro.memory.block_device.FileBlockDevice` keeps blocks in a
scratch file and the test double in a dict; everything a caller can see
-- bytes, short blocks, refusals, TRIM, the in-use counters, digests and
bit rot, scrub and read-repair, per-run retry -- must be the same.  The
``device`` fixture makes every ``HybridMemory`` of a case build the
device under test.  Two behaviours only the file has close the module:
a deep copy gets a file of its own, and a forked process cannot write
its parent's file.
"""

from __future__ import annotations

import copy
import copyreg
import multiprocessing
import os
import tempfile
import threading

import numpy as np
import pytest

from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import CorruptionError, StorageError
from repro.integrity.repair import scrub_and_repair
from repro.memory.block_device import FileBlockDevice
from repro.memory.hybrid import HybridMemory, RetryPolicy
from repro.resilience.checkpoint import CheckpointPolicy
from repro.resilience.faults import FaultPlan, FaultSpec
from dict_device import rot_stored_block, stored_block, stored_blocks

NUM_NODES = 40


def _device(block_size):
    return HybridMemory.device_type(block_size=block_size)


def _edges(count, seed):
    edges = np.random.default_rng(seed).integers(0, NUM_NODES, size=(count, 2))
    return edges[edges[:, 0] != edges[:, 1]]


def _paged_engine():
    return GraphZeppelin(
        NUM_NODES,
        GraphZeppelinConfig(ram_budget_bytes=1 << 14, nodes_per_page=8, validate_stream=False),
    )


def _settled(engine):
    engine.flush()
    engine.tensor_pool.sync()
    return engine


def _round_trip():
    device = _device(8)
    payload = bytes(range(30))
    assert device.write_blob(5, payload) == 4
    out = bytearray(32)
    total, digests = device.read_into(5, 4, out)
    assert (total, bytes(out[:total])) == (30, payload)
    assert digests == device.block_digests(payload)
    stats = device.stats
    assert (stats.block_writes, stats.bytes_written, stats.block_reads, stats.bytes_read) == (
        4, 30, 4, 30,
    )
    # Each run: its first block random (the read does not follow block
    # 8), the other three sequential.
    assert (stats.random_accesses, stats.sequential_accesses) == (2, 6)


def _short_last_block():
    device = _device(16)
    assert device.write_blob(0, b"a" * 20) == 2
    assert device.write_blob(2, b"") == 1  # an empty blob still takes a block
    out = bytearray(48)
    assert device.read_into(0, 3, out)[0] == 20 and bytes(out[:20]) == b"a" * 20
    assert device.write_blob(3, b"b" * 16) == 1
    # A run with short blocks inside lands back to back.
    assert device.read_into(1, 3, out)[0] == 20 and bytes(out[:20]) == b"a" * 4 + b"b" * 16


def _never_written():
    device = _device(8)
    device.write_blob(0, b"x" * 16)
    before = device.stats.snapshot()
    with pytest.raises(StorageError, match="block 2 has never been written"):
        device.read_into(0, 3, bytearray(24))
    with pytest.raises(StorageError, match="block 7 has never been written"):
        device.read_into(7, 1, bytearray(8))
    assert device.stats.snapshot() == before  # a refused read charges nothing


def _delete_and_trim():
    memory = HybridMemory(ram_bytes=0, block_size=16)
    memory.store("k", b"s" * 16)
    memory.store("k", b"L" * 64)  # outgrows its extent: moved, the old one trimmed
    device = memory.device
    assert memory._allocations["k"][0] == 1 and stored_block(device, 0) is None
    ios = device.stats.total_ios
    device.delete_block(1)
    device.delete_block(1)  # twice, and a block never written: no-ops
    device.delete_block(99)
    assert device.stats.total_ios == ios
    assert (device.blocks_in_use, device.bytes_in_use) == (3, 48)
    with pytest.raises(StorageError, match="block 1 has never been written"):
        device.read_into(1, 1, bytearray(16))


def _in_use():
    device = _device(8)
    assert (device.blocks_in_use, device.bytes_in_use) == (0, 0)
    device.write_blob(0, bytes(30))  # 8 + 8 + 8 + 6
    device.write_blob(2, b"abc")  # one block rewritten shorter
    assert (device.blocks_in_use, device.bytes_in_use) == (4, 25)
    device.write_blob(6, b"z" * 9)  # two more, past a gap
    assert (device.blocks_in_use, device.bytes_in_use) == (6, 34)
    device.delete_block(3)
    assert (device.blocks_in_use, device.bytes_in_use) == (5, 28)
    assert sorted(stored_blocks(device)) == [0, 1, 2, 6, 7]


def _bit_rot():
    device = _device(16)
    device.fault_plan = FaultPlan([FaultSpec(site="block", mode="corrupt", at=3, offset=9)])
    device.write_blob(0, b"a" * 32)  # block writes 1 and 2
    device.write_blob(2, b"b" * 20)  # 3 (rots after its digest was taken) and 4
    assert stored_block(device, 2) == b"b" + bytes([ord("b") ^ 2]) + b"b" * 14
    out = bytearray(64)
    assert device.read_into(0, 2, out)[0] == 32
    with pytest.raises(CorruptionError, match="block 2 failed"):
        device.read_into(0, 4, out)
    assert device.stats.checksum_failures == 1


def _scrub_and_read_repair():
    edges = _edges(600, seed=4)
    reference = _paged_engine()
    reference.ingest_batch(edges)
    engine = _paged_engine()
    with tempfile.TemporaryDirectory() as checkpoints:
        engine.attach_checkpointer(
            checkpoints, policy=CheckpointPolicy(every_n_updates=200, keep=3)
        )
        engine.ingest_batch(edges)
        _settled(engine)
        memory = engine.memory
        key = sorted(memory.keys())[2]
        rot_stored_block(memory.device, memory._allocations[key][0], bit=77)
        assert engine.scrub_storage() == [key[1]]
        report = scrub_and_repair(engine, checkpoints, edges)
    assert report.repaired_pages == [key[1]] and engine.scrub_storage() == []
    assert (
        engine.list_spanning_forest().partition_signature()
        == reference.list_spanning_forest().partition_signature()
    )


def _read_ranges_retry():
    memory = HybridMemory(
        ram_bytes=1 << 20, block_size=16, retry=RetryPolicy(attempts=2, backoff_seconds=0.0)
    )
    payload = bytes(range(256))
    memory.store("k", payload)
    memory.fault_plan = FaultPlan([FaultSpec(site="device.read", at=2)])
    reads = memory.stats.block_reads
    outs = [bytearray(16) for _ in range(3)]
    assert memory.load_ranges([("k", 16 * i, out) for i, out in zip((0, 5, 10), outs)]) == [16] * 3
    assert outs == [payload[0:16], payload[80:96], payload[160:176]]
    assert (memory.stats.read_failures, memory.stats.io_retries) == (1, 1)
    # The retry resumed at the failed run: one block read per run.
    assert memory.stats.block_reads - reads == 3


CONTRACT = {
    case.__name__.lstrip("_"): case
    for case in (
        _round_trip,
        _short_last_block,
        _never_written,
        _delete_and_trim,
        _in_use,
        _bit_rot,
        _scrub_and_read_repair,
        _read_ranges_retry,
    )
}


@pytest.mark.parametrize("case", list(CONTRACT))
def test_device_contract(device, case):
    CONTRACT[case]()


# ----------------------------------------------------------------------
# what only the file device has to get right
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def file_device(request, monkeypatch):
    """Outside the contract table, the file device, whatever
    ``--block-device`` says."""
    if "device" not in request.fixturenames:
        monkeypatch.setattr(HybridMemory, "device_type", FileBlockDevice)


def test_the_file_device_keeps_its_bytes_out_of_the_heap_in_one_unlinked_file():
    memory = HybridMemory(ram_bytes=0, block_size=16)
    assert isinstance(memory.device, FileBlockDevice) and memory.device._file is None
    memory.store("k", b"q" * 40)
    status = os.fstat(memory.device._fd)
    assert status.st_nlink == 0 and status.st_size == 40  # no name to leak
    assert stored_blocks(memory.device) == {0: b"q" * 16, 1: b"q" * 16, 2: b"q" * 8}


def test_a_deep_copy_of_an_out_of_core_engine_gets_its_own_device_file(monkeypatch):
    engine = _paged_engine()
    engine.ingest_batch(_edges(300, seed=1))
    _settled(engine)
    for lock in (threading.Lock(), threading.RLock()):  # as test_emitted_batches copies
        monkeypatch.setitem(copyreg.dispatch_table, type(lock), lambda _, new=type(lock): (new, ()))
    clone = copy.deepcopy(engine)
    ours, theirs = engine.memory.device, clone.memory.device
    assert os.fstat(ours._fd).st_ino != os.fstat(theirs._fd).st_ino
    assert clone.memory.stats is theirs.stats and theirs.stats is not ours.stats
    assert stored_blocks(theirs) == stored_blocks(ours)
    assert clone.list_spanning_forest().edges == engine.list_spanning_forest().edges
    # Independent from here on: each answers for its own updates only.
    copied = stored_blocks(theirs)
    more = _edges(300, seed=2)
    engine.ingest_batch(more)
    _settled(engine)
    assert stored_blocks(theirs) == copied
    fresh = _paged_engine()
    fresh.ingest_batch(_edges(300, seed=1))
    assert clone.list_spanning_forest().edges == fresh.list_spanning_forest().edges
    fresh.ingest_batch(more)
    assert engine.list_spanning_forest().edges == fresh.list_spanning_forest().edges


def _write_from_a_child(memory, pipe):
    try:
        memory.store("k", b"child!" * 4)
        pipe.send("written")
    except StorageError as exc:
        pipe.send(str(exc))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)
def test_a_forked_process_never_writes_its_parents_device_file():
    memory = HybridMemory(ram_bytes=0, block_size=16)
    memory.store("k", b"parent" * 4)
    ours, theirs = multiprocessing.get_context("fork").Pipe()
    child = multiprocessing.get_context("fork").Process(
        target=_write_from_a_child, args=(memory, theirs)
    )
    child.start()
    child.join(30)
    assert "a forked process may not write it" in ours.recv()
    assert memory.load("k") == b"parent" * 4 and memory.scrub() == []
