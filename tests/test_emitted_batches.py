"""Every buffered path applies emitted page batches through one helper.

``GraphZeppelin._apply_emitted`` is shared by ``ingest_batch``, the
per-update path and ``flush``.  Out of core it folds one page batch at a
time and, when a storage error propagates, restores the failing batch
and the rest to the buffers: the updates were accepted
(``updates_processed`` counts them) and the next flush applies them.
The probe below injects one device-read fault at each of twenty points
of a paged ingest, lifts the plan, flushes, and holds the sketch state
to a fault-free twin's bit for bit.
"""

from __future__ import annotations

import copy
import copyreg
import threading

import numpy as np
import pytest

from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.kernels import native_kernels
from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault

NUM_NODES = 400
NATIVE = native_kernels()


def _engine(kernels: str) -> GraphZeppelin:
    config = GraphZeppelinConfig(seed=9, validate_stream=False)
    state = GraphZeppelin(NUM_NODES, config).sketch_bytes()
    return GraphZeppelin(
        NUM_NODES,
        GraphZeppelinConfig.out_of_core(
            state // 8,
            seed=9,
            validate_stream=False,
            nodes_per_page=8,
            gutter_fraction=0.05,
            kernel_backend=kernels,
        ),
    )


def _chunks(count: int = 30, size: int = 1000):
    rng = np.random.default_rng(41)
    for _ in range(count):
        u = rng.integers(0, NUM_NODES, size)
        v = (u + 1 + rng.integers(0, NUM_NODES - 1, size)) % NUM_NODES
        yield np.stack([u, v], axis=1)


def _raw_state(engine: GraphZeppelin):
    engine.flush()
    return engine.tensor_pool.raw_tensors()


def _clone(engine: GraphZeppelin, monkeypatch) -> GraphZeppelin:
    """A deep copy of ``engine`` (its locks replaced by fresh ones): the
    same pages, frames, buffers and device blocks, so it goes on exactly
    as ``engine`` would."""
    for lock in (threading.Lock(), threading.RLock()):
        monkeypatch.setitem(copyreg.dispatch_table, type(lock), lambda _, new=type(lock): (new, ()))
    return copy.deepcopy(engine)


@pytest.mark.parametrize(
    "kernels",
    [
        "numpy",
        pytest.param(
            "native",
            marks=pytest.mark.skipif(NATIVE is None, reason="no native kernel provider"),
        ),
    ],
)
def test_a_failed_page_read_loses_no_buffered_update(kernels, monkeypatch):
    chunks = list(_chunks())
    # The chunks before the first device read run once: every fault run
    # starts from a clone of that prefix, where a fresh engine's fault
    # plan would still count no read.
    probe = _engine(kernels)
    probe.memory.fault_plan = FaultPlan([FaultSpec(site="device.read", at=1)])
    for first, chunk in enumerate(chunks):
        try:
            probe.ingest_batch(chunk)
        except InjectedFault:
            break
    prefix = _engine(kernels)
    for chunk in chunks[:first]:
        prefix.ingest_batch(chunk)
    # The fault-free state after each chunk, from an in-RAM twin (paged
    # and flat pools fed the same updates hold the same bits).
    clean = GraphZeppelin(
        NUM_NODES, GraphZeppelinConfig(seed=9, validate_stream=False, kernel_backend=kernels)
    )
    prefixes = []

    def clean_prefix(count):
        while len(prefixes) <= count:
            clean.ingest_batch(chunks[len(prefixes)])
            prefixes.append((clean.updates_processed, _raw_state(clean)))
        return prefixes[count]

    differing = 0
    for at in range(2, 42, 2):
        engine = _clone(prefix, monkeypatch)
        engine.memory.fault_plan = FaultPlan([FaultSpec(site="device.read", at=at)])
        for count in range(first, len(chunks)):
            try:
                engine.ingest_batch(chunks[count])
            except InjectedFault:
                break
        else:
            pytest.fail(f"the read fault at {at} never fired inside an ingest")
        engine.memory.fault_plan = None
        updates, want = clean_prefix(count)
        # The batch that raised was accepted: counted, and in the buffers.
        assert engine.updates_processed == updates
        got = _raw_state(engine)
        differing += not all(np.array_equal(a, b) for a, b in zip(got, want))
    assert differing == 0


def test_the_per_update_path_loses_no_buffered_update_either():
    """``edge_update`` can emit a batch per endpoint; both are restored."""
    edges = np.concatenate(list(_chunks()))
    clean = GraphZeppelin(NUM_NODES, GraphZeppelinConfig(seed=9, validate_stream=False))
    for at in (2, 5):
        engine = _engine("numpy")
        engine.memory.fault_plan = FaultPlan([FaultSpec(site="device.read", at=at)])
        for count, (u, v) in enumerate(edges.tolist()):
            try:
                engine.edge_update(u, v)
            except InjectedFault:
                break
        else:
            pytest.fail(f"the read fault at {at} never fired inside an update")
        engine.memory.fault_plan = None
        assert engine.updates_processed == count + 1
        clean.ingest_batch(edges[clean.updates_processed : count + 1])
        for got, want in zip(_raw_state(engine), _raw_state(clean)):
            assert np.array_equal(got, want)
