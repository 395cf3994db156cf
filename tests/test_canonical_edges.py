"""The canonical-edge contract: numpy provider vs the compiled kernel.

An edge batch enters the sketches through one contract: check every row
(an endpoint outside the graph or a self loop rejects the batch at its
first bad row, writing nothing), orient each row ``lo < hi``, encode its
edge slot, stamp both endpoints and fold.  The numpy provider is
``canonical_edge_columns`` + ``EdgeEncoder.encode_canonical_pairs`` +
``NodeTensorPool.apply_edges``; a native in-RAM pool runs it as
``repro_canonical_edges`` and one fold (``CcKernels.ingest_edges``),
writing the columns into a per-pool scratch of at most
``INGEST_SCRATCH_ROWS`` rows, or into columns allocated for a longer
batch.  Over one table of batches -- every integer dtype, strided and
Fortran-order rows, boundary edges and every kind of bad row -- both must
give the same columns, the same error message and the same buckets, on
packed and wide pools, for the ``-march=native`` library and the
portable one alike.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.config import GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder, canonical_edge_columns
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import InvalidStreamError
from repro.kernels import native_cc, native_kernels
from repro.kernels.numpy_kernels import NUMPY_KERNELS
from repro.sketch.tensor_pool import NodeTensorPool
from sketch_reference import pool_geometry

N = 12
_PAIRS = [(3, 1), (0, N - 1), (N - 2, N - 1), (7, 4), (N - 1, 0), (5, 6)]


def _rows(pairs, dtype=np.int64):
    return np.asarray(pairs, dtype=dtype).reshape(-1, 2)


def _with_row(row, at):
    pairs = list(_PAIRS)
    pairs.insert(at if at >= 0 else len(pairs) + 1 + at, row)
    return _rows(pairs)


CASES = {
    "int64": _rows(_PAIRS),
    "int8": _rows(_PAIRS, np.int8),
    "int32": _rows(_PAIRS, np.int32),
    "uint32": _rows(_PAIRS, np.uint32),
    "uint64": _rows(_PAIRS, np.uint64),
    "strided": np.column_stack([np.ones(len(_PAIRS), np.int64), _rows(_PAIRS)])[:, 1:],
    "fortran": np.asfortranarray(_rows(_PAIRS)),
    "reversed": _rows(_PAIRS)[::-1],
    "unaligned": np.frombuffer(b"\0" + _rows(_PAIRS).tobytes(), np.int64, offset=1).reshape(-1, 2),
    "one-row": _rows([(N - 1, 2)]),
    "boundary": _rows([(0, N - 1), (N - 2, N - 1)]),
    "negative": _with_row((2, -1), 3),
    "at-n": _with_row((N, 0), 2),
    "uint64-2^63": np.asarray(_PAIRS[:2] + [(2**63, 1)] + _PAIRS[2:], dtype=np.uint64),
    "loop-first": _with_row((4, 4), 0),
    "loop-middle": _with_row((9, 9), 3),
    "loop-last": _with_row((N - 1, N - 1), -1),
    "loop-before-range": _rows([(1, 2), (6, 6), (3, 4), (0, N + 5)]),
    "range-before-loop": _rows([(1, 2), (-3, 5), (6, 6)]),
}
REJECTED = {
    "negative": "batch row 3: endpoint outside the graph [0, 12)",
    "at-n": "batch row 2: endpoint outside the graph [0, 12)",
    "uint64-2^63": "batch row 2: endpoint outside the graph [0, 12)",
    "loop-first": "batch row 0: self loop (4, 4)",
    "loop-middle": "batch row 3: self loop (9, 9)",
    "loop-last": f"batch row {len(_PAIRS)}: self loop (11, 11)",
    "loop-before-range": "batch row 1: self loop (6, 6)",
    "range-before-loop": "batch row 1: endpoint outside the graph [0, 12)",
}


def _provider(name, request):
    if name == "portable":
        return request.getfixturevalue("portable_build")[0]
    provider = native_kernels()
    if provider is None:
        pytest.skip("no native kernel provider usable")
    return provider


def _pools(kernels, wide):
    """A numpy pool and a ``kernels`` pool holding the same few edges."""
    geometry = pool_geometry(N, wide=wide)
    pools = [
        NodeTensorPool(N, EdgeEncoder(N), graph_seed=9, geometry=geometry, kernels=k)
        for k in (NUMPY_KERNELS, kernels)
    ]
    lo, hi = np.asarray([0, 2, 3]), np.asarray([1, 5, 8])
    for pool in pools:
        pool.apply_edges(lo, hi, pool.encoder.encode_canonical_pairs(lo, hi))
    return pools


def _state(pool):
    stamps = None if pool._stamps is None else pool._stamps.tolist()
    planes = [plane.tolist() for plane in pool.raw_tensors()]
    return planes, stamps, pool._version, pool._updates_applied


def _ingest(pool, raw):
    """``pool.apply_edge_rows`` of ``raw`` as the engine hands it over: its
    ``(lo, hi)`` columns as lists, or the error message."""
    try:
        return [column.tolist() for column in pool.apply_edge_rows(GraphZeppelin._edge_rows(raw))]
    except InvalidStreamError as error:
        return str(error)


@pytest.mark.parametrize(
    "scratch_rows", [native_cc.INGEST_SCRATCH_ROWS, 2], ids=["scratch", "allocated"]
)
@pytest.mark.parametrize("wide", [False, True], ids=["packed", "wide"])
@pytest.mark.parametrize("provider", ["native", "portable"], ids=["numpy-vs-native", "numpy-vs-portable"])
@pytest.mark.parametrize("case", list(CASES))
def test_canonical_edges_contract(case, provider, wide, scratch_rows, request, monkeypatch):
    monkeypatch.setattr(native_cc, "INGEST_SCRATCH_ROWS", scratch_rows)
    raw = CASES[case]
    reference, pool = _pools(_provider(provider, request), wide)
    before = _state(pool)
    results = [_ingest(p, raw) for p in (reference, pool)]
    if case in REJECTED:
        assert results[0] == results[1] == REJECTED[case]
        assert _state(pool) == before
        return
    lo, hi = canonical_edge_columns(GraphZeppelin._edge_rows(raw), N)
    assert results[0] == results[1] == [lo.tolist(), hi.tolist()]
    scratch = pool._kernels._bound(pool, pool._slot_offsets)[2]
    assert scratch.shape[1] <= scratch_rows
    if scratch_rows >= len(lo):  # the retained scratch holds the batch's slots
        idx = reference.encoder.encode_canonical_pairs(lo, hi)
        assert scratch[2, : len(lo)].view(np.uint64).tolist() == idx.tolist()
    planes, stamps, version, applied = before
    for node in np.concatenate([lo, hi]).tolist():
        stamps[node] = version + 1
    assert _state(pool) == (_state(reference)[0], stamps, version + 1, applied + 2 * len(lo))


def test_numpy_provider_columns():
    lo, hi = canonical_edge_columns(_rows(_PAIRS), N)
    assert list(zip(lo.tolist(), hi.tolist())) == [(min(p), max(p)) for p in _PAIRS]
    assert lo.dtype == hi.dtype == np.int64


@pytest.mark.parametrize("backend", ["numpy", "native"])
@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_batch_changes_no_engine_state(backend, case, request):
    if backend == "native":
        request.getfixturevalue("native_provider")
    engine = GraphZeppelin(N, GraphZeppelinConfig(kernel_backend=backend, validate_stream=True))
    engine.ingest_batch(_rows(_PAIRS[:3]))
    engine.list_spanning_forest()

    def state():
        return (
            _state(engine.tensor_pool), engine.updates_processed, engine.batches_applied,
            sorted(engine._current_edges),
        )

    before = state()
    with pytest.raises(InvalidStreamError, match=f"^{re.escape(REJECTED[case])}$"):
        engine.ingest_batch(CASES[case])
    assert state() == before


@pytest.mark.parametrize("backend", ["numpy", "native", "paged"])
def test_empty_batch_of_the_wrong_shape_is_rejected(backend, request):
    """A size-0 batch is still held to the ``(N, 2)`` shape."""
    if backend != "numpy":
        request.getfixturevalue("native_provider")
    config = GraphZeppelinConfig(kernel_backend="numpy" if backend == "numpy" else "native")
    if backend == "paged":
        config = GraphZeppelinConfig.out_of_core(1 << 14, kernel_backend="native")
    engine = GraphZeppelin(N, config)
    assert engine.tensor_pool.is_paged == (backend == "paged")
    for bad in (np.empty((3, 0)), np.empty((0, 3)), np.empty((0, 2, 1)), [[]]):
        with pytest.raises(InvalidStreamError, match=r"\(N, 2\)"):
            engine.ingest_batch(bad)
    for empty in ([], (), np.empty((0, 2)), np.empty((0, 2), dtype=np.int64)):
        assert engine.ingest_batch(empty) == 0
    assert engine.updates_processed == 0 and engine.batches_applied == 0


def test_bound_ingest_reads_only_int64_edge_rows(native_provider):
    pool = _pools(native_provider, False)[1]
    for rows in (_rows(_PAIRS, np.int32), _rows(_PAIRS).reshape(-1), np.zeros((3, 3), np.int64)):
        with pytest.raises(ValueError, match=r"\(k, 2\) int64"):
            native_provider.ingest_edges(pool, rows)
