"""Pool snapshots must round-trip, merge, and resume bit-identically.

The acceptance properties: (1) snapshot -> load -> resume yields final
state bit-identical to an uninterrupted run, across flat/paged pools
and packed/wide bucket modes; (2) the XOR merge of K snapshots built
from disjoint sub-streams into an engine is bit-identical -- tensors,
forest, update counts -- to serially ingesting the whole stream; (3) an
engine's answer after any write to its pool, a merge made straight
through ``tensor_pool`` included, equals a fresh engine's.  Plus the
robustness half: truncated payloads, corrupted magic/version, geometry
and seed mismatches all raise clear ``StreamFormatError``s *without*
mutating the target pool.
"""

from __future__ import annotations

import contextlib
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.distributed.snapshot import (
    SnapshotMeta,
    load_snapshot_into,
    merge_snapshots_into,
    read_snapshot_meta,
    save_pool_snapshot,
)
from repro.exceptions import ConfigurationError, StreamFormatError
from repro.generators.random_graphs import random_multigraph_edges
from repro.memory.hybrid import HybridMemory
from repro.resilience.checkpoint import CheckpointPolicy
from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault
from repro.sketch import geometry as geometry_module
from repro.sketch.paged_pool import PagedTensorPool
from repro.sketch.tensor_pool import NodeTensorPool
from sketch_reference import pool_geometry

NUM_NODES = 48

seeds = st.integers(min_value=0, max_value=2**32 - 1)
edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_NODES - 1),
        st.integers(min_value=0, max_value=NUM_NODES - 1),
    ).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=120,
)
#: None = in-RAM flat pool; a number = paged pool under that RAM budget.
ram_budgets = st.sampled_from([None, 0, 3_000, 60_000])


def _edge_array(edges):
    return np.asarray(edges, dtype=np.int64)


def _config(seed, ram_budget, **settings):
    return GraphZeppelinConfig(seed=seed, ram_budget_bytes=ram_budget, **settings)


def _tensors(engine_or_pool):
    pool = getattr(engine_or_pool, "tensor_pool", engine_or_pool)
    alpha, gamma = pool.raw_tensors()
    return np.asarray(alpha, dtype=np.uint64), np.asarray(gamma, dtype=np.uint64)


def _assert_identical(a, b):
    alpha_a, gamma_a = _tensors(a)
    alpha_b, gamma_b = _tensors(b)
    assert np.array_equal(alpha_a, alpha_b)
    assert np.array_equal(gamma_a, gamma_b)


@contextlib.contextmanager
def _wide_engines():
    """Engines built inside store their buckets wide (which they choose on
    their own only past 65 536 nodes)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry_module, "PACKED_MAX_VECTOR", 0)
        yield


def _engine(seed, ram_budget, edges=None, **settings) -> GraphZeppelin:
    engine = GraphZeppelin(NUM_NODES, config=_config(seed, ram_budget, **settings))
    if edges is not None:
        engine.ingest_batch(edges)
        engine.flush()
    return engine


# ----------------------------------------------------------------------
# property: snapshot -> load -> resume == uninterrupted (engine level)
# ----------------------------------------------------------------------
@given(
    edges=edge_lists,
    seed=seeds,
    split_fraction=st.floats(min_value=0.0, max_value=1.0),
    writer_budget=ram_budgets,
    loader_budget=ram_budgets,
)
@settings(max_examples=25, deadline=None)
def test_snapshot_load_resume_bit_identical(
    tmp_path_factory, edges, seed, split_fraction, writer_budget, loader_budget
):
    path = tmp_path_factory.mktemp("snap") / "mid.snap"
    array = _edge_array(edges)
    split = int(round(split_fraction * array.shape[0]))

    uninterrupted = GraphZeppelin(NUM_NODES, config=_config(seed, writer_budget))
    uninterrupted.ingest_batch(array)
    uninterrupted.flush()

    writer = GraphZeppelin(NUM_NODES, config=_config(seed, writer_budget))
    writer.ingest_batch(array[:split])
    writer.save_snapshot(path, stream_offset=split)

    resumed = GraphZeppelin.load_snapshot(path, config=_config(seed, loader_budget))
    assert resumed.resume_offset == split
    assert resumed.updates_processed == split
    resumed.ingest_batch(array[resumed.resume_offset :])
    resumed.flush()

    _assert_identical(uninterrupted, resumed)
    assert (
        resumed.list_spanning_forest().partition_signature()
        == uninterrupted.list_spanning_forest().partition_signature()
    )
    assert resumed.updates_processed == uninterrupted.updates_processed
    assert resumed.tensor_pool.updates_applied == uninterrupted.tensor_pool.updates_applied


# ----------------------------------------------------------------------
# property: K-way merge == serial ingest (engine level, packed)
# ----------------------------------------------------------------------
@given(
    edges=edge_lists,
    seed=seeds,
    num_parts=st.integers(min_value=2, max_value=4),
    part_budget=ram_budgets,
    merge_budget=ram_budgets,
)
@settings(max_examples=25, deadline=None)
def test_merged_snapshots_bit_identical_to_serial(
    tmp_path_factory, edges, seed, num_parts, part_budget, merge_budget
):
    workdir = tmp_path_factory.mktemp("merge")
    array = _edge_array(edges)

    serial = GraphZeppelin(NUM_NODES, config=_config(seed, None))
    serial.ingest_batch(array)
    serial.flush()

    paths = []
    for part in range(num_parts):
        worker = GraphZeppelin(NUM_NODES, config=_config(seed, part_budget))
        worker.ingest_batch(array[part::num_parts])
        paths.append(workdir / f"part-{part}.snap")
        worker.save_snapshot(paths[-1])

    merged = GraphZeppelin(NUM_NODES, config=_config(seed, merge_budget))
    meta = merged.merge_snapshots(paths)
    _assert_identical(serial, merged)
    assert meta.engine_updates == merged.updates_processed == serial.updates_processed
    assert merged.tensor_pool.updates_applied == serial.tensor_pool.updates_applied


# ----------------------------------------------------------------------
# property: wide-mode engines (wide only self-selects > 65536 nodes, so
# _wide_engines exercises the second bucket layout at test size)
# ----------------------------------------------------------------------
@given(edges=edge_lists, seed=seeds, paged=st.booleans())
@settings(max_examples=15, deadline=None)
def test_wide_snapshot_roundtrip_and_merge(tmp_path_factory, edges, seed, paged):
    workdir = tmp_path_factory.mktemp("wide")
    array = _edge_array(edges)
    paged_settings = dict(ram_budget=4_000, nodes_per_page=7)

    with _wide_engines():
        reference = _engine(seed, None, array)
        assert not reference.geometry.packed

        halves = []
        for part in range(2):
            writer = _engine(seed, **(paged_settings if paged else {"ram_budget": None}))
            writer.ingest_batch(array[part::2])
            halves.append(workdir / f"half-{part}.snap")
            writer.save_snapshot(halves[-1])
            _assert_identical(writer, GraphZeppelin.load_snapshot(halves[-1]))

        merged = _engine(seed, None)
        merged.merge_snapshots(halves)
        _assert_identical(reference, merged)

        # The paged target: merged page by page under the RAM budget.
        paged_merged = _engine(seed, **paged_settings)
        paged_merged.merge_snapshots(halves)
        assert paged_merged.tensor_pool.is_paged
        _assert_identical(reference, paged_merged)


# ----------------------------------------------------------------------
# robustness: bad files fail loudly and mutate nothing
# ----------------------------------------------------------------------
@pytest.fixture
def snapshot_file(tmp_path):
    engine = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=11))
    rng = np.random.default_rng(4)
    u = rng.integers(0, NUM_NODES, 200)
    v = rng.integers(0, NUM_NODES, 200)
    keep = u != v
    engine.ingest_batch(np.stack([u[keep], v[keep]], axis=1))
    path = tmp_path / "good.snap"
    engine.save_snapshot(path)
    return path, engine


def _assert_pool_untouched(pool: NodeTensorPool):
    alpha, gamma = pool.raw_tensors()
    assert not np.asarray(alpha).any()
    assert not np.asarray(gamma).any()
    assert pool.updates_applied == 0


def test_truncated_header_rejected(tmp_path, snapshot_file):
    path, _ = snapshot_file
    stub = tmp_path / "stub.snap"
    stub.write_bytes(path.read_bytes()[:40])
    with pytest.raises(StreamFormatError, match="snapshot header"):
        read_snapshot_meta(stub)


def test_truncated_payload_rejected_without_mutation(tmp_path, snapshot_file):
    path, engine = snapshot_file
    data = path.read_bytes()
    clipped = tmp_path / "clipped.snap"
    clipped.write_bytes(data[: len(data) - 17])
    with pytest.raises(StreamFormatError, match="length"):
        read_snapshot_meta(clipped)
    target = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=11))
    with pytest.raises(StreamFormatError, match="length"):
        load_snapshot_into(clipped, target.tensor_pool)
    _assert_pool_untouched(target.tensor_pool)


def test_padded_payload_rejected(tmp_path, snapshot_file):
    path, _ = snapshot_file
    padded = tmp_path / "padded.snap"
    padded.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(StreamFormatError, match="length"):
        read_snapshot_meta(padded)


def test_corrupted_magic_rejected(tmp_path, snapshot_file):
    path, _ = snapshot_file
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    bad = tmp_path / "bad-magic.snap"
    bad.write_bytes(bytes(data))
    with pytest.raises(StreamFormatError, match="magic"):
        read_snapshot_meta(bad)


def test_future_version_rejected(tmp_path, snapshot_file):
    """Version 2 is the one format: a future version and the retired
    pre-digest version 1 are both an unknown magic."""
    path, _ = snapshot_file
    for version in (3, 1):
        data = bytearray(path.read_bytes())
        data[0] = version  # version lives in the magic's low word (current is 2)
        other = tmp_path / f"version-{version}.snap"
        other.write_bytes(bytes(data))
        with pytest.raises(StreamFormatError, match="magic"):
            read_snapshot_meta(other)


def test_geometry_mismatch_rejected_without_mutation(snapshot_file):
    path, _ = snapshot_file
    other = GraphZeppelin(NUM_NODES * 2, config=GraphZeppelinConfig(seed=11))
    with pytest.raises(StreamFormatError, match="geometry"):
        load_snapshot_into(path, other.tensor_pool)
    _assert_pool_untouched(other.tensor_pool)


def test_zero_round_header_rejected(tmp_path, snapshot_file):
    """A header rewritten to 0 rounds implies an empty payload and no
    digests, so only geometry validation stands between it and a
    0-round pool."""
    from repro.distributed.snapshot import _HEADER

    path, _ = snapshot_file
    fields = list(_HEADER.unpack(path.read_bytes()[: _HEADER.size]))
    fields[4] = 0  # num_rounds
    zero = tmp_path / "zero-rounds.snap"
    zero.write_bytes(_HEADER.pack(*fields))
    with pytest.raises(StreamFormatError, match="round"):
        GraphZeppelin.load_snapshot(zero)


def test_seed_mismatch_on_merge_without_mutation(tmp_path, snapshot_file):
    path, _ = snapshot_file
    other = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=12))
    other.ingest_batch(np.asarray([[0, 1], [2, 3]]))
    other_path = tmp_path / "other-seed.snap"
    other.save_snapshot(other_path)
    target = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=11))
    with pytest.raises(StreamFormatError, match="seed"):
        merge_snapshots_into([path, other_path], target.tensor_pool)
    _assert_pool_untouched(target.tensor_pool)


def test_mixed_bucket_modes_rejected_on_merge(tmp_path, snapshot_file):
    path, _ = snapshot_file
    with _wide_engines():
        wide = _engine(11, None)
    wide_path = tmp_path / "wide.snap"
    wide.save_snapshot(wide_path)
    target = _engine(11, None)
    with pytest.raises(StreamFormatError, match="packed"):
        target.merge_snapshots([wide_path, path])
    _assert_pool_untouched(target.tensor_pool)


def test_fingerprint_mismatch_rejected_on_load(snapshot_file):
    path, _ = snapshot_file
    with pytest.raises(StreamFormatError, match="fingerprint"):
        GraphZeppelin.load_snapshot(path, config=GraphZeppelinConfig(seed=99))


def test_fingerprint_mismatch_rejected_on_merge(tmp_path, snapshot_file):
    """Geometry and seed are checked against the pool; the fingerprint
    is checked between the inputs."""
    path, engine = snapshot_file
    other = tmp_path / "other-fingerprint.snap"
    save_pool_snapshot(engine.tensor_pool, other, fingerprint=7)
    target = _engine(11, None)
    with pytest.raises(StreamFormatError, match="fingerprint"):
        target.merge_snapshots([path, other])
    _assert_pool_untouched(target.tensor_pool)


def test_sketch_fingerprint_golden_values():
    """The fingerprint is stored in every snapshot and checkpoint header.

    Values recorded at the commit before ``sketch_backend`` left the
    config: the digest must not move with the field, or every existing
    snapshot is refused on load.
    """
    assert GraphZeppelinConfig().sketch_fingerprint() == 0xE05A324C2524B5B6
    assert (
        GraphZeppelinConfig(seed=7, delta=0.05).sketch_fingerprint()
        == 0xDDBB5B9E8F8BBB8B
    )
    assert GraphZeppelinConfig(seed=-1).sketch_fingerprint() == 0x521535B2DE1019CC


def test_merge_requires_at_least_one_path():
    with pytest.raises(ValueError):
        _engine(0, None).merge_snapshots([])


def test_snapshot_leaves_no_temp_file(tmp_path, snapshot_file):
    path, engine = snapshot_file
    assert path.exists()
    assert not list(tmp_path.glob("*.tmp"))
    # Snapshotting does not consume the engine: ingest continues.
    engine.ingest_batch(np.asarray([[1, 2]]))


def test_resume_with_stream_validation_rejected(snapshot_file):
    path, _ = snapshot_file
    with pytest.raises(ConfigurationError, match="validate_stream"):
        GraphZeppelin.load_snapshot(
            path, config=GraphZeppelinConfig(seed=11, validate_stream=True)
        )


def test_merge_from_self_rejected(tmp_path, snapshot_file, monkeypatch):
    """One file named twice would XOR-cancel itself into an all-zero pool
    that still reports the doubled update count."""
    path, _ = snapshot_file
    monkeypatch.chdir(tmp_path)
    for spelling in (path, f"./{path.name}", tmp_path / ".." / tmp_path.name / path.name):
        target = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=11))
        with pytest.raises(StreamFormatError, match="same file"):
            merge_snapshots_into([path, spelling], target.tensor_pool)
        _assert_pool_untouched(target.tensor_pool)
    target = _engine(11, None)
    with pytest.raises(StreamFormatError, match="same file"):
        target.merge_snapshots([path, path])
    assert target.updates_processed == 0
    _assert_pool_untouched(target.tensor_pool)


def test_meta_roundtrip(snapshot_file):
    path, engine = snapshot_file
    meta = read_snapshot_meta(path)
    assert isinstance(meta, SnapshotMeta)
    assert meta.geometry == engine.geometry
    assert meta.geometry.num_nodes == NUM_NODES
    assert meta.graph_seed == 11
    assert meta.geometry.packed
    assert not meta.paged_origin
    assert meta.engine_updates == engine.updates_processed
    assert meta.stream_offset == engine.updates_processed
    assert meta.fingerprint == engine.config.sketch_fingerprint()
    assert path.stat().st_size == meta.payload_bytes + meta.digest_section_bytes + 96


def test_negative_seed_snapshot_roundtrips(tmp_path):
    """Fingerprints mask the seed to 64 bits, like the header does.

    Hash derivation is mod-2^64 invariant, so a snapshot written under
    seed=-1 must load under the masked seed its header records.
    """
    config = GraphZeppelinConfig(seed=-1)
    engine = GraphZeppelin(NUM_NODES, config=config)
    engine.ingest_batch(np.asarray([[0, 1], [2, 3], [1, 2]]))
    path = tmp_path / "neg-seed.snap"
    engine.save_snapshot(path)
    loaded = GraphZeppelin.load_snapshot(path)
    _assert_identical(engine, loaded)
    masked = GraphZeppelin(
        NUM_NODES, config=GraphZeppelinConfig(seed=-1 & 0xFFFFFFFFFFFFFFFF)
    )
    masked.ingest_batch(np.asarray([[0, 1], [2, 3], [1, 2]]))
    _assert_identical(engine, masked)


def test_merged_snapshots_are_flagged(tmp_path):
    """A merge's output meta carries merged=True (resume must refuse it)."""
    paths = []
    for part in range(2):
        engine = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=2))
        engine.ingest_batch(np.asarray([[part, part + 3]]))
        paths.append(tmp_path / f"p{part}.snap")
        engine.save_snapshot(paths[-1])
    assert not read_snapshot_meta(paths[0]).merged
    merged = _engine(2, None)
    meta = merged.merge_snapshots(paths)
    assert meta.merged
    merged_path = tmp_path / "merged.snap"
    save_pool_snapshot(merged.tensor_pool, merged_path, merged=True)
    assert read_snapshot_meta(merged_path).merged


# ----------------------------------------------------------------------
# the engine merge: counters, checkpoints, and the cached answer
# ----------------------------------------------------------------------
def _halves_and_whole(tmp_path, ram_budget=None):
    """An engine holding half of a 200-node graph and queried, the other
    half's snapshot, and a fresh engine holding the whole graph."""
    edges = random_multigraph_edges(200, 320, seed=1)
    engine = GraphZeppelin(200, GraphZeppelinConfig(seed=1, ram_budget_bytes=ram_budget))
    engine.ingest_batch(edges[0::2])
    other = GraphZeppelin(200, GraphZeppelinConfig(seed=1))
    other.ingest_batch(edges[1::2])
    path = tmp_path / "other-half.snap"
    other.save_snapshot(path)
    whole = GraphZeppelin(200, GraphZeppelinConfig(seed=1))
    whole.ingest_batch(edges)
    half_answer = engine.list_spanning_forest().partition_signature()
    assert half_answer != whole.list_spanning_forest().partition_signature()
    return engine, path, whole


def test_a_pool_merge_under_a_queried_engine_is_not_served_stale(tmp_path):
    """The cached forest is keyed on the pool version, so a merge made
    straight into ``tensor_pool`` -- past every engine entry point --
    still retires it: the next answer is the fresh engine's."""
    engine, path, whole = _halves_and_whole(tmp_path)
    merge_snapshots_into([path], engine.tensor_pool)
    forest, expected = engine.list_spanning_forest(), whole.list_spanning_forest()
    assert forest.partition_signature() == expected.partition_signature()
    assert forest.edges == expected.edges


def test_a_merge_stopped_by_a_storage_error_retires_the_cached_forest(tmp_path):
    """The pages merged before a failed page read stay merged, so the
    next answer is recomputed -- and is a fresh engine's over that state."""
    engine, path, _ = _halves_and_whole(tmp_path, ram_budget=12_000)
    assert engine.tensor_pool.num_pages == 3
    cached, before = engine.list_spanning_forest(), engine.updates_processed
    engine.memory.fault_plan = FaultPlan([FaultSpec(site="device.read", at=2)])
    with pytest.raises(InjectedFault):
        engine.merge_snapshots([path])
    engine.memory.fault_plan = None
    assert engine.updates_processed == before
    forest = engine.list_spanning_forest()
    assert forest is not cached
    state = tmp_path / "part-merged.snap"
    engine.save_snapshot(state)
    assert forest.edges == GraphZeppelin.load_snapshot(state).list_spanning_forest().edges


def test_engine_merge_counts_updates_and_notifies_the_checkpointer(tmp_path):
    engine, path, whole = _halves_and_whole(tmp_path)
    before = engine.updates_processed
    other_updates = read_snapshot_meta(path).engine_updates
    checkpointer = engine.attach_checkpointer(
        tmp_path / "ckpt", policy=CheckpointPolicy(every_n_updates=other_updates, keep=2)
    )
    meta = engine.merge_snapshots([path])
    assert meta.merged and meta.engine_updates == other_updates
    assert engine.updates_processed == before + other_updates == whole.updates_processed
    assert checkpointer.checkpoints_written == 1
    _assert_identical(engine, whole)
    assert engine.list_spanning_forest().edges == whole.list_spanning_forest().edges


def test_engine_merge_refuses_a_validated_stream(snapshot_file):
    path, _ = snapshot_file
    engine = _engine(11, None, validate_stream=True)
    with pytest.raises(ConfigurationError, match="validate_stream"):
        engine.merge_snapshots([path])
    _assert_pool_untouched(engine.tensor_pool)


#: sha256 of the snapshot files :func:`_pinned_snapshot` writes, recorded
#: when the paged writer still read one page stripe per call: the flat
#: and the paged writers must keep emitting these bytes.
PINNED_SNAPSHOTS = {
    (False, False): "45e2d0f57a16f3f931ce323d10d3e10f19dac2e19dddd780a4fb9b5b5d94992e",
    (False, True): "51410272b6e1bf472f22958aad7106120e8fab26da63384feb54e366a16a5a91",
    (True, False): "69add98c3f6a9c6a528114843ad2a5cf391bcba96b81546f51606b03729e6deb",
    (True, True): "5d7379d70ad1c7abb7f50cb6fbeef9c2b1cf4b3142274a7532380b9859380317",
}


def _pinned_snapshot(path, paged: bool, wide: bool) -> str:
    """A fixed arithmetic stream (no RNG) through two fold entry points,
    saved with :func:`save_pool_snapshot`.  Returns the file's sha256, the
    pool, and the size of every batched range read the save made."""
    num_nodes = 61
    encoder = EdgeEncoder(num_nodes)
    settings = dict(graph_seed=20240612, geometry=pool_geometry(num_nodes, wide=wide))
    if paged:
        # Three resident pages of eleven: the save reads most stripes
        # from the device and the rest out of frames.
        pool = PagedTensorPool(
            num_nodes, encoder, memory=HybridMemory(ram_bytes=0, block_size=512),
            nodes_per_page=6, resident_pages=3, **settings,
        )
    else:
        pool = NodeTensorPool(num_nodes, encoder, **settings)
    i = np.arange(900, dtype=np.int64)
    u = (i * 7919 + 3) % num_nodes
    v = (u + 1 + (i * 104729 + 11) % (num_nodes - 1)) % num_nodes
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    idx = encoder.encode_canonical_pairs(lo, hi)
    pool.apply_edges(lo[:600], hi[:600], idx[:600])
    pool.apply_updates(np.concatenate([lo[600:], hi[600:]]), np.concatenate([idx[600:]] * 2))
    batches = []
    if paged:
        load_ranges_into = pool.memory.load_ranges_into

        def counted(keys, *args):
            batches.append(len(keys))
            return load_ranges_into(keys, *args)

        pool.memory.load_ranges_into = counted
    save_pool_snapshot(pool, path, stream_offset=900, engine_updates=900, fingerprint=7)
    return hashlib.sha256(path.read_bytes()).hexdigest(), pool, batches


@pytest.mark.parametrize("paged, wide", sorted(PINNED_SNAPSHOTS))
def test_snapshot_files_are_pinned_to_recorded_digests(tmp_path, paged, wide):
    digest, pool, batches = _pinned_snapshot(tmp_path / "pool.snap", paged, wide)
    assert digest == PINNED_SNAPSHOTS[paged, wide]
    if paged:
        # One batched device read per (plane, round): every page that is
        # not resident contributes its stripe to it.
        reads = len(pool.geometry.planes) * pool.num_rounds
        assert batches == [pool.num_pages - len(pool._resident)] * reads
