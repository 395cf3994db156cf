"""Tests for GraphStream and the stream update types."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from stream_oracle import ListStream

from repro.exceptions import StreamFormatError
from repro.streaming.io import (
    read_stream_binary,
    read_stream_text,
    write_stream_binary,
    write_stream_text,
)
from repro.streaming.stream import GraphStream
from repro.types import EdgeUpdate, UpdateType, canonical_edge, iter_edges


# ----------------------------------------------------------------------
# EdgeUpdate / canonical_edge
# ----------------------------------------------------------------------
def test_edge_update_canonicalises_endpoints():
    update = EdgeUpdate(5, 2)
    assert update.edge == (2, 5)
    assert update.u == 2 and update.v == 5


def test_edge_update_rejects_self_loop_and_negative():
    with pytest.raises(ValueError):
        EdgeUpdate(3, 3)
    with pytest.raises(ValueError):
        EdgeUpdate(-1, 2)


def test_edge_update_kind_helpers():
    insert = EdgeUpdate(0, 1, UpdateType.INSERT)
    delete = insert.inverted()
    assert insert.is_insert and not insert.is_delete
    assert delete.is_delete and delete.edge == insert.edge
    assert delete.inverted() == insert


def test_update_type_delta():
    assert UpdateType.INSERT.delta == 1
    assert UpdateType.DELETE.delta == -1


def test_canonical_edge_helpers():
    assert canonical_edge(9, 4) == (4, 9)
    assert list(iter_edges([(3, 1), (2, 5)])) == [(1, 3), (2, 5)]
    with pytest.raises(ValueError):
        canonical_edge(1, 1)


# ----------------------------------------------------------------------
# GraphStream
# ----------------------------------------------------------------------
def make_stream():
    updates = [
        EdgeUpdate(0, 1, UpdateType.INSERT),
        EdgeUpdate(1, 2, UpdateType.INSERT),
        EdgeUpdate(0, 1, UpdateType.DELETE),
        EdgeUpdate(3, 4, UpdateType.INSERT),
    ]
    return GraphStream(num_nodes=5, updates=updates, name="demo")


def test_stream_length_and_iteration():
    stream = make_stream()
    assert len(stream) == 4
    assert stream.num_updates == 4
    assert [u.edge for u in stream] == [(0, 1), (1, 2), (0, 1), (3, 4)]


def test_final_edges_replays_deletions():
    stream = make_stream()
    assert stream.final_edges() == {(1, 2), (3, 4)}


def test_edges_at_prefix():
    stream = make_stream()
    assert stream.edges_at(2) == {(0, 1), (1, 2)}
    assert stream.edges_at(0) == set()


def test_prefix_returns_new_stream():
    stream = make_stream()
    prefix = stream.prefix(2)
    assert len(prefix) == 2
    assert prefix.num_nodes == stream.num_nodes
    assert prefix.final_edges() == {(0, 1), (1, 2)}
    # the original is untouched
    assert len(stream) == 4


def test_counts():
    stream = make_stream()
    assert stream.counts() == (3, 1)


def test_checkpoints_cover_stream_end():
    stream = make_stream()
    positions = stream.checkpoints(0.5)
    assert positions[-1] == len(stream)
    assert all(0 < p <= len(stream) for p in positions)
    with pytest.raises(ValueError):
        stream.checkpoints(0)


def test_append_and_extend():
    stream = GraphStream(num_nodes=4)
    stream.append(EdgeUpdate(0, 1))
    stream.extend([EdgeUpdate(1, 2), EdgeUpdate(2, 3)])
    assert len(stream) == 3


def test_from_edges_builds_insert_only_stream():
    stream = GraphStream.from_edges(4, [(0, 1), (2, 3)])
    assert all(update.is_insert for update in stream)
    assert stream.final_edges() == {(0, 1), (2, 3)}


def test_repr_contains_counts():
    assert "3 ins / 1 del" in repr(make_stream())


# ----------------------------------------------------------------------
# the rows array is the only representation: parity with a list oracle
# ----------------------------------------------------------------------
_HEADER = struct.Struct("<IIQ")
_NODES = 7

_raw_rows = st.lists(
    st.tuples(
        st.sampled_from([1, -1]),
        st.integers(0, _NODES - 1),
        st.integers(0, _NODES - 1),
    ).filter(lambda row: row[1] != row[2]),
    max_size=40,
)


def _same_updates(got, expected):
    assert [(u.u, u.v, u.kind) for u in got] == [(u.u, u.v, u.kind) for u in expected]


@given(raw=_raw_rows, data=st.data())
@settings(max_examples=60, deadline=None)
def test_array_backed_stream_matches_list_oracle(tmp_path_factory, raw, data):
    # Few nodes, so edges repeat; endpoints arrive in either order.
    updates = [EdgeUpdate(u, v, UpdateType(kind)) for kind, u, v in raw]
    total = len(updates)
    k = data.draw(st.integers(0, total), label="k")
    oracle = ListStream(_NODES, updates)

    # Built whole, grown by extend/append, and straight from raw rows.
    stream = GraphStream(_NODES, updates, name="s")
    grown = GraphStream(_NODES, updates[:k], name="s")
    grown.extend(updates[k : max(k, total - 1)])
    for update in updates[max(k, total - 1) :]:
        grown.append(update)
    from_rows = GraphStream.from_rows(_NODES, np.array(raw).reshape(-1, 3), name="s")
    assert stream == grown == from_rows
    assert not stream.rows.flags.writeable and stream.rows.dtype == np.int64
    assert (stream.rows[:, 1] < stream.rows[:, 2]).all()

    assert len(stream) == stream.num_updates == len(stream.updates) == total
    _same_updates(stream, oracle)
    _same_updates(stream.updates, oracle)
    assert stream.updates == oracle.updates
    for index in range(-total, total):
        assert stream.updates[index] == oracle.updates[index]
    for bad in (total, -total - 1):
        with pytest.raises(IndexError):
            stream.updates[bad]
    bound = st.one_of(st.none(), st.integers(-total - 2, total + 2))
    step = st.one_of(st.none(), st.integers(-3, 3).filter(bool))
    cut = slice(data.draw(bound), data.draw(bound), data.draw(step))
    _same_updates(stream.updates[cut], oracle.updates[cut])
    _same_updates(GraphStream(_NODES, stream.updates[cut]), oracle.updates[cut])

    for part, expected in (
        (stream.prefix(k), oracle.prefix(k)),
        (stream.suffix(k), oracle.suffix(k)),
    ):
        _same_updates(part, expected)
        assert part.num_nodes == _NODES
        assert len(part) == 0 or np.shares_memory(part.rows, stream.rows)
    assert stream.prefix(k).name == f"s[:{k}]" and stream.suffix(k).name == f"s[{k}:]"
    assert stream.counts() == oracle.counts()
    assert f"{oracle.counts()[0]} ins / {oracle.counts()[1]} del" in repr(stream)
    for fraction in (0.1, 0.34, 1.0):
        assert stream.checkpoints(fraction) == oracle.checkpoints(fraction)
    assert stream.final_edges() == oracle.final_edges()
    assert stream.edges_at(k) == oracle.edges_at(k)

    for start in (0, k, total, total + 1):
        edges = stream.edge_array(start)
        assert edges.dtype == np.int64 and edges.shape == (max(total - start, 0), 2)
        assert np.array_equal(edges, oracle.edge_array(start))
        assert not edges.flags.writeable
        assert edges.size == 0 or np.shares_memory(edges, stream.rows)
    chunks = list(stream.edge_array_chunks(chunk_size=3, start=k))
    assert all(0 < chunk.shape[0] <= 3 for chunk in chunks)
    assert all(np.shares_memory(chunk, stream.rows) for chunk in chunks)
    assert np.array_equal(
        np.concatenate(chunks) if chunks else np.empty((0, 2)), oracle.edge_array(k)
    )

    # Files: exactly the bytes the list-based writers produced.
    directory = tmp_path_factory.mktemp("roundtrip")
    write_stream_binary(stream, directory / "s.bin")
    write_stream_text(stream, directory / "s.txt")
    canonical = [(int(u.kind), u.u, u.v) for u in oracle]
    assert (directory / "s.bin").read_bytes() == _HEADER.pack(
        0x475A5354, _NODES, total
    ) + b"".join(struct.pack("<qqq", *row) for row in canonical)
    assert (directory / "s.txt").read_text() == f"# nodes={_NODES}\n" + "".join(
        f"{'i' if kind == 1 else 'd'} {u} {v}\n" for kind, u, v in canonical
    )
    assert read_stream_binary(directory / "s.bin", name="s") == stream
    assert read_stream_text(directory / "s.txt", name="s") == stream


#: What the parent commit's (list-of-objects) writers produced for
#: ``_golden_stream()``.
_GOLDEN_BINARY = bytes.fromhex(
    "54535a47e1930400070000000000000001000000000000000000000000000000"
    "0100000000000000010000000000000002000000000000000500000000000000"
    "ffffffffffffffff000000000000000001000000000000000100000000000000"
    "0700000000000000080000000000000001000000000000000000000000000000"
    "0100000000000000ffffffffffffffff02000000000000000500000000000000"
    "01000000000000000300000000000000e093040000000000"
)
_GOLDEN_TEXT = "# nodes=300001\ni 0 1\ni 2 5\nd 0 1\ni 7 8\ni 0 1\nd 2 5\ni 3 300000\n"


def _golden_stream():
    insert, delete = UpdateType.INSERT, UpdateType.DELETE
    return GraphStream(
        num_nodes=300001,
        updates=[
            EdgeUpdate(0, 1, insert),
            EdgeUpdate(5, 2, insert),
            EdgeUpdate(1, 0, delete),
            EdgeUpdate(7, 8, insert),
            EdgeUpdate(0, 1, insert),
            EdgeUpdate(2, 5, delete),
            EdgeUpdate(3, 300000, insert),
        ],
        name="golden",
    )


def test_writers_reproduce_the_parent_commits_bytes(tmp_path):
    stream = _golden_stream()
    write_stream_binary(stream, tmp_path / "golden.bin")
    write_stream_text(stream, tmp_path / "golden.txt")
    assert (tmp_path / "golden.bin").read_bytes() == _GOLDEN_BINARY
    assert (tmp_path / "golden.txt").read_text() == _GOLDEN_TEXT
    assert read_stream_binary(tmp_path / "golden.bin") == stream
    assert read_stream_text(tmp_path / "golden.txt") == stream


def test_stream_rows_are_not_aliased_to_the_callers_array():
    rows = np.array([[1, 0, 1], [1, 1, 2]])
    stream = GraphStream.from_rows(4, rows)
    rows[0] = (-1, 2, 3)
    assert rows.flags.writeable
    assert stream.updates[0] == EdgeUpdate(0, 1, UpdateType.INSERT)
    with pytest.raises(ValueError):
        stream.edge_array()[0, 0] = 3


@pytest.mark.parametrize(
    "rows, reason",
    [
        ([[0, 1, 2]], "row 0: update kind 0"),
        ([[1, 0, 1], [1, 3, 3]], "row 1: self loop (3, 3)"),
        ([[1, 0, 1], [-1, 0, 1], [1, -4, 2]], "row 2: negative node id"),
        ([[1, 0]], "(N, 3)"),
        ([[1.0, 0.0, 1.0]], "integers"),
    ],
)
def test_from_rows_rejects_malformed_rows(rows, reason):
    with pytest.raises(StreamFormatError, match=re.escape(reason)):
        GraphStream.from_rows(4, np.array(rows))
