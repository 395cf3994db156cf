"""Tests for stream validation and the stream file formats."""

import re
import struct

import pytest

from repro.exceptions import InvalidStreamError, StreamFormatError
from repro.streaming.io import (
    read_stream_binary,
    read_stream_text,
    write_stream_binary,
    write_stream_text,
)
from repro.streaming.stream import GraphStream
from repro.streaming.validation import StreamValidator, assert_final_graph, validate_stream
from repro.types import EdgeUpdate, UpdateType


def valid_stream():
    return GraphStream(
        num_nodes=6,
        updates=[
            EdgeUpdate(0, 1, UpdateType.INSERT),
            EdgeUpdate(2, 3, UpdateType.INSERT),
            EdgeUpdate(0, 1, UpdateType.DELETE),
            EdgeUpdate(0, 1, UpdateType.INSERT),
        ],
        name="valid",
    )


def invalid_stream():
    return GraphStream(
        num_nodes=4,
        updates=[
            EdgeUpdate(0, 1, UpdateType.DELETE),  # delete before insert
            EdgeUpdate(0, 1, UpdateType.INSERT),
            EdgeUpdate(0, 1, UpdateType.INSERT),  # double insert
        ],
        name="invalid",
    )


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_valid_stream_report():
    report = validate_stream(valid_stream())
    assert report.valid
    assert bool(report) is True
    assert report.num_updates == 4
    assert report.num_insertions == 3
    assert report.num_deletions == 1
    assert report.final_edge_count == 2
    assert report.first_violation is None


def test_invalid_stream_report_lists_first_violation():
    report = validate_stream(invalid_stream())
    assert not report.valid
    assert "deleted while absent" in report.first_violation


def test_validate_stream_can_raise():
    with pytest.raises(InvalidStreamError):
        validate_stream(invalid_stream(), raise_on_error=True)


def test_validator_tracks_live_edges_incrementally():
    validator = StreamValidator(6)
    validator.observe(EdgeUpdate(0, 1, UpdateType.INSERT))
    assert validator.current_edges == {(0, 1)}
    validator.observe(EdgeUpdate(0, 1, UpdateType.DELETE))
    assert validator.current_edges == set()
    assert validator.report().valid


def test_validator_flags_out_of_range_nodes():
    validator = StreamValidator(2)
    validator.observe(EdgeUpdate(0, 5, UpdateType.INSERT))
    assert not validator.report().valid


def test_assert_final_graph():
    stream = valid_stream()
    assert assert_final_graph(stream, {(0, 1), (2, 3)})
    assert not assert_final_graph(stream, {(0, 1)})


# ----------------------------------------------------------------------
# file formats
# ----------------------------------------------------------------------
def test_text_roundtrip(tmp_path):
    stream = valid_stream()
    path = tmp_path / "stream.txt"
    write_stream_text(stream, path)
    restored = read_stream_text(path)
    assert restored.num_nodes == stream.num_nodes
    assert [(u.edge, u.kind) for u in restored] == [(u.edge, u.kind) for u in stream]


def test_binary_roundtrip(tmp_path):
    stream = valid_stream()
    path = tmp_path / "stream.bin"
    write_stream_binary(stream, path)
    restored = read_stream_binary(path)
    assert restored.num_nodes == stream.num_nodes
    assert [(u.edge, u.kind) for u in restored] == [(u.edge, u.kind) for u in stream]


def test_text_format_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# nodes=4\nx 0 1\n")
    with pytest.raises(StreamFormatError):
        read_stream_text(path)


def test_text_format_requires_header(tmp_path):
    path = tmp_path / "no_header.txt"
    path.write_text("i 0 1\n")
    with pytest.raises(StreamFormatError):
        read_stream_text(path)


def test_binary_format_rejects_truncation(tmp_path):
    stream = valid_stream()
    path = tmp_path / "stream.bin"
    write_stream_binary(stream, path)
    data = path.read_bytes()
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(data[:-5])
    with pytest.raises(StreamFormatError):
        read_stream_binary(truncated)


def test_binary_format_rejects_bad_magic(tmp_path):
    path = tmp_path / "garbage.bin"
    path.write_bytes(b"\x00" * 64)
    with pytest.raises(StreamFormatError):
        read_stream_binary(path)


def _binary_file(path, num_nodes, rows):
    """A well-formed header followed by the given (kind, u, v) rows."""
    payload = b"".join(struct.pack("<qqq", *row) for row in rows)
    path.write_bytes(struct.pack("<IIQ", 0x475A5354, num_nodes, len(rows)) + payload)
    return path


def test_binary_format_rejects_unknown_update_kinds(tmp_path):
    # Any kind other than 1 used to load as a deletion.
    path = _binary_file(tmp_path / "kinds.bin", 8, [[0, 1, 2], [7, 2, 3]])
    with pytest.raises(StreamFormatError, match=r"kinds\.bin: row 0: update kind 0"):
        read_stream_binary(path)
    path = _binary_file(tmp_path / "kinds.bin", 8, [[-1, 1, 2], [7, 2, 3]])
    with pytest.raises(StreamFormatError, match=r"kinds\.bin: row 1: update kind 7"):
        read_stream_binary(path)


@pytest.mark.parametrize(
    "rows, where",
    [
        ([[1, 0, 1], [1, 4, 4]], "row 1: self loop (4, 4)"),
        ([[1, -2, 1]], "row 0: negative node id in update (-2, 1)"),
        ([[1, 0, 1], [-1, 0, 1], [-1, 3, -1]], "row 2: negative node id"),
    ],
)
def test_binary_format_rejects_invalid_rows(tmp_path, rows, where):
    path = _binary_file(tmp_path / "rows.bin", 8, rows)
    with pytest.raises(StreamFormatError, match=re.escape(f"{path}: {where}")):
        read_stream_binary(path)


@pytest.mark.parametrize(
    "text, where",
    [
        ("# nodes=8\ni 0 1\n\ni 3 3\n", ":4: self loop (3, 3)"),
        ("# nodes=8\nd -1 2\n", ":2: negative node id in update (-1, 2)"),
        ("# nodes=8 scale=3\ni 0 1\n", ":1: malformed line '# nodes=8 scale=3'"),
        ("# nodes=8\ni 0 x\n", ":2: malformed line 'i 0 x'"),
        ("# nodes=8\ni 0 1 2\n", ":2: malformed line 'i 0 1 2'"),
        ("# nodes=8\ni 0 99999999999999999999\n", "does not fit in 64 bits"),
    ],
)
def test_text_format_rejects_invalid_lines(tmp_path, text, where):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(StreamFormatError, match=re.escape(where)) as raised:
        read_stream_text(path)
    assert str(path) in str(raised.value)


def test_readers_canonicalise_reversed_endpoints(tmp_path):
    binary = _binary_file(tmp_path / "rev.bin", 8, [[1, 5, 2], [-1, 2, 5]])
    text = tmp_path / "rev.txt"
    text.write_text("# comment\n# nodes=8\ni 5 2\nd 2 5\n")
    for stream in (read_stream_binary(binary), read_stream_text(text)):
        assert stream.rows.tolist() == [[1, 2, 5], [-1, 2, 5]]
        assert stream.final_edges() == set()


def test_empty_stream_roundtrips(tmp_path):
    stream = GraphStream(num_nodes=3, updates=[], name="empty")
    text_path = tmp_path / "empty.txt"
    binary_path = tmp_path / "empty.bin"
    write_stream_text(stream, text_path)
    write_stream_binary(stream, binary_path)
    assert len(read_stream_text(text_path)) == 0
    assert len(read_stream_binary(binary_path)) == 0
