"""Stream file formats.

Two interchangeable on-disk representations are provided:

* a human-readable text format, one update per line::

      # nodes=1024
      i 0 17
      d 0 17

* a compact binary format: a 16-byte little-endian header (magic, node
  count, update count) followed by one ``int64`` triple ``(kind, u, v)``
  per update -- 24 bytes each, ``kind`` ``+1`` for an insertion and
  ``-1`` for a deletion.  The payload is the
  :attr:`~repro.streaming.stream.GraphStream.rows` array itself, so a
  file is read with one ``frombuffer`` and written with one ``tobytes``.

Both readers hand their rows to
:func:`~repro.streaming.stream.canonical_rows`: an update kind other
than ``+1``/``-1``, a self loop or a negative node id raises
:class:`~repro.exceptions.StreamFormatError` naming the file and the row
(binary) or line (text), as does a bad magic, a truncated header or
payload, a missing or unreadable ``# nodes=`` header and a malformed
line.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Union

import numpy as np

from repro.exceptions import StreamFormatError
from repro.streaming.stream import GraphStream

PathLike = Union[str, Path]

_BINARY_MAGIC = 0x475A5354  # "GZST"
_HEADER = struct.Struct("<IIQ")
_ROW = np.dtype("<i8")
_TEXT_KINDS = {"i": 1, "d": -1}
#: Rows formatted per ``writelines`` call of the text writer.
_TEXT_CHUNK_ROWS = 1 << 16


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------
def write_stream_text(stream: GraphStream, path: PathLike) -> None:
    """Write a stream in the one-update-per-line text format."""
    path = Path(path)
    with path.open("w", encoding="ascii") as handle:
        handle.write(f"# nodes={stream.num_nodes}\n")
        for start in range(0, len(stream), _TEXT_CHUNK_ROWS):
            chunk = stream.rows[start : start + _TEXT_CHUNK_ROWS].tolist()
            handle.writelines(
                f"{'i' if kind == 1 else 'd'} {u} {v}\n" for kind, u, v in chunk
            )


def read_stream_text(path: PathLike, name: str | None = None) -> GraphStream:
    """Read a stream previously written by :func:`write_stream_text`."""
    path = Path(path)
    num_nodes = None
    rows = []
    line_numbers = []
    with path.open("r", encoding="ascii") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    if "nodes=" in line:
                        num_nodes = int(line.split("nodes=")[1])
                    continue
                tag, u, v = line.split()
                rows.append((_TEXT_KINDS[tag], int(u), int(v)))
            except (KeyError, ValueError):
                raise StreamFormatError(
                    f"{path}:{line_number}: malformed line {line!r}"
                ) from None
            line_numbers.append(line_number)
    if num_nodes is None:
        raise StreamFormatError(f"{path}: missing '# nodes=<V>' header")
    try:
        array = np.array(rows, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        raise StreamFormatError(f"{path}: node id does not fit in 64 bits") from None
    return GraphStream.from_rows(
        num_nodes,
        array,
        name=name or path.stem,
        where=lambda index: f"{path}:{line_numbers[index]}",
    )


# ----------------------------------------------------------------------
# binary format
# ----------------------------------------------------------------------
def write_stream_binary(stream: GraphStream, path: PathLike) -> None:
    """Write a stream in the compact binary format."""
    path = Path(path)
    with path.open("wb") as handle:
        handle.write(_HEADER.pack(_BINARY_MAGIC, stream.num_nodes, len(stream)))
        handle.write(stream.rows.astype(_ROW, copy=False).tobytes(order="C"))


def read_stream_binary(path: PathLike, name: str | None = None) -> GraphStream:
    """Read a stream previously written by :func:`write_stream_binary`."""
    path = Path(path)
    with path.open("rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise StreamFormatError(f"{path}: truncated header")
        magic, num_nodes, num_updates = _HEADER.unpack(header)
        if magic != _BINARY_MAGIC:
            raise StreamFormatError(f"{path}: bad magic {magic:#x}")
        payload = handle.read(num_updates * 3 * _ROW.itemsize)
    if len(payload) != num_updates * 3 * _ROW.itemsize:
        raise StreamFormatError(f"{path}: truncated update payload")
    return GraphStream.from_rows(
        int(num_nodes),
        np.frombuffer(payload, dtype=_ROW).reshape(num_updates, 3),
        name=name or path.stem,
        where=lambda index: f"{path}: row {index}",
    )
