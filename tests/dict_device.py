"""The dict-backed block device: the out-of-core tests' fault-injection double.

:class:`DictBlockDevice` keeps every block as its own ``bytes`` object
in a dict -- the product's storage before the device became a file --
and shares everything else (records, digests, bit rot, accounting) with
:class:`~repro.memory.block_device.FileBlockDevice` through their
:class:`~repro.memory.block_device.BlockDevice` base.  The ``device``
fixture in ``conftest.py`` makes every :class:`HybridMemory` of a test
build one or the other; the helpers below inspect and rot a stored
block on either, so an integrity test runs unchanged on both.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.memory.block_device import BlockDevice, FileBlockDevice


class DictBlockDevice(BlockDevice):
    """Blocks as ``bytes`` in a dict, one per block."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._blocks: Dict[int, bytes] = {}

    def _store(self, start_block, data) -> None:
        block_size = self.block_size
        view = memoryview(data)
        for index, lo in enumerate(range(0, max(len(view), 1), block_size)):
            self._blocks[start_block + index] = bytes(view[lo : lo + block_size])

    def _fetch(self, start_block, sizes, view, at) -> None:
        for block_id, size in enumerate(sizes, start_block):
            view[at : at + size] = self._blocks[block_id]
            at += size

    def delete_block(self, block_id) -> None:
        super().delete_block(block_id)
        self._blocks.pop(block_id, None)


#: ``device`` fixture ids -> the device type a test's memories build.
DEVICE_TYPES = {"file": FileBlockDevice, "dict": DictBlockDevice}


def stored_block(device: BlockDevice, block_id: int) -> Optional[bytes]:
    """The bytes stored for ``block_id`` (``None`` if it holds none),
    read without charging an I/O or checking a digest."""
    if not 0 <= block_id < len(device._sizes) or device._sizes[block_id] < 0:
        return None
    if isinstance(device, DictBlockDevice):
        return device._blocks[block_id]
    size = device._sizes[block_id]
    return os.pread(device._fd, size, block_id * device.block_size)


def stored_blocks(device: BlockDevice) -> Dict[int, bytes]:
    """Every stored block, by id."""
    return {
        block_id: stored_block(device, block_id)
        for block_id, size in enumerate(device._sizes)
        if size >= 0
    }


def rot_stored_block(device: BlockDevice, block_id: int, bit: int = 0) -> None:
    """Flip one bit of a stored block behind the device's back."""
    raw = bytearray(stored_block(device, block_id))
    raw[bit >> 3] ^= 1 << (bit & 7)
    overwrite_stored_block(device, block_id, bytes(raw))


def overwrite_stored_block(device: BlockDevice, block_id: int, data: bytes) -> None:
    """Replace a stored block's bytes (same length) behind the device's back."""
    assert len(data) == device._sizes[block_id]
    if isinstance(device, DictBlockDevice):
        device._blocks[block_id] = data
    else:
        os.pwrite(device._fd, data, block_id * device.block_size)
