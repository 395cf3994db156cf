"""Update buffering: leaf-only gutters and the gutter tree.

GraphZeppelin never applies a stream update to a node sketch
immediately.  Updates are collected per destination node group and
applied in batches, which amortises the cost of bringing the group's
sketches into cache or RAM (Sections 4 and 5.1 of the paper).

Two buffering structures are provided, matching the paper:

* :class:`repro.buffering.leaf_gutters.LeafGutters` -- one gutter per
  node-group page, used when RAM is plentiful (``M > V * B``),
* :class:`repro.buffering.gutter_tree.GutterTree` -- a simplified
  buffer tree whose leaves are the gutters, used when even the gutters
  do not fit in RAM; parent-to-child flushes are charged to the
  block device's latency model (no bytes are written).

Both emit :class:`repro.buffering.base.PageBatch` mixed-node columns,
which the engine folds in one kernel pass per page.
"""

from repro.buffering.base import BufferingSystem, PageBatch
from repro.buffering.gutter_tree import GutterTree
from repro.buffering.leaf_gutters import LeafGutters

__all__ = ["BufferingSystem", "GutterTree", "LeafGutters", "PageBatch"]
