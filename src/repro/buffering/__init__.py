"""Update buffering: leaf gutters, optionally behind a gutter tree.

GraphZeppelin never applies a stream update to a node sketch
immediately.  Updates are collected per destination node group and
applied in batches, which amortises the cost of bringing the group's
sketches into cache or RAM (Sections 4 and 5.1 of the paper).

There is one gutter implementation,
:class:`repro.buffering.leaf_gutters.LeafGutters`: one gutter per
node-group page, used when RAM is plentiful (``M > V * B``), and the
interface the engine programs against.
:class:`repro.buffering.gutter_tree.GutterTree` is the same leaf
gutters behind the staging levels of a buffer tree, used when even the
gutters do not fit in RAM; a vertex flush routes its whole buffer with
one ``searchsorted`` and one grouping pass, and is charged to the block
device's latency model (no bytes are written).

Both emit :class:`repro.buffering.base.PageBatch` mixed-node columns,
which the engine folds as one emission.
"""

from repro.buffering.base import PageBatch
from repro.buffering.gutter_tree import GutterTree
from repro.buffering.leaf_gutters import LeafGutters

__all__ = ["GutterTree", "LeafGutters", "PageBatch"]
