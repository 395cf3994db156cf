"""The two per-round C kernels of the native Boruvka loop, driven directly.

The engine reaches ``repro_sample_components`` (the fused sample) and
``repro_round_tail`` only through ``repro_boruvka``, which starts every
query from singleton components.  These drivers call them on their own,
so the contract tests can feed them any labels, masks and samples.
"""

import numpy as np

from repro.core.boruvka import MERGED
from repro.kernels.native_cc import _addr


def fused_sample(lib, pool, labels, round_index=0, mask=None):
    """Round ``round_index``'s fused sample of ``labels`` over an in-RAM
    ``pool``, nodes outside ``mask`` (default: none) left out, no memo:
    ``(roots, statuses, indices)`` as ``query_components`` returns them.
    A label outside the graph raises ``ValueError``."""
    n, cols, rows = pool.num_nodes, pool.num_columns, pool.num_rows
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    active = np.ones(n, np.uint8) if mask is None else np.ascontiguousarray(mask, np.uint8)
    work, (roots, indices) = np.empty(2 * n + 1, np.int64), np.empty((2, n), np.int64)
    statuses, changed = np.empty((2, n), np.uint8)
    acc = np.empty(2 * cols * rows, np.uint64)
    slab, gamma = (*pool._round_views(round_index), None)[:2]
    seeds = pool._mixed_checksum[round_index * cols :]
    count = lib.repro_sample_components(
        n, cols, rows, _addr(labels), _addr(active), pool.encoder.vector_length,
        *map(_addr, (work, acc, changed, roots, statuses, indices, slab, gamma, seeds)),
        None, None, None, None, 0,
    )
    if count < 0:
        raise ValueError(f"component label outside [0, {n})")
    return roots[:count], statuses[:count], indices[:count]


class NativeTail:
    """A query's per-node state, stepped by the C round tail.

    The attributes are :class:`~repro.core.boruvka.RoundQuery`'s, so one
    table test reads both after every round.
    """

    def __init__(self, lib, num_nodes, encoder):
        self._lib, self._slot_nodes = lib, encoder.num_nodes
        self.labels, self.parent = np.tile(np.arange(num_nodes, dtype=np.int64), (2, 1))
        self.size = np.ones(num_nodes, np.int64)
        self.settled = np.zeros(num_nodes, bool)
        self.active = np.ones(num_nodes, bool)
        self.edges = np.empty((2, num_nodes), np.int64)
        self.counts = np.zeros(MERGED + 1, np.int64)
        self._work = np.empty(2 * num_nodes + 1, np.int64)

    def tail(self, roots, statuses, indices):
        """One round's tail over the samples of ``roots``."""
        roots, indices = (np.ascontiguousarray(x, np.int64) for x in (roots, indices))
        statuses = np.ascontiguousarray(statuses, np.uint8)
        state = (self.parent, self.size, self.settled, self.labels, self.active)
        outputs = (roots, statuses, indices, self._work, self.edges, self.counts)
        if self._lib.repro_round_tail(
            *map(_addr, state), self.labels.size, self._slot_nodes,
            *map(_addr, outputs), roots.size,
        ) < 0:
            raise ValueError("round sample outside the graph")
