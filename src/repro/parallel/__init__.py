"""Parallel stream ingestion: sharded columnar worker threads over the tensor pool.

**Shard-ownership model.**  The node space ``[0, V)`` is partitioned
into ``num_shards`` contiguous ranges; each shard owns the slab of
:class:`~repro.sketch.tensor_pool.NodeTensorPool` tensors holding its
nodes' buckets, across every Boruvka round, and is the only writer that
ever touches them.  A batch of edge updates is mirrored (one copy per
endpoint), split into per-shard groups with one vectorised
``searchsorted`` + radix-argsort pass, and each group is folded through
the shared columnar kernel straight into its shard's slab by a thread
of :class:`repro.parallel.graph_workers.ShardedIngestor` -- no
per-node locks, no shared mutable state between shards.  XOR-folds
commute, so the result is bit-identical to serial ingest under the same
seed regardless of worker interleaving.

Sharded ingest runs on threads over the in-RAM pool only: numpy
releases the GIL inside the hash/sort kernels and the native kernels
release it for the whole fold.  A RAM-budgeted engine ingests serially.
Serial in-RAM ingest reaches every core another way, by splitting one
large fold by Boruvka round (:mod:`repro.sketch.round_split`); shard
workers never split.

Serial and sharded ingest run the same fold kernel, whose cost does not
depend on a group's node range, so sharding buys concurrency only and
shards are sized for load balance (a few per worker).
:class:`repro.parallel.cost_model.ThreadScalingModel` is the paper's
calibrated Figure-14 curve.
"""

from repro.parallel.cost_model import ThreadScalingModel
from repro.parallel.graph_workers import ShardedIngestor, partition_mirrored_updates

__all__ = [
    "ShardedIngestor",
    "ThreadScalingModel",
    "partition_mirrored_updates",
]
