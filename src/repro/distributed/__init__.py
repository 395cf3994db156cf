"""The distributed plane: pool snapshots, XOR merges, multi-ingestor runs.

Everything here builds on one fact about the sketch engine: L0 sketch
state is *linear*, so the XOR of two pools built from disjoint update
sub-streams is bit-identical to the pool of the concatenated stream.
:mod:`repro.distributed.snapshot` turns a whole tensor pool into a
versioned binary blob (and back, and merges blobs into a pool; engines
reach it through ``GraphZeppelin.load_snapshot`` / ``merge_snapshots``);
:mod:`repro.distributed.multi_ingestor` splits a heavy stream across
independent worker processes and merges their snapshots into one
queryable engine.
"""

from repro.distributed.multi_ingestor import (
    DistributedReport,
    distributed_ingest,
    partition_round_robin,
)
from repro.distributed.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotMeta,
    load_snapshot_into,
    merge_snapshots_into,
    read_snapshot_meta,
    save_pool_snapshot,
    verify_snapshot_payload,
)

__all__ = [
    "SNAPSHOT_MAGIC",
    "SnapshotMeta",
    "DistributedReport",
    "distributed_ingest",
    "partition_round_robin",
    "load_snapshot_into",
    "merge_snapshots_into",
    "read_snapshot_meta",
    "save_pool_snapshot",
    "verify_snapshot_payload",
]
