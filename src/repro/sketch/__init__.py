"""l0-sampling sketches.

Two samplers are provided:

* :class:`repro.sketch.cubesketch.CubeSketch` -- the paper's
  contribution: an l0-sampler specialised to vectors over the integers
  mod 2 whose buckets hold a single XOR accumulator and a small XOR
  checksum.  Updates are a few XORs; there is no modular arithmetic.
* :class:`repro.sketch.standard_l0.StandardL0Sketch` -- the
  general-purpose sampler (after Cormode & Firmani) whose buckets hold
  three wide integers and whose checksum requires modular
  exponentiation.  It is the baseline the paper compares against in
  Figures 4 and 5.

Both implement the :class:`repro.sketch.sketch_base.L0Sampler` interface
(update / merge / query / size accounting) so the connectivity layer and
the benchmark harness can swap between them.

On top of the samplers sits the columnar sketch engine, every part of
which reads one :class:`repro.sketch.geometry.SketchGeometry` (rounds,
columns, rows and bucket mode, derived once per graph):

* :class:`repro.sketch.flat_node_sketch.FlatNodeSketch` -- one node's
  entire bundle of per-round CubeSketches flattened into two contiguous
  uint64 tensors, updated by a single hash-matrix + level-peeling
  segmented-XOR kernel instead of Python loops over rounds and columns
  (bit-identical to the per-round CubeSketch bundles under the same seed);
* :class:`repro.sketch.tensor_pool.NodeTensorPool` -- the whole graph's
  sketch state in one tensor pair, able to fold mixed multi-node update
  columns in one kernel pass and answer Boruvka cut queries with one
  gather + XOR reduction;
* :class:`repro.sketch.paged_pool.PagedTensorPool` -- the out-of-core
  twin: the same round-major tensors partitioned into node-group pages
  stored through the hybrid memory, with an LRU-pinned working set,
  dirty write-back, one fold pass per batch scattered page by page, and
  round slabs assembled via partial-range reads.
"""

from repro.sketch.cubesketch import CubeSketch
from repro.sketch.geometry import SketchGeometry
from repro.sketch.flat_node_sketch import FlatNodeSketch, query_bucket_arrays_batch
from repro.sketch.sketch_base import (
    SAMPLE_FAIL,
    SAMPLE_GOOD,
    SAMPLE_ZERO,
    L0Sampler,
    SampleOutcome,
    SampleResult,
)
from repro.sketch.sizes import (
    cubesketch_num_buckets,
    cubesketch_size_bytes,
    standard_l0_num_buckets,
    standard_l0_size_bytes,
)
from repro.sketch.paged_pool import PagedTensorPool
from repro.sketch.standard_l0 import StandardL0Sketch
from repro.sketch.tensor_pool import NodeTensorPool

__all__ = [
    "CubeSketch",
    "FlatNodeSketch",
    "L0Sampler",
    "NodeTensorPool",
    "PagedTensorPool",
    "query_bucket_arrays_batch",
    "SAMPLE_FAIL",
    "SAMPLE_GOOD",
    "SAMPLE_ZERO",
    "SampleOutcome",
    "SampleResult",
    "SketchGeometry",
    "StandardL0Sketch",
    "cubesketch_num_buckets",
    "cubesketch_size_bytes",
    "standard_l0_num_buckets",
    "standard_l0_size_bytes",
]
