"""Hybrid-memory (RAM + simulated disk) substrate.

The paper's hybrid graph streaming model (Section 2.1) gives an
algorithm ``O(polylog V)`` RAM plus ``O(V polylog V)`` disk, where disk
is only accessible in blocks of ``B`` words.  The evaluation then runs
GraphZeppelin, Aspen and Terrace with artificially limited RAM so their
data structures spill to SSD.

This package simulates that environment deterministically:

* :class:`repro.memory.block_device.BlockDevice` -- a block-addressed
  store that counts reads/writes and models sequential vs random access
  latency,
* :class:`repro.memory.hybrid.HybridMemory` -- the device plus the RAM
  budget *ledger*; objects stored through it report how many I/Os and
  how much modelled time their access pattern would cost on an SSD.
  There is one RAM tier and the memory does not own it: the paged
  tensor pool keeps its working set in preallocated page frames
  reserved from the budget, ``load`` reads into a frame and ``store``
  writes from one -- no second, byte-format cache sits in between,
* :class:`repro.memory.metrics.IOStats` -- the counters every component
  shares.

Benchmarks that report "on-SSD" behaviour use the modelled time from
this substrate rather than wall-clock time, so results are reproducible
on any machine.
"""

from repro.memory.block_device import BlockDevice, DeviceProfile
from repro.memory.hybrid import HybridMemory
from repro.memory.metrics import IOStats

__all__ = [
    "BlockDevice",
    "DeviceProfile",
    "HybridMemory",
    "IOStats",
]
