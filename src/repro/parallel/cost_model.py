"""Analytic scaling model for parallel stream ingestion.

:class:`ThreadScalingModel` is the paper's Figure-14 model.  The paper
shows ingestion rising ~26x from 1 to 46 threads on a 24-core
(48-thread) machine; a pure-Python reproduction cannot demonstrate
that directly, so the Figure-14 benchmark combines a small real
thread-pool measurement with this calibrated Amdahl + contention +
hyper-threading model.  :func:`usable_cores` is the affinity-aware core
count the sharded ingestor clamps its worker count to.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List


def usable_cores() -> int:
    """CPU cores actually usable by this process.

    Respects CPU affinity masks (taskset, cgroup cpusets in containers)
    where the platform exposes them -- ``os.cpu_count()`` alone reports
    the host's cores and would let a "clamp to cores" guard oversubscribe
    a pinned process.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ThreadScalingModel:
    """Predicts ingestion rate as a function of the worker count.

    Attributes
    ----------
    single_thread_rate:
        Measured updates/second with one Graph Worker.
    serial_fraction:
        Fraction of per-update work that cannot be parallelised.
    contention_per_worker:
        Incremental slowdown per additional worker from queue and cache
        contention.
    physical_cores:
        Workers beyond this count contribute at ``hyperthread_yield``
        of a physical core.
    hyperthread_yield:
        Relative throughput of a hyper-thread (0..1).
    """

    single_thread_rate: float
    serial_fraction: float = 0.015
    contention_per_worker: float = 0.004
    physical_cores: int = 24
    hyperthread_yield: float = 0.35

    def effective_workers(self, num_workers: int) -> float:
        """Workers weighted by physical-core vs hyper-thread contribution."""
        if num_workers <= self.physical_cores:
            return float(num_workers)
        extra = num_workers - self.physical_cores
        return self.physical_cores + extra * self.hyperthread_yield

    def speedup(self, num_workers: int) -> float:
        """Predicted speedup over a single worker."""
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        workers = self.effective_workers(num_workers)
        amdahl = 1.0 / (self.serial_fraction + (1.0 - self.serial_fraction) / workers)
        contention = 1.0 + self.contention_per_worker * (num_workers - 1)
        return amdahl / contention

    def ingestion_rate(self, num_workers: int) -> float:
        """Predicted updates/second for ``num_workers`` Graph Workers."""
        return self.single_thread_rate * self.speedup(num_workers)

    def curve(self, worker_counts: List[int]) -> List[dict]:
        """Model predictions for a list of worker counts (bench output rows)."""
        return [
            {
                "threads": count,
                "speedup": self.speedup(count),
                "ingestion_rate": self.ingestion_rate(count),
            }
            for count in worker_counts
        ]

    @classmethod
    def paper_like(cls, single_thread_rate: float) -> "ThreadScalingModel":
        """Constants calibrated so 46 threads land near the paper's ~26x."""
        return cls(
            single_thread_rate=single_thread_rate,
            serial_fraction=0.012,
            contention_per_worker=0.0035,
            physical_cores=24,
            hyperthread_yield=0.5,
        )
