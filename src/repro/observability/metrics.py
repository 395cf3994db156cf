"""Low-overhead metrics primitives and the process-wide registry.

Two instrument kinds, both ``__slots__`` objects so the hot path is a
couple of attribute loads:

* :class:`Counter` -- monotonically increasing event total.
* :class:`Histogram` -- fixed log-spaced latency buckets (seconds) with
  running sum and count; buckets add under merge, so merge is
  associative and commutative like the XOR sketches themselves.

The :class:`MetricsRegistry` hands out instruments by name
(create-or-get under a lock, lock-free thereafter) and turns into a
picklable :class:`MetricsSnapshot` on demand.  One process-wide
default registry exists per process; it is *never replaced*, only
enabled or disabled, so instrumentation sites may safely cache
instrument handles.  Levels (an engine's I/O, page and breaker state)
are not instruments: each stays with the object that owns it, and
``GraphZeppelin.metrics()`` reads them into the snapshot's ``gauges``.

Thread-safety note: increments are plain ``+=`` on purpose.  Under
free-threading two racing increments may lose one -- acceptable for
telemetry -- while cross-process aggregation is exact because each
worker process owns a private registry whose snapshot is merged once.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "counter",
    "default_registry",
    "disable",
    "enable",
    "enabled",
]

# Log-spaced seconds: 1us .. 10s, four buckets per decade.  Wide enough
# for a single page pin and a whole chaos soak in the same histogram.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(10.0 ** (exp / 4.0), 12) for exp in range(-24, 5)
)


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket latency histogram over seconds.

    ``counts`` has ``len(bounds) + 1`` slots; the final slot is the
    +Inf overflow bucket.  ``observe`` is a single bisect plus three
    in-place updates.
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count")

    def __init__(
        self, name: str, bounds: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable, picklable view of one histogram."""

    bounds: Tuple[float, ...]
    counts: Tuple[int, ...]
    sum: float
    count: int

    def merged_with(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            sum=self.sum + other.sum,
            count=self.count + other.count,
        )

    def quantile(self, q: float) -> float:
        """Upper bucket bound at quantile ``q`` (0..1); 0.0 when empty."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")


@dataclass
class MetricsSnapshot:
    """Picklable point-in-time copy of a registry, plus the ``gauges``
    (levels) of the engine whose ``metrics()`` built it.

    Merges associatively: counters add, gauges take the max (levels,
    not totals), histogram buckets add.  Travels through
    ``DistributedReport`` / ``ChaosReport`` exactly like pool
    snapshots travel through the distributed merge.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSnapshot] = field(default_factory=dict)

    def merged_with(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges.get(name, value), value)
        histograms = dict(self.histograms)
        for name, hist in other.histograms.items():
            mine = histograms.get(name)
            histograms[name] = hist if mine is None else mine.merged_with(hist)
        return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)


class MetricsRegistry:
    """Named instrument store with a disabled fast path.

    ``enabled`` gates the tracing layer: :func:`repro.observability.tracing.span`
    checks it once and returns a shared no-op timer when false, so a
    disabled registry costs one attribute read per hot site.
    """

    __slots__ = ("enabled", "_counters", "_histograms", "_lock")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            with self._lock:
                inst = self._counters.setdefault(name, Counter(name))
        return inst

    def histogram(
        self, name: str, bounds: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            with self._lock:
                inst = self._histograms.setdefault(name, Histogram(name, bounds))
        return inst

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(
                counters={n: c.value for n, c in self._counters.items()},
                histograms={
                    n: HistogramSnapshot(
                        bounds=h.bounds,
                        counts=tuple(h.counts),
                        sum=h.sum,
                        count=h.count,
                    )
                    for n, h in self._histograms.items()
                },
            )

    def absorb(self, snap: MetricsSnapshot) -> None:
        """Merge a snapshot's counters and histograms (e.g. from a worker
        process) into live state; its gauges are another engine's levels
        and stay in the snapshot."""
        for name, value in snap.counters.items():
            self.counter(name).inc(value)
        for name, hist in snap.histograms.items():
            mine = self.histogram(name, hist.bounds)
            if mine.bounds != hist.bounds:
                raise ValueError("cannot absorb histogram with different buckets")
            for i, c in enumerate(hist.counts):
                mine.counts[i] += c
            mine.sum += hist.sum
            mine.count += hist.count

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


_default = MetricsRegistry(enabled=True)


def default_registry() -> MetricsRegistry:
    """The process-wide registry.  Identity is stable for the process
    lifetime -- instrumentation sites may cache instrument handles."""
    return _default


def enable() -> None:
    _default.enabled = True


def disable() -> None:
    _default.enabled = False


def enabled() -> bool:
    return _default.enabled


def counter(name: str) -> Counter:
    """Shorthand for ``default_registry().counter(name)``."""
    return _default.counter(name)
