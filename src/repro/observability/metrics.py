"""Low-overhead metrics primitives and the process-wide registry.

Three instrument kinds, all ``__slots__`` objects so the hot path is a
couple of attribute loads:

* :class:`Counter` -- monotonically increasing event total.
* :class:`Gauge` -- point-in-time level (set/add); merges take the max.
* :class:`Histogram` -- fixed log-spaced latency buckets (seconds) with
  running sum and count; buckets add under merge, so merge is
  associative and commutative like the XOR sketches themselves.

The :class:`MetricsRegistry` hands out instruments by name
(create-or-get under a lock, lock-free thereafter) and turns into a
picklable :class:`MetricsSnapshot` on demand.  One process-wide default
registry exists per process; it is *never replaced*, only enabled or
disabled, so instrumentation sites may safely cache instrument handles.

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
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "counter",
    "default_registry",
    "disable",
    "enable",
    "enabled",
    "gauge",
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


class Gauge:
    """Point-in-time level; merged snapshots keep the max."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


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
    """Picklable point-in-time copy of a registry.

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

    __slots__ = ("enabled", "_counters", "_gauges", "_histograms", "_lock")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            with self._lock:
                inst = self._counters.setdefault(name, Counter(name))
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            with self._lock:
                inst = self._gauges.setdefault(name, Gauge(name))
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
                gauges={n: g.value for n, g in self._gauges.items()},
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
        """Merge a snapshot (e.g. from a worker process) into live state."""
        for name, value in snap.counters.items():
            self.counter(name).inc(value)
        for name, value in snap.gauges.items():
            g = self.gauge(name)
            g.value = max(g.value, value)
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
            self._gauges.clear()
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


def gauge(name: str) -> Gauge:
    """Shorthand for ``default_registry().gauge(name)``."""
    return _default.gauge(name)
