"""Span-based tracing feeding latency histograms and a trace ring.

:func:`span` is the single instrumentation primitive used across the
codebase::

    with span("ingest.fold"):
        ... hot work ...

When the default registry is disabled it returns a shared no-op
context manager -- no allocation, no clock read.  When enabled it
records the wall duration into ``registry.histogram(name)`` and, if a
:class:`TraceRing` is installed, appends a complete-event record that
:func:`chrome_trace` exports as Chrome ``trace_event`` JSON
(load via ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import os
import threading
from collections import deque
from time import perf_counter
from typing import Deque, List, Optional, Tuple

from repro.observability.metrics import MetricsRegistry, default_registry

__all__ = [
    "TraceRing",
    "chrome_trace",
    "install_trace_ring",
    "record_span",
    "span",
]


class TraceRing:
    """Bounded in-memory ring of completed spans.

    Entries are ``(name, start_seconds, duration_seconds, thread_id)``
    tuples; the deque drops the oldest once ``capacity`` is reached, so
    memory stays bounded no matter how long the stream runs.
    """

    __slots__ = ("capacity", "_events")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("trace ring capacity must be positive")
        self.capacity = capacity
        self._events: Deque[Tuple[str, float, float, int]] = deque(maxlen=capacity)

    def record(self, name: str, start: float, duration: float) -> None:
        self._events.append((name, start, duration, threading.get_ident()))

    def events(self) -> List[Tuple[str, float, float, int]]:
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


_ring: Optional[TraceRing] = None


def install_trace_ring(capacity: int = 4096) -> TraceRing:
    """Install (or replace) the process-wide trace ring and return it;
    :func:`remove_trace_ring` uninstalls it."""
    global _ring
    _ring = TraceRing(capacity)
    return _ring


def remove_trace_ring() -> None:
    global _ring
    _ring = None


class _NopTimer:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NopTimer":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NOP = _NopTimer()


class _Span:
    __slots__ = ("_name", "_registry", "_start")

    def __init__(self, name: str, registry: MetricsRegistry) -> None:
        self._name = name
        self._registry = registry

    def __enter__(self) -> "_Span":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        record_span(self._name, self._start, perf_counter() - self._start, self._registry)


def span(name: str, registry: Optional[MetricsRegistry] = None):
    """Time a block into ``histogram(name)``; no-op when disabled."""
    reg = registry if registry is not None else default_registry()
    if not reg.enabled:
        return _NOP
    return _Span(name, reg)


def record_span(
    name: str, start: float, duration: float, registry: Optional[MetricsRegistry] = None
) -> None:
    """Record a span timed elsewhere (in C, say) as :func:`span` would:
    seconds, ``start`` on the ``perf_counter`` clock."""
    registry = registry if registry is not None else default_registry()
    if registry.enabled:
        registry.histogram(name).observe(duration)
        ring = _ring
        if ring is not None:
            ring.record(name, start, duration)


def chrome_trace(ring: Optional[TraceRing] = None) -> dict:
    """Export a trace ring as Chrome ``trace_event`` JSON (dict form).

    Timestamps are microseconds relative to the earliest span in the
    ring, which is what the Chrome/Perfetto viewers expect.
    """
    ring = ring if ring is not None else _ring
    events = ring.events() if ring is not None else []
    base = min((start for _, start, _, _ in events), default=0.0)
    pid = os.getpid()
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": name,
                "ph": "X",
                "ts": (start - base) * 1e6,
                "dur": duration * 1e6,
                "pid": pid,
                "tid": tid,
            }
            for name, start, duration, tid in events
        ],
    }
