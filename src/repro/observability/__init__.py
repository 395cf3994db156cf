"""Unified observability plane: metrics, tracing, exposition, logging.

Every subsystem of the engine records into one process-wide
:class:`~repro.observability.metrics.MetricsRegistry` -- counters for
event totals and fixed-bucket latency histograms fed by the
:func:`~repro.observability.tracing.span` timers wrapped around every
hot site (ingest folds, Boruvka query rounds, page
pin/evict/write-back, device calls, checkpoint writes, scrub/repair,
snapshot save/load/merge, and the distributed worker lifecycle).
An engine's levels (I/O, page, breaker and checkpoint state) stay with
their owners; ``GraphZeppelin.metrics()`` reads them as the snapshot's
gauges when it is called.

Design constraints, in order:

1. **Off is free.**  When the registry is disabled,
   :func:`~repro.observability.tracing.span` returns a shared no-op
   context manager -- no allocation, no clock read -- so the fold hot
   loop pays one attribute check (property-tested zero-allocation).
2. **On is cheap.**  Instrumentation sits at batch/round/page
   granularity, never per edge.  Enabled is the default, so its cost
   is inside every ``bench/run.py`` number; an on-versus-off ratio has
   no benchmark workload yet.
3. **Snapshots merge like pool snapshots.**  A
   :class:`~repro.observability.metrics.MetricsSnapshot` is a picklable
   value object; per-worker registries travel back through
   ``DistributedReport`` / ``ChaosReport`` and merge associatively
   (counters and histogram buckets add, gauges take the max), so the
   merged two-worker totals equal a serial run's -- the same linearity
   story the sketches themselves tell.

Registry state is pure telemetry: it never enters
:meth:`~repro.core.config.GraphZeppelinConfig.sketch_fingerprint` and
never perturbs sketch state (forests are bit-identical with
observability on, off, or merged -- property-tested).
"""

from __future__ import annotations

from repro.observability.exposition import metrics_json, prometheus_text
from repro.observability.log import configure_logging, get_logger
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    counter,
    default_registry,
    disable,
    enable,
    enabled,
)
from repro.observability.tracing import (
    TraceRing,
    chrome_trace,
    install_trace_ring,
    span,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "TraceRing",
    "chrome_trace",
    "configure_logging",
    "counter",
    "default_registry",
    "disable",
    "enable",
    "enabled",
    "get_logger",
    "install_trace_ring",
    "metrics_json",
    "prometheus_text",
    "span",
]
