"""Outside-in tracer: spans around the calls into each layer.

The program is not edited.  :data:`WRAP_TABLE` names public functions
and methods of ``repro``; :meth:`Tracer.install` replaces each with a
timing wrapper -- on the defining class for methods, and in every loaded
``repro.*`` / ``bench.*`` module that imported the name for functions --
and :meth:`Tracer.uninstall` puts the originals back.  Each call records
one span (metric, start, end, parent); a layer metric is the summed
*self* time of its spans, duration minus the children's durations.

Only spans that start while a benchmark *root* span is open are rolled
up (a root is one timed operation of a workload), so the roll-up covers
exactly the timed total: main-thread self times plus the roots' own
self time (``trace.unattributed_s``) add up to it.  Spans on other
threads (the shard workers) overlap the main thread's wait, so they are
reported as busy time of their own (``parallel.worker_busy_s``) and kept
out of that sum.

Nothing that runs once per update is wrapped (``GraphZeppelin._ingest``,
``insert_edge``, the per-update gutter ``insert``): a wrapper there
would cost more than the call.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Module placeholder for "the class of the live native kernel provider".
PROVIDER = "@provider"

_POOLS = ("repro.sketch.tensor_pool:NodeTensorPool", "repro.sketch.paged_pool:PagedTensorPool")
_GUTTERS = ("repro.buffering.leaf_gutters:LeafGutters", "repro.buffering.gutter_tree:GutterTree")
_ENGINE = "repro.core.graph_zeppelin:GraphZeppelin"
_MEMORY = "repro.memory.hybrid:HybridMemory"


def _fold_work(rows: Callable[[tuple], int]) -> Callable:
    """Count one fold call and the sketch updates it applies.

    ``rows`` reads the update count off the call's positional arguments
    (``self`` first); every call site in ``repro`` passes them by position.
    """
    return lambda args, kwargs, result: {
        "sketch.fold_calls": 1,
        "sketch.fold_updates": rows(args),
    }


def _emitted_work(args, kwargs, result) -> Dict[str, int]:
    return {
        "buffering.batches_emitted": len(result),
        "buffering.updates_emitted": sum(len(batch) for batch in result),
    }


def _rows_work(args, kwargs, result) -> Dict[str, int]:
    return {"streaming.rows": len(result)}


# The fold entry points that do not delegate to one another, with the
# number of sketch updates a call applies.  The mirrored edge entry
# point folds each row into both endpoints.
_FOLD_ENTRY_POINTS: Dict[str, Callable[[tuple], int]] = {
    "apply_edges": lambda a: 2 * len(a[1]),
    "apply_updates": lambda a: len(a[1]),
    "apply_node_batch": lambda a: len(a[2]),
    "fold_shard": lambda a: len(a[1]),
    "fold_shard_hashed": lambda a: len(a[1]),
}

#: (layer metric, "module:Qualified.name", optional work counter).
WRAP_TABLE: List[Tuple[str, str, Optional[Callable]]] = [
    ("streaming.read_s", "repro.streaming.io:read_stream_binary", _rows_work),
    ("streaming.edge_array_s", "repro.streaming.stream:GraphStream.edge_array", None),
    ("core.ingest_batch_self_s", f"{_ENGINE}.ingest_batch", None),
    ("core.encode_s", "repro.core.edge_encoding:EdgeEncoder.encode_canonical_pairs", None),
    ("core.point_ingest_self_s", f"{_ENGINE}.ingest", None),
    ("core.point_ingest_self_s", f"{_ENGINE}.flush", None),
    ("core.boruvka_self_s", f"{_ENGINE}.list_spanning_forest", None),
    ("hashing.hash_matrix_s", "repro.hashing.mixers:seeded_hash64_matrix", None),
    ("hashing.hash_matrix_s", "repro.hashing.mixers:hash_to_depth", None),
    ("hashing.hash_matrix_s", "repro.sketch.flat_node_sketch:hash_depths_checksums", None),
    *[
        ("sketch.fold_self_s", f"{pool}.{name}", _fold_work(rows))
        for pool in _POOLS
        for name, rows in _FOLD_ENTRY_POINTS.items()
    ],
    # Delegates to fold_shard, which does the counting.
    ("sketch.fold_self_s", f"{_POOLS[0]}.fold_page_batch", None),
    ("sketch.query_components_self_s", f"{_POOLS[0]}.query_components", None),
    ("kernels.fold_s", f"{PROVIDER}:fold_pool", None),
    ("kernels.fold_s", f"{PROVIDER}:fold_pool_edges", None),
    ("kernels.fold_s", f"{PROVIDER}:fold_page", None),
    ("kernels.fold_s", f"{PROVIDER}:fold_bundle", None),
    ("kernels.segment_xor_s", f"{PROVIDER}:segment_xor", None),
    ("kernels.decode_s", f"{PROVIDER}:decode_column", None),
    *[("buffering.insert_s", f"{gutters}.insert_batch", _emitted_work) for gutters in _GUTTERS],
    *[("buffering.flush_s", f"{gutters}.flush_all", _emitted_work) for gutters in _GUTTERS],
    ("memory.load_s", f"{_MEMORY}.load", None),
    ("memory.store_s", f"{_MEMORY}.store", None),
    ("memory.load_range_s", f"{_MEMORY}.load_range", None),
    ("integrity.digest_s", "repro.integrity.digest:block_digests", None),
    ("integrity.digest_s", "repro.integrity.digest:payload_digest", None),
    ("parallel.ingest_stream_s", "repro.parallel.graph_workers:ShardedIngestor.ingest_stream", None),
    ("parallel.partition_s", "repro.parallel.graph_workers:partition_mirrored_updates", None),
    ("distributed.snapshot_save_s", f"{_ENGINE}.save_snapshot", None),
    ("distributed.snapshot_load_s", f"{_ENGINE}.load_snapshot", None),
    ("distributed.merge_s", "repro.distributed.snapshot:merge_snapshots_into", None),
]

#: Every timing metric the table can produce, in table order.
TIMING_METRICS = tuple(dict.fromkeys(metric for metric, _, _ in WRAP_TABLE))
_ROOT = "bench.root"


class Tracer:
    """Records spans for the wrapped calls of one workload run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[Tuple[str, list]] = []
        self._lock = threading.Lock()
        self._root_open = False
        self._undo: List[Tuple[Any, str, Any]] = []
        self.missing_targets: List[str] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.span_cost_s = 0.0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _thread_state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append((threading.current_thread().name, local.spans))
            return local.spans, local.stack

    def _wrapper(self, metric: str, fn: Callable, work: Optional[Callable]) -> Callable:
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self._root_open:
                return fn(*args, **kwargs)
            spans, stack = self._thread_state()
            record = [metric, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if work is not None:
                with self._lock:
                    for name, amount in work(args, kwargs, result).items():
                        self.counts[name] += amount
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    @contextmanager
    def root(self, kind: str):
        """One timed operation of the benchmark; wrapped calls nest under it."""
        spans, stack = self._thread_state()
        record = [f"{_ROOT}.{kind}", time.perf_counter(), 0.0, -1]
        stack.append(len(spans))
        spans.append(record)
        self._root_open = True
        try:
            yield
        finally:
            self._root_open = False
            record[2] = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.kernels import native_kernels

        provider = native_kernels()
        for metric, target, work in WRAP_TABLE:
            module_name, _, qualname = target.partition(":")
            try:
                if module_name == PROVIDER:
                    if provider is None:
                        continue  # numpy-only host: no provider rows to wrap
                    owner, name = type(provider), qualname
                else:
                    owner = importlib.import_module(module_name)
                    *path, name = qualname.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            except (ImportError, AttributeError, KeyError):
                self.missing_targets.append(target)
                continue
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(self._wrapper(metric, original.__func__, work))
            else:
                wrapped = self._wrapper(metric, original, work)
            if isinstance(owner, type):
                self._patch(owner, name, original, wrapped)
            else:
                # A function: also replace every `from x import f` copy.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").split(".")[0] not in ("repro", "bench"):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapped)
        self.span_cost_s = self._calibrate()

    def _patch(self, owner: Any, name: str, original: Any, wrapped: Any) -> None:
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _calibrate(self, calls: int = 20000) -> float:
        """Cost of one span: a wrapped no-op against the bare no-op."""

        def noop():
            return None

        traced = self._wrapper("trace.calibration", noop, None)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        with self.root("calibration"):
            start = time.perf_counter()
            for _ in range(calls):
                traced()
            cost = time.perf_counter() - start
        for _, spans in self._threads:
            spans.clear()
        return max(cost - bare, 0.0) / calls

    # ------------------------------------------------------------------
    # roll-up
    # ------------------------------------------------------------------
    def rollup(self) -> Dict[str, float]:
        """Self seconds per metric, plus the trace's own bookkeeping.

        ``trace.timed_total_s`` is the summed root durations,
        ``trace.unattributed_s`` the roots' self time, and
        ``parallel.worker_busy_s`` the summed top-level span durations
        on threads other than the one that opened the roots.
        """
        out: Dict[str, float] = defaultdict(float)
        total_spans = 0
        for _, spans in self._threads:
            total_spans += len(spans)
            own = [end - start for _, start, end, _ in spans]
            main = any(span[0].startswith(_ROOT) for span in spans)
            for _, start, end, parent in spans:
                if parent >= 0:
                    own[parent] -= end - start
                elif not main:
                    out["parallel.worker_busy_s"] += end - start
            if not main:
                continue
            for (metric, start, end, _), self_s in zip(spans, own):
                if metric.startswith(_ROOT):
                    out["trace.timed_total_s"] += end - start
                    out["trace.unattributed_s"] += self_s
                else:
                    out[metric] += self_s
        out["trace.spans"] = total_spans
        return out

    def chrome_trace(self, path) -> None:
        """Write every span as a Chrome ``trace_event`` complete event."""
        events = []
        for tid, (thread_name, spans) in enumerate(self._threads):
            events.append(
                {"ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
                 "args": {"name": thread_name}}
            )
            for metric, start, end, _ in spans:
                events.append(
                    {"ph": "X", "pid": 0, "tid": tid, "name": metric,
                     "ts": start * 1e6, "dur": (end - start) * 1e6}
                )
        with open(path, "w", encoding="ascii") as handle:
            json.dump({"traceEvents": events}, handle)
