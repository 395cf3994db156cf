"""Configuration for a GraphZeppelin instance."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ConfigurationError


class BufferingMode(enum.Enum):
    """Which buffering structure the engine uses for stream ingestion."""

    #: Apply every update to the node sketches immediately (no buffering).
    NONE = "none"
    #: One gutter per node, kept in RAM (paper's default when M > V*B).
    LEAF_GUTTERS = "leaf_gutters"
    #: Full gutter tree, for when even the gutters do not fit in RAM.
    GUTTER_TREE = "gutter_tree"


@dataclass
class GraphZeppelinConfig:
    """Tunable parameters of the GraphZeppelin engine.

    Attributes
    ----------
    delta:
        Bound on the per-query incomplete rate (paper default 1/100):
        the chance a connectivity query runs out of Boruvka rounds and
        returns a forest flagged ``complete=False``.  It sets the node
        sketch's columns (:func:`repro.sketch.geometry.node_sketch_columns`):
        3 for ``delta >= 0.01`` and the paper's ``ceil(log2 1/delta)``
        below, so ``1/128`` reproduces the paper's 7-column sketch.  The
        Section 6.3 harness certifies the 3-column bound at 2 048 nodes
        over its eight graph families, and at 16 384 nodes over the path
        and communities families; at other sizes (and in wide mode, past
        65 536 nodes) it is measured evidence, not a certified bound.
    buffering:
        Buffering structure used during ingestion.
    gutter_fraction:
        Leaf gutter capacity as a fraction of the node-sketch size
        (Figure 15 sweeps this value; the paper default is 0.5).
    ram_budget_bytes:
        RAM available for node sketches.  ``None`` keeps everything in
        RAM; a finite budget routes sketches through the hybrid memory
        substrate so the run pays modelled SSD I/O.
    nodes_per_page:
        Page granularity of the paged out-of-core pool (nodes per
        node-group page).  ``None`` (default) sizes pages to a whole
        number of device blocks targeting
        :data:`~repro.sketch.paged_pool.DEFAULT_PAGE_TARGET_BLOCKS`.
    num_workers:
        Shard worker threads of the parallel ingestion path
        (:meth:`~repro.core.graph_zeppelin.GraphZeppelin.parallel_ingestor`;
        in-RAM pool only).  Serial ingest ignores this: a large serial
        fold splits by Boruvka round across the usable cores on its own.
    validate_stream:
        When true, the engine tracks the exact current edge set and
        rejects illegal updates (inserting a present edge / deleting an
        absent one).  Costs O(E) memory, so it is off by default and
        meant for tests and small streams.
    strict_queries:
        When true, a connectivity query that exhausts its Boruvka rounds
        raises :class:`~repro.exceptions.ConnectivityError`; otherwise
        the partial forest is returned with ``complete=False``.
    seed:
        Root seed from which every hash function is derived.
    io_retry_attempts:
        Total tries for each hybrid-memory device read/write before the
        ``OSError`` surfaces (1 = no retry, the default).  Transient
        device failures -- the kind the fault-injection tests replay --
        are absorbed by retries; persistent ones still raise.
    io_retry_backoff_seconds:
        Base backoff between device-call retries (doubles per retry).
    io_deadline_seconds:
        Per-operation deadline on hybrid-memory device calls: a call
        that runs longer is turned into a
        :class:`~repro.exceptions.DeadlineExceededError` (a
        ``TimeoutError``, hence retried like any transient ``OSError``).
        ``None`` (default) disables the deadline.
    io_breaker_threshold:
        Consecutive *exhausted* device operations (whole retry budget
        failed) after which the engine's circuit breaker opens and
        device calls are rejected with
        :class:`~repro.exceptions.CircuitOpenError` instead of burning
        retries against a dead device.  ``None`` (default) disables the
        breaker.
    io_breaker_reset_seconds:
        How long an open breaker rejects before admitting a half-open
        probe call.
    kernel_backend:
        Which kernel provider (:mod:`repro.kernels`) runs the engine's
        ingest folds, edge-row ingest, Boruvka query and storage
        digests: ``"numpy"`` (default) the pure-numpy provider,
        ``"native"`` the compiled one (the C library built at first
        use), raising when it is not usable, and ``"auto"`` the compiled
        one when a compiler is found, else numpy.  The providers are
        property-tested bit-identical under the same seed, so this
        field deliberately stays **out** of :meth:`sketch_fingerprint`
        -- snapshots interchange freely across kernel backends.
    """

    delta: float = 0.01
    buffering: BufferingMode = BufferingMode.LEAF_GUTTERS
    gutter_fraction: float = 0.5
    ram_budget_bytes: Optional[int] = None
    nodes_per_page: Optional[int] = None
    num_workers: int = 1
    validate_stream: bool = False
    strict_queries: bool = False
    seed: int = 0
    kernel_backend: str = "numpy"
    io_retry_attempts: int = 1
    io_retry_backoff_seconds: float = 0.01
    io_deadline_seconds: Optional[float] = None
    io_breaker_threshold: Optional[int] = None
    io_breaker_reset_seconds: float = 0.25

    def __post_init__(self) -> None:
        if not 0 < self.delta < 1:
            raise ConfigurationError("delta must be in (0, 1)")
        if self.kernel_backend not in ("numpy", "native", "auto"):
            raise ConfigurationError(
                f"unknown kernel_backend {self.kernel_backend!r} "
                "(use 'numpy', 'native', or 'auto')"
            )
        if self.gutter_fraction <= 0:
            raise ConfigurationError("gutter_fraction must be positive")
        if self.num_workers < 1:
            raise ConfigurationError("num_workers must be at least 1")
        if self.ram_budget_bytes is not None and self.ram_budget_bytes < 0:
            raise ConfigurationError("ram_budget_bytes must be non-negative or None")
        if self.nodes_per_page is not None and self.nodes_per_page < 1:
            raise ConfigurationError("nodes_per_page must be at least 1 or None")
        if self.io_retry_attempts < 1:
            raise ConfigurationError("io_retry_attempts must be at least 1")
        if self.io_retry_backoff_seconds < 0:
            raise ConfigurationError("io_retry_backoff_seconds must be non-negative")
        if self.io_deadline_seconds is not None and self.io_deadline_seconds <= 0:
            raise ConfigurationError("io_deadline_seconds must be positive or None")
        if self.io_breaker_threshold is not None and self.io_breaker_threshold < 1:
            raise ConfigurationError("io_breaker_threshold must be at least 1 or None")
        if self.io_breaker_reset_seconds <= 0:
            raise ConfigurationError("io_breaker_reset_seconds must be positive")
        if isinstance(self.buffering, str):
            self.buffering = BufferingMode(self.buffering)

    def sketch_fingerprint(self) -> int:
        """A 64-bit digest of every field that shapes sketch *state*.

        Two engines whose configs share this fingerprint build
        bit-identical sketch state from the same update stream: the
        hash functions (``seed``) and the geometry (``delta``) enter the
        digest, while fields that only change *how* the state is computed
        (buffering, RAM budget, workers, page size) deliberately do
        not -- a snapshot written by an in-RAM engine must load into an
        out-of-core one.  Snapshots store the fingerprint and refuse to
        load under a config that would silently misinterpret the
        buckets.
        """
        from repro.hashing.xxhash64 import xxhash64

        # The seed enters masked to 64 bits: hash derivation is
        # mod-2^64 invariant (property-checked in the snapshot tests)
        # and snapshot headers store the masked seed, so a checkpoint
        # written under seed=-1 must fingerprint-match the config
        # rebuilt from its header.
        masked_seed = self.seed & 0xFFFFFFFFFFFFFFFF
        # The trailing "flat" names the one bucket layout; it is part of
        # the on-disk format of every snapshot and checkpoint written so
        # far and must not change.
        blob = f"{self.delta!r}|{masked_seed}|flat".encode("ascii")
        return xxhash64(blob, seed=0x5A45_5050)

    @classmethod
    def out_of_core(
        cls, ram_budget_bytes: int, use_gutter_tree: bool = False, **overrides
    ) -> "GraphZeppelinConfig":
        """A configuration with a RAM budget, spilling sketches to SSD."""
        buffering = BufferingMode.GUTTER_TREE if use_gutter_tree else BufferingMode.LEAF_GUTTERS
        return cls(ram_budget_bytes=ram_budget_bytes, buffering=buffering, **overrides)

    @classmethod
    def unbuffered(cls, **overrides) -> "GraphZeppelinConfig":
        """No buffering at all (the f = "1 update" point of Figure 15)."""
        return cls(buffering=BufferingMode.NONE, **overrides)
