"""Exception hierarchy for the ``repro`` package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch a single base class.  Sketch-specific failures carry
enough context (which sketch, which bucket configuration) to debug the
probabilistic data structures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(ReproError, ValueError):
    """A component was constructed with invalid or inconsistent parameters."""


class SketchError(ReproError):
    """Base class for sketch-related errors."""


class IncompatibleSketchError(SketchError, ValueError):
    """Two sketches with different shapes or seeds were combined.

    Linearity (``S(x) + S(y) = S(x + y)``) only holds for sketches built
    with identical hash functions and dimensions.
    """


class StreamFormatError(ReproError, ValueError):
    """A stream file or update sequence is malformed."""


class InvalidStreamError(ReproError, ValueError):
    """A stream violated the dynamic-graph-stream rules.

    The semi-streaming model only allows inserting an edge that is absent
    and deleting an edge that is present (Section 2.1 of the paper).
    """


class StorageError(ReproError):
    """The simulated external-memory substrate was used incorrectly."""


class CorruptionError(StorageError):
    """Stored bytes failed checksum verification (silent data corruption).

    Deliberately not an :class:`OSError`: a checksum mismatch is
    deterministic, so the hybrid memory's transient-error retry policy
    must not retry it — detection propagates immediately so scrub /
    read-repair can heal from a checkpoint instead.
    """


class OverloadError(StorageError):
    """Base class for overload-plane failures (deadlines, circuit breaking)."""


class DeadlineExceededError(OverloadError, TimeoutError):
    """A device operation completed (or failed) past its deadline.

    ``TimeoutError`` is an ``OSError``, so the hybrid memory's
    transient-error retry policy treats a missed deadline like any
    other transient device failure: the operation is retried with
    backoff and only a persistently slow device surfaces the error.
    """


class CircuitOpenError(OverloadError):
    """The device-I/O circuit breaker is open; the call was not attempted.

    Deliberately *not* an ``OSError``: the breaker exists to stop
    hammering a failing device, so the retry policy must not spin on
    rejections -- they propagate immediately and callers degrade
    (policy-driven checkpoints absorb them; ingest surfaces them so the
    caller can back off or recover from a checkpoint).
    """


class WorkerFailure(ReproError, RuntimeError):
    """A distributed ingest worker died and could not be recovered.

    Carries the worker's round-robin index and the size of its stream
    slice so the coordinator's error names exactly which part of the
    stream is unaccounted for.  Built from positional arguments only,
    so instances survive the pickling a process boundary imposes.
    """

    def __init__(self, message: str, worker_index: int = -1, slice_size: int = 0):
        super().__init__(message, worker_index, slice_size)
        self.message = message
        self.worker_index = worker_index
        self.slice_size = slice_size

    def __str__(self) -> str:
        return self.message


class RecoveryError(ReproError):
    """Automatic crash recovery found no usable checkpoint."""


class ConnectivityError(ReproError):
    """The connectivity computation could not produce an answer."""


class GraphGenerationError(ReproError, ValueError):
    """A graph or stream generator was asked for an impossible output."""
