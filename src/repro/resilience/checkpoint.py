"""Hands-off checkpointing: policies, rotating generations, auto-recovery.

The snapshot plane (PR 5) made checkpoints *possible*; this module makes
them *automatic*.  A :class:`CheckpointPolicy` says when to checkpoint
(every N ingested updates and/or every T seconds of wall clock), a
:class:`Checkpointer` attached to a running
:class:`~repro.core.graph_zeppelin.GraphZeppelin` writes rotating,
generation-numbered snapshot files as the policy fires, and
:func:`recover_latest` turns a checkpoint directory back into an engine
after a crash -- scanning generations newest-first, validating each
header with the PR 5 machinery, and falling back to the previous
generation when the newest file is torn or corrupt.

File layout.  Checkpoints are named ``ckpt-<generation>.snap`` with a
monotonically increasing zero-padded generation number, written through
:func:`~repro.distributed.snapshot.save_pool_snapshot`'s atomic
tmp-write + rename, so a crash mid-checkpoint never shadows the last
good generation.  The policy's ``keep`` bounds disk usage: after each
successful checkpoint, generations beyond the ``keep`` newest are
deleted.  ``keep >= 2`` is the useful minimum -- it is what lets
recovery survive a checkpoint file that was *promoted* and then
corrupted (torn at the device level), the case the fault-injection
tests replay.

A policy-driven checkpoint that fails with an ``OSError`` (device full,
injected fault) is counted and *swallowed*: an hours-long ingest should
degrade to a stale recovery point, not crash because one checkpoint
write failed.  Explicit :meth:`Checkpointer.checkpoint` calls raise.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    CorruptionError,
    RecoveryError,
    StreamFormatError,
)
from repro.observability.metrics import default_registry
from repro.observability.tracing import span

#: Default checkpoint cadence when a policy does not specify one: large
#: enough that checkpoint I/O stays a few percent of ingest time at the
#: benchmark scales (a full pool snapshot is tens of MB; writing one
#: every ~100k updates would cost double-digit overhead), small enough
#: that a crash loses minutes, not hours.
DEFAULT_EVERY_N_UPDATES = 250_000

_CHECKPOINT_RE = re.compile(r"^ckpt-(\d{8})\.snap$")


def checkpoint_filename(generation: int) -> str:
    """The on-disk name of one checkpoint generation."""
    return f"ckpt-{generation:08d}.snap"


def list_checkpoints(directory: Union[str, Path]) -> List[Tuple[int, Path]]:
    """All checkpoint files in ``directory``, newest generation first.

    Only files matching the ``ckpt-<generation>.snap`` pattern count;
    stray ``.tmp`` files from an interrupted write are ignored (and
    harmless -- the atomic promote never exposed them).
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = _CHECKPOINT_RE.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    found.sort(key=lambda pair: pair[0], reverse=True)
    return found


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to checkpoint, and how many generations to keep.

    ``every_n_updates`` and ``interval_seconds`` compose with OR: the
    checkpoint fires when either threshold is crossed.  Both ``None``
    means the policy never fires on its own (manual checkpoints only).
    """

    every_n_updates: Optional[int] = DEFAULT_EVERY_N_UPDATES
    interval_seconds: Optional[float] = None
    #: Generations retained after rotation.  2 survives one corrupted
    #: promoted file; raise it for deeper fallback chains.
    keep: int = 2

    def __post_init__(self) -> None:
        if self.every_n_updates is not None and self.every_n_updates < 1:
            raise ConfigurationError("every_n_updates must be >= 1 or None")
        if self.interval_seconds is not None and self.interval_seconds <= 0:
            raise ConfigurationError("interval_seconds must be positive or None")
        if self.keep < 1:
            raise ConfigurationError("a checkpoint policy must keep >= 1 generation")

    def due(self, updates_since: int, seconds_since: float) -> bool:
        """Whether a checkpoint should fire given progress since the last."""
        if self.every_n_updates is not None and updates_since >= self.every_n_updates:
            return True
        if self.interval_seconds is not None and seconds_since >= self.interval_seconds:
            return True
        return False


class Checkpointer:
    """Rotating generation-numbered checkpoints driven by a policy.

    Attach one to an engine with
    :meth:`~repro.core.graph_zeppelin.GraphZeppelin.attach_checkpointer`;
    the engine then calls :meth:`note_updates` on every ingest path and
    checkpoints become hands-off.  The generation counter resumes from
    whatever the directory already holds, so a recovered run keeps
    appending generations instead of overwriting its own history.
    """

    def __init__(
        self,
        engine,
        directory: Union[str, Path],
        policy: Optional[CheckpointPolicy] = None,
        fault_plan=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.engine = engine
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.policy = policy or CheckpointPolicy()
        self.fault_plan = fault_plan
        self._clock = clock
        existing = list_checkpoints(self.directory)
        self._generation = existing[0][0] if existing else 0
        self._updates_since = 0
        self._last_time = clock()
        #: Telemetry: checkpoints written / policy-driven writes that
        #: failed and were absorbed / rotation unlinks that failed.
        self.checkpoints_written = 0
        self.checkpoint_failures = 0
        self.rotation_failures = 0

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Generation number of the most recently written checkpoint."""
        return self._generation

    def updates_until_due(self) -> Optional[int]:
        """Updates left before the every-N policy fires (at least 1).

        ``None`` when the policy has no update cadence.  A batching
        caller cuts its batch here, so the checkpoint is written at the
        same update count as if updates had arrived one by one; after a
        swallowed failure that is the very next update.
        """
        every = self.policy.every_n_updates
        if every is None:
            return None
        return max(1, every - self._updates_since)

    def note_updates(self, count: int) -> Optional[Path]:
        """Record ingest progress; checkpoint if the policy says so.

        Called by the engine after every ingest entry point.  A due
        checkpoint that fails with ``OSError`` is counted in
        :attr:`checkpoint_failures` and swallowed (see module
        docstring); the progress counters keep accumulating, so the
        next ingest retries immediately.  Overload failures degrade the
        same way: a missed device deadline is a ``TimeoutError`` (hence
        an ``OSError``), and an open circuit breaker's
        ``CircuitOpenError`` is absorbed explicitly -- a checkpoint
        skipped because the device is rejecting calls must not abort
        ingest, exactly as a checkpoint skipped because a write failed
        does not.
        """
        self._updates_since += int(count)
        if not self.policy.due(self._updates_since, self._clock() - self._last_time):
            return None
        try:
            return self.checkpoint()
        except (CircuitOpenError, CorruptionError, OSError):
            # CorruptionError: the snapshot writer read a spilled page
            # whose checksum no longer matched -- the checkpoint is
            # unwritable but the previous generation still stands, the
            # same degradation contract as a failed device write.
            # CircuitOpenError: the breaker is shedding device calls;
            # the previous generation stands and a later cadence tick
            # retries once the breaker admits traffic again.
            self.checkpoint_failures += 1
            registry = default_registry()
            if registry.enabled:
                registry.counter("checkpoint.failures").inc()
            return None

    def checkpoint(self) -> Path:
        """Write the next generation now, then rotate old generations.

        The write itself is atomic (tmp + rename); the injected-fault
        hooks fire around it -- ``raise`` faults before the write (the
        previous generation survives untouched), ``torn`` faults after
        the promote (exactly the corruption :func:`recover_latest`
        must fall back across).  Raises ``OSError`` on failure.
        """
        if self.fault_plan is not None:
            self.fault_plan.before_snapshot_write()
        path = self.directory / checkpoint_filename(self._generation + 1)
        with span("checkpoint.write"):
            self.engine.save_snapshot(path)
        registry = default_registry()
        if registry.enabled:
            registry.counter("checkpoint.written").inc()
        self._generation += 1
        self.checkpoints_written += 1
        self._updates_since = 0
        self._last_time = self._clock()
        if self.fault_plan is not None:
            self.fault_plan.after_snapshot_write(path)
        self._rotate()
        return path

    def _rotate(self) -> None:
        """Delete generations beyond the ``keep`` newest.

        A rotation failure only costs disk space, never data -- but it
        is *counted* (:attr:`rotation_failures`), not silently
        swallowed, so a filesystem quietly refusing unlinks shows up in
        the CLI's counter report instead of as unbounded disk growth.
        """
        for _, path in list_checkpoints(self.directory)[self.policy.keep :]:
            try:
                path.unlink()
            except (CorruptionError, OSError):
                self.rotation_failures += 1


def recover_latest(
    directory: Union[str, Path],
    config=None,
    memory=None,
):
    """Rebuild an engine from the newest *valid* checkpoint in a directory.

    Scans generations newest-first.  Each candidate goes through the
    full PR 5 validation stack -- magic/version, exact payload length,
    geometry, seed, bucket mode, config fingerprint -- via
    :meth:`~repro.core.graph_zeppelin.GraphZeppelin.load_snapshot`; a
    torn, truncated, or otherwise corrupt generation is skipped and the
    previous one is tried, which is why the checkpoint policy keeps
    more than one.  Merged snapshots are skipped too (their state is a
    union, not a stream prefix -- resuming over one would XOR-cancel
    it).

    Returns ``(engine, path, skipped)`` where ``skipped`` lists
    ``(path, reason)`` for every newer generation that was rejected.
    Raises :class:`~repro.exceptions.RecoveryError` when the directory
    holds no usable checkpoint at all.
    """
    from repro.core.graph_zeppelin import GraphZeppelin
    from repro.distributed.snapshot import read_snapshot_meta

    candidates = list_checkpoints(directory)
    if not candidates:
        raise RecoveryError(f"no checkpoints found in {directory}")
    skipped: List[Tuple[Path, str]] = []
    for _, path in candidates:
        try:
            if read_snapshot_meta(path).merged:
                raise StreamFormatError(
                    "merged snapshot (a union of sub-streams, not a stream prefix)"
                )
            engine = GraphZeppelin.load_snapshot(path, config=config, memory=memory)
        except CorruptionError:
            # Distinct from a torn/truncated file: the header parsed and
            # the length checked out, but the payload digests did not --
            # silent corruption the generation fallback must skip too.
            skipped.append((path, "payload checksum mismatch"))
            continue
        except (StreamFormatError, OSError) as exc:
            skipped.append((path, str(exc)))
            continue
        return engine, path, skipped
    detail = "; ".join(f"{path.name}: {reason}" for path, reason in skipped)
    raise RecoveryError(
        f"no valid checkpoint in {directory} ({len(skipped)} rejected: {detail})"
    )
