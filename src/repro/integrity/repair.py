"""Read-repair: heal corrupt spilled pages from a checkpoint + replay.

The scrub layer (:meth:`~repro.core.graph_zeppelin.GraphZeppelin.scrub_storage`)
only *detects* silent corruption -- a spilled page whose stored bytes no
longer match their checksums.  This module *heals* it, exploiting the
same linearity that powers snapshots and distributed merges: a node's
sketch state after ``P`` stream updates equals its state at any earlier
checkpoint offset ``S`` XOR the folds of the stream suffix ``[S, P)``
that touch it.  So a corrupt page is rebuilt exactly, without touching
any healthy page, by

1. finding the newest checkpoint generation whose header matches the
   engine's config and whose payload passes digest verification,
2. seeking that checkpoint's round-major payload for just the corrupt
   page's node stripes (the same partial read the paged snapshot loader
   uses) and overwriting the page's stored bytes, and
3. re-folding the suffix edges whose endpoints land in the page's node
   span, through the pool's internal fold (which bumps no update
   counters -- those already count the original ingest, so a repaired
   run stays counter- and bit-identical to a fault-free one).

Flat (non-paged) engines have no page-granular storage to heal;
their recovery path is :func:`~repro.resilience.checkpoint.recover_latest`
plus a full suffix replay.

This module is deliberately *not* imported by ``repro.integrity``'s
``__init__`` -- it sits above the engine, snapshot, and checkpoint
layers, which themselves import :mod:`repro.integrity.digest`; import
it as ``repro.integrity.repair`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import CorruptionError, RecoveryError, StreamFormatError
from repro.observability.tracing import span

PathLike = Union[str, Path]


@dataclass
class RepairReport:
    """What one scrub-and-repair pass found and did."""

    #: Pages whose stored bytes failed checksum verification.
    corrupt_pages: List[int] = field(default_factory=list)
    #: Pages healed from the checkpoint (equals ``corrupt_pages`` on
    #: success; repair is all-or-nothing per pass).
    repaired_pages: List[int] = field(default_factory=list)
    #: The checkpoint generation the pages were healed from.
    checkpoint_path: Optional[str] = None
    #: Newer checkpoint generations rejected before one validated, as
    #: ``(path, reason)`` -- same shape as ``recover_latest``'s skips.
    skipped_checkpoints: List[Tuple[str, str]] = field(default_factory=list)
    #: Suffix updates re-folded into the healed pages (total endpoint
    #: folds, matching the pool's per-update accounting).
    replayed_updates: int = 0

    @property
    def clean(self) -> bool:
        """True when the scrub found nothing to repair."""
        return not self.corrupt_pages


def find_valid_checkpoint(
    engine, directory: PathLike
) -> Tuple[Path, "SnapshotMeta", List[Tuple[str, str]]]:
    """Newest checkpoint usable as a repair source for ``engine``.

    Scans generations newest-first, rejecting merged snapshots (their
    state is a union, not a stream prefix), fingerprint/geometry
    mismatches, checkpoints taken *after* the engine's current stream
    position (their pages would contain folds the suffix replay would
    double-apply), and -- the integrity plane's contribution -- any
    generation whose payload fails digest verification.  Pre-digest
    (version-1) checkpoints are accepted but cannot be verified; they
    are better than no repair source at all.

    Returns ``(path, meta, skipped)``; raises
    :class:`~repro.exceptions.RecoveryError` when nothing qualifies.
    """
    from repro.distributed.snapshot import read_snapshot_meta, verify_snapshot_payload
    from repro.resilience.checkpoint import list_checkpoints

    fingerprint = engine.config.sketch_fingerprint()
    skipped: List[Tuple[str, str]] = []
    for _, path in list_checkpoints(directory):
        try:
            meta = read_snapshot_meta(path)
            if meta.merged:
                skipped.append((str(path), "merged snapshot (not a stream prefix)"))
                continue
            if meta.geometry.num_nodes != engine.num_nodes:
                skipped.append(
                    (str(path), f"{meta.geometry.num_nodes} nodes, engine has {engine.num_nodes}")
                )
                continue
            if meta.fingerprint != fingerprint:
                skipped.append((str(path), "config fingerprint mismatch"))
                continue
            if meta.stream_offset > engine.updates_processed:
                skipped.append(
                    (str(path), "checkpoint is ahead of the engine's stream position")
                )
                continue
            verify_snapshot_payload(path, meta)
        except CorruptionError:
            skipped.append((str(path), "payload checksum mismatch"))
            continue
        except (StreamFormatError, OSError) as exc:
            skipped.append((str(path), str(exc)))
            continue
        return path, meta, skipped
    detail = "; ".join(f"{Path(p).name}: {reason}" for p, reason in skipped)
    raise RecoveryError(
        f"no valid repair checkpoint in {directory} "
        f"({len(skipped)} rejected: {detail or 'directory empty'})"
    )


def repair_pages(
    engine,
    pages: Sequence[int],
    checkpoint_path: PathLike,
    meta,
    edges: Optional[np.ndarray] = None,
) -> int:
    """Heal ``pages`` of a paged engine from a validated checkpoint.

    Each page's checkpoint-time tensors are read straight out of the
    snapshot payload (a partial, page-sized read) and stored over the
    corrupt bytes, then the stream suffix ``edges[meta.stream_offset :
    engine.updates_processed]`` is re-folded *restricted to the healed
    pages' node spans*.  The replay goes through the pool's internal
    fold, which bumps no update counters -- the original ingest already
    counted these updates, so a repaired engine stays counter-identical
    to a fault-free one.  Returns the number of endpoint folds replayed.
    """
    from repro.distributed.snapshot import _read_page_tensors
    from repro.sketch.flat_node_sketch import validate_indices

    pool = engine.tensor_pool
    if not pool.is_paged:
        raise RecoveryError(
            "read-repair needs a paged tensor pool; flat engines recover "
            "via recover_latest plus a full suffix replay"
        )
    pages = sorted(set(int(page) for page in pages))
    suffix_len = engine.updates_processed - meta.stream_offset
    if suffix_len and edges is None:
        raise RecoveryError(
            f"repair needs the {suffix_len}-update stream suffix to replay "
            f"on top of {Path(checkpoint_path).name}, but no edges were given"
        )

    # Phase 1: overwrite each corrupt page with its checkpoint state.
    checkpoint_path = Path(checkpoint_path)
    with checkpoint_path.open("rb") as handle:
        for page in pages:
            # The store rewrites the rotten blocks (and their digests)
            # on the device, so a follow-up scrub sees clean state.
            pool.replace_page(page, _read_page_tensors(handle, meta, pool, page))

    # Phase 2: re-fold the stream suffix, restricted to healed spans.
    replayed = 0
    suffix = (
        np.asarray(edges, dtype=np.int64)[meta.stream_offset : engine.updates_processed]
        if suffix_len
        else None
    )
    if suffix is not None and suffix.shape[0]:
        u = np.ascontiguousarray(suffix[:, 0])
        v = np.ascontiguousarray(suffix[:, 1])
        indices = engine.encoder.encode_canonical_pairs(
            np.minimum(u, v), np.maximum(u, v)
        )
        idx = validate_indices(indices, engine.encoder.vector_length)
        if idx is not None:
            dst_parts: List[np.ndarray] = []
            idx_parts: List[np.ndarray] = []
            for page in pages:
                lo, hi = pool.page_span(page)
                for endpoint in (u, v):
                    mask = (endpoint >= lo) & (endpoint < hi)
                    if mask.any():
                        dst_parts.append(endpoint[mask])
                        idx_parts.append(idx[mask])
            if dst_parts:
                dsts = np.concatenate(dst_parts)
                pool._fold(np.concatenate(idx_parts), (dsts,))
                replayed = int(dsts.size)
    # Publish: bump the pool version (fold caches must not serve
    # pre-repair assemblies) but *not* the update counters -- see above.
    pool._bump_version()
    pool.sync()
    pool.memory.stats.pages_repaired += len(pages)
    engine._cached_forest = None
    return replayed


def scrub_and_repair(
    engine,
    checkpoint_dir: PathLike,
    edges: Optional[np.ndarray] = None,
) -> RepairReport:
    """Scrub an engine's storage; heal anything corrupt from a checkpoint.

    The end-to-end read-repair entry point the CLI's ``--scrub-every``
    path uses: scrub, and if the scrub is clean return immediately;
    otherwise locate the newest valid checkpoint generation in
    ``checkpoint_dir``, heal every corrupt page from it, replay the
    stream suffix (``edges`` must be the full stream the engine
    ingested), and re-scrub to prove the heal took.  Raises
    :class:`~repro.exceptions.RecoveryError` if no checkpoint qualifies
    or corruption survives the repair.
    """
    report = RepairReport(corrupt_pages=list(engine.scrub_storage()))
    if report.clean:
        return report
    with span("repair.pass"):
        path, meta, skipped = find_valid_checkpoint(engine, checkpoint_dir)
        report.checkpoint_path = str(path)
        report.skipped_checkpoints = skipped
        report.replayed_updates = repair_pages(
            engine, report.corrupt_pages, path, meta, edges
        )
        still_corrupt = engine.scrub_storage()
        if still_corrupt:
            raise RecoveryError(
                f"read-repair from {path.name} did not heal pages {still_corrupt}"
            )
        report.repaired_pages = list(report.corrupt_pages)
    return report
