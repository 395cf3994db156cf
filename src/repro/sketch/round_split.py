"""Round split: one serial pool fold spread over the usable cores.

A CubeSketch's rounds are independent sketches and the pool is
round-major ``(rounds, nodes, cols, rows)``, so a contiguous range of
rounds is a disjoint, contiguous slab of the pool, and the slots of a
range are a contiguous slice of the slot-indexed seed and slot-offset
vectors.  A fold cut into round ranges therefore needs no partition
step, no second hash and no lock on the pool: each range hashes the
whole batch against its own seeds and XORs into its own slabs, and XOR
into disjoint buckets is order-free, so the pool is bit-identical
whichever thread folds which range.

Both kernel providers split the same way.  A fold with at least two
floors of (update, slot) work, in a process that may use more than one
core, is cut into balanced whole-round ranges of at least a floor each
(:func:`split_ranges`; the floor is the provider's, since a native
(update, slot) pair costs about a tenth of a numpy one).  The caller
and ``usable_cores() - 1`` threads of one process-wide helper pool
claim the ranges one at a time -- the caller from round 0 up, the
helpers from the top down -- until none is left, and the call returns
once every range has finished (:func:`fold_ranges`).  Claiming, not a
fixed share per thread, keeps the call steady on a shared host: a
helper whose core is busy elsewhere folds fewer ranges instead of
holding the caller up.  A one-core process never starts a helper.

Only serial entry points split; the sharded ingest workers already
occupy the cores, and the paged pool's page folds keep their order of
pins and device operations.
"""

from __future__ import annotations

import collections
import os
import threading
from typing import Callable, List, Sequence, Tuple

#: The fold helpers' ``ThreadPoolExecutor`` once a fold has split.
_helpers = None
_helpers_lock = threading.Lock()


def _helper_pool():
    """The process-wide fold helpers: ``usable_cores() - 1`` threads, made on first use."""
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            # Lazy: repro.parallel imports the engine, which imports the
            # pools, and a process that never splits skips the import.
            from concurrent.futures import ThreadPoolExecutor

            from repro.parallel.cost_model import usable_cores

            _helpers = ThreadPoolExecutor(
                max(usable_cores() - 1, 1), thread_name_prefix="repro-fold"
            )
        return _helpers


def _forget_helpers() -> None:
    """A forked child has none of its parent's threads: start from no pool."""
    global _helpers, _helpers_lock
    _helpers = None
    _helpers_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def split_ranges(work: int, num_rounds: int, floor: int) -> int:
    """Round ranges a serial fold of ``work`` (update, slot) pairs is cut into.

    ``min(num_rounds, work // floor)`` when the process may use more
    than one core, else one: every range gets a whole number of rounds
    and at least ``floor`` of work, so a batch splits once it holds two
    floors' worth.  The count comes from the batch size and the affinity
    mask only, and does not follow the core count: more ranges than
    threads is what lets a fast thread take over a slow one's share.
    """
    if work < 2 * floor or num_rounds < 2:
        return 1
    from repro.parallel.cost_model import usable_cores

    if usable_cores() < 2:
        return 1
    return min(num_rounds, work // floor)


def round_ranges(num_rounds: int, ranges: int) -> List[Tuple[int, int]]:
    """``ranges`` contiguous ``(lo, hi)`` round runs covering every round,
    their lengths differing by at most one."""
    bounds = [r * num_rounds // ranges for r in range(ranges + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


class _RoundSplit:
    """One split fold: its round ranges, claimed one at a time by the
    caller (from the first round up) and the helper threads (from the
    last round down) until none is left."""

    def __init__(self, fold, head: tuple, tails: tuple) -> None:
        self._fold = fold
        self._head = head
        self._unclaimed = collections.deque(tails)
        self._left = len(tails)
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._errors: list = []

    def _claim(self, from_last: bool):
        with self._lock:
            if not self._unclaimed:
                return None
            return self._unclaimed.pop() if from_last else self._unclaimed.popleft()

    def drain(self, from_last: bool = False) -> None:
        """Fold unclaimed ranges until none is left.

        The caller takes the low rounds, which the query reads first, and
        the helpers the high ones, so each thread keeps writing the same
        slabs from one fold to the next.  A range that raises is recorded
        and the thread moves on, so the caller's :meth:`wait` still sees
        every range finish.
        """
        while (tail := self._claim(from_last)) is not None:
            try:
                self._fold(*self._head, *tail)
            except BaseException as error:  # re-raised by wait()
                self._errors.append(error)
            with self._lock:
                self._left -= 1
                if not self._left:
                    self._finished.set()

    def wait(self) -> None:
        """Block until every range has finished; raise the first error."""
        self._finished.wait()
        if self._errors:
            raise self._errors[0]


def fold_ranges(fold: Callable, head: tuple, tails: Sequence[tuple]) -> None:
    """Run ``fold(*head, *tail)`` for every tail, spread over the helpers.

    One tail is folded on the caller.  Otherwise the caller and up to
    ``usable_cores() - 1`` helpers claim the tails one at a time, and
    the call returns only after every tail has finished -- also when one
    raised, whose error then propagates: no helper is left writing into
    the pool.  A helper that starts after the caller has claimed the
    last tail finds nothing to do.
    """
    if len(tails) == 1:
        fold(*head, *tails[0])
        return
    from repro.parallel.cost_model import usable_cores

    run = _RoundSplit(fold, head, tails)
    helpers = _helper_pool()
    for _ in range(min(usable_cores(), len(tails)) - 1):
        helpers.submit(run.drain, True)
    run.drain()
    run.wait()
