"""A byte-budgeted LRU cache used as the RAM tier of the hybrid model."""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Iterator, Optional, Tuple

from repro.exceptions import StorageError
from repro.memory.metrics import IOStats

EvictionCallback = Callable[[Hashable, bytes], None]


class LRUCache:
    """Least-recently-used cache of byte payloads with a byte budget.

    Parameters
    ----------
    capacity_bytes:
        Total budget.  Zero disables caching entirely (every lookup is a
        miss), which models the "no RAM left for sketches" regime.
    stats:
        Optional shared :class:`IOStats`; hit/miss counters accumulate
        there.
    on_evict:
        Callback invoked with ``(key, payload)`` when an entry is pushed
        out, used by the hybrid layer to write dirty entries back to the
        block device.
    """

    def __init__(
        self,
        capacity_bytes: int,
        stats: Optional[IOStats] = None,
        on_evict: Optional[EvictionCallback] = None,
    ) -> None:
        if capacity_bytes < 0:
            raise StorageError("capacity_bytes must be non-negative")
        self.capacity_bytes = int(capacity_bytes)
        self.stats = stats if stats is not None else IOStats()
        self._on_evict = on_evict
        self._entries: "OrderedDict[Hashable, bytes]" = OrderedDict()
        self._bytes_used = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[bytes]:
        """Return the cached payload or ``None`` (counting hit / miss)."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.cache_hits += 1
            return self._entries[key]
        self.stats.cache_misses += 1
        return None

    def put(self, key: Hashable, payload: bytes) -> None:
        """Insert or refresh an entry, evicting LRU entries as needed."""
        # Drop the key's previous entry first: a stale copy must never
        # outlive a put, cacheable or not.
        self.pop(key)
        if len(payload) > self.capacity_bytes:
            # The item can never fit; treat it as uncacheable but still
            # notify the eviction callback so it is not silently lost.
            if self._on_evict is not None:
                self._on_evict(key, payload)
            return
        self._entries[key] = payload
        self._bytes_used += len(payload)
        self._evict_to_budget()

    def peek(self, key: Hashable) -> Optional[bytes]:
        """The cached payload or ``None``, without counting a hit or a
        miss and without refreshing the entry's LRU position."""
        return self._entries.get(key)

    def pop(self, key: Hashable) -> Optional[bytes]:
        """Remove and return an entry without invoking the callback."""
        payload = self._entries.pop(key, None)
        if payload is not None:
            self._bytes_used -= len(payload)
        return payload

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes_used(self) -> int:
        return self._bytes_used

    def items(self) -> Iterator[Tuple[Hashable, bytes]]:
        return iter(list(self._entries.items()))

    def flush(self) -> None:
        """Evict everything (invoking the callback for each entry)."""
        while self._entries:
            self._evict_one()

    def resize(self, capacity_bytes: int) -> None:
        """Change the byte budget, evicting immediately if it shrank."""
        if capacity_bytes < 0:
            raise StorageError("capacity_bytes must be non-negative")
        self.capacity_bytes = int(capacity_bytes)
        self._evict_to_budget()

    # ------------------------------------------------------------------
    def _evict_to_budget(self) -> None:
        while self._bytes_used > self.capacity_bytes and self._entries:
            self._evict_one()

    def _evict_one(self) -> None:
        key, payload = self._entries.popitem(last=False)
        self._bytes_used -= len(payload)
        if self._on_evict is not None:
            try:
                self._on_evict(key, payload)
            except Exception:
                # The write-back failed: the payload exists nowhere but
                # here, so losing the entry would be silent data loss.
                # Reinsert it at the MRU end (the next eviction sweep
                # picks a different victim) and let the error surface.
                self._entries[key] = payload
                self._bytes_used += len(payload)
                raise
