"""The one bounded, thread-safe LRU memo, with an optional disk tier.

Both resident memo caches go through :class:`LRUCache`: the engine's
generate-result cache (memory only) and the analyzer's per-function
summary cache (:class:`repro.sast.summary_cache.SummaryCache`, backed by
a :class:`~repro.cache.store.PickleStore`). Keys are content addresses
that already fold in the rule-set fingerprint, so a rule change makes
old entries unreachable; the owner calls :meth:`LRUCache.clear` on a
rule refresh only so that dead entries stop pinning memory.

Cached values are shared by reference with every hit and must be
treated as immutable by callers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

from .store import PickleStore

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


class LRUCache(Generic[K, V]):
    """A bounded LRU map with an optional write-through disk tier.

    A non-positive ``capacity`` disables the cache: :meth:`load` always
    misses (without touching disk) and :meth:`store` is a no-op.

    With a ``disk`` tier, a memory miss reads the store and promotes a
    hit into memory, and every store writes through. Disk I/O runs
    outside the lock; corrupt or schema-drifted disk entries come back
    from the store as misses, never as exceptions.
    """

    def __init__(self, capacity: int, *, disk: PickleStore | None = None):
        self.capacity = capacity
        self.disk = disk
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def persistent(self) -> bool:
        return self.disk is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def load(self, key: K) -> V | None:
        """The cached value, refreshed to most-recently-used; or None."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self.hits += 1
                return value
        if self.disk is not None and self.capacity > 0:
            result = self.disk.load(key)
            if result.hit:
                with self._lock:
                    self.hits += 1
                    self.disk_hits += 1
                    self._insert(key, result.artefacts)
                return result.artefacts
        with self._lock:
            self.misses += 1
        return None

    def store(self, key: K, value: V) -> None:
        """Cache one value (and write it through to disk)."""
        if self.capacity <= 0:
            return
        with self._lock:
            self.stores += 1
            self._insert(key, value)
        if self.disk is not None:
            self.disk.store(key, value)

    def _insert(self, key: K, value: V) -> None:
        """Insert as most-recently-used, evicting on overflow (caller
        holds the lock)."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> int:
        """Drop every in-memory entry (the disk tier is left alone);
        returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 when nothing has been looked up."""
        with self._lock:
            return self._hit_rate()

    def _hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        """A JSON-serialisable counter snapshot (the ``stats`` op)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "persistent": self.persistent,
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "stores": self.stores,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": self._hit_rate(),
            }

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} size={len(self)}/{self.capacity} "
            f"hits={self.hits} misses={self.misses} "
            f"disk={'on' if self.persistent else 'off'}>"
        )
