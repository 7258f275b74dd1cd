"""The one bounded, thread-safe LRU memo, with an optional disk tier.

Both resident memo caches go through :class:`LRUCache`: the engine's
generate-result cache (memory only) and the analyzer's per-function
summary cache (:class:`repro.sast.summary_cache.SummaryCache`, backed by
a :class:`~repro.cache.store.PickleStore`). Keys are content addresses
that already fold in the rule-set fingerprint, so a rule change makes
old entries unreachable; the owner calls :meth:`LRUCache.clear` on a
rule refresh only so that dead entries stop pinning memory.

A cache counts ``<name>.<field>`` for each of :data:`FIELDS` into its
:class:`~repro.diagnostics.Diagnostics` only, attributed to the run or
request recording around the call; :meth:`LRUCache.to_dict` reads back.

Cached values are shared by reference with every hit and must be
treated as immutable by callers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

from ..diagnostics import Diagnostics
from .store import PickleStore

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()

#: The counted fields, in ``to_dict`` order (``disk_hits`` is the subset
#: of hits read from disk; ``invalidations`` are entries ``clear`` drops).
FIELDS = ("hits", "misses", "disk_hits", "stores", "evictions", "invalidations")


class LRUCache(Generic[K, V]):
    """A bounded LRU map with an optional write-through disk tier.

    A non-positive ``capacity`` disables the cache: :meth:`load` always
    misses (without touching disk) and :meth:`store` is a no-op.

    With a ``disk`` tier, a memory miss reads the store and promotes a
    hit into memory, and every store writes through. Disk I/O runs
    outside the lock; corrupt or schema-drifted disk entries come back
    from the store as misses, never as exceptions.
    """

    def __init__(
        self, capacity: int, *, name: str, disk: PickleStore | None = None
    ):
        self.capacity = capacity
        self.name = name  # counter-key prefix
        self.disk = disk
        self.diagnostics = Diagnostics()  # the cache's lifetime counts
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.Lock()

    @property
    def persistent(self) -> bool:
        return self.disk is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def count(self, field: str) -> int:
        """The lifetime count of one of :data:`FIELDS`."""
        return self.diagnostics.counter(f"{self.name}.{field}")

    def _count(self, field: str, amount: int = 1) -> None:
        self.diagnostics.count_attributed(f"{self.name}.{field}", amount)

    def load(self, key: K) -> V | None:
        """The cached value, refreshed to most-recently-used; or None."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self._count("hits")
                return value
        if self.disk is not None and self.capacity > 0:
            result = self.disk.load(key)
            if result.hit:
                with self._lock:
                    self._count("hits")
                    self._count("disk_hits")
                    self._insert(key, result.artefacts)
                return result.artefacts
        self._count("misses")
        return None

    def store(self, key: K, value: V) -> None:
        """Cache one value (and write it through to disk)."""
        if self.capacity <= 0:
            return
        with self._lock:
            self._count("stores")
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
            self._count("evictions")

    def clear(self) -> int:
        """Drop every in-memory entry (the disk tier is left alone);
        returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            if dropped:
                self._count("invalidations", dropped)
            return dropped

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 when nothing has been looked up."""
        return self.to_dict()["hit_rate"]

    def to_dict(self) -> dict:
        """A JSON-serialisable counter snapshot (the ``stats`` op)."""
        counts = {field: self.count(field) for field in FIELDS}
        lookups = counts["hits"] + counts["misses"]
        return {
            "capacity": self.capacity,
            "size": len(self),
            "persistent": self.persistent,
            **counts,
            "hit_rate": counts["hits"] / lookups if lookups else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} size={len(self)}/{self.capacity} "
            f"hits={self.count('hits')} misses={self.count('misses')} "
            f"disk={'on' if self.persistent else 'off'}>"
        )
