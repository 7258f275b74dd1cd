"""The one bounded LRU (:class:`repro.cache.LRUCache`).

Every contract runs twice: memory-only (the engine's result cache) and
with a :class:`PickleStore` disk tier (the summary cache's shape). The
disk tier's own edge cases — promotion, corrupt and schema-drifted
entries — are covered in ``tests/sast/test_summary_cache.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.cache import LRUCache, PickleStore
from repro.diagnostics import Diagnostics

SCHEMA = 1


@dataclass(frozen=True)
class Entry:
    schema_version: int
    value: int


def v(value: int) -> Entry:
    return Entry(SCHEMA, value)


@pytest.fixture(params=["memory", "disk"])
def make(request, tmp_path):
    """Build an ``LRUCache(capacity)``, with a fresh disk tier when the
    parameter is ``disk``."""

    def build(capacity: int) -> "LRUCache[str, Entry]":
        disk = None
        if request.param == "disk":
            disk = PickleStore(
                tmp_path / "lru",
                suffix=".entry.pkl",
                payload_type=Entry,
                schema_version=SCHEMA,
                name="lru_store",
            )
        return LRUCache(capacity, name="lru", disk=disk)

    return build


class TestLRUCache:
    def test_hit_miss_counters(self, make):
        cache = make(4)
        assert cache.load("a") is None
        cache.store("a", v(1))
        assert cache.load("a") == v(1)
        assert cache.count("hits") == 1 and cache.count("misses") == 1 and cache.count("stores") == 1
        assert cache.count("disk_hits") == 0  # answered from memory
        assert cache.hit_rate == 0.5

    def test_counts_reach_the_recording_caller(self, make):
        cache = make(4)
        with Diagnostics().recording() as run:
            cache.load("a")
            cache.store("a", v(1))
            cache.load("a")
        cache.load("a")  # nobody recording: the cache's own record only
        assert run.counters == {"lru.misses": 1, "lru.stores": 1, "lru.hits": 1}
        assert cache.count("hits") == 2
        assert cache.diagnostics.counters["lru.hits"] == 2

    def test_lru_eviction_order(self, make):
        cache = make(2)
        cache.store("a", v(1))
        cache.store("b", v(2))
        assert cache.load("a") == v(1)  # refresh 'a' to most-recent
        cache.store("c", v(3))  # overflows: 'b' is now the LRU victim
        assert cache.count("evictions") == 1
        assert cache.load("a") == v(1) and cache.load("c") == v(3)
        assert cache.count("disk_hits") == 0
        # 'b' left memory; a disk tier still holds it
        expected = v(2) if cache.persistent else None
        assert cache.load("b") == expected

    def test_store_existing_key_updates_in_place(self, make):
        cache = make(2)
        cache.store("a", v(1))
        cache.store("a", v(2))
        assert len(cache) == 1
        assert cache.load("a") == v(2)
        assert cache.count("evictions") == 0

    def test_zero_capacity_disables(self, make):
        cache = make(0)
        cache.store("a", v(1))
        assert len(cache) == 0
        assert cache.load("a") is None
        assert cache.count("stores") == 0
        if cache.persistent:
            assert len(cache.disk) == 0  # nothing written through

    def test_hit_rate(self, make):
        cache = make(4)
        assert cache.hit_rate == 0.0
        cache.store("k", v(1))
        cache.load("k")
        cache.load("other")
        assert cache.hit_rate == 0.5

    def test_clear(self, make):
        cache = make(4)
        cache.store("a", v(1))
        cache.store("b", v(2))
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.count("invalidations") == 2
        # clear drops the memory tier only; the disk tier is left alone
        expected = v(1) if cache.persistent else None
        assert cache.load("a") == expected

    def test_to_dict_shape(self, make):
        cache = make(4)
        cache.store("a", v(1))
        cache.load("a")
        cache.load("zzz")
        snapshot = cache.to_dict()
        assert list(snapshot) == [
            "capacity",
            "size",
            "persistent",
            "hits",
            "misses",
            "disk_hits",
            "stores",
            "evictions",
            "invalidations",
            "hit_rate",
        ]
        assert snapshot["size"] == 1 and snapshot["capacity"] == 4
        assert snapshot["hits"] == 1 and snapshot["misses"] == 1
        assert snapshot["hit_rate"] == 0.5
        assert snapshot["persistent"] == cache.persistent
