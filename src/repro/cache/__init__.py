"""Persistent compilation cache for CrySL rule artefacts, and the one LRU.

The in-process compiled-rule cache (``RuleSet.compiled``) makes *warm*
generation free; this package makes *cold starts* cheap too, by
persisting each rule's derived artefacts — DFA transition tables,
enumerated accepting paths, label expansions and section indexes — in a
content-addressed on-disk store keyed by the rule source and the
pipeline :data:`~repro.cache.store.SCHEMA_VERSION`.

Attach a store to a rule set and every consumer of that set benefits::

    from repro.cache import DiskRuleCache
    from repro.crysl.ruleset import RuleSet

    rules = RuleSet.bundled().freeze()
    rules.attach_disk_cache(DiskRuleCache("~/.cache/cognicrypt-gen"))

The CLI does exactly this by default (``--cache-dir`` / ``--no-cache``),
and the engine's resident worker pool (``CryptoGenEngine.generate_many``
and ``analyze`` at ``jobs > 1``) warm-starts each worker process from
the same store.

:class:`LRUCache` is the one bounded in-memory memo of the repo. The
engine's generate-result cache uses it memory-only; the per-function
summary cache (:class:`repro.sast.summary_cache.SummaryCache`) gives it
a :class:`PickleStore` disk tier so a fresh process starts warm.
"""

from .lru import LRUCache
from .store import (
    SCHEMA_VERSION,
    CacheDirectoryError,
    CachedArtefacts,
    DiskRuleCache,
    LoadResult,
    PickleStore,
)

__all__ = [
    "SCHEMA_VERSION",
    "CacheDirectoryError",
    "CachedArtefacts",
    "DiskRuleCache",
    "LoadResult",
    "LRUCache",
    "PickleStore",
]
