"""The persistent per-function summary cache behind incremental analysis.

Whole-project analysis spends almost all of its time in the
per-function engine (:mod:`repro.sast.analysis`): replaying typestate
walkers, evaluating constraints and building
:class:`~repro.sast.summaries.FunctionSummary` records. For a resident
``serve`` daemon — or CI runs over a mostly-unchanged project — that
work is overwhelmingly redundant, the same way rule compilation was
before the compiled-rule caches. This module memoizes it.

Key anatomy
-----------

A cached entry is the complete analysis outcome of one function — its
findings, its tracked-object count and its summary — addressed by a
content key with three layers:

* a **node digest** per function: the :data:`SUMMARY_SCHEMA_VERSION`
  (semantics tag, bump on any analyzer change), the serving rule set's
  content fingerprint, the function's module key and qualified name,
  its start line (findings carry absolute line numbers, so a shifted
  function must miss), whether the call graph gives it callers (that
  flag flips deferred-return finalization), the project-defined class
  names the function can see, and the exact source slice of its
  definition;
* a **component digest** per strongly connected component of the call
  graph: the sorted node digests of every member plus the component
  keys of every callee component. Members of a cycle summarize each
  other, so they share fate; callers embed their callees' keys, so a
  callee edit transitively re-keys exactly the caller cone —
  *callgraph-aware invalidation by construction*, mirroring how
  :meth:`~repro.crysl.repository.RuleRepository` recompiles exactly
  the edited rule;
* the per-function **cache key**: the component digest salted with the
  member's own name.

Because invalidation is content-addressed, no dirty-tracking is
needed: when a file changes, only its functions and their caller/SCC
cone compute new keys and miss; everything else hits. The cache is the
repo's one bounded LRU (:class:`repro.cache.LRUCache`, per resident
engine) with an optional persistent tier backed by the same atomic
pickle machinery as the compiled-rule store
(:class:`repro.cache.PickleStore`), so a fresh process starts warm too.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from ..cache.lru import LRUCache
from ..cache.store import PickleStore
from .callgraph import CallGraph, FunctionRef
from .report import Finding
from .summaries import FunctionSummary

#: Version of the cached per-function analysis payload *and* of the
#: analyzer semantics baked into it. Bump on any change to the
#: per-function engine, the summary shapes, the lifter, or the Finding
#: dataclass; old entries then miss and are recomputed.
SUMMARY_SCHEMA_VERSION = 1

_SUFFIX = ".summary.pkl"

#: In-memory entries a resident engine keeps (LRU beyond this).
DEFAULT_CAPACITY = 8192


@dataclass(frozen=True)
class CachedFunctionAnalysis:
    """The complete, replayable outcome of analyzing one function."""

    schema_version: int
    #: ``module:qualname`` the entry was recorded for (sanity tag)
    ref: str
    findings: tuple[Finding, ...]
    tracked_objects: int
    summary: FunctionSummary | None


def compute_summary_keys(
    graph: CallGraph,
    sources: Mapping[str, str],
    ruleset_fingerprint: str,
    *,
    project_classes: Iterable[str] = (),
    schema_version: int = SUMMARY_SCHEMA_VERSION,
) -> dict[FunctionRef, str]:
    """Content-addressed cache keys for every function in the graph.

    Walks the call graph's condensation callees-first so each
    component's digest can fold in the (already computed) keys of the
    components it calls into.
    """
    class_names = sorted(set(project_classes))
    lines_of = {
        key: text.splitlines() for key, text in sources.items()
    }
    node_digest: dict[FunctionRef, str] = {}
    for ref, ir in graph.functions.items():
        lines = lines_of.get(ir.module, [])
        end = ir.end_line or ir.line
        body = "\n".join(lines[max(0, ir.line - 1): end])
        digest = hashlib.sha256()
        digest.update(f"schema:{schema_version}\n".encode())
        digest.update(f"ruleset:{ruleset_fingerprint}\n".encode())
        digest.update(f"function:{ref}\n".encode())
        digest.update(f"line:{ir.line}\n".encode())
        digest.update(f"has_callers:{int(graph.has_callers(ref))}\n".encode())
        digest.update(f"classes:{','.join(class_names)}\n".encode())
        digest.update(body.encode("utf-8"))
        node_digest[ref] = digest.hexdigest()

    keys: dict[FunctionRef, str] = {}
    component_key: dict[FunctionRef, str] = {}
    for component in graph.condensation():
        members = set(component)
        digest = hashlib.sha256()
        for member in component:  # already in name order
            digest.update(node_digest[member].encode())
            digest.update(b"\n")
        callee_keys = sorted(
            {
                component_key[callee]
                for member in component
                for callee in graph.edges.get(member, ())
                if callee not in members
            }
        )
        for callee_key in callee_keys:
            digest.update(callee_key.encode())
            digest.update(b"\n")
        scc_key = digest.hexdigest()
        for member in component:
            component_key[member] = scc_key
            keys[member] = hashlib.sha256(
                f"{scc_key}|{member}".encode()
            ).hexdigest()
    return keys


class SummaryCache(LRUCache[str, CachedFunctionAnalysis]):
    """The per-function analysis memo: an :class:`~repro.cache.LRUCache`
    of :data:`DEFAULT_CAPACITY` entries, with a :class:`PickleStore`
    disk tier when a directory is given.

    Thread-safe: a resident engine's concurrently served ``analyze``
    requests share one instance. The disk tier uses the same
    atomic-pickle, validate-on-load machinery as the compiled-rule
    store, so corrupt or schema-drifted entries are evicted and
    recomputed, never surfaced. Entries of a dead rule set need no
    index: the rule-set fingerprint is part of every key, and the
    engine clears the memory tier when it swaps rule sets.

    Lookups count as ``summary_cache.*``, the disk tier's evictions and
    I/O errors as ``summary_store.*``.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        capacity: int = DEFAULT_CAPACITY,
        schema_version: int = SUMMARY_SCHEMA_VERSION,
    ):
        self.schema_version = schema_version
        disk = None
        if directory is not None:
            disk = PickleStore(
                directory,
                suffix=_SUFFIX,
                payload_type=CachedFunctionAnalysis,
                schema_version=schema_version,
                name="summary_store",
            )
        super().__init__(capacity, name="summary_cache", disk=disk)

    @property
    def directory(self) -> Path | None:
        return self.disk.directory if self.disk is not None else None
