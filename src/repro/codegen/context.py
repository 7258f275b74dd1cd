"""The shared GenerationContext threaded through the pipeline stages.

One context bundles everything the five stages (collect → link →
select → resolve → emit) share:

* the rule set and its compiled-rule cache (``context.compiled``),
* the type registry used by constraint evaluation,
* cumulative diagnostics across every run of the context,
* pipeline policy knobs (``max_paths``) and the optional persistent
  artefact store (``cache_dir`` — see :mod:`repro.cache`).

A context is *warm state*: it lives as long as its generator, and
repeated generation through the same context — an engine's batches,
the CLI's multi-template mode, the eval harness — pays rule compilation
exactly once. Each :meth:`run` yields a fresh per-run
:class:`~repro.diagnostics.Diagnostics` that records the rule set's
compile-cache counts while the run lasts, and on exit merges it into
the cumulative record; with a disk cache attached, run exit also
flushes newly compiled artefacts to disk, and the store's evictions,
I/O errors and warnings reach the run's record as they happen. Runs
may execute concurrently from many threads
over one shared rule set: the recording is context-local
(:meth:`repro.diagnostics.Diagnostics.recording`), so one request's
DFA builds never leak into another request's record.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from ..cache import DiskRuleCache
from ..constraints.types import TypeRegistry, default_registry
from ..crysl.ast import Rule
from ..crysl.compiled import CompiledRule
from ..crysl.ruleset import RuleSet, bundled_ruleset
from ..diagnostics import (
    COMPILED_HITS,
    COMPILED_MISSES,
    DFA_BUILDS,
    DISK_EVICTIONS,
    DISK_HITS,
    DISK_MISSES,
    DISK_WRITES,
    PATH_ENUMERATIONS,
    Diagnostics,
)
from ..trace import span as trace_span

#: Compile-cache keys every run reports, zero or not.
_RUN_KEYS = (COMPILED_HITS, COMPILED_MISSES, DFA_BUILDS, PATH_ENUMERATIONS)
#: Disk-cache keys every run reports while a disk cache is attached.
_DISK_RUN_KEYS = (DISK_HITS, DISK_MISSES, DISK_WRITES, DISK_EVICTIONS)


class GenerationContext:
    """Shared state for one or many generation runs."""

    def __init__(
        self,
        ruleset: RuleSet | None = None,
        registry: TypeRegistry | None = None,
        *,
        max_paths: int | None = None,
        cache_dir: str | Path | None = None,
        diagnostics: Diagnostics | None = None,
    ):
        self.ruleset = ruleset if ruleset is not None else bundled_ruleset()
        self.registry = registry if registry is not None else default_registry()
        #: path-explosion bound for rules compiled through this context;
        #: ``None`` keeps :data:`repro.fsm.paths.MAX_PATHS`. Only
        #: affects rules not yet in the set's compile cache, so pass a
        #: private rule set when overriding it.
        self.max_paths = max_paths
        if cache_dir is not None and self.ruleset.disk_cache is None:
            self.ruleset.attach_disk_cache(DiskRuleCache(cache_dir))
        #: cumulative diagnostics over every run of this context; an
        #: engine passes its own instance so the cumulative record
        #: survives context rebuilds (e.g. a rule-repository refresh)
        self.diagnostics = diagnostics if diagnostics is not None else Diagnostics()
        #: completed runs (one ``generate()`` call each)
        self.runs = 0

    def compiled(self, rule: Rule | str) -> CompiledRule:
        """The compiled artefacts for one rule (cached on the rule set)."""
        return self.ruleset.compiled(rule, max_paths=self.max_paths)

    @contextmanager
    def run(self) -> Iterator[Diagnostics]:
        """Scope one generation run; yields its private diagnostics.

        The run's record receives the rule set's compile-cache counts
        (cache hits/misses, DFA builds, path enumerations, disk-cache
        traffic) as they happen. On exit — success or failure — newly
        compiled artefacts are flushed to the attached disk cache (if
        any), and the run is merged into :attr:`diagnostics`.
        """
        diag = Diagnostics()
        disk = self.ruleset.disk_cache is not None
        for key in _RUN_KEYS + (_DISK_RUN_KEYS if disk else ()):
            diag.count(key, 0)
        try:
            with diag.recording():
                try:
                    yield diag
                finally:
                    with trace_span("cache:flush"):
                        self.ruleset.flush_disk_cache()
        finally:
            self.runs += 1
            self.diagnostics.merge(diag)

    def __repr__(self) -> str:
        return (
            f"<GenerationContext rules={len(self.ruleset)} runs={self.runs}>"
        )
