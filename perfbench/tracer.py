"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public functions of each layer (named after
the module that owns them) with a timing span. Nothing under ``src/``
is edited: the wrappers replace module and class attributes at run
time and :meth:`Installation.uninstall` puts the originals back.

A span's *self* time is its duration minus the time its child spans
cover. Spans nest per thread, so a threaded daemon attributes each
request's work to that request's stack. Spans with no parent are
*roots*; the benchmark compares the wall time of its operations with
the roots' total to report the remainder no span covers.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator


class Tracer:
    """Thread-safe per-layer totals: self time, inclusive time, calls,
    and free-form counters fed by the wrappers' result hooks."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: summed duration of spans opened with no parent span
        self.root_s = 0.0

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [0.0]  # child seconds, filled in by nested spans
        stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            with self._lock:
                self.self_s[layer] += elapsed - frame[0]
                self.total_s[layer] += elapsed
                self.calls[layer] += 1
                if not stack:
                    self.root_s += elapsed

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "root_s": self.root_s,
            }

    def absorb(self, data: dict) -> None:
        """Add another tracer's :meth:`to_dict` (a child process's)."""
        with self._lock:
            for key in ("self_s", "total_s", "calls", "counts"):
                mine = getattr(self, key)
                for name, value in data[key].items():
                    mine[name] += value
            self.root_s += data["root_s"]

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")


class Installation:
    """The wrappers one :func:`install` call put in place."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []

    def wrap(
        self,
        tracer: Tracer,
        owner: object,
        attr: str,
        layer: str,
        hook: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span around the original.

        ``hook(result, args, kwargs, before)`` runs after the call with
        whatever ``prepare(args, kwargs)`` returned before it, when the
        hook is given as a ``(prepare, hook)`` pair; a bare hook gets
        ``before=None``.
        """
        raw = inspect.getattr_static(owner, attr)
        inherited = isinstance(owner, type) and attr not in owner.__dict__
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        prepare, after = hook if isinstance(hook, tuple) else (None, hook)

        def wrapper(*args, **kwargs):
            before = prepare(args, kwargs) if prepare is not None else None
            with tracer.span(layer):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs, before)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patched.append((owner, attr, None if inherited else raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patched.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every traced layer's public entry points."""
    from repro.cache.store import DiskRuleCache
    from repro.codegen import generator as codegen_generator
    from repro.codegen.emitter import ChainEmitter
    from repro.codegen import selector as codegen_selector
    from repro.crysl.ruleset import RuleSet
    from repro.diagnostics import COMBOS_EVALUATED, PATHS_CANDIDATES, PATHS_KEPT
    from repro.engine.core import CryptoGenEngine
    from repro.fsm import build as fsm_build
    from repro.fsm import paths as fsm_paths
    from repro.fsm.kernel import DfaKernel
    from repro.predicates import linker as predicates_linker
    from repro.sast import analysis as sast_analysis
    from repro.sast import ir as sast_ir
    from repro.sast import project as sast_project
    from repro.sast import summary_cache as sast_summary_cache
    from repro.sast.callgraph import CallGraph

    done = Installation()

    def wrap(owner, attr, layer, hook=None):
        done.wrap(tracer, owner, attr, layer, hook)

    wrap(RuleSet, "bundled", "crysl.parse")

    def dfa_built(result, args, kwargs, before):
        tracer.count("fsm.dfa_builds")

    wrap(fsm_build, "rule_dfa", "fsm.compile", dfa_built)
    wrap(DfaKernel, "from_dfa", "fsm.compile")
    wrap(fsm_paths, "enumerate_paths", "fsm.paths")

    # DiskRuleCache inherits load/store from PickleStore, which the
    # summary cache's disk tier also uses: wrapping them on the
    # subclass alone tells rule-artefact traffic apart from summaries.
    def artefact_loaded(result, args, kwargs, before):
        tracer.count("cache.hits" if result.hit else "cache.misses")

    wrap(DiskRuleCache, "load", "cache.load", artefact_loaded)
    wrap(DiskRuleCache, "store", "cache.store")

    wrap(codegen_generator, "parse_template_source", "codegen.template")
    wrap(codegen_generator, "parse_template_file", "codegen.template")
    for module in (codegen_generator, codegen_selector, predicates_linker):
        wrap(module, "compute_links", "predicates.link")
    wrap(ChainEmitter, "emit", "codegen.emitter.emit")

    def diag_of(args, kwargs):
        diag = kwargs.get("diagnostics")
        if diag is None:
            return None
        return diag, tuple(
            diag.counter(key)
            for key in (COMBOS_EVALUATED, PATHS_CANDIDATES, PATHS_KEPT)
        )

    def selected(result, args, kwargs, before):
        if before is None:
            return
        diag, (combos, candidates, kept) = before
        tracer.count("select.combos", diag.counter(COMBOS_EVALUATED) - combos)
        tracer.count(
            "select.candidates", diag.counter(PATHS_CANDIDATES) - candidates
        )
        tracer.count("select.kept", diag.counter(PATHS_KEPT) - kept)

    wrap(codegen_generator, "select", "codegen.selector.select", (diag_of, selected))
    wrap(codegen_generator.CrySLBasedCodeGenerator, "generate", "codegen.generator")

    for module in (sast_ir, sast_project, sast_analysis):
        wrap(module, "lift_module", "sast.ir.lift")
    wrap(CallGraph, "build", "sast.callgraph")
    for module in (sast_summary_cache, sast_project):
        wrap(module, "compute_summary_keys", "sast.summary_keys")
    wrap(sast_summary_cache.SummaryCache, "load", "sast.summary_cache.load")
    wrap(sast_summary_cache.SummaryCache, "store", "sast.summary_cache.store")
    wrap(sast_analysis.CrySLAnalyzer, "analyze_ir", "sast.analysis.analyze_ir")

    def analyzed(result, args, kwargs, before):
        tracer.count("sast.functions", result.total_functions)
        tracer.count("sast.reanalyzed", result.reanalyzed_functions)
        tracer.count("sast.summary_hits", result.summary_cache_hits)

    wrap(sast_project.ProjectAnalyzer, "analyze_sources", "sast.project", analyzed)

    def engine_generated(result, args, kwargs, before):
        tracer.count("engine.generates")
        if result.cached:
            tracer.count("engine.cached")

    wrap(CryptoGenEngine, "generate", "engine.generate", engine_generated)
    return done
