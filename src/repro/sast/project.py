"""Whole-project, interprocedural analysis.

:class:`ProjectAnalyzer` lifts every module of a directory (or any
mapping of module keys to source text), resolves a call graph over
functions and wrapper-class methods — including classes instantiated in
a *different* module than the one defining them, the exact shape the
generator emits — and analyzes functions callees-first so each call
site can replay its callee's :class:`~repro.sast.summaries.
FunctionSummary` instead of waiving the call.
"""

from __future__ import annotations

import ast as pyast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..diagnostics import (
    ANALYSIS_CALL_EDGES,
    ANALYSIS_FINDINGS,
    ANALYSIS_FUNCTIONS,
    ANALYSIS_MODULES,
    ANALYSIS_OBJECTS,
    ANALYSIS_REANALYZED,
    ANALYSIS_SUMMARIES,
    ANALYSIS_SUPPRESSED,
    SUMMARY_HITS,
    SUMMARY_MISSES,
    SUMMARY_STORES,
    Diagnostics,
)
from ..pysource import parse
from ..trace import span as trace_span
from .analysis import CrySLAnalyzer, SummaryProvider
from .callgraph import CallGraph, FunctionRef
from .ir import FunctionIR, HelperCall, lift_module
from .report import AnalysisResult
from .summaries import FunctionSummary
from .summary_cache import (
    CachedFunctionAnalysis,
    SummaryCache,
    compute_summary_keys,
)
from .suppressions import apply_suppressions, parse_suppressions

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..constraints.types import TypeRegistry
    from ..crysl.ruleset import RuleSet


@dataclass
class ProjectAnalysisResult:
    """Per-module results of one whole-project analysis, in input order."""

    modules: dict[str, AnalysisResult] = field(default_factory=dict)
    #: functions the call graph contained
    total_functions: int = 0
    #: functions whose analysis actually ran this time (summary-cache
    #: misses); ``total - reanalyzed`` were replayed from cache
    reanalyzed_functions: int = 0
    #: summary-cache hits this run
    summary_cache_hits: int = 0

    @property
    def is_secure(self) -> bool:
        return all(result.is_secure for result in self.modules.values())

    @property
    def findings(self) -> list:
        return [f for result in self.modules.values() for f in result.findings]

    @property
    def tracked_objects(self) -> int:
        return sum(result.tracked_objects for result in self.modules.values())

    def render(self) -> str:
        lines = []
        for key, result in self.modules.items():
            lines.append(f"{key}: {result.render()}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """``{module key: per-module report}`` — the ``analyze --json`` shape."""
        return {key: result.to_dict() for key, result in self.modules.items()}


class _GraphSummaries(SummaryProvider):
    """Serves summaries of already-analyzed callees during the
    callees-first sweep; calls into an unfinished cycle find nothing
    and stay opaque."""

    def __init__(
        self, graph: CallGraph, summaries: dict[FunctionRef, FunctionSummary]
    ):
        self._graph = graph
        self._summaries = summaries

    def summary_for(
        self, ir: FunctionIR, call: HelperCall
    ) -> FunctionSummary | None:
        ref = self._graph.resolve(ir, call)
        if ref is None:
            return None
        return self._summaries.get(ref)


class ProjectAnalyzer:
    """Interprocedural analysis over every module of a project."""

    def __init__(
        self,
        ruleset: "RuleSet | None" = None,
        registry: "TypeRegistry | None" = None,
        *,
        analyzer: CrySLAnalyzer | None = None,
        diagnostics: Diagnostics | None = None,
        summary_cache: SummaryCache | None = None,
    ):
        self._analyzer = analyzer or CrySLAnalyzer(ruleset, registry)
        #: cumulative ``analysis.*`` counters over every run; an engine
        #: passes its own instance so generation and analysis share one
        #: cumulative record
        self.diagnostics = diagnostics if diagnostics is not None else Diagnostics()
        #: memoized per-function analyses; a resident engine passes its
        #: own (possibly disk-backed) instance so repeated analyses of a
        #: mostly-unchanged project replay instead of recompute
        self.summary_cache = (
            summary_cache if summary_cache is not None else SummaryCache()
        )

    @property
    def analyzer(self) -> CrySLAnalyzer:
        return self._analyzer

    def analyze_sources(self, sources: Mapping[str, str]) -> ProjectAnalysisResult:
        """Analyze a ``{module key: source text}`` mapping as one project.

        One serial pass: parse and lift every module, build the call
        graph, then analyze (or replay from the summary cache) every
        function callees-first. The run's counters are merged into
        :attr:`diagnostics`.
        """
        sources = dict(sources)
        parsed = parse_modules(sources)
        analyzer = self._analyzer
        cache = self.summary_cache
        diag = Diagnostics()
        for key in (SUMMARY_HITS, SUMMARY_MISSES, SUMMARY_STORES):
            diag.count(key, 0)  # every run reports these, zero or not
        with trace_span("sast:lift"):
            project_classes = frozenset(
                node.name
                for module in parsed.values()
                for node in module.body
                if isinstance(node, pyast.ClassDef)
            )
            functions: list[FunctionIR] = []
            for key, module in parsed.items():
                functions.extend(
                    lift_module(
                        module,
                        analyzer.tracked_classes,
                        analyzer.result_classes,
                        result_types=analyzer.result_types,
                        project_classes=project_classes,
                        module_name=key,
                        file=key,
                    )
                )
        with trace_span("sast:callgraph"):
            graph = CallGraph.build(functions)
        fingerprint = analyzer.ruleset.fingerprint
        keys = compute_summary_keys(
            graph, sources, fingerprint, project_classes=project_classes
        )
        summaries: dict[FunctionRef, FunctionSummary] = {}
        provider = _GraphSummaries(graph, summaries)
        results = {key: AnalysisResult() for key in sources}
        hits = 0
        reanalyzed = 0
        # The summary cache and its disk store count into this run's
        # record (summary_cache.*, summary_store.*).
        with trace_span("sast:analyze"), diag.recording():
            for ref in graph.order():
                ir = graph.functions[ref]
                entry = cache.load(keys[ref])
                if entry is not None and entry.ref == str(ref):
                    # Replay: the cached findings and summary are what
                    # analysis would produce — the key covers the source
                    # slice, the ruleset and everything the function can
                    # (transitively) call into.
                    hits += 1
                    module_result = results[ir.module]
                    module_result.findings.extend(entry.findings)
                    module_result.tracked_objects += entry.tracked_objects
                    if entry.summary is not None:
                        summaries[ref] = entry.summary
                    continue
                reanalyzed += 1
                scratch = AnalysisResult()
                summary = analyzer.analyze_ir(
                    ir,
                    scratch,
                    interproc=provider,
                    defer_returns=graph.has_callers(ref),
                )
                summaries[ref] = summary
                cache.store(
                    keys[ref],
                    CachedFunctionAnalysis(
                        schema_version=cache.schema_version,
                        ref=str(ref),
                        findings=tuple(scratch.findings),
                        tracked_objects=scratch.tracked_objects,
                        summary=summary,
                    ),
                )
                module_result = results[ir.module]
                module_result.findings.extend(scratch.findings)
                module_result.tracked_objects += scratch.tracked_objects
        suppressed = 0
        for key, result in results.items():
            result.findings.sort(
                key=lambda f: (f.line, f.column, f.kind.value, f.variable, f.message)
            )
            # Suppressions are applied to the assembled report — cached
            # entries store raw findings, so toggling a comment never
            # has to invalidate summaries.
            marks = parse_suppressions(sources[key])
            if marks:
                result.findings[:] = apply_suppressions(result.findings, marks)
            suppressed += sum(1 for f in result.findings if f.suppressed)
        diag.count(ANALYSIS_MODULES, len(sources))
        diag.count(ANALYSIS_FUNCTIONS, len(functions))
        diag.count(
            ANALYSIS_CALL_EDGES, sum(len(edges) for edges in graph.edges.values())
        )
        diag.count(ANALYSIS_SUMMARIES, len(summaries))
        diag.count(
            ANALYSIS_OBJECTS, sum(r.tracked_objects for r in results.values())
        )
        diag.count(
            ANALYSIS_FINDINGS, sum(len(r.findings) for r in results.values())
        )
        diag.count(ANALYSIS_REANALYZED, reanalyzed)
        diag.count(ANALYSIS_SUPPRESSED, suppressed)
        self.diagnostics.merge(diag)
        return ProjectAnalysisResult(
            modules=results,
            total_functions=len(functions),
            reanalyzed_functions=reanalyzed,
            summary_cache_hits=hits,
        )


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_modules(sources: Mapping[str, str]) -> dict[str, pyast.Module]:
    """Parse every module of a project once, keyed like ``sources``."""
    with trace_span("sast:lift"):
        return {key: parse(text, key) for key, text in sources.items()}
