"""A rule-driven static analyzer for generated (and hand-written) code.

The reproduction's stand-in for CogniCrypt_SAST: it checks Python code
against the same CrySL rules the generator consumes, reporting
typestate violations, incomplete operations, constraint violations,
forbidden methods and unsatisfied required predicates.

``ProjectAnalyzer.analyze_sources`` is the one entry point: it
analyzes a ``{module key: source}`` mapping — one module or a whole
directory — interprocedurally via a call graph and per-function
summaries, memoized across runs by the content-addressed
:class:`SummaryCache`. :class:`CrySLAnalyzer` holds the compiled rules
and the per-function engine it runs. :func:`to_sarif` exports any
result as SARIF 2.1.0 with stable :mod:`~repro.sast.fingerprint`
identities and in-source suppressions.
"""

from .analysis import CrySLAnalyzer
from .callgraph import CallGraph, FunctionRef
from .fingerprint import (
    Baseline,
    BaselineDiff,
    BaselineError,
    baseline_from_results,
    compute_fingerprints,
    diff_against_baseline,
)
from .ir import ArgFact, CallRecord, FunctionIR, HelperCall, ObjectTrace, lift_module
from .project import ProjectAnalysisResult, ProjectAnalyzer
from .report import AnalysisResult, Finding, FindingKind
from .sarif import to_sarif
from .summaries import FunctionSummary
from .summary_cache import (
    CachedFunctionAnalysis,
    SummaryCache,
    compute_summary_keys,
)
from .suppressions import apply_suppressions, parse_suppressions

__all__ = [
    "AnalysisResult",
    "ArgFact",
    "Baseline",
    "BaselineDiff",
    "BaselineError",
    "CachedFunctionAnalysis",
    "CallGraph",
    "CallRecord",
    "CrySLAnalyzer",
    "Finding",
    "FindingKind",
    "FunctionIR",
    "FunctionRef",
    "FunctionSummary",
    "HelperCall",
    "ObjectTrace",
    "ProjectAnalysisResult",
    "ProjectAnalyzer",
    "SummaryCache",
    "apply_suppressions",
    "baseline_from_results",
    "compute_fingerprints",
    "compute_summary_keys",
    "diff_against_baseline",
    "lift_module",
    "parse_suppressions",
    "to_sarif",
]
