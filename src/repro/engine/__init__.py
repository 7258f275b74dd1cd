"""The long-lived engine service layer.

One :class:`CryptoGenEngine` owns the warm state the rest of the stack
shares — a frozen rule set (optionally an incremental
:class:`~repro.crysl.RuleRepository`), a compiled-rule disk cache, a
persistent worker pool and one cumulative diagnostics record — and
serves :class:`GenerateRequest`/:class:`AnalyzeRequest` objects. The
CLI, the batch generator, the project analyzer and the eval harness
are all thin callers of this facade; :class:`EngineServer` exposes it
as a daemon speaking newline-delimited JSON (``cognicrypt-gen serve``).
"""

from ..workers import SupervisedWorkerPool, SupervisorConfig
from .breaker import BreakerConfig, BreakerRegistry, CircuitOpenError
from .core import (
    AnalyzeRequest,
    AnalyzeResult,
    CryptoGenEngine,
    EngineError,
    EngineRequestError,
    GenerateRequest,
    GenerateResult,
    ResultKey,
    expand_analyze_paths,
)
from .server import PROTOCOL_VERSION, EngineServer

__all__ = [
    "AnalyzeRequest",
    "AnalyzeResult",
    "BreakerConfig",
    "BreakerRegistry",
    "CircuitOpenError",
    "CryptoGenEngine",
    "EngineError",
    "EngineRequestError",
    "EngineServer",
    "GenerateRequest",
    "GenerateResult",
    "PROTOCOL_VERSION",
    "ResultKey",
    "SupervisedWorkerPool",
    "SupervisorConfig",
    "expand_analyze_paths",
]
