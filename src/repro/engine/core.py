"""The long-lived engine service layer.

:class:`CryptoGenEngine` is the resident facade over the whole stack.
It owns, for its entire lifetime, exactly one of each piece of warm
state the one-shot CLI used to rebuild per invocation:

* one frozen rule set — bundled, or an incremental
  :class:`~repro.crysl.repository.RuleRepository` over a directory;
* one :class:`~repro.cache.DiskRuleCache` (optional);
* one warm :class:`~repro.workers.SupervisedWorkerPool` (created on
  the first parallel request, reused by every later one; its size is
  the request's ``jobs``, clamped to the CPU count);
* one cumulative :class:`~repro.diagnostics.Diagnostics`, shared by
  the generation context, the project analyzer, the pool supervisor
  and the serve daemon, so every counter covers the engine's lifetime
  (the rule set's own record holds its compile counts).

Every caller — the CLI, the ``serve`` daemon, the eval harness — goes
through the same two dataclasses: :class:`GenerateRequest` and
:class:`AnalyzeRequest`. Requests never raise for recoverable pipeline
errors; they return a :class:`GenerateResult`/:class:`AnalyzeResult`
carrying either the artefact or a structured :class:`EngineError`,
plus the request's :class:`~repro.trace.Trace` (span tree over codegen,
sast and cache layers) and the DFA builds it caused, so one request's
cost is attributable end to end. Unexpected exceptions still propagate.

:meth:`CryptoGenEngine.generate_many` is the one batch API: every
template of a batch is one generate request — one read of the file,
result-cache lookup, breaker admit, pipeline, breaker record and cache
store — and ``jobs`` only decides whether each pipeline step runs
in-process or as a task on the resident pool. A result's
``dfa_builds`` is what its own run caused, wherever it ran; a pool
worker's warm-start counts go to the first result it returns.

The engine is thread-safe: many threads (the serve daemon's shared
worker pool) may issue ``generate``/``analyze`` concurrently. Request
ids and counters move under an internal lock, each request records the
compile counts its own thread causes into a private
:class:`~repro.diagnostics.Diagnostics`
(:meth:`~repro.diagnostics.Diagnostics.recording`), rule compilation
is single-flight on the rule set, and repeated identical generate
requests are answered from a bounded :class:`~repro.cache.LRUCache`
keyed by :class:`ResultKey`, which a dirty ``refresh_rules`` clears
together with the summary cache. Only ``refresh_rules`` and parallel
requests serialize against each other (they swap or share the process
worker pool).
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .. import faults
from ..codegen import (
    CrySLBasedCodeGenerator,
    GeneratedModule,
    GenerationContext,
    GenerationError,
)
from ..codegen.template import decode_template
from ..cache.lru import LRUCache
from ..cache.store import SCHEMA_VERSION
from ..crysl import RuleRepository, RuleSet, bundled_ruleset
from ..crysl.repository import RefreshReport
from ..diagnostics import (
    DFA_BUILDS,
    DISK_IO_ERRORS,
    SUMMARY_STORE_IO_ERRORS,
    Diagnostics,
    register_stage,
)
from ..sast.summary_cache import SummaryCache
from ..trace import Trace, activate as activate_trace
from ..workers import (
    RECOVERABLE_ERRORS,
    SOURCE,
    SupervisedWorkerPool,
    SupervisorConfig,
    TaskOutcome,
)
from .breaker import BreakerConfig, BreakerRegistry, CircuitOpenError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..cache import DiskRuleCache
    from ..constraints.types import TypeRegistry
    from ..sast import ProjectAnalyzer
    from ..sast.project import ProjectAnalysisResult

#: Engine-level pipeline stages (beyond the paper's Figure 6).
SERVE_STAGE = register_stage("serve")
REPOSITORY_STAGE = register_stage("repository")

#: Default number of memoized generate results a resident engine keeps.
#: ``CryptoGenEngine(result_cache_size=0)`` disables the result cache
#: (tests and benchmarks use it to measure the uncached pipeline).
DEFAULT_CAPACITY = 256


@dataclass(frozen=True)
class ResultKey:
    """The identity of one generate request, by content not by path.

    An edited template misses (the digest covers its content), and any
    rule change misses (the rule-set fingerprint is part of the key).
    """

    #: sha256 of the template source bytes
    template_digest: str
    #: the module name the template was generated under
    name: str
    #: sha256 content fingerprint of the serving rule set
    ruleset_fingerprint: str
    #: effective verify flag (request override folded in)
    verify: bool
    #: effective path-explosion bound (None = pipeline default)
    max_paths: int | None
    #: compiled-artefact schema version (pipeline semantics tag)
    schema_version: int


class EngineRequestError(ValueError):
    """A malformed request (missing/conflicting fields)."""


#: What a request turns into a structured EngineError: the recoverable
#: errors a pool task catches too, plus malformed requests.
REQUEST_ERRORS = RECOVERABLE_ERRORS + (EngineRequestError,)


@dataclass(frozen=True)
class GenerateRequest:
    """One generation request: a template path or inline source."""

    template: str | None = None
    source: str | None = None
    #: module name for inline sources (diagnostics and SAST keys)
    name: str | None = None
    #: per-request override of the engine's verify default
    verify: bool | None = None
    request_id: str | None = None


@dataclass(frozen=True)
class AnalyzeRequest:
    """One analysis request: paths on disk and/or inline sources."""

    paths: tuple[str, ...] = ()
    sources: Mapping[str, str] | None = None
    jobs: int = 1
    request_id: str | None = None


@dataclass(frozen=True)
class EngineError:
    """A structured, recoverable request failure.

    ``retryable`` marks failures a well-behaved client should simply
    retry (overload, open circuit breaker); ``retry_after_ms`` is the
    suggested delay when the server can estimate one.
    """

    type: str
    message: str
    retryable: bool = False
    retry_after_ms: float | None = None

    def to_dict(self) -> dict:
        payload = {"type": self.type, "message": self.message}
        if self.retryable:
            payload["retryable"] = True
        if self.retry_after_ms is not None:
            payload["retry_after_ms"] = self.retry_after_ms
        return payload

    def __str__(self) -> str:
        return f"[{self.type}] {self.message}"


@dataclass
class _ResultBase:
    request_id: str
    elapsed_seconds: float
    trace: Trace
    error: EngineError | None = None
    #: DFA builds this request caused (0 on every warm request)
    dfa_builds: int = 0
    #: True when the whole result came out of the engine's result cache
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def warm(self) -> bool:
        """True when the request compiled nothing from scratch."""
        return self.dfa_builds == 0

    def _base_dict(self, kind: str) -> dict:
        return {
            "id": self.request_id,
            "ok": self.ok,
            "op": kind,
            "elapsed_ms": self.elapsed_seconds * 1000.0,
            "dfa_builds": self.dfa_builds,
            "warm": self.warm,
            "cached": self.cached,
            "trace": self.trace.to_dict(),
            **({"error": self.error.to_dict()} if self.error else {}),
        }


@dataclass
class GenerateResult(_ResultBase):
    """Outcome of one :class:`GenerateRequest`."""

    module: GeneratedModule | None = None

    def to_dict(self) -> dict:
        payload = self._base_dict("generate")
        if self.module is not None:
            payload["result"] = {
                "source": self.module.source,
                "template_class": self.module.template_class,
                "output_class": self.module.output_class,
                "report": self.module.report_dict(),
            }
        return payload


@dataclass
class AnalyzeResult(_ResultBase):
    """Outcome of one :class:`AnalyzeRequest`."""

    analysis: "ProjectAnalysisResult | None" = None
    #: functions whose analysis actually ran for this request — the
    #: per-request delta parallel to ``dfa_builds``; 0 on a fully warm
    #: re-analysis of an unchanged project
    reanalyzed_functions: int = 0

    @property
    def is_secure(self) -> bool:
        return self.analysis is not None and self.analysis.is_secure

    def to_dict(self) -> dict:
        payload = self._base_dict("analyze")
        payload["reanalyzed_functions"] = self.reanalyzed_functions
        if self.analysis is not None:
            payload["result"] = {
                "is_secure": self.analysis.is_secure,
                "findings": len(self.analysis.findings),
                "total_functions": self.analysis.total_functions,
                "summary_cache_hits": self.analysis.summary_cache_hits,
                "modules": self.analysis.to_dict(),
            }
        return payload


def _engine_error(exc: BaseException) -> EngineError:
    return EngineError(type(exc).__name__, str(exc))


@dataclass(frozen=True)
class _Admitted:
    """A generate request past its result-cache lookup and its breaker."""

    request_id: str
    request: GenerateRequest
    #: the template bytes, or the ``OSError`` reading them raised
    payload: bytes | OSError | None
    key: ResultKey | None
    breaker_key: tuple[str, str] | None


def expand_analyze_paths(entries: Iterable[str | Path]) -> list[Path]:
    """Files as-is; directories recurse into ``*.py``.

    The result is deduplicated (overlapping entries — a directory plus
    a file inside it, or the same entry twice — yield each file once)
    and deterministically sorted, so analysis input order never depends
    on how the caller spelled the target set.
    """
    seen: set[Path] = set()
    paths: list[Path] = []
    for entry in entries:
        path = Path(entry)
        if path.is_dir():
            candidates = [p for p in path.rglob("*.py") if p.is_file()]
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                paths.append(candidate)
    return sorted(paths, key=str)


class CryptoGenEngine:
    """A resident engine: one ruleset, one cache, one pool, one record."""

    def __init__(
        self,
        *,
        rules_dir: str | Path | None = None,
        ruleset: RuleSet | None = None,
        cache: "DiskRuleCache | None" = None,
        cache_dir: str | Path | None = None,
        registry: "TypeRegistry | None" = None,
        max_paths: int | None = None,
        verify: bool = False,
        result_cache_size: int = DEFAULT_CAPACITY,
        summary_cache_dir: str | Path | None = None,
        breaker_config: BreakerConfig | None = None,
        supervisor_config: SupervisorConfig | None = None,
    ):
        if rules_dir is not None and ruleset is not None:
            raise ValueError("pass rules_dir or ruleset, not both")
        if cache is None and cache_dir is not None:
            from ..cache import DiskRuleCache

            cache = DiskRuleCache(cache_dir)
        self._cache = cache
        # The resident per-function summary store. With a disk cache,
        # summaries persist beside the compiled-rule artefacts so a
        # fresh engine starts warm.
        if summary_cache_dir is None and cache is not None:
            summary_cache_dir = cache.directory / "summaries"
        self.summary_cache = SummaryCache(summary_cache_dir)
        self._verify = verify
        self._max_paths = max_paths
        self._registry = registry
        #: the one cumulative record, shared by generation and analysis;
        #: it survives context rebuilds on repository refreshes
        self.diagnostics = Diagnostics()
        #: completed requests (generate + analyze)
        self.requests = 0
        self._request_counter = 0
        #: guards request ids, counters and lazy service construction
        self._lock = threading.RLock()
        #: serializes refresh_rules against parallel requests — both
        #: touch the process worker pool, which must not be torn down
        #: mid-batch. Serial generate/analyze never take it.
        self._batch_lock = threading.Lock()
        #: memo of completed generate requests; hits share the module
        #: object, so nothing may mutate a cached GeneratedModule
        self.result_cache: "LRUCache[ResultKey, GeneratedModule]" = LRUCache(
            result_cache_size, name="result_cache"
        )
        #: per-(op, input-fingerprint) circuit breakers — a poisoned
        #: template fails fast instead of burning a worker per arrival
        self.breakers = BreakerRegistry(
            breaker_config, diagnostics=self.diagnostics
        )
        self._supervisor_config = supervisor_config
        self._repository: RuleRepository | None = None
        if rules_dir is not None:
            self._repository = RuleRepository(rules_dir, disk_cache=cache)
            ruleset = self._repository.ruleset
        elif ruleset is not None:
            ruleset.freeze()
            if cache is not None and ruleset.disk_cache is None:
                ruleset.attach_disk_cache(cache)
        elif cache is not None:
            # A disk cache must never be attached to the shared bundled
            # singleton (other consumers in the process would inherit
            # it), so caching always gets a private frozen set.
            ruleset = RuleSet.bundled().freeze()
            ruleset.attach_disk_cache(cache)
        else:
            ruleset = bundled_ruleset()
        self._pool: SupervisedWorkerPool | None = None
        self._build_services(ruleset)

    # ------------------------------------------------------------------
    # owned services
    # ------------------------------------------------------------------

    def _build_services(self, ruleset: RuleSet) -> None:
        """(Re)build generator + analyzer around one frozen rule set.

        Also clears both memo caches: their entries were computed under
        the *previous* rule set, and even though the fingerprint in
        every key makes them unreachable, dropping them keeps the
        caches from pinning dead rule-set snapshots.
        """
        self.result_cache.clear()
        # The engine's record counts summary_cache.invalidations.
        with self.diagnostics.recording():
            self.summary_cache.clear()
        self.context = GenerationContext(
            ruleset=ruleset,
            registry=self._registry,
            max_paths=self._max_paths,
            diagnostics=self.diagnostics,
        )
        self._generator = CrySLBasedCodeGenerator(
            context=self.context, verify=self._verify
        )
        self._analyzer: "ProjectAnalyzer | None" = None
        self._close_pool()

    @property
    def ruleset(self) -> RuleSet:
        return self.context.ruleset

    @property
    def generator(self) -> CrySLBasedCodeGenerator:
        return self._generator

    @property
    def repository(self) -> RuleRepository | None:
        return self._repository

    @property
    def analyzer(self) -> "ProjectAnalyzer":
        """The lazy project analyzer, sharing the engine's rule set and
        cumulative diagnostics (so compiled artefacts are reused)."""
        if self._analyzer is None:
            from ..sast import ProjectAnalyzer

            with self._lock:
                if self._analyzer is None:
                    self._analyzer = ProjectAnalyzer(
                        self.ruleset,
                        self.context.registry,
                        diagnostics=self.diagnostics,
                        summary_cache=self.summary_cache,
                    )
        return self._analyzer

    def pool(self, jobs: int) -> SupervisedWorkerPool:
        """The supervised warm worker pool, (re)created when ``jobs`` grows.

        ``jobs`` is clamped to the CPU count here, for every caller, so
        no request sizes the pool beyond the machine. Building the pool
        starts no process; its first batch does.

        Supervision means batches never see a raw ``BrokenProcessPool``:
        worker death restarts the pool (bounded backoff + jitter) and
        resubmits the batch; an exhausted restart budget degrades the
        batch to in-process serial execution (see :mod:`repro.workers`).
        """
        jobs = min(jobs, os.cpu_count() or 1)
        if self._pool is not None and self._pool.jobs < jobs:
            self._close_pool()
        if self._pool is None:
            self._pool = SupervisedWorkerPool(
                self._generator,
                jobs,
                config=self._supervisor_config,
                diagnostics=self.diagnostics,
            )
        return self._pool

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def close(self) -> None:
        """Release the worker pool and flush pending cache writes."""
        self._close_pool()
        self.ruleset.flush_disk_cache()

    def __enter__(self) -> "CryptoGenEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------

    def _next_request_id(self, explicit: str | None) -> str:
        if explicit is not None:
            return explicit
        with self._lock:
            self._request_counter += 1
            return f"req-{self._request_counter}"

    def _count_request(self) -> None:
        with self._lock:
            self.requests += 1

    @staticmethod
    def _payload(request: GenerateRequest) -> bytes | OSError | None:
        """The request's template bytes (or the ``OSError`` reading the
        file raised; None without a payload). Key, breaker and pipeline
        share this one read, so a racing save cannot pair one content's
        module with another content's key."""
        if request.source is not None:
            return request.source.encode("utf-8")
        if request.template is not None:
            try:
                return Path(request.template).read_bytes()
            except OSError as exc:
                return exc
        return None

    def _result_key(
        self, request: GenerateRequest, digest: str | None
    ) -> ResultKey | None:
        """The request's result-cache identity; None when uncacheable.

        Templates are keyed by the *content* ``digest``, so an edited
        template misses instead of serving stale code; an unreadable
        file (no digest) lets the pipeline produce the structured error
        (errors are never cached).
        """
        if self.result_cache.capacity <= 0 or digest is None:
            return None
        if request.source is not None:
            name = request.name or "<template>"
        else:
            name = Path(request.template).stem
        verify = self._verify if request.verify is None else request.verify
        return ResultKey(
            template_digest=digest,
            name=name,
            ruleset_fingerprint=self.ruleset.fingerprint,
            verify=verify,
            max_paths=self._max_paths,
            schema_version=SCHEMA_VERSION,
        )

    def _cached_result(
        self, request_id: str, module: GeneratedModule
    ) -> GenerateResult:
        """Wrap a memoized module as a fresh (cache-hit) result.

        The module object is shared with every other hit, so it is not
        mutated here — the hit gets its own id and a minimal trace
        whose single span marks where the answer came from.
        """
        trace = Trace(request_id)
        with activate_trace(trace), trace.span("request:generate"):
            with trace.span("result-cache:hit"):
                pass
        self._count_request()
        return GenerateResult(
            request_id=request_id,
            elapsed_seconds=trace.total_seconds,
            trace=trace,
            error=None,
            dfa_builds=0,
            cached=True,
            module=module,
        )

    def _circuit_open_result(
        self, request_id: str, op: str, exc: CircuitOpenError
    ) -> GenerateResult | "AnalyzeResult":
        """Wrap a breaker fast-fail as a structured, retryable result."""
        trace = Trace(request_id)
        with activate_trace(trace), trace.span(f"request:{op}"):
            trace.event("breaker:fast-fail", op=op)
        self._count_request()
        error = EngineError(
            "CircuitOpenError",
            str(exc),
            retryable=True,
            retry_after_ms=exc.retry_after_ms,
        )
        cls = GenerateResult if op == "generate" else AnalyzeResult
        return cls(
            request_id=request_id,
            elapsed_seconds=trace.total_seconds,
            trace=trace,
            error=error,
        )

    def _admit(
        self, request: GenerateRequest, running: "set[ResultKey] | None" = None
    ) -> "GenerateResult | _Admitted | None":
        """A generate request's steps before its pipeline: one read of
        the template, the result-cache lookup and the breaker admit. A
        cache hit or an open breaker is already the result.

        A request whose key is in ``running`` (the keys a pooled batch
        round already runs) returns ``None``, to wait for a later round.
        """
        request_id = self._next_request_id(request.request_id)
        payload = self._payload(request)
        readable = isinstance(payload, bytes)
        digest = hashlib.sha256(payload).hexdigest() if readable else None
        key = self._result_key(request, digest)
        if running is not None and key in running:
            return None
        if key is not None:
            # Lookups count into the engine's record (result_cache.*).
            with self.diagnostics.recording():
                hit = self.result_cache.load(key)
            if hit is not None:
                return self._cached_result(request_id, hit)
        # Breakers key inputs by content; an unreadable path is its own
        # failure mode worth breaking on, keyed by its spelling.
        fingerprint = digest
        if isinstance(payload, OSError):
            fingerprint = hashlib.sha256(
                f"path:{request.template}".encode("utf-8")
            ).hexdigest()
        breaker_key = ("generate", fingerprint) if fingerprint else None
        if breaker_key is not None:
            try:
                self.breakers.admit(breaker_key)
            except CircuitOpenError as exc:
                return self._circuit_open_result(request_id, "generate", exc)
        if running is not None and key is not None:
            running.add(key)
        return _Admitted(request_id, request, payload, key, breaker_key)

    def _pipeline_input(self, item: "_Admitted") -> tuple[str, str, bool]:
        """The ``(text, name, verify)`` an admitted request's pipeline
        step runs on. Raises what that step would for an unreadable
        template or an empty request, in-process or not."""
        faults.maybe_raise(
            "compile_error", GenerationError("injected compile fault")
        )
        request = item.request
        verify = self._verify if request.verify is None else request.verify
        if request.source is not None:
            return request.source, request.name or "<template>", verify
        if isinstance(item.payload, OSError):
            raise item.payload
        if item.payload is None:
            raise EngineRequestError(
                "generate request needs a template path or source"
            )
        name = str(Path(request.template))
        return decode_template(item.payload, name), name, verify

    @contextmanager
    def _breaker_guard(
        self, keys: "Iterable[tuple[str, str] | None]"
    ) -> Iterator[None]:
        """Unexpected exceptions propagate — but they burned a worker,
        so they count against each input's breaker (and release a
        pending half-open probe slot)."""
        try:
            yield
        except BaseException:
            for key in keys:
                if key is not None:
                    self.breakers.record_failure(key)
            raise

    def _settle(
        self, key: tuple[str, str] | None, error: EngineError | None
    ) -> None:
        """Record a finished request's outcome on its input's breaker."""
        if key is None:
            return
        if error is None:
            self.breakers.record_success(key)
        else:
            self.breakers.record_failure(key)

    def _finish(
        self,
        item: "_Admitted",
        trace: Trace,
        module: GeneratedModule | None,
        error: EngineError | None,
        dfa_builds: int,
        elapsed_seconds: float,
    ) -> GenerateResult:
        """A generate request's steps after its pipeline: the breaker
        record and the result-cache store (errors are never cached)."""
        self._settle(item.breaker_key, error)
        if module is not None:
            module.diagnostics.trace = trace
            if item.key is not None:
                self.result_cache.store(item.key, module)
        self._count_request()
        return GenerateResult(
            request_id=item.request_id,
            elapsed_seconds=elapsed_seconds,
            trace=trace,
            error=error,
            dfa_builds=dfa_builds,
            module=module,
        )

    def generate(self, request: GenerateRequest) -> GenerateResult:
        """Serve one generation request; recoverable errors are data.

        Two fault-tolerance layers gate the pipeline: the result cache
        answers repeats for free, and the input's circuit breaker
        rejects known-poisoned templates fast (``CircuitOpenError`` as
        a structured retryable error) instead of burning a worker on
        every arrival.
        """
        item = self._admit(request)
        if isinstance(item, GenerateResult):
            return item
        trace = Trace(item.request_id)
        module: GeneratedModule | None = None
        error: EngineError | None = None
        with self._breaker_guard([item.breaker_key]), activate_trace(
            trace
        ), trace.span("request:generate"):
            with Diagnostics().recording() as delta:
                try:
                    text, name, verify = self._pipeline_input(item)
                    module = self._generator.generate_from_source(
                        text, name, verify=verify
                    )
                except REQUEST_ERRORS as exc:
                    error = _engine_error(exc)
        return self._finish(
            item,
            trace,
            module,
            error,
            delta.counter(DFA_BUILDS),
            trace.total_seconds,
        )

    def generate_many(
        self,
        templates: Sequence[str | Path],
        *,
        jobs: int = 1,
        verify: bool | None = None,
    ) -> list[GenerateResult]:
        """A batch of generate requests, one result per template, in order.

        Every template goes through :meth:`generate`'s steps, and its
        failure is its own result, never a batch abort. ``jobs`` only
        picks where the pipeline steps run: one after another in this
        process (``jobs=1``), or as tasks on the resident pool
        (:meth:`pool`), where the results share one batch trace and are
        numbered ``<batch id>.<index>``. The results are the same
        either way: a pooled batch runs in rounds, each running one
        copy of a repeated template, so a later copy is answered from
        the result cache as it would be in-process.
        """
        if jobs <= 1 or len(templates) <= 1:
            return [
                self.generate(GenerateRequest(template=str(t), verify=verify))
                for t in templates
            ]
        batch_id = self._next_request_id(None)
        trace = Trace(batch_id)
        requests = [
            GenerateRequest(
                template=str(template),
                verify=verify,
                request_id=f"{batch_id}.{index}",
            )
            for index, template in enumerate(templates)
        ]
        results: "list[GenerateResult | None]" = [None] * len(requests)
        with self._batch_lock, activate_trace(trace), trace.span(
            "request:generate-batch"
        ):
            while None in results:
                running: set[ResultKey] = set()
                items = [
                    self._admit(request, running) if result is None else result
                    for request, result in zip(requests, results)
                ]
                pending = [item for item in items if isinstance(item, _Admitted)]
                with self._breaker_guard([item.breaker_key for item in pending]):
                    outcomes = iter(self._pool_outcomes(pending, jobs))
                results = [
                    self._finish_task(item, trace, next(outcomes))
                    if isinstance(item, _Admitted)
                    else item
                    for item in items
                ]
        return results

    def _pool_outcomes(
        self, pending: "list[_Admitted]", jobs: int
    ) -> list[TaskOutcome]:
        """The pipeline steps of admitted requests, as pool tasks.

        A step that fails before it has a task (an unreadable template,
        an injected compile fault) fails here, as it would in-process.
        """
        outcomes: list[TaskOutcome | None] = []
        tasks = []
        for item in pending:
            try:
                tasks.append((SOURCE, *self._pipeline_input(item)))
                outcomes.append(None)
            except REQUEST_ERRORS as exc:
                error = (type(exc).__name__, str(exc))
                outcomes.append(
                    TaskOutcome(len(outcomes), None, error, in_process=True)
                )
        if tasks:
            ran = iter(self.pool(jobs).run_tasks(tasks))
            outcomes = [
                next(ran) if outcome is None else outcome
                for outcome in outcomes
            ]
        return outcomes

    def _finish_task(
        self, item: "_Admitted", trace: Trace, outcome: TaskOutcome
    ) -> GenerateResult:
        """Finish a request whose pipeline step ran as a task.

        A worker's records are private: its run, and on its first
        outcome its warm-start counts, are folded into the engine's
        record here and credited to this result. In-process steps
        already recorded into the shared context.
        """
        module = outcome.module
        init = outcome.init_counters or {}
        if not outcome.in_process:
            self.diagnostics.merge(
                module.diagnostics
                if module is not None
                else Diagnostics(counters=dict(outcome.counters))
            )
            for key, amount in init.items():
                self.diagnostics.count(key, amount)
            self.context.runs += 1
        return self._finish(
            item,
            trace,
            module,
            EngineError(*outcome.error) if outcome.error else None,
            outcome.counters.get(DFA_BUILDS, 0) + init.get(DFA_BUILDS, 0),
            module.elapsed_seconds if module is not None else 0.0,
        )

    def _analyze_fingerprint(self, request: AnalyzeRequest) -> str | None:
        """The analysis target set's breaker identity (path + name based)."""
        if not request.paths and not request.sources:
            return None
        digest = hashlib.sha256()
        for path in sorted(request.paths):
            digest.update(f"path:{path}\n".encode("utf-8"))
        for name, text in sorted((request.sources or {}).items()):
            digest.update(f"source:{name}\n".encode("utf-8"))
            digest.update(text.encode("utf-8"))
        return digest.hexdigest()

    def analyze(self, request: AnalyzeRequest) -> AnalyzeResult:
        """Serve one whole-project analysis request."""
        request_id = self._next_request_id(request.request_id)
        fingerprint = self._analyze_fingerprint(request)
        breaker_key = ("analyze", fingerprint) if fingerprint else None
        if breaker_key is not None:
            try:
                self.breakers.admit(breaker_key)
            except CircuitOpenError as exc:
                return self._circuit_open_result(request_id, "analyze", exc)
        trace = Trace(request_id)
        analysis = None
        error: EngineError | None = None
        with self._breaker_guard([breaker_key]), activate_trace(
            trace
        ), trace.span("request:analyze"):
            with Diagnostics().recording() as delta:
                try:
                    sources: dict[str, str] = {}
                    for path in expand_analyze_paths(request.paths):
                        sources[str(path)] = path.read_text(encoding="utf-8")
                    if request.sources:
                        sources.update(request.sources)
                    if not sources:
                        raise EngineRequestError(
                            "analyze request needs paths or sources"
                        )
                    analysis = self._analyze_sources(sources, request.jobs)
                except REQUEST_ERRORS as exc:
                    error = _engine_error(exc)
        self._settle(breaker_key, error)
        self._count_request()
        return AnalyzeResult(
            request_id=request_id,
            elapsed_seconds=trace.total_seconds,
            trace=trace,
            error=error,
            dfa_builds=delta.counter(DFA_BUILDS),
            analysis=analysis,
            reanalyzed_functions=(
                analysis.reanalyzed_functions if analysis is not None else 0
            ),
        )

    def _analyze_sources(
        self, sources: dict[str, str], jobs: int
    ) -> "ProjectAnalysisResult":
        """Serial analysis, or components over the resident pool."""
        if jobs <= 1:
            return self.analyzer.analyze_sources(sources)
        with self._batch_lock:
            return self.analyzer.analyze_sources(sources, pool=self.pool(jobs))

    # ------------------------------------------------------------------
    # the incremental rule repository
    # ------------------------------------------------------------------

    def refresh_rules(self) -> RefreshReport:
        """Re-scan the rule directory; rebuild services only on change.

        Requires the engine to be repository-backed (``rules_dir``).
        Unchanged rules keep their compiled artefacts; the worker pool
        is restarted only when the snapshot actually moved.
        """
        if self._repository is None:
            raise EngineRequestError(
                "engine has no rule repository (constructed without rules_dir)"
            )
        with self._batch_lock:
            with self.diagnostics.stage(REPOSITORY_STAGE):
                report = self._repository.refresh()
            self.diagnostics.count("repository.refreshes")
            # An explicit refresh is the operator saying "try again":
            # every tripped breaker's evidence predates it, so all of
            # them reset — even when no rule actually changed.
            self.breakers.reset()
            if report.dirty:
                self.diagnostics.count(
                    "repository.recompiled",
                    len(report.changed) + len(report.added),
                )
                self.diagnostics.count(
                    "repository.relinked", len(report.relinked)
                )
                self._build_services(self._repository.ruleset)
        return report

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def health(self, *, probe: bool = True) -> dict:
        """A fault-tolerance snapshot: pool state, breakers, degraded.

        With ``probe`` (the default, used by the serve ``health`` op) a
        degraded supervisor gets one recovery attempt — the half-open
        path — so a transient crash storm heals on the next health
        check instead of waiting for traffic.
        """
        with self._lock:
            pool = self._pool
        if probe and pool is not None and pool.degraded:
            pool.probe()
        pool_stats = pool.to_dict() if pool is not None else None
        degraded = bool(pool is not None and pool.degraded)
        # Each disk store's absorbed I/O failures, from its own record.
        disk_cache = {}
        if self._cache is not None:
            disk_cache["io_errors"] = self._cache.diagnostics.counter(
                DISK_IO_ERRORS
            )
        summary_store = self.summary_cache.disk
        if summary_store is not None:
            disk_cache[SUMMARY_STORE_IO_ERRORS] = (
                summary_store.diagnostics.counter(SUMMARY_STORE_IO_ERRORS)
            )
        return {
            "state": "degraded" if degraded else "healthy",
            "degraded": degraded,
            "pool": pool_stats,
            "breakers": self.breakers.to_dict(),
            "disk_cache": disk_cache or None,
            "requests": self.requests,
        }

    def __repr__(self) -> str:
        return (
            f"<CryptoGenEngine rules={len(self.ruleset)} "
            f"requests={self.requests} "
            f"cache={'on' if self._cache is not None else 'off'}>"
        )
