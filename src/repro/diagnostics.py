"""Stage-level diagnostics for the generation pipeline.

The paper's Figure 6 names five stages — collect, link, select,
resolve, emit — and this module gives each run a structured account of
them: per-stage wall-clock timings, counters (paths enumerated, paths
filtered, parameters resolved per cascade tier a–d, compiled-rule cache
hits/misses), per-rule path counts, and structured warnings.

One :class:`Diagnostics` instance records one generation run; the
:class:`~repro.codegen.context.GenerationContext` merges every run into
a cumulative instance so batch callers (the engine's
``generate_many``, the eval harness) can report totals.
``cognicrypt-gen generate --stats`` prints :meth:`Diagnostics.render`;
``GeneratedModule.report_dict()`` embeds :meth:`Diagnostics.to_dict`.

It is the one counter store: rule compilation, the memo caches, the
disk stores, the breakers, the pool supervisor and the serve daemon
all count into a :class:`Diagnostics`. Work that a long-lived owner
counts on behalf of a request — a rule set's DFA builds, say — is
attributed to that request with :meth:`Diagnostics.recording` and
:meth:`Diagnostics.count_attributed` (or ``warn_attributed``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator

from .trace import span as _trace_span

#: Canonical stage names, in pipeline order (the paper's Figure 6,
#: plus the post-emit generate→verify gate).
STAGES = ("collect", "link", "select", "resolve", "emit", "verify")

#: Stages registered beyond the canonical tuple (``register_stage``),
#: in registration order. Rendering keeps the canonical ordering first.
_EXTRA_STAGES: list[str] = []


def register_stage(name: str) -> str:
    """Register an additional stage name for :meth:`Diagnostics.stage`.

    The canonical Figure-6 stages are fixed; layers above the pipeline
    (the engine's ``serve`` loop, the incremental rule ``repository``)
    register theirs here. Idempotent; returns the name so callers can
    write ``SERVE = register_stage("serve")``.
    """
    if name not in STAGES and name not in _EXTRA_STAGES:
        _EXTRA_STAGES.append(name)
    return name


def known_stages() -> tuple[str, ...]:
    """Every accepted stage name, canonical ordering first."""
    return STAGES + tuple(_EXTRA_STAGES)

# Counter keys. Kept as module constants so producers and consumers
# (selector, context, tests, the CLI) agree on spelling.
COMPILED_HITS = "compiled_rules.hits"
COMPILED_MISSES = "compiled_rules.misses"
DFA_BUILDS = "dfa.builds"
PATH_ENUMERATIONS = "paths.enumerations"
DISK_HITS = "disk_cache.hits"
DISK_MISSES = "disk_cache.misses"
DISK_WRITES = "disk_cache.writes"
DISK_EVICTIONS = "disk_cache.evictions"
PATHS_CANDIDATES = "paths.candidates"
PATHS_KEPT = "paths.kept"
PATHS_FILTERED = "paths.filtered"
#: complete path combinations the selector scored; pruned ones are not
COMBOS_EVALUATED = "combos.evaluated"
CHAINS = "chains"
STATEMENTS_EMITTED = "statements.emitted"

#: Whole-project analysis counters (repro.sast.project).
ANALYSIS_MODULES = "analysis.modules"
ANALYSIS_FUNCTIONS = "analysis.functions"
ANALYSIS_CALL_EDGES = "analysis.call_edges"
ANALYSIS_SUMMARIES = "analysis.summaries"
ANALYSIS_OBJECTS = "analysis.objects"
ANALYSIS_FINDINGS = "analysis.findings"
#: functions whose analysis actually ran (summary-cache misses)
ANALYSIS_REANALYZED = "analysis.reanalyzed_functions"
ANALYSIS_SUPPRESSED = "analysis.suppressed_findings"

#: Per-function summary cache counters (the ``summary_cache`` LRUCache).
SUMMARY_HITS = "summary_cache.hits"
SUMMARY_MISSES = "summary_cache.misses"
SUMMARY_STORES = "summary_cache.stores"
SUMMARY_INVALIDATIONS = "summary_cache.invalidations"

#: Fault-tolerance counters. Each disk store (repro.cache.store) counts
#: absorbed transient I/O failures (the rule store as ``disk_cache.*``,
#: the summary store as ``summary_store.*``); the supervised worker pool
#: (repro.workers) counts batches, pool rebuilds, batch retries,
#: proactive worker recycles and serial-fallback batches; the circuit
#: breakers (repro.engine.breaker) count trips, fast-fails and resets;
#: the serve daemon (repro.engine.server) counts load-shed and overload
#: rejections, deadline timeouts and accept-loop fd exhaustion events.
DISK_IO_ERRORS = "disk_cache.io_errors"
SUMMARY_STORE_IO_ERRORS = "summary_store.io_errors"
SUPERVISOR_BATCHES = "supervisor.batches"
SUPERVISOR_RESTARTS = "supervisor.restarts"
SUPERVISOR_RETRIES = "supervisor.retries"
SUPERVISOR_RECYCLES = "supervisor.recycles"
SUPERVISOR_DEGRADED = "supervisor.degraded_batches"
BREAKER_OPENS = "breaker.opens"
BREAKER_FAST_FAILS = "breaker.fast_fails"
BREAKER_RESETS = "breaker.resets"
SERVER_SHED = "server.shed_requests"
SERVER_OVERLOADS = "server.overloads"
SERVER_ACCEPT_ERRORS = "server.accept_errors"
SERVER_TIMEOUTS = "server.timeouts"

#: The parameter-resolution cascade of §3.3, tiers a–d.
TIER_TEMPLATE = "params.tier_a_template"
TIER_PREDICATE = "params.tier_b_predicate"
TIER_DERIVED = "params.tier_c_derived"
TIER_PUSHED = "params.tier_d_pushed"

_TIER_LABELS = (
    (TIER_TEMPLATE, "a (template object)"),
    (TIER_PREDICATE, "b (predicate link)"),
    (TIER_DERIVED, "c (derived literal)"),
    (TIER_PUSHED, "d (pushed up)"),
)


#: The most warnings one record keeps. An engine's cumulative record
#: absorbs every run's warnings (disk-store events) for its whole
#: lifetime, so older ones are dropped — and counted in
#: ``warnings_dropped`` — once this many are held.
MAX_WARNINGS = 200

#: The records the current context is recording into, innermost last
#: (:meth:`Diagnostics.recording`). Context-local, so one request's
#: attributed counts never land in a concurrent request's record.
_RECORDING: "ContextVar[tuple[Diagnostics, ...]]" = ContextVar(
    "repro_diagnostics_recording", default=()
)


@dataclass
class StageTiming:
    """Accumulated wall-clock for one named stage."""

    name: str
    seconds: float = 0.0
    calls: int = 0


@dataclass(frozen=True)
class DiagnosticWarning:
    """A structured, non-fatal observation from a pipeline stage."""

    stage: str
    message: str
    rule: str | None = None

    def __str__(self) -> str:
        prefix = f"[{self.stage}]"
        if self.rule:
            prefix += f" {self.rule}:"
        return f"{prefix} {self.message}"


@dataclass
class Diagnostics:
    """Timings, counters, per-rule path counts and warnings for one run.

    Recording is thread-safe: an engine's one cumulative record absorbs
    stage timings, counters and merges from every concurrently served
    request under an internal lock (the lock is dropped and recreated
    across pickling, so worker processes can still ship their records
    back to the parent).
    """

    stages: dict[str, StageTiming] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    #: rule simple name -> number of enumerated repetition-free paths
    path_counts: dict[str, int] = field(default_factory=dict)
    #: the newest :data:`MAX_WARNINGS` warnings, oldest first
    warnings: "deque[DiagnosticWarning]" = field(
        default_factory=lambda: deque(maxlen=MAX_WARNINGS)
    )
    #: warnings pushed out of the ring buffer
    warnings_dropped: int = 0
    #: the request trace this record belongs to, when the run happened
    #: inside an engine request (:mod:`repro.trace`); never merged.
    trace: object | None = None

    def __post_init__(self) -> None:
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time one stage invocation; nests and repeats accumulate.

        Accepts the canonical :data:`STAGES` plus anything added via
        :func:`register_stage`. With an active request trace
        (:mod:`repro.trace`) the invocation also records a
        ``stage:<name>`` span.
        """
        if name not in STAGES and name not in _EXTRA_STAGES:
            raise ValueError(
                f"unknown pipeline stage {name!r}; expected one of "
                f"{known_stages()} (see repro.diagnostics.register_stage)"
            )
        started = time.perf_counter()
        with _trace_span(f"stage:{name}"):
            try:
                yield
            finally:
                elapsed = time.perf_counter() - started
                with self._lock:
                    timing = self.stages.setdefault(name, StageTiming(name))
                    timing.seconds += elapsed
                    timing.calls += 1

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def count_attributed(self, key: str, amount: int = 1) -> None:
        """Count here and in every record the caller is recording into.

        For owners shared across requests (a rule set's compile cache):
        their own record keeps the lifetime total, and the request that
        caused the work sees it in its own record too.
        """
        self.count(key, amount)
        for sink in _RECORDING.get():
            if sink is not self:
                sink.count(key, amount)

    def warn_attributed(self, stage: str, message: str) -> None:
        """The :meth:`warn` twin of :meth:`count_attributed`."""
        self.warn(stage, message)
        for sink in _RECORDING.get():
            if sink is not self:
                sink.warn(stage, message)

    @contextmanager
    def recording(self) -> Iterator["Diagnostics"]:
        """Receive every :meth:`count_attributed` and
        :meth:`warn_attributed` made in this context.

        Scoped to the current thread (more precisely, the current
        :mod:`contextvars` context) for the duration of the block.
        Recordings nest: an engine request's record and the generation
        run's record inside it both receive the same counts. Under the
        rule set's single-flight compilation, only the thread that wins
        the flight records the build; waiters record nothing, which is
        exactly their cost.
        """
        token = _RECORDING.set(_RECORDING.get() + (self,))
        try:
            yield self
        finally:
            _RECORDING.reset(token)

    def record_path_count(self, rule_name: str, count: int) -> None:
        with self._lock:
            self.path_counts[rule_name] = count

    def warn(self, stage: str, message: str, rule: str | None = None) -> None:
        with self._lock:
            self._keep_warning(DiagnosticWarning(stage, message, rule))

    def _keep_warning(self, warning: DiagnosticWarning) -> None:
        if len(self.warnings) == self.warnings.maxlen:
            self.warnings_dropped += 1
        self.warnings.append(warning)

    def merge(self, other: "Diagnostics") -> None:
        """Fold another run's record into this one (for batch totals).

        Timings and counters add; ``path_counts`` keep the per-rule
        maximum — a rule's enumerated-path count is an invariant of the
        rule, not a per-run total, so colliding entries across batch
        runs must agree (and a bounded enumeration in one run must not
        clobber a fuller one from another).
        """
        with self._lock:
            for timing in list(other.stages.values()):
                mine = self.stages.setdefault(
                    timing.name, StageTiming(timing.name)
                )
                mine.seconds += timing.seconds
                mine.calls += timing.calls
            for key, amount in list(other.counters.items()):
                self.counters[key] = self.counters.get(key, 0) + amount
            for rule_name, count in list(other.path_counts.items()):
                mine = self.path_counts.get(rule_name)
                self.path_counts[rule_name] = (
                    count if mine is None else max(mine, count)
                )
            self.warnings_dropped += other.warnings_dropped
            for warning in list(other.warnings):
                self._keep_warning(warning)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        return sum(timing.seconds for timing in self.stages.values())

    def counter(self, key: str) -> int:
        return self.counters.get(key, 0)

    def to_dict(self) -> dict:
        """A JSON-serialisable snapshot (``GeneratedModule.report_dict``)."""
        return {
            "stages": {
                timing.name: {
                    "seconds": timing.seconds,
                    "calls": timing.calls,
                }
                for timing in self._ordered_stages()
            },
            "total_seconds": self.total_seconds,
            "counters": dict(sorted(self.counters.items())),
            "path_counts": dict(sorted(self.path_counts.items())),
            "warnings": [
                {"stage": w.stage, "rule": w.rule, "message": w.message}
                for w in self.warnings
            ],
            "warnings_dropped": self.warnings_dropped,
            **(
                {"trace": self.trace.to_dict()}
                if self.trace is not None and hasattr(self.trace, "to_dict")
                else {}
            ),
        }

    def _ordered_stages(self) -> list[StageTiming]:
        ordered = known_stages()
        known = [self.stages[name] for name in ordered if name in self.stages]
        extra = [t for name, t in self.stages.items() if name not in ordered]
        return known + sorted(extra, key=lambda t: t.name)

    def render(self) -> str:
        """Human-readable report (the ``--stats`` output)."""
        lines = ["pipeline stages:"]
        for timing in self._ordered_stages():
            lines.append(
                f"  {timing.name:<10s} {timing.seconds * 1000:8.2f} ms"
                f"  ({timing.calls} call{'s' if timing.calls != 1 else ''})"
            )
        lines.append(f"  {'total':<10s} {self.total_seconds * 1000:8.2f} ms")
        lines.append("parameter cascade (paper §3.3, tiers a–d):")
        for key, label in _TIER_LABELS:
            lines.append(f"  {label:<20s} {self.counter(key):6d}")
        if self.counters:
            lines.append("counters:")
            tier_keys = {key for key, _ in _TIER_LABELS}
            for key in sorted(self.counters):
                if key in tier_keys:
                    continue
                lines.append(f"  {key:<28s} {self.counters[key]:6d}")
        if self.path_counts:
            lines.append("enumerated paths per rule:")
            for rule_name in sorted(self.path_counts):
                lines.append(f"  {rule_name:<28s} {self.path_counts[rule_name]:6d}")
        if self.warnings:
            lines.append("warnings:")
            for warning in self.warnings:
                lines.append(f"  {warning}")
        if self.warnings_dropped:
            lines.append(f"  ({self.warnings_dropped} older warning(s) dropped)")
        return "\n".join(lines)
