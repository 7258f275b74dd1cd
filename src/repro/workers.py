"""One supervised process pool for batch generation.

The engine's ``generate_many(jobs=N)`` batches run *template tasks* on
the pool defined here: a task ``(text, name, verify)`` is the pipeline
step of one generate request, on template text the engine has already
read. A task runs through :func:`run_template` — in a pool worker, or
in-process for the supervisor's serial fallback — and comes back as
one :class:`TaskOutcome`. Workers start from :func:`pool_mp_context`,
never ``fork``. The supervisor's states, as reported by
``health``/``stats``::

    idle ──first batch──▶ running ──BrokenProcessPool──▶ restarting
      ▲                     ▲  │                            │
      └──── close() ────────┘  └──◀── rebuilt+batch ok ─────┤
                               │                            ▼
                               └──◀── probe()/batch ── degraded
                                        (budget exhausted)
"""

from __future__ import annotations

import multiprocessing
import os
import random
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from . import faults
from .codegen.selector import GenerationError
from .codegen.template import TemplateError
from .crysl import CrySLError
from .diagnostics import (
    SUPERVISOR_BATCHES,
    SUPERVISOR_DEGRADED,
    SUPERVISOR_RECYCLES,
    SUPERVISOR_RESTARTS,
    SUPERVISOR_RETRIES,
    Diagnostics,
)
from .trace import event as trace_event

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .codegen.generator import CrySLBasedCodeGenerator, GeneratedModule
    from .crysl.ast import Rule

#: Error types a request turns into a structured error instead of
#: letting them propagate: the pipeline's own errors, ``OSError`` for
#: unreadable inputs and ``SyntaxError`` for Python that does not parse.
#: A template task catches exactly these, wherever it runs.
RECOVERABLE_ERRORS = (
    GenerationError,
    CrySLError,
    TemplateError,
    OSError,
    SyntaxError,
)

#: Supervisor states (the wire spelling in ``health``/``stats``).
IDLE = "idle"
RUNNING = "running"
DEGRADED = "degraded"


@dataclass
class TaskOutcome:
    """One template task's result, normalized across execution backends."""

    index: int
    #: the task's :class:`~repro.codegen.generator.GeneratedModule`
    #: (``None`` when it failed)
    module: "GeneratedModule | None"
    #: a failed task's ``(error type name, message)``
    error: tuple[str, str] | None
    #: the counts the task's run recorded (compile-cache and disk
    #: traffic)
    counters: dict = field(default_factory=dict)
    #: the worker's warm-start counters, on its first outcome only
    init_counters: dict | None = None
    #: the producing worker's peak RSS in MiB (0 for in-process runs)
    rss_mb: float = 0.0
    #: True when produced in the parent (the serial fallback), whose
    #: generation runs already recorded into the shared context
    in_process: bool = False


def run_template(
    generator: "CrySLBasedCodeGenerator", index: int, task: tuple
) -> TaskOutcome:
    """Run one template task; recoverable pipeline errors become data.

    Each pool worker runs its tasks through its own generator; the
    supervisor's serial fallback runs them through the parent's.
    """
    text, name, verify = task
    module, error = None, None
    with Diagnostics().recording() as record:
        try:
            module = generator.generate_from_source(text, name, verify=verify)
        except RECOVERABLE_ERRORS as exc:
            error = (type(exc).__name__, str(exc))
    return TaskOutcome(index, module, error, dict(record.counters))


# ---------------------------------------------------------------------------
# worker-side machinery (module-level so the pool can pickle references)
# ---------------------------------------------------------------------------

#: Per-worker state: the generator plus the one-shot warm-start
#: counters (everything the worker's rule set counted while it warmed).
_WORKER: dict = {}


def _init_worker(
    rules_payload: "tuple[tuple[Rule, str | None], ...]",
    cache_dir: str | None,
    max_paths: int | None,
    fault_spec: str | None = None,
) -> None:
    """Build this worker's generator (runs once per process).

    The frozen rule set is rebuilt from the parent's rules; with a
    ``cache_dir`` every rule is touched once so its artefacts load from
    the disk store up front.
    """
    from .codegen.context import GenerationContext
    from .codegen.generator import CrySLBasedCodeGenerator
    from .crysl.ruleset import RuleSet

    # The parent's active fault plan arrives as an explicit initarg —
    # forkserver workers inherit the environment the server froze at
    # launch, so a spec set in the parent afterwards would be invisible
    # here. The environment is only a fallback.
    if fault_spec is not None:
        faults.configure(fault_spec)
    elif faults.FAULTS_ENV in os.environ:
        faults.configure(os.environ[faults.FAULTS_ENV] or None)

    ruleset = RuleSet()
    for rule, source in rules_payload:
        ruleset.add(rule, source=source)
    ruleset.freeze()
    if cache_dir is not None:
        from .cache import DiskRuleCache

        ruleset.attach_disk_cache(DiskRuleCache(cache_dir))
        for rule in ruleset:
            ruleset.compiled(rule, max_paths=max_paths)
    context = GenerationContext(ruleset=ruleset, max_paths=max_paths)
    _WORKER["generator"] = CrySLBasedCodeGenerator(context=context)
    _WORKER["init_counters"] = dict(ruleset.diagnostics.counters)


def _worker_rss_mb() -> float:
    """This process's peak resident-set size in MiB (0 if unknown)."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        return 0.0
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def run_task(index: int, task: tuple) -> TaskOutcome:
    """The pool's task entry point: one template task in this worker.

    Two fault points live here, exercised only inside real pool
    workers: ``worker_crash`` kills the process outright (the parent
    sees ``BrokenProcessPool``; the supervisor absorbs it) and
    ``slow_task`` stalls the task.
    """
    faults.maybe_crash("worker_crash")
    faults.maybe_sleep("slow_task")
    outcome = run_template(_WORKER["generator"], index, task)
    # The warm-start cost rides on the worker's first completed task
    # only, so the parent folds it in exactly once.
    outcome.init_counters = _WORKER.pop("init_counters", None)
    outcome.rss_mb = _worker_rss_mb()
    return outcome


# ---------------------------------------------------------------------------
# the raw pool and its stall watchdog
# ---------------------------------------------------------------------------


class PoolStalledError(BrokenProcessPool):
    """A batch made no progress within the stall timeout.

    A wedged worker (e.g. one deadlocked before it ever picked up a
    task) leaves its executor *looking* healthy — no
    ``BrokenProcessPool``, the future just never resolves. The stall
    watchdog converts that silent hang into this loud, supervisable
    failure. Subclasses ``BrokenProcessPool`` so the supervisor's
    restart loop handles both identically; the only difference is that
    a stalled pool must be :meth:`WorkerPool.kill`-ed, not closed
    (closing joins workers that will never exit).
    """


#: Modules imported into the forkserver process before the first worker
#: forks, so every worker inherits a warm interpreter instead of paying
#: the import chain itself (the ``repro`` package import pulls in the
#: analyzer too). Import failures here are ignored by multiprocessing;
#: workers then simply import on demand.
_FORKSERVER_PRELOAD = ["repro.codegen.generator", "repro.cache"]

_MP_CONTEXT: "multiprocessing.context.BaseContext | None" = None


def pool_mp_context() -> "multiprocessing.context.BaseContext":
    """The multiprocessing context every worker pool must use.

    The POSIX default start method is ``fork``, and the serve daemon is
    heavily multithreaded: forking a multithreaded parent clones every
    lock in whatever state some *other* thread happened to hold it, so
    a worker can deadlock before it ever picks up a task — and the
    executor then waits on its future forever. ``forkserver`` forks
    workers from a clean, single-threaded server process instead;
    ``spawn`` is the fallback where forkserver is unavailable. Benign
    race: two threads may build the context concurrently, but the
    contexts are identical and the extra one is dropped.
    """
    global _MP_CONTEXT
    if _MP_CONTEXT is None:
        try:
            context = multiprocessing.get_context("forkserver")
            context.set_forkserver_preload(_FORKSERVER_PRELOAD)
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context("spawn")
        _MP_CONTEXT = context
    return _MP_CONTEXT


def _pool_initargs(generator: "CrySLBasedCodeGenerator") -> tuple:
    """The ``_init_worker`` arguments for one generator's rule set."""
    context = generator.context
    ruleset = context.ruleset
    rules_payload = tuple(
        (rule, ruleset.rule_source(rule.class_name)) for rule in ruleset
    )
    cache = ruleset.disk_cache
    cache_dir = str(cache.directory) if cache is not None else None
    plan = faults.active()
    fault_spec = plan.spec_string() if plan.probabilities else None
    return (rules_payload, cache_dir, context.max_paths, fault_spec)


class WorkerPool:
    """A persistent, warm-started process pool (no fault tolerance).

    Keeps one ``ProcessPoolExecutor`` alive across batches, bound to
    one generator's rule set, disk cache and path bound; the owner must
    :meth:`close` and recreate it when that configuration changes (e.g.
    after a rule repository refresh). Wrap it in a
    :class:`SupervisedWorkerPool` for restart/retry/degrade.
    """

    def __init__(self, generator: "CrySLBasedCodeGenerator", jobs: int):
        self.jobs = jobs
        self._executor: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=_pool_initargs(generator),
            mp_context=pool_mp_context(),
        )

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            raise RuntimeError("worker pool is closed")
        return self._executor

    def run_tasks(
        self, tasks: "Sequence[tuple]", *, stall_timeout: float | None = None
    ) -> list[TaskOutcome]:
        """Run one batch over the pool; outcomes in task order.

        Raises ``BrokenProcessPool`` if a worker dies mid-batch and
        :class:`PoolStalledError` if ``stall_timeout`` seconds pass
        without a single task completing.
        """
        return run_tasks_on_executor(
            self.executor, tasks, stall_timeout=stall_timeout
        )

    def close(self) -> None:
        """Shut the executor down; idempotent."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def kill(self) -> None:
        """Forcibly stop a wedged executor; idempotent.

        ``close()`` joins the workers, which never returns if one of
        them is deadlocked. This path SIGKILLs the worker processes
        first and never waits — the only safe teardown after a
        :class:`PoolStalledError`.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # noqa: BLE001 - racing a dying process
                pass
        executor.shutdown(wait=False, cancel_futures=True)


def run_tasks_on_executor(
    executor: ProcessPoolExecutor,
    tasks: "Sequence[tuple]",
    *,
    stall_timeout: float | None = None,
) -> list[TaskOutcome]:
    """Submit one batch of tasks; collect outcomes in submission order.

    Propagates ``BrokenProcessPool`` (and any other executor-level
    failure) to the caller — per-template *pipeline* errors are already
    folded into each :class:`TaskOutcome` by the worker.

    With ``stall_timeout``, a progress watchdog runs over the batch:
    the clock resets on every task completion, and if it ever expires
    with tasks still pending the batch raises :class:`PoolStalledError`
    instead of waiting forever on a wedged worker.
    """
    futures = [
        executor.submit(run_task, index, task) for index, task in enumerate(tasks)
    ]
    if stall_timeout is not None:
        pending = set(futures)
        while pending:
            done, pending = futures_wait(
                pending, timeout=stall_timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                for future in pending:
                    future.cancel()
                raise PoolStalledError(
                    f"no task completed within {stall_timeout:.0f}s; "
                    f"{len(pending)} of {len(tasks)} still pending — "
                    "pool presumed wedged"
                )
    return [future.result() for future in futures]


# ---------------------------------------------------------------------------
# the supervisor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning knobs for one supervised pool."""

    #: pool rebuilds allowed per batch before degrading to serial
    max_restarts: int = 5
    #: first backoff before a rebuild, in seconds (doubles per restart)
    backoff_base_seconds: float = 0.05
    #: backoff ceiling, in seconds
    backoff_max_seconds: float = 2.0
    #: jitter fraction: each sleep is scaled by ``1 ± jitter``
    jitter: float = 0.25
    #: recycle the pool after this many tasks per worker (None = never)
    max_tasks_per_worker: int | None = None
    #: recycle when a worker's peak RSS crosses this, in MiB (None = never)
    worker_memory_mb: int | None = None
    #: declare a batch wedged after this long with zero task
    #: completions (None = wait forever); a stalled pool is killed and
    #: restarted exactly like a crashed one
    stall_timeout_seconds: float | None = 300.0


class SupervisedWorkerPool:
    """A :class:`WorkerPool` wrapped in the restart/retry/degrade loop.

    One worker death (OOM kill, injected crash, a C-extension segfault)
    poisons a raw executor; the supervisor absorbs it instead:

    * **Restart with backoff.** On ``BrokenProcessPool`` the dead
      executor is discarded and a fresh warm pool is built after a
      bounded exponential backoff with jitter.
    * **Bounded retry.** Tasks carry source text — idempotent by
      construction — so the in-flight batch is resubmitted, up to
      :attr:`SupervisorConfig.max_restarts` times per batch.
    * **Recycle before rot.** The pool is rebuilt at a batch boundary
      once it has run :attr:`SupervisorConfig.max_tasks_per_worker`
      tasks per worker, or when a worker's peak RSS crosses
      :attr:`SupervisorConfig.worker_memory_mb`.
    * **Degrade, don't die.** A batch that exhausts the restart budget
      runs serially in-process through :func:`run_template` over the
      parent's generator, and the supervisor reports ``degraded: true``
      until a later batch (or :meth:`probe`, the ``health`` op's
      recovery path) brings a healthy pool back.

    Thread-safe: the engine's batch lock already serializes batches,
    but state transitions are locked anyway so ``health`` snapshots
    from serve worker threads never read torn state.

    Batches, restarts, retries, recycles and degraded batches are
    counted as ``supervisor.*`` keys in :attr:`diagnostics` — the
    owner's record when one is passed, so the counts outlive any one
    supervisor (an engine rebuilds its pool on a rule refresh).
    """

    def __init__(
        self,
        generator: "CrySLBasedCodeGenerator",
        jobs: int,
        *,
        config: SupervisorConfig | None = None,
        diagnostics: Diagnostics | None = None,
    ):
        self._generator = generator
        self.jobs = jobs
        self.config = config or SupervisorConfig()
        self.diagnostics = (
            diagnostics if diagnostics is not None else Diagnostics()
        )
        self._lock = threading.Lock()
        self._pool: WorkerPool | None = None
        self._rng = random.Random()
        #: tasks executed through the current pool incarnation
        self._tasks_since_spawn = 0
        #: peak worker RSS reported by the current incarnation, MiB
        self._max_rss_mb = 0.0
        self._degraded = False
        self._started = False

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._degraded

    def _state(self) -> str:
        if self._degraded:
            return DEGRADED
        return RUNNING if self._started else IDLE

    @property
    def state(self) -> str:
        with self._lock:
            return self._state()

    def to_dict(self) -> dict:
        """A JSON snapshot for ``health``/``stats``."""
        counter = self.diagnostics.counter
        with self._lock:
            return {
                "state": self._state(),
                "degraded": self._degraded,
                "jobs": self.jobs,
                "batches": counter(SUPERVISOR_BATCHES),
                "restarts": counter(SUPERVISOR_RESTARTS),
                "retries": counter(SUPERVISOR_RETRIES),
                "recycles": counter(SUPERVISOR_RECYCLES),
                "degraded_batches": counter(SUPERVISOR_DEGRADED),
                "tasks_since_spawn": self._tasks_since_spawn,
                "max_worker_rss_mb": round(self._max_rss_mb, 1),
                "max_restarts": self.config.max_restarts,
                "max_tasks_per_worker": self.config.max_tasks_per_worker,
                "worker_memory_mb": self.config.worker_memory_mb,
                "stall_timeout_seconds": self.config.stall_timeout_seconds,
            }

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> WorkerPool:
        with self._lock:
            if self._pool is None:
                self._pool = WorkerPool(self._generator, self.jobs)
                self._tasks_since_spawn = 0
                self._max_rss_mb = 0.0
            self._started = True
            return self._pool

    def _discard_pool(self, *, force: bool = False) -> None:
        """Drop the current pool. ``force`` kills instead of closing —
        required for a *stalled* pool, whose workers never exit and
        would hang ``close()``'s join forever."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            try:
                if force:
                    pool.kill()
                else:
                    pool.close()
            except Exception:  # noqa: BLE001 - broken pools die loudly
                pass

    def _backoff(self, attempt: int) -> float:
        """The bounded, jittered sleep before rebuild ``attempt``."""
        base = min(
            self.config.backoff_base_seconds * (2**attempt),
            self.config.backoff_max_seconds,
        )
        spread = self.config.jitter * base
        return max(0.0, base + self._rng.uniform(-spread, spread))

    def probe(self) -> bool:
        """Try to leave degraded mode by rebuilding the pool once.

        The ``health`` op's half-open path: a degraded supervisor gets
        one cheap recovery attempt per probe instead of waiting for the
        next batch. Returns True when the supervisor is healthy after
        the call.
        """
        if not self.degraded:
            return True
        self._discard_pool()
        try:
            self._ensure_pool()
        except Exception:  # noqa: BLE001 - stay degraded on any failure
            return False
        with self._lock:
            self._degraded = False
        trace_event("supervisor:recovered", via="probe")
        return True

    def close(self) -> None:
        """Shut the underlying pool down; idempotent."""
        self._discard_pool()
        with self._lock:
            self._started = False

    def __enter__(self) -> "SupervisedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the supervised batch
    # ------------------------------------------------------------------

    def run_tasks(self, tasks: "Sequence[tuple]") -> list[TaskOutcome]:
        """Run one batch to completion, whatever the workers do.

        Never raises ``BrokenProcessPool``: a crash mid-batch rebuilds
        the pool (bounded backoff + jitter) and resubmits the whole
        batch up to the restart budget, after which the batch runs
        serially in-process and the supervisor is marked degraded. A
        later successful pool batch clears the flag.
        """
        self.diagnostics.count(SUPERVISOR_BATCHES)
        attempt = 0
        while True:
            if self._recycle_due():
                self._recycle()
            try:
                outcomes = self._ensure_pool().run_tasks(
                    tasks, stall_timeout=self.config.stall_timeout_seconds
                )
            except BrokenProcessPool as exc:
                # A stalled pool still has live (wedged) workers, so it
                # must be killed; a broken one can be closed normally.
                self._discard_pool(force=isinstance(exc, PoolStalledError))
                self.diagnostics.count(SUPERVISOR_RESTARTS)
                trace_event(
                    "supervisor:restart", attempt=attempt, batch=len(tasks)
                )
                if attempt >= self.config.max_restarts:
                    return self._run_degraded(tasks)
                time.sleep(self._backoff(attempt))
                attempt += 1
                self.diagnostics.count(SUPERVISOR_RETRIES)
                continue
            self._note_batch(outcomes)
            return outcomes

    def _run_degraded(self, tasks: "Sequence[tuple]") -> list[TaskOutcome]:
        with self._lock:
            self._degraded = True
        self.diagnostics.count(SUPERVISOR_DEGRADED)
        trace_event("supervisor:degraded", batch=len(tasks))
        # Slower than the pool, but immune to worker death: the crash
        # fault point lives in run_task, which this never enters.
        outcomes = []
        for index, task in enumerate(tasks):
            outcome = run_template(self._generator, index, task)
            outcome.in_process = True
            outcomes.append(outcome)
        return outcomes

    def _note_batch(self, outcomes: list[TaskOutcome]) -> None:
        """Successful pool batch: account for recycling, clear degrade."""
        with self._lock:
            self._tasks_since_spawn += len(outcomes)
            for outcome in outcomes:
                if outcome.rss_mb > self._max_rss_mb:
                    self._max_rss_mb = outcome.rss_mb
            recovered = self._degraded
            self._degraded = False
        if recovered:
            trace_event("supervisor:recovered", via="batch")

    def _recycle_due(self) -> bool:
        with self._lock:
            if self._pool is None:
                return False
            per_worker = self.config.max_tasks_per_worker
            if (
                per_worker is not None
                and self._tasks_since_spawn >= per_worker * self.jobs
            ):
                return True
            ceiling = self.config.worker_memory_mb
            return ceiling is not None and self._max_rss_mb >= ceiling

    def _recycle(self) -> None:
        """Planned pool rebuild at a batch boundary (not a failure)."""
        self._discard_pool()
        self.diagnostics.count(SUPERVISOR_RECYCLES)
        trace_event("supervisor:recycle")

    def __repr__(self) -> str:
        return (
            f"<SupervisedWorkerPool jobs={self.jobs} state={self.state} "
            f"restarts={self.diagnostics.counter(SUPERVISOR_RESTARTS)}>"
        )
