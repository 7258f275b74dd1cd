"""Batch generation: one template batch, serial or over worker processes.

``CrySLBasedCodeGenerator.generate_many`` and the engine's batch path
route through :func:`run_batch`, which turns each template into a
template task and runs the batch on the shared task machinery of
:mod:`repro.workers` — in-process for ``jobs=1``, else on a supervised
forkserver pool (the caller's resident one, or a transient one). The
guarantees, in order:

* **Deterministic ordering.** Results land at their submission index
  regardless of completion order; ``jobs=4`` returns byte-identical
  modules in the same order as ``jobs=1``.
* **Per-template error isolation.** A template that fails with a
  recoverable pipeline error (:class:`GenerationError`,
  :class:`~repro.crysl.CrySLError`, :class:`TemplateError`, ``OSError``)
  becomes a structured :class:`TemplateFailure`; the other templates
  still generate, and the batch raises one
  :class:`BatchGenerationError` carrying both the failures and the
  successful modules. Unexpected exceptions still propagate.
* **Merged diagnostics.** Every returned module carries its own run
  diagnostics (stage timings, cascade tiers); the parent merges the
  worker-produced ones — plus each worker's one-time warm-start
  counters — into its cumulative ``context.diagnostics``, so
  ``--stats`` totals stay accurate in parallel runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from ..crysl import CrySLError
from .selector import GenerationError
from .template import TemplateError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..workers import SupervisedWorkerPool
    from .generator import CrySLBasedCodeGenerator, GeneratedModule
    from .template import TemplateModel

#: Environment variable consulted when ``jobs`` is not passed explicitly.
JOBS_ENV = "REPRO_JOBS"

#: Error types a task turns into a :class:`TemplateFailure`; mirrors the
#: CLI's per-template error handling.
RECOVERABLE_ERRORS = (GenerationError, CrySLError, TemplateError, OSError)


@dataclass(frozen=True)
class TemplateFailure:
    """One template that failed to generate (the batch carried on)."""

    index: int
    template: str
    error_type: str
    message: str

    def __str__(self) -> str:
        return f"{self.template}: [{self.error_type}] {self.message}"


class BatchGenerationError(GenerationError):
    """One or more templates of a batch failed; the rest generated.

    ``modules`` is the full, order-preserving result list with ``None``
    at each failed index; ``failures`` describes the failed ones.
    """

    def __init__(
        self,
        failures: list[TemplateFailure],
        modules: "list[GeneratedModule | None]",
    ):
        self.failures = failures
        self.modules = modules
        summary = "; ".join(str(f) for f in failures)
        super().__init__(
            f"{len(failures)} of {len(modules)} templates failed: {summary}"
        )


def resolve_jobs(jobs: int | None = None) -> int:
    """The effective worker count: explicit arg, else ``$REPRO_JOBS``, else 1."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be a positive integer, got {raw!r}"
            ) from None
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def template_task(
    model: "TemplateModel | str | Path", verify: bool
) -> tuple[str, str, str, bool]:
    """One batch item as a picklable ``(kind, payload, name, verify)`` task."""
    if isinstance(model, (str, Path)):
        return ("path", str(model), str(model), verify)
    return ("source", model.source, model.path, verify)


def run_batch(
    generator: "CrySLBasedCodeGenerator",
    models: "Iterable[TemplateModel | str | Path]",
    *,
    jobs: int = 1,
    pool: "SupervisedWorkerPool | None" = None,
    verify: bool | None = None,
) -> "list[GeneratedModule]":
    """Generate a batch; see the module docstring for the guarantees.

    ``pool`` — a supervised pool built over the *same* generator
    configuration, e.g. the engine's resident one — runs the batch and
    stays up. Without one, ``jobs > 1`` opens a transient supervised
    pool around the batch and ``jobs=1`` runs it in-process. ``verify``
    (default: the generator's) is carried in every task. The parent
    context's cumulative diagnostics absorb every module's run record
    plus each worker's warm-start counters; ``context.runs`` advances by
    the number of successful modules.
    """
    from ..workers import SupervisedWorkerPool, TaskRunner, run_tasks_serial

    context = generator.context
    verify = generator.verify if verify is None else verify
    tasks = [template_task(model, verify) for model in models]
    if not tasks:
        return []
    if pool is not None:
        outcomes = pool.run_tasks(tasks)
    elif jobs > 1 and len(tasks) > 1:
        with SupervisedWorkerPool(
            generator, min(jobs, len(tasks)), diagnostics=context.diagnostics
        ) as transient:
            outcomes = transient.run_tasks(tasks)
    else:
        outcomes = run_tasks_serial(TaskRunner(generator), tasks)

    modules: "list[GeneratedModule | None]" = [None] * len(tasks)
    failures: list[TemplateFailure] = []
    for outcome in outcomes:
        for key, amount in (outcome.init_counters or {}).items():
            context.diagnostics.count(key, amount)
        if outcome.failure is not None:
            failures.append(outcome.failure)
            continue
        modules[outcome.index] = outcome.module
        if not outcome.in_process:
            # Worker contexts are private; fold their record in.
            # In-process outcomes already recorded into `context`.
            context.diagnostics.merge(outcome.module.diagnostics)
            context.runs += 1
    if failures:
        failures.sort(key=lambda f: f.index)
        raise BatchGenerationError(failures, modules)
    return [module for module in modules if module is not None]
