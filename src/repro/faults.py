"""Deterministic fault injection for the chaos test harness.

The serve stack promises to *degrade*, never to die: a crashed process
worker restarts, a flaky disk read falls through to recompute, a slow
request sheds instead of wedging the queue. Those promises are only
testable if the failures can be provoked on demand, so the layers that
make them expose *fault points* — named places where this module may
raise, sleep or kill the process with a configured probability.

Activation is environment-driven (``REPRO_FAULTS``) or programmatic
(:func:`configure`, for test fixtures)::

    REPRO_FAULTS="worker_crash:0.2,disk_io:0.1,slow_task:0.1" \
        cognicrypt-gen serve --socket /tmp/e.sock

Spec grammar: comma-separated ``point:probability`` pairs, plus an
optional ``seed=N`` entry that makes the draw sequence reproducible.
The known points, and where they fire:

``worker_crash``
    :func:`maybe_crash` in :func:`repro.workers.run_task` —
    the worker process dies with ``os._exit``, which surfaces to the
    parent as a ``BrokenProcessPool`` for the supervisor to absorb.
    Only ever fired inside pool worker processes, never in the parent
    (the supervisor's in-process serial fallback must not be killable).
``disk_io``
    :func:`maybe_raise_os` in :meth:`repro.cache.store.PickleStore`
    load/store — a transient ``OSError`` for the bounded retry to eat.
``slow_task``
    :func:`maybe_sleep` in the serve dispatch path — a request that
    dawdles long enough to exercise deadlines and queue depth.
``compile_error``
    :func:`maybe_raise` in the engine's generate path — a recoverable
    pipeline exception, the circuit breakers' bread and butter.

With no configuration every helper is a cheap no-op (one attribute
read and a ``None`` check), so production paths pay nothing.
"""

from __future__ import annotations

import os
import random
import threading
import time

#: Environment variable carrying the fault spec (see module docstring).
FAULTS_ENV = "REPRO_FAULTS"

#: The injectable failure points, in documentation order.
KNOWN_POINTS = ("worker_crash", "disk_io", "slow_task", "compile_error")

#: Exit status a crash-injected worker dies with (distinctive in logs).
CRASH_EXIT_CODE = 23

#: How long an injected slow task sleeps, in seconds.
SLOW_TASK_SECONDS = 0.03


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec that does not parse."""


class FaultPlan:
    """One parsed fault configuration: per-point probabilities + RNG.

    Draws are serialized under a lock so concurrent serve workers
    consuming one plan stay deterministic for a given seed *per draw
    sequence* (the interleaving across threads still varies — chaos
    tests assert invariants, not exact schedules). Per-point fire
    counts are kept so tests can assert a point actually fired.
    """

    def __init__(self, probabilities: dict[str, float], seed: int | None = None):
        for point, probability in probabilities.items():
            if point not in KNOWN_POINTS:
                raise FaultSpecError(
                    f"unknown fault point {point!r} "
                    f"(known: {', '.join(KNOWN_POINTS)})"
                )
            if not 0.0 <= probability <= 1.0:
                raise FaultSpecError(
                    f"fault probability for {point!r} must be in [0, 1], "
                    f"got {probability}"
                )
        self.probabilities = dict(probabilities)
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.fired: dict[str, int] = {point: 0 for point in probabilities}

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``point:prob,point:prob[,seed=N]`` into a plan."""
        probabilities: dict[str, float] = {}
        seed: int | None = None
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if chunk.startswith("seed="):
                try:
                    seed = int(chunk[len("seed="):])
                except ValueError as exc:
                    raise FaultSpecError(f"bad seed in {chunk!r}") from exc
                continue
            point, sep, raw = chunk.partition(":")
            if not sep:
                raise FaultSpecError(
                    f"fault entry {chunk!r} needs the form point:probability"
                )
            try:
                probability = float(raw)
            except ValueError as exc:
                raise FaultSpecError(
                    f"bad probability in {chunk!r}"
                ) from exc
            probabilities[point.strip()] = probability
        return cls(probabilities, seed=seed)

    def should_fire(self, point: str) -> bool:
        probability = self.probabilities.get(point, 0.0)
        if probability <= 0.0:
            return False
        with self._lock:
            fire = self._rng.random() < probability
            if fire:
                self.fired[point] = self.fired.get(point, 0) + 1
        return fire

    def to_dict(self) -> dict:
        return {
            "probabilities": dict(self.probabilities),
            "seed": self.seed,
            "fired": dict(self.fired),
        }

    def spec_string(self) -> str:
        """Serialize back to the ``point:prob[,seed=N]`` grammar.

        The worker-pool initializer ships the parent's *active* plan
        into workers as a plain string: environment inheritance is not
        enough once workers fork from a long-lived forkserver, whose
        environment froze when the first pool in the process started.
        """
        parts = [
            f"{point}:{probability}"
            for point, probability in sorted(self.probabilities.items())
        ]
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return ",".join(parts)

    def __repr__(self) -> str:
        pairs = ",".join(
            f"{point}:{probability}"
            for point, probability in sorted(self.probabilities.items())
        )
        return f"<FaultPlan {pairs or 'empty'}>"


#: The process-wide active plan. ``None`` means "consult the
#: environment on next use"; ``_DISABLED`` means "checked, nothing on".
_DISABLED = FaultPlan({})
_active: FaultPlan | None = None
_active_lock = threading.Lock()


def active() -> FaultPlan:
    """The current plan, lazily loaded from ``$REPRO_FAULTS``.

    Worker processes call this through their init hook, so a fault
    spec set in the parent's environment propagates into the pool
    regardless of the multiprocessing start method.
    """
    global _active
    plan = _active
    if plan is not None:
        return plan
    with _active_lock:
        if _active is None:
            spec = os.environ.get(FAULTS_ENV, "").strip()
            _active = FaultPlan.from_spec(spec) if spec else _DISABLED
        return _active


def configure(spec: "str | FaultPlan | None") -> FaultPlan:
    """Install a plan programmatically (test fixtures); returns it.

    ``None`` re-arms the lazy environment lookup (:func:`reset`).
    """
    global _active
    with _active_lock:
        if spec is None:
            _active = None
            return _DISABLED
        plan = spec if isinstance(spec, FaultPlan) else FaultPlan.from_spec(spec)
        _active = plan
        return plan


def reset() -> None:
    """Drop any installed plan; the environment is consulted again."""
    configure(None)


# ---------------------------------------------------------------------------
# the injection helpers (one per failure mode)
# ---------------------------------------------------------------------------


def maybe_crash(point: str = "worker_crash") -> None:
    """Kill this process abruptly (no cleanup) with the configured odds.

    ``os._exit`` skips ``atexit``/finalizers on purpose: a real worker
    crash (OOM kill, segfault) gives the parent no goodbye either.
    """
    if active().should_fire(point):
        os._exit(CRASH_EXIT_CODE)


def maybe_raise_os(point: str = "disk_io") -> None:
    """Raise a transient-looking ``OSError`` with the configured odds."""
    if active().should_fire(point):
        raise OSError(11, f"injected fault at {point!r}")  # EAGAIN


def maybe_sleep(
    point: str = "slow_task", seconds: float = SLOW_TASK_SECONDS
) -> None:
    """Stall the caller with the configured odds."""
    if active().should_fire(point):
        time.sleep(seconds)


def maybe_raise(point: str, exc: BaseException) -> None:
    """Raise ``exc`` with the configured odds (e.g. ``compile_error``)."""
    if active().should_fire(point):
        raise exc
