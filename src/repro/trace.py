"""Request-scoped tracing: nested spans with stable IDs.

One :class:`Trace` records the full cost tree of one engine request —
pipeline stages, disk-cache traffic, SAST phases — as nested
:class:`Span` records. The active trace travels via a
:class:`~contextvars.ContextVar`, so instrumented layers
(:meth:`repro.diagnostics.Diagnostics.stage`, the disk cache, the
project analyzer) record spans without threading a handle through
every call signature: :func:`span` is a no-op when no trace is active,
which keeps one-shot library use free of overhead.

Span IDs are deterministic per trace (``s1``, ``s2``, ... in opening
order) so traces diff cleanly across runs. Durations come from
``time.perf_counter`` and ``start`` is relative to the trace's own
epoch, which makes a trace self-contained and serialisable
(:meth:`Trace.to_dict` — exported through ``--stats --json`` and the
``serve`` protocol).

Thread affinity: a :class:`Trace` is single-threaded by design. The
ContextVar does not propagate into threads spawned after activation,
so the concurrent serve daemon's worker threads each activate their
own per-request trace and never share one — two requests running
side by side on the shared pool record into disjoint span trees.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

_ACTIVE: ContextVar["Trace | None"] = ContextVar("repro_active_trace", default=None)


@dataclass
class Span:
    """One timed, possibly nested, unit of work inside a trace."""

    span_id: str
    parent_id: str | None
    name: str
    #: seconds since the trace epoch at which the span opened
    start: float
    #: filled in when the span closes
    seconds: float = 0.0
    #: structured annotations (fault-tolerance events: breaker trips,
    #: shed requests, supervisor restarts); ``None`` when unannotated
    meta: dict | None = None

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            **({"meta": self.meta} if self.meta else {}),
        }


class Trace:
    """The span tree of one request, identified by its request ID."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list[Span] = []
        self._epoch = time.perf_counter()
        self._stack: list[str] = []
        self._counter = 0

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open one span; nesting follows the dynamic call structure."""
        self._counter += 1
        record = Span(
            span_id=f"s{self._counter}",
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            start=time.perf_counter() - self._epoch,
        )
        self.spans.append(record)
        self._stack.append(record.span_id)
        started = time.perf_counter()
        try:
            yield record
        finally:
            record.seconds = time.perf_counter() - started
            self._stack.pop()

    def event(self, name: str, **meta: object) -> Span:
        """Record one instantaneous, annotated span (no duration).

        Fault-tolerance layers use this to pin *what happened* onto the
        request's cost tree — a breaker fast-fail, a shed request, a
        supervisor restart — without opening a timing scope.
        """
        self._counter += 1
        record = Span(
            span_id=f"s{self._counter}",
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            start=time.perf_counter() - self._epoch,
            meta=dict(meta) if meta else None,
        )
        self.spans.append(record)
        return record

    @property
    def total_seconds(self) -> float:
        """Wall-clock covered by the root spans (no double counting)."""
        return sum(s.seconds for s in self.spans if s.parent_id is None)

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "total_seconds": self.total_seconds,
            "spans": [s.to_dict() for s in self.spans],
        }


@contextmanager
def activate(trace: Trace) -> Iterator[Trace]:
    """Make ``trace`` the active trace for the dynamic extent."""
    token = _ACTIVE.set(trace)
    try:
        yield trace
    finally:
        _ACTIVE.reset(token)


@contextmanager
def span(name: str) -> Iterator[Span | None]:
    """Record a span on the active trace; a cheap no-op without one."""
    trace = _ACTIVE.get()
    if trace is None:
        yield None
        return
    with trace.span(name) as record:
        yield record


def event(name: str, **meta: object) -> Span | None:
    """Record an annotated instant on the active trace; no-op without one."""
    trace = _ACTIVE.get()
    if trace is None:
        return None
    return trace.event(name, **meta)
