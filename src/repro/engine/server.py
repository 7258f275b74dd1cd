"""The ``serve`` daemon: newline-delimited JSON over stdio or a socket.

One :class:`EngineServer` wraps one resident :class:`~repro.engine.
CryptoGenEngine` and speaks a line-oriented protocol: every request is
one JSON object on one line, every response is one JSON object on one
line, correlated by the client-chosen ``id``. Requests:

``{"id": 1, "op": "generate", "template": "path"}``
    or ``{"op": "generate", "source": "...", "name": "..."}``; the
    response carries the generated module, its report, per-request
    trace and the request's DFA-build delta (``"warm": true`` after
    the first request, ``"cached": true`` when the engine's result
    cache answered). The batch form ``{"op": "generate", "templates":
    [...], "jobs": N}`` runs over the engine's supervised process pool
    and answers one response with per-item results.
``{"id": 2, "op": "analyze", "paths": [...]}``
    or inline ``"sources": {name: text}``; with ``"jobs": N`` the
    project's independent module components run over the same
    supervised process pool. ``jobs`` must be a positive integer and is
    clamped to the CPU count.
``{"op": "ping"}`` / ``{"op": "stats"}`` / ``{"op": "refresh-rules"}``
    liveness, the engine's cumulative diagnostics plus server metrics
    (per-op latency percentiles, in-flight gauge, worker utilization,
    result-cache counters), and an incremental rule-repository rescan.
    Every count in ``stats`` and ``health`` — the ``server`` block's
    timeouts, overloads, sheds and accept errors included — is read
    from the engine's one :class:`~repro.diagnostics.Diagnostics`.
``{"op": "shutdown"}``
    drain and exit (the response is still sent).

Concurrency model. The server is concurrent end to end: a Unix-socket
transport accepts many simultaneous clients (``listen(128)``,
``selectors``-based readiness, one reader thread per connection) and
every parsed request is dispatched onto one *shared* worker pool of
``workers`` threads (default ``os.cpu_count()``). Responses are
written by a per-connection writer thread in request order — each
response carries a per-connection ``seq`` number — so pipelined
clients always read answers in the order they asked.

Deadlines are per request, not per server: a request that exceeds
``timeout`` produces a structured ``TimeoutError`` response (the
worker is abandoned; the engine is thread-safe, so later requests are
unaffected) and the server *keeps serving*. Malformed input — bad
JSON, an unknown op, a missing field — never kills the daemon either:
the client gets a structured error response (``"ok": false`` with an
``error`` object; ``"id": null`` when the request was unparseable) and
the loop continues; an unexpected handler crash becomes an
``InternalError`` response. ``SIGTERM`` flips a drain flag: in-flight
requests finish (or hit their deadline), every connection's read side
is shut down, and the loops exit cleanly.

Fault tolerance (protocol 3). The server admits heavy work
(``generate``/``analyze``/``refresh-rules``) through a bounded pending
queue: at most ``--max-pending`` such requests may be queued or running
server-wide (``--max-pending-per-conn`` per connection), and overflow
is rejected *immediately* with a retryable ``OverloadedError`` response
instead of queueing without bound. Control ops (``ping``/``stats``/
``health``/``shutdown``) always bypass admission, so an overloaded
server stays observable. Requests may carry a ``deadline_ms`` budget;
the effective deadline (the smaller of it and ``--timeout``) propagates
into the queue, and work whose deadline has already expired when a
worker picks it up is *shed* — answered with a ``TimeoutError`` response
without executing. ``{"op": "health"}`` reports the supervised
worker-pool state, circuit-breaker states, queue depth and the
``degraded`` flag (and gives a degraded pool one recovery probe).

Two structured error kinds carry ``retry_after_ms`` (a suggested client
backoff, milliseconds) and ``"retryable": true`` inside the ``error``
object:

``OverloadedError``
    admission rejected the request; the hint scales with queue depth
    and the op's recent latency.
``CircuitOpenError``
    the engine's circuit breaker for this exact input is open (the
    input kept failing); the hint is the time until the breaker's
    half-open probe slot opens. ``refresh-rules`` resets all breakers.
"""

from __future__ import annotations

import errno
import json
import os
import selectors
import signal
import socket as socketlib
import sys
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from pathlib import Path
from queue import SimpleQueue
from typing import IO, Callable, Iterator

from .. import faults
from ..diagnostics import (
    COMPILED_HITS,
    COMPILED_MISSES,
    DFA_BUILDS,
    DISK_HITS,
    DISK_MISSES,
    PATH_ENUMERATIONS,
    SERVER_ACCEPT_ERRORS,
    SERVER_OVERLOADS,
    SERVER_SHED,
    SERVER_TIMEOUTS,
    Diagnostics,
)
from .core import (
    SERVE_STAGE,
    AnalyzeRequest,
    CryptoGenEngine,
    GenerateRequest,
)

#: Protocol version reported by ``ping``, ``stats`` and ``health``.
#: Bumped to 3 by the fault-tolerance rework: the ``health`` op, the
#: ``OverloadedError``/``CircuitOpenError`` response kinds with their
#: ``retry_after_ms``/``retryable`` fields, and the per-request
#: ``deadline_ms`` budget are new in 3. (2 added ``seq``/``cached``
#: fields and non-draining timeouts.)
PROTOCOL_VERSION = 3

#: Per-op latency samples kept for the percentile estimates.
LATENCY_WINDOW = 512

#: Ops subject to admission control. Control ops stay admissible so an
#: overloaded server can still be pinged, inspected and shut down.
HEAVY_OPS = frozenset({"generate", "analyze", "refresh-rules"})

#: Sleep after an ``EMFILE``/``ENFILE`` accept failure before retrying.
ACCEPT_BACKOFF_SECONDS = 0.05

#: The ``stats``/``health`` ``server`` block's counts, by their
#: :class:`~repro.diagnostics.Diagnostics` key.
SERVER_COUNTS = {
    "timeouts": SERVER_TIMEOUTS,
    "overloads": SERVER_OVERLOADS,
    "shed": SERVER_SHED,
    "accept_errors": SERVER_ACCEPT_ERRORS,
}

#: The ``stats`` op's ``compiled_rules`` block, by its key in the rule
#: set's lifetime record.
COMPILED_RULES_COUNTS = {
    "hits": COMPILED_HITS,
    "misses": COMPILED_MISSES,
    "dfa_builds": DFA_BUILDS,
    "path_enumerations": PATH_ENUMERATIONS,
    "disk_hits": DISK_HITS,
    "disk_misses": DISK_MISSES,
}

#: ``errno`` values meaning "out of file descriptors", not "bad socket".
_FD_EXHAUSTED_ERRNOS = frozenset({errno.EMFILE, errno.ENFILE})

#: Clamp for the ``OverloadedError`` retry hint, milliseconds.
RETRY_HINT_MIN_MS = 50.0
RETRY_HINT_MAX_MS = 5000.0


class _ProtocolError(Exception):
    """A request the protocol layer rejects (before the engine runs)."""

    def __init__(self, message: str, *, kind: str = "ProtocolError"):
        super().__init__(message)
        self.kind = kind


def _request_jobs(request: dict) -> int:
    """A request's ``jobs``: a positive int (the engine clamps it to the
    CPU count when it sizes its pool)."""
    jobs = request.get("jobs", 1)
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise _ProtocolError(f"'jobs' must be a positive integer, got {jobs!r}")
    return jobs


def _error_response(
    request_id,
    kind: str,
    message: str,
    *,
    retryable: bool | None = None,
    retry_after_ms: float | None = None,
) -> dict:
    error: dict = {"type": kind, "message": message}
    if retryable is not None:
        error["retryable"] = retryable
    if retry_after_ms is not None:
        error["retry_after_ms"] = round(retry_after_ms, 3)
    return {"id": request_id, "ok": False, "error": error}


def _counts(diagnostics: Diagnostics, keys: dict[str, str]) -> dict:
    """``{field: count}`` for each ``field -> counter key`` in ``keys``."""
    return {name: diagnostics.counter(key) for name, key in keys.items()}


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


class ServerMetrics:
    """Thread-safe serving gauges: latencies, in-flight, utilization.

    The latency store keeps the last :data:`LATENCY_WINDOW` samples per
    op (a sliding window, so percentiles reflect recent behaviour on a
    long-lived daemon, not its cold start). Event counts (timeouts,
    overloads, sheds, accept errors) are not kept here: the server
    counts them in the engine's diagnostics, and :meth:`to_dict` reads
    them back from there. This lock is a *leaf* in the server's lock
    hierarchy: nothing else is ever acquired while holding it.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self.in_flight = 0
        self.dispatched = 0
        self.completed = 0
        self.busy_seconds = 0.0
        self._latencies: dict[str, deque[float]] = {}

    def submitted(self) -> None:
        with self._lock:
            self.dispatched += 1
            self.in_flight += 1

    def settled(self) -> None:
        """One submitted request is gone: answered, or cancelled unrun."""
        with self._lock:
            self.in_flight -= 1

    def finished(self, op: str, seconds: float) -> None:
        with self._lock:
            self.completed += 1
            self.busy_seconds += seconds
            samples = self._latencies.get(op)
            if samples is None:
                samples = self._latencies[op] = deque(maxlen=LATENCY_WINDOW)
            samples.append(seconds)

    def retry_hint_ms(self, op: str, pending: int) -> float:
        """Estimate how long an overloaded client should wait, in ms.

        Queue depth divided by worker width gives the number of service
        times ahead of the rejected request; the op's recent p50 (or
        100ms when no sample exists yet) scales it. Clamped so clients
        neither hammer (< 50ms) nor stall (> 5s).
        """
        with self._lock:
            samples = self._latencies.get(op)
            ordered = sorted(samples) if samples else []
            workers = self.workers
        service_ms = _percentile(ordered, 0.50) * 1000.0 if ordered else 100.0
        waves = 1.0 + pending / max(workers, 1)
        return min(max(service_ms * waves, RETRY_HINT_MIN_MS), RETRY_HINT_MAX_MS)

    def to_dict(self, diagnostics: Diagnostics) -> dict:
        """A JSON snapshot for the ``stats`` op; counts come from
        ``diagnostics`` (the engine's record)."""
        counts = _counts(diagnostics, SERVER_COUNTS)
        with self._lock:
            elapsed = time.monotonic() - self._started
            capacity_seconds = self.workers * elapsed
            latency_ms = {}
            for op, samples in sorted(self._latencies.items()):
                ordered = sorted(samples)
                latency_ms[op] = {
                    "count": len(ordered),
                    "p50": _percentile(ordered, 0.50) * 1000.0,
                    "p95": _percentile(ordered, 0.95) * 1000.0,
                    "p99": _percentile(ordered, 0.99) * 1000.0,
                }
            return {
                "workers": self.workers,
                "in_flight": self.in_flight,
                "dispatched": self.dispatched,
                "completed": self.completed,
                **counts,
                "busy_seconds": self.busy_seconds,
                "utilization": (
                    self.busy_seconds / capacity_seconds
                    if capacity_seconds > 0
                    else 0.0
                ),
                "latency_ms": latency_ms,
            }


@dataclass
class _Pending:
    """One enqueued response slot, in per-connection sequence order."""

    seq: int
    request_id: object
    op: str | None
    submitted_at: float
    future: "Future | None" = None
    #: pre-computed response (parse/protocol errors skip the pool)
    response: dict | None = field(default=None)
    #: absolute monotonic deadline; ``None`` waits forever
    deadline: float | None = field(default=None)


class _StreamTotals:
    """Mutable per-connection response counter for the writer thread."""

    def __init__(self) -> None:
        self.written = 0


class _ConnState:
    """Per-connection admission gauge, touched under the server lock."""

    __slots__ = ("pending",)

    def __init__(self) -> None:
        self.pending = 0


class EngineServer:
    """A line-oriented JSON front end over one resident engine.

    Lock hierarchy (outermost first): server state lock → engine lock →
    rule-set lock → compiled-rule lock → stats/diagnostics/metrics
    leaves. The server itself only holds its own leaf locks while
    touching shared counters; request execution happens on the shared
    pool with no server lock held.
    """

    def __init__(
        self,
        engine: CryptoGenEngine,
        *,
        timeout: float | None = None,
        workers: int | None = None,
        max_pending: int | None = None,
        max_pending_per_conn: int | None = None,
    ):
        self.engine = engine
        #: per-request deadline in seconds; ``None`` waits forever
        self.timeout = timeout
        #: shared worker-pool width (``--serve-workers``)
        self.workers = workers if workers is not None else (os.cpu_count() or 4)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_pending_per_conn is not None and max_pending_per_conn < 1:
            raise ValueError("max_pending_per_conn must be >= 1")
        #: heavy requests allowed queued-or-running server-wide
        self.max_pending = max_pending
        #: heavy requests allowed queued-or-running per connection
        self.max_pending_per_conn = max_pending_per_conn
        #: requests answered (including error responses), all connections
        self.responses = 0
        self.metrics = ServerMetrics(self.workers)
        self._draining = False
        self._state_lock = threading.Lock()
        #: heavy requests currently queued or running (admission gauge)
        self._pending_heavy = 0
        self._pool: ThreadPoolExecutor | None = None
        self._connections: set[socketlib.socket] = set()
        self._wake_write_fd: int | None = None
        self._ops: dict[str, Callable[[dict], dict]] = {
            "generate": self._op_generate,
            "analyze": self._op_analyze,
            "ping": self._op_ping,
            "stats": self._op_stats,
            "health": self._op_health,
            "refresh-rules": self._op_refresh_rules,
            "shutdown": self._op_shutdown,
        }

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    def handle_line(self, line: str) -> dict | None:
        """One request line -> one response object (None for blanks).

        The synchronous convenience path (tests, embedding); the serve
        loops parse and dispatch through the shared pool instead.
        """
        line = line.strip()
        if not line:
            return None
        request, parse_error = self._parse(line)
        if parse_error is not None:
            return parse_error
        op = request["op"]
        self.metrics.submitted()
        try:
            return self._execute(op, request, self._deadline_for(request))
        finally:
            self.metrics.settled()

    def _parse(self, line: str) -> tuple[dict | None, dict | None]:
        """Parse one line into ``(request, None)`` or ``(None, error)``.

        A returned request is guaranteed to be a dict whose ``op`` is a
        known handler name; everything else is already a structured
        error response.
        """
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            return None, _error_response(None, "JSONDecodeError", str(exc))
        if not isinstance(request, dict):
            return None, _error_response(
                None, "ProtocolError", "request must be a JSON object"
            )
        request_id = request.get("id")
        op = request.get("op")
        if not isinstance(op, str):
            return None, _error_response(
                request_id, "ProtocolError", "request needs a string 'op' field"
            )
        if op not in self._ops:
            known = ", ".join(sorted(self._ops))
            return None, _error_response(
                request_id, "ProtocolError", f"unknown op {op!r} (known: {known})"
            )
        return request, None

    # ------------------------------------------------------------------
    # admission control & deadlines
    # ------------------------------------------------------------------

    def _deadline_for(self, request: dict) -> float | None:
        """The request's absolute monotonic deadline, or ``None``.

        The budget is the smaller of the server ``--timeout`` and the
        request's own ``deadline_ms`` field (ignored when not a positive
        number — a lenient protocol: a malformed budget means no
        budget, not a rejected request).
        """
        budget = self.timeout
        raw = request.get("deadline_ms")
        if isinstance(raw, (int, float)) and not isinstance(raw, bool) and raw > 0:
            client_budget = raw / 1000.0
            budget = client_budget if budget is None else min(budget, client_budget)
        if budget is None:
            return None
        return time.monotonic() + budget

    def _admit(self, conn: _ConnState | None) -> bool:
        """Reserve one heavy-request slot; False when the queue is full."""
        with self._state_lock:
            if (
                self.max_pending is not None
                and self._pending_heavy >= self.max_pending
            ):
                return False
            if (
                conn is not None
                and self.max_pending_per_conn is not None
                and conn.pending >= self.max_pending_per_conn
            ):
                return False
            self._pending_heavy += 1
            if conn is not None:
                conn.pending += 1
            return True

    def _release(self, conn: _ConnState | None) -> None:
        with self._state_lock:
            self._pending_heavy -= 1
            if conn is not None:
                conn.pending -= 1

    def _pending_depth(self) -> int:
        with self._state_lock:
            return self._pending_heavy

    def _overloaded_response(self, request_id, op: str) -> dict:
        """The structured rejection for a request admission turned away."""
        retry_after_ms = self.metrics.retry_hint_ms(op, self._pending_depth())
        self.engine.diagnostics.count(SERVER_OVERLOADS)
        limit = self.max_pending
        return _error_response(
            request_id,
            "OverloadedError",
            f"server pending queue is full ({limit} heavy requests); "
            "retry after the suggested backoff",
            retryable=True,
            retry_after_ms=retry_after_ms,
        )

    def _execute(
        self, op: str, request: dict, deadline: float | None = None
    ) -> dict:
        """Run one validated request (on a pool worker) to a response.

        Never raises: protocol rejections and unexpected handler
        crashes both become structured error responses — a concurrent
        daemon must not die because one request hit a bug. Work whose
        deadline already expired while queued is shed without running.
        """
        started = time.monotonic()
        try:
            if deadline is not None and started > deadline:
                self.engine.diagnostics.count(SERVER_SHED)
                return _error_response(
                    request.get("id"),
                    "TimeoutError",
                    "deadline expired while queued; request shed under load",
                    retryable=True,
                )
            try:
                faults.maybe_sleep("slow_task")
                response = self._ops[op](request)
            except _ProtocolError as exc:
                return _error_response(request.get("id"), exc.kind, str(exc))
            except Exception as exc:  # noqa: BLE001 - kept serving by design
                return _error_response(
                    request.get("id"),
                    "InternalError",
                    f"{type(exc).__name__}: {exc}",
                )
            response.setdefault("id", request.get("id"))
            response.setdefault("ok", True)
            return response
        finally:
            self.metrics.finished(op, time.monotonic() - started)

    def _op_generate(self, request: dict) -> dict:
        templates = request.get("templates")
        if templates is not None:
            return self._generate_batch(request, templates)
        template = request.get("template")
        source = request.get("source")
        if template is None and source is None:
            raise _ProtocolError(
                "generate needs 'template', 'templates' or 'source'"
            )
        result = self.engine.generate(
            GenerateRequest(
                template=template,
                source=source,
                name=request.get("name"),
                verify=request.get("verify"),
            )
        )
        payload = result.to_dict()
        payload["id"] = request.get("id")
        return payload

    def _generate_batch(self, request: dict, templates) -> dict:
        """The batch form of ``generate``: ``templates`` + ``jobs``.

        With ``jobs > 1`` the batch runs over the engine's *supervised*
        process pool — the path that absorbs worker crashes — so this
        is also how chaos traffic exercises the supervisor over the
        wire. Per-template failures are reported per item; the batch
        response itself stays ``ok``.
        """
        if not isinstance(templates, (list, tuple)) or not templates:
            raise _ProtocolError("generate 'templates' must be a non-empty list")
        results = self.engine.generate_many(
            [str(t) for t in templates],
            jobs=_request_jobs(request),
            verify=request.get("verify"),
        )
        items = []
        for result in results:
            item: dict = {"ok": result.ok}
            if result.module is not None:
                item["output_class"] = result.module.output_class
            if result.error is not None:
                item["error"] = result.error.to_dict()
            items.append(item)
        return {
            "id": request.get("id"),
            "ok": True,
            "op": "generate",
            "batch": items,
            "failed": sum(1 for r in results if not r.ok),
        }

    def _op_analyze(self, request: dict) -> dict:
        paths = request.get("paths") or ()
        sources = request.get("sources")
        if not paths and not sources:
            raise _ProtocolError("analyze needs 'paths' or 'sources'")
        result = self.engine.analyze(
            AnalyzeRequest(
                paths=tuple(str(p) for p in paths),
                sources=sources,
                jobs=_request_jobs(request),
            )
        )
        payload = result.to_dict()
        payload["id"] = request.get("id")
        return payload

    def _op_ping(self, request: dict) -> dict:
        return {
            "id": request.get("id"),
            "ok": True,
            "op": "ping",
            "protocol": PROTOCOL_VERSION,
            "rules": len(self.engine.ruleset),
            "requests": self.engine.requests,
            "workers": self.workers,
        }

    def _op_stats(self, request: dict) -> dict:
        health = self.engine.health(probe=False)
        return {
            "id": request.get("id"),
            "ok": True,
            "op": "stats",
            "protocol": PROTOCOL_VERSION,
            "requests": self.engine.requests,
            "responses": self.responses,
            "compiled_rules": _counts(
                self.engine.ruleset.diagnostics, COMPILED_RULES_COUNTS
            ),
            "result_cache": self.engine.result_cache.to_dict(),
            "summary_cache": self.engine.summary_cache.to_dict(),
            "server": self.metrics.to_dict(self.engine.diagnostics),
            "admission": {
                "pending": self._pending_depth(),
                "max_pending": self.max_pending,
                "max_pending_per_conn": self.max_pending_per_conn,
            },
            "supervisor": health["pool"],
            "breakers": health["breakers"],
            "degraded": health["degraded"],
            "diagnostics": self.engine.diagnostics.to_dict(),
        }

    def _op_health(self, request: dict) -> dict:
        """Fault-tolerance snapshot: pool, breakers, queue, degrade flag.

        Probing is on by default — a degraded supervisor gets one
        recovery attempt per health check — and can be suppressed with
        ``"probe": false`` for a pure read.
        """
        probe = bool(request.get("probe", True))
        health = self.engine.health(probe=probe)
        degraded = health["degraded"]
        return {
            "id": request.get("id"),
            "ok": True,
            "op": "health",
            "protocol": PROTOCOL_VERSION,
            "state": "degraded" if degraded else "healthy",
            "degraded": degraded,
            "pool": health["pool"],
            "breakers": health["breakers"],
            "disk_cache": health["disk_cache"],
            "queue": {
                "pending": self._pending_depth(),
                "max_pending": self.max_pending,
                "max_pending_per_conn": self.max_pending_per_conn,
            },
            "server": _counts(self.engine.diagnostics, SERVER_COUNTS),
        }

    def _op_refresh_rules(self, request: dict) -> dict:
        if self.engine.repository is None:
            raise _ProtocolError(
                "engine has no rule repository (start serve with --rules)"
            )
        report = self.engine.refresh_rules()
        return {
            "id": request.get("id"),
            "ok": True,
            "op": "refresh-rules",
            "report": report.to_dict(),
        }

    def _op_shutdown(self, request: dict) -> dict:
        self.drain()
        return {"id": request.get("id"), "ok": True, "op": "shutdown"}

    # ------------------------------------------------------------------
    # the shared worker pool
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._state_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="serve-worker",
                )
            return self._pool

    def _shutdown_pool(self) -> None:
        with self._state_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # transports
    # ------------------------------------------------------------------

    def drain(self, *_signal_args) -> None:
        """Stop accepting new work; in-flight requests still answer.

        Invoked by ``SIGTERM`` and by the ``shutdown`` op. Wakes the
        socket accept loop (if one is running) so drain latency is
        bounded by readiness, not by a poll interval.
        """
        self._draining = True
        self._wake()

    def _wake(self) -> None:
        with self._state_lock:
            fd = self._wake_write_fd
        if fd is not None:
            try:
                os.write(fd, b"\0")
            except OSError:  # pragma: no cover - pipe already closed
                pass

    def _install_sigterm(self) -> object | None:
        try:
            return signal.signal(signal.SIGTERM, self.drain)
        except ValueError:  # pragma: no cover - non-main thread
            return None

    def _restore_sigterm(self, previous: object | None) -> None:
        if previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except (ValueError, TypeError):  # pragma: no cover
                pass

    def serve_stream(self, lines: Iterator[str], out: IO[str]) -> int:
        """Serve one request/response stream (the stdio transport).

        Returns the cumulative number of responses written. Every
        request — even ``shutdown`` and requests that exceed the
        deadline — gets its response, in request order, before the loop
        exits.
        """
        previous = self._install_sigterm()
        try:
            self._serve_connection(lines, out)
        finally:
            self._shutdown_pool()
            self.engine.close()
            self._restore_sigterm(previous)
        return self.responses

    def _serve_connection(self, lines: Iterator[str], out: IO[str]) -> int:
        """Read requests off one stream; a writer thread answers in order.

        The calling thread is the connection's *reader*: it parses each
        line, submits valid requests to the shared pool, and enqueues a
        :class:`_Pending` slot per request. The paired *writer* thread
        drains slots strictly in sequence, waiting each future out
        under the per-request deadline — so responses come back in
        request order even though execution is concurrent.
        """
        pool = self._ensure_pool()
        queue: "SimpleQueue[_Pending | None]" = SimpleQueue()
        totals = _StreamTotals()
        conn = _ConnState()
        writer = threading.Thread(
            target=self._write_responses,
            args=(queue, out, totals),
            name="serve-writer",
            daemon=True,
        )
        writer.start()
        seq = 0
        try:
            for line in lines:
                if self._draining:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                request, parse_error = self._parse(stripped)
                seq += 1
                if parse_error is not None:
                    queue.put(
                        _Pending(
                            seq=seq,
                            request_id=parse_error.get("id"),
                            op=None,
                            submitted_at=time.monotonic(),
                            response=parse_error,
                        )
                    )
                    continue
                op = request["op"]
                heavy = op in HEAVY_OPS
                if heavy and not self._admit(conn):
                    # Load shed at the door: the rejection is answered
                    # in sequence like any response, but never queues.
                    queue.put(
                        _Pending(
                            seq=seq,
                            request_id=request.get("id"),
                            op=op,
                            submitted_at=time.monotonic(),
                            response=self._overloaded_response(
                                request.get("id"), op
                            ),
                        )
                    )
                    continue
                deadline = self._deadline_for(request)
                self.metrics.submitted()
                future = pool.submit(self._execute, op, request, deadline)
                # Done-callbacks fire on completion *and* on
                # cancellation, so a request cancelled while still
                # queued leaves the in-flight gauge too.
                future.add_done_callback(lambda _f: self.metrics.settled())
                if heavy:
                    future.add_done_callback(
                        lambda _f, conn=conn: self._release(conn)
                    )
                queue.put(
                    _Pending(
                        seq=seq,
                        request_id=request.get("id"),
                        op=op,
                        submitted_at=time.monotonic(),
                        future=future,
                        deadline=deadline,
                    )
                )
                if op == "shutdown":
                    # Stop reading now: lines after a shutdown request
                    # are never answered (the drain flag races with the
                    # handler, so the reader decides synchronously).
                    break
        finally:
            queue.put(None)
            writer.join()
        return totals.written

    def _write_responses(
        self,
        queue: "SimpleQueue[_Pending | None]",
        out: IO[str],
        totals: _StreamTotals,
    ) -> None:
        """Drain one connection's response queue in sequence order."""
        broken = False
        while True:
            pending = queue.get()
            if pending is None:
                return
            response = pending.response
            if response is None:
                response = self._await_response(pending)
            response["seq"] = pending.seq
            if broken:
                continue  # client is gone; keep draining the queue
            try:
                with self.engine.diagnostics.stage(SERVE_STAGE):
                    out.write(json.dumps(response) + "\n")
                    out.flush()
            except (OSError, ValueError):
                broken = True
                continue
            with self._state_lock:
                self.responses += 1
            totals.written += 1

    def _await_response(self, pending: _Pending) -> dict:
        """Wait one future out under the per-request deadline."""
        remaining: float | None = None
        if pending.deadline is not None:
            remaining = max(0.0, pending.deadline - time.monotonic())
        try:
            return pending.future.result(timeout=remaining)
        except FutureTimeout:
            # Cancel if still queued; if already running the worker is
            # abandoned — the engine is thread-safe, so the server just
            # keeps serving. Only this request pays.
            pending.future.cancel()
            self.engine.diagnostics.count(SERVER_TIMEOUTS)
            budget = pending.deadline - pending.submitted_at
            return _error_response(
                pending.request_id,
                "TimeoutError",
                f"request exceeded its {budget:.1f}s deadline and was "
                "abandoned; the server keeps serving",
            )
        except CancelledError:
            return _error_response(
                pending.request_id,
                "CancelledError",
                "request was cancelled during shutdown",
            )

    def serve_stdio(self) -> int:
        """Serve on stdin/stdout (the default transport)."""
        return self.serve_stream(iter(sys.stdin), sys.stdout)

    def serve_socket(self, path: str | Path) -> int:
        """Serve many concurrent clients on a Unix domain socket.

        The accept loop is ``selectors``-driven (no busy polling): it
        blocks on readiness of the listening socket and a self-pipe
        that :meth:`drain` writes to, so shutdown latency is bounded by
        the in-flight work, not a poll interval. Each accepted
        connection gets its own reader thread; all requests share one
        worker pool. The socket file is created fresh and removed on
        exit.
        """
        path = Path(path)
        if path.exists():
            path.unlink()
        previous = self._install_sigterm()
        server = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        selector = selectors.DefaultSelector()
        wake_read, wake_write = os.pipe()
        with self._state_lock:
            self._wake_write_fd = wake_write
        connection_threads: list[threading.Thread] = []
        try:
            server.bind(str(path))
            server.listen(128)
            server.setblocking(False)
            selector.register(server, selectors.EVENT_READ)
            selector.register(wake_read, selectors.EVENT_READ)
            while not self._draining:
                for key, _events in selector.select():
                    if key.fileobj is server:
                        try:
                            connection, _ = server.accept()
                        except BlockingIOError:
                            continue
                        except OSError as exc:
                            if exc.errno in _FD_EXHAUSTED_ERRNOS:
                                # Out of file descriptors: not fatal and
                                # not the listener's fault. Back off so
                                # in-flight connections can close and
                                # return fds, then keep accepting.
                                self.engine.diagnostics.count(
                                    SERVER_ACCEPT_ERRORS
                                )
                                print(
                                    json.dumps(
                                        {
                                            "event": "accept-error",
                                            "errno": exc.errno,
                                            "error": exc.strerror,
                                            "backoff_s": ACCEPT_BACKOFF_SECONDS,
                                        }
                                    ),
                                    file=sys.stderr,
                                    flush=True,
                                )
                                time.sleep(ACCEPT_BACKOFF_SECONDS)
                            continue
                        with self._state_lock:
                            self._connections.add(connection)
                        thread = threading.Thread(
                            target=self._serve_socket_connection,
                            args=(connection,),
                            name="serve-conn",
                            daemon=True,
                        )
                        connection_threads.append(thread)
                        thread.start()
                    else:
                        os.read(wake_read, 4096)
            # Drain: stop every connection's read side so its reader
            # unblocks; in-flight requests still answer (or time out).
            with self._state_lock:
                open_connections = list(self._connections)
            for connection in open_connections:
                try:
                    connection.shutdown(socketlib.SHUT_RD)
                except OSError:
                    pass
            for thread in connection_threads:
                thread.join(timeout=self.timeout)
        finally:
            with self._state_lock:
                self._wake_write_fd = None
            selector.close()
            os.close(wake_read)
            os.close(wake_write)
            server.close()
            if path.exists():
                path.unlink()
            self._shutdown_pool()
            self.engine.close()
            self._restore_sigterm(previous)
        return self.responses

    def _serve_socket_connection(self, connection: socketlib.socket) -> None:
        """One accepted client: reader loop + ordered writer."""
        try:
            with connection:
                reader = connection.makefile("r", encoding="utf-8")
                writer = connection.makefile("w", encoding="utf-8")
                self._serve_connection(iter(reader), writer)
        except OSError:  # pragma: no cover - client vanished mid-stream
            pass
        finally:
            with self._state_lock:
                self._connections.discard(connection)
