"""Per-input circuit breakers: poisoned requests fail fast.

A template (or analysis target) whose pipeline run keeps raising is
*poison*: every retry burns a worker, and under load the same bad input
arrives again and again — exactly the adversarial shape a CrySL-style
service attracts. The classic remedy is a circuit breaker per input
identity:

* **closed** — requests flow; consecutive failures are counted, any
  success resets the count.
* **open** — tripped after :attr:`BreakerConfig.failure_threshold`
  consecutive failures; calls are rejected *before* the pipeline runs
  with :class:`CircuitOpenError` carrying ``retry_after_ms`` (time
  until the next probe is admitted).
* **half-open** — after :attr:`BreakerConfig.cooldown_seconds` one
  probe request is admitted; success closes the breaker, failure
  re-opens it (and restarts the cooldown).

Breakers are keyed by ``(op, input fingerprint)`` — the engine uses the
template/source content digest for ``generate`` and the target-set
digest for ``analyze`` — so one poisoned template never darkens another
template's path. ``refresh-rules`` resets every breaker: new rules mean
old failures prove nothing.

The registry is bounded (:attr:`BreakerConfig.max_breakers`, evicting
the least-recently-touched entry) so an attacker cycling unique bad
inputs cannot grow it without limit — a robustness layer must not be
its own memory leak.

Trips, fast-fails and resets count only into a
:class:`~repro.diagnostics.Diagnostics` (``breaker.*``), so reported
trips survive a reset or the eviction of the breaker that tripped.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from ..diagnostics import (
    BREAKER_FAST_FAILS,
    BREAKER_OPENS,
    BREAKER_RESETS,
    Diagnostics,
)
from ..trace import event as trace_event

#: Breaker state names (also the wire spelling in ``health``/``stats``).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitOpenError(Exception):
    """The breaker for this input is open; the request fails fast.

    ``retry_after_ms`` tells a well-behaved client when the half-open
    probe slot becomes available.
    """

    def __init__(self, key: tuple[str, str], retry_after_ms: float):
        self.key = key
        self.retry_after_ms = max(0.0, retry_after_ms)
        op, fingerprint = key
        super().__init__(
            f"circuit breaker open for {op} input {fingerprint[:12]}…; "
            f"retry in {self.retry_after_ms:.0f}ms or refresh-rules to reset"
        )


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs for the breaker registry."""

    #: consecutive failures that trip a closed breaker open
    failure_threshold: int = 5
    #: seconds an open breaker rejects before admitting one probe
    cooldown_seconds: float = 30.0
    #: registry bound; least-recently-touched breakers are evicted
    max_breakers: int = 1024


class _Breaker:
    """One key's state machine; guarded by the registry's lock."""

    __slots__ = ("state", "failures", "opened_at", "probing")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0
        #: True while the single half-open probe is in flight
        self.probing = False


class BreakerRegistry:
    """All breakers for one engine, keyed by ``(op, fingerprint)``."""

    def __init__(
        self,
        config: BreakerConfig | None = None,
        *,
        diagnostics: Diagnostics | None = None,
    ):
        self.config = config or BreakerConfig()
        self.diagnostics = diagnostics if diagnostics is not None else Diagnostics()
        self._lock = threading.Lock()
        self._breakers: "OrderedDict[tuple[str, str], _Breaker]" = OrderedDict()

    # ------------------------------------------------------------------
    # the request-path API
    # ------------------------------------------------------------------

    def admit(self, key: tuple[str, str]) -> None:
        """Gate one request; raises :class:`CircuitOpenError` when open.

        Called before the pipeline runs. A closed (or unknown) key is
        admitted for free; an open key either rejects fast or — once
        the cooldown has elapsed and no other probe is in flight —
        flips to half-open and admits this request as the probe.
        """
        now = time.monotonic()
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                return
            self._breakers.move_to_end(key)
            if breaker.state == CLOSED:
                return
            elapsed = now - breaker.opened_at
            remaining = self.config.cooldown_seconds - elapsed
            if breaker.state == OPEN and remaining <= 0:
                breaker.state = HALF_OPEN
            if breaker.state == HALF_OPEN and not breaker.probing:
                breaker.probing = True
                return
            retry_after_ms = max(remaining, 0.001) * 1000.0
        self.diagnostics.count(BREAKER_FAST_FAILS)
        trace_event("breaker:fast-fail", op=key[0], retry_after_ms=retry_after_ms)
        raise CircuitOpenError(key, retry_after_ms)

    def record_success(self, key: tuple[str, str]) -> None:
        """A request for this key completed cleanly; close its breaker."""
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                return
            breaker.state = CLOSED
            breaker.failures = 0
            breaker.probing = False

    def record_failure(self, key: tuple[str, str]) -> bool:
        """A request for this key failed; returns True if that tripped it."""
        tripped = False
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = _Breaker()
                self._breakers[key] = breaker
                while len(self._breakers) > self.config.max_breakers:
                    self._breakers.popitem(last=False)
            else:
                self._breakers.move_to_end(key)
            breaker.failures += 1
            was_half_open = breaker.state == HALF_OPEN
            if (
                breaker.failures >= self.config.failure_threshold
                or was_half_open
            ):
                breaker.state = OPEN
                breaker.opened_at = time.monotonic()
                breaker.probing = False
                tripped = True
        if tripped:
            self.diagnostics.count(BREAKER_OPENS)
            trace_event("breaker:open", op=key[0])
        return tripped

    # ------------------------------------------------------------------
    # management
    # ------------------------------------------------------------------

    def reset(self) -> int:
        """Drop every breaker (``refresh-rules``); returns how many."""
        with self._lock:
            dropped = len(self._breakers)
            self._breakers.clear()
        self.diagnostics.count(BREAKER_RESETS)
        return dropped

    def state_of(self, key: tuple[str, str]) -> str:
        with self._lock:
            breaker = self._breakers.get(key)
            return breaker.state if breaker is not None else CLOSED

    def to_dict(self) -> dict:
        """A JSON snapshot for ``health``/``stats``."""
        with self._lock:
            by_state = {CLOSED: 0, OPEN: 0, HALF_OPEN: 0}
            open_keys = []
            for key, breaker in self._breakers.items():
                by_state[breaker.state] += 1
                if breaker.state != CLOSED:
                    open_keys.append(
                        {
                            "op": key[0],
                            "fingerprint": key[1][:12],
                            "state": breaker.state,
                            "failures": breaker.failures,
                        }
                    )
            return {
                "tracked": len(self._breakers),
                "by_state": by_state,
                "trips": self.diagnostics.counter(BREAKER_OPENS),
                "resets": self.diagnostics.counter(BREAKER_RESETS),
                "open": open_keys,
                "failure_threshold": self.config.failure_threshold,
                "cooldown_seconds": self.config.cooldown_seconds,
            }

    def __repr__(self) -> str:
        snapshot = self.to_dict()
        return (
            f"<BreakerRegistry tracked={snapshot['tracked']} "
            f"open={snapshot['by_state'][OPEN]}>"
        )
