"""Circuit breaker guarding the sharded fan-out.

The breaker sits on a :class:`~repro.parallel.pool.WorkerPool` (one per
pool, so a service-shared pool shares one breaker across tenants) and is
consulted by :class:`~repro.parallel.backend.ShardedRepairer` before each
fan-out:

* **closed** — normal operation; every fan-out is allowed.
* **open** — entered after ``failure_threshold`` consecutive pool
  failures; fan-outs are refused (the repairer falls back to the
  sequential drain, whose correctness the equivalence suite pins) until
  ``reset_seconds`` have elapsed.
* **half_open** — after the cool-down, exactly one probe fan-out is let
  through.  Success closes the breaker; failure reopens it and restarts
  the cool-down.

The clock is injectable so tests can step through the state machine
deterministically.  All methods are thread-safe: several sessions can
share a pool (and therefore a breaker) across threads.
"""
from __future__ import annotations

import threading
import time
from typing import Callable, Dict

from repro import telemetry

__all__ = ["CircuitBreaker", "BREAKER_STATE_VALUES"]

#: Gauge encoding for ``repro_pool_breaker_state``.
BREAKER_STATE_VALUES: Dict[str, float] = {
    "closed": 0.0,
    "half_open": 1.0,
    "open": 2.0,
}


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a half-open probe."""

    def __init__(self, failure_threshold: int = 3, reset_seconds: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_seconds < 0:
            raise ValueError(f"reset_seconds must be >= 0, got {reset_seconds}")
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.transitions = 0

    # ------------------------------------------------------------------
    # state machine (all _locked helpers assume self._lock is held)
    # ------------------------------------------------------------------

    def _state_locked(self) -> str:
        if (self._state == "open"
                and self._clock() - self._opened_at >= self.reset_seconds):
            self._transition_locked("half_open")
        return self._state

    def _transition_locked(self, to: str) -> None:
        if self._state == to:
            return
        self._state = to
        self.transitions += 1
        if to != "half_open":
            self._probing = False
        if telemetry.TELEMETRY.enabled:
            telemetry.inc("repro_pool_breaker_transitions_total", state=to)
            telemetry.gauge_set("repro_pool_breaker_state",
                                BREAKER_STATE_VALUES[to])

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state — ``closed`` / ``open`` / ``half_open``.

        Reading the state applies the cool-down transition, so an expired
        ``open`` reports (and becomes) ``half_open``.
        """
        with self._lock:
            return self._state_locked()

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    def allow(self) -> bool:
        """May a fan-out proceed right now?

        In ``half_open`` only the first caller gets the probe slot; others
        are refused until the probe reports back.
        """
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "half_open" and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probing = False
            self._transition_locked("closed")

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            state = self._state_locked()
            if (state == "half_open"
                    or self._consecutive_failures >= self.failure_threshold):
                self._opened_at = self._clock()
                self._transition_locked("open")
            elif state == "open":
                # a failure while already open just restarts the cool-down
                self._opened_at = self._clock()

    def snapshot(self) -> Dict[str, object]:
        """State summary for ``service.health()``."""
        with self._lock:
            return {
                "state": self._state_locked(),
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "reset_seconds": self.reset_seconds,
                "transitions": self.transitions,
            }
