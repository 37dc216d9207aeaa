"""Circuit breaker over the degraded-mode ladder.

The resilient pool already survives individual worker crashes
(respawn + chunk requeue); when its *respawn budget* exhausts, a run
abandons the pool and finishes in-process — correct but slow, and the
next pooled request would spawn a fresh pool straight back into
whatever was killing workers.  The breaker stops that thrash:

* **closed** (0): requests run with the configured worker count;
* **open** (1): after a run is observed to have degraded
  (``runtime.degraded_mode`` gauge set by
  :meth:`ExecutionContext._abandon_pool`), every request for
  ``cooldown_s`` runs single-process (``workers=0``) — deliberately
  degraded, never failed;
* **half-open** (2): after the cooldown, exactly one trial request
  runs pooled; success closes the breaker, another degradation
  reopens it with a fresh cooldown.

Samples are bitwise-identical at any worker count, so the breaker
trades only *throughput* for stability — the response bits never
change.  State is exported as the ``serve.breaker_state`` gauge and
the ``serve.breaker_trips`` counter.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.obs import get_metrics

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED, OPEN, HALF_OPEN = 0, 1, 2
_STATE_NAMES = {CLOSED: "closed", OPEN: "open", HALF_OPEN: "half-open"}


class CircuitBreaker:
    """Worker-pool circuit breaker (see module docstring)."""

    def __init__(self, cooldown_s: float = 30.0) -> None:
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be > 0")
        self.cooldown_s = cooldown_s
        self._lock = threading.Lock()
        self._state = CLOSED
        self._opened_at: Optional[float] = None
        self._trial_leased = False
        self.trips = 0
        get_metrics().gauge("serve.breaker_state").set(CLOSED)

    @property
    def state(self) -> int:
        with self._lock:
            return self._state

    @property
    def state_name(self) -> str:
        return _STATE_NAMES[self.state]

    def _set_state(self, state: int) -> None:
        self._state = state
        get_metrics().gauge("serve.breaker_state").set(state)

    def allow_pooled(self) -> bool:
        """May the next request use the worker pool?  In half-open
        state only one caller at a time gets a trial lease."""
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if (time.monotonic() - self._opened_at
                        >= self.cooldown_s):
                    self._set_state(HALF_OPEN)
                else:
                    return False
            # HALF_OPEN: lease one pooled trial.
            if self._trial_leased:
                return False
            self._trial_leased = True
            return True

    def abort_trial(self) -> None:
        """Release a half-open trial lease without judging it (the
        trial was cancelled, not completed)."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._trial_leased = False

    def observe(self, degraded: bool) -> None:
        """Report one finished request: did its run degrade?"""
        with self._lock:
            if degraded:
                self.trips += 1
                get_metrics().counter("serve.breaker_trips").inc()
                self._opened_at = time.monotonic()
                self._trial_leased = False
                if self._state != OPEN:
                    self._set_state(OPEN)
                return
            if self._state == HALF_OPEN:
                self._trial_leased = False
                self._set_state(CLOSED)
