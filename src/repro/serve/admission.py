"""The admission gate: bounded waiting room, explicit backpressure.

Every sampling request runs on the HTTP thread that parsed it, between
:meth:`AdmissionGate.enter` and :meth:`AdmissionGate.leave`.  The gate
holds ``executors`` run slots and a waiting room of ``capacity``.

Overload policy (docs/SERVING.md): the daemon would rather **reject
loudly** than queue silently.  A request is admitted while running +
waiting < ``executors + capacity``; beyond that :meth:`enter` raises
:class:`QueueFull` carrying an honest ``retry_after_s`` estimate — the
time for the backlog ahead of the rejected request to drain at the
observed service rate — which the server maps to a 429 +
``Retry-After``.  Below saturation, queue wait stays bounded by
``capacity x service_time``; beyond it, clients see rejections, never
latency collapse (the ``served_mix`` workload of ``benchmarks/ledger/``
measures both regimes: its ``load`` and ``over`` phases).

An admitted request waits for a slot in FIFO order, and only until its
:class:`~repro.runtime.cancel.CancelScope` deadline: an expired waiter
leaves the room at once (:class:`DeadlineExceeded`, a 504 at stage
``dequeue``).  :meth:`close` wakes every waiter with :class:`GateClosed`
(a 503) and returns once the room is empty.

Service time is tracked as an exponentially-weighted moving average
updated after each completed run, seeded with a conservative default
before the first completion.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Optional

from repro.runtime.cancel import CancelScope, DeadlineExceeded

__all__ = ["AdmissionGate", "GateClosed", "QueueFull"]

#: EWMA smoothing for the observed per-request service seconds.
_EWMA_ALPHA = 0.3

#: Service-time guess before anything has completed (seconds); only
#: shapes the very first retry-after hints.
_BOOTSTRAP_SERVICE_S = 0.25


class QueueFull(RuntimeError):
    """Admission rejected: the waiting room is at capacity."""

    def __init__(self, capacity: int, retry_after_s: float) -> None:
        super().__init__(
            f"admission queue full ({capacity} waiting); "
            f"retry after {retry_after_s:.3f}s")
        self.retry_after_s = retry_after_s


class GateClosed(RuntimeError):
    """The gate is closed (the daemon is draining or stopped)."""


class AdmissionGate:
    """``executors`` run slots behind a FIFO waiting room of
    ``capacity``.

    ``capacity`` counts *waiting* requests only — a request that finds
    an idle slot runs at once even at ``capacity=0`` (no waiting room:
    reject unless it can start now).
    """

    def __init__(self, capacity: int, executors: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if executors < 1:
            raise ValueError("executors must be >= 1")
        self.capacity = capacity
        self.executors = executors
        self._waiting: collections.deque = collections.deque()
        self._cond = threading.Condition()
        self._closed = False
        self._running = 0
        self._service_ewma_s = _BOOTSTRAP_SERVICE_S

    # -- accounting ----------------------------------------------------

    def depth(self) -> int:
        """Requests in the waiting room."""
        with self._cond:
            return len(self._waiting)

    def inflight(self) -> int:
        """Requests holding a run slot."""
        with self._cond:
            return self._running

    def observe_service(self, seconds: float) -> None:
        """Fold one completed request's service time into the EWMA."""
        if seconds <= 0:
            return
        with self._cond:
            self._service_ewma_s += _EWMA_ALPHA * (
                seconds - self._service_ewma_s)

    def service_estimate(self) -> float:
        with self._cond:
            return self._service_ewma_s

    def retry_after_s(self) -> float:
        """Honest drain-time estimate for a rejected request: the work
        ahead of it (waiting + running) over the slot count, at the
        observed service rate."""
        with self._cond:
            backlog = len(self._waiting) + self._running
            return max(self._service_ewma_s,
                       backlog * self._service_ewma_s / self.executors)

    # -- passing through -----------------------------------------------

    def enter(self, scope: Optional[CancelScope] = None) -> None:
        """Take a run slot, waiting in FIFO order while all are busy.
        Raises :class:`QueueFull` when the room is full,
        :class:`GateClosed` when closed (also while waiting) and
        :class:`DeadlineExceeded` when ``scope`` expires while waiting.
        The caller must :meth:`leave` after a successful enter."""
        with self._cond:
            if self._closed:
                raise GateClosed("admission gate is closed (draining)")
            if len(self._waiting) + self._running >= \
                    self.executors + self.capacity:
                raise QueueFull(self.capacity, self.retry_after_s())
            me = object()
            self._waiting.append(me)
            try:
                while True:
                    if self._closed:
                        raise GateClosed("admission gate closed while "
                                         "waiting (draining)")
                    remaining = None if scope is None else \
                        scope.remaining()
                    if remaining is not None and remaining <= 0:
                        raise DeadlineExceeded("deadline exceeded while "
                                               "waiting for a slot")
                    if self._waiting[0] is me and \
                            self._running < self.executors:
                        self._running += 1
                        return
                    self._cond.wait(None if remaining is None else
                                    min(remaining, threading.TIMEOUT_MAX))
            finally:
                self._waiting.remove(me)
                self._cond.notify_all()

    def leave(self) -> None:
        """Free the slot taken by :meth:`enter`."""
        with self._cond:
            self._running -= 1
            self._cond.notify_all()

    def close(self) -> None:
        """Stop admitting; wake every waiter (it raises
        :class:`GateClosed`) and return once the waiting room is
        empty.  Running requests are not touched."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            while self._waiting:
                self._cond.wait()

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing waits or runs (or timeout); returns
        whether that happened."""
        deadline = None if timeout is None else \
            time.monotonic() + timeout
        with self._cond:
            while self._waiting or self._running:
                remaining = None if deadline is None else \
                    deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)
            return True
