"""Bounded admission queue with explicit backpressure.

Overload policy (docs/SERVING.md): the daemon would rather **reject
loudly** than queue silently.  The queue holds at most ``capacity``
waiting tickets; a submit beyond that raises :class:`QueueFull`
carrying an honest ``retry_after_s`` estimate — the time for the
backlog ahead of the rejected request to drain at the observed service
rate — which the server maps to a 429 + ``Retry-After``.  Below
saturation, queue wait stays bounded by ``capacity x service_time``;
beyond it, clients see rejections, never latency collapse
(the ``served_mix`` workload of ``benchmarks/ledger/`` measures both
regimes: its ``load`` and ``over`` phases).

Service time is tracked as an exponentially-weighted moving average
updated by the executors after each completed run, seeded with a
conservative default before the first completion.
"""

from __future__ import annotations

import collections
import threading
from typing import Deque, Optional

__all__ = ["AdmissionQueue", "QueueFull"]

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
        self.capacity = capacity
        self.retry_after_s = retry_after_s


class AdmissionQueue:
    """FIFO of pending tickets, bounded at ``capacity``.

    ``capacity`` counts *waiting* requests only — one request per idle
    executor is admitted even at ``capacity=0`` (no waiting room:
    reject unless someone can start on it now).
    """

    def __init__(self, capacity: int, executors: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if executors < 1:
            raise ValueError("executors must be >= 1")
        self.capacity = capacity
        self.executors = executors
        self._items: Deque = collections.deque()
        self._cond = threading.Condition()
        self._closed = False
        #: Requests currently held by executors (admitted, not queued).
        self._inflight = 0
        self._service_ewma_s = _BOOTSTRAP_SERVICE_S

    # -- accounting ----------------------------------------------------

    def depth(self) -> int:
        with self._cond:
            return len(self._items)

    def inflight(self) -> int:
        with self._cond:
            return self._inflight

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
        ahead of it (queued + in flight) over the executor count, at
        the observed service rate."""
        with self._cond:
            backlog = len(self._items) + self._inflight
            return max(self._service_ewma_s,
                       backlog * self._service_ewma_s / self.executors)

    # -- producer side -------------------------------------------------

    def submit(self, ticket) -> int:
        """Enqueue ``ticket``; returns the queue depth *after* the
        enqueue.  Raises :class:`QueueFull` past capacity (accounting
        for the free-executor grace) and ``RuntimeError`` when closed.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("admission queue is closed (draining)")
            # One ticket per idle executor rides for free: capacity
            # bounds the *waiting room*, not service concurrency.
            idle = max(0, self.executors - self._inflight)
            limit = self.capacity + idle
            if len(self._items) >= limit:
                raise QueueFull(self.capacity, self.retry_after_s())
            self._items.append(ticket)
            depth = len(self._items)
            self._cond.notify()
            return depth

    def close(self) -> None:
        """Stop admitting (drain); waiting executors wake and exit."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    # -- consumer side -------------------------------------------------

    def get(self, timeout: Optional[float] = None):
        """Next ticket (marking it in flight), or ``None`` on timeout /
        when closed with nothing left to drain."""
        with self._cond:
            while not self._items:
                if self._closed:
                    return None
                if not self._cond.wait(timeout=timeout):
                    return None
            self._inflight += 1
            return self._items.popleft()

    def task_done(self) -> None:
        with self._cond:
            self._inflight = max(0, self._inflight - 1)
            self._cond.notify_all()

    def drained(self) -> bool:
        """True when nothing is queued or in flight."""
        with self._cond:
            return not self._items and self._inflight == 0

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`drained` (or timeout); returns it."""
        import time
        deadline = None if timeout is None else \
            time.monotonic() + timeout
        with self._cond:
            while self._items or self._inflight:
                remaining = None if deadline is None else \
                    deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)
            return True
