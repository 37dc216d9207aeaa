"""Cooperative cancellation and deadlines for sampling runs.

A :class:`CancelScope` is a tiny, thread-safe token the serving daemon
(or any caller) attaches to an engine run.  The execution context
checks it **between chunks** — never inside one — so a cancelled run
stops at the next chunk boundary with all partial work discarded, and
an uncancelled run is untouched (the check is one attribute read plus
one comparison).

Two trip conditions, checked in this order:

* an explicit :meth:`CancelScope.cancel` call (client went away, the
  server is shedding load) raises :class:`CancelledRun`;
* a wall-clock ``deadline`` (``time.monotonic`` seconds) raises
  :class:`DeadlineExceeded`, a subclass, so callers that only care
  about "the run did not finish" catch one type.

Determinism note: cancellation *aborts* a run — it never changes the
samples of a run that completes.  A run that races its deadline and
wins returns bitwise-identical samples to an undeadlined run; one that
loses raises and returns nothing.  The ``trip_after_checks`` test hook
makes the mid-run trip deterministic for the identity lattice's cancel
cells (wall-clock deadlines are inherently racy in tests).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

__all__ = ["CancelScope", "CancelledRun", "DeadlineExceeded"]


class CancelledRun(RuntimeError):
    """The run's cancel scope was tripped; partial work was discarded."""


class DeadlineExceeded(CancelledRun):
    """The run's deadline passed before it finished."""


class CancelScope:
    """Cancellation token + optional deadline, checked between chunks.

    Parameters
    ----------
    deadline:
        Absolute ``time.monotonic()`` seconds after which
        :meth:`check` raises :class:`DeadlineExceeded` (None = no
        deadline).
    trip_after_checks:
        Deterministic test hook: trip the scope on the Nth
        :meth:`check` call regardless of the clock, so a test can
        cancel *mid-run* without racing wall time.  None = disabled.
    """

    def __init__(self, deadline: Optional[float] = None,
                 trip_after_checks: Optional[int] = None) -> None:
        self.deadline = deadline
        self._cancelled = threading.Event()
        self._reason = ""
        self._trip_after = trip_after_checks
        self._checks = 0
        self._lock = threading.Lock()

    @classmethod
    def after(cls, seconds: float) -> "CancelScope":
        """A scope whose deadline is ``seconds`` from now."""
        return cls(deadline=time.monotonic() + float(seconds))

    # ------------------------------------------------------------------

    def cancel(self, reason: str = "cancelled") -> None:
        """Trip the scope; the run raises at its next chunk boundary."""
        self._reason = reason
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (negative = past), or None."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def expired(self) -> bool:
        """True when the deadline (if any) has passed."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def check(self, where: str = "") -> None:
        """Raise if the scope is tripped; otherwise a cheap no-op."""
        if self._trip_after is not None:
            with self._lock:
                self._checks += 1
                if self._checks >= self._trip_after:
                    self.cancel("test hook tripped")
        suffix = f" at {where}" if where else ""
        if self._cancelled.is_set():
            raise CancelledRun(
                f"run cancelled{suffix}: {self._reason}")
        if self.expired():
            raise DeadlineExceeded(
                f"deadline exceeded{suffix} "
                f"(over by {-self.remaining():.3f}s)")
