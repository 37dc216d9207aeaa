"""Lightweight span tracing for the sampling hot paths.

One process-global tracer records *spans* — named wall-clock intervals
with optional key/value arguments — from every thread of a run.  The
hot paths are instrumented unconditionally; when tracing is disabled
(the default) the active tracer is a shared no-op singleton whose
``span()`` returns one reusable null context manager, so the cost per
instrumentation point is a single attribute lookup and call (measured
as ``obs.noop_span_ns`` by ``benchmarks/ledger/``).

Usage::

    from repro.obs import trace

    with trace.span("step", step=i):
        ...

    tracer = trace.enable()          # or REPRO_TRACE=/path/trace.json
    ... run ...
    from repro.obs import export
    export.write_chrome_trace("trace.json")

Clocks: spans are timed with ``time.monotonic()``, which on the
platforms we support is system-wide (comparable across processes), so
worker processes can time a chunk locally and ship ``(t_start, t_end)``
back for the parent to record in a per-worker lane
(:meth:`Tracer.add_span`).

Lanes: every span lands in a lane — by default the recording thread
(named via :meth:`Tracer.name_thread`), or an explicit string lane such
as ``"worker-0"`` for events recorded on behalf of another process.
The Chrome-trace exporter maps lanes to ``tid`` rows.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = ["Tracer", "NullTracer", "Span", "span", "enable", "disable",
           "get_tracer", "tracing_enabled", "TRACE_ENV"]

#: Setting this env var to a path enables tracing at import time and
#: writes a Chrome trace there at interpreter exit.
TRACE_ENV = "REPRO_TRACE"

#: Lane key type: a thread ident (int) or an explicit string lane.
Lane = Union[int, str]

#: One recorded span: (name, t_start, t_end, lane, args_or_None).
Event = Tuple[str, float, float, Lane, Optional[Dict[str, Any]]]


class _NullSpan:
    """Shared, stateless no-op span (disabled-tracer fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        """Ignore late-bound span arguments."""


_NULL_SPAN = _NullSpan()


class Span:
    """A recording span: context manager timing one named interval."""

    __slots__ = ("_tracer", "name", "args", "lane", "_t0")

    def __init__(self, tracer: "Tracer", name: str, lane: Optional[Lane],
                 args: Optional[Dict[str, Any]]) -> None:
        self._tracer = tracer
        self.name = name
        self.lane = lane
        self.args = args

    def set(self, **args) -> None:
        """Attach arguments discovered after the span opened."""
        if self.args is None:
            self.args = args
        else:
            self.args.update(args)

    def __enter__(self) -> "Span":
        if self.lane is None:
            self.lane = threading.get_ident()
        self._t0 = time.monotonic()
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._record(self.name, self._t0, time.monotonic(),
                             self.lane, self.args)
        return False


class Tracer:
    """Process-global span recorder (thread- and shard-safe)."""

    enabled = True

    def __init__(self) -> None:
        self.origin = time.monotonic()
        self._events: List[Event] = []
        self._lock = threading.Lock()
        self._thread_names: Dict[int, str] = {}
        self.name_thread("main")

    # -- recording ----------------------------------------------------

    def span(self, name: str, lane: Optional[Lane] = None, **args) -> Span:
        return Span(self, name, lane, args or None)

    def add_span(self, name: str, t_start: float, t_end: float,
                 lane: Optional[Lane] = None, **args) -> None:
        """Record an already-timed interval (monotonic timestamps) —
        how worker-chunk timings shipped over the pipe become spans."""
        if lane is None:
            lane = threading.get_ident()
        self._record(name, float(t_start), float(t_end), lane,
                     args or None)

    def _record(self, name: str, t0: float, t1: float,
                lane: Lane, args: Optional[Dict[str, Any]]) -> None:
        with self._lock:
            self._events.append((name, t0, t1, lane, args))

    # -- lanes --------------------------------------------------------

    def name_thread(self, name: str) -> None:
        """Label the calling thread's lane (e.g. ``shard-1``)."""
        with self._lock:
            self._thread_names[threading.get_ident()] = name

    def thread_names(self) -> Dict[int, str]:
        with self._lock:
            return dict(self._thread_names)

    # -- reading ------------------------------------------------------

    def snapshot(self) -> List[Event]:
        """A copy of every event recorded so far."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class NullTracer:
    """Disabled tracer: every operation is a no-op."""

    enabled = False
    origin = 0.0

    def span(self, name: str, lane: Optional[Lane] = None,
             **args) -> _NullSpan:
        return _NULL_SPAN

    def add_span(self, name: str, t_start: float, t_end: float,
                 lane: Optional[Lane] = None, **args) -> None:
        pass

    def name_thread(self, name: str) -> None:
        pass

    def thread_names(self) -> Dict[int, str]:
        return {}

    def snapshot(self) -> List[Event]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


_NULL_TRACER = NullTracer()
_ACTIVE: Union[Tracer, NullTracer] = _NULL_TRACER


def get_tracer() -> Union[Tracer, NullTracer]:
    """The process-global active tracer (the null singleton when
    tracing is off)."""
    return _ACTIVE


def tracing_enabled() -> bool:
    return _ACTIVE.enabled


def span(name: str, lane: Optional[Lane] = None, **args):
    """Open a span on the active tracer (module-level convenience)."""
    return _ACTIVE.span(name, lane, **args)


def enable() -> Tracer:
    """Install (and return) a fresh recording tracer."""
    global _ACTIVE
    _ACTIVE = Tracer()
    return _ACTIVE


def disable() -> None:
    """Restore the no-op tracer (recorded events are discarded)."""
    global _ACTIVE
    _ACTIVE = _NULL_TRACER


def _write_env_trace(path: str) -> None:  # pragma: no cover - atexit
    if not _ACTIVE.enabled or len(_ACTIVE) == 0:
        return
    from repro.obs.export import write_chrome_trace
    try:
        write_chrome_trace(path)
    except OSError:
        pass


def _init_from_env() -> None:
    """``REPRO_TRACE=/path.json`` enables tracing for the whole process
    and writes the trace at exit."""
    path = os.environ.get(TRACE_ENV, "").strip()
    if path:
        enable()
        atexit.register(_write_env_trace, path)


_init_from_env()
