"""Structured event log and flight recorder.

Where metrics answer "how many" and spans answer "how long", events
answer "what happened, in what order".  :func:`record` appends one typed
event to a bounded in-memory ring buffer (the *flight recorder*); when a
run degrades — a :class:`~repro.runtime.pool.WorkerCrash` surfaces, the
pool is abandoned, or a fault-plan trip fires — the ring is dumped to
``flight-<tag>.jsonl`` so the post-mortem record survives the process.

Events are JSONL, one object per line::

    {"seq": 3, "type": "worker_respawn", "t": 0.0123,
     "worker_index": 1, "respawns_used": 1}

``seq`` is a process-wide monotonic sequence number, ``t`` is seconds
since the event log was (re)set — wall-clock enough for ordering, and
stripped by the chaos suite when it asserts exact sequences.  Event
types and their required fields are declared in :data:`EVENT_FIELDS`;
:func:`record` rejects unknown types and missing fields so the stream
stays machine-checkable.

Flight dumps are written only when a directory is configured — via
``--flight-dir`` or ``$REPRO_FLIGHT_DIR`` — so crash-injecting tests do
not litter the working directory.  Under a deterministic ``--fault-plan``
the parent-side event sequence is deterministic, which is what lets the
chaos suite assert it byte-for-byte (minus timestamps).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.obs.metrics import get_metrics

__all__ = ["EVENT_FIELDS", "EventLog", "get_event_log", "reset_events",
           "record", "set_flight_tag", "flight_dir", "dump_flight",
           "validate_event_stream", "FLIGHT_DIR_ENV", "RING_CAPACITY"]

#: Environment variable naming the directory flight dumps land in.
#: Unset (and no ``--flight-dir``) means dumps are skipped.
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

#: Ring capacity: enough for every parent-side event of a large pooled
#: run; older events are evicted (and counted) rather than growing
#: without bound.
RING_CAPACITY = 1024

#: Event type -> required field names.  Every event also carries the
#: implicit ``seq`` / ``type`` / ``t`` keys added by :meth:`EventLog.record`.
EVENT_FIELDS: Dict[str, tuple] = {
    # Run lifecycle (parent side).
    "run_start": ("app", "graph", "seed", "workers"),
    # Supervision (parent side, recorded at detection sites).
    "worker_crash": ("worker_index", "why"),
    "worker_respawn": ("worker_index", "respawns_used"),
    "chunk_retry": ("chunk_id", "kills"),
    "chunk_quarantined": ("chunk_id", "why"),
    "chunk_error": ("chunk_id", "error"),
    "degraded_mode": ("why",),
    # Checkpointing.
    "checkpoint_save": ("chunk_id",),
    "checkpoint_load": ("chunk_id",),
    # Kernel backends.
    "backend_fallback": ("kernel", "backend", "error"),
    # Deterministic fault injection (parent-side trips only; worker-side
    # faults fire in the worker process and its ring dies with it).
    "fault_injected": ("fault", "arg"),
    # Serving daemon (repro.serve): per-request lifecycle + the
    # degradation ladder (docs/SERVING.md).
    "request_admitted": ("request_id", "tenant", "app", "queue_depth"),
    "request_rejected": ("request_id", "tenant", "why",
                         "retry_after_ms"),
    "request_done": ("request_id", "tenant", "status", "wall_ms"),
    "request_deadline": ("request_id", "tenant", "stage"),
    "breaker_trip": ("state", "why"),
    "serve_drain": ("inflight",),
}


class EventLog:
    """Bounded, thread-safe ring of typed events."""

    def __init__(self, capacity: int = RING_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self._origin = time.monotonic()
        self._flight_tag: Optional[str] = None

    def record(self, type: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the stored dict."""
        required = EVENT_FIELDS.get(type)
        if required is None:
            raise ValueError(f"unknown event type {type!r} "
                             f"(declare it in EVENT_FIELDS)")
        missing = [k for k in required if k not in fields]
        if missing:
            raise ValueError(
                f"event {type!r} missing fields {missing} "
                f"(requires {list(required)})")
        metrics = get_metrics()
        with self._lock:
            self._seq += 1
            ev = {"seq": self._seq, "type": type,
                  "t": round(time.monotonic() - self._origin, 6)}
            ev.update(fields)
            if len(self._ring) == self._ring.maxlen:
                metrics.counter("obs.events_dropped").inc()
            self._ring.append(ev)
        metrics.counter("obs.events_recorded").inc()
        return ev

    def snapshot(self) -> List[Dict[str, Any]]:
        """The ring's events, oldest first (copies)."""
        with self._lock:
            return [dict(ev) for ev in self._ring]

    def reset(self) -> None:
        with self._lock:
            self._ring.clear()
            self._seq = 0
            self._origin = time.monotonic()
            self._flight_tag = None

    # -- flight recorder -----------------------------------------------

    def set_flight_tag(self, tag: str) -> None:
        """Name the current run for flight dumps (``flight-<tag>.jsonl``).
        Usually the run fingerprint, set by ``begin_run``."""
        with self._lock:
            self._flight_tag = tag

    @property
    def flight_tag(self) -> Optional[str]:
        with self._lock:
            return self._flight_tag

    def dump_jsonl(self, path: str) -> str:
        """Write the ring to ``path`` as JSONL; returns ``path``."""
        events = self.snapshot()
        with open(path, "w") as f:
            for ev in events:
                f.write(json.dumps(ev, sort_keys=True))
                f.write("\n")
        return path

    def dump_flight(self, reason: str,
                    tag: Optional[str] = None) -> Optional[str]:
        """Dump the ring to the configured flight directory as
        ``flight-<tag>.jsonl`` (``tag`` defaults to the current run's
        flight tag; the daemon names its own dumps).

        Returns the path written, or ``None`` when no directory is
        configured (``$REPRO_FLIGHT_DIR`` unset) — the recorder stays
        armed in memory either way.  Never raises: a post-mortem writer
        that crashes the post-mortem is worse than no dump.
        """
        directory = flight_dir()
        if not directory:
            return None
        tag = tag or self.flight_tag or "untagged"
        path = os.path.join(directory, f"flight-{tag}.jsonl")
        try:
            os.makedirs(directory, exist_ok=True)
            self.dump_jsonl(path)
        except OSError:
            return None
        return path


def flight_dir() -> Optional[str]:
    """The flight-dump directory, or ``None`` when dumping is off."""
    return os.environ.get(FLIGHT_DIR_ENV) or None


_EVENTS = EventLog()


def get_event_log() -> EventLog:
    """The process-global event log."""
    return _EVENTS


def reset_events() -> None:
    """Clear the ring and restart ``seq``/``t`` (tests, fresh runs)."""
    _EVENTS.reset()


def record(type: str, **fields: Any) -> Dict[str, Any]:
    """Append one event to the process-global log."""
    return _EVENTS.record(type, **fields)


def set_flight_tag(tag: str) -> None:
    """Tag the process-global log's next flight dump."""
    _EVENTS.set_flight_tag(tag)


def dump_flight(reason: str, tag: Optional[str] = None) -> Optional[str]:
    """Dump the process-global ring (no-op without ``$REPRO_FLIGHT_DIR``)."""
    return _EVENTS.dump_flight(reason, tag)


def validate_event_stream(events: List[Dict[str, Any]]) -> None:
    """Raise ``ValueError`` unless ``events`` is a well-formed stream:
    known types, required fields present, ``seq`` strictly increasing."""
    problems: List[str] = []
    prev_seq = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i} is not an object")
            continue
        etype = ev.get("type")
        required = EVENT_FIELDS.get(etype)
        if required is None:
            problems.append(f"event {i} has unknown type {etype!r}")
            continue
        for key in ("seq", "t") + tuple(required):
            if key not in ev:
                problems.append(f"event {i} ({etype}) missing {key!r}")
        seq = ev.get("seq")
        if isinstance(seq, int):
            if seq <= prev_seq:
                problems.append(
                    f"event {i} seq {seq} not increasing "
                    f"(previous {prev_seq})")
            prev_seq = seq
    if problems:
        raise ValueError("invalid event stream: "
                         + "; ".join(problems[:10]))
