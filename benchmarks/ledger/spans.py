"""The benchmark's own in-memory span recorder.

Spans are recorded from the benchmark's files, around the calls into
each layer of the program (spans inside the program are a later
issue).  A span is ``[name, start, end, parent id, run id]``; its id is
its index.  Nothing is written until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional

NAME, START, END, PARENT, RUN = range(5)


class _Open:
    """One open span; a plain class is several times cheaper per span
    than a generator-based context manager."""

    __slots__ = ("rec", "sid")

    def __init__(self, rec: "Recorder", sid: int) -> None:
        self.rec, self.sid = rec, sid

    def __enter__(self) -> int:
        self.rec._stack().append(self.sid)
        self.rec.spans[self.sid][START] = time.perf_counter()
        return self.sid

    def __exit__(self, *exc) -> None:
        self.rec.spans[self.sid][END] = time.perf_counter()
        self.rec._stack().pop()


class Recorder:
    """Span list with a per-thread stack of open spans.  ``list.append``
    is atomic; ids are taken under a lock so threads never share one."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, run: object = None) -> int:
        """Record an interval that was timed elsewhere (or is synthetic,
        like the queue wait a response reports)."""
        with self._lock:
            self.spans.append([name, start, end, parent, run])
            return len(self.spans) - 1

    def span(self, name: str, run: object = None) -> _Open:
        """``with rec.span(name):`` — a child of the span open on this
        thread, inheriting its run id unless one is given."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if run is None and parent is not None:
            run = self.spans[parent][RUN]
        return _Open(self, self.add(name, 0.0, 0.0, parent, run))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans}, fh)


def self_times(spans: List[list]) -> List[float]:
    """Per span: its duration minus the part its direct children cover
    (children of one parent on one thread never overlap, so their
    durations simply add)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def totals(spans: List[list], run: object = None) -> Dict[str, Dict[str, float]]:
    """``name -> {"total", "self", "count"}`` over the spans of ``run``
    (all runs when None)."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s, self_s in zip(spans, own):
        if run is not None and s[RUN] != run:
            continue
        row = out.setdefault(s[NAME], {"total": 0.0, "self": 0.0, "count": 0})
        row["total"] += s[END] - s[START]
        row["self"] += self_s
        row["count"] += 1
    return out
