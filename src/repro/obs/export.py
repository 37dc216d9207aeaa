"""Chrome trace exporter.

:func:`chrome_trace` turns the active tracer's spans into the Chrome
``trace_event`` JSON object format — loadable in ``chrome://tracing``
and https://ui.perfetto.dev — with one ``tid`` row per lane (threads
and ``worker-N`` lanes) and ``thread_name`` metadata so rows are
labeled.  Metrics go out as OpenMetrics text
(:mod:`repro.obs.openmetrics`).

``validate_chrome_trace`` is the shape check the CI trace-smoke job and
the unit tests share.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from repro.obs import tracer as trace

__all__ = ["chrome_trace", "write_chrome_trace", "validate_chrome_trace"]


def _lane_rows(events, thread_names) -> Dict[Any, int]:
    """Stable lane -> tid assignment: main thread first, then named
    threads, then anonymous threads, then string lanes (workers)."""
    lanes: List[Any] = []
    seen = set()
    for name, _t0, _t1, lane, _args in events:
        if lane not in seen:
            seen.add(lane)
            lanes.append(lane)
    ints = sorted((l for l in lanes if isinstance(l, int)),
                  key=lambda l: (thread_names.get(l, "") != "main",
                                 thread_names.get(l, f"thread-{l}")))
    strs = sorted(l for l in lanes if isinstance(l, str))
    return {lane: i for i, lane in enumerate(ints + strs)}


def chrome_trace(tracer=None) -> Dict[str, Any]:
    """The Chrome trace_event JSON object for ``tracer`` (default: the
    active tracer)."""
    tracer = tracer if tracer is not None else trace.get_tracer()
    events = tracer.snapshot()
    thread_names = tracer.thread_names()
    rows = _lane_rows(events, thread_names)
    pid = os.getpid()
    out: List[Dict[str, Any]] = []
    for lane, tid in rows.items():
        if isinstance(lane, str):
            label = lane
        else:
            label = thread_names.get(lane, f"thread-{tid}")
        out.append({"ph": "M", "name": "thread_name", "pid": pid,
                    "tid": tid, "args": {"name": label}})
    origin = tracer.origin
    for name, t0, t1, lane, args in events:
        ev: Dict[str, Any] = {
            "name": name,
            "ph": "X",
            "pid": pid,
            "tid": rows[lane],
            "ts": (t0 - origin) * 1e6,
            "dur": max(0.0, (t1 - t0) * 1e6),
        }
        if args:
            ev["args"] = {k: _jsonable(v) for k, v in args.items()}
        out.append(ev)
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro.obs", "pid": pid},
    }


def _jsonable(v):
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    try:
        return v.item()  # numpy scalars
    except AttributeError:
        return str(v)


def write_chrome_trace(path: str, tracer=None) -> str:
    """Write the Chrome trace JSON to ``path``; returns ``path``."""
    obj = chrome_trace(tracer)
    with open(path, "w") as f:
        json.dump(obj, f)
        f.write("\n")
    return path


# ----------------------------------------------------------------------


def validate_chrome_trace(obj: Any) -> None:
    """Raise ``ValueError`` unless ``obj`` is a well-formed Chrome
    trace_event JSON object (the shape Perfetto loads)."""
    problems: List[str] = []
    if not isinstance(obj, dict):
        raise ValueError("trace must be a JSON object")
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace is missing the traceEvents array")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i} is not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "M", "B", "E"):
            problems.append(f"event {i} has unsupported ph {ph!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i} ({ph}) missing {key!r}")
        if ph in ("X", "i", "B", "E") and not isinstance(
                ev.get("ts"), (int, float)):
            problems.append(f"event {i} ({ph}) has non-numeric ts")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i} has bad dur {dur!r}")
    if problems:
        raise ValueError("invalid Chrome trace: "
                         + "; ".join(problems[:10]))
