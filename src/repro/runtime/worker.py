"""Worker-side execution: the pool worker loop.

A chunk of a step's sampling is one call of the app's own hook —
``sample_neighbors`` on a run of pairs, ``sample_from_neighborhood`` on
a block of sample rows — with the chunk's plan generator, whether the
parent runs it or a pool worker does (:func:`run_chunk`), so a chunk's
result is a pure function of ``(app, graph, chunk data, chunk
generator)`` no matter where it runs.
That purity is what makes the runtime's two core guarantees hold:
samples are bitwise-identical for any worker count, and a chunk lost to
a worker crash can be re-run in-process with an identical outcome.

``worker_main`` is the persistent child-process loop: it attaches the
shared-memory graph once per run, unpickles the application once per
run, then answers chunk messages until told to stop.  Messages are
tuples ``(kind, ...)`` over a duplex ``Pipe``; no array travels in
either direction:

==========================  =========================================
parent -> worker             worker -> parent
==========================  =========================================
("run", blob, handle,        ("ready",) | ("err", None, traceback)
 seed, faults, backend)
("ichunk" | "cchunk", id,    ("ok", id, info, timing) |
 step, key, arena, layout,   ("err", id, traceback)
 lo, hi)
("ping",)                    ("pong",)
("crash",)                   *process exits hard (tests only)*
("stop",)                    *process exits cleanly*
==========================  =========================================

A chunk message names the **step arena** the parent staged the step in
(:mod:`repro.runtime.shm`: segment name + layout) and the chunk's
bounds.  :func:`run_chunk` maps the arena (attachments are cached by
segment name), runs the hook on its slice of the staged inputs and
writes the result into the rows the chunk owns:

* ``ichunk`` — fields ``vals``, ``rows`` (pair -> row of ``out``),
  ``prev`` (only when the app needs previous transits), ``roots`` and
  ``out`` (``(S, T, m)``): pairs ``lo:hi``; a pair's sample is
  ``rows // T``; ``out`` viewed as ``(S * T, m)`` is the hook's
  destination (``out_rows``, with ``rows[lo:hi]``), which the app's
  draw writes itself, or which gets ``out[rows[lo:hi]] = sampled`` when
  the hook returns its array.
* ``cchunk`` — fields ``transits``, ``offsets`` and ``out``
  (``(S, m)``): sample rows ``lo:hi``, offsets rebased here;
  ``out[lo:hi] = vertices``.

Chunks own disjoint rows and a chunk's values are a pure function of
its inputs, so a chunk re-run by the parent after a crash or an
application error rewrites the same rows with the same values.

``faults`` is the raw fault-plan spec (or ``None``): each worker
parses its own :class:`~repro.runtime.faults.FaultPlan`, so firing
budgets are per worker process and deterministic fault injection
(``docs/RESILIENCE.md``) reaches the failure sites the parent must
detect — a death before a chunk runs, a wedge past the watchdog, or an
in-chunk exception.

``timing`` is ``(worker_index, t_start, t_end)`` from the worker's
``time.monotonic()`` clock — measured unconditionally (two clock reads
per chunk) so the parent can nest per-worker chunk lanes under the run
trace whenever tracing is enabled, and feed the ``pool.chunk_seconds``
latency histogram either way.

Application hooks dispatched to workers may read
``batch.roots[sample_ids]`` and ``batch.num_samples`` (served by
:class:`StubBatch` below) but nothing else of the batch; the dispatch
gate in :mod:`repro.runtime.context` keeps batch-dependent hooks
(declared via ``SamplingApp.collective_needs_batch``, or any
un-overridden reference path) in the parent process.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from typing import Dict, Optional

import numpy as np

from repro.api.app import SamplingApp, takes_destination
from repro.api.types import StepInfo
from repro.native.backend import set_backend
from repro.runtime.faults import FaultInjected, FaultPlan
from repro.runtime.rngplan import generator_for
from repro.runtime.shm import (
    arena_views,
    attach,
    import_graph,
    segment_exists,
)

__all__ = ["run_chunk", "StubBatch", "worker_main"]


class StubBatch:
    """The slice of batch state worker-dispatched hooks may read.

    Walk-with-restart reads ``batch.roots[sample_ids, 0]`` (global
    sample ids into the staged roots array); collective importance
    samplers read ``batch.num_samples`` (the chunk's rows).
    """

    def __init__(self, roots: Optional[np.ndarray],
                 num_samples: int) -> None:
        self.roots = roots
        self.num_samples = int(num_samples)


def _mapped_arena(arenas: Dict[str, object], name: str):
    """This worker's attachment of arena ``name``.

    A name not seen before means the parent opened a new arena, which
    is when it releases one a step outgrew: mappings whose segment is
    gone are closed first, so the outgrown pages are freed."""
    shm = arenas.get(name)
    if shm is None:
        for stale in [n for n in arenas if not segment_exists(n)]:
            arenas.pop(stale).close()
        shm = arenas[name] = attach(name)
    return shm


def run_chunk(msg: tuple, app: SamplingApp, graph, seed: int,
              arenas: Dict[str, object]) -> StepInfo:
    """Execute one ``ichunk`` / ``cchunk`` message against its arena
    and write the chunk's rows; returns the chunk's cost hints.

    Every view of the arena dies with this frame, so a mapping in
    ``arenas`` can be closed whenever its segment is found released."""
    kind, _, step, key, arena, layout, lo, hi = msg
    views = arena_views(_mapped_arena(arenas, arena).buf, layout)
    out = views.pop("out")
    for staged in views.values():
        staged.flags.writeable = False
    rng = generator_for(seed, key)
    if kind == "ichunk":
        num_samples, num_cols, m = out.shape
        rows = views["rows"][lo:hi]
        out_rows = out.reshape(num_samples * num_cols, m)
        dest = ({"out_rows": out_rows, "rows": rows}
                if takes_destination(type(app)) else {})
        prev = views.get("prev")
        sampled, info = app.sample_neighbors(
            graph, views["vals"][lo:hi], step, rng,
            prev_transits=None if prev is None else prev[lo:hi],
            batch=StubBatch(views["roots"], num_samples),
            sample_ids=rows if num_cols == 1 else rows // num_cols, **dest)
        if sampled is not None:
            out_rows[rows] = sampled
    else:
        offsets = views["offsets"]
        vertices, info = app.sample_from_neighborhood(
            graph, StubBatch(None, hi - lo), None,
            offsets[lo:hi + 1] - offsets[lo], views["transits"][lo:hi],
            step, rng)
        out[lo:hi] = vertices
    return info


#: How long a wedged worker sleeps — effectively forever; the parent's
#: watchdog fires long before and the retired pool terminates us.
_WEDGE_SLEEP_S = 3600.0


def _injected_faults(plan, step: int, chunk_id: int) -> None:
    """Fire any worker-side faults triggered by ``(step, chunk)``."""
    if plan is None:
        return
    if plan.should("kill-before-chunk", step, chunk_id):
        os._exit(13)
    if plan.should("wedge-chunk", step, chunk_id):
        time.sleep(_WEDGE_SLEEP_S)
    if plan.should("chunk-error", step, chunk_id):
        raise FaultInjected(
            f"injected chunk error (step {step}, chunk {chunk_id})")


def worker_main(conn, worker_index: int) -> None:
    """Body of one pool worker process (spawn entry point)."""
    graphs = {}
    arenas: Dict[str, object] = {}
    graph = None
    app: Optional[SamplingApp] = None
    seed = 0
    plan = None
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # parent died: exit quietly, owner unlinks segments
        kind = msg[0]
        try:
            if kind == "stop":
                conn.close()
                return
            elif kind == "ping":
                conn.send(("pong",))
            elif kind == "crash":
                # Test hook: die without cleanup, as a real segfault
                # or OOM kill would.
                os._exit(17)
            elif kind == "run":
                _, blob, handle, seed, fault_spec, backend_name = msg
                plan = FaultPlan.parse(fault_spec)
                app = pickle.loads(blob)
                if handle.key not in graphs:
                    graphs[handle.key] = import_graph(handle)
                graph = graphs[handle.key]
                # Inherit the parent's kernel backend, compiling once
                # per worker before the first chunk so per-chunk
                # timings are honest.
                set_backend(backend_name)
                conn.send(("ready",))
            elif kind in ("ichunk", "cchunk"):
                chunk_id, step = msg[1], msg[2]
                _injected_faults(plan, step, chunk_id)
                t0 = time.monotonic()
                info = run_chunk(msg, app, graph, seed, arenas)
                conn.send(("ok", chunk_id, info,
                           (worker_index, t0, time.monotonic())))
            else:
                conn.send(("err", None,
                           f"unknown message kind {kind!r}"))
        except Exception:
            chunk_id = msg[1] if len(msg) > 1 and kind in (
                "ichunk", "cchunk") else None
            try:
                conn.send(("err", chunk_id, traceback.format_exc()))
            except (BrokenPipeError, OSError):
                return
