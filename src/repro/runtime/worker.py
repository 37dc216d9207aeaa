"""The body of one :class:`~repro.runtime.pool.WorkerPool` process.

Kept only for the perf ledger's cold set-up (``benchmarks/ledger``);
it goes with ROADMAP item 1(a).  A worker samples nothing: it installs
the runs it is sent and answers, until told to stop.  Messages are
tuples ``(kind, ...)`` over a duplex ``Pipe``:

==========================  =========================================
parent -> worker             worker -> parent
==========================  =========================================
("run", blob, handle,        ("ready",) | ("err", traceback)
 seed, backend)
("stop",)                    *process exits cleanly*
==========================  =========================================

A ``run`` unpickles the app, maps the shared graph (once per export)
and switches to the parent's kernel backend, compiling it before the
worker answers.
"""

from __future__ import annotations

import pickle
import traceback

from repro.native.backend import set_backend
from repro.runtime.shm import import_graph

__all__ = ["worker_main"]


def worker_main(conn) -> None:
    """Body of one pool worker process (spawn entry point)."""
    graphs = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # parent died: exit quietly, owner unlinks segments
        if msg[0] == "stop":
            conn.close()
            return
        try:
            _, blob, handle, _seed, backend_name = msg
            pickle.loads(blob)
            if handle.key not in graphs:
                graphs[handle.key] = import_graph(handle)
            set_backend(backend_name)
            conn.send(("ready",))
        except Exception:
            try:
                conn.send(("err", traceback.format_exc()))
            except OSError:
                return
