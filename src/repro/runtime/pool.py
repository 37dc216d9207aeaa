"""Spawned worker processes that take one run's set-up broadcast.

Kept only for the perf ledger's cold set-up (``benchmarks/ledger``),
which times spawning workers and installing a run on them; it goes with
ROADMAP item 1(a).  No sampling runs here: ``workers >= 1`` means chunk
threads (:mod:`repro.runtime.context`).

One :class:`WorkerPool` owns N spawned processes, each running
:func:`repro.runtime.worker.worker_main` over a duplex pipe.
:meth:`WorkerPool.broadcast_run` installs a run's app, shared graph
and kernel backend on every worker and waits for each to answer
``ready``.  :func:`get_pool` keeps the pool it last spawned, and every
pool is shut down at interpreter exit.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import pickle
import time
from typing import List, Optional

__all__ = ["WorkerPool", "get_pool", "shutdown_pools"]

#: How long every worker together may take to answer a run broadcast.
SETUP_TIMEOUT_S = 120.0


class WorkerPool:
    """N persistent spawn workers."""

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        # A previous process killed hard (SIGKILL/OOM) may have left
        # orphaned graph segments behind; reap them before we add more.
        from repro.runtime.shm import sweep_stale_segments
        from repro.runtime.worker import worker_main
        sweep_stale_segments()
        ctx = mp.get_context("spawn")
        self.num_workers = num_workers
        self.procs: List[mp.Process] = []
        self.conns: List = []
        self._closed = False
        for i in range(num_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=worker_main, args=(child_conn,),
                               name=f"repro-worker-{i}", daemon=True)
            proc.start()
            child_conn.close()
            self.procs.append(proc)
            self.conns.append(parent_conn)

    def healthy(self) -> bool:
        return (not self._closed
                and all(p.is_alive() for p in self.procs))

    def broadcast_run(self, app, graph_handle, seed: int,
                      use_reference: bool = False) -> None:
        """Install one run (app, shared graph, seed, the active kernel
        backend) on every worker.  Raises ``RuntimeError`` when a
        worker fails the set-up or does not answer in time.

        ``use_reference`` stays positional for the ledger's set-up call
        only: it must be False."""
        if use_reference:
            raise ValueError("the reference kernels never run on pool "
                             "workers")
        from repro.native.backend import active_backend_name
        blob = pickle.dumps(app, protocol=pickle.HIGHEST_PROTOCOL)
        msg = ("run", blob, graph_handle, int(seed), active_backend_name())
        try:
            for conn in self.conns:
                conn.send(msg)
            deadline = time.monotonic() + SETUP_TIMEOUT_S
            for w, conn in enumerate(self.conns):
                if not conn.poll(max(0.0, deadline - time.monotonic())):
                    raise RuntimeError(f"worker {w} did not acknowledge "
                                       "run setup")
                reply = conn.recv()
                if reply[0] != "ready":
                    raise RuntimeError(f"worker {w} failed run setup:\n"
                                       f"{reply[1]}")
        except (EOFError, OSError) as exc:
            raise RuntimeError(f"worker pipe failed during run setup: "
                               f"{exc!r}") from exc

    def shutdown(self, timeout: float = 2.0) -> None:
        """Stop all workers; terminate any that don't exit in time."""
        if self._closed:
            return
        self._closed = True
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except OSError:
                pass
        for proc in self.procs:
            proc.join(timeout=timeout)
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self.conns:
            try:
                conn.close()
            except OSError:
                pass


_POOL: Optional[WorkerPool] = None


def get_pool(num_workers: int) -> WorkerPool:
    """The pool last spawned here, if it is healthy and has
    ``num_workers`` workers; otherwise that one is shut down and a
    fresh pool takes its place."""
    global _POOL
    if (_POOL is None or not _POOL.healthy()
            or _POOL.num_workers != num_workers):
        shutdown_pools()
        _POOL = WorkerPool(num_workers)
    return _POOL


def shutdown_pools() -> None:
    """Shut down the pool, if any (atexit + the ledger's teardown)."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


atexit.register(shutdown_pools)
