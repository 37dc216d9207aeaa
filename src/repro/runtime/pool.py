"""Persistent spawn-based worker pool with crash detection.

One :class:`WorkerPool` owns N spawned processes, each running
:func:`repro.runtime.worker.worker_main` over a duplex pipe.  Chunks
are dispatched round-robin with at most :data:`MAX_INFLIGHT` in flight
per worker (backpressure: a step with thousands of chunks never floods
the pipes), and results are collected with
``multiprocessing.connection.wait`` so a dead worker is noticed
immediately instead of hanging the run.

Failure model (see ``docs/RESILIENCE.md``):

* **Lost worker** — pipe EOF, a failed send, a protocol violation, or
  no result from any worker within the watchdog timeout:
  :meth:`WorkerPool.run_chunks` counts it in ``pool.worker_crashes``
  and raises :class:`WorkerCrash` at once, carrying every result
  already collected.  The execution context retires the pool, warns
  once and runs the missing chunks in-process — bitwise-identically,
  by chunk purity.  The next run gets a fresh pool from
  :func:`get_pool`.  The pool itself never revives a worker.
* **Application exception inside a chunk** (``("err", ...)`` reply):
  the chunk is simply absent from the result, so the context re-runs
  it in-process, where a deterministic failure reproduces with a clean
  traceback while a worker-only injected fault melts away.  The pool
  stays up.  :class:`ChunkError` is still raised for failures during
  run *setup* (broadcast).

The watchdog timeout resolves from ``$REPRO_POOL_TIMEOUT`` **at call
time**, so cached pools honour a changed setting.

Pools are cached in a module-global registry keyed by worker count
(spawn start-up costs ~100ms per worker; engines and repeated runs
share the pool), and every pool is shut down at interpreter exit.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import pickle
import threading
import time
from multiprocessing.connection import wait as conn_wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import get_metrics

__all__ = ["WorkerPool", "WorkerCrash", "ChunkError", "get_pool",
           "retire_pool", "shutdown_pools", "resolve_progress_timeout"]

#: Chunks in flight per worker.  2 keeps every worker busy (one
#: running, one queued) without buffering a whole step in the pipes; 4
#: lost on ``walk`` (docs/PERF.md).
MAX_INFLIGHT = 2

#: Default watchdog: if no worker produces a result for this long while
#: chunks are outstanding, a worker holding chunks is declared wedged
#: and the pool is given up.  Override with ``$REPRO_POOL_TIMEOUT``
#: (seconds) or the CLI's ``--pool-timeout``.
PROGRESS_TIMEOUT_S = 120.0

TIMEOUT_ENV = "REPRO_POOL_TIMEOUT"


def resolve_progress_timeout() -> float:
    """Watchdog seconds: ``$REPRO_POOL_TIMEOUT`` or
    :data:`PROGRESS_TIMEOUT_S` (> 0)."""
    raw = os.environ.get(TIMEOUT_ENV, "").strip()
    if not raw:
        return PROGRESS_TIMEOUT_S
    try:
        timeout = float(raw)
    except ValueError:
        raise ValueError(f"${TIMEOUT_ENV} must be a number of seconds "
                         f"> 0, got {raw!r}") from None
    if not timeout > 0:
        raise ValueError(f"${TIMEOUT_ENV} must be > 0, got {raw!r}")
    return timeout


class WorkerCrash(RuntimeError):
    """The pool lost a worker (or its setup broadcast failed, or it is
    shut down).  ``results`` holds the chunk results collected before
    the failure, keyed by chunk id; ``worker_index`` / ``chunk_ids`` /
    ``elapsed`` identify the lost worker, the chunks it took down, and
    how long the oldest of those chunks had been in flight.

    Construction is side-effect free; the ``pool.worker_crashes``
    metric is recorded where a worker death is *detected*, so building
    one of these in a test or re-raise path does not inflate it.
    """

    def __init__(self, message: str, results: Dict[int, tuple],
                 worker_index: Optional[int] = None,
                 chunk_ids: Sequence[int] = (),
                 elapsed: Optional[float] = None) -> None:
        chunk_ids = tuple(chunk_ids)
        detail = []
        if worker_index is not None:
            detail.append(f"worker {worker_index}")
        if chunk_ids:
            detail.append(f"chunk(s) {list(chunk_ids)} in flight")
        if elapsed is not None:
            detail.append(f"oldest in flight {elapsed:.2f}s")
        if detail:
            message = f"{message} [{', '.join(detail)}]"
        super().__init__(message)
        self.results = results
        self.worker_index = worker_index
        self.chunk_ids = chunk_ids
        self.elapsed = elapsed


class ChunkError(RuntimeError):
    """An application exception raised during worker run setup."""


class WorkerPool:
    """N persistent spawn workers consuming chunk messages."""

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
        # Serialises dispatch across threads (multi-device shards share
        # one pool); the pipe protocol is not concurrency-safe.
        self.lock = threading.Lock()
        self._closed = False
        #: Labels of the installed run (app/backend), applied to the
        #: labeled pool metrics so one snapshot separates tenants.
        self._run_labels: Dict[str, str] = {}
        for i in range(num_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=worker_main, args=(child_conn, i),
                               name=f"repro-worker-{i}", daemon=True)
            proc.start()
            child_conn.close()
            self.procs.append(proc)
            self.conns.append(parent_conn)

    # ------------------------------------------------------------------

    def healthy(self) -> bool:
        return (not self._closed
                and all(p.is_alive() for p in self.procs))

    def broadcast_run(self, app, graph_handle, seed: int,
                      use_reference: bool = False,
                      fault_spec: Optional[str] = None,
                      backend: Optional[str] = None) -> None:
        """Install one run's context (app, shared graph, seed, fault
        plan, kernel backend) on every worker.  Raises
        :class:`WorkerCrash` on any failure.

        ``use_reference`` is kept positional for the ledger's set-up
        call only: it must be False (a reference view of the app never
        reaches a worker) and is not sent."""
        if use_reference:
            raise ValueError("the reference kernels never run on pool "
                             "workers; pass a reference view of the app "
                             "to an in-process run instead")
        if backend is None:
            from repro.native.backend import active_backend_name
            backend = active_backend_name()
        blob = pickle.dumps(app, protocol=pickle.HIGHEST_PROTOCOL)
        msg = ("run", blob, graph_handle, int(seed), fault_spec, backend)
        timeout = resolve_progress_timeout()
        with self.lock:
            self._run_labels = {"app": app.name, "backend": backend}
            try:
                for conn in self.conns:
                    conn.send(msg)
                deadline = time.monotonic() + timeout
                for w, conn in enumerate(self.conns):
                    while True:
                        if not conn.poll(max(0.0,
                                             deadline - time.monotonic())):
                            get_metrics().counter(
                                "pool.worker_crashes").inc()
                            raise WorkerCrash(
                                f"worker {w} did not acknowledge run "
                                "setup", {})
                        reply = conn.recv()
                        if reply[0] == "ready":
                            break
                        if reply[0] == "err":
                            raise ChunkError(
                                f"worker {w} failed run setup:\n"
                                f"{reply[2]}")
            except (EOFError, OSError, BrokenPipeError) as exc:
                get_metrics().counter("pool.worker_crashes").inc()
                raise WorkerCrash(f"worker pipe failed during run "
                                  f"setup: {exc!r}", {}) from exc

    # ------------------------------------------------------------------

    def run_chunks(self, jobs: Sequence[Tuple[int, tuple]]
                   ) -> Dict[int, tuple]:
        """Dispatch ``(chunk_id, message)`` jobs; return
        ``{chunk_id: payload}`` where payload is the worker's reply
        after the chunk id — ``(info, timing)``; the chunk's rows are
        already in the step arena its message named.

        A chunk whose worker answered with an application error is
        simply **absent** from the result.  A lost worker raises
        :class:`WorkerCrash` at once; either way the execution context
        runs every missing chunk in-process.
        """
        with self.lock:
            return self._run_chunks_locked(jobs)

    def _run_chunks_locked(self, jobs) -> Dict[int, tuple]:
        if self._closed:
            raise WorkerCrash("pool is shut down", {})
        metrics = get_metrics()
        dispatched = metrics.counter("pool.chunks_dispatched")
        queue_depth = metrics.gauge("pool.queue_depth")
        chunk_errors = metrics.counter("pool.chunk_errors",
                                       labels=self._run_labels or None)
        timeout = resolve_progress_timeout()

        message_of = dict(jobs)
        results: Dict[int, tuple] = {}
        pending: List[int] = [cid for cid, _ in jobs][::-1]
        # Per worker: chunk id -> dispatch timestamp, so a crash can
        # name the chunks it took down and their time in flight.
        inflight: Dict[int, Dict[int, float]] = {
            w: {} for w in range(self.num_workers)}

        def lost(w: int, why: str, unsent: Sequence[int] = ()
                 ) -> WorkerCrash:
            """Count worker ``w`` as crashed; the exception to raise.
            ``unsent`` names a chunk the death was detected on before
            it was in flight."""
            metrics.counter("pool.worker_crashes").inc()
            held = inflight[w]
            oldest = (time.monotonic() - min(held.values())
                      if held else None)
            return WorkerCrash(why, results, worker_index=w,
                               chunk_ids=list(unsent) + sorted(held),
                               elapsed=oldest)

        def fill() -> None:
            for w in range(self.num_workers):
                while pending and len(inflight[w]) < MAX_INFLIGHT:
                    cid = pending.pop()
                    try:
                        self.conns[w].send(message_of[cid])
                    except (OSError, BrokenPipeError):
                        raise lost(w, "worker pipe failed on send",
                                   (cid,)) from None
                    inflight[w][cid] = time.monotonic()
                    dispatched.inc()
            queue_depth.set(len(pending))

        fill()
        while pending or any(inflight.values()):
            ready = conn_wait(self.conns, timeout=timeout)
            if not ready:
                # Watchdog: nothing answered while chunks were out.
                stuck = next(w for w in range(self.num_workers)
                             if inflight[w])
                raise lost(stuck, f"no progress for {timeout:g}s "
                                  "(worker wedged)")
            for conn in ready:
                w = self.conns.index(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    raise lost(w, "worker pipe closed (process "
                                  "died)") from None
                kind = reply[0]
                if kind == "ok":
                    if inflight[w].pop(reply[1], None) is not None:
                        results[reply[1]] = reply[2:]
                elif kind == "err":
                    # Worker-side application exception: leave the
                    # chunk to the caller's in-process re-run.
                    chunk_errors.inc()
                    inflight[w].pop(reply[1], None)
                else:
                    raise lost(w, f"protocol violation ({kind!r} "
                                  "reply)")
            fill()
        return results

    # ------------------------------------------------------------------

    def shutdown(self, timeout: float = 2.0) -> None:
        """Stop all workers; terminate any that don't exit in time."""
        if self._closed:
            return
        self._closed = True
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
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


# ----------------------------------------------------------------------
# Global registry: one pool per worker count, reused across engine runs.
# ----------------------------------------------------------------------

_POOLS: Dict[int, WorkerPool] = {}
_REGISTRY_LOCK = threading.Lock()


def get_pool(num_workers: int) -> WorkerPool:
    """The shared pool with ``num_workers`` workers, (re)spawning it if
    absent or unhealthy."""
    with _REGISTRY_LOCK:
        pool = _POOLS.get(num_workers)
        if pool is not None and pool.healthy():
            return pool
        if pool is not None:
            pool.shutdown()
        pool = WorkerPool(num_workers)
        _POOLS[num_workers] = pool
        return pool


def retire_pool(pool: WorkerPool) -> None:
    """Shut down ``pool`` and drop it from the registry (crash path)."""
    with _REGISTRY_LOCK:
        for n, p in list(_POOLS.items()):
            if p is pool:
                del _POOLS[n]
        pool.shutdown()


def shutdown_pools() -> None:
    """Shut down every registered pool, release the step arenas they
    were fed through and stop the chunk threads (atexit + tests)."""
    from repro.runtime.context import shutdown_chunk_threads
    from repro.runtime.shm import release_arenas
    with _REGISTRY_LOCK:
        for pool in _POOLS.values():
            pool.shutdown()
        _POOLS.clear()
    release_arenas()
    shutdown_chunk_threads()


atexit.register(shutdown_pools)
