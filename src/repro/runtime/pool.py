"""Persistent spawn-based worker pool with supervision + crash safety.

One :class:`WorkerPool` owns N spawned processes, each running
:func:`repro.runtime.worker.worker_main` over a duplex pipe.  Chunks
are dispatched round-robin with a bounded number in flight per worker
(backpressure: a step with thousands of chunks never floods the pipes),
and results are collected with ``multiprocessing.connection.wait`` so a
dead worker is noticed immediately instead of hanging the run.

Failure model (see ``docs/RESILIENCE.md``):

* **Worker crash** (process dies, pipe EOF, or no progress within the
  watchdog timeout): the pool's supervisor **respawns** the dead
  worker with bounded exponential backoff, re-broadcasts the current
  run context to it, and requeues only the chunks that worker had in
  flight.  Samples stay bitwise-identical by chunk purity — a re-run
  chunk recreates its generator from scratch.
* **Poison chunk**: a chunk that kills :data:`CHUNK_KILL_BUDGET`
  workers is quarantined — returned *unsolved* so the execution
  context runs it in-process — and the pool stays alive for every
  other chunk.
* **Respawn budget exhausted**: only then does :meth:`run_chunks`
  raise :class:`WorkerCrash` (carrying every result already
  collected); the execution context catches it, re-runs the missing
  chunks in-process, and retires the pool.
* **Application exception inside a chunk**: the chunk is quarantined
  and re-run in-process, where a deterministic failure reproduces with
  a clean traceback (chunk purity again) while a worker-only injected
  fault melts away.  :class:`ChunkError` is still raised for failures
  during run *setup* (broadcast).

The watchdog timeout, in-flight bound, and respawn budget resolve from
the environment **at call time** (``REPRO_POOL_TIMEOUT``,
``REPRO_POOL_INFLIGHT``, ``REPRO_POOL_RESPAWNS``), so cached pools
honour changed settings.

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
           "retire_pool", "shutdown_pools", "resolve_max_inflight",
           "resolve_progress_timeout", "resolve_respawn_budget"]

#: Default chunks in flight per worker.  2 keeps every worker busy (one
#: running, one queued) without buffering a whole step in the pipes.
#: Override per process with ``$REPRO_POOL_INFLIGHT``.
MAX_INFLIGHT = 2

#: Default watchdog: if no worker produces a result for this long while
#: chunks are outstanding, the stuck workers are declared wedged and
#: respawned.  Override with ``$REPRO_POOL_TIMEOUT`` (seconds) or the
#: CLI's ``--pool-timeout``.
PROGRESS_TIMEOUT_S = 120.0

#: Default worker respawns allowed per run (reset at each
#: ``broadcast_run``) before the pool gives up and degrades the run to
#: in-process execution.  Override with ``$REPRO_POOL_RESPAWNS``.
RESPAWN_BUDGET = 3

#: Exponential backoff between respawns: ``base * 2**respawns_used``,
#: capped.  Keeps a crash-looping machine from fork-bombing itself.
RESPAWN_BACKOFF_S = 0.05
RESPAWN_BACKOFF_CAP_S = 2.0

#: Workers a single chunk may kill before it is quarantined and run
#: in-process (the poison-chunk policy).
CHUNK_KILL_BUDGET = 2

INFLIGHT_ENV = "REPRO_POOL_INFLIGHT"
TIMEOUT_ENV = "REPRO_POOL_TIMEOUT"
RESPAWN_ENV = "REPRO_POOL_RESPAWNS"


def _env_number(env: str, default, cast, minimum, what: str):
    raw = os.environ.get(env, "").strip()
    if not raw:
        return default
    try:
        value = cast(raw)
    except ValueError:
        raise ValueError(f"${env} must be {what}, got {raw!r}") from None
    if value < minimum:
        raise ValueError(f"${env} must be >= {minimum}, got {raw!r}")
    return value


def resolve_max_inflight() -> int:
    """Chunks in flight per worker: ``$REPRO_POOL_INFLIGHT`` or the
    :data:`MAX_INFLIGHT` default (>= 1)."""
    return _env_number(INFLIGHT_ENV, MAX_INFLIGHT, int, 1, "an int >= 1")


def resolve_progress_timeout() -> float:
    """Watchdog seconds: ``$REPRO_POOL_TIMEOUT`` or
    :data:`PROGRESS_TIMEOUT_S` (> 0)."""
    timeout = _env_number(TIMEOUT_ENV, PROGRESS_TIMEOUT_S, float, 0.0,
                          "a number of seconds > 0")
    if timeout <= 0:
        raise ValueError(f"${TIMEOUT_ENV} must be > 0, got {timeout!r}")
    return timeout


def resolve_respawn_budget() -> int:
    """Respawns per run: ``$REPRO_POOL_RESPAWNS`` or
    :data:`RESPAWN_BUDGET` (>= 0; 0 restores abandon-on-first-crash)."""
    return _env_number(RESPAWN_ENV, RESPAWN_BUDGET, int, 0, "an int >= 0")


class WorkerCrash(RuntimeError):
    """The pool could not finish a step on workers (respawn budget
    exhausted, setup broadcast failed, or the pool is shut down).
    ``results`` holds the chunk results collected before the failure,
    keyed by chunk id; ``worker_index`` / ``chunk_ids`` / ``elapsed``
    identify the last failing worker, the chunks it took down, and how
    long the oldest of those chunks had been in flight.

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


class _RespawnFailed(Exception):
    """Internal: one respawn attempt did not come up ready."""


class WorkerPool:
    """N persistent spawn workers consuming chunk messages, revived on
    death by the supervisor in :meth:`run_chunks`."""

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        # A previous process killed hard (SIGKILL/OOM) may have left
        # orphaned graph segments behind; reap them before we add more.
        from repro.runtime.shm import sweep_stale_segments
        sweep_stale_segments()
        self._ctx = mp.get_context("spawn")
        self.num_workers = num_workers
        self.procs: List[mp.Process] = [None] * num_workers  # type: ignore
        self.conns: List = [None] * num_workers
        # Serialises dispatch across threads (multi-device shards share
        # one pool); the pipe protocol is not concurrency-safe.
        self.lock = threading.Lock()
        self._closed = False
        #: Last ("run", ...) broadcast, replayed to respawned workers.
        self._run_msg: Optional[tuple] = None
        #: Respawns consumed since the last broadcast.
        self._respawns_used = 0
        #: Labels of the installed run (app/backend), applied to the
        #: labeled pool metrics so one snapshot separates tenants.
        self._run_labels: Dict[str, str] = {}
        for i in range(num_workers):
            self._spawn_slot(i)

    def _spawn_slot(self, i: int) -> None:
        """(Re)create the process + pipe in slot ``i``."""
        from repro.runtime.worker import worker_main
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(target=worker_main,
                                 args=(child_conn, i),
                                 name=f"repro-worker-{i}", daemon=True)
        proc.start()
        child_conn.close()
        self.procs[i] = proc
        self.conns[i] = parent_conn

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
            self._run_msg = msg
            self._respawns_used = 0
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

    def _respawn(self, w: int, results: Dict[int, tuple],
                 lost_chunks: Sequence[int],
                 oldest: Optional[float]) -> None:
        """Revive worker ``w`` with bounded exponential backoff,
        replaying the run broadcast.  Raises :class:`WorkerCrash` once
        the per-run respawn budget is spent."""
        metrics = get_metrics()
        budget = resolve_respawn_budget()
        timeout = resolve_progress_timeout()
        proc = self.procs[w]
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - stuck in kernel
            proc.kill()
            proc.join(timeout=1.0)
        try:
            self.conns[w].close()
        except OSError:  # pragma: no cover - already closed
            pass
        while True:
            if self._respawns_used >= budget:
                raise WorkerCrash(
                    f"respawn budget ({budget}) exhausted reviving",
                    results, worker_index=w, chunk_ids=lost_chunks,
                    elapsed=oldest)
            delay = min(RESPAWN_BACKOFF_S * (2 ** self._respawns_used),
                        RESPAWN_BACKOFF_CAP_S)
            self._respawns_used += 1
            time.sleep(delay)
            self._spawn_slot(w)
            try:
                if self._run_msg is None:
                    # No run installed yet (direct pool use in tests):
                    # a fresh worker is all we need.
                    metrics.counter("pool.worker_respawns").inc()
                    return
                self.conns[w].send(self._run_msg)
                deadline = time.monotonic() + timeout
                while True:
                    if not self.conns[w].poll(
                            max(0.0, deadline - time.monotonic())):
                        raise _RespawnFailed
                    reply = self.conns[w].recv()
                    if reply[0] == "ready":
                        metrics.counter("pool.worker_respawns").inc()
                        return
                    if reply[0] == "err":
                        raise _RespawnFailed
            except (_RespawnFailed, EOFError, OSError,
                    BrokenPipeError):
                metrics.counter("pool.worker_crashes").inc()
                continue

    # ------------------------------------------------------------------

    def run_chunks(self, jobs: Sequence[Tuple[int, tuple]]
                   ) -> Dict[int, tuple]:
        """Dispatch ``(chunk_id, message)`` jobs; return
        ``{chunk_id: payload}`` where payload is the worker's reply
        after the chunk id — ``(info, timing)``; the chunk's rows are
        already in the step arena its message named.

        ``$REPRO_POOL_INFLIGHT`` (default :data:`MAX_INFLIGHT`) caps the
        chunks outstanding per worker.

        Chunks quarantined by the supervisor (poison chunks, worker-side
        application errors) are simply **absent** from the result — the
        execution context re-runs every missing chunk in-process.
        """
        with self.lock:
            return self._run_chunks_locked(jobs)

    def _run_chunks_locked(self, jobs) -> Dict[int, tuple]:
        if self._closed:
            raise WorkerCrash("pool is shut down", {})
        metrics = get_metrics()
        dispatched = metrics.counter("pool.chunks_dispatched")
        queue_depth = metrics.gauge("pool.queue_depth")
        crashes = metrics.counter("pool.worker_crashes")
        retries = metrics.histogram("pool.chunk_retries")
        quarantines = metrics.counter("pool.chunks_quarantined")
        chunk_errors = metrics.counter("pool.chunk_errors",
                                       labels=self._run_labels or None)
        max_inflight = resolve_max_inflight()
        timeout = resolve_progress_timeout()

        message_of = dict(jobs)
        results: Dict[int, tuple] = {}
        pending: List[int] = [cid for cid, _ in jobs][::-1]
        #: chunk id -> workers it has killed so far this step.
        kills: Dict[int, int] = {}
        #: Quarantined chunks: never redispatched, left to the caller.
        dropped = set()
        # Per worker: chunk id -> dispatch timestamp, so a crash can
        # name the chunks it took down and their time in flight.
        inflight: Dict[int, Dict[int, float]] = {
            w: {} for w in range(self.num_workers)}

        def in_flight_of(w: int) -> Tuple[List[int], Optional[float]]:
            ids = sorted(inflight[w])
            if not ids:
                return ids, None
            oldest = time.monotonic() - min(inflight[w].values())
            return ids, oldest

        def handle_dead_worker(w: int, doomed: Sequence[int] = ()
                               ) -> None:
            """Requeue/quarantine worker ``w``'s chunks and revive it
            (raises WorkerCrash when the respawn budget is gone).
            ``doomed`` names chunks the death was detected on before
            they were in flight — diagnostics only, no kill mark."""
            crashes.inc()
            lost, oldest = in_flight_of(w)
            inflight[w].clear()
            for cid in lost:
                kills[cid] = kills.get(cid, 0) + 1
                retries.observe(kills[cid])
                if kills[cid] >= CHUNK_KILL_BUDGET:
                    dropped.add(cid)
                    quarantines.inc()
                else:
                    pending.append(cid)
            self._respawn(w, results, list(doomed) + lost, oldest)

        def fill() -> None:
            redo = True
            while redo:
                redo = False
                for w in range(self.num_workers):
                    while pending and len(inflight[w]) < max_inflight:
                        cid = pending.pop()
                        try:
                            self.conns[w].send(message_of[cid])
                        except (OSError, BrokenPipeError):
                            # Not in flight yet: the chunk is innocent,
                            # requeue it without a kill mark.
                            pending.append(cid)
                            handle_dead_worker(w, doomed=(cid,))
                            redo = True  # the slot holds a fresh worker
                            break
                        inflight[w][cid] = time.monotonic()
                        dispatched.inc()
            queue_depth.set(len(pending))

        fill()
        while pending or any(inflight.values()):
            ready = conn_wait(self.conns, timeout=timeout)
            if not ready:
                # Watchdog: every worker holding chunks is wedged.
                stuck = [w for w in range(self.num_workers)
                         if inflight[w]]
                if not stuck:  # pragma: no cover - dispatch starvation
                    fill()
                    continue
                for w in stuck:
                    handle_dead_worker(w)
                fill()
                continue
            for conn in ready:
                try:
                    w = self.conns.index(conn)
                except ValueError:  # pragma: no cover - replaced conn
                    continue
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    handle_dead_worker(w)
                    continue
                kind = reply[0]
                if kind == "ok":
                    cid = reply[1]
                    if inflight[w].pop(cid, None) is not None:
                        results[cid] = reply[2:]
                elif kind == "err":
                    # Worker-side application exception: quarantine the
                    # chunk so the caller re-runs it in-process, where
                    # a deterministic failure reproduces with a clean
                    # traceback and an injected fault does not.
                    cid = reply[1]
                    chunk_errors.inc()
                    if inflight[w].pop(cid, None) is not None:
                        dropped.add(cid)
                else:
                    # Protocol violation: treat like a dead worker.
                    handle_dead_worker(w)
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
