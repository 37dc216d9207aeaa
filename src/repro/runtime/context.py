"""The per-run execution context: chunked stepping, local or pooled.

:class:`ExecutionContext` owns the run's
:class:`~repro.runtime.rngplan.RNGPlan` and runs each step's sampling
as fixed-size chunks, each calling the app's own hook with its own
plan-derived generator.  Chunk layout and seeds depend only on ``(seed,
step, chunk index)``, never on the worker count, so the assembled step
— and the whole ``SampleBatch`` — is bitwise-identical for any
``workers``; per-chunk :class:`~repro.api.types.StepInfo` cost hints
are combined by a chunk-size-weighted mean in chunk order, so the
charge inputs are too.  The app's type alone picks the kernels
(vectorised hook or the base-class reference loop over ``next``).

A step goes to the run's **worker set** only when more than one chunk
is left and its hook is a pure function of ``(graph, chunk data,
rng)`` plus at most ``batch.roots`` / ``batch.num_samples``: an
individual step whose app overrides ``sample_neighbors``, or a
collective step whose app overrides ``sample_from_neighborhood``,
declares ``collective_needs_batch = False`` and needs no materialised
combined-neighborhood values — the latter on the process pool only.
The worker set follows the backend the run began under:

* **Chunk threads** (compiled backend; its ``ctypes`` calls release
  the GIL): this thread and ``workers - 1`` helpers from one
  process-wide executor each take the next missing chunk and write its
  rows straight into the heap step array.  The first exception (or
  ``CancelledRun``) is re-raised once every started chunk returned.
  Collective steps stay on the calling thread: threaded, a few ~2 ms
  chunks ran 0.8–1.3x the serial step, by whether the host's second
  core was free.
* **Process pool** (numpy backend): a dispatched step is staged once in
  a shared-memory step arena (:func:`repro.runtime.shm.open_arena`) —
  pair arrays or transit rows and offsets, the roots, and the step
  array — which workers write in place, answering with cost hints and
  timings; chunks handed back unsolved run here.  A lost worker
  (:class:`~repro.runtime.pool.WorkerCrash`) retires the pool with one
  warning and the run finishes in-process, identically by chunk purity
  (:meth:`ExecutionContext._abandon_pool`).

Everything else runs in-process with the *same* chunk generators.  A
run keeps no state between runs: an interrupted run is recovered by
running it again, which gives the same batch (``docs/RESILIENCE.md``).

The first :meth:`ExecutionContext.begin_run` sets the process's glibc
allocator to keep freed memory (:func:`retain_freed_memory`), so a step
array reuses pages an earlier run touched instead of faulting in fresh
zeroed ones.  The setting is process-wide and is never undone: a
process that embeds ``repro`` keeps its resident set at its peak.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import threading
import time
import warnings
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.app import SamplingApp, takes_destination
from repro.api.types import NULL_VERTEX, StepInfo
from repro.native.backend import active_backend
from repro.obs import get_metrics, trace
from repro.runtime.cancel import CancelledRun, CancelScope
from repro.runtime.faults import FaultInjected, FaultPlan
from repro.runtime.pool import WorkerCrash, get_pool, retire_pool
from repro.runtime.rngplan import AUX_POST, AUX_TOPUP, RNGPlan

__all__ = ["ExecutionContext", "resolve_workers", "combine_infos",
           "retain_freed_memory", "shutdown_chunk_threads"]

#: Environment variable consulted when an engine is constructed without
#: an explicit ``workers`` argument (the CI parallel-runtime job sets
#: ``REPRO_WORKERS=2``).
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int]) -> int:
    """Explicit argument wins; else ``$REPRO_WORKERS``; else 0."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 0
        if not (env.isdigit() and env.isascii()):
            raise ValueError(f"${WORKERS_ENV} must be an integer >= 0, "
                             f"got {env!r}")
        return int(env)
    workers = int(workers)
    if workers < 0:
        raise ValueError("workers must be >= 0")
    return workers


@functools.lru_cache(maxsize=None)
def retain_freed_memory() -> bool:
    """Serve every allocation from the heap (``M_MMAP_MAX = 0``) and
    keep up to 1 GiB of its freed top (``M_TRIM_THRESHOLD``): once per
    process, through glibc's ``mallopt``.  False, changing nothing,
    where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_max = -1, -4
    return (mallopt(m_mmap_max, 0) == 1
            and mallopt(m_trim_threshold, 1 << 30) == 1)


#: Most helper threads the process-wide chunk executor will hold.  It
#: starts one only when a step asks for a helper and none is idle, so
#: this bounds a runaway ``workers`` value, it does not size anything.
MAX_CHUNK_HELPERS = 64

_EXECUTOR: Optional[ThreadPoolExecutor] = None
_EXECUTOR_LOCK = threading.Lock()


def _submit_helpers(count: int, drain: Callable[[int], None]
                    ) -> List[Future]:
    """Queue ``drain(1) .. drain(count)`` on the chunk executor
    (created here on first use, and again after a shutdown)."""
    global _EXECUTOR
    if count < 1:
        return []
    with _EXECUTOR_LOCK:
        if _EXECUTOR is None:
            _EXECUTOR = ThreadPoolExecutor(
                max_workers=MAX_CHUNK_HELPERS,
                thread_name_prefix="repro-chunk")
        return [_EXECUTOR.submit(drain, lane)
                for lane in range(1, count + 1)]


def shutdown_chunk_threads() -> None:
    """Stop the chunk executor's threads once the helpers already
    queued have run (:func:`repro.runtime.pool.shutdown_pools` calls
    this); the next threaded step starts a fresh executor."""
    global _EXECUTOR
    with _EXECUTOR_LOCK:
        executor, _EXECUTOR = _EXECUTOR, None
    if executor is not None:
        executor.shutdown(wait=True)


def combine_infos(infos: Sequence[StepInfo],
                  weights: Sequence[int]) -> StepInfo:
    """Chunk-size-weighted mean of per-chunk cost hints.

    Order-sensitive float arithmetic — callers must pass chunks in
    chunk order, which is worker-count independent by construction.
    """
    if not infos:
        return StepInfo()
    if len(infos) == 1:
        return infos[0]
    total = float(sum(weights))
    if total <= 0:
        return infos[0]
    merged = {}
    for f in fields(StepInfo):
        merged[f.name] = sum(
            getattr(info, f.name) * w
            for info, w in zip(infos, weights)) / total
    return StepInfo(**merged)


class _BatchRows:
    """Row-slice view of a ``SampleBatch`` handed to in-process
    collective chunks: hooks see chunk-local ``num_samples`` /
    ``roots`` / ``step_vertices``, while per-sample ``__getitem__``
    resolves to the parent batch (reference ``next`` gets full
    ``Sample`` views with correct global indices)."""

    def __init__(self, batch, lo: int, hi: int) -> None:
        self._batch = batch
        self._lo = int(lo)
        self._hi = int(hi)
        self.graph = batch.graph

    @property
    def num_samples(self) -> int:
        return self._hi - self._lo

    @property
    def roots(self) -> np.ndarray:
        return self._batch.roots[self._lo:self._hi]

    @property
    def step_vertices(self) -> List[np.ndarray]:
        return [a[self._lo:self._hi] for a in self._batch.step_vertices]

    @property
    def state(self):
        return self._batch.state

    def __getitem__(self, i: int):
        return self._batch[self._lo + int(i)]

    def __len__(self) -> int:
        return self.num_samples


class _StepArrays:
    """The arrays one step is assembled in: ``out`` and, for individual
    steps, its one-row-per-slot view ``out_rows``
    (:func:`repro.core.stepper.step_output`).

    Heap arrays for an in-process or threaded step, views of a
    borrowed shared-memory arena for one dispatched to the pool.  Step code reaches them
    only through this object, so that :meth:`close` leaves no view on
    the arena's buffer whatever frames a propagating exception keeps
    alive — a segment with a live view cannot be unmapped."""

    def __init__(self, out: np.ndarray,
                 out_rows: Optional[np.ndarray] = None,
                 arena=None) -> None:
        self.out = out
        self.out_rows = out_rows
        self.arena = arena

    def finish(self) -> np.ndarray:
        """The assembled step as a heap array (one copy out of the
        arena; workers are done with it by now)."""
        return self.out if self.arena is None else np.array(self.out)

    def close(self) -> None:
        """Drop the arrays and hand a borrowed arena back.  Only once
        no worker holds an unanswered chunk of the step: ``run_chunks``
        returning, or the pool having been retired, guarantees it."""
        self.out = self.out_rows = None
        if self.arena is not None:
            self.arena.close()
            self.arena = None


class ExecutionContext:
    """One run's RNG plan + (optional) worker set: chunk threads under
    a compiled backend, the process pool otherwise."""

    def __init__(self, seed: int, workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 plan: Optional[RNGPlan] = None) -> None:
        self.workers = resolve_workers(workers)
        if plan is None:
            plan = (RNGPlan(seed, chunk_pairs=chunk_size)
                    if chunk_size is not None else RNGPlan(seed))
        self.plan = plan
        self.pool = None
        self._pool_failed = False
        #: True once ``begin_run`` found a compiled backend: dispatched
        #: individual steps run on chunk threads and no pool is attached.
        self._threads = False
        #: Cooperative cancellation/deadline token
        #: (:class:`repro.runtime.cancel.CancelScope`), checked between
        #: chunks; None = never cancelled.  Attached by the serving
        #: daemon for per-request deadlines.
        self.cancel: Optional[CancelScope] = None
        #: The run's deterministic fault plan: a fresh copy of the
        #: engine's ``fault_plan``, so firing budgets are per run.
        self._fault_plan: Optional[FaultPlan] = None
        #: The run's tracer — the process-global tracer captured at
        #: construction and plumbed into every shard context, so shard
        #: threads and worker-chunk lanes land in one trace.
        self.tracer = trace.get_tracer()
        self.metrics = get_metrics()
        #: Labels (app/backend) for the labeled pool metrics, filled in
        #: by ``begin_run`` once the run's app is known.
        self._run_labels: Dict[str, str] = {}

    # -- RNG plan pass-throughs ---------------------------------------

    def init_rng(self) -> np.random.Generator:
        return self.plan.init_rng()

    def topup_rng(self, step: int) -> np.random.Generator:
        return self.plan.aux_rng(step, AUX_TOPUP)

    def post_step_rng(self, step: int) -> np.random.Generator:
        return self.plan.aux_rng(step, AUX_POST)

    def shard(self, shard_index: int) -> "ExecutionContext":
        """Context for one multi-device shard: a namespaced plan over
        the same worker set."""
        ctx = ExecutionContext(self.plan.seed, workers=self.workers,
                               plan=self.plan.shard(shard_index))
        ctx.pool = self.pool
        ctx._pool_failed = self._pool_failed
        ctx._threads = self._threads
        ctx.cancel = self.cancel
        ctx._fault_plan = self._fault_plan
        ctx.tracer = self.tracer
        ctx.metrics = self.metrics
        ctx._run_labels = self._run_labels
        return ctx

    # -- pool lifecycle ------------------------------------------------

    def begin_run(self, app: SamplingApp, graph) -> None:
        """Keep freed memory in the process, then choose the run's
        worker set: chunk threads under a compiled backend.  Otherwise
        attach the pool (spawning if needed) and broadcast the run's app
        + shared graph; any failure there degrades to in-process
        execution with a warning — never a failed run."""
        retain_freed_memory()
        backend = active_backend()
        self._run_labels = {"app": app.name, "backend": backend.name}
        if self.workers < 1 or self._pool_failed:
            return
        self.metrics.gauge("runtime.degraded_mode").set(0)
        if backend.compiled:
            self._threads = True
            return
        plan = self._fault_plan
        if plan is not None and plan.should("unpicklable-app"):
            return
        try:
            pickle.dumps(app, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # Locally-defined / closure-carrying apps cannot reach the
            # spawn workers.  Not a pool failure: run in-process like
            # any other non-dispatchable hook, same chunked plan.
            return
        try:
            if plan is not None and plan.should("shm-export-fail"):
                raise OSError("injected shared-memory export failure")
            from repro.runtime.shm import export_graph
            handle = export_graph(graph)
            self.pool = get_pool(self.workers)
            if plan is not None and plan.should("broadcast-fail"):
                raise WorkerCrash("injected broadcast failure", {})
            self.pool.broadcast_run(app, handle, self.plan.seed,
                                    fault_spec=plan.spec if plan
                                    else None)
        except WorkerCrash as exc:
            self._abandon_pool(f"worker pool unavailable ({exc}); ")
        except (OSError, ValueError) as exc:
            # e.g. shared memory unsupported/full on this platform
            self._abandon_pool(
                f"could not share graph with workers ({exc!r}); ")

    def _abandon_pool(self, why: str) -> None:
        warnings.warn(why + "falling back to in-process execution "
                      "(samples are unaffected)", RuntimeWarning,
                      stacklevel=3)
        if self.pool is not None:
            retire_pool(self.pool)
        self.pool = None
        self._pool_failed = True
        self.metrics.gauge("runtime.degraded_mode").set(1)

    # -- individual steps ---------------------------------------------

    def individual_step(
        self,
        app: SamplingApp,
        graph,
        batch,
        transits: np.ndarray,
        step: int,
        rows: Optional[np.ndarray] = None,
        transit_vals: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, StepInfo]:
        """Sample one individual step over pre-flattened pairs, in any
        order (NextDoor passes them transit-sorted, the CPU engines
        sample-ordered), pair ``i`` being transit ``transit_vals[i]`` in
        flat slot ``rows[i]``; returns the ``(S, T * m)`` step array and
        the step's cost hints.  A walk-shaped step ignores any pairs
        given: it runs its live slots in sample order.

        Every chunk result — written by a pool worker or computed here
        — lands straight in its pairs' rows of the step array, written
        by the app's draw itself when its hook takes the destination;
        nothing else of it is kept."""
        from repro.core.stepper import (prev_transits_for, step_output,
                                        walk_shaped)
        from repro.core.transit_map import sample_order_pairs
        self._maybe_interrupt(step)
        if walk_shaped(app, transits, step):
            order = sample_order_pairs(transits)
            rows, transit_vals = order.rows, order.transit_vals
        num_cols, m = transits.shape[1], app.sample_size(step)
        prev = None
        if app.needs_prev_transits:
            prev = prev_transits_for(batch, step, rows, num_cols)
        bounds = self.plan.individual_bounds(int(transit_vals.size))
        nchunks = bounds.size - 1
        if nchunks <= 0:
            return step_output(batch.num_samples, num_cols, m,
                               rows)[0], StepInfo()
        self.metrics.counter("rng.chunk_streams").inc(nchunks)

        dispatch = (
            (self._threads or self.pool is not None)
            and nchunks > 1
            and type(app).sample_neighbors
            is not SamplingApp.sample_neighbors)
        work = None
        if dispatch and not self._threads:
            work = self._stage_individual(batch, num_cols, m, rows,
                                          transit_vals, prev)
            dispatch = work is not None
        if work is None:
            work = _StepArrays(*step_output(
                batch.num_samples, num_cols, m, rows))
        in_place = takes_destination(type(app))
        #: Per-chunk cost hints; ``None`` marks a chunk still to run.
        infos: List[Optional[StepInfo]] = [None] * nchunks

        def run_chunk(c: int) -> StepInfo:
            lo, hi = int(bounds[c]), int(bounds[c + 1])
            own = rows[lo:hi]
            dest = {"out_rows": work.out_rows, "rows": own} if in_place else {}
            sampled, info = app.sample_neighbors(
                graph, transit_vals[lo:hi], step,
                self.plan.chunk_rng(step, c),
                prev_transits=None if prev is None else prev[lo:hi],
                batch=batch,
                sample_ids=own if num_cols == 1 else own // num_cols, **dest)
            if sampled is not None:
                work.out_rows[own] = sampled
            return info

        sampling_span = self.tracer.span(
            "sampling.individual", step=step,
            pairs=int(transit_vals.size), chunks=nchunks,
            dispatched=bool(dispatch))
        try:
            with sampling_span:
                if dispatch and self._threads:
                    self._run_on_threads(step, run_chunk, infos)
                elif dispatch:
                    for c, info in self._dispatch(
                            "ichunk", step, bounds, work.arena).items():
                        infos[c] = info
                for c in range(nchunks):
                    if infos[c] is not None:
                        continue
                    self._check_cancel(f"step {step} chunk {c}")
                    with self.tracer.span(
                            "chunk", step=step, chunk=c,
                            pairs=int(bounds[c + 1] - bounds[c])):
                        infos[c] = run_chunk(c)
                    self.metrics.counter("runtime.chunks_inprocess").inc()
            return work.finish(), combine_infos(
                infos, np.diff(bounds).tolist())
        finally:
            work.close()

    # -- collective steps ---------------------------------------------

    def collective_step(
        self,
        app: SamplingApp,
        graph,
        batch,
        transits: np.ndarray,
        step: int,
    ) -> Tuple[np.ndarray, StepInfo, Optional[np.ndarray], np.ndarray]:
        """Sample one collective step; returns ``(new_vertices, info,
        recorded_edges, neighborhood_sizes)``, ``neighborhood_sizes[s]``
        being sample ``s``'s combined-neighborhood size (what the
        construction kernels are priced on).  Chunks (blocks of sample
        rows) are assembled in place like an individual step's.

        An app declaring ``needs_combined_values = False`` gets only the
        neighborhood *offsets*: hub-heavy transit sets would otherwise
        materialise multi-gigabyte arrays."""
        from repro.api.apps._kernels import (
            build_combined_neighborhood, combined_neighborhood_offsets)
        self._maybe_interrupt(step)
        transits = np.asarray(transits)
        if app.needs_combined_values:
            values, offsets = build_combined_neighborhood(graph, transits)
        else:
            values = None
            offsets = combined_neighborhood_offsets(graph, transits)

        num_rows = int(transits.shape[0])
        bounds = self.plan.collective_bounds(num_rows)
        nchunks = bounds.size - 1
        if nchunks <= 0:
            empty = np.full((batch.num_samples, 0), NULL_VERTEX,
                            dtype=np.int64)
            return empty, StepInfo(), None, np.diff(offsets)
        self.metrics.counter("rng.chunk_streams").inc(nchunks)

        # Process pool only: chunk threads leave a collective step to
        # the calling thread (module docstring).
        dispatch = (
            self.pool is not None and nchunks > 1
            and values is None and not app.collective_needs_batch
            and type(app).sample_from_neighborhood
            is not SamplingApp.sample_from_neighborhood)
        out_shape = (num_rows, app.sample_size(step))
        work = None
        if dispatch:
            arena = self._open_arena(
                {"transits": transits, "offsets": offsets},
                {"out": out_shape})
            if arena is not None:
                # Every sample row belongs to a chunk: nothing to blank.
                work = _StepArrays(arena.views["out"], arena=arena)
            dispatch = work is not None
        if work is None:
            work = _StepArrays(
                np.full(out_shape, NULL_VERTEX, dtype=np.int64))
        infos: List[Optional[StepInfo]] = [None] * nchunks

        def run_chunk(c: int) -> StepInfo:
            lo, hi = int(bounds[c]), int(bounds[c + 1])
            vertices, info = app.sample_from_neighborhood(
                graph, _BatchRows(batch, lo, hi),
                None if values is None
                else values[offsets[lo]:offsets[hi]],
                offsets[lo:hi + 1] - offsets[lo], transits[lo:hi], step,
                self.plan.chunk_rng(step, c))
            work.out[lo:hi] = vertices
            return info

        sampling_span = self.tracer.span(
            "sampling.collective", step=step, rows=num_rows,
            chunks=nchunks, dispatched=bool(dispatch))
        try:
            with sampling_span:
                if dispatch:
                    for c, info in self._dispatch(
                            "cchunk", step, bounds, work.arena).items():
                        infos[c] = info
                for c in range(nchunks):
                    if infos[c] is not None:
                        continue
                    self._check_cancel(f"step {step} chunk {c}")
                    with self.tracer.span(
                            "chunk", step=step, chunk=c,
                            rows=int(bounds[c + 1] - bounds[c])):
                        infos[c] = run_chunk(c)
                    self.metrics.counter("runtime.chunks_inprocess").inc()
            new_vertices = work.finish()
        finally:
            work.close()
        info = combine_infos(infos, np.diff(bounds).tolist())
        edges = app.record_step_edges(graph, batch, transits,
                                      new_vertices, step)
        return new_vertices, info, edges, np.diff(offsets)

    # -- faults, cancellation, and pool dispatch ----------------------

    def _maybe_interrupt(self, step: int) -> None:
        """Deterministic stand-in for ctrl-C: the ``interrupt-step``
        fault aborts the run at the start of a step."""
        self._check_cancel(f"step {step}")
        if self._fault_plan is not None and self._fault_plan.should(
                "interrupt-step", step):
            raise FaultInjected(f"injected interrupt at step {step}")

    def _check_cancel(self, where: str) -> None:
        """Raise :class:`~repro.runtime.cancel.CancelledRun` at a chunk
        boundary when the attached scope tripped (deadline passed or an
        explicit cancel); partial step work is simply dropped."""
        if self.cancel is not None:
            try:
                self.cancel.check(where)
            except Exception:
                self.metrics.counter("runtime.runs_cancelled").inc()
                raise

    def _run_on_threads(self, step: int,
                        run_chunk: Callable[[int], StepInfo],
                        infos: List[Optional[StepInfo]]) -> None:
        """Run the step's chunks on ``workers`` threads — this one (lane
        ``worker-0``) and helpers from the chunk executor — each taking
        the next chunk until none is left; ``run_chunk`` writes the
        chunk's rows and its cost hints land in ``infos``.

        Returns only when no chunk is running or will start.  A chunk
        that raises (the scope's ``CancelledRun`` included) stops every
        thread from taking another; the first such exception is
        re-raised here after the chunks already started have returned."""
        queue = deque(range(len(infos)))
        errors: List[BaseException] = []
        pooled = self.metrics.counter("runtime.chunks_pooled")
        chunk_seconds = self.metrics.histogram(
            "pool.chunk_seconds", labels=self._run_labels or None)

        def drain(lane: int) -> None:
            lane_name = f"worker-{lane}"
            try:
                while not errors:
                    try:
                        c = queue.popleft()
                    except IndexError:
                        return
                    if self.cancel is not None:
                        self.cancel.check(f"step {step} chunk {c}")
                    t0 = time.monotonic()
                    infos[c] = run_chunk(c)
                    t1 = time.monotonic()
                    pooled.inc()
                    chunk_seconds.observe(t1 - t0)
                    self.tracer.add_span("chunk", t0, t1, lane=lane_name,
                                         step=step, chunk=c)
            except BaseException as exc:
                errors.append(exc)

        helpers = _submit_helpers(min(self.workers, len(infos)) - 1,
                                  drain)
        drain(0)
        for helper in helpers:
            # One that never started finds nothing left to do.
            if not helper.cancel():
                helper.result()
        if errors:
            if isinstance(errors[0], CancelledRun):
                self.metrics.counter("runtime.runs_cancelled").inc()
            raise errors[0]

    def _open_arena(self, staged: Dict[str, np.ndarray],
                    blank: Dict[str, Tuple[int, ...]]):
        """Borrow a step arena holding copies of the ``staged`` arrays
        and uninitialised ``int64`` arrays of the ``blank`` shapes.
        When shared memory gives out the pool is abandoned like any
        other export failure and ``None`` is returned."""
        from repro.runtime import shm
        layout = tuple(
            [(name, arr.dtype.str, arr.shape)
             for name, arr in staged.items()]
            + [(name, np.dtype(np.int64).str, shape)
               for name, shape in blank.items()])
        try:
            arena = shm.open_arena(layout)
        except OSError as exc:
            self._abandon_pool(
                f"could not stage the step for workers ({exc!r}); ")
            return None
        for name, arr in staged.items():
            arena.views[name][...] = arr
        return arena

    def _stage_individual(self, batch, num_cols: int, m: int,
                          rows: np.ndarray, transit_vals: np.ndarray,
                          prev: Optional[np.ndarray]
                          ) -> Optional[_StepArrays]:
        """An individual step staged for workers: its pair arrays, the
        batch roots (workers read a pair's sample as ``rows // T``) and
        the step array, blanked by ``step_output``."""
        from repro.core.stepper import step_output
        staged = {"vals": transit_vals, "rows": rows, "roots": batch.roots}
        if prev is not None:
            staged["prev"] = prev
        num_samples = batch.num_samples
        arena = self._open_arena(staged, {"out": (num_samples, num_cols, m)})
        if arena is None:
            return None
        return _StepArrays(
            *step_output(num_samples, num_cols, m, rows,
                         out=arena.views["out"]),
            arena=arena)

    def _dispatch(self, kind: str, step: int, bounds: np.ndarray,
                  arena) -> Dict[int, StepInfo]:
        """Run the chunks of the step staged in ``arena`` on the pool;
        returns the cost hints of those whose rows the workers wrote.
        Absent chunks (an application error in a worker, or lost with a
        crashed pool — retired before this returns) are the caller's to
        run in-process."""
        jobs = [(c, (kind, c, step, self.plan.chunk_key(step, c),
                     arena.name, arena.layout,
                     int(bounds[c]), int(bounds[c + 1])))
                for c in range(bounds.size - 1)]
        try:
            replies = self.pool.run_chunks(jobs)
        except WorkerCrash as exc:
            replies = dict(exc.results)
            self._abandon_pool(
                f"worker pool crashed mid-step ({exc}); re-running "
                f"{len(jobs) - len(replies)} chunks in-process and ")
        chunk_seconds = self.metrics.histogram(
            "pool.chunk_seconds", labels=self._run_labels or None)
        self.metrics.counter("runtime.chunks_pooled").inc(len(replies))
        # ``(worker, t_start, t_end)`` are worker-side
        # ``time.monotonic()`` readings, comparable with the parent's
        # clock on the platforms we support: they become per-worker
        # trace lanes + the chunk latency histogram.
        for c, (_, (w, t0, t1)) in replies.items():
            chunk_seconds.observe(t1 - t0)
            self.tracer.add_span("chunk", t0, t1, lane=f"worker-{w}",
                                 step=step, chunk=c)
        return {c: info for c, (info, _) in replies.items()}
