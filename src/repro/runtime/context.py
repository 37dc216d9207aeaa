"""The per-run execution context: chunked stepping on chunk threads.

:class:`ExecutionContext` owns the run's
:class:`~repro.runtime.rngplan.RNGPlan` and runs each step's sampling
as fixed-size chunks, each calling the app's own hook with its own
plan-derived generator.  Chunk layout and seeds depend only on ``(seed,
step, chunk index)``, never on the worker count, so the assembled step
— and the whole ``SampleBatch`` — is bitwise-identical for any
``workers``; per-chunk :class:`~repro.api.types.StepInfo` cost hints
are combined by a mean weighted by chunk length, in chunk order, so the
charge inputs are too.  The app's type alone picks the kernels
(vectorised hook or the base-class reference loop over ``next``).

With ``workers >= 1``, under every kernel backend, an individual step
whose app overrides ``sample_neighbors`` and that has more than one
chunk runs on **chunk threads**: this thread and ``workers - 1``
helpers from one process-wide executor each take the next missing
chunk and write its rows straight into the step array.  The first
exception (or ``CancelledRun``) is re-raised once every started chunk
returned.  The compiled kernels release the GIL; numpy releases it
inside its array loops.  A hook is a pure function of ``(graph, chunk
data, rng)`` plus reads of the batch, and every lazy graph table is
built whole, once, before it is published (``CSRGraph.cached``), so a
chunk gives the same rows on any thread.  Collective steps stay on the
calling thread: threaded, a few ~2 ms chunks ran 0.8–1.3x the serial
step, by whether the host's second core was free.

A run keeps no state between runs: a run that failed or was
interrupted is recovered by running it again, which gives the same
batch (``docs/RESILIENCE.md``).

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
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.app import SamplingApp, takes_destination
from repro.api.types import NULL_VERTEX, StepInfo
from repro.graph.csr import VERTEX_DTYPE
from repro.native.backend import active_backend
from repro.obs import Counter, Histogram, get_metrics, trace
from repro.runtime.cancel import CancelledRun, CancelScope
from repro.runtime.faults import FaultInjected, FaultPlan
from repro.runtime.rngplan import AUX_POST, AUX_TOPUP, RNGPlan

__all__ = ["ExecutionContext", "resolve_workers", "combine_infos",
           "retain_freed_memory"]

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
    """Serve every allocation from the heap (``M_MMAP_MAX = 0``), keep
    up to 1 GiB of its freed top (``M_TRIM_THRESHOLD``) and give every
    thread the one heap (``M_ARENA_MAX = 1``, so memory a chunk thread
    frees is reused by whichever thread allocates next): once per
    process, through glibc's ``mallopt``.  False, changing nothing,
    where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_max, m_arena_max = -1, -4, -8
    return (mallopt(m_mmap_max, 0) == 1
            and mallopt(m_trim_threshold, 1 << 30) == 1
            and mallopt(m_arena_max, 1) == 1)


#: Most helper threads the process-wide chunk executor will hold.  It
#: starts one only when a step asks for a helper and none is idle, so
#: this bounds a runaway ``workers`` value, it does not size anything.
MAX_CHUNK_HELPERS = 64

_EXECUTOR: Optional[ThreadPoolExecutor] = None
_EXECUTOR_LOCK = threading.Lock()


def _submit_helpers(count: int, drain: Callable[[int], None]
                    ) -> List[Future]:
    """Queue ``drain(1) .. drain(count)`` on the chunk executor
    (created here on first use)."""
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


def combine_infos(infos: Sequence[StepInfo],
                  weights: Sequence[int]) -> StepInfo:
    """Chunk-size-weighted mean of per-chunk cost hints.

    Order-sensitive float arithmetic — callers must pass chunks in
    chunk order, which is worker-count independent by construction.
    """
    if not infos:
        return StepInfo()
    total = float(sum(weights))
    if len(infos) == 1 or total <= 0:
        return infos[0]
    return StepInfo(**{f.name: sum(getattr(info, f.name) * w
                                   for info, w in zip(infos, weights)) / total
                       for f in fields(StepInfo)})


class _BatchRows:
    """Row-slice view of a ``SampleBatch`` handed to collective
    chunks: hooks see chunk-local ``num_samples`` /
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


class ExecutionContext:
    """One run's RNG plan + (optional) chunk threads."""

    def __init__(self, seed: int, workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers)
        self.plan = RNGPlan(seed)
        #: Cooperative cancellation/deadline token
        #: (:class:`repro.runtime.cancel.CancelScope`), checked between
        #: chunks; None = never cancelled.  Attached by the serving
        #: daemon for per-request deadlines.
        self.cancel: Optional[CancelScope] = None
        #: The run's deterministic fault plan: a fresh copy of the
        #: engine's ``fault_plan``, so firing budgets are per run.
        self._fault_plan: Optional[FaultPlan] = None
        #: The run's tracer — the process-global tracer captured at
        #: construction, so chunk-thread lanes land in the run's trace.
        self.tracer = trace.get_tracer()
        self.metrics = get_metrics()
        #: The run's instruments by name (:meth:`_metric`).
        self._instruments: Dict[str, Union[Counter, Histogram]] = {}
        #: Labels (app/backend) for the labeled chunk metrics, filled in
        #: by ``begin_run`` once the run's app is known.
        self._run_labels: Dict[str, str] = {}

    # -- RNG plan pass-throughs ---------------------------------------

    def init_rng(self) -> np.random.Generator:
        return self.plan.init_rng()

    def topup_rng(self, step: int) -> np.random.Generator:
        return self.plan.aux_rng(step, AUX_TOPUP)

    def post_step_rng(self, step: int) -> np.random.Generator:
        return self.plan.aux_rng(step, AUX_POST)

    def begin_run(self, app: SamplingApp, graph) -> None:
        """Keep freed memory in the process and label the run's chunk
        metrics with its app and backend."""
        retain_freed_memory()
        self._run_labels = {"app": app.name,
                            "backend": active_backend().name}

    # -- individual steps ---------------------------------------------

    def individual_step(
        self,
        app: SamplingApp,
        graph,
        batch,
        transits: np.ndarray,
        step: int,
        rows: np.ndarray,
        transit_vals: np.ndarray,
    ) -> Tuple[np.ndarray, StepInfo]:
        """Sample one individual step over pre-flattened pairs, in any
        order (``run_steps`` passes them transit-sorted, or a
        walk-shaped step's in sample order), pair ``i`` being transit
        ``transit_vals[i]`` in flat slot ``rows[i]``; returns the ``(S,
        T * m)`` step array and the step's cost hints.

        Every chunk result lands straight in its pairs' rows of the step
        array, written by the app's draw itself when its hook takes the
        destination; nothing else of it is kept."""
        from repro.core import stepper
        self._check_cancel(step)
        num_cols, m = transits.shape[1], app.sample_size(step)
        prev = (stepper.prev_transits_for(batch, step, rows, num_cols)
                if app.needs_prev_transits else None)
        num_pairs = transit_vals.size
        bounds = self.plan.individual_bounds(num_pairs)
        nchunks = len(bounds) - 1
        out, out_rows = stepper.step_output(batch.num_samples, num_cols, m,
                                            rows)
        if nchunks <= 0:
            return out, StepInfo()
        self._metric("rng.chunk_streams").inc(nchunks)

        threaded = (self.workers >= 1 and nchunks > 1
                    and type(app).sample_neighbors
                    is not SamplingApp.sample_neighbors)
        in_place = takes_destination(type(app))

        def run_chunk(c: int) -> StepInfo:
            self._maybe_chunk_error(step, c)
            lo, hi = bounds[c], bounds[c + 1]
            own = rows[lo:hi]
            dest = {"out_rows": out_rows, "rows": own} if in_place else {}
            sampled, info = app.sample_neighbors(
                graph, transit_vals[lo:hi], step,
                self.plan.chunk_rng(step, c),
                prev_transits=None if prev is None else prev[lo:hi],
                batch=batch,
                sample_ids=own if num_cols == 1 else own // num_cols, **dest)
            if sampled is not None:
                out_rows[own] = sampled
            return info

        t0 = time.perf_counter()
        infos = self._sample_chunks(step, bounds, "pairs", run_chunk,
                                    threaded)
        if self.tracer.enabled:
            self.tracer.add_span(
                "sampling.individual", t0, time.perf_counter(), step=step,
                pairs=num_pairs, chunks=nchunks, dispatched=threaded)
        return out, infos[0] if nchunks == 1 else combine_infos(
            infos, np.diff(bounds).tolist())

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
        self._check_cancel(step)
        transits = np.asarray(transits)
        if app.needs_combined_values:
            values, offsets = build_combined_neighborhood(graph, transits)
        else:
            values = None
            offsets = combined_neighborhood_offsets(graph, transits)

        num_rows = int(transits.shape[0])
        bounds = self.plan.collective_bounds(num_rows)
        nchunks = len(bounds) - 1
        if nchunks <= 0:
            empty = np.empty((batch.num_samples, 0), dtype=VERTEX_DTYPE)
            return empty, StepInfo(), None, np.diff(offsets)
        self._metric("rng.chunk_streams").inc(nchunks)

        out = np.full((num_rows, app.sample_size(step)), NULL_VERTEX,
                      dtype=VERTEX_DTYPE)

        def run_chunk(c: int) -> StepInfo:
            self._maybe_chunk_error(step, c)
            lo, hi = bounds[c], bounds[c + 1]
            vertices, info = app.sample_from_neighborhood(
                graph, _BatchRows(batch, lo, hi),
                None if values is None
                else values[offsets[lo]:offsets[hi]],
                offsets[lo:hi + 1] - offsets[lo], transits[lo:hi], step,
                self.plan.chunk_rng(step, c))
            out[lo:hi] = vertices
            return info

        # Never threaded (module docstring).
        t0 = time.perf_counter()
        infos = self._sample_chunks(step, bounds, "rows", run_chunk,
                                    threaded=False)
        if self.tracer.enabled:
            self.tracer.add_span(
                "sampling.collective", t0, time.perf_counter(), step=step,
                rows=num_rows, chunks=nchunks, dispatched=False)
        info = infos[0] if nchunks == 1 else combine_infos(
            infos, np.diff(bounds).tolist())
        edges = app.record_step_edges(graph, batch, transits, out, step)
        return out, info, edges, np.diff(offsets)

    # -- faults, cancellation, and chunk threads -----------------------

    def _metric(self, name: str, kind: str = "counter"):
        """Instrument ``name`` (a histogram carries the run's labels),
        looked up once per run, on first use: a run that never updates
        it does not export it."""
        inst = self._instruments.get(name)
        if inst is None:
            labels = None if kind == "counter" else self._run_labels or None
            inst = self._instruments[name] = getattr(self.metrics, kind)(
                name, labels=labels)
        return inst

    def _maybe_chunk_error(self, step: int, chunk: int) -> None:
        """The ``chunk-error`` fault: raise inside chunk ``chunk`` of
        ``step``, on whichever thread runs it."""
        if self._fault_plan is not None and self._fault_plan.should(
                "chunk-error", step, chunk):
            raise FaultInjected(
                f"injected chunk error (step {step}, chunk {chunk})")

    def _check_cancel(self, step: int, chunk: Optional[int] = None) -> None:
        """Raise :class:`~repro.runtime.cancel.CancelledRun` at a chunk
        boundary when the attached scope tripped (deadline passed or an
        explicit cancel); partial step work is simply dropped."""
        if self.cancel is not None:
            try:
                self.cancel.check(f"step {step}" if chunk is None
                                  else f"step {step} chunk {chunk}")
            except Exception:
                self._metric("runtime.runs_cancelled").inc()
                raise

    def _sample_chunks(self, step: int, bounds: List[int], unit: str,
                       run_chunk: Callable[[int], StepInfo],
                       threaded: bool) -> List[StepInfo]:
        """Every chunk's cost hints, in chunk order: on chunk threads
        when ``threaded``, else one after another on this thread, each
        traced as a ``chunk`` span whose ``unit`` argument is its size."""
        infos: List[Optional[StepInfo]] = [None] * (len(bounds) - 1)
        if threaded:
            self._run_on_threads(step, run_chunk, infos)
            return infos
        traced = self.tracer.enabled
        inprocess = self._metric("runtime.chunks_inprocess")
        for c in range(len(infos)):
            self._check_cancel(step, c)
            t0 = time.perf_counter()
            infos[c] = run_chunk(c)
            if traced:
                self.tracer.add_span(
                    "chunk", t0, time.perf_counter(), step=step, chunk=c,
                    **{unit: bounds[c + 1] - bounds[c]})
            inprocess.inc()
        return infos

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
        chunk_seconds = self._metric("pool.chunk_seconds", "histogram")
        pooled = self._metric("runtime.chunks_pooled")
        traced = self.tracer.enabled

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
                    t0 = time.perf_counter()
                    infos[c] = run_chunk(c)
                    t1 = time.perf_counter()
                    pooled.inc()
                    chunk_seconds.observe(t1 - t0)
                    if traced:
                        self.tracer.add_span("chunk", t0, t1,
                                             lane=lane_name, step=step,
                                             chunk=c)
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
                self._metric("runtime.runs_cancelled").inc()
            raise errors[0]
