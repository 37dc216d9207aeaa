"""Shared functional stepping logic — and the one step loop.

Every engine in this reproduction — NextDoor, SP, TP, the
graph-framework baselines, the CPU comparators — must produce
*statistically identical* samples; they differ only in how the work is
organised on the device, which is what the performance model prices.
This module holds the functional half they share: initialising
batches, addressing a step's rectangular output by pair, and
:func:`run_steps`, the loop that drives all of it.  A step's sampling
has one way to run: through the run's
:class:`~repro.runtime.context.ExecutionContext`, whose chunks call the
app's own hooks.  An engine is ``run_steps`` collecting each step's
:class:`StepRecord` plus a pricing pass that replays them on its own
device model when a modeled number is first read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from repro.api.app import SamplingApp
from repro.api.sample import SampleBatch
from repro.api.types import INF_STEPS, NULL_VERTEX, SamplingType, StepInfo
from repro.core.transit_map import StepShape, TransitMap, build_transit_map
from repro.core.unique import dedupe_and_topup
from repro.graph.csr import CSRGraph
from repro.native.backend import active_backend_name
from repro.obs import get_metrics, trace

__all__ = [
    "StepRecord",
    "init_batch",
    "step_limit",
    "walk_shaped",
    "prev_transits_for",
    "step_output",
    "run_individual_step",
    "run_collective_step",
    "run_steps",
    "any_live",
    "stage",
]


def init_batch(app: SamplingApp, graph: CSRGraph,
               num_samples: Optional[int],
               roots: Optional[np.ndarray],
               rng: np.random.Generator) -> SampleBatch:
    """Create the initial batch from explicit roots or the app's
    automatic root selection."""
    if roots is None:
        if num_samples is None:
            raise ValueError("provide either num_samples or roots")
        roots = app.initial_roots(graph, num_samples, rng)
    batch = SampleBatch(graph, np.asarray(roots, dtype=np.int64))
    app.init_state(batch, rng)
    return batch


def step_limit(app: SamplingApp) -> int:
    """Number of steps to run: ``steps()`` or the INF cap."""
    k = app.steps()
    return app.max_steps_cap() if k == INF_STEPS else k


def walk_shaped(app: SamplingApp, transits: np.ndarray, step: int) -> bool:
    """One transit per sample, at most two draws each, no unique pass:
    such a step runs in sample order and is indexed only to be priced."""
    return (transits.shape[1] == 1 and app.sample_size(step) <= 2
            and not app.unique(step))


def prev_transits_for(batch: SampleBatch, step: int, rows: np.ndarray,
                      num_cols: int) -> Optional[np.ndarray]:
    """Previous-step transit for each pair (node2vec's ``t``), the pair
    in flat slot ``rows[i]`` of the step's ``(S, num_cols)`` transits.

    Defined for walk-shaped applications (one transit per sample); for
    wider applications the previous transit of the pair at column ``c``
    is the vertex that produced it, i.e. column ``c // m_prev`` of the
    step before — walks only need the ``c = 0`` case, which is what the
    paper's node2vec uses.
    """
    if step == 0:
        return None
    if step == 1:
        source = batch.roots
    else:
        source = batch.step_vertices[step - 2]
    col = np.minimum(rows % num_cols, source.shape[1] - 1)
    return source[rows // num_cols, col]


def step_output(num_samples: int, num_cols: int, m: int,
                rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Allocate an individual step's ``(S, T * m)`` output ``out`` and
    ``out_rows``, its view as one ``m``-wide row per transit slot.

    Pair ``i`` owns row ``rows[i]`` (its flat slot), so any run of
    pairs lands in any order: the draws write ``out_rows[rows[lo:hi]]``
    themselves, or the runtime assigns a hook's returned array there.
    NULL transits' slots are never addressed and read NULL; with no
    NULL slot ``out`` is left uninitialised, so every pair writes its
    whole row (a zero-degree transit's NULL too).
    """
    out = np.empty(num_samples * num_cols * m, dtype=np.int64)
    if rows.size < num_samples * num_cols:
        out.fill(NULL_VERTEX)
    return (out.reshape(num_samples, num_cols * m),
            out.reshape(num_samples * num_cols, m))


def run_individual_step(app: SamplingApp, graph: CSRGraph,
                        batch: SampleBatch, transits: np.ndarray, step: int,
                        ctx, sample_ids: np.ndarray, cols: np.ndarray,
                        transit_vals: np.ndarray
                        ) -> Tuple[np.ndarray, StepInfo]:
    """One individual step through ``ctx`` (an
    :class:`~repro.runtime.context.ExecutionContext`) over pairs given
    as ``(sample_ids, cols)``, for loops that drive steps by hand (the
    perf ledger's); see its ``individual_step``."""
    rows = np.asarray(sample_ids, dtype=np.int64) * transits.shape[1] + cols
    return ctx.individual_step(app, graph, batch, transits, step,
                               rows, transit_vals)


def run_collective_step(
    app: SamplingApp, graph: CSRGraph, batch: SampleBatch,
    transits: np.ndarray, step: int, ctx,
) -> Tuple[np.ndarray, StepInfo, Optional[np.ndarray], np.ndarray]:
    """One collective step through ``ctx``: see its
    ``collective_step``."""
    return ctx.collective_step(app, graph, batch, transits, step)


# ----------------------------------------------------------------------
# The step loop
# ----------------------------------------------------------------------

@dataclass
class StepRecord:
    """The shape of one executed step — everything an engine prices
    and nothing sized by the step's pairs, so a run can keep them.

    Handed to ``on_step`` after the step's kernels (and unique pass)
    and before its vertices are appended to the batch.
    """

    step: int
    transits: np.ndarray
    m: int
    info: StepInfo
    collective: bool
    has_edges: bool = False
    #: Per-sample combined-neighborhood sizes (collective steps).
    neighborhood_sizes: Optional[np.ndarray] = None
    #: The unique pass (Section 6.3), when it ran: the row width it
    #: deduplicated (0 = no pass), and per row whether it held a
    #: duplicate and whether the top-up redrew it.
    unique_width: int = 0
    unique_dups: Optional[np.ndarray] = None
    unique_topups: Optional[np.ndarray] = None
    #: The step's index shape if its grouping fed the sampling, and
    #: the pricing engine's ``pairs``, which :attr:`tmap` applies else.
    shape: Optional[StepShape] = None
    pairs: Callable[..., TransitMap] = build_transit_map

    @property
    def tmap(self) -> StepShape:
        """What a ``_charge_*`` reads (once a step) of the step's
        transit map: the run's shape, else one built from ``pairs``."""
        return (self.shape if self.shape is not None
                else self.pairs(self.transits, None).shape())

    def rows(self, lo: int, hi: int) -> Optional["StepRecord"]:
        """The step as rows ``[lo, hi)`` alone ran it — one device's
        share of a multi-device run — or None when no pair there is
        live.  Its :attr:`tmap` is built from the slice on first read."""
        transits = self.transits[lo:hi]
        if not (transits != NULL_VERTEX).any():
            return None

        def cut(a):
            return None if a is None else a[lo:hi]

        return replace(self, transits=transits, shape=None,
                       neighborhood_sizes=cut(self.neighborhood_sizes),
                       unique_dups=cut(self.unique_dups),
                       unique_topups=cut(self.unique_topups))


class stage:
    """One named stage of a run: a trace span and, given a histogram,
    an always-on wall-clock observation (spans record nothing unless
    tracing is enabled; percentile stats must not depend on
    ``--trace``).  The only emitter of either inside the step loop."""

    __slots__ = ("_span", "_hist", "_t0")

    def __init__(self, name: str, hist=None, **attrs) -> None:
        self._span = trace.span(name, **attrs)
        self._hist = hist

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self._span.__enter__()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.__exit__(exc_type, exc, tb)
        if self._hist is not None and exc_type is None:
            self._hist.observe(time.perf_counter() - self._t0)
        return False


def run_steps(app: SamplingApp, graph: CSRGraph, batch: SampleBatch, ctx,
              on_step: Optional[Callable[[StepRecord], None]] = None,
              pairs=build_transit_map) -> int:
    """Run ``app`` over ``batch`` to completion; returns steps executed.

    Per step: ``transits_for_step``; ``pairs(transits, graph)`` groups
    the live (sample, transit) pairs (transit-sorted by default — the
    CPU engines pass their sample-order flattening); the step's
    kernels run through ``ctx`` (an
    :class:`~repro.runtime.context.ExecutionContext` that ``begin_run``
    has prepared); the unique pass, if the application asks for one;
    ``on_step(record)``; ``append_step`` / ``post_step``.  The loop ends
    at the application's step limit, at a step with no live transit, or
    after a step that added no vertex to any sample.

    A :func:`walk_shaped` or collective step calls no ``pairs`` here:
    its record does, when first priced.

    ``on_step`` is where an engine collects what its pricing pass will
    replay — the loop itself prices nothing.
    """
    backend = active_backend_name()
    collective = app.sampling_type() is SamplingType.COLLECTIVE
    kernels = "collective_kernels" if collective else "individual_kernels"
    reg = get_metrics()
    # Labeled by stage + backend so one snapshot carries the paper's
    # per-stage breakdown per backend.
    hist = {name: reg.histogram("engine.stage_seconds",
                                labels={"stage": name, "backend": backend})
            for name in ("step", "scheduling_index", kernels)}
    limit = step_limit(app)
    # The inherited post_step ignores its generator: skip building one.
    has_post_step = type(app).post_step is not SamplingApp.post_step
    step = 0
    while step < limit:
        with stage("step", hist["step"], step=step):
            transits = app.transits_for_step(batch, step)
            with stage("scheduling_index", hist["scheduling_index"],
                       step=step, backend=backend) as index_span:
                tmap = None if collective or walk_shaped(
                    app, transits, step) else pairs(transits, graph)
                live = (np.count_nonzero(transits != NULL_VERTEX)
                        if tmap is None else tmap.num_pairs)
                index_span.set(pairs=int(live))
            if live == 0:
                break  # no live transits: every sample terminated
            m = app.sample_size(step)
            edges = sizes = None
            width, dups, topups = 0, None, None
            with stage(kernels, hist[kernels], step=step, backend=backend):
                if collective:
                    new_vertices, info, edges, sizes = ctx.collective_step(
                        app, graph, batch, transits, step)
                    if edges is not None:
                        batch.record_edges(edges)
                else:
                    new_vertices, info = ctx.individual_step(
                        app, graph, batch, transits, step,
                        *(() if tmap is None
                          else (tmap.rows, tmap.transit_vals)))
            if (not collective and app.unique(step)
                    and new_vertices.shape[1] > 1):
                with stage("make_unique", step=step):
                    width = new_vertices.shape[1]
                    new_vertices, dups, topups = dedupe_and_topup(
                        app, graph, transits, new_vertices, step,
                        ctx.topup_rng(step))
            if on_step is not None:
                on_step(StepRecord(
                    step, transits, m, info, collective, edges is not None,
                    sizes, width, dups, topups,
                    None if tmap is None else tmap.shape(), pairs))
            with stage("post_step", step=step):
                batch.append_step(new_vertices)
                if has_post_step:
                    app.post_step(batch, new_vertices, step,
                                  ctx.post_step_rng(step))
            step += 1
            if m > 0 and not any_live(new_vertices):
                break  # nothing added anywhere: all samples ended
    return step


#: Vertices the end-of-walk check reads at a time.
LIVE_BLOCK = 4096


def any_live(vertices: np.ndarray) -> bool:
    """Any non-NULL entry?  Reads blocks up to the first live one."""
    flat = vertices.reshape(-1)
    return any((flat[lo:lo + LIVE_BLOCK] != NULL_VERTEX).any()
               for lo in range(0, flat.size, LIVE_BLOCK))
