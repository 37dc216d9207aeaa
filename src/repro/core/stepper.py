"""Shared functional stepping logic — and the one step loop.

Every engine in this reproduction — NextDoor, SP, TP, the
graph-framework baselines, the CPU comparators — produces the same
samples, bit for bit; they differ only in how the work is organised on
the device, which is what the performance model prices.
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
from repro.core.transit_map import StepShape, _live_pairs, build_transit_map
from repro.core.unique import dedupe_and_topup
from repro.graph.csr import VERTEX_DTYPE, CSRGraph
from repro.native.backend import active_backend_name
from repro.obs import get_metrics

__all__ = [
    "StepRecord",
    "init_batch",
    "step_limit",
    "walk_shaped",
    "sample_order",
    "prev_transits_for",
    "step_output",
    "run_individual_step",
    "run_collective_step",
    "run_steps",
    "any_live",
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
    batch = SampleBatch(graph, roots)
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


def sample_order(transits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A walk-shaped step's pairs: its live slots, in sample order, and
    their transits."""
    rows, vals = _live_pairs(transits)
    return (np.arange(vals.size) if rows is None else rows), vals


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
    out = np.empty(num_samples * num_cols * m, dtype=VERTEX_DTYPE)
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
    perf ledger's); see its ``individual_step``.  A :func:`walk_shaped`
    step ignores the pairs: it runs its live slots in sample order."""
    if walk_shaped(app, transits, step):
        rows, transit_vals = sample_order(transits)
    else:
        rows = np.multiply(sample_ids, transits.shape[1], dtype=np.int64)
        rows += cols
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
    #: The step's index shape if its grouping fed the sampling.
    shape: Optional[StepShape] = None

    @property
    def tmap(self) -> StepShape:
        """What a ``_charge_*`` reads (once a step) of the step's
        transit map: the run's shape, else one built now."""
        return (self.shape if self.shape is not None
                else build_transit_map(self.transits).shape())

    @property
    def num_pairs(self) -> int:
        """The step's live pairs, without building its map: all a
        price list that never reads the grouping (the CPU engines')
        needs."""
        return (self.shape.num_pairs if self.shape is not None
                else int(np.count_nonzero(self.transits != NULL_VERTEX)))

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


def _lap(t0: float, hist, tracer, name: str, **attrs) -> float:
    """Close a stage begun at ``t0`` (``perf_counter``): observe it in
    ``hist``, which is always on, and record span ``name`` under an
    enabled ``tracer``.  Returns the closing reading."""
    t1 = time.perf_counter()
    if hist is not None:
        hist.observe(t1 - t0)
    if tracer is not None:
        tracer.add_span(name, t0, t1, **attrs)
    return t1


def run_steps(app: SamplingApp, graph: CSRGraph, batch: SampleBatch, ctx,
              on_step: Optional[Callable[[StepRecord], None]] = None
              ) -> int:
    """Run ``app`` over ``batch`` to completion; returns steps executed.

    Per step: ``transits_for_step``; :func:`build_transit_map` groups
    the live (sample, transit) pairs by transit; the step's kernels
    run through ``ctx`` (an
    :class:`~repro.runtime.context.ExecutionContext` that ``begin_run``
    has prepared); the unique pass, if the application asks for one;
    ``on_step(record)``; ``append_step`` / ``post_step``.  The loop ends
    at the application's step limit, at a step with no live transit, or
    after a step that added no vertex to any sample.

    A :func:`walk_shaped` step takes its live slots in sample order
    (:func:`sample_order`) and a collective step its sample rows:
    neither builds a map here; its record does, when first priced.

    ``on_step`` is where an engine collects what its pricing pass will
    replay — the loop itself prices nothing.  Its instruments are
    looked up once per run and fed from its own clock readings.
    """
    backend = active_backend_name()
    collective = app.sampling_type() is SamplingType.COLLECTIVE
    kernels = "collective_kernels" if collective else "individual_kernels"
    # Labeled by stage + backend so one snapshot carries the paper's
    # per-stage breakdown per backend.
    step_hist, index_hist, kernel_hist = (get_metrics().histogram(
        "engine.stage_seconds", labels={"stage": name, "backend": backend})
        for name in ("step", "scheduling_index", kernels))
    tracer = ctx.tracer if ctx.tracer.enabled else None
    limit = step_limit(app)
    # The inherited post_step ignores its generator: skip building one.
    has_post_step = type(app).post_step is not SamplingApp.post_step
    step = 0
    while step < limit:
        t_step = time.perf_counter()
        transits = app.transits_for_step(batch, step)
        t = time.perf_counter()
        tmap = pairs = None
        if collective:
            live = np.count_nonzero(transits != NULL_VERTEX)
        elif walk_shaped(app, transits, step):
            pairs = sample_order(transits)
            live = pairs[1].size
        else:
            tmap = build_transit_map(transits)
            pairs, live = (tmap.rows, tmap.transit_vals), tmap.num_pairs
        t = _lap(t, index_hist, tracer, "scheduling_index", step=step,
                 backend=backend, pairs=int(live))
        if live == 0:
            _lap(t_step, step_hist, tracer, "step", step=step)
            break  # no live transits: every sample terminated
        m = app.sample_size(step)
        edges = sizes = None
        width, dups, topups = 0, None, None
        if collective:
            new_vertices, info, edges, sizes = ctx.collective_step(
                app, graph, batch, transits, step)
            if edges is not None:
                batch.record_edges(edges)
        else:
            new_vertices, info = ctx.individual_step(
                app, graph, batch, transits, step, *pairs)
        t = _lap(t, kernel_hist, tracer, kernels, step=step,
                 backend=backend)
        if (not collective and app.unique(step)
                and new_vertices.shape[1] > 1):
            width = new_vertices.shape[1]
            new_vertices, dups, topups = dedupe_and_topup(
                app, graph, transits, new_vertices, step,
                ctx.topup_rng(step))
            _lap(t, None, tracer, "make_unique", step=step)
        if on_step is not None:
            on_step(StepRecord(
                step, transits, m, info, collective, edges is not None,
                sizes, width, dups, topups,
                None if tmap is None else tmap.shape()))
        t = time.perf_counter()
        batch.append_step(new_vertices)
        if has_post_step:
            app.post_step(batch, new_vertices, step,
                          ctx.post_step_rng(step))
        _lap(t, None, tracer, "post_step", step=step)
        ended = m > 0 and not any_live(new_vertices)
        _lap(t_step, step_hist, tracer, "step", step=step)
        step += 1
        if ended:
            break  # nothing added anywhere: all samples ended
    return step


#: Vertices the end-of-walk check reads at a time.
LIVE_BLOCK = 4096


def any_live(vertices: np.ndarray) -> bool:
    """Any non-NULL entry?  Reads blocks up to the first live one."""
    flat = vertices.reshape(-1)
    for lo in range(0, flat.size, LIVE_BLOCK):
        if np.count_nonzero(flat[lo:lo + LIVE_BLOCK] != NULL_VERTEX):
            return True
    return False
