"""Shared functional stepping logic.

Every engine in this reproduction — NextDoor, SP, TP, the
graph-framework baselines — must produce *statistically identical*
samples; they differ only in how the work is organised on the device,
which is what the performance model prices.  This module holds the
functional half they share: initialising batches, flattening transits,
running one step's sampling, and scattering results back into the
batch's rectangular step arrays.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.api.app import SamplingApp
from repro.api.apps._kernels import build_combined_neighborhood
from repro.api.sample import SampleBatch
from repro.api.types import INF_STEPS, NULL_VERTEX, StepInfo
from repro.graph.csr import CSRGraph

__all__ = [
    "init_batch",
    "step_limit",
    "prev_transits_for",
    "step_output",
    "run_individual_step",
    "run_collective_step",
]


def init_batch(app: SamplingApp, graph: CSRGraph,
               num_samples: Optional[int],
               roots: Optional[np.ndarray],
               rng: np.random.Generator) -> SampleBatch:
    """Create the initial batch from explicit roots or the app's
    automatic root selection.

    Explicit roots are always *original* vertex ids: on a relabeled
    graph they are mapped through the permutation here, so callers
    never deal in new-space ids.
    """
    if roots is None:
        if num_samples is None:
            raise ValueError("provide either num_samples or roots")
        roots = app.initial_roots(graph, num_samples, rng)
    else:
        roots = np.asarray(roots, dtype=np.int64)
        perm = getattr(graph, "relabel_perm", None)
        if perm is not None:
            roots = perm[roots]
    batch = SampleBatch(graph, np.asarray(roots, dtype=np.int64))
    app.init_state(batch, rng)
    return batch


def step_limit(app: SamplingApp) -> int:
    """Number of steps to run: ``steps()`` or the INF cap."""
    k = app.steps()
    return app.max_steps_cap() if k == INF_STEPS else k


def prev_transits_for(batch: SampleBatch, step: int,
                      sample_ids: np.ndarray,
                      cols: np.ndarray) -> Optional[np.ndarray]:
    """Previous-step transit for each pair (node2vec's ``t``).

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
    col = np.minimum(cols, source.shape[1] - 1)
    return source[sample_ids, col]


def step_output(num_samples: int, num_cols: int, m: int,
                sample_ids: np.ndarray, cols: np.ndarray,
                out: Optional[np.ndarray] = None,
                rows: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Allocate an individual step's ``(S, T * m)`` output and address
    it by pair.

    Returns ``(out, out_rows, rows)``: ``out_rows`` is ``out`` viewed as
    one ``m``-wide row per (sample, transit column) slot and ``rows[i]``
    is the row pair ``i`` owns, so any run of pairs' results lands with
    one row scatter, ``out_rows[rows[lo:hi]] = sampled[lo:hi]`` — in
    any order, since pairs own disjoint rows.  Slots of NULL transits
    are never addressed and read NULL.  The pairs are the step's live
    slots, one row each: when there are as many as slots every row is
    written by its pair, and ``out`` is left uninitialised until then.

    ``out`` (``S * T * m`` int64 values, any shape) and ``rows`` (one
    int64 per pair) are used in place of fresh arrays when given — a
    step staged in shared memory brings its own.
    """
    if out is None:
        out = np.empty(num_samples * num_cols * m, dtype=np.int64)
    if rows is None:
        rows = np.empty(sample_ids.size, dtype=np.int64)
    if sample_ids.size < num_samples * num_cols:
        out.fill(NULL_VERTEX)
    np.multiply(sample_ids, num_cols, out=rows)
    rows += cols
    return (out.reshape(num_samples, num_cols * m),
            out.reshape(num_samples * num_cols, m), rows)


def run_individual_step(
    app: SamplingApp,
    graph: CSRGraph,
    batch: SampleBatch,
    transits: np.ndarray,
    step: int,
    rng: np.random.Generator,
    sample_ids: np.ndarray,
    cols: np.ndarray,
    transit_vals: np.ndarray,
    use_reference: bool = False,
) -> Tuple[np.ndarray, StepInfo]:
    """Sample one individual-transit step over pre-flattened pairs.

    The pair arrays may be in any order (NextDoor passes them
    transit-sorted; SP passes them sample-ordered); results scatter
    back by (sample, col) either way.  Returns the ``(S, T * m)`` new
    vertex array and the step's cost hints.

    ``rng`` is either a plain ``np.random.Generator`` — the step is
    sampled with one whole-step call on that stream — or an
    :class:`~repro.runtime.context.ExecutionContext`, which executes
    the step as deterministic fixed-size chunks (in-process or on the
    worker pool; bitwise-identical either way).
    """
    if not isinstance(rng, np.random.Generator):
        return rng.individual_step(app, graph, batch, transits, step,
                                   sample_ids, cols, transit_vals,
                                   use_reference=use_reference)
    out, out_rows, rows = step_output(
        batch.num_samples, transits.shape[1], app.sample_size(step),
        sample_ids, cols)
    prev = None
    if app.needs_prev_transits:
        prev = prev_transits_for(batch, step, sample_ids, cols)
    sampler = (SamplingApp.sample_neighbors.__get__(app)
               if use_reference else app.sample_neighbors)
    sampled, info = sampler(graph, transit_vals, step, rng,
                            prev_transits=prev, batch=batch,
                            sample_ids=sample_ids)
    out_rows[rows] = sampled
    return out, info


def run_collective_step(
    app: SamplingApp,
    graph: CSRGraph,
    batch: SampleBatch,
    transits: np.ndarray,
    step: int,
    rng: np.random.Generator,
    use_reference: bool = False,
) -> Tuple[np.ndarray, StepInfo, Optional[np.ndarray], np.ndarray]:
    """Sample one collective-transit step.

    Returns ``(new_vertices, info, recorded_edges, neighborhood_sizes)``
    where ``neighborhood_sizes[s]`` is the combined-neighborhood size of
    sample ``s`` (the quantity the construction kernels are priced on).

    When the application declares ``needs_combined_values = False``
    (and the reference path is not forced), only the neighborhood
    *offsets* are computed — hub-heavy transit sets would otherwise
    materialise multi-gigabyte arrays.

    ``rng`` may be an
    :class:`~repro.runtime.context.ExecutionContext` instead of a
    generator, exactly as in :func:`run_individual_step`.
    """
    if not isinstance(rng, np.random.Generator):
        return rng.collective_step(app, graph, batch, transits, step,
                                   use_reference=use_reference)
    if app.needs_combined_values or use_reference:
        values, offsets = build_combined_neighborhood(graph, transits)
    else:
        t = np.asarray(transits, dtype=np.int64)
        flat = t.ravel()
        live = flat != NULL_VERTEX
        deg = np.zeros(flat.size, dtype=np.int64)
        deg[live] = graph.degrees_array[flat[live]]
        per_sample = deg.reshape(t.shape[0], -1).sum(axis=1)
        offsets = np.zeros(t.shape[0] + 1, dtype=np.int64)
        np.cumsum(per_sample, out=offsets[1:])
        values = None
    chooser = (SamplingApp.sample_from_neighborhood.__get__(app)
               if use_reference else app.sample_from_neighborhood)
    new_vertices, info = chooser(graph, batch, values, offsets, transits,
                                 step, rng)
    edges = app.record_step_edges(graph, batch, transits, new_vertices, step)
    return new_vertices, info, edges, np.diff(offsets)
