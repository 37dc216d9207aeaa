"""Validation harness for user-written sampling applications.

A custom :class:`~repro.api.app.SamplingApp` only has to implement the
paper's handful of functions, but subtle contract violations (a
``next`` returning out-of-range ids, a vectorised override whose shape
disagrees with ``sample_size``, state hooks that crash on re-entry)
surface as confusing engine errors.  :func:`validate_app` runs the
application through a battery of small executions and raises
:class:`AppValidationError` with a specific message at the first
violated contract — the error message a sampler author actually wants.

::

    from repro.api.validate import validate_app
    validate_app(MyApp(), graph)   # raises on the first contract break
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.api.app import SamplingApp
from repro.api.types import INF_STEPS, NULL_VERTEX, SamplingType
from repro.graph.csr import VERTEX_DTYPE, CSRGraph

__all__ = ["AppValidationError", "validate_app"]


class AppValidationError(ValueError):
    """A sampling application violated the API contract."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AppValidationError(message)


def validate_app(app: SamplingApp, graph: CSRGraph,
                 num_samples: int = 8, seed: int = 0) -> List[str]:
    """Run ``app`` through the API's contracts; returns the list of
    checks performed (for reporting), raises on the first violation."""
    # Imported here: repro.core depends on repro.api, so a module-level
    # import would cycle through the package initialisers.
    from repro.core import stepper
    from repro.core.engine import NextDoorEngine

    performed: List[str] = []
    rng = np.random.default_rng(seed)

    def did(name: str) -> None:
        performed.append(name)

    # --- declarations -------------------------------------------------
    k = app.steps()
    _check(isinstance(k, (int, np.integer)),
           f"steps() must return an int, got {type(k).__name__}")
    _check(k == INF_STEPS or k >= 1,
           f"steps() must be >= 1 or INF_STEPS, got {k}: an application "
           "with no steps samples nothing")
    did("steps() declaration")

    kind = app.sampling_type()
    _check(isinstance(kind, SamplingType),
           "sampling_type() must return a SamplingType")
    did("sampling_type() declaration")

    limit = min(stepper.step_limit(app), 4)
    for step in range(limit):
        m = app.sample_size(step)
        _check(isinstance(m, (int, np.integer)) and m >= 0,
               f"sample_size({step}) must be a non-negative int, got {m!r}")
        if kind is SamplingType.INDIVIDUAL:
            # A record-only (m = 0) step is a collective notion
            # (ClusterGCN); an individual step that samples nothing
            # produces an empty step array and a dead run.
            _check(m >= 1,
                   f"sample_size({step}) must be >= 1 for individual "
                   f"transit sampling, got {m}")
        _check(isinstance(app.unique(step), (bool, np.bool_)),
               f"unique({step}) must return a bool")
    did("sample_size()/unique() per step")

    if k == INF_STEPS:
        _check(app.max_steps_cap() >= 1,
               "INF-step applications need max_steps_cap() >= 1")
        did("max_steps_cap() for INF apps")

    # --- initial roots -------------------------------------------------
    roots = app.initial_roots(graph, num_samples, rng)
    roots = np.asarray(roots)
    _check(roots.ndim == 2 and roots.shape[0] == num_samples,
           f"initial_roots must be (num_samples, r); got {roots.shape}")
    live_roots = roots[roots != NULL_VERTEX]
    _check(live_roots.size == 0 or (
        live_roots.min() >= 0 and live_roots.max() < graph.num_vertices),
        "initial_roots returned out-of-range vertex ids")
    did("initial_roots shape and range")

    # --- reference next() ---------------------------------------------
    batch = stepper.init_batch(app, graph, num_samples, None,
                               np.random.default_rng(seed))
    transits = app.transits_for_step(batch, 0)
    transits = np.asarray(transits)
    _check(transits.ndim == 2 and transits.shape[0] == num_samples,
           f"transits_for_step must be (num_samples, T); got "
           f"{transits.shape}")
    did("transits_for_step(0) shape")

    sample = batch[0]
    t0 = int(transits[0, 0])
    if t0 != NULL_VERTEX:
        edges = graph.neighbors(t0)
        for _ in range(4):
            v = app.next(sample, np.array([t0]), edges, 0, rng)
            _check(v == NULL_VERTEX
                   or (0 <= int(v) < graph.num_vertices),
                   f"next() returned invalid vertex {v!r}")
        did("next() return range")

    # --- vectorised hook agreement -------------------------------------
    if kind is SamplingType.INDIVIDUAL:
        m = app.sample_size(0)
        flat = transits[:, 0]
        prev = None
        if app.needs_prev_transits:
            prev = np.full(flat.size, NULL_VERTEX, dtype=VERTEX_DTYPE)
        out, info = app.sample_neighbors(graph, flat, 0, rng,
                                         prev_transits=prev, batch=batch,
                                         sample_ids=np.arange(num_samples))
        out = np.asarray(out)
        _check(out.shape == (flat.size, m),
               f"sample_neighbors must return ({flat.size}, {m}); got "
               f"{out.shape}")
        live = out[out != NULL_VERTEX]
        _check(live.size == 0 or (live.min() >= 0
                                  and live.max() < graph.num_vertices),
               "sample_neighbors returned out-of-range vertex ids")
        _check(info.avg_compute_cycles > 0,
               "StepInfo.avg_compute_cycles must be positive")
        did("sample_neighbors shape, range, StepInfo")

    # --- a short end-to-end run ----------------------------------------
    engine = NextDoorEngine()
    result = engine.run(app, graph, num_samples=num_samples, seed=seed)
    _check(result.steps_run >= 1, "engine run produced zero steps")
    arr = result.get_final_samples()
    arrays = arr if isinstance(arr, list) else [arr]
    for a in arrays:
        live = a[a != NULL_VERTEX]
        _check(live.size == 0 or (live.min() >= 0
                                  and live.max() < graph.num_vertices),
               "engine output contains out-of-range vertex ids")
    did("end-to-end engine run")

    # --- determinism -----------------------------------------------------
    again = engine.run(app, graph, num_samples=num_samples, seed=seed)
    arr2 = again.get_final_samples()
    arrays2 = arr2 if isinstance(arr2, list) else [arr2]
    for a, b in zip(arrays, arrays2):
        _check(np.array_equal(a, b),
               "two runs with the same seed produced different samples "
               "(application state is leaking between runs)")
    did("seeded determinism")

    return performed
