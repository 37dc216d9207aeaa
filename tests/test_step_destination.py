"""The individual-step draws write the step's rows themselves.

Two edges of that contract: a step with no NULL slot is assembled in an
uninitialised array, so every row — a zero-degree transit's too — must
be written by its pair; and an app whose hook returns its array (the
per-vertex reference path, a hook written without the destination) is
assembled by the runtime to the same samples as one that writes in
place over the same draws.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.apps import DeepWalk, KHop
from repro.api.apps._kernels import uniform_neighbors
from repro.api.types import NULL_VERTEX, StepInfo
from repro.core import stepper
from repro.core.engine import NextDoorEngine
from repro.graph.csr import CSRGraph
from repro.native.backend import available_backends, backend_scope
from repro.runtime.context import ExecutionContext
from repro.serve.protocol import batch_digest
from repro.verify.differential import reference_view

BACKENDS = available_backends()

#: What an uninitialised step array holds in these tests.
SENTINEL = 987_654_321


def _graph_with_sinks(weighted):
    """300 vertices; 250-299 have no out-edge."""
    edges = np.random.default_rng(4).integers(0, 250, size=(3000, 2))
    edges[::7, 1] += 50     # some edges lead into the sinks
    g = CSRGraph.from_edges(300, edges, name="sinks")
    return g.with_random_weights(seed=4) if weighted else g


@pytest.mark.parametrize("backend_name,workers",
                         [(b, 0) for b in BACKENDS]
                         + [(b, 2) for b in BACKENDS if b != "numpy"])
@pytest.mark.parametrize("app,weighted", [(KHop(fanouts=(4,)), False),
                                          (DeepWalk(walk_length=1), True)],
                         ids=["khop", "weighted_walk"])
def test_zero_degree_rows_read_null_without_a_null_slot(
        monkeypatch, set_chunk_pairs, backend_name, workers, app, weighted):
    set_chunk_pairs(64)
    g = _graph_with_sinks(weighted)
    transits = np.random.default_rng(5).integers(0, 300, size=(200, 1))
    assert (transits >= 250).any() and (transits != NULL_VERTEX).all()
    real = stepper.step_output

    def dirty_step_output(num_samples, num_cols, m, rows):
        # No NULL slot: ``out`` is uninitialised memory, here garbage.
        out, out_rows = real(num_samples, num_cols, m, rows)
        out.fill(SENTINEL)
        return out, out_rows

    monkeypatch.setattr(stepper, "step_output", dirty_step_output)
    batch = stepper.init_batch(app, g, transits.shape[0], transits,
                               np.random.default_rng(0))
    sample_ids = np.arange(transits.shape[0])
    with backend_scope(backend_name):
        ctx = ExecutionContext(3, workers=workers)
        ctx.begin_run(app, g)
        out, _ = stepper.run_individual_step(
            app, g, batch, transits, 0, ctx, sample_ids, 0 * sample_ids,
            transits[:, 0])
    assert not (out == SENTINEL).any()
    sinks = transits[:, 0] >= 250
    assert (out[sinks] == NULL_VERTEX).all()
    assert (out[~sinks] != NULL_VERTEX).all()


class ReturningKHop(KHop):
    """A hook in the docs' returning form: no destination parameters,
    the picks returned for the runtime to place."""

    def sample_neighbors(self, graph, transits, step, rng,
                         prev_transits=None, batch=None, sample_ids=None):
        out = uniform_neighbors(graph, transits, self.sample_size(step), rng)
        return out, StepInfo(avg_compute_cycles=8.0)


class UniformNextKHop(KHop):
    """k-hop whose per-vertex ``next`` consumes one double per pick in
    the vectorised draw's order, so its reference path (which returns
    its array) and its in-place vectorised path draw the same
    vertices."""

    def next(self, sample, transits, src_edges, step, rng):
        d = src_edges.size
        if d == 0:
            return NULL_VERTEX
        return int(src_edges[min(int(rng.random() * d), d - 1)])


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("workers", [0, 2])
def test_returned_arrays_assemble_like_in_place_draws(
        medium_graph, backend_name, workers):
    def digest(app):
        with backend_scope(backend_name):
            return batch_digest(NextDoorEngine(workers=workers).run(
                app, medium_graph, num_samples=96, seed=17).batch)

    fanouts = (4, 3)
    want = digest(UniformNextKHop(fanouts=fanouts))
    assert digest(KHop(fanouts=fanouts)) == want
    assert digest(ReturningKHop(fanouts=fanouts)) == want
    assert digest(reference_view(UniformNextKHop(fanouts=fanouts))) == want
