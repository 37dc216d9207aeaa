"""Walk-shaped steps run in sample order; their index is built to price.

A walk-shaped step (``stepper.walk_shaped``: one transit per sample,
at most two draws per transit, no unique pass) runs its live slots in
sample order whatever pairs it is handed, so a loop that drives steps
by hand with transit-grouped pairs (the perf ledger's) samples what
``engine.run`` samples, and every engine class samples the same walks.
The run builds no scheduling index for such a step: its record builds
one when the run is first priced, and the price equals a replay of
eagerly built shapes.
"""

import numpy as np
import pytest

from repro.api.app import SamplingApp
from repro.api.apps import MHRW, PPR, RWR, DeepWalk, KHop, MultiRW, Node2Vec
from repro.api.types import NULL_VERTEX, SamplingType, StepInfo
from repro.baselines import (KnightKingEngine, ReferenceSamplerEngine,
                             SampleParallelEngine, VanillaTPEngine)
from repro.core import stepper
from repro.core.engine import NextDoorEngine
from repro.core.transit_map import build_transit_map
from repro.gpu.device import Device
from repro.native.backend import available_backends, backend_scope
from repro.runtime.context import ExecutionContext
from repro.serve.protocol import batch_digest

SAMPLES = 300
CHUNK = 64  # several chunks per step, so chunk order matters
SEED = 21

WALKS = {
    "deepwalk": lambda: DeepWalk(walk_length=8),
    "ppr": lambda: PPR(termination_prob=0.1, max_steps=20),
    "node2vec": lambda: Node2Vec(p=2.0, q=0.5, walk_length=6),
    "multirw": lambda: MultiRW(num_roots=4, walk_length=6),
    "rwr": lambda: RWR(restart_prob=0.2, walk_length=8),
    "mhrw": lambda: MHRW(walk_length=8),
}


@pytest.fixture(autouse=True)
def _small_chunks(set_chunk_pairs):
    set_chunk_pairs(CHUNK)


def _grouped(transits):
    """Pairs as the ledger's loop hands them over: transit-grouped."""
    tmap = build_transit_map(transits)
    return tmap.sample_ids, tmap.cols, tmap.transit_vals


def _sample_order(transits):
    rows = np.flatnonzero(transits.ravel() != NULL_VERTEX)
    width = transits.shape[1]
    return rows // width, rows % width, transits.ravel()[rows]


def _hand_loop(app, graph, workers, order):
    """The perf ledger's step loop: every step through
    ``stepper.run_individual_step`` with pairs in ``order``."""
    ctx = ExecutionContext(SEED, workers=workers)
    batch = stepper.init_batch(app, graph, SAMPLES, None, ctx.init_rng())
    ctx.begin_run(app, graph)
    for step in range(stepper.step_limit(app)):
        transits = app.transits_for_step(batch, step)
        sample_ids, cols, vals = order(transits)
        if vals.size == 0:
            break
        new, _ = stepper.run_individual_step(
            app, graph, batch, transits, step, ctx, sample_ids, cols, vals)
        batch.append_step(new)
        app.post_step(batch, new, step, ctx.post_step_rng(step))
        if not (new != NULL_VERTEX).any():
            break
    return batch_digest(batch)


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("name", sorted(WALKS))
def test_hand_driven_steps_sample_what_the_engine_samples(
        name, backend, workers, medium_weighted):
    """Grouped and sample-order pairs give ``engine.run``'s digest, at
    workers 0 and 2 (chunk threads under either backend)."""
    with backend_scope(backend):
        engine = NextDoorEngine(workers=workers)
        expected = batch_digest(engine.run(
            WALKS[name](), medium_weighted, num_samples=SAMPLES,
            seed=SEED).batch)
        for order in (_grouped, _sample_order):
            assert _hand_loop(WALKS[name](), medium_weighted, workers,
                              order) == expected, order.__name__


@pytest.mark.parametrize("name", sorted(WALKS))
def test_walks_are_identical_across_engine_classes(name, medium_weighted):
    digests = {
        cls.__name__: batch_digest(cls().run(
            WALKS[name](), medium_weighted, num_samples=SAMPLES,
            seed=SEED).batch)
        for cls in (NextDoorEngine, SampleParallelEngine, VanillaTPEngine,
                    KnightKingEngine, ReferenceSamplerEngine)}
    assert len(set(digests.values())) == 1, digests


@pytest.fixture
def index_builds(monkeypatch):
    """Every scheduling-index build, in the run or in its pricing."""
    calls = []

    def counting(transits, graph=None):
        calls.append(1)
        return build_transit_map(transits, graph)

    monkeypatch.setattr(stepper, "build_transit_map", counting)
    return calls


class TestIndexOnlyWhenPriced:
    @pytest.mark.parametrize("name", ["deepwalk", "ppr", "multirw"])
    def test_unpriced_walk_builds_no_index(self, name, medium_weighted,
                                           index_builds):
        engine = NextDoorEngine()
        result = engine.run(WALKS[name](), medium_weighted,
                            num_samples=SAMPLES, seed=SEED)
        assert result.steps_run > 0 and index_builds == []
        result.seconds
        assert len(index_builds) == result.steps_run
        result.breakdown  # priced once: no second build
        assert len(index_builds) == result.steps_run

    def test_bulk_step_builds_its_index_in_the_run(self, medium_graph,
                                                   index_builds):
        """k-hop steps are not walk-shaped: each is grouped while the
        run samples, and pricing reuses that shape."""
        engine = NextDoorEngine()
        result = engine.run(KHop(fanouts=(5, 3)), medium_graph,
                            num_samples=SAMPLES, seed=SEED)
        assert len(index_builds) == result.steps_run == 2
        result.seconds
        assert len(index_builds) == 2

    @pytest.mark.parametrize("name", sorted(WALKS))
    def test_lazy_price_equals_eager_shapes(self, name, medium_weighted):
        engine = NextDoorEngine()
        result = engine.run(WALKS[name](), medium_weighted,
                            num_samples=SAMPLES, seed=SEED)
        app, records = WALKS[name](), []

        def eager(record):
            assert record.shape is None  # walk-shaped: no index built
            record.shape = build_transit_map(record.transits).shape()
            records.append(record)

        ctx = ExecutionContext(SEED)
        batch = stepper.init_batch(app, medium_weighted, SAMPLES, None,
                                   ctx.init_rng())
        ctx.begin_run(app, medium_weighted)
        steps = stepper.run_steps(app, medium_weighted, batch, ctx,
                                  on_step=eager)
        assert batch_digest(batch) == batch_digest(result.batch)
        device = Device()
        for record in records:
            engine._charge_step(device, medium_weighted, batch, record)
        engine._charge_output_materialisation(device, app, batch, steps)
        assert device.elapsed_seconds == result.seconds
        assert device.timeline.phase_breakdown() == result.breakdown


class TestWalkShaped:
    def test_predicate(self):
        column = np.zeros((4, 1), dtype=np.int64)
        assert stepper.walk_shaped(DeepWalk(), column, 0)
        assert not stepper.walk_shaped(KHop(fanouts=(25, 10)), column, 0)
        assert not stepper.walk_shaped(DeepWalk(), np.zeros((4, 2)), 0)
        assert stepper.walk_shaped(KHop(fanouts=(2,)), column, 0)
        assert not stepper.walk_shaped(
            KHop(fanouts=(2,), unique_per_step=True), column, 0)


class _Sparse(SamplingApp):
    """Three one-vertex steps whose draws are all NULL except, with
    ``keep_last``, the last sample's: a stand-in for a walk whose
    samples all ended but one."""

    name = "sparse"

    def __init__(self, keep_last: bool) -> None:
        self.keep_last = keep_last

    def steps(self) -> int:
        return 3

    def sample_size(self, step: int) -> int:
        return 1

    def sampling_type(self) -> SamplingType:
        return SamplingType.INDIVIDUAL

    def next(self, sample, transits, src_edges, step, rng):
        return NULL_VERTEX

    def sample_neighbors(self, graph, transits, step, rng,
                         prev_transits=None, batch=None, sample_ids=None):
        out = np.full((transits.size, 1), NULL_VERTEX, dtype=np.int64)
        if self.keep_last:
            out[sample_ids == batch.num_samples - 1] = 0
        return out, StepInfo()


class TestEndOfWalk:
    # Past two blocks of the scan, so the live vertex sits in the last.
    ROOTS = np.zeros((2 * stepper.LIVE_BLOCK + 5, 1), dtype=np.int64)

    def _steps(self, app, medium_graph):
        ctx = ExecutionContext(SEED)
        batch = stepper.init_batch(app, medium_graph, None, self.ROOTS,
                                   ctx.init_rng())
        ctx.begin_run(app, medium_graph)
        return stepper.run_steps(app, medium_graph, batch, ctx)

    def test_all_null_step_ends_the_loop(self, medium_graph):
        assert self._steps(_Sparse(keep_last=False), medium_graph) == 1

    def test_last_element_live_keeps_going(self, medium_graph):
        assert self._steps(_Sparse(keep_last=True), medium_graph) == 3

    def test_any_live_reads_every_block(self):
        flat = np.full(3 * stepper.LIVE_BLOCK + 1, NULL_VERTEX)
        assert not stepper.any_live(flat.reshape(-1, 1))
        flat[-1] = 7
        assert stepper.any_live(flat.reshape(-1, 1))
        assert not stepper.any_live(np.zeros((0, 2), dtype=np.int64))
