"""Shared functional stepping logic."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines
from repro.api.apps import DeepWalk, KHop, Layer, Node2Vec
from repro.api.types import NULL_VERTEX
from repro.core import stepper
from repro.core.engine import NextDoorEngine
from repro.core.large_graph import LargeGraphNextDoor
from repro.core.transit_map import build_transit_map
from repro.gpu.device import Device
from repro.native.backend import active_backend_name
from repro.obs import get_metrics
from repro.runtime.context import ExecutionContext
from repro.serve.protocol import batch_digest
from repro.verify.differential import reference_view
from repro.verify.golden import GOLDEN_CASES
from repro.verify.golden import _NUM_SAMPLES as GOLDEN_SAMPLES
from repro.verify.golden import _golden_graph as golden_graph

ALL_ENGINES = [NextDoorEngine, LargeGraphNextDoor] + [
    getattr(repro.baselines, name) for name in repro.baselines.__all__]


def _ctx(seed=0):
    """A one-process context: what every step runs through."""
    return ExecutionContext(seed, workers=0)


class TestInitBatch:
    def test_from_num_samples(self, medium_graph, rng):
        batch = stepper.init_batch(DeepWalk(5), medium_graph, 16, None, rng)
        assert batch.num_samples == 16
        assert batch.roots.shape == (16, 1)

    def test_from_roots(self, medium_graph, rng):
        roots = np.arange(6, dtype=np.int64)[:, None]
        batch = stepper.init_batch(DeepWalk(5), medium_graph, None, roots,
                                   rng)
        assert np.array_equal(batch.roots, roots)

    def test_neither_rejected(self, medium_graph, rng):
        with pytest.raises(ValueError):
            stepper.init_batch(DeepWalk(5), medium_graph, None, None, rng)

    def test_state_installed(self, medium_graph, rng):
        from repro.api.apps import MultiRW
        batch = stepper.init_batch(MultiRW(num_roots=4, walk_length=3),
                                   medium_graph, 8, None, rng)
        assert "roots" in batch.state


class TestStepLimit:
    def test_fixed(self):
        assert stepper.step_limit(DeepWalk(17)) == 17

    def test_inf_uses_cap(self):
        from repro.api.apps import PPR
        assert stepper.step_limit(PPR(max_steps=99)) == 99


class TestPrevTransits:
    def test_step_zero_none(self, medium_graph, rng):
        batch = stepper.init_batch(DeepWalk(3), medium_graph, 4, None, rng)
        assert stepper.prev_transits_for(batch, 0, np.arange(4), 1) is None

    def test_step_one_roots(self, medium_graph, rng):
        batch = stepper.init_batch(DeepWalk(3), medium_graph, 4, None, rng)
        batch.append_step(np.arange(4)[:, None])
        prev = stepper.prev_transits_for(batch, 1, np.arange(4), 1)
        assert np.array_equal(prev, batch.roots[:, 0])

    def test_step_two_previous_step(self, medium_graph, rng):
        batch = stepper.init_batch(DeepWalk(3), medium_graph, 4, None, rng)
        batch.append_step(np.array([[10], [11], [12], [13]]))
        batch.append_step(np.array([[20], [21], [22], [23]]))
        prev = stepper.prev_transits_for(batch, 2, np.arange(4), 1)
        assert list(prev) == [10, 11, 12, 13]

    def test_wide_step_reads_its_sample_and_column(self, medium_graph,
                                                   rng):
        batch = stepper.init_batch(DeepWalk(3), medium_graph, 2, None, rng)
        batch.append_step(np.array([[10, 11], [12, 13]]))
        batch.append_step(np.array([[20, 21, 22], [23, 24, 25]]))
        # Slots 1, 2, 5 of a (2, 3) step: (0, 1), (0, 2), (1, 2).
        prev = stepper.prev_transits_for(batch, 2, np.array([1, 2, 5]), 3)
        assert list(prev) == [11, 11, 13]


def _pairs(transits):
    """``run_individual_step``'s ``(sample_ids, cols, transit_vals)``
    for a step's live pairs in sample order."""
    rows = np.flatnonzero(transits.ravel() != NULL_VERTEX)
    width = transits.shape[1]
    return rows // width, rows % width, transits.ravel()[rows]


class TestIndividualStep:
    def test_scatter_back_shape(self, medium_graph, rng):
        app = KHop((4,))
        batch = stepper.init_batch(app, medium_graph, 8, None, rng)
        transits = app.transits_for_step(batch, 0)
        out, info = stepper.run_individual_step(
            app, medium_graph, batch, transits, 0, _ctx(),
            *_pairs(transits))
        assert out.shape == (8, 4)
        assert (out != NULL_VERTEX).all()

    def test_null_transits_stay_null(self, medium_graph, rng):
        app = DeepWalk(3)
        batch = stepper.init_batch(app, medium_graph, 3, None, rng)
        transits = np.array([[NULL_VERTEX], [0], [NULL_VERTEX]])
        out, _ = stepper.run_individual_step(
            app, medium_graph, batch, transits, 0, _ctx(),
            *_pairs(transits))
        assert out[0, 0] == NULL_VERTEX
        assert out[2, 0] == NULL_VERTEX

    def test_prev_transits_threaded_for_node2vec(self, medium_graph, rng):
        app = Node2Vec(walk_length=3)
        batch = stepper.init_batch(app, medium_graph, 8, None, rng)
        batch.append_step(app.transits_for_step(batch, 0))
        transits = app.transits_for_step(batch, 1)
        out, info = stepper.run_individual_step(
            app, medium_graph, batch, transits, 1, _ctx(),
            *_pairs(transits))
        assert out.shape == (8, 1)


def _elementwise_scatter(num_samples, num_cols, m, sample_ids, cols,
                         sampled):
    """The (sample, slot) element scatter the row scatter replaced."""
    out = np.full((num_samples, num_cols * m), NULL_VERTEX, dtype=np.int64)
    slots = cols[:, None] * m + np.arange(m)[None, :]
    out[sample_ids[:, None], slots] = sampled
    return out


class TestStepOutput:
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([0, 1, 3]),
           num_cols=st.sampled_from([1, 4]),
           null_frac=st.sampled_from([0.0, 0.3, 1.0]),
           hook=st.sampled_from(["uniform_neighbors", "weighted_neighbors"]))
    @settings(max_examples=80, deadline=None)
    def test_shuffled_chunks_assemble_like_the_element_scatter(
            self, seed, m, num_cols, null_frac, hook):
        """Each chunk's draw writes its own rows, in shuffled chunk
        order, through the active backend's hook.  With no NULL transit
        (``null_frac`` 0) the array starts uninitialised and every row
        must come from its pair, a zero-degree transit's too."""
        from repro.api.apps import _kernels
        draw = getattr(_kernels, hook)
        rng = np.random.default_rng(seed)
        num_samples = int(rng.integers(1, 40))
        transits = rng.integers(0, 50, size=(num_samples, num_cols))
        transits[rng.random(transits.shape) < null_frac] = NULL_VERTEX
        tmap = build_transit_map(transits)  # transit-sorted pair order
        out, out_rows = stepper.step_output(
            num_samples, num_cols, m, tmap.rows)
        cuts = np.unique(rng.integers(0, tmap.num_pairs + 1, size=5))
        bounds = np.concatenate(([0], cuts, [tmap.num_pairs]))
        chunks = list(zip(bounds[:-1], bounds[1:]))
        g = _assembly_graph()
        for c in rng.permutation(len(chunks)):
            lo, hi = chunks[c]
            assert draw(g, tmap.transit_vals[lo:hi], m,
                        np.random.default_rng([seed, c]), out_rows,
                        tmap.rows[lo:hi]) is None
        sampled = np.concatenate([np.empty((0, m), dtype=np.int64)] + [
            draw(g, tmap.transit_vals[lo:hi], m,
                 np.random.default_rng([seed, c]))
            for c, (lo, hi) in enumerate(chunks)])
        assert np.array_equal(out, _elementwise_scatter(
            num_samples, num_cols, m, tmap.sample_ids, tmap.cols, sampled))
        null_slots = np.repeat(transits == NULL_VERTEX, m, axis=1)
        assert (out[null_slots] == NULL_VERTEX).all()
        zero_degree = np.repeat(transits >= 45, m, axis=1)
        assert (out[zero_degree] == NULL_VERTEX).all()


def _assembly_graph():
    """Weighted, 50 vertices; 45-49 have no out-edge."""
    from repro.graph.csr import CSRGraph
    edges = np.random.default_rng(50).integers(0, 45, size=(400, 2))
    return CSRGraph.from_edges(50, edges).with_random_weights(seed=1)


class _ShuffledContext(ExecutionContext):
    """Runs a step's chunks one after another, in a shuffled order."""

    def __init__(self, seed, rng, **kwargs):
        super().__init__(seed, **kwargs)
        self.rng = rng

    def _sample_chunks(self, step, bounds, unit, run_chunk, threaded):
        infos = [None] * (len(bounds) - 1)
        for c in self.rng.permutation(len(infos)).tolist():
            infos[c] = run_chunk(c)
        return infos


class TestChunkedAssembly:
    def _khop_step(self, graph, ctx, num_samples, m=3):
        """Step 1 of k-hop (T = 4 transits per sample, ``m`` each)."""
        app = KHop((4, m))
        batch = stepper.init_batch(app, graph, num_samples, None,
                                   ctx.init_rng())
        t0 = app.transits_for_step(batch, 0)
        first, _ = stepper.run_individual_step(
            app, graph, batch, t0, 0, ctx, *_pairs(t0))
        batch.append_step(first)
        transits = app.transits_for_step(batch, 1)
        tmap = build_transit_map(transits, graph)
        return app, batch, transits, tmap

    @pytest.mark.parametrize("workers", [0, 2])
    def test_arrival_order_does_not_matter(self, medium_graph, rng,
                                           workers, backend,
                                           set_chunk_pairs):
        """Chunks finishing in any order assemble the step that
        ``workers`` threads (or the calling thread alone) assemble."""
        set_chunk_pairs(64)
        outs = []
        for shuffled in (False, True):
            ctx = (_ShuffledContext(11, rng) if shuffled
                   else ExecutionContext(11, workers=workers))
            app, batch, transits, tmap = self._khop_step(
                medium_graph, ctx, 100)
            assert tmap.num_pairs > 3 * 64  # several chunks to shuffle
            outs.append(stepper.run_individual_step(
                app, medium_graph, batch, transits, 1, ctx,
                tmap.sample_ids, tmap.cols, tmap.transit_vals))
        (out, info), (shuffled_out, shuffled_info) = outs
        assert out.shape == (100, 12)
        assert np.array_equal(out, shuffled_out)
        assert info == shuffled_info

    def test_step_is_assembled_in_place(self, medium_graph, set_chunk_pairs):
        """No second step-sized array: the peak is ``out`` plus one
        chunk's working set plus the pair-row index, where a
        concatenate-then-scatter assembly peaks near 3x ``out``."""
        set_chunk_pairs(1024)
        ctx = ExecutionContext(5, workers=0)
        app, batch, transits, tmap = self._khop_step(
            medium_graph, ctx, 8192, m=10)
        # The step's inputs, derived before the trace: not its memory.
        sample_ids, cols = tmap.sample_ids, tmap.cols
        tracemalloc.start()
        try:
            out, _ = stepper.run_individual_step(
                app, medium_graph, batch, transits, 1, ctx,
                sample_ids, cols, tmap.transit_vals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.nbytes == 8192 * 40 * 4     # int32 vertex ids
        assert peak < 1.5 * out.nbytes


class TestCollectiveStep:
    def test_sizes_reported(self, medium_graph, rng):
        app = Layer(step_size=5, max_size=50)
        batch = stepper.init_batch(app, medium_graph, 4, None, rng)
        transits = app.transits_for_step(batch, 0)
        out, info, edges, sizes = stepper.run_collective_step(
            app, medium_graph, batch, transits, 0, _ctx())
        expected = [medium_graph.degree(int(r)) for r in batch.roots[:, 0]]
        assert list(sizes) == expected

    @staticmethod
    def _materialisations(app, graph, rng, num_samples, monkeypatch):
        """How often one collective step of ``app`` builds the combined
        neighbourhood's values."""
        from repro.api.apps import _kernels
        calls = []
        original = _kernels.build_combined_neighborhood

        def spy(graph, transits):
            calls.append(1)
            return original(graph, transits)

        monkeypatch.setattr(_kernels, "build_combined_neighborhood", spy)
        batch = stepper.init_batch(app, graph, num_samples, None, rng)
        transits = app.transits_for_step(batch, 0)
        stepper.run_collective_step(app, graph, batch, transits, 0, _ctx())
        return len(calls)

    def test_lazy_path_skips_materialisation(self, medium_graph, rng,
                                             monkeypatch):
        app = Layer(step_size=5, max_size=50)  # needs_combined_values=False
        assert not self._materialisations(app, medium_graph, rng, 4,
                                          monkeypatch)

    def test_reference_forces_materialisation(self, medium_graph, rng,
                                              monkeypatch):
        app = reference_view(Layer(step_size=2, max_size=6))
        assert self._materialisations(app, medium_graph, rng, 2,
                                      monkeypatch)


# ---------------------------------------------------------------------------
# run_steps: the one step loop
# ---------------------------------------------------------------------------


def _sample_only(app, graph, seed, on_step=None):
    """``run_steps`` driven directly, the way an engine drives it."""
    ctx = ExecutionContext(seed)
    batch = stepper.init_batch(app, graph, GOLDEN_SAMPLES, None,
                               ctx.init_rng())
    ctx.begin_run(app, graph)
    return batch, stepper.run_steps(app, graph, batch, ctx, on_step=on_step)


class TestRunSteps:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_sample_only_digest_and_charge_replay(self, case):
        """``on_step=None`` samples what the engine samples, and the
        step records alone re-derive the engine's modeled seconds
        exactly — including the ``unique`` and INF-step applications."""
        factory, weighted, seed = GOLDEN_CASES[case]
        graph = golden_graph(weighted)
        engine = NextDoorEngine()
        result = engine.run(factory(), graph, num_samples=GOLDEN_SAMPLES,
                            seed=seed)
        digest = batch_digest(result.batch)

        batch, steps = _sample_only(factory(), graph, seed)
        assert steps == result.steps_run
        assert batch_digest(batch) == digest

        records = []
        app = factory()
        batch, steps = _sample_only(app, graph, seed,
                                    on_step=records.append)
        assert batch_digest(batch) == digest
        assert [r.step for r in records] == list(range(steps))
        if case == "khop_unique":
            assert any(r.unique_width for r in records)
        # The CPU price lists' live-pair count is the map's.
        assert [r.num_pairs for r in records] == [
            r.tmap.num_pairs for r in records]
        device = Device()
        for record in records:
            engine._charge_step(device, graph, batch, record)
        engine._charge_output_materialisation(device, app, batch, steps)
        assert device.elapsed_seconds == result.seconds

    def test_post_step_generator_only_for_an_override(self, medium_graph,
                                                      monkeypatch):
        """The inherited no-op ``post_step`` costs no generator a step;
        an app that overrides it (MultiRW) still gets one per step."""
        from repro.api.apps import MultiRW
        made = []
        inner = ExecutionContext.post_step_rng

        def counted(self, step):
            made.append(step)
            return inner(self, step)

        monkeypatch.setattr(ExecutionContext, "post_step_rng", counted)
        _, steps = _sample_only(DeepWalk(walk_length=4), medium_graph, 3)
        assert steps == 4 and made == []
        _, steps = _sample_only(MultiRW(num_roots=4, walk_length=3),
                                medium_graph, 3)
        assert made == list(range(steps)) and steps > 0

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES,
                             ids=lambda cls: cls.__name__)
    def test_every_engine_runs_the_shared_loop(self, engine_cls,
                                               medium_weighted,
                                               monkeypatch):
        """One ``run_steps`` call per run, whatever the engine or the
        device count — and with it the per-stage histograms the
        hand-written loops of the CPU engines never had."""
        calls = []
        inner = stepper.run_steps

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(stepper, "run_steps", counted)
        kwargs = ({"modeled_graph_bytes": 1 << 34}
                  if engine_cls is LargeGraphNextDoor else {})
        step_hist = get_metrics().histogram(
            "engine.stage_seconds",
            labels={"stage": "step", "backend": active_backend_name()})
        before = step_hist.count
        result = engine_cls(**kwargs).run(
            DeepWalk(walk_length=6), medium_weighted, num_samples=48,
            seed=2)
        assert len(calls) == 1
        assert step_hist.count - before >= result.steps_run == 6
        if issubclass(engine_cls, NextDoorEngine):
            del calls[:]
            engine_cls(**kwargs).run(
                DeepWalk(walk_length=6), medium_weighted, num_samples=48,
                seed=2, num_devices=2)
            assert len(calls) == 1
