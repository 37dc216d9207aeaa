"""NextDoorEngine: the step loop, outputs, determinism, multi-GPU."""

import numpy as np
import pytest

from repro.api.apps import LADIES, DeepWalk, KHop, Layer, MultiRW, PPR
from repro.api.types import NULL_VERTEX
from repro.core.engine import NextDoorEngine, do_sampling
from repro.obs import get_metrics
from repro.serve.protocol import batch_digest
from repro.verify.differential import reference_view


class TestRunBasics:
    def test_deterministic_given_seed(self, medium_graph):
        a = NextDoorEngine().run(DeepWalk(10), medium_graph,
                                 num_samples=64, seed=5)
        b = NextDoorEngine().run(DeepWalk(10), medium_graph,
                                 num_samples=64, seed=5)
        assert np.array_equal(a.get_final_samples(),
                              b.get_final_samples())

    def test_seed_changes_samples(self, medium_graph):
        a = NextDoorEngine().run(DeepWalk(10), medium_graph,
                                 num_samples=64, seed=5)
        b = NextDoorEngine().run(DeepWalk(10), medium_graph,
                                 num_samples=64, seed=6)
        assert not np.array_equal(a.get_final_samples(),
                                  b.get_final_samples())

    def test_explicit_roots(self, medium_graph):
        roots = np.arange(10, dtype=np.int64)[:, None]
        result = NextDoorEngine().run(DeepWalk(5), medium_graph,
                                      roots=roots, seed=0)
        assert np.array_equal(result.batch.roots, roots)

    def test_missing_samples_and_roots_rejected(self, medium_graph):
        with pytest.raises(ValueError):
            NextDoorEngine().run(DeepWalk(5), medium_graph)

    def test_num_devices_validation(self, medium_graph):
        with pytest.raises(ValueError):
            NextDoorEngine().run(DeepWalk(5), medium_graph,
                                 num_samples=8, num_devices=0)

    def test_do_sampling_convenience(self, medium_graph):
        result = do_sampling(DeepWalk(5), medium_graph, 16, seed=1)
        assert result.get_final_samples().shape == (16, 5)


class TestResult:
    def test_breakdown_has_both_phases(self, medium_graph):
        r = NextDoorEngine().run(DeepWalk(5), medium_graph,
                                 num_samples=64, seed=0)
        assert r.sampling_seconds > 0
        assert r.scheduling_index_seconds > 0
        assert r.seconds == pytest.approx(sum(r.breakdown.values()))

    def test_metrics_present(self, medium_graph):
        r = NextDoorEngine().run(DeepWalk(5), medium_graph,
                                 num_samples=64, seed=0)
        assert r.metrics.counters.global_load_transactions > 0
        assert "sampling" in r.metrics_by_phase

    def test_samples_per_second(self, medium_graph):
        r = NextDoorEngine().run(DeepWalk(5), medium_graph,
                                 num_samples=64, seed=0)
        assert r.samples_per_second == pytest.approx(64 / r.seconds)

    def test_speedup_over(self, medium_graph):
        a = NextDoorEngine().run(DeepWalk(5), medium_graph,
                                 num_samples=64, seed=0)
        b = NextDoorEngine().run(DeepWalk(10), medium_graph,
                                 num_samples=64, seed=0)
        assert b.speedup_over(a) == pytest.approx(a.seconds / b.seconds)

    def test_steps_run(self, medium_graph):
        r = NextDoorEngine().run(DeepWalk(7), medium_graph,
                                 num_samples=32, seed=0)
        assert r.steps_run == 7


class TestTermination:
    def test_inf_app_stops_when_all_dead(self, medium_graph):
        r = NextDoorEngine().run(PPR(termination_prob=0.5, max_steps=500),
                                 medium_graph, num_samples=32, seed=0)
        assert r.steps_run < 100

    def test_fixed_app_stops_early_if_walks_die(self):
        from repro.graph.csr import CSRGraph
        # A sink-heavy directed graph: 0 -> 1, and 1 has no out-edges.
        g = CSRGraph.from_edges(3, [(0, 1)])
        r = NextDoorEngine().run(DeepWalk(50), g,
                                 roots=np.zeros((4, 1), dtype=np.int64),
                                 seed=0)
        assert r.steps_run <= 2


class TestReferencePath:
    def test_reference_engine_agrees_statistically(self, tiny_graph):
        """The per-vertex reference path and the vectorised path
        produce the same marginal next-vertex distribution."""
        fast = NextDoorEngine().run(
            DeepWalk(1), tiny_graph,
            roots=np.zeros((3000, 1), dtype=np.int64), seed=0)
        ref = NextDoorEngine().run(
            reference_view(DeepWalk(1)), tiny_graph,
            roots=np.zeros((3000, 1), dtype=np.int64), seed=0)
        for v in tiny_graph.neighbors(0):
            f = (fast.get_final_samples() == v).mean()
            g = (ref.get_final_samples() == v).mean()
            assert abs(f - g) < 0.05

    def test_reference_khop(self, tiny_graph):
        r = NextDoorEngine().run(
            reference_view(KHop((3, 2))), tiny_graph, num_samples=8, seed=0)
        hops = r.get_final_samples()
        assert hops[0].shape == (8, 3)
        assert hops[1].shape == (8, 6)

    @pytest.mark.parametrize("factory", [
        lambda: KHop((4, 2)), lambda: LADIES(step_size=8, batch_size=4)],
        ids=["khop", "ladies"])
    def test_reference_view_stays_in_process(self, medium_weighted,
                                             backend, factory):
        """The app's type keeps a reference view off the worker set:
        bitwise the same at workers 0 and 2, and no chunk pooled."""
        pooled = get_metrics().counter("runtime.chunks_pooled")
        before = pooled.value
        runs = [NextDoorEngine(workers=w, chunk_size=16).run(
                    reference_view(factory()), medium_weighted,
                    num_samples=64, seed=3) for w in (0, 2)]
        assert batch_digest(runs[0].batch) == batch_digest(runs[1].batch)
        assert repr(runs[0].seconds) == repr(runs[1].seconds)
        assert pooled.value == before

    def test_use_reference_keyword_is_gone(self, tiny_graph):
        with pytest.raises(TypeError, match="valid keywords"):
            do_sampling(DeepWalk(1), tiny_graph, 4, use_reference=True)


class TestMultiGPUEngine:
    def test_same_sample_count(self, medium_graph):
        r = NextDoorEngine().run(DeepWalk(5), medium_graph,
                                 num_samples=64, seed=0, num_devices=4)
        assert r.batch.num_samples == 64
        assert r.devices_used == 4

    def test_merged_walks_are_paths(self, medium_graph):
        r = NextDoorEngine().run(DeepWalk(5), medium_graph,
                                 num_samples=32, seed=0, num_devices=2)
        walks = r.get_final_samples()
        roots = r.batch.roots
        for s in range(32):
            prev = int(roots[s, 0])
            for v in walks[s]:
                if v == NULL_VERTEX:
                    break
                assert medium_graph.has_edge(prev, int(v))
                prev = int(v)

    def test_variable_width_merge(self, medium_graph):
        # PPR shards can run different step counts; merge pads.
        r = NextDoorEngine().run(PPR(termination_prob=0.3, max_steps=100),
                                 medium_graph, num_samples=40, seed=0,
                                 num_devices=4)
        assert r.batch.num_samples == 40

    def test_multi_gpu_metrics_merged(self, medium_graph):
        r = NextDoorEngine().run(DeepWalk(5), medium_graph,
                                 num_samples=64, seed=0, num_devices=2)
        assert r.metrics.counters.global_load_transactions > 0
        assert r.breakdown.get("coordination", 0) > 0

    def test_multi_gpu_edge_sample_ids_shifted(self, medium_graph):
        from repro.api.apps import FastGCN
        r = NextDoorEngine().run(FastGCN(step_size=8, batch_size=4),
                                 medium_graph, num_samples=8, seed=0,
                                 num_devices=2)
        all_edges = np.concatenate(r.batch.edges, axis=0) \
            if r.batch.edges else np.zeros((0, 3))
        if all_edges.size:
            assert all_edges[:, 0].max() < 8


class TestUniqueTopUp:
    def test_rows_unique_after_step(self, star_graph):
        r = NextDoorEngine().run(
            KHop((20,), unique_per_step=True), star_graph,
            roots=np.zeros((16, 1), dtype=np.int64), seed=0)
        hop = r.get_final_samples()[0]
        for row in hop:
            live = row[row != NULL_VERTEX]
            assert np.unique(live).size == live.size

    def test_top_up_refills_holes(self, star_graph):
        """With 32 leaves and fanout 20, dedup + one top-up pass leaves
        most rows close to full."""
        r = NextDoorEngine().run(
            KHop((20,), unique_per_step=True), star_graph,
            roots=np.zeros((16, 1), dtype=np.int64), seed=0)
        hop = r.get_final_samples()[0]
        fill = (hop != NULL_VERTEX).mean()
        # Without the top-up, expected distinct of 20-of-32 draws is
        # ~15.2/20 = 76%; the refill pushes clearly above that.
        assert fill > 0.8
