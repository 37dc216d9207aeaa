"""Baseline engines: functional validity and modeled relationships."""

import numpy as np
import pytest

from repro.api.apps import (
    ClusterGCN,
    DeepWalk,
    FastGCN,
    KHop,
    LADIES,
    Layer,
    MVS,
    MultiRW,
    Node2Vec,
    PPR,
)
from repro.api.types import NULL_VERTEX
from repro.baselines import (
    FrontierEngine,
    KnightKingEngine,
    MessagePassingEngine,
    ReferenceSamplerEngine,
    SampleParallelEngine,
    VanillaTPEngine,
)
from repro.core.engine import NextDoorEngine

GPU_ENGINES = [SampleParallelEngine, VanillaTPEngine, FrontierEngine,
               MessagePassingEngine]


class TestFunctionalValidity:
    @pytest.mark.parametrize("engine_cls", GPU_ENGINES)
    def test_walks_are_paths_on_every_engine(self, engine_cls,
                                             medium_graph):
        r = engine_cls().run(DeepWalk(6), medium_graph, num_samples=32,
                             seed=2)
        walks = r.get_final_samples()
        roots = r.batch.roots
        for s in range(32):
            prev = int(roots[s, 0])
            for v in walks[s]:
                if v == NULL_VERTEX:
                    break
                assert medium_graph.has_edge(prev, int(v))
                prev = int(v)

    @pytest.mark.parametrize("engine_cls", GPU_ENGINES)
    def test_khop_shapes_on_every_engine(self, engine_cls, medium_graph):
        r = engine_cls().run(KHop((4, 2)), medium_graph, num_samples=16,
                             seed=2)
        hops = r.get_final_samples()
        assert hops[0].shape == (16, 4)
        assert hops[1].shape == (16, 8)

    def test_knightking_walks_are_paths(self, medium_graph):
        r = KnightKingEngine().run(DeepWalk(6), medium_graph,
                                   num_samples=32, seed=2)
        walks = r.get_final_samples()
        roots = r.batch.roots
        for s in range(32):
            prev = int(roots[s, 0])
            for v in walks[s]:
                if v == NULL_VERTEX:
                    break
                assert medium_graph.has_edge(prev, int(v))
                prev = int(v)

    @pytest.mark.parametrize("app_factory", [
        lambda: DeepWalk(5), lambda: PPR(max_steps=30),
        lambda: Node2Vec(walk_length=5),
        lambda: MultiRW(num_roots=5, walk_length=5),
        lambda: KHop((4, 2)), lambda: Layer(step_size=10, max_size=20),
        lambda: FastGCN(step_size=8, batch_size=4),
        lambda: LADIES(step_size=8, batch_size=4),
        lambda: MVS(batch_size=4),
        lambda: ClusterGCN(num_clusters=8, clusters_per_sample=2),
    ])
    def test_reference_sampler_runs_every_app(self, app_factory,
                                              medium_graph):
        r = ReferenceSamplerEngine().run(app_factory(), medium_graph,
                                         num_samples=8, seed=2)
        assert r.seconds > 0
        assert r.engine == "ReferenceSampler"


class TestKnightKingRestrictions:
    def test_rejects_collective(self, medium_graph):
        with pytest.raises(ValueError, match="collective"):
            KnightKingEngine().run(Layer(), medium_graph, num_samples=4)

    def test_rejects_multi_vertex_steps(self, medium_graph):
        with pytest.raises(ValueError, match="per step"):
            KnightKingEngine().run(KHop((25, 10)), medium_graph,
                                   num_samples=4)

    @pytest.mark.parametrize("engine_cls",
                             [KnightKingEngine, ReferenceSamplerEngine])
    def test_cpu_engines_price_one_machine(self, engine_cls, medium_graph):
        """A CPU engine refuses a device count, in its own run and as a
        view of another engine's run, with the same error."""
        with pytest.raises(ValueError, match="2 devices"):
            engine_cls().run(DeepWalk(5), medium_graph, num_samples=8,
                             num_devices=2)
        run = NextDoorEngine().run(DeepWalk(5), medium_graph,
                                   num_samples=8, seed=0)
        with pytest.raises(ValueError, match="2 devices"):
            run.priced_as(engine_cls(), num_devices=2)
        assert run.priced_as(engine_cls()).seconds > 0

    def test_accepts_every_random_walk(self, medium_graph):
        for app in (DeepWalk(5), PPR(max_steps=20),
                    Node2Vec(walk_length=5),
                    MultiRW(num_roots=4, walk_length=5)):
            r = KnightKingEngine().run(app, medium_graph, num_samples=8,
                                       seed=0)
            assert r.steps_run > 0


class TestModeledRelationships:
    """The paper's headline orderings, at test-sized workloads."""

    def test_nd_beats_reference_sampler(self, medium_graph):
        nd = NextDoorEngine().run(KHop((25, 10)), medium_graph,
                                  num_samples=512, seed=0)
        ref = ReferenceSamplerEngine().run(KHop((25, 10)), medium_graph,
                                           num_samples=512, seed=0)
        assert ref.seconds > 10 * nd.seconds

    def test_nd_beats_knightking_at_scale(self, medium_weighted):
        S = medium_weighted.num_vertices
        nd = NextDoorEngine().run(DeepWalk(30), medium_weighted,
                                  num_samples=S, seed=0)
        kk = KnightKingEngine().run(DeepWalk(30), medium_weighted,
                                    num_samples=S, seed=0)
        assert kk.seconds > 2 * nd.seconds

    def test_nd_beats_frameworks(self, medium_graph):
        nd = NextDoorEngine().run(KHop((25, 10)), medium_graph,
                                  num_samples=512, seed=0)
        for cls in (FrontierEngine, MessagePassingEngine):
            fw = cls().run(KHop((25, 10)), medium_graph,
                           num_samples=512, seed=0)
            assert fw.seconds > nd.seconds

    def test_sp_pays_more_l2_reads(self, medium_graph):
        nd = NextDoorEngine().run(KHop((25, 10)), medium_graph,
                                  num_samples=512, seed=0)
        sp = SampleParallelEngine().run(KHop((25, 10)), medium_graph,
                                        num_samples=512, seed=0)
        assert (sp.metrics.counters.l2_read_transactions
                > nd.metrics.counters.l2_read_transactions)

    def test_sp_has_no_index_phase(self, medium_graph):
        sp = SampleParallelEngine().run(DeepWalk(5), medium_graph,
                                        num_samples=64, seed=0)
        assert sp.scheduling_index_seconds == 0.0

    def test_tp_pays_index_phase(self, medium_graph):
        tp = VanillaTPEngine().run(DeepWalk(5), medium_graph,
                                   num_samples=64, seed=0)
        assert tp.scheduling_index_seconds > 0.0

    def test_engine_names(self, medium_graph):
        assert SampleParallelEngine.engine_name == "SP"
        assert VanillaTPEngine.engine_name == "TP"
        assert FrontierEngine.engine_name == "Gunrock-style"
        assert MessagePassingEngine.engine_name == "Tigr-style"
