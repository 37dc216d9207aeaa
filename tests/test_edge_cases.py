"""Failure injection & degenerate inputs across the stack."""

import numpy as np
import pytest

from repro.api.apps import DeepWalk, KHop, Layer, PPR
from repro.api.types import NULL_VERTEX
from repro.core.engine import NextDoorEngine
from repro.graph.csr import CSRGraph
from repro.serve.protocol import batch_digest


@pytest.fixture
def sink_graph():
    """Directed: everything flows into vertex 3, which has no
    out-edges — every walk dies there."""
    return CSRGraph.from_edges(4, [(0, 3), (1, 3), (2, 3), (0, 1)])


@pytest.fixture
def two_vertex_graph():
    return CSRGraph.from_edges(2, [(0, 1)], undirected=True)


class TestDegenerateGraphs:
    def test_walks_die_at_sinks(self, sink_graph):
        r = NextDoorEngine().run(
            DeepWalk(10), sink_graph,
            roots=np.array([[0], [1], [2]]), seed=0)
        walks = r.get_final_samples()
        for row in walks:
            live = row[row != NULL_VERTEX]
            if live.size:
                assert live[-1] == 3 or sink_graph.degree(int(live[-1])) == 0

    def test_two_vertex_walk_oscillates(self, two_vertex_graph):
        r = NextDoorEngine().run(DeepWalk(6), two_vertex_graph,
                                 roots=np.array([[0]]), seed=0)
        walk = r.get_final_samples()[0]
        assert list(walk) == [1, 0, 1, 0, 1, 0]

    def test_khop_on_sink_roots(self, sink_graph):
        r = NextDoorEngine().run(KHop((3, 2)), sink_graph,
                                 roots=np.array([[3]]), seed=0)
        hop1 = r.get_final_samples()[0]
        assert (hop1 == NULL_VERTEX).all()

    def test_layer_on_sink_roots(self, sink_graph):
        r = NextDoorEngine().run(Layer(step_size=3, max_size=9),
                                 sink_graph,
                                 roots=np.array([[3]]), seed=0)
        assert (r.get_final_samples() == NULL_VERTEX).all()

    def test_single_sample(self, two_vertex_graph):
        r = NextDoorEngine().run(DeepWalk(3), two_vertex_graph,
                                 num_samples=1, seed=0)
        assert r.get_final_samples().shape == (1, 3)

    def test_graph_with_no_edges_rejects_auto_roots(self):
        g = CSRGraph.from_edges(5, [])
        with pytest.raises(ValueError):
            NextDoorEngine().run(DeepWalk(3), g, num_samples=4, seed=0)

    def test_explicit_roots_on_edgeless_graph(self):
        g = CSRGraph.from_edges(5, [])
        r = NextDoorEngine().run(DeepWalk(3), g,
                                 roots=np.array([[0], [1]]), seed=0)
        # Walks die instantly; output is all NULL and the engine stops.
        assert (r.get_final_samples() == NULL_VERTEX).all()
        assert r.steps_run <= 1

    def test_more_devices_than_samples(self, two_vertex_graph):
        """Two of the four devices get no row: they price nothing, and
        the samples are the one-device samples."""
        one = NextDoorEngine().run(DeepWalk(3), two_vertex_graph,
                                   num_samples=2, seed=0)
        r = NextDoorEngine().run(DeepWalk(3), two_vertex_graph,
                                 num_samples=2, seed=0, num_devices=4)
        assert r.batch.num_samples == 2
        assert batch_digest(r.batch) == batch_digest(one.batch)
        assert r.breakdown["coordination"] > 0 and r.seconds > 0


class TestDegenerateParameters:
    def test_ppr_certain_termination(self, two_vertex_graph):
        r = NextDoorEngine().run(PPR(termination_prob=1.0, max_steps=10),
                                 two_vertex_graph, num_samples=4, seed=0)
        assert r.steps_run <= 1
        assert (r.get_final_samples() == NULL_VERTEX).all()

    def test_walk_length_one(self, two_vertex_graph):
        r = NextDoorEngine().run(DeepWalk(1), two_vertex_graph,
                                 num_samples=4, seed=0)
        assert r.get_final_samples().shape == (4, 1)

    def test_khop_fanout_one(self, two_vertex_graph):
        r = NextDoorEngine().run(KHop((1, 1)), two_vertex_graph,
                                 num_samples=4, seed=0)
        hop1, hop2 = r.get_final_samples()
        assert hop1.shape == (4, 1) and hop2.shape == (4, 1)

    def test_layer_step_larger_than_graph(self, two_vertex_graph):
        r = NextDoorEngine().run(Layer(step_size=50, max_size=100),
                                 two_vertex_graph, num_samples=2, seed=0)
        out = r.get_final_samples()
        live = out[out != NULL_VERTEX]
        assert set(np.unique(live)) <= {0, 1}


class TestGoldenDeterminism:
    """Cross-process regression pins: numpy guarantees PCG64 stream
    stability, so these exact outputs must never change.  A failure
    here means an RNG-consumption reordering that would silently alter
    every seeded experiment."""

    def test_deepwalk_golden(self, two_vertex_graph):
        r = NextDoorEngine().run(DeepWalk(4), two_vertex_graph,
                                 roots=np.array([[0], [1]]), seed=123)
        assert r.get_final_samples().tolist() == [[1, 0, 1, 0],
                                                  [0, 1, 0, 1]]

    def test_khop_golden(self):
        g = CSRGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)],
                                undirected=True)
        r = NextDoorEngine().run(KHop((3,)), g,
                                 roots=np.array([[0]]), seed=7)
        golden = r.get_final_samples()[0][0].tolist()
        again = NextDoorEngine().run(KHop((3,)), g,
                                     roots=np.array([[0]]),
                                     seed=7).get_final_samples()[0][0]
        assert golden == again.tolist()
        assert all(v in (1, 2, 3, 4) for v in golden)
