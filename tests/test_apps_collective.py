"""Collective-transit applications: layer, importance, cluster."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api.apps.importance as importance_mod
from repro.api.apps import ClusterGCN, FastGCN, LADIES, Layer
from repro.api.apps._kernels import build_combined_neighborhood
from repro.api.types import NULL_VERTEX, SamplingType
from repro.core.engine import NextDoorEngine
from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.graph.partition import random_partition
from repro.serve.protocol import batch_digest
from tests.test_fastpath_equivalence import _reference_record_step_edges


class TestCombinedNeighborhood:
    def test_concatenates_per_sample(self, tiny_graph):
        transits = np.array([[0, 1], [2, NULL_VERTEX]])
        values, offsets = build_combined_neighborhood(tiny_graph, transits)
        s0 = values[offsets[0]:offsets[1]]
        expected = np.concatenate([tiny_graph.neighbors(0),
                                   tiny_graph.neighbors(1)])
        assert sorted(s0.tolist()) == sorted(expected.tolist())
        s1 = values[offsets[1]:offsets[2]]
        assert sorted(s1.tolist()) == sorted(
            tiny_graph.neighbors(2).tolist())

    def test_all_null_sample(self, tiny_graph):
        transits = np.array([[NULL_VERTEX, NULL_VERTEX]])
        values, offsets = build_combined_neighborhood(tiny_graph, transits)
        assert values.size == 0
        assert offsets.tolist() == [0, 0]


class TestLayer:
    def test_parameters_validate(self):
        with pytest.raises(ValueError):
            Layer(step_size=0)
        with pytest.raises(ValueError):
            Layer(max_size=0)

    def test_collective_type(self):
        assert Layer().sampling_type() is SamplingType.COLLECTIVE

    def test_respects_max_size(self, medium_graph):
        result = NextDoorEngine().run(Layer(step_size=20, max_size=50),
                                      medium_graph, num_samples=16, seed=0)
        samples = result.get_final_samples()
        for row in samples:
            live = (row != NULL_VERTEX).sum()
            # Growth stops within one step of crossing max_size.
            assert live <= 50 + 20

    def test_terminates(self, medium_graph):
        result = NextDoorEngine().run(Layer(step_size=20, max_size=50),
                                      medium_graph, num_samples=16, seed=0)
        assert result.steps_run <= Layer(20, 50).max_steps_cap()

    def test_sampled_from_combined_neighborhood(self, medium_graph):
        result = NextDoorEngine().run(Layer(step_size=10, max_size=100),
                                      medium_graph, num_samples=8, seed=0)
        batch = result.batch
        # Step 1's vertices come from the roots' neighborhoods.
        for s in range(8):
            root = int(batch.roots[s, 0])
            nbrs = set(medium_graph.neighbors(root).tolist())
            for v in batch.step_vertices[0][s]:
                if v != NULL_VERTEX:
                    assert int(v) in nbrs

    def test_materialised_and_lazy_paths_agree(self, medium_graph, rng):
        """The degree-weighted shortcut must match sampling from the
        materialised concatenation, distributionally."""
        app = Layer(step_size=4000, max_size=10 ** 9)
        transits = rng.integers(0, medium_graph.num_vertices,
                                size=(1, 20))
        values, offsets = build_combined_neighborhood(medium_graph,
                                                      transits)
        from repro.api.sample import SampleBatch
        batch = SampleBatch(medium_graph, np.zeros((1, 1), np.int64))
        lazy, _ = app.sample_from_neighborhood(
            medium_graph, batch, None, offsets, transits, 0,
            np.random.default_rng(0))
        eager, _ = app.sample_from_neighborhood(
            medium_graph, batch, values, offsets, transits, 0,
            np.random.default_rng(1))
        # Compare the two draws' empirical distributions over a few
        # frequent vertices.
        freq_e = np.bincount(eager[eager != NULL_VERTEX],
                             minlength=medium_graph.num_vertices)
        freq_l = np.bincount(lazy[lazy != NULL_VERTEX],
                             minlength=medium_graph.num_vertices)
        top = np.argsort(freq_e)[-5:]
        for v in top:
            assert abs(freq_e[v] - freq_l[v]) < 0.35 * max(freq_e[v], 1) + 10


class TestFastGCN:
    def test_parameters_validate(self):
        with pytest.raises(ValueError):
            FastGCN(step_size=0)

    def test_shapes(self, medium_graph):
        result = NextDoorEngine().run(FastGCN(step_size=16, num_steps=2,
                                              batch_size=8),
                                      medium_graph, num_samples=4, seed=0)
        samples = result.get_final_samples()
        assert samples.shape == (4, 32)

    def test_degree_biased(self, medium_graph):
        result = NextDoorEngine().run(FastGCN(step_size=64, num_steps=2,
                                              batch_size=8),
                                      medium_graph, num_samples=32, seed=0)
        sampled = result.get_final_samples().ravel()
        sampled = sampled[sampled != NULL_VERTEX]
        avg_sampled_deg = medium_graph.degrees()[sampled].mean()
        assert avg_sampled_deg > medium_graph.avg_degree

    def test_recorded_edges_exist(self, medium_graph):
        result = NextDoorEngine().run(FastGCN(step_size=16, batch_size=8),
                                      medium_graph, num_samples=8, seed=0)
        for s in range(8):
            edges = result.batch.sample_edges(s)
            if edges.size:
                assert medium_graph.has_edges(edges[:, 0],
                                              edges[:, 1]).all()

    def test_recorded_edges_touch_transits(self, medium_graph):
        result = NextDoorEngine().run(FastGCN(step_size=16, batch_size=8),
                                      medium_graph, num_samples=4, seed=0)
        batch = result.batch
        for s in range(4):
            edges = batch.sample_edges(s)
            transit_pool = set(batch.roots[s].tolist())
            for arr in batch.step_vertices:
                transit_pool.update(arr[s].tolist())
            for u, _v in edges:
                assert int(u) in transit_pool

    def test_reused_instance_matches_fresh(self):
        """The importance cache belongs to the graph, not the app: an
        instance reused on a second graph with the same vertex count
        must sample from the second graph's distribution."""
        first = datasets.load("ppi", seed=1)
        second = datasets.load("ppi", seed=2)
        assert first.num_vertices == second.num_vertices
        app = FastGCN()
        NextDoorEngine().run(app, first, num_samples=8, seed=3)
        reused = NextDoorEngine().run(app, second, num_samples=8, seed=3)
        fresh = NextDoorEngine().run(FastGCN(), second, num_samples=8,
                                     seed=3)
        assert batch_digest(reused.batch) == batch_digest(fresh.batch)


@st.composite
def edge_recording_steps(draw):
    """A small graph (self-loops, duplicate edges and isolated vertices
    all occur) and one step's transits / new vertices with NULLs,
    all-NULL rows, in-row duplicates and independent (possibly zero)
    widths."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    # Edges come from the rng: st.lists rarely grows rows long enough
    # for several kept neighbours to share a bitmap byte.
    edges = rng.integers(0, n, size=(draw(st.integers(0, 300)), 2))
    graph = CSRGraph.from_edges(n, edges)
    num_samples = draw(st.integers(0, 6))

    def rows(width):
        arr = rng.integers(-1, n, size=(num_samples, width))
        arr[rng.random(num_samples) < 0.2] = NULL_VERTEX
        return arr

    transits = rows(draw(st.integers(0, 8)))
    new_vertices = rows(draw(st.integers(0, 8)))
    return graph, transits, new_vertices


class TestRecordStepEdges:
    """The step-local adjacency block path against the dense
    ``has_edges`` oracle: same rows in the same order."""

    @given(edge_recording_steps())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_oracle(self, case):
        graph, transits, new_vertices = case
        got = FastGCN().record_step_edges(graph, None, transits,
                                          new_vertices, 0)
        want = _reference_record_step_edges(None, graph, None, transits,
                                            new_vertices, 0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_blocks_are_invisible_and_bounded(self, medium_graph,
                                              monkeypatch, process_pool):
        """Adversarial step (every transit and new vertex distinct)
        under a tiny bound: several blocks, no bitmap above the bound,
        output identical to the single-block run and the oracle.  (The
        numpy rendering — ``process_pool`` pins that backend; the C one
        is blocked in ``test_native_backend``.)"""
        ids = np.random.default_rng(5).permutation(1024)
        transits = ids[:512].reshape(64, 8)
        new_vertices = ids[512:].reshape(64, 8)
        app = LADIES()
        whole = app.record_step_edges(medium_graph, None, transits,
                                      new_vertices, 0)
        bitmap_bytes = []
        build = CSRGraph.adjacency_block

        def spy(self, rows, cols):
            block = build(self, rows, cols)
            bitmap_bytes.append(block[0].nbytes)
            return block

        monkeypatch.setattr(CSRGraph, "adjacency_block", spy)
        monkeypatch.setattr(importance_mod, "EDGE_BLOCK_MAX_BYTES", 4096)
        blocked = app.record_step_edges(medium_graph, None, transits,
                                        new_vertices, 0)
        assert len(bitmap_bytes) >= 3
        assert max(bitmap_bytes) <= 4096
        assert whole.size and np.array_equal(blocked, whole)
        assert np.array_equal(blocked, _reference_record_step_edges(
            None, medium_graph, None, transits, new_vertices, 0))


class TestImportanceTables:
    """The per-graph tables are first touched inside a run, i.e. by
    several daemon executors (or engine threads) at once."""

    @pytest.mark.parametrize("app_cls, table, builder", [
        (LADIES, "_edge_importance", "_build_edge_importance"),
        (FastGCN, "_importance", "_build_importance"),
    ])
    def test_first_touch_builds_once(self, app_cls, table, builder):
        graph = rmat_graph(300, 2000, seed=4, name="fresh")
        build, built = getattr(app_cls, builder), []

        def slow(graph):
            built.append(threading.get_ident())
            time.sleep(0.05)    # the second thread arrives meanwhile
            return build(graph)

        app = type("Slow", (app_cls,), {builder: staticmethod(slow)})()
        barrier, seen = threading.Barrier(2), []

        def touch():
            barrier.wait(timeout=30)
            seen.append(getattr(app, table)(graph))

        threads = [threading.Thread(target=touch) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(built) == 1
        assert len(seen) == 2 and seen[0] is seen[1]
        assert getattr(app_cls(), table)(graph) is seen[0]


class TestLADIES:
    def test_candidates_restricted_to_neighborhood(self, medium_graph):
        result = NextDoorEngine().run(LADIES(step_size=16, batch_size=4),
                                      medium_graph, num_samples=4, seed=0)
        batch = result.batch
        # Step 1's vertices must be neighbors of some root.
        for s in range(4):
            pool = set()
            for r in batch.roots[s]:
                pool.update(medium_graph.neighbors(int(r)).tolist())
            for v in batch.step_vertices[0][s]:
                if v != NULL_VERTEX:
                    assert int(v) in pool

    def test_degree_weighted_within_candidates(self, star_graph):
        # From the star's center, all leaves have degree 1: LADIES
        # degenerates to uniform — no crash, full coverage.
        result = NextDoorEngine().run(
            LADIES(step_size=64, batch_size=1, num_steps=1), star_graph,
            roots=np.zeros((16, 1), dtype=np.int64), seed=0)
        sampled = result.get_final_samples()
        assert (sampled != NULL_VERTEX).all()


class TestClusterGCN:
    def test_parameters_validate(self):
        with pytest.raises(ValueError):
            ClusterGCN(clusters_per_sample=0)

    def test_roots_are_cluster_members(self, medium_graph):
        partition = random_partition(medium_graph, 16, seed=3)
        app = ClusterGCN(partition=partition, clusters_per_sample=4)
        result = NextDoorEngine().run(app, medium_graph, num_samples=4,
                                      seed=0)
        for s in range(4):
            verts = result.batch.roots[s]
            verts = verts[verts != NULL_VERTEX]
            clusters = set(partition.assignment[verts].tolist())
            assert len(clusters) <= 4

    def test_recorded_edges_are_induced_adjacency(self, medium_graph):
        partition = random_partition(medium_graph, 8, seed=3)
        app = ClusterGCN(partition=partition, clusters_per_sample=2)
        result = NextDoorEngine().run(app, medium_graph, num_samples=2,
                                      seed=0)
        batch = result.batch
        for s in range(2):
            verts = batch.roots[s]
            verts = set(int(v) for v in verts[verts != NULL_VERTEX])
            edges = batch.sample_edges(s)
            # Recorded exactly: graph edges with both endpoints inside.
            expected = set()
            for u in verts:
                for v in medium_graph.neighbors(u):
                    if int(v) in verts:
                        expected.add((u, int(v)))
            got = set(map(tuple, edges.tolist()))
            assert got == expected

    def test_no_new_vertices(self, medium_graph):
        app = ClusterGCN(num_clusters=8, clusters_per_sample=2)
        result = NextDoorEngine().run(app, medium_graph, num_samples=2,
                                      seed=0)
        assert result.get_final_samples().shape[1] == 0
