"""Vertex ids are ``int32`` in every layer, NULL = -1.

Positions and counts stay ``int64``.  Every expression that combines
ids (the transit map's packed keys, the edge keys ``u * n + v``) is
widened where it is formed, a graph of ``2**31`` or more vertices is
refused before anything is copied, and what leaves the process keeps
its width: the golden digests and saved ``.npz`` files widen to
``int64``.
"""

import numpy as np
import pytest

from repro.api.apps import ClusterGCN
from repro.api.types import NULL_VERTEX
from repro.core.engine import NextDoorEngine
from repro.core.transit_map import build_transit_map
from repro.graph import datasets, io
from repro.graph.csr import VERTEX_DTYPE, CSRGraph
from repro.graph.generators import (barabasi_albert_graph, clustered_graph,
                                    erdos_renyi_graph, rmat_graph)
from repro.verify.golden import GOLDEN_CASES


class TestArithmeticPast31Bits:
    """An ``int32`` expression left unwidened wraps silently: each case
    needs more than 31 bits and allocates nothing large."""

    def test_transit_keys_are_widened(self):
        # 2**18 pairs over ids in [0, 2**15): 15 + 18 = 33 key bits.
        rng = np.random.default_rng(3)
        transits = rng.integers(0, 1 << 15, size=1 << 18).astype(np.int32)
        tmap = build_transit_map(transits.reshape(-1, 1))
        order = np.argsort(transits.astype(np.int64), kind="stable")
        assert np.array_equal(tmap.rows, order)
        assert np.array_equal(tmap.transit_vals, transits[order])
        assert tmap.transit_vals.dtype == np.int32
        assert tmap.rows.dtype == np.int64

    def test_edge_keys_are_widened(self):
        # n = 70 000 > 2**16: u * n + v passes 2**31, and (61357, 47301)
        # wraps, at 32 bits, onto the key of the edge (1, 5).
        n = 70_000
        graph = CSRGraph.from_edges(
            n, [(1, 5), (50_000, 1), (n - 1, n - 2), (61_357, 47_300)])
        keys = graph._edge_keys()
        src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees_array)
        assert keys.dtype == np.int64
        assert np.array_equal(keys, src * n + graph.indices)
        assert keys.max() >= 2**31
        assert (61_357 * n + 47_301 - (n + 5)) % 2**32 == 0
        u = np.array([1, 50_000, n - 1, 61_357, 61_357], dtype=np.int32)
        v = np.array([5, 1, n - 2, 47_301, 47_300], dtype=np.int32)
        assert graph.has_edges(u, v).tolist() == [True, True, True,
                                                  False, True]


class TestVertexCountRefusal:
    """A zero-stride ``indptr`` stands for a graph of 2**31 vertices:
    the check must run before any copy of it."""

    def test_constructor_refuses_before_copying(self):
        indptr = np.broadcast_to(np.int64(0), (2**31 + 1,))
        with pytest.raises(ValueError, match=r"2\*\*31"):
            CSRGraph(indptr, np.zeros(0, dtype=np.int32))

    def test_from_edges_refuses_before_allocating(self):
        with pytest.raises(ValueError, match=r"2\*\*31"):
            CSRGraph.from_edges(2**31, np.zeros((0, 2), dtype=np.int64))

    def test_rmat_refuses_before_drawing(self):
        # Its ids accumulate at int32: 2**31 vertices would wrap.
        with pytest.raises(ValueError, match=r"2\*\*31"):
            rmat_graph(2**31, 10)

    def test_roots_that_would_wrap_are_refused(self, tiny_graph):
        from repro.api.sample import SampleBatch
        with pytest.raises(ValueError, match="vertex ids"):
            SampleBatch(tiny_graph, np.array([2**32 + 1], dtype=np.int64))


def _graphs(tmp_path):
    yield datasets.load("ppi", weighted=True)
    yield datasets.load("livej", seed=7, scale=30)
    yield rmat_graph(300, 1500, seed=1)
    yield erdos_renyi_graph(200, 4.0, seed=1)
    yield barabasi_albert_graph(200, 3, seed=1)
    yield clustered_graph(200, 4, seed=1)
    yield CSRGraph.from_edges(4, [(0, 1), (2, 3)], undirected=True)
    g = rmat_graph(300, 1500, seed=2).with_random_weights(seed=1)
    yield g.subgraph(np.arange(100))
    io.save_npz(g, str(tmp_path / "g.npz"))
    yield io.load_npz(str(tmp_path / "g.npz"))
    io.save_edge_list(g, str(tmp_path / "g.txt"))
    yield io.load_edge_list(str(tmp_path / "g.txt"), num_vertices=300)


class TestWidthEndToEnd:
    def test_every_graph_stores_int32_ids(self, tmp_path):
        for graph in _graphs(tmp_path):
            assert graph.indices.dtype == VERTEX_DTYPE, graph
            assert graph.indptr.dtype == np.int64, graph
            assert graph.non_isolated_vertices().dtype == VERTEX_DTYPE

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_every_sampled_array_is_int32(self, case, backend):
        factory, weighted, seed = GOLDEN_CASES[case]
        graph = rmat_graph(256, 1024, seed=5)
        if weighted:
            graph = graph.with_random_weights(seed=1)
        result = NextDoorEngine().run(factory(), graph, num_samples=16,
                                      seed=seed)
        batch = result.batch
        for arr in [batch.roots, *batch.step_vertices, *batch.edges]:
            assert arr.dtype == VERTEX_DTYPE
        for arr in result.arrays().values():
            assert arr.dtype == VERTEX_DTYPE

    def test_recorded_edges_and_cluster_roots(self, medium_graph, backend):
        result = NextDoorEngine().run(ClusterGCN(num_clusters=8,
                                                 clusters_per_sample=2),
                                      medium_graph, num_samples=4, seed=3)
        assert result.batch.roots.dtype == VERTEX_DTYPE
        assert (result.batch.roots != NULL_VERTEX).any()
        assert result.arrays()["edges"].dtype == VERTEX_DTYPE

    def test_save_widens_to_int64(self, medium_graph, tmp_path):
        from repro.api.apps import LADIES
        result = NextDoorEngine().run(LADIES(step_size=8, batch_size=4),
                                      medium_graph, num_samples=8, seed=2)
        path = str(tmp_path / "out.npz")
        result.save(path)
        with np.load(path) as saved:
            assert sorted(saved.files) == sorted(result.arrays())
            for name, arr in result.arrays().items():
                assert saved[name].dtype == np.int64
                assert np.array_equal(saved[name], arr)
