"""CSRGraph: storage invariants and accessors."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [2]
        assert list(g.neighbors(2)) == []

    def test_from_edges_undirected_doubles(self):
        g = CSRGraph.from_edges(3, [(0, 1)], undirected=True)
        assert g.num_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_from_edges_empty(self):
        g = CSRGraph.from_edges(4, [])
        assert g.num_vertices == 4
        assert g.num_edges == 0
        assert g.degree(2) == 0

    def test_rows_are_sorted(self):
        g = CSRGraph.from_edges(4, [(0, 3), (0, 1), (0, 2)])
        assert list(g.neighbors(0)) == [1, 2, 3]

    def test_weights_follow_row_sort(self):
        g = CSRGraph.from_edges(4, [(0, 3), (0, 1), (0, 2)],
                                weights=[3.0, 1.0, 2.0])
        assert list(g.neighbors(0)) == [1, 2, 3]
        assert list(g.edge_weights(0)) == [1.0, 2.0, 3.0]

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0, 1]))

    def test_indptr_must_end_at_num_edges(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 1, 2]))

    def test_indices_in_range(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(0, 1)], weights=[-1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        # ``nan < 0`` is False: a sign test alone let NaN through.
        with pytest.raises(ValueError, match="finite and non-negative"):
            CSRGraph(np.array([0, 2, 2]), np.array([0, 1]),
                     weights=np.array([1.0, bad]))
        with pytest.raises(ValueError, match="finite and non-negative"):
            CSRGraph.from_edges(2, [(0, 1), (1, 0)], weights=[bad, 1.0])

    def test_misaligned_weights_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(0, 1)], weights=[1.0, 2.0])

    def test_out_of_range_edges_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(0, 5)])

    def test_malformed_edges_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, np.array([[0, 1, 2]]))


class TestAccessors:
    def test_degrees_vector(self, tiny_graph):
        degs = tiny_graph.degrees()
        assert degs.shape == (7,)
        assert degs.sum() == tiny_graph.num_edges
        for v in range(7):
            assert degs[v] == tiny_graph.degree(v)

    def test_avg_degree(self, tiny_graph):
        assert tiny_graph.avg_degree == pytest.approx(
            tiny_graph.num_edges / 7)

    def test_avg_degree_empty(self):
        g = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        assert g.avg_degree == 0.0

    def test_has_edge_positive_and_negative(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert not tiny_graph.has_edge(0, 6)

    def test_has_edges_matches_scalar(self, medium_graph, rng):
        u = rng.integers(0, medium_graph.num_vertices, size=200)
        v = rng.integers(0, medium_graph.num_vertices, size=200)
        vectorised = medium_graph.has_edges(u, v)
        for i in range(200):
            assert vectorised[i] == medium_graph.has_edge(int(u[i]),
                                                          int(v[i]))

    def test_has_edges_empty(self, tiny_graph):
        out = tiny_graph.has_edges(np.array([], dtype=np.int64),
                                   np.array([], dtype=np.int64))
        assert out.shape == (0,)

    def test_has_edges_shape_mismatch(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.has_edges(np.array([0]), np.array([0, 1]))

    @staticmethod
    def _block_probe(block, u, v):
        bits, row_base, col_slot = block
        col = col_slot[v]
        return bool(bits[row_base[u] + (col >> 3)] >> (col & 7) & 1)

    def test_adjacency_block_matches_has_edge_tiny(self, tiny_graph):
        every = np.arange(7)
        block = tiny_graph.adjacency_block(every, every)
        for u in every:
            for v in every:
                assert self._block_probe(block, u, v) == \
                    tiny_graph.has_edge(int(u), int(v))

    def test_adjacency_block_matches_has_edge_medium(self, medium_graph,
                                                     rng):
        # Hubs among the rows, duplicates and NULLs in both inputs,
        # more than eight columns (several bytes per bitmap row).
        hubs = np.argsort(medium_graph.degrees())[-10:]
        rows = np.concatenate([hubs, hubs[:3], [-1],
                               rng.integers(0, 2000, size=40)])
        cols = np.concatenate([[-1, -1], rng.integers(0, 2000, size=300)])
        block = medium_graph.adjacency_block(rows.reshape(6, 9), cols)
        hits = 0
        for u in np.unique(rows[rows >= 0]):
            for v in np.unique(cols[cols >= 0]):
                want = medium_graph.has_edge(int(u), int(v))
                assert self._block_probe(block, u, v) == want
                hits += want
        assert hits > 0

    def test_adjacency_block_null_probes_miss(self, tiny_graph):
        block = tiny_graph.adjacency_block(np.array([0, 1, -1]),
                                           np.array([-1, 1, 2]))
        assert self._block_probe(block, 0, 1)
        for u, v in [(-1, 1), (0, -1), (-1, -1)]:
            assert not self._block_probe(block, u, v)

    def test_adjacency_block_empty_inputs(self, tiny_graph):
        none = np.zeros(0, dtype=np.int64)
        for rows, cols in [(none, none), (np.array([0]), none),
                           (none, np.array([1])),
                           (np.array([-1]), np.array([-1]))]:
            bits, _, _ = tiny_graph.adjacency_block(rows, cols)
            assert not bits.any()

    def test_adjacency_block_size_is_local(self, medium_graph):
        # |rows| + 1 bitmap rows of ceil((|cols| + 1) / 8) bytes: the
        # graph's size does not enter.
        bits, _, _ = medium_graph.adjacency_block(np.arange(5),
                                                  np.arange(20))
        assert bits.nbytes == 6 * 3

    def test_non_isolated_vertices(self):
        g = CSRGraph.from_edges(5, [(0, 1), (1, 2)])
        assert list(g.non_isolated_vertices()) == [0, 1]

    def test_memory_bytes_counts_arrays(self, tiny_graph, tiny_weighted):
        base = tiny_graph.memory_bytes()
        assert base == (tiny_graph.indptr.nbytes
                        + tiny_graph.indices.nbytes)
        assert tiny_weighted.memory_bytes() == base + tiny_weighted.weights.nbytes

    def test_repr(self, tiny_graph):
        assert "tiny" in repr(tiny_graph)
        assert "unweighted" in repr(tiny_graph)


class TestWeights:
    def test_with_random_weights_range(self, tiny_graph):
        g = tiny_graph.with_random_weights(seed=0)
        assert g.is_weighted
        assert (g.weights >= 1.0).all() and (g.weights < 5.0).all()

    def test_with_random_weights_deterministic(self, tiny_graph):
        a = tiny_graph.with_random_weights(seed=3)
        b = tiny_graph.with_random_weights(seed=3)
        assert np.array_equal(a.weights, b.weights)

    def test_max_edge_weight(self, tiny_weighted):
        for v in range(tiny_weighted.num_vertices):
            w = tiny_weighted.edge_weights(v)
            expected = w.max() if w.size else 0.0
            assert tiny_weighted.max_edge_weight(v) == pytest.approx(expected)

    def test_weight_prefix_per_row(self, tiny_weighted):
        prefix = tiny_weighted.weight_prefix()
        for v in range(tiny_weighted.num_vertices):
            lo, hi = tiny_weighted.indptr[v], tiny_weighted.indptr[v + 1]
            row = prefix[lo:hi]
            expected = np.cumsum(tiny_weighted.weights[lo:hi])
            assert np.allclose(row, expected)

    def test_global_weight_cumsum_monotone(self, tiny_weighted):
        cumsum = tiny_weighted.global_weight_cumsum()
        assert (np.diff(cumsum) >= 0).all()
        assert cumsum[-1] == pytest.approx(tiny_weighted.weights.sum())

    def test_row_total_weight(self, tiny_weighted):
        totals = tiny_weighted.row_total_weight()
        for v in range(tiny_weighted.num_vertices):
            assert totals[v] == pytest.approx(
                tiny_weighted.edge_weights(v).sum())

    def test_unweighted_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.edge_weights(0)
        with pytest.raises(ValueError):
            tiny_graph.weight_prefix()
        with pytest.raises(ValueError):
            tiny_graph.global_weight_cumsum()


class TestTransforms:
    def test_subgraph_relabels(self, tiny_graph):
        sub = tiny_graph.subgraph(np.array([0, 1, 2]))
        assert sub.num_vertices == 3
        # Edges among {0,1,2} survive with the same ids here.
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
        assert not sub.has_edge(0, 0)

    def test_subgraph_drops_external_edges(self, tiny_graph):
        sub = tiny_graph.subgraph(np.array([4, 5]))
        # Only (4,5) survives from {4,5}'s neighborhoods.
        assert sub.num_edges == 2  # both directions

    def test_subgraph_keeps_weights(self, tiny_weighted):
        sub = tiny_weighted.subgraph(np.array([0, 1, 2]))
        assert sub.is_weighted
        assert sub.weights.size == sub.num_edges
        empty = tiny_weighted.subgraph(np.array([], dtype=np.int64))
        assert empty.is_weighted and empty.num_vertices == 0

    def test_equality(self, tiny_graph):
        other = CSRGraph(tiny_graph.indptr.copy(),
                         tiny_graph.indices.copy())
        assert tiny_graph == other
        assert not (tiny_graph == tiny_graph.with_random_weights(seed=1))

    def test_equality_non_graph(self, tiny_graph):
        assert tiny_graph.__eq__(42) is NotImplemented


def lexsorted_rows(indptr, indices, weights):
    """What the row sort must produce: a stable sort by (row, id)."""
    row = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    order = np.lexsort((indices, row))
    return np.asarray(indices)[order], np.asarray(weights)[order]


class TestSortSkips:
    """Already-sorted input skips the sorts; anything else is sorted."""

    @pytest.mark.parametrize("indptr,indices", [
        # The next row starts lower: sorted, left as it is.
        ([0, 2, 4], [2, 3, 0, 1]),
        # A descent at the start of the row after an empty one.
        ([0, 2, 2, 4], [5, 6, 1, 4]),
        # A descent right after an empty row, inside the next row.
        ([0, 1, 1, 3], [3, 2, 1]),
        ([0, 0, 3], [2, 0, 1]),
        # Duplicate ids with distinct weights, sorted and not.
        ([0, 3], [0, 1, 1]),
        ([0, 3], [1, 1, 0]),
        ([0, 4, 4], [1, 0, 1, 0]),
        # No edge at all; one vertex; no vertex.
        ([0, 0, 0], []),
        ([0], []),
        ([0, 0], []),
    ], ids=["next-row-lower", "descent-at-start-after-empty",
            "descent-after-empty", "descent-after-leading-empty",
            "duplicates-sorted", "duplicates-unsorted",
            "duplicates-two-rows", "edgeless", "no-vertex", "one-vertex"])
    def test_rows_match_lexsort(self, indptr, indices):
        # Trailing empty rows bring every id into range.
        indptr = indptr + indptr[-1:] * max(0, max(indices, default=-1)
                                            + 2 - len(indptr))
        weights = np.arange(1.0, len(indices) + 1)
        g = CSRGraph(np.array(indptr), np.array(indices, dtype=np.int64),
                     weights=weights)
        want_idx, want_w = lexsorted_rows(indptr, indices, weights)
        assert np.array_equal(g.indices, want_idx)
        assert np.array_equal(g.weights, want_w)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_rows_match_lexsort(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        indptr = np.concatenate(([0], np.cumsum(rng.integers(0, 4, n))))
        indices = rng.integers(0, 8, indptr[-1])
        if seed % 2:  # sorted rows, with the odd descent planted
            indices = lexsorted_rows(indptr, indices, indices)[0]
            if seed == 3 and indices.size:
                row = int(np.argmax(np.diff(indptr)))
                indices[indptr[row]:indptr[row + 1]] = indices[
                    indptr[row]:indptr[row + 1]][::-1].copy()
        weights = rng.random(indices.size)
        g = CSRGraph(indptr, indices.copy(), weights=weights)
        want_idx, want_w = lexsorted_rows(indptr, indices, weights)
        assert np.array_equal(g.indices, want_idx)
        assert np.array_equal(g.weights, want_w)

    def test_from_edges_sorts_unsorted_sources(self):
        edges = [(2, 0), (0, 1), (2, 1), (1, 2), (0, 2), (2, 0)]
        g = CSRGraph.from_edges(3, edges, weights=[1., 2., 3., 4., 5., 6.])
        assert list(g.indptr) == [0, 2, 3, 6]
        assert list(g.indices) == [1, 2, 2, 0, 0, 1]
        assert list(g.weights) == [2., 5., 4., 1., 6., 3.]

    def test_from_edges_keeps_sorted_sources(self):
        edges = [(0, 2), (0, 1), (1, 0), (2, 1)]
        g = CSRGraph.from_edges(3, edges, weights=[1., 2., 3., 4.])
        assert list(g.indptr) == [0, 2, 3, 4]
        assert list(g.indices) == [1, 2, 0, 1]
        assert list(g.weights) == [2., 1., 3., 4.]

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_from_edges_edgeless(self, n):
        g = CSRGraph.from_edges(n, [], weights=[])
        assert list(g.indptr) == [0] * (n + 1)
        assert g.indices.size == 0 and g.weights.size == 0
