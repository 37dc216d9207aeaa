"""The weighted draw's guide table (``CSRGraph.weight_guide``) and the
records it lives in (``CSRGraph.weight_records``).

Every weighted draw — numpy's ``weighted_picks``, the C rescue that
calls it and the C ``weighted_fill`` kernel — starts at its bucket's
guide entry and scans forward.  These tests pin that each one lands on
the edge the plain bisection (``searchsorted(cumsum, base + r * total,
"right")`` clamped to the row) picks, on weights chosen to break a
careless guide: ties with bucket boundaries, zero-weight edges and
rows, 24 orders of magnitude between neighbours, subnormals, hubs
wider than a build block, and draws on both sides of every bucket
boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.apps import _kernels as kernels_mod
from repro.api.apps._kernels import weighted_neighbors, weighted_picks
from repro.api.types import NULL_VERTEX
from repro.graph import datasets
from repro.graph.csr import EDGE_RECORD, VERTEX_RECORD, CSRGraph
from repro.native import backend as backend_mod
from repro.native.backend import (CNativeBackend, available_backends,
                                  backend_scope)

needs_cc = pytest.mark.skipif("cnative" not in available_backends(),
                              reason="no C toolchain on this host")

ROWS = [
    # The double just below 5 / 6 still lands in bucket 5 and picks
    # edge 4 (target < 30); a guide taken at r = 5 / 6 (target 30)
    # would start past it.  First, so that its base is 0.
    [8.0, 8.0, 1.0, 6.0, 7.0, 6.0],
    [1.0] * 7,                      # every bucket edge is a cumsum value
    [0.0, 0.0, 3.0, 0.0],           # zero-weight edges around the mass
    [0.0, 0.0, 0.0],                # a massless row
    [1e12] + [1e-12] * 40,          # one edge holds all the mass
    [1e-12] * 40 + [1e12],
    [2.0],
    [],
    list(np.random.default_rng(5).uniform(1.0, 5.0, 300)),   # a hub
    [5e-324, 1.0, 5e-324],          # subnormal weights
    [0.1, 0.2, 0.3, 0.4],
]


#: A vertex with no edge (the empty row).
ZERO_DEGREE = ROWS.index([])


def _graph(rows):
    """One CSR row per weight list, neighbours ``0 .. d-1`` in order."""
    deg = [len(w) for w in rows]
    n = max(max(deg, default=0), len(rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:len(rows) + 1])
    indptr[len(rows) + 1:] = indptr[len(rows)]
    indices = np.concatenate([np.arange(d) for d in deg]).astype(np.int64)
    weights = np.concatenate([np.asarray(w, dtype=np.float64)
                              for w in rows])
    return CSRGraph(indptr, indices, weights=weights, name="adversarial")


def _formulas(graph):
    """``(cumsum, base, total)`` by the plain formulas, from the
    weights alone: the oracle the records' fields must equal."""
    cumsum = np.cumsum(graph.weights)
    padded = cumsum if cumsum.size else np.zeros(1)
    starts, ends = graph.indptr[:-1], graph.indptr[1:]
    base = np.where(starts > 0, padded[starts - 1], 0.0)
    total = np.where(ends > starts, padded[ends - 1] - base, 0.0)
    return cumsum, base, total


def _bisect(graph, t, r):
    cumsum, base, total = _formulas(graph)
    last = graph.indptr[t] + graph.degrees_array[t] - 1
    return np.minimum(np.searchsorted(cumsum, base[t] + r * total[t],
                                      side="right"), last)


def _bucket_minimum(j, d):
    """The smallest double ``r`` with ``int(r * d) >= j``, by walking
    ``np.nextafter`` from ``j / d`` (independent of the build's bit
    arithmetic)."""
    r = j / d
    while True:
        up = r * d < j
        if not up.any():
            break
        r = np.where(up, np.nextafter(r, 1.0), r)
    while True:
        lower = np.nextafter(r, 0.0)
        down = (lower < r) & (lower * d >= j)
        if not down.any():
            return r
        r = np.where(down, lower, r)


def _edge_draws(graph, seed=0, random_per_row=20):
    """``(t, r)``: every row with an edge, drawn at 0, just below 1, on
    and either side of each bucket boundary ``j / d``, and at random."""
    rng = np.random.default_rng(seed)
    deg = graph.degrees_array
    ts, rs = [], []
    for v in np.flatnonzero(deg > 0):
        b = np.arange(deg[v]) / deg[v]
        r = np.concatenate([[0.0, 1.0 - 2.0 ** -53], b,
                            np.nextafter(b, 0.0), np.nextafter(b, 1.0),
                            rng.random(random_per_row)])
        ts.append(np.full(r.size, v, dtype=np.int64))
        rs.append(r)
    return np.concatenate(ts), np.concatenate(rs)


@pytest.fixture(scope="module")
def graph():
    return _graph(ROWS)


def _hub_graph():
    """3 000 short rows plus a 70 000-edge hub: rows straddle the
    guide's 2**14-edge build blocks, one row is wider than several."""
    rng = np.random.default_rng(9)
    rows = [list(rng.uniform(0.5, 2.0, int(d)))
            for d in rng.integers(0, 40, 3000)]
    rows.insert(1000, list(rng.choice([0.0, 1.0, 1e9], 70_000)))
    return _graph(rows + [[]])


class TestGuideTable:
    def test_entry_is_the_bucket_minimums_pick(self, graph):
        guide = graph.weight_guide()
        assert guide.dtype == np.int32 and guide.size == graph.num_edges
        row = np.repeat(np.arange(graph.num_vertices), graph.degrees_array)
        j = np.arange(graph.num_edges) - graph.indptr[row]
        r = _bucket_minimum(j, graph.degrees_array[row])
        assert np.array_equal(graph.indptr[row] + guide,
                              _bisect(graph, row, r))

    def test_cached_once(self, graph):
        assert graph.weight_guide() is graph.weight_guide()

    def test_edgeless_weighted_graph(self):
        # The row spans used to index cumsum[-1] and raise, which also
        # broke exporting such a graph to shared memory.
        g = _graph([[], []])
        base, total = g.weight_row_spans()
        assert not base.any() and not total.any()
        assert g.weight_prefix().size == g.weight_guide().size == 0

    def test_unweighted_raises(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([0])).weight_guide()

    def test_blocks_and_a_row_wider_than_one(self):
        g = _hub_graph()
        row = np.repeat(np.arange(g.num_vertices), g.degrees_array)
        j = np.arange(g.num_edges) - g.indptr[row]
        r = _bucket_minimum(j, g.degrees_array[row])
        assert np.array_equal(g.indptr[row] + g.weight_guide(),
                              _bisect(g, row, r))


class TestRecords:
    """``CSRGraph.weight_records``: the one cache both backends read."""

    @pytest.mark.parametrize("make", [lambda: _graph(ROWS), _hub_graph],
                             ids=["adversarial", "hub"])
    def test_fields_are_the_formulas(self, make):
        g = make()
        verts, edges = g.weight_records()
        assert verts.dtype == VERTEX_RECORD and edges.dtype == EDGE_RECORD
        assert (verts.size, edges.size) == (g.num_vertices, g.num_edges)
        cumsum, base, total = _formulas(g)
        # Bitwise: NaN-free, so array_equal on the bit patterns is it.
        for got, want in ((edges["cum"], cumsum), (verts["base"], base),
                          (verts["total"], total)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(verts["start"], g.indptr[:-1])
        assert np.array_equal(verts["deg"], g.degrees_array)
        assert np.array_equal(edges["idx"], g.indices)
        # The accessors are views of these fields (TestGuideTable checks
        # the guide's values).
        assert np.shares_memory(g.global_weight_cumsum(), edges)
        assert np.shares_memory(g.weight_guide(), edges)
        assert all(np.shares_memory(a, verts) for a in g.weight_row_spans())
        assert np.array_equal(g.weight_prefix(),
                              cumsum - np.repeat(base, g.degrees_array))

    def test_read_only_cached_and_line_aligned(self, graph):
        verts, edges = graph.weight_records()
        assert graph.weight_records()[0] is verts
        assert graph.weight_records()[1] is edges
        assert graph.global_weight_cumsum() is graph.global_weight_cumsum()
        base, total = graph.weight_row_spans()
        assert graph.weight_row_spans()[0] is base
        for arr in (verts, edges, graph.weight_guide(), base, total,
                    graph.global_weight_cumsum()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = arr
        assert verts.ctypes.data % 64 == edges.ctypes.data % 64 == 0

    def test_unweighted_raises(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([0])).weight_records()


class TestDrawsMatchBisection:
    @pytest.mark.parametrize("scan_steps", [0, 1, 4, 10_000])
    def test_numpy(self, graph, scan_steps, monkeypatch):
        # 0 sends every draw the guide entry does not settle to the
        # bisection fallback; 10 000 never falls back.
        monkeypatch.setattr(kernels_mod, "GUIDE_SCAN_STEPS", scan_steps)
        t, r = _edge_draws(graph)
        assert np.array_equal(weighted_picks(graph, t, r[None, :])[0],
                              _bisect(graph, t, r))

    @pytest.mark.parametrize("scan_steps", [0, 1, 4])
    def test_numpy_fallback_is_the_clamped_searchsorted(
            self, scan_steps, monkeypatch):
        """Draws the guide scan leaves unsettled bisect from their
        position to the row's last edge; on the hub graph (a row of
        70 000 edges, zero-weight runs) that is still the global
        clamped ``searchsorted``."""
        monkeypatch.setattr(kernels_mod, "GUIDE_SCAN_STEPS", scan_steps)
        g = _hub_graph()
        t, r = _edge_draws(g, seed=3, random_per_row=2)
        r = np.stack([r, np.roll(r, 11)])
        got = weighted_picks(g, t, r)
        for q in range(2):
            assert np.array_equal(got[q], _bisect(g, t, r[q]))

    def test_numpy_m_draws_per_transit(self, graph):
        t, r = _edge_draws(graph)
        r = np.stack([r, r[::-1], np.roll(r, 7)])
        got = weighted_picks(graph, t, r)
        for q in range(3):
            assert np.array_equal(got[q], _bisect(graph, t, r[q]))

    @needs_cc
    @pytest.mark.parametrize("m", [1, 3, 64, 65])
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129, 1000, None])
    def test_cnative(self, graph, n, m):
        """The staged C loop (blocks of 64 draws) against numpy and the
        bisection: ``n`` transits (``None``: every edge draw), ``m``
        draws each, with NULL and zero-degree runs on both sides of the
        first block boundary and a NULL run longer than a block."""
        t, r0 = _edge_draws(graph)
        edge = 64 // m      # the first block boundary, in transits
        for at, run in ((edge, [NULL_VERTEX] * 3 + [ZERO_DEGREE] * 3),
                        (200, [NULL_VERTEX] * 130)):
            t = np.insert(t, at, run)
            r0 = np.insert(r0, at, np.zeros(len(run)))
        t = t[:n]
        live = np.flatnonzero(t != NULL_VERTEX)
        live = live[graph.degrees_array[t[live]] > 0]
        # Row 0 keeps each edge draw on its own transit.
        r = np.stack([np.roll(r0, 7 * q)[:t.size][live] for q in range(m)])
        backend = CNativeBackend()

        class Draws:
            def random(self, size):
                assert size == r.size
                return r.ravel().copy()

        got = backend.weighted_neighbors(graph, t, m, Draws())
        assert not backend._failed
        assert got.shape == (t.size, m)
        dead = np.setdiff1d(np.arange(t.size), live)
        assert (got[dead] == NULL_VERTEX).all()
        want = weighted_picks(graph, t[live], r)
        assert np.array_equal(got[live], graph.indices[want].T)
        for q in range(m):
            assert np.array_equal(want[q], _bisect(graph, t[live], r[q]))

    @given(st.lists(st.lists(st.sampled_from(
        [0.0, 5e-324, 1e-12, 0.1, 0.5, 1.0, 1.0, 3.0, 1e12]),
        max_size=12), min_size=1, max_size=8), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_rows(self, rows, seed):
        g = _graph(rows)
        if not g.num_edges:
            return
        t, r = _edge_draws(g, seed, random_per_row=5)
        want = _bisect(g, t, r)
        assert np.array_equal(weighted_picks(g, t, r[None, :])[0], want)
        rng = np.random.default_rng(seed)
        got = weighted_neighbors(g, t, 2, np.random.default_rng(seed))
        block = rng.random((2, t.size))
        for q in range(2):
            assert np.array_equal(got[:, q],
                                  g.indices[_bisect(g, t, block[q])])


def _walk_transits(g, seed):
    """A walk-like transit vector: repeats, NULLs and zero-degree
    vertices scattered through it."""
    rng = np.random.default_rng(seed)
    t = rng.integers(0, g.num_vertices, 3000)
    t[rng.random(t.size) < 0.05] = NULL_VERTEX
    zero = np.flatnonzero(g.degrees_array == 0)
    if zero.size:
        t[rng.integers(0, t.size, 40)] = zero[0]
    return t


@pytest.fixture(scope="module")
def weighted_ppi():
    g = datasets.load("ppi", weighted=True)
    assert (g.degrees_array == 0).any()     # zero-degree transits occur
    return g


class TestCompiledParity:
    @needs_cc
    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("which", ["adversarial", "ppi"])
    def test_cnative_equals_numpy(self, m, which, graph, weighted_ppi):
        g = graph if which == "adversarial" else weighted_ppi
        t = _walk_transits(g, m)
        with backend_scope("numpy"):
            want = weighted_neighbors(g, t, m, np.random.default_rng(m))
        backend = CNativeBackend()
        got = backend.weighted_neighbors(g, t, m, np.random.default_rng(m))
        assert not backend._failed
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert (got[t == NULL_VERTEX] == NULL_VERTEX).all()

    @needs_cc
    def test_ids_past_int32_decline_before_drawing(self, graph,
                                                    monkeypatch):
        """A graph whose ids do not fit the edge records' ``int32``
        takes the numpy draw, from an untouched generator."""
        monkeypatch.setattr(backend_mod, "ID32_MAX", graph.num_vertices - 2)
        t = _walk_transits(graph, 4)
        rng = np.random.default_rng(4)
        backend = CNativeBackend()
        assert backend.weighted_neighbors(graph, t, 2, rng) is None
        assert rng.random() == np.random.default_rng(4).random()
        with backend_scope("cnative"):
            got = weighted_neighbors(graph, t, 2, np.random.default_rng(4))
        with backend_scope("numpy"):
            want = weighted_neighbors(graph, t, 2, np.random.default_rng(4))
        assert np.array_equal(got, want)
