"""The weighted draw's guide table (``CSRGraph.weight_guide``).

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
from repro.graph.csr import CSRGraph
from repro.native.backend import CNativeBackend, available_backends

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


def _bisect(graph, t, r):
    cumsum = graph.global_weight_cumsum()
    base, total = graph.weight_row_spans()
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
        # 2**14-edge build blocks: a 70 000-edge hub, rows that straddle
        # block ends, and an empty row at the end.
        rng = np.random.default_rng(9)
        rows = [list(rng.uniform(0.5, 2.0, int(d)))
                for d in rng.integers(0, 40, 3000)]
        rows.insert(1000, list(rng.choice([0.0, 1.0, 1e9], 70_000)))
        g = _graph(rows + [[]])
        row = np.repeat(np.arange(g.num_vertices), g.degrees_array)
        j = np.arange(g.num_edges) - g.indptr[row]
        r = _bucket_minimum(j, g.degrees_array[row])
        assert np.array_equal(g.indptr[row] + g.weight_guide(),
                              _bisect(g, row, r))


class TestDrawsMatchBisection:
    @pytest.mark.parametrize("scan_steps", [0, 1, 4, 10_000])
    def test_numpy(self, graph, scan_steps, monkeypatch):
        # 0 sends every draw the guide entry does not settle to the
        # bisection fallback; 10 000 never falls back.
        monkeypatch.setattr(kernels_mod, "GUIDE_SCAN_STEPS", scan_steps)
        t, r = _edge_draws(graph)
        assert np.array_equal(weighted_picks(graph, t, r[None, :])[0],
                              _bisect(graph, t, r))

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
