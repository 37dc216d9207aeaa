"""Compressed-sparse-row graph storage.

This is the in-memory format NextDoor stores on the GPU: a vertex offset
array (``indptr``), a neighbor array (``indices``), and an optional edge
weight array.  All sampling engines operate directly on these arrays so
that the access patterns the GPU model charges for are the access
patterns the code actually performs.

Rows (adjacency lists) are kept sorted by neighbor id, which gives
O(log d) ``has_edge`` — the primitive node2vec's rejection sampling needs
to test whether a candidate is a neighbor of the previous transit.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Tuple

import numpy as np

__all__ = ["CSRGraph", "EDGE_RECORD", "VERTEX_DTYPE", "VERTEX_RECORD"]

#: Vertex ids in every layer, NULL = -1; positions and counts
#: (``indptr``, degrees, pair rows) stay ``int64``.
VERTEX_DTYPE = np.dtype(np.int32)

#: One edge of the weighted draw (16 B): the global cumsum a draw
#: scans, the row-local guide entry it starts from, the neighbour.
EDGE_RECORD = np.dtype([("cum", "<f8"), ("guide", "<i4"), ("idx", "<i4")])

#: One vertex of the weighted draw (32 B): first edge, degree, cumsum
#: before the row and the row's mass.
VERTEX_RECORD = np.dtype([("start", "<i8"), ("deg", "<i8"),
                          ("base", "<f8"), ("total", "<f8")])


def _line_aligned(n: int, dtype: np.dtype) -> np.ndarray:
    """An empty ``(n,)`` array starting on a 64-byte boundary: no record
    whose size divides 64 straddles two cache lines."""
    buf = np.empty(n * dtype.itemsize + 64, dtype=np.uint8)
    skip = -buf.ctypes.data % 64
    return buf[skip:skip + n * dtype.itemsize].view(dtype)


def _check_vertex_count(num_vertices: int) -> None:
    """Refuse, before any copy, a graph of 2**31 or more vertices."""
    if num_vertices > np.iinfo(VERTEX_DTYPE).max:
        raise ValueError(f"{num_vertices} vertices: ids are int32 (< 2**31)")


#: Guards :meth:`CSRGraph.cached`: one thread builds a table, the rest
#: wait for it (re-entrant: a build may read another table).
_CACHE_LOCK = threading.RLock()


class CSRGraph:
    """A directed graph in CSR form with optional float edge weights.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; row ``v`` of the
        adjacency structure is ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        Neighbor ids, each row sorted ascending, stored as
        :data:`VERTEX_DTYPE`.
    weights:
        Optional ``float64`` array aligned with ``indices``.  When
        present, weighted samplers (e.g. DeepWalk's biased walk) use it;
        ``weight_prefix`` exposes the per-row cumulative sums the
        paper's ``Vertex`` utility class provides.
    name:
        Human-readable name used in benchmark reports.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> None:
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of length >= 1")
        _check_vertex_count(indptr.size - 1)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError(
                "indptr must start at 0 and end at len(indices) "
                f"(got {indptr[0]}..{indptr[-1]} for {indices.size} edges)"
            )
        degrees = np.diff(indptr)
        if np.any(degrees < 0):
            raise ValueError("indptr must be non-decreasing")
        num_vertices = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= num_vertices):
            raise ValueError("indices contains out-of-range vertex ids")
        indices = np.ascontiguousarray(indices, dtype=VERTEX_DTYPE)

        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != indices.shape:
                raise ValueError("weights must align with indices")
            # Not ``min() < 0`` alone: NaN compares False.
            if indices.size and not (np.isfinite(weights).all()
                                     and weights.min() >= 0):
                raise ValueError(
                    "edge weights must be finite and non-negative")

        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.name = name
        #: All out-degrees (read-only), built with the graph: samplers
        #: gather from it every step and the C kernels hold its address.
        self.degrees_array = degrees
        degrees.setflags(write=False)
        self._sort_rows()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
        weights: Optional[Iterable[float]] = None,
        undirected: bool = False,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list.

        With ``undirected=True`` each edge is inserted in both
        directions (the SNAP social graphs in Table 3 are undirected).
        """
        _check_vertex_count(num_vertices)
        edge_arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                              dtype=np.int64)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise ValueError("edges must be an iterable of (src, dst) pairs")
        w_arr = None
        if weights is not None:
            w_arr = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights,
                               dtype=np.float64)
            if w_arr.shape != (edge_arr.shape[0],):
                raise ValueError("weights must align with edges")
        if undirected and edge_arr.shape[0]:
            edge_arr = np.concatenate([edge_arr, edge_arr[:, ::-1]], axis=0)
            if w_arr is not None:
                w_arr = np.concatenate([w_arr, w_arr])

        src = edge_arr[:, 0]
        dst = edge_arr[:, 1]
        if edge_arr.shape[0] and (src.min() < 0 or dst.min() < 0
                                  or src.max() >= num_vertices
                                  or dst.max() >= num_vertices):
            raise ValueError("edge endpoints out of range")

        if np.any(src[1:] < src[:-1]):
            order = np.argsort(src, kind="stable")
            src, dst = src[order], dst[order]
            if w_arr is not None:
                w_arr = w_arr[order]
        indptr = np.searchsorted(src, np.arange(num_vertices + 1))
        return cls(indptr, dst, weights=w_arr, name=name)

    def with_random_weights(self, low: float = 1.0, high: float = 5.0,
                            seed: int = 0) -> "CSRGraph":
        """Return a weighted graph with weights uniform in ``[low, high)``.

        This is the paper's procedure for producing weighted variants of
        the SNAP graphs ("assigning weights to each edge randomly from
        [1, 5)", Section 8).  It shares this graph's (never written)
        ``indptr``, ``indices`` and degrees: only the weights are new,
        finite and non-negative since ``0 <= low <= high`` is finite.
        """
        if not 0 <= low <= high < np.inf:
            raise ValueError("edge weights must be finite and non-negative")
        rng = np.random.default_rng(seed)
        graph = CSRGraph.__new__(CSRGraph)
        vars(graph).update(indptr=self.indptr, indices=self.indices,
                           degrees_array=self.degrees_array, name=self.name,
                           weights=rng.uniform(low, high, self.indices.size))
        return graph

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return int(self.indices.size)

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def degree(self, v: int) -> int:
        """Out-degree of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def cached(self, attr: str, build):
        """``build(self)``, built once and kept as ``attr``.  Chunk
        threads and concurrent runs may touch a fresh graph's table at
        once: one of them builds it, and every caller gets that one."""
        table = getattr(self, attr, None)
        if table is None:
            with _CACHE_LOCK:
                table = getattr(self, attr, None)
                if table is None:
                    table = build(self)
                    setattr(self, attr, table)
        return table

    def addresses(self, weighted: bool = False) -> Tuple[int, ...]:
        """The compiled kernels' graph arguments, read once: the
        addresses of ``indptr``, ``indices`` and :attr:`degrees_array`,
        or with ``weighted`` of the :meth:`weight_records` arrays.  The
        graph holds every one of them for life."""
        if weighted:
            return self.cached("_weight_address_cache", lambda g: tuple(
                a.ctypes.data for a in g.weight_records()))
        return self.cached("_address_cache", lambda g: tuple(
            a.ctypes.data for a in (g.indptr, g.indices, g.degrees_array)))

    def degrees(self) -> np.ndarray:
        """Vector of all out-degrees (the cached read-only array)."""
        return self.degrees_array

    @property
    def avg_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        """Weights of the edges leaving ``v`` (aligned with neighbors)."""
        if self.weights is None:
            raise ValueError("graph is unweighted")
        return self.weights[self.indptr[v]:self.indptr[v + 1]]

    def max_edge_weight(self, v: int) -> float:
        """Maximum weight of the edges leaving ``v``.

        Mirrors the ``Vertex.maxEdgeWeight`` utility of the paper's API
        (used by node2vec's rejection-sampling envelope).
        """
        w = self.edge_weights(v)
        return float(w.max()) if w.size else 0.0

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the directed edge ``(u, v)`` exists (binary search)."""
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return bool(pos < row.size and row[pos] == v)

    def _edge_keys(self) -> np.ndarray:
        """Globally sorted ``src * n + dst`` keys for every edge.

        Rows are contiguous and sorted, so the composite key array is
        globally sorted; one vectorised ``searchsorted`` then answers
        arbitrary batches of edge-existence queries.  Cached lazily
        (8 bytes per edge).
        """
        return self.cached("_edge_key_cache", lambda g: np.repeat(
            np.arange(g.num_vertices, dtype=np.int64) * g.num_vertices,
            g.degrees_array) + g.indices)

    #: Adjacency bitmaps above this size fall back to binary search
    #: (64 MiB packed = graphs up to ~23k vertices).
    _BITMAP_MAX_BYTES = 1 << 26

    def _edge_bitmap(self) -> Optional[np.ndarray]:
        """Packed V*V adjacency bitmap (1 bit per vertex pair), or
        ``None`` for graphs too large to afford one.

        Turns batched edge-existence probes into O(1) gathers instead
        of O(log E) binary searches — the GPU analogue is a bitmap in
        device memory answering warp-wide membership tests.  Built
        lazily, cached (V^2 / 8 bytes).
        """
        nbits = self.num_vertices ** 2
        if nbits > self._BITMAP_MAX_BYTES * 8:
            return None

        def build(graph):
            bitmap = np.zeros((nbits + 7) // 8, dtype=np.uint8)
            keys = graph._edge_keys()
            np.bitwise_or.at(bitmap, keys >> 3,
                             np.left_shift(1, keys & 7).astype(np.uint8))
            return bitmap
        return self.cached("_edge_bitmap_cache", build)

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`has_edge` for aligned arrays ``u``, ``v``.

        This is the hot primitive of node2vec's rejection sampling (and
        of ``repro verify``): for each candidate neighbor ``v[i]``, test
        membership in the adjacency list of ``u[i]``.  Served from the
        packed adjacency bitmap when the graph is small enough to hold
        one, else by binary search over the sorted composite edge keys.
        (One collective step's probes use :meth:`adjacency_block`.)
        """
        u, v = np.asarray(u), np.asarray(v)
        if u.shape != v.shape:
            raise ValueError("u and v must have the same shape")
        if u.size == 0:
            return np.zeros(0, dtype=bool)
        # Widened where formed: u * n + v needs up to 62 bits.
        query = np.multiply(u, self.num_vertices, dtype=np.int64)
        query += v
        bitmap = self._edge_bitmap()
        if bitmap is not None:
            return (bitmap[query >> 3] >> (query & 7).astype(np.uint8)
                    ) & 1 > 0
        keys = self._edge_keys()
        if keys.size == 0:
            return np.zeros(u.shape, dtype=bool)
        return keys[np.searchsorted(keys, query).clip(max=keys.size - 1)
                    ] == query

    def adjacency_block(self, rows: np.ndarray, cols: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Packed adjacency of the distinct ``rows`` x distinct ``cols``:
        the working set of membership probes that share few endpoints
        (one collective step).  Only the distinct rows' CSR rows are
        read, once, into a bitmap of ``|rows| * |cols|`` bits.  Returns
        ``(bits, row_base, col_slot)`` with ::

            bits[row_base[u] + (col_slot[v] >> 3)] >> (col_slot[v] & 7) & 1

        set iff edge ``(u, v)`` exists, for ``u`` in ``rows`` and ``v``
        in ``cols`` (other vertices' table entries are meaningless).
        Both tables have ``V + 1`` entries: index ``-1`` (``NULL_VERTEX``)
        reads the extra last one, which addresses an all-zero row /
        column, so NULL probes miss without a mask.  Negative ids and
        duplicates in the inputs are ignored.
        """
        from repro.core.ragged import ragged_gather
        n = self.num_vertices

        def dense_slots(ids):
            # Slots follow vertex order — the order CSR rows are sorted
            # by — so the bit indices below come out sorted.
            ids = ids[ids >= 0]
            present = np.zeros(n, dtype=bool)
            present[ids] = True
            verts = np.flatnonzero(present)
            slot = np.full(n + 1, -1, dtype=np.int64)
            slot[verts] = np.arange(verts.size)
            slot[-1] = verts.size
            return verts, slot

        row_verts, row_base = dense_slots(rows)
        col_verts, col_slot = dense_slots(cols)
        stride = (col_verts.size + 8) >> 3  # bytes per row, null column incl.
        row_base *= stride
        bits = np.zeros((row_verts.size + 1) * stride, dtype=np.uint8)
        deg = self.degrees_array[row_verts]
        nbrs, _ = ragged_gather(self.indices, self.indptr[row_verts], deg)
        slot = col_slot[nbrs]
        keep = np.flatnonzero(slot >= 0)
        if keep.size:
            slot = slot[keep]
            byte = np.repeat(row_base[row_verts], deg)[keep] + (slot >> 3)
            # Sorted bytes: OR each run of equal bytes in one reduceat.
            starts = np.concatenate(
                ([0], np.flatnonzero(byte[1:] != byte[:-1]) + 1))
            bits[byte[starts]] = np.bitwise_or.reduceat(
                np.left_shift(1, slot & 7).astype(np.uint8), starts)
        return bits, row_base, col_slot

    # ------------------------------------------------------------------
    # Weighted-sampling support
    # ------------------------------------------------------------------

    def weight_prefix(self) -> np.ndarray:
        """Global prefix-sum of edge weights, per CSR row.

        ``weight_prefix()[indptr[v]:indptr[v+1]]`` is the cumulative
        weight of the edges of ``v``: :meth:`global_weight_cumsum` minus
        the row's base.  Mirrors the paper's prefix-sum ``Vertex``
        utility.  Computed lazily and cached.
        """
        if self.weights is None:
            raise ValueError("graph is unweighted")
        return self.cached("_weight_prefix", lambda g: (
            g.global_weight_cumsum()
            - np.repeat(g.weight_row_spans()[0], g.degrees_array)))

    def weight_records(self) -> "Tuple[np.ndarray, np.ndarray]":
        """``(vertex, edge)`` records of the weighted draw (read-only,
        line-aligned, built once).

        A draw at transit ``v`` reads ``vertex[v]`` (:data:`VERTEX_RECORD`),
        then the edge record of its guide slot and those it scans
        (:data:`EDGE_RECORD`): three cache lines where separate arrays
        cost seven.  Both backends read them; the other weighted
        accessors are views of their fields.  ``idx`` holds neighbours
        as :data:`VERTEX_DTYPE`.
        """
        return self._weight_cache()[:2]

    def _weight_cache(self):
        """The records, then their cum, guide, base, total views."""
        if self.weights is None:
            raise ValueError("graph is unweighted")
        return self.cached("_weight_records_cache",
                           CSRGraph._build_weight_records)

    def _build_weight_records(self):
        indptr, deg = self.indptr, self.degrees_array
        verts = _line_aligned(self.num_vertices, VERTEX_RECORD)
        edges = _line_aligned(self.num_edges, EDGE_RECORD)
        cumsum, guide = edges["cum"], edges["guide"]
        base, total = verts["base"], verts["total"]
        np.cumsum(self.weights, out=cumsum)
        edges["idx"] = self.indices
        starts, ends = indptr[:-1], indptr[1:]
        verts["start"], verts["deg"] = starts, deg
        # The sampler's own arithmetic; no edge at all: spans of 0.
        padded = cumsum if cumsum.size else np.zeros(1)
        base[...] = np.where(starts > 0, padded[starts - 1], 0.0)
        total[...] = np.where(ends > starts, padded[ends - 1] - base, 0.0)
        # The guide, in edge blocks that search their own cumsum slice.
        cuts = np.unique(np.searchsorted(
            indptr, np.arange(0, self.num_edges, 1 << 14)))
        cuts = np.append(cuts, self.num_vertices)
        for v0, v1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            s0, s1 = int(indptr[v0]), int(indptr[v1])
            row = np.repeat(np.arange(v0, v1), deg[v0:v1])
            first, d = indptr[row], deg[row]
            j = np.arange(s0, s1) - first
            # The smallest r with r * d >= j lies a few ulps from
            # j / d; non-negative doubles order like their bit
            # patterns, so +-1 on the int64 view steps one ulp.
            r = j / d
            bits = r.view(np.int64)
            bits += r * d < j
            while True:
                down = (bits > 0) & ((bits - 1).view(np.float64) * d >= j)
                if not down.any():
                    break
                bits -= down
            target = base[row] + r * total[row]
            pos = np.searchsorted(cumsum[s0:s1], target, side="right")
            guide[s0:s1] = np.minimum(pos + s0 - first, d - 1)
        cached = (verts, edges, cumsum, guide, base, total)
        for a in cached:
            a.setflags(write=False)
        return cached

    def global_weight_cumsum(self) -> np.ndarray:
        """Monotone cumulative sum of all edge weights in CSR order
        (field ``cum``): the slice ``[indptr[v], indptr[v+1])`` spans
        row ``v``'s weight mass."""
        return self._weight_cache()[2]

    def weight_row_spans(self) -> "Tuple[np.ndarray, np.ndarray]":
        """Per-vertex ``(base, total)`` (fields of the same name):
        the cumsum just before row ``v`` and the row's weight mass."""
        return self._weight_cache()[4:]

    def weight_guide(self) -> np.ndarray:
        """Per-edge guide table of the weighted draw (``int32``, field
        ``guide``).

        A draw ``r`` in ``[0, 1)`` at row ``v`` (``d`` edges, span
        ``(base, total)``) lands in bucket ``j = min(int(r * d), d - 1)``
        and picks the first edge whose cumsum exceeds ``base + r *
        total``, clamped to the row's last edge.  Entry ``indptr[v] + j``
        is the row-local edge that the *smallest* double in bucket ``j``
        picks.  The target is monotone in ``r``, so every draw of the
        bucket scans forward from there to the edge the bisection finds,
        in O(1) expected steps.
        """
        return self._weight_cache()[3]

    def row_max_weight(self) -> np.ndarray:
        """Maximum outgoing edge weight per vertex (cached).

        The vectorised form of :meth:`max_edge_weight` — node2vec's
        rejection envelope needs it for every transit of a step.
        """
        if self.weights is None:
            raise ValueError("graph is unweighted")
        return self.cached("_row_max_cache", CSRGraph._build_row_max)

    def _build_row_max(self) -> np.ndarray:
        out = np.zeros(self.num_vertices, dtype=np.float64)
        nonempty = np.flatnonzero(self.degrees_array)
        if nonempty.size:
            out[nonempty] = np.maximum.reduceat(
                self.weights, self.indptr[nonempty])
        return out

    def row_total_weight(self) -> np.ndarray:
        """Total edge weight per vertex (last entry of each row prefix)."""
        return self.weight_row_spans()[1].copy()

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def non_isolated_vertices(self) -> np.ndarray:
        """Vertices with at least one outgoing edge (cached).

        Automatic root selection draws from these: a walk rooted on an
        isolated vertex dies immediately, which the paper's SNAP graphs
        (no isolated vertices) never exhibit.
        """
        return self.cached("_non_isolated_cache", lambda g: np.flatnonzero(
            g.degrees_array).astype(VERTEX_DTYPE))

    def subgraph(self, vertices: np.ndarray, name: Optional[str] = None) -> "CSRGraph":
        """Induced subgraph on ``vertices`` with relabeled ids 0..k-1."""
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        relabel = -np.ones(self.num_vertices, dtype=np.int64)
        relabel[vertices] = np.arange(vertices.size)
        src = relabel[np.repeat(np.arange(self.num_vertices),
                                self.degrees_array)]
        dst = relabel[self.indices]
        keep = (src >= 0) & (dst >= 0)
        edges = np.stack([src[keep], dst[keep]], axis=1)
        weights = self.weights[keep] if self.is_weighted else None
        return CSRGraph.from_edges(vertices.size, edges, weights=weights,
                                   name=name or f"{self.name}-sub")

    def memory_bytes(self) -> int:
        """Bytes this graph occupies in device memory (CSR arrays), in
        the model's 8-byte words (``repro.graph.partition``'s), whatever
        width the host stores ids at."""
        words = self.indptr.size + self.indices.size
        return 8 * (words + (self.num_edges if self.is_weighted else 0))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _sort_rows(self) -> None:
        """Sort each adjacency row ascending (idempotent).

        Weights, when present, are permuted together with their edges.
        Rows that are already sorted are left alone: a stable sort of
        them is the identity, so only a descent *inside* a row (not at a
        row start) costs the lexsort.
        """
        descents = np.flatnonzero(self.indices[1:] < self.indices[:-1]) + 1
        at = np.searchsorted(self.indptr, descents)
        if np.array_equal(self.indptr[at], descents):
            return
        row_of_edge = np.repeat(np.arange(self.num_vertices),
                                self.degrees_array)
        order = np.lexsort((self.indices, row_of_edge))
        self.indices = self.indices[order]
        if self.weights is not None:
            self.weights = self.weights[order]

    def __repr__(self) -> str:
        kind = "weighted" if self.is_weighted else "unweighted"
        return (f"CSRGraph(name={self.name!r}, vertices={self.num_vertices}, "
                f"edges={self.num_edges}, {kind})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        same_structure = (np.array_equal(self.indptr, other.indptr)
                          and np.array_equal(self.indices, other.indices))
        if not same_structure:
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        if self.weights is None:
            return True
        return np.allclose(self.weights, other.weights)
