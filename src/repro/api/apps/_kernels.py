"""Vectorised sampling primitives shared by the built-in applications.

Each primitive consumes a flat array of transit vertices (NULL entries
pass through as NULL) and produces the step's new vertices for every
(sample, transit) pair at once.  These are the numpy equivalents of the
GPU kernels' inner loops (the ``_*_numpy`` bodies also rescue a failed
C kernel); the per-vertex reference path in
:class:`~repro.api.app.SamplingApp` computes the same distributions one
vertex at a time.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.api.types import NULL_VERTEX
from repro.core.ragged import exclusive_offsets, ragged_gather
from repro.graph.csr import CSRGraph

__all__ = [
    "uniform_neighbors",
    "weighted_neighbors",
    "weighted_picks",
    "segment_uniform_choice",
    "build_combined_neighborhood",
    "combined_neighborhood_offsets",
    "rowwise_searchsorted",
]


def _backend():
    """The process-wide kernel backend (``repro.native``); its hooks
    return ``None`` to select the numpy code below, with bitwise-
    identical draws either way."""
    from repro.native.backend import active_backend
    return active_backend()


def _land(picks, out_rows, rows):
    """``picks``; given a destination, ``None`` after ``out_rows[rows]
    = picks``, the write the compiled fills do as they draw."""
    if out_rows is None:
        return picks
    out_rows[rows] = picks
    return None


def _over_eligible(graph: CSRGraph, transits: np.ndarray, m: int,
                   draw) -> np.ndarray:
    """``(K, m)``: the rows ``draw(t, deg)`` returns for the live
    transits ``t`` that have an edge (``deg`` their degrees), in order;
    NULL rows for NULL and zero-degree transits."""
    transits = np.asarray(transits, dtype=np.int64)
    live = transits != NULL_VERTEX
    if m == 0 or not live.any():
        return np.full((transits.size, m), NULL_VERTEX, dtype=np.int64)
    all_live = bool(live.all())
    t = transits if all_live else transits[live]
    deg = graph.degrees_array[t]
    has_nbrs = deg > 0
    all_nbrs = bool(has_nbrs.all())
    if not all_nbrs:
        if not has_nbrs.any():
            return np.full((transits.size, m), NULL_VERTEX, dtype=np.int64)
        t = t[has_nbrs]
        deg = deg[has_nbrs]
    sampled = draw(t, deg)
    if all_live and all_nbrs:
        return sampled.astype(np.int64, copy=False)
    out = np.full((transits.size, m), NULL_VERTEX, dtype=np.int64)
    live_idx = np.nonzero(live)[0]
    if not all_nbrs:
        live_idx = live_idx[has_nbrs]
    out[live_idx] = sampled
    return out


def uniform_neighbors(graph: CSRGraph, transits: np.ndarray, m: int,
                      rng: np.random.Generator,
                      out_rows: Optional[np.ndarray] = None,
                      rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Choose ``m`` uniform neighbors (with replacement) per transit.

    Returns ``(K, m)``; NULL transits and zero-degree transits yield
    NULL rows.  Given the step's ``m``-wide destination ``out_rows`` and
    each transit's row ``rows``, writes them to ``out_rows[rows]``
    instead and returns ``None``.
    """
    native = _backend().uniform_neighbors(graph, transits, m, rng,
                                          out_rows=out_rows, rows=rows)
    if native is None:
        return _land(_uniform_numpy(graph, transits, m, rng), out_rows, rows)
    return native if out_rows is None else None


def _uniform_numpy(graph, transits, m, rng):
    def draw(t, deg):
        # Uniform index into each row, for each of the m draws.
        r = rng.random(size=(t.size, m))
        picks = (r * deg[:, None]).astype(np.int64)
        picks = np.minimum(picks, (deg - 1)[:, None])
        return graph.indices[graph.indptr[t][:, None] + picks]

    return _over_eligible(graph, transits, m, draw)


def rowwise_searchsorted(values: np.ndarray, targets: np.ndarray,
                         lo: np.ndarray, hi: np.ndarray,
                         side: str = "left") -> np.ndarray:
    """Vectorised per-row bisection with ``np.searchsorted`` semantics.

    For every element, finds the first index in ``[lo, hi)`` with
    ``values[idx] >= target`` (``side="left"``) or ``> target``
    (``side="right"``), returning ``hi`` when no such index exists.
    Because binary search on a monotone array is path-independent, the
    result is identical to searching the row slice itself — but all
    rows are answered together, walking ``log2(max row width)`` levels
    instead of one ``searchsorted`` call per row.

    ``lo``/``hi`` broadcast against ``targets``.
    """
    lo, hi, targets = np.broadcast_arrays(lo, hi, targets)
    lo = lo.astype(np.int64)        # also copies the broadcast views
    hi = hi.astype(np.int64)
    width = int((hi - lo).max(initial=0))
    last = values.size - 1
    for _ in range(max(width, 1).bit_length()):
        active = lo < hi
        mid = (lo + hi) >> 1
        probe = values[np.minimum(mid, last)]
        descend = probe < targets if side == "left" else probe <= targets
        go_right = active & descend
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
    return lo


#: Forward steps the vectorised weighted draw takes past its guide
#: entry; the few draws still short of their edge then bisect.
GUIDE_SCAN_STEPS = 4


def weighted_picks(graph: CSRGraph, t: np.ndarray,
                   r: np.ndarray) -> np.ndarray:
    """Edge positions of the ``(m, K)`` draws ``r`` in the rows of the
    ``K`` transits ``t`` (each with an edge): per draw, the first edge
    whose global cumsum exceeds ``base + r * total``, clamped to the
    row's last edge — ``searchsorted(cumsum, target, "right")`` — found
    from the row's :meth:`~repro.graph.csr.CSRGraph.weight_guide` entry
    by a short forward scan.  Reads the field views of
    :meth:`~repro.graph.csr.CSRGraph.weight_records`."""
    starts = graph.indptr[t]
    deg = graph.degrees_array[t]
    last = starts + deg - 1
    cumsum = graph.global_weight_cumsum()
    row_base, row_total = graph.weight_row_spans()
    targets = row_base[t] + r * row_total[t]
    bucket = (r * deg).astype(np.int64)
    np.minimum(bucket, deg - 1, out=bucket)
    pos = starts + graph.weight_guide()[starts + bucket]
    more = np.flatnonzero((pos < last) & (cumsum[pos] <= targets))
    flat, targets = pos.reshape(-1), targets.reshape(-1)
    last = np.broadcast_to(last, pos.shape).reshape(-1)
    for _ in range(GUIDE_SCAN_STEPS):
        if not more.size:
            return pos
        p = flat[more] + 1
        flat[more] = p
        more = more[(p < last[more]) & (cumsum[p] <= targets[more])]
    if more.size:
        # Path-independent: from the draw's position to its row's last
        # edge is the global search's edge, with no strided-view copy.
        flat[more] = rowwise_searchsorted(cumsum, targets[more], flat[more],
                                          last[more], side="right")
    return pos


def weighted_neighbors(graph: CSRGraph, transits: np.ndarray, m: int,
                       rng: np.random.Generator,
                       out_rows: Optional[np.ndarray] = None,
                       rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Choose ``m`` neighbors per transit with probability proportional
    to edge weight (DeepWalk's biased static walk): inverse-transform
    sampling over the weight cumsum, located by :func:`weighted_picks`.
    The destination is :func:`uniform_neighbors`'."""
    if not graph.is_weighted:
        return uniform_neighbors(graph, transits, m, rng, out_rows, rows)
    native = _backend().weighted_neighbors(graph, transits, m, rng,
                                           out_rows=out_rows, rows=rows)
    if native is None:
        return _land(_weighted_numpy(graph, transits, m, rng), out_rows, rows)
    return native if out_rows is None else None


def _weighted_numpy(graph, transits, m, rng):
    def draw(t, deg):
        # All m draws in one block: row j of the (m, K) block is the
        # j-th sequential rng.random(K) call, so the stream (and every
        # sampled vertex) matches the draw-at-a-time loop bit for bit.
        r = rng.random(size=(m, t.size))
        return graph.indices[weighted_picks(graph, t, r)].T

    return _over_eligible(graph, transits, m, draw)


def segment_uniform_choice(values: np.ndarray, offsets: np.ndarray, m: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Choose ``m`` uniform elements (with replacement) from each ragged
    segment ``values[offsets[s]:offsets[s+1]]``; empty segments yield
    NULL rows.  Used by collective sampling over combined
    neighborhoods: the uniform neighbor draw, segment ``s`` being the
    CSR row of "transit" ``s``."""
    return uniform_neighbors(_Segments(values, offsets),
                             np.arange(np.size(offsets) - 1), m, rng)


class _Segments:
    """Ragged segments as the CSR arrays the uniform draw reads."""

    def __init__(self, values, offsets) -> None:
        self.indices = np.ascontiguousarray(values, dtype=np.int64)
        self.indptr = np.ascontiguousarray(offsets, dtype=np.int64)
        self.degrees_array = np.diff(self.indptr)


def combined_neighborhood_offsets(graph: CSRGraph,
                                  transits: np.ndarray) -> np.ndarray:
    """The ``(S + 1,)`` offsets of :func:`build_combined_neighborhood`
    without the values: what a collective application that declares
    ``needs_combined_values = False`` selects from — hub-heavy transit
    sets would otherwise materialise multi-gigabyte arrays."""
    transits = np.asarray(transits, dtype=np.int64)
    live = transits != NULL_VERTEX
    deg = np.zeros(transits.shape, dtype=np.int64)
    deg[live] = graph.degrees_array[transits[live]]
    return exclusive_offsets(deg.sum(axis=1))


def build_combined_neighborhood(
    graph: CSRGraph, transits: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the neighborhoods of each sample's transits.

    ``transits`` is ``(S, T)`` (NULL-padded).  Returns ``(values,
    offsets)`` where sample ``s`` owns
    ``values[offsets[s]:offsets[s+1]]``.  This is the structure the
    transit-parallel combined-neighborhood kernel of Section 6.2
    produces in device memory.
    """
    transits = np.asarray(transits, dtype=np.int64)
    # One ragged gather copies every live transit's CSR row into place.
    # Live pairs are enumerated in row-major (sample, column) order, so
    # the concatenation lands each sample's rows contiguously, columns
    # in order — the same layout the per-sample cursor loop produced.
    lv = transits[transits != NULL_VERTEX]
    values, _ = ragged_gather(graph.indices, graph.indptr[lv],
                              graph.degrees_array[lv])
    return (values.astype(np.int64, copy=False),
            combined_neighborhood_offsets(graph, transits))
