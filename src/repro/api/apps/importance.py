"""Importance sampling: FastGCN and LADIES.

"In FastGCN and LADIES every sample includes an adjacency matrix that
records the edges between vertices added in the previous step (the
transit vertices) and the current step.  At each step i, m_i vertices
are sampled from the graph according to a probability distribution and
these vertices are added to the sample." (Section 4.2)

- **FastGCN** samples layer-independently from the whole graph with
  importance ``q(v) ∝ deg(v) + 1`` (a degree-squared norm in the
  original; degree-proportional here — the distribution's exact shape
  doesn't change the systems behaviour being reproduced).
- **LADIES** is layer-*dependent*: candidates are restricted to the
  combined neighborhood of the sample's transits, again weighted by
  degree.

Both are collective transit sampling; the paper sets batch size and
step size to 64.
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Tuple

import numpy as np

from repro.api.app import SamplingApp
from repro.api.apps._kernels import _backend, rowwise_searchsorted
from repro.api.sample import Sample, SampleBatch
from repro.api.types import NULL_VERTEX, SamplingType, StepInfo
from repro.graph.csr import CSRGraph

__all__ = ["FastGCN", "LADIES"]

#: Upper bound on one step-local adjacency bitmap of
#: :meth:`FastGCN.record_step_edges`; larger steps record in blocks of
#: sample rows.
EDGE_BLOCK_MAX_BYTES = 1 << 26

_TABLE_LOCK = threading.Lock()


def _graph_table(graph: CSRGraph, attr: str, build):
    """``build(graph)``, cached on the graph as ``attr``.  Several runs
    on one graph (the daemon's executors) may touch it first at once:
    built by one of them."""
    with _TABLE_LOCK:
        table = getattr(graph, attr, None)
        if table is None:
            table = build(graph)
            setattr(graph, attr, table)
    return table


class FastGCN(SamplingApp):
    """Layer-independent importance sampling."""

    name = "FastGCN"
    #: Samples from the whole graph: the combined neighborhood's values
    #: are never read (only edges back to transits are recorded).
    needs_combined_values = False

    def __init__(self, step_size: int = 64, num_steps: int = 2,
                 batch_size: int = 64) -> None:
        if min(step_size, num_steps, batch_size) < 1:
            raise ValueError("parameters must be >= 1")
        self.step_size = step_size
        self.num_steps = num_steps
        self.batch_size = batch_size

    # Paper UDFs ------------------------------------------------------

    def steps(self) -> int:
        return self.num_steps

    def sample_size(self, step: int) -> int:
        return self.step_size

    def sampling_type(self) -> SamplingType:
        return SamplingType.COLLECTIVE

    def initial_roots(self, graph: CSRGraph, num_samples: int,
                      rng: np.random.Generator) -> np.ndarray:
        return self.random_roots(graph, (num_samples, self.batch_size), rng)

    def _importance(self, graph: CSRGraph) -> Tuple[np.ndarray, np.ndarray]:
        """Importance distribution and its CDF, cached on the graph."""
        return _graph_table(graph, "_fastgcn_importance",
                            self._build_importance)

    @staticmethod
    def _build_importance(graph: CSRGraph):
        weights = graph.degrees().astype(np.float64) + 1.0
        probs = weights / weights.sum()
        return probs, np.cumsum(probs)

    def next(self, sample: Sample, transits: np.ndarray,
             src_edges: np.ndarray, step: int,
             rng: np.random.Generator) -> int:
        graph = sample.graph
        probs, _ = self._importance(graph)
        return int(rng.choice(graph.num_vertices, p=probs))

    # Vectorised path -------------------------------------------------

    def sample_from_neighborhood(
        self,
        graph: CSRGraph,
        batch: SampleBatch,
        neigh_values: np.ndarray,
        sample_offsets: np.ndarray,
        transits: np.ndarray,
        step: int,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, StepInfo]:
        # Inverse-transform over the global importance CDF.
        _, cdf = self._importance(graph)
        draws = rng.random(size=(batch.num_samples, self.step_size))
        out = np.searchsorted(cdf, draws).astype(np.int64)
        out = np.minimum(out, graph.num_vertices - 1)
        return out, StepInfo(avg_compute_cycles=12.0)

    def record_step_edges(
        self,
        graph: CSRGraph,
        batch: SampleBatch,
        transits: np.ndarray,
        new_vertices: np.ndarray,
        step: int,
    ) -> Optional[np.ndarray]:
        """Record edges between each transit and each new vertex when
        they exist in the graph (the sample's layer adjacency).

        A step probes ``S * T * W`` (transit, new-vertex) pairs but
        touches few distinct vertices, so each block of sample rows
        builds its own :meth:`~repro.graph.csr.CSRGraph.adjacency_block`
        and answers all its probes with one broadcasted gather + bit
        test.  Hits are emitted in (sample, transit-column, new-column)
        C-order.
        """
        num_samples, t_width = transits.shape
        v_width = new_vertices.shape[1]
        probes = t_width * v_width
        if num_samples * probes == 0:
            return np.zeros((0, 3), dtype=np.int64)
        # Worst case (all vertices of the block distinct) the bitmap is
        # (rows*T + 1) * ceil((rows*W + 1) / 8) bytes: quadratic in rows.
        rows = max(1, math.isqrt(8 * EDGE_BLOCK_MAX_BYTES
                                 // ((t_width + 1) * (v_width + 8))))
        native = _backend().edge_hits(graph, transits, new_vertices, rows)
        if native is not None:
            return native
        hits = []
        for lo in range(0, num_samples, rows):
            t, v = transits[lo:lo + rows], new_vertices[lo:lo + rows]
            bits, row_base, col_slot = graph.adjacency_block(t, v)
            col = col_slot[v]
            byte = row_base[t][:, :, None] + (col >> 3)[:, None, :]
            mask = np.left_shift(1, col & 7).astype(np.uint8)
            hits.append(np.flatnonzero(bits[byte] & mask[:, None, :])
                        + lo * probes)
        flat = np.concatenate(hits)
        pair = flat // v_width
        sample = pair // t_width
        out = np.empty((flat.size, 3), dtype=np.int64)
        out[:, 0] = sample
        out[:, 1] = transits.ravel()[pair]
        out[:, 2] = new_vertices.ravel()[sample * v_width + flat % v_width]
        return out


class LADIES(FastGCN):
    """Layer-dependent importance sampling: candidates restricted to
    the combined neighborhood of the sample's transits."""

    name = "LADIES"
    #: LADIES' candidates *are* the combined neighborhood, but the
    #: two-level draw below samples it through the CSR structure
    #: directly — the concatenated candidate array (which hub-heavy
    #: transit sets blow up to tens of millions of entries) is never
    #: materialised.
    needs_combined_values = False

    def next(self, sample: Sample, transits: np.ndarray,
             src_edges: np.ndarray, step: int,
             rng: np.random.Generator) -> int:
        if src_edges.size == 0:
            return NULL_VERTEX
        graph = sample.graph
        weights = graph.degrees()[src_edges].astype(np.float64) + 1.0
        weights /= weights.sum()
        return int(rng.choice(src_edges, p=weights))

    def sample_from_neighborhood(
        self,
        graph: CSRGraph,
        batch: SampleBatch,
        neigh_values: np.ndarray,
        sample_offsets: np.ndarray,
        transits: np.ndarray,
        step: int,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, StepInfo]:
        out = np.full((batch.num_samples, self.step_size), NULL_VERTEX,
                      dtype=np.int64)
        t = np.asarray(transits, dtype=np.int64)
        flat = t.ravel()
        live_pair = flat != NULL_VERTEX
        ecs, vertex_mass = self._edge_importance(graph)
        mass = np.zeros(flat.size, dtype=np.float64)
        mass[live_pair] = vertex_mass[flat[live_pair]]
        # Zero-mass transits (degree 0) contribute no candidates; with
        # them dropped, every per-sample transit-mass prefix is
        # strictly increasing, which the boundary argument below needs.
        pair_idx = np.nonzero(mass > 0)[0]
        if pair_idx.size == 0:
            return out, StepInfo(avg_compute_cycles=14.0)
        pair_t = flat[pair_idx]
        pair_s = pair_idx // t.shape[1]
        # Per-sample cumulative transit mass via global cumsum minus
        # segment base.  All masses are integer-valued (sums of
        # deg + 1), so every value is exact in float64 and bit-equal to
        # the prefix of the materialised candidate CDF at each
        # transit's last candidate.
        gmass = np.cumsum(mass[pair_idx])
        counts = np.bincount(pair_s, minlength=t.shape[0])
        offs = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        base = np.where(offs[:-1] > 0, gmass[offs[:-1] - 1], 0.0)
        local_mass = gmass - np.repeat(base, counts)
        live = np.nonzero(counts > 0)[0]
        lo = offs[:-1][live]
        hi = offs[1:][live]
        totals = local_mass[hi - 1]
        # One rng block: row k is the k-th live sample's sequential
        # rng.random(step_size) call, so the stream matches the
        # per-sample loop this replaces.
        draws = rng.random((live.size, self.step_size)) * totals[:, None]
        # Level 1: which transit's neighborhood the draw lands in.  A
        # draw picks transit c iff it falls past every earlier
        # transit's mass — the same index the flat searchsorted over
        # the materialised CDF resolves to, because the transit prefix
        # is that CDF evaluated at segment boundaries.
        native = _backend().two_level_pick(graph, ecs, local_mass, lo, hi,
                                           pair_t, draws)
        if native is not None:
            out[live] = native
            return out, StepInfo(avg_compute_cycles=14.0)
        pc = rowwise_searchsorted(local_mass, draws, lo[:, None],
                                  hi[:, None])
        pc = np.minimum(pc, (hi - 1)[:, None])
        rem = draws - np.where(pc > lo[:, None],
                               local_mass[np.maximum(pc - 1, 0)], 0.0)
        # Level 2: which neighbor within the chosen transit's CSR row.
        # The row-local edge CDF is ``ecs`` minus the row base — exact
        # (integer values) — so the bisection compares the identical
        # numbers the flat search compared, shifted by an exact
        # constant.  ``rem`` is exact too: subtracting an integer-
        # valued float from a float of larger magnitude is lossless.
        tv = pair_t[pc]
        elo = graph.indptr[tv]
        ehi = elo + graph.degrees_array[tv]
        ebase = np.where(elo > 0, ecs[np.maximum(elo - 1, 0)], 0.0)
        level, ceil = elo.copy(), ehi.copy()
        last = ecs.size - 1
        for _ in range(max(int(graph.degrees_array.max(initial=1)),
                           1).bit_length()):
            active = level < ceil
            mid = (level + ceil) >> 1
            probe = ecs[np.minimum(mid, last)] - ebase
            descend = active & (probe < rem)
            level = np.where(descend, mid + 1, level)
            ceil = np.where(active & ~descend, mid, ceil)
        pos = np.minimum(level, ehi - 1)
        out[live] = graph.indices[pos]
        return out, StepInfo(avg_compute_cycles=14.0)

    def _edge_importance(self, graph: CSRGraph):
        """Cached (per graph) global cumsum of per-candidate importance
        ``deg(dst) + 1`` in CSR edge order, plus each vertex's total
        neighborhood mass (its row's share of that cumsum)."""
        return _graph_table(graph, "_ladies_edge_importance",
                            self._build_edge_importance)

    @staticmethod
    def _build_edge_importance(graph: CSRGraph):
        w = graph.degrees_array[graph.indices].astype(np.float64) + 1.0
        ecs = np.cumsum(w)
        mass = np.zeros(graph.num_vertices, dtype=np.float64)
        starts = graph.indptr[:-1]
        ends = starts + graph.degrees_array
        ne = np.nonzero(ends > starts)[0]
        if ne.size:
            base = np.where(starts[ne] > 0, ecs[starts[ne] - 1], 0.0)
            mass[ne] = ecs[ends[ne] - 1] - base
        return ecs, mass
