"""node2vec: second-order random walk via rejection sampling.

From the paper (Section 4.2): let ``v`` be the transit and ``t`` the
transit of the previous step.  The unnormalised probability of picking
edge ``(v, u)`` is

- ``p``    if ``u == t``,
- ``1/q``  if ``u != t`` and ``u`` is a neighbor of ``t``,
- ``1``    otherwise,

and the next vertex is drawn by rejection sampling against the envelope
``max(p, 1/q, 1)`` (KnightKing's technique, which NextDoor adopts).
Paper parameters: ``p = 2.0``, ``q = 0.5``, walk length 100.

The membership probe ``u in neighbors(t)`` is the reason node2vec costs
more on the GPU than DeepWalk — it is an extra, data-dependent global
read with divergent control flow (Section 8.2) — and the vectorised
kernel reports exactly the probes and rejection rounds it performed so
the performance model charges for them.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.api.app import SamplingApp
from repro.api.sample import Sample, SampleBatch
from repro.api.types import NULL_VERTEX, SamplingType, StepInfo
from repro.graph.csr import CSRGraph

__all__ = ["Node2Vec"]


class Node2Vec(SamplingApp):
    """Second-order (dynamic) random walk."""

    name = "node2vec"
    needs_prev_transits = True

    #: Rejection rounds before falling back to accepting the proposal —
    #: bounds worst-case work exactly as a real kernel must.
    MAX_ROUNDS = 32

    def __init__(self, p: float = 2.0, q: float = 0.5,
                 walk_length: int = 100) -> None:
        if p <= 0 or q <= 0:
            raise ValueError("p and q must be positive")
        if walk_length < 1:
            raise ValueError("walk_length must be >= 1")
        self.p = p
        self.q = q
        self.walk_length = walk_length

    # Paper UDFs ------------------------------------------------------

    def steps(self) -> int:
        return self.walk_length

    def sample_size(self, step: int) -> int:
        return 1

    def sampling_type(self) -> SamplingType:
        return SamplingType.INDIVIDUAL

    def _edge_bias(self, graph: CSRGraph, t: int, u: int) -> float:
        """The paper's three-case unnormalised probability."""
        if u == t:
            return self.p
        if graph.has_edge(t, u):
            return 1.0 / self.q
        return 1.0

    def next(self, sample: Sample, transits: np.ndarray,
             src_edges: np.ndarray, step: int,
             rng: np.random.Generator) -> int:
        if src_edges.size == 0:
            return NULL_VERTEX
        t = sample.prev_vertex(2, 0) if sample is not None else NULL_VERTEX
        if t == NULL_VERTEX and (sample is None
                                 or not sample.graph.is_weighted):
            # First step, unweighted: the bias degenerates to uniform.
            return int(src_edges[rng.integers(0, src_edges.size)])
        graph = sample.graph
        v = int(transits[0])
        # On weighted graphs the bias is multiplied by the edge weight,
        # rejected against maxEdgeWeight — exactly the paper's
        # rejection-smpl(transit, srcEdges, maxW, t, tEdges, p, q).
        weights = graph.edge_weights(v) if graph.is_weighted else None
        max_w = graph.max_edge_weight(v) if graph.is_weighted else 1.0
        envelope = max(self.p, 1.0 / self.q, 1.0) * max_w
        for _ in range(self.MAX_ROUNDS):
            idx = int(rng.integers(0, src_edges.size))
            u = int(src_edges[idx])
            bias = (self._edge_bias(graph, t, u)
                    if t != NULL_VERTEX else 1.0)
            if weights is not None:
                bias *= float(weights[idx])
            if rng.random() * envelope <= bias:
                return u
        return u

    # Vectorised path -------------------------------------------------

    def sample_neighbors(
        self,
        graph: CSRGraph,
        transits: np.ndarray,
        step: int,
        rng: np.random.Generator,
        prev_transits: Optional[np.ndarray] = None,
        batch: Optional[SampleBatch] = None,
        sample_ids: Optional[np.ndarray] = None,
        out_rows: Optional[np.ndarray] = None,
        rows: Optional[np.ndarray] = None,
    ) -> Tuple[Optional[np.ndarray], StepInfo]:
        transits = np.asarray(transits, dtype=np.int64)
        from repro.api.apps._kernels import _backend
        native = _backend().node2vec_neighbors(
            graph, transits, prev_transits, self.p, self.q,
            self.MAX_ROUNDS, rng, out_rows, rows)
        if native is not None:
            out, eligible, proposals, probes = native
            out = out if out_rows is None else None  # else written in place
            if eligible == 0:
                return out, StepInfo()
            return out, self._step_info(eligible, proposals, probes)
        out = np.full((transits.size, 1), NULL_VERTEX, dtype=np.int64)
        live = transits != NULL_VERTEX
        if not live.any():
            return out, StepInfo()
        t_cur = transits[live]
        deg = graph.degrees_array[t_cur]
        has_nbrs = deg > 0
        t_cur = t_cur[has_nbrs]
        deg = deg[has_nbrs]
        live_idx = np.nonzero(live)[0][has_nbrs]
        if t_cur.size == 0:
            return out, StepInfo()

        if prev_transits is None:
            prev = np.full(t_cur.size, NULL_VERTEX, dtype=np.int64)
        else:
            prev = np.asarray(prev_transits, dtype=np.int64)[live][has_nbrs]

        bias_envelope = max(self.p, 1.0 / self.q, 1.0)
        if graph.is_weighted:
            envelope = bias_envelope * graph.row_max_weight()[t_cur]
        else:
            envelope = np.full(t_cur.size, bias_envelope)
        accepted = np.full(t_cur.size, NULL_VERTEX, dtype=np.int64)
        pending = np.arange(t_cur.size)
        total_proposals = 0
        total_probes = 0
        rounds = 0
        while pending.size and rounds < self.MAX_ROUNDS:
            rounds += 1
            tc = t_cur[pending]
            d = deg[pending]
            picks = (rng.random(size=pending.size) * d).astype(np.int64)
            picks = np.minimum(picks, d - 1)
            positions = graph.indptr[tc] + picks
            proposal = graph.indices[positions]
            total_proposals += pending.size

            pv = prev[pending]
            no_prev = pv == NULL_VERTEX
            bias = np.ones(pending.size)
            back = (proposal == pv) & ~no_prev
            bias[back] = self.p
            need_probe = ~back & ~no_prev
            if need_probe.any():
                probe_hit = graph.has_edges(pv[need_probe],
                                            proposal[need_probe])
                total_probes += int(need_probe.sum())
                idx = np.nonzero(need_probe)[0]
                bias[idx[probe_hit]] = 1.0 / self.q
            if graph.is_weighted:
                bias = bias * graph.weights[positions]
            accept = (rng.random(size=pending.size) * envelope[pending]
                      <= bias)
            if not graph.is_weighted:
                # Unweighted first step: uniform, no rejection needed.
                accept |= no_prev
            accepted[pending[accept]] = proposal[accept]
            # Cap reached: take the last proposal, as the reference does.
            if rounds == self.MAX_ROUNDS:
                accepted[pending[~accept]] = proposal[~accept]
            pending = pending[~accept]

        out[live_idx, 0] = accepted
        return out, self._step_info(t_cur.size, total_proposals,
                                    total_probes)

    def _step_info(self, eligible: int, total_proposals: int,
                   total_probes: int) -> StepInfo:
        """Modeled charges from the kernel's observed work counts —
        shared by the numpy and compiled paths so identical counts
        yield identical charges."""
        avg_rounds = total_proposals / max(1, eligible)
        probes_per_vertex = total_probes / max(1, eligible)
        # Each probe is a binary search over the previous transit's
        # adjacency list in *global* memory: its touches cluster within
        # one row (~2 distinct sectors), but the rows themselves are
        # uncacheable under transit grouping — extra scattered reads
        # for every engine — and the accept/reject loop is a divergent
        # branch.
        return StepInfo(
            avg_compute_cycles=10.0 * avg_rounds,
            divergence_fraction=min(1.0, avg_rounds - 1.0 + 0.2),
            divergence_cycles=12.0,
            extra_global_reads_per_vertex=probes_per_vertex * 2.0,
            neighbor_reads_per_vertex=avg_rounds,
        )
