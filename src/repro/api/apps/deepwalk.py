"""DeepWalk: fixed-size biased static random walk (Perozzi et al.).

"DeepWalk performs fixed-size biased static random walks, where the
probability of following an edge is proportional to the edge weight."
On unweighted graphs the walk is uniform.  Paper parameters: walk
length 100, one root vertex per sample, ``m_i = 1``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.api.app import SamplingApp
from repro.api.apps._kernels import uniform_neighbors, weighted_neighbors
from repro.api.sample import Sample, SampleBatch
from repro.api.types import NULL_VERTEX, SamplingType, StepInfo
from repro.graph.csr import CSRGraph

__all__ = ["DeepWalk"]


class DeepWalk(SamplingApp):
    """Biased static random walk of fixed length."""

    name = "DeepWalk"

    def __init__(self, walk_length: int = 100) -> None:
        if walk_length < 1:
            raise ValueError("walk_length must be >= 1")
        self.walk_length = walk_length

    # Paper UDFs ------------------------------------------------------

    def steps(self) -> int:
        return self.walk_length

    def sample_size(self, step: int) -> int:
        return 1

    def sampling_type(self) -> SamplingType:
        return SamplingType.INDIVIDUAL

    def next(self, sample: Sample, transits: np.ndarray,
             src_edges: np.ndarray, step: int,
             rng: np.random.Generator) -> int:
        if src_edges.size == 0:
            return NULL_VERTEX
        graph = sample.graph if sample is not None else None
        if graph is not None and graph.is_weighted:
            t = int(transits[0])
            weights = graph.edge_weights(t)
            total = weights.sum()
            if total <= 0:
                return NULL_VERTEX
            target = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(weights), target,
                                      side="right"))
            idx = min(idx, src_edges.size - 1)
            return int(src_edges[idx])
        return int(src_edges[rng.integers(0, src_edges.size)])

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
        if graph.is_weighted:
            out = weighted_neighbors(graph, transits, 1, rng, out_rows, rows)
            # The modeled GPU kernel is the paper's: RNG + a binary
            # search over the transit's weight prefix — log2(d) probes
            # per draw, served from the cached row under
            # transit-parallelism.  The host kernels reach the same edge
            # from the graph's guide table instead.
            probes = float(np.log2(max(graph.avg_degree, 1.0) + 1))
            info = StepInfo(avg_compute_cycles=8.0 + 2.0 * probes,
                            cacheable_reads_per_vertex=probes)
        else:
            out = uniform_neighbors(graph, transits, 1, rng, out_rows, rows)
            info = StepInfo(avg_compute_cycles=8.0)
        return out, info
