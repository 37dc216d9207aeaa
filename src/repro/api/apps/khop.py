"""k-hop neighborhood sampling (GraphSAGE) and MVS.

GraphSAGE's sampler: at each step, for every transit vertex, uniformly
sample ``m_i`` of its neighbors; the vertices added at a step are the
transits of the next step, so the transit count grows multiplicatively
(``prod m_i``).  Paper parameters (Section 8): ``k = 2``,
``m_1 = 25``, ``m_2 = 10``; output format (2) — one array per step,
because the GNN consumes each hop as one network layer.

MVS (minimal-variance sampling, Cong et al.) "obtains 1-hop neighbors
of all initial vertices in the sample": a one-step k-hop where each
sample starts from a *mini-batch* of root vertices (batch size 64 in
the paper) rather than a single root.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.api.app import SamplingApp
from repro.api.apps._kernels import uniform_neighbors
from repro.api.sample import Sample, SampleBatch
from repro.api.types import NULL_VERTEX, OutputFormat, SamplingType, StepInfo
from repro.graph.csr import CSRGraph

__all__ = ["KHop", "MVS"]


class KHop(SamplingApp):
    """GraphSAGE's k-hop neighborhood sampler."""

    name = "k-hop"
    output_format = OutputFormat.PER_STEP

    def __init__(self, fanouts: Sequence[int] = (25, 10),
                 unique_per_step: bool = False) -> None:
        if not fanouts or any(f < 1 for f in fanouts):
            raise ValueError("fanouts must be positive")
        self.fanouts = tuple(int(f) for f in fanouts)
        self.unique_per_step = unique_per_step

    # Paper UDFs ------------------------------------------------------

    def steps(self) -> int:
        return len(self.fanouts)

    def sample_size(self, step: int) -> int:
        return self.fanouts[step]

    def unique(self, step: int) -> bool:
        return self.unique_per_step

    def sampling_type(self) -> SamplingType:
        return SamplingType.INDIVIDUAL

    def next(self, sample: Sample, transits: np.ndarray,
             src_edges: np.ndarray, step: int,
             rng: np.random.Generator) -> int:
        if src_edges.size == 0:
            return NULL_VERTEX
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
        out = uniform_neighbors(graph, transits, self.sample_size(step), rng,
                                out_rows, rows)
        return out, StepInfo(avg_compute_cycles=8.0)


class MVS(KHop):
    """Minimal-variance sampling: 1-hop neighbors of a 64-vertex batch."""

    name = "MVS"

    def __init__(self, batch_size: int = 64, fanout: int = 1) -> None:
        super().__init__(fanouts=(fanout,))
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size

    def initial_roots(self, graph: CSRGraph, num_samples: int,
                      rng: np.random.Generator) -> np.ndarray:
        return self.random_roots(graph, (num_samples, self.batch_size), rng)
