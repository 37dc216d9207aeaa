"""Layer sampling (Gao et al., LGCN).

At each step, sample ``m_i`` vertices *from the combined neighborhood
of all transit vertices of the sample*, until the sample reaches a
user-given maximum size ``M`` — then ``next`` stops adding vertices,
which ends the sample.  Collective transit sampling with ``k = INF``.
Paper parameters: final sample size 2000, step size 1000.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.api.app import SamplingApp
from repro.api.apps._kernels import segment_uniform_choice, uniform_neighbors
from repro.api.sample import Sample, SampleBatch
from repro.api.types import INF_STEPS, NULL_VERTEX, SamplingType, StepInfo
from repro.graph.csr import VERTEX_DTYPE, CSRGraph

__all__ = ["Layer"]


class Layer(SamplingApp):
    """Collective layer sampling with a maximum sample size."""

    name = "Layer"
    #: Uniform choice from the combined multiset == degree-weighted
    #: transit choice + uniform neighbor: no need to materialise it.
    needs_combined_values = False

    def __init__(self, step_size: int = 1000, max_size: int = 2000) -> None:
        if step_size < 1 or max_size < 1:
            raise ValueError("step_size and max_size must be >= 1")
        self.step_size = step_size
        self.max_size = max_size

    # Paper UDFs ------------------------------------------------------

    def steps(self) -> int:
        return INF_STEPS

    def max_steps_cap(self) -> int:
        # Each live step adds step_size vertices, so this never binds.
        return (self.max_size // self.step_size) + 2

    def sample_size(self, step: int) -> int:
        return self.step_size

    def sampling_type(self) -> SamplingType:
        return SamplingType.COLLECTIVE

    def next(self, sample: Sample, transits: np.ndarray,
             src_edges: np.ndarray, step: int,
             rng: np.random.Generator) -> int:
        if src_edges.size == 0:
            return NULL_VERTEX
        if sample is not None and sample.vertices(include_roots=False).size >= self.max_size:
            return NULL_VERTEX
        return int(src_edges[rng.integers(0, src_edges.size)])

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
        if neigh_values is not None:
            out = segment_uniform_choice(neigh_values, sample_offsets,
                                         self.step_size, rng)
        else:
            out = self._sample_without_materialising(graph, transits, rng)
        # Samples that already reached M stop growing.
        sizes = np.zeros(batch.num_samples, dtype=np.int64)
        for arr in batch.step_vertices:
            sizes += (arr != NULL_VERTEX).sum(axis=1)
        out[sizes >= self.max_size] = NULL_VERTEX
        return out, StepInfo(avg_compute_cycles=8.0)

    def _sample_without_materialising(self, graph: CSRGraph,
                                      transits: np.ndarray,
                                      rng: np.random.Generator) -> np.ndarray:
        """Uniform draw from the combined multiset, computed as a
        degree-weighted transit choice followed by a uniform neighbor
        — distributionally identical to sampling the concatenation."""
        transits = np.asarray(transits)
        num_samples, width = transits.shape
        flat = transits.ravel()
        live = flat != NULL_VERTEX
        deg = np.zeros(flat.size, dtype=np.float64)
        deg[live] = graph.degrees_array[flat[live]]
        deg = deg.reshape(num_samples, width)
        cum = np.cumsum(deg, axis=1)
        totals = cum[:, -1]
        out = np.full((num_samples, self.step_size), NULL_VERTEX,
                      dtype=VERTEX_DTYPE)
        live_rows = np.nonzero(totals > 0)[0]
        for s in live_rows:
            targets = rng.random(self.step_size) * totals[s]
            cols = np.searchsorted(cum[s], targets, side="right")
            cols = np.minimum(cols, width - 1)
            chosen = transits[s, cols]
            picks = uniform_neighbors(graph, chosen, 1, rng)[:, 0]
            out[s] = picks
        return out
