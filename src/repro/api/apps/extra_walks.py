"""Additional random-walk applications built on the paper's API.

The paper's abstraction (Section 3) claims to express "a wide variety
of sampling algorithms"; these two common walks are not in its
evaluation set but fall out of the same user-defined functions —
evidence of the API's generality and useful samplers in their own
right:

- :class:`RWR` — random walk with restart: with probability ``alpha``
  the walker teleports back to its root instead of advancing (the
  neighborhood-exploration primitive behind personalized ranking).
- :class:`MHRW` — Metropolis-Hastings random walk: proposals are
  uniform neighbors, accepted with probability
  ``min(1, deg(v)/deg(u))``; rejected steps stay at the current vertex.
  The resulting stationary distribution is *uniform* over vertices —
  the classic degree-bias correction for crawling social networks
  (Gjoka et al.).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.api.app import SamplingApp
from repro.api.sample import Sample, SampleBatch
from repro.api.types import NULL_VERTEX, SamplingType, StepInfo
from repro.graph.csr import CSRGraph

__all__ = ["RWR", "MHRW"]


class RWR(SamplingApp):
    """Random walk with restart (teleport back to the root)."""

    name = "RWR"

    def __init__(self, restart_prob: float = 0.15,
                 walk_length: int = 100) -> None:
        if not 0.0 <= restart_prob < 1.0:
            raise ValueError("restart_prob must be in [0, 1)")
        self.restart_prob = restart_prob
        self.walk_length = walk_length

    def steps(self) -> int:
        return self.walk_length

    def sample_size(self, step: int) -> int:
        return 1

    def sampling_type(self) -> SamplingType:
        return SamplingType.INDIVIDUAL

    def next(self, sample: Sample, transits: np.ndarray,
             src_edges: np.ndarray, step: int,
             rng: np.random.Generator) -> int:
        if rng.random() < self.restart_prob or src_edges.size == 0:
            return int(sample.roots[0]) if sample is not None else NULL_VERTEX
        return int(src_edges[rng.integers(0, src_edges.size)])

    def sample_neighbors(
        self,
        graph: CSRGraph,
        transits: np.ndarray,
        step: int,
        rng: np.random.Generator,
        prev_transits: Optional[np.ndarray] = None,
        batch: Optional[SampleBatch] = None,
        sample_ids: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, StepInfo]:
        from repro.api.apps._kernels import uniform_neighbors
        out = uniform_neighbors(graph, transits, 1, rng)
        if batch is not None and sample_ids is not None:
            roots = batch.roots[sample_ids, 0]
            restart = rng.random(size=np.asarray(transits).size) \
                < self.restart_prob
            # Dead branches (zero-degree transits) also restart: the
            # walk teleports home instead of dying.
            dead = out[:, 0] == NULL_VERTEX
            live_transit = np.asarray(transits) != NULL_VERTEX
            back = (restart | dead) & live_transit
            out[back, 0] = roots[back]
        info = StepInfo(
            avg_compute_cycles=10.0,
            divergence_fraction=min(1.0, 32 * self.restart_prob),
            divergence_cycles=4.0,
            # The root id is re-read from the sample's state.
            extra_global_reads_per_vertex=self.restart_prob)
        return out, info


class MHRW(SamplingApp):
    """Metropolis-Hastings random walk (uniform stationary dist)."""

    name = "MHRW"
    needs_prev_transits = False

    def __init__(self, walk_length: int = 100) -> None:
        if walk_length < 1:
            raise ValueError("walk_length must be >= 1")
        self.walk_length = walk_length

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
        v = int(transits[0])
        graph = sample.graph if sample is not None else None
        u = int(src_edges[rng.integers(0, src_edges.size)])
        if graph is None:
            return u
        deg_v = graph.degree(v)
        deg_u = max(graph.degree(u), 1)
        if rng.random() <= deg_v / deg_u:
            return u
        return v  # rejected: self-loop at the current vertex

    def sample_neighbors(
        self,
        graph: CSRGraph,
        transits: np.ndarray,
        step: int,
        rng: np.random.Generator,
        prev_transits: Optional[np.ndarray] = None,
        batch: Optional[SampleBatch] = None,
        sample_ids: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, StepInfo]:
        from repro.api.apps._kernels import uniform_neighbors
        transits = np.asarray(transits)
        out = uniform_neighbors(graph, transits, 1, rng)
        live = out[:, 0] != NULL_VERTEX
        if live.any():
            v = transits[live]
            u = out[live, 0]
            deg_v = graph.degrees_array[v].astype(float)
            deg_u = np.maximum(graph.degrees_array[u], 1).astype(float)
            reject = rng.random(size=v.size) > deg_v / deg_u
            stay = out[live, 0]
            stay[reject] = v[reject]
            out[live, 0] = stay
        # The acceptance test reads the *proposal's* degree: an extra
        # scattered indptr read, and a divergent accept/reject branch.
        info = StepInfo(
            avg_compute_cycles=14.0,
            divergence_fraction=0.5,
            divergence_cycles=6.0,
            extra_global_reads_per_vertex=1.0)
        return out, info
