"""Personalized PageRank walk: variable-size biased static random walk.

"Personalized Page Rank performs a variable-size biased static random
walk, where the probability of ending the random walk is defined by the
user."  Paper parameters: termination probability 1/100 (mean length
100), ``k = INF``; a walk ends when ``next`` declines to add a vertex,
which removes the sample's only transit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.api.app import SamplingApp
from repro.api.apps._kernels import (uniform_neighbors, walk_step_info,
                                     weighted_neighbors)
from repro.api.sample import Sample, SampleBatch
from repro.api.types import INF_STEPS, NULL_VERTEX, SamplingType, StepInfo
from repro.graph.csr import CSRGraph

__all__ = ["PPR"]


class PPR(SamplingApp):
    """Variable-length walk with per-step termination probability."""

    name = "PPR"

    def __init__(self, termination_prob: float = 0.01,
                 max_steps: int = 1000) -> None:
        if not 0.0 < termination_prob <= 1.0:
            raise ValueError("termination_prob must be in (0, 1]")
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        self.termination_prob = termination_prob
        self._max_steps = max_steps

    # Paper UDFs ------------------------------------------------------

    def steps(self) -> int:
        return INF_STEPS

    def max_steps_cap(self) -> int:
        return self._max_steps

    def sample_size(self, step: int) -> int:
        return 1

    def sampling_type(self) -> SamplingType:
        return SamplingType.INDIVIDUAL

    def next(self, sample: Sample, transits: np.ndarray,
             src_edges: np.ndarray, step: int,
             rng: np.random.Generator) -> int:
        if rng.random() < self.termination_prob or src_edges.size == 0:
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
    ) -> Tuple[np.ndarray, StepInfo]:
        transits = np.asarray(transits)
        sampler = weighted_neighbors if graph.is_weighted else uniform_neighbors
        out = sampler(graph, transits, 1, rng)
        terminate = rng.random(size=transits.size) < self.termination_prob
        out[terminate] = NULL_VERTEX
        # Terminating threads idle while their warp-mates keep walking:
        # a divergent branch on a fraction of warps.
        return out, walk_step_info(
            graph.avg_degree if graph.is_weighted else None, 10.0,
            divergence_fraction=min(1.0, 32 * self.termination_prob),
            divergence_cycles=4.0)
