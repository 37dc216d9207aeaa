"""Multi-dimensional random walk (Ribeiro & Towsley; GraphSAINT).

Each sample holds a set of root vertices.  At each step,
``stepTransits`` picks one root uniformly at random as the transit;
``next`` samples one of its neighbors, and the sampled neighbor
*replaces* the chosen root in the root set.  Paper parameters:
100 roots per sample, walk length 100.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.api.app import SamplingApp
from repro.api.apps._kernels import uniform_neighbors
from repro.api.sample import Sample, SampleBatch
from repro.api.types import NULL_VERTEX, SamplingType, StepInfo
from repro.graph.csr import CSRGraph

__all__ = ["MultiRW"]


class MultiRW(SamplingApp):
    """Multi-dimensional (frontier) random walk."""

    name = "MultiRW"

    def __init__(self, num_roots: int = 100, walk_length: int = 100) -> None:
        if num_roots < 1:
            raise ValueError("num_roots must be >= 1")
        if walk_length < 1:
            raise ValueError("walk_length must be >= 1")
        self.num_roots = num_roots
        self.walk_length = walk_length

    # Paper UDFs ------------------------------------------------------

    def steps(self) -> int:
        return self.walk_length

    def sample_size(self, step: int) -> int:
        return 1

    def sampling_type(self) -> SamplingType:
        return SamplingType.INDIVIDUAL

    def step_transits(self, step: int, sample: Sample, transit_idx: int) -> int:
        """A random member of the live root set (the reference-path
        analogue of the vectorised choice below — the engine's RNG
        decides which)."""
        roots = sample.roots
        return int(roots[int(len(roots) * 0.5) % len(roots)])

    def next(self, sample: Sample, transits: np.ndarray,
             src_edges: np.ndarray, step: int,
             rng: np.random.Generator) -> int:
        if src_edges.size == 0:
            return NULL_VERTEX
        return int(src_edges[rng.integers(0, src_edges.size)])

    # Engine hooks ----------------------------------------------------

    def initial_roots(self, graph: CSRGraph, num_samples: int,
                      rng: np.random.Generator) -> np.ndarray:
        return self.random_roots(graph, (num_samples, self.num_roots), rng)

    def init_state(self, batch: SampleBatch, rng: np.random.Generator) -> None:
        batch.state["roots"] = batch.roots.copy()
        batch.state["chosen_slot"] = np.zeros(batch.num_samples, dtype=np.int64)
        # Dedicated transit-choice stream, derived from the run's seed
        # so repeated runs stay deterministic.
        batch.state["transit_rng"] = np.random.default_rng(
            int(rng.integers(0, 2 ** 63)))

    def transits_for_step(self, batch: SampleBatch, step: int) -> np.ndarray:
        """Pick one live root per sample, remembering the slot so
        :meth:`post_step` can replace it."""
        roots = batch.state["roots"]
        rng = batch.state["transit_rng"]
        slots = rng.integers(0, roots.shape[1], size=batch.num_samples)
        batch.state["chosen_slot"] = slots
        return roots[np.arange(batch.num_samples), slots][:, None]

    def post_step(self, batch: SampleBatch, new_vertices: np.ndarray,
                  step: int, rng: np.random.Generator) -> None:
        """Replace the chosen root with the sampled neighbor."""
        roots = batch.state["roots"]
        slots = batch.state["chosen_slot"]
        new = new_vertices[:, 0]
        moved = new != NULL_VERTEX
        rows = np.nonzero(moved)[0]
        roots[rows, slots[rows]] = new[rows]

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
        out = uniform_neighbors(graph, transits, 1, rng, out_rows, rows)
        return out, StepInfo(avg_compute_cycles=10.0)
