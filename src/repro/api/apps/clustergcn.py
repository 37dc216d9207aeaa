"""Cluster sampling (ClusterGCN, Chiang et al.).

"ClusterGCN sampling obtains an adjacency matrix between all vertices
of one or more clusters ... at each step an edge is recorded in a
sample's adjacency matrix if the edge exists between any two transits."
Paper parameters: vertices randomly assigned to clusters; each sample
contains 20 clusters.

Here a sample's roots are the (padded) member vertices of its chosen
clusters; the single step records the induced adjacency and adds no new
vertices.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.api.app import SamplingApp
from repro.api.sample import Sample, SampleBatch
from repro.api.types import NULL_VERTEX, SamplingType, StepInfo
from repro.core.ragged import ragged_gather
from repro.graph.csr import CSRGraph
from repro.graph.partition import Partition, random_partition

__all__ = ["ClusterGCN"]


class ClusterGCN(SamplingApp):
    """Cluster sampling: induced adjacency of a union of clusters."""

    name = "ClusterGCN"
    #: Record-only: edges come from the graph + transit sets directly.
    needs_combined_values = False

    def __init__(self, partition: Optional[Partition] = None,
                 num_clusters: int = 64,
                 clusters_per_sample: int = 20) -> None:
        if clusters_per_sample < 1:
            raise ValueError("clusters_per_sample must be >= 1")
        self.partition = partition
        self.num_clusters = (partition.num_parts if partition is not None
                             else num_clusters)
        self.clusters_per_sample = min(clusters_per_sample, self.num_clusters)

    # Paper UDFs ------------------------------------------------------

    def steps(self) -> int:
        return 1

    def sample_size(self, step: int) -> int:
        return 0  # record-only step: no new vertices are sampled

    def sampling_type(self) -> SamplingType:
        return SamplingType.COLLECTIVE

    def next(self, sample: Sample, transits: np.ndarray,
             src_edges: np.ndarray, step: int,
             rng: np.random.Generator) -> int:
        return NULL_VERTEX

    # Engine hooks ----------------------------------------------------

    def _ensure_partition(self, graph: CSRGraph) -> Partition:
        if self.partition is None or self.partition.graph is not graph:
            self.partition = random_partition(graph, self.num_clusters,
                                              seed=17)
        return self.partition

    def initial_roots(self, graph: CSRGraph, num_samples: int,
                      rng: np.random.Generator) -> np.ndarray:
        """Each sample's roots are the vertices of its chosen clusters,
        NULL-padded to a rectangle."""
        partition = self._ensure_partition(graph)
        member_lists = [partition.members(c)
                        for c in range(partition.num_parts)]
        chosen = [rng.choice(partition.num_parts,
                             size=self.clusters_per_sample, replace=False)
                  for _ in range(num_samples)]
        rows = [np.concatenate([member_lists[c] for c in picks])
                if picks.size else np.zeros(0, dtype=np.int64)
                for picks in chosen]
        width = max((r.size for r in rows), default=1)
        roots = np.full((num_samples, max(width, 1)), NULL_VERTEX,
                        dtype=np.int64)
        for i, r in enumerate(rows):
            roots[i, :r.size] = r
        return roots

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
        empty = np.full((batch.num_samples, 0), NULL_VERTEX, dtype=np.int64)
        return empty, StepInfo(avg_compute_cycles=4.0)

    def record_step_edges(
        self,
        graph: CSRGraph,
        batch: SampleBatch,
        transits: np.ndarray,
        new_vertices: np.ndarray,
        step: int,
    ) -> Optional[np.ndarray]:
        """Edges of the graph whose both endpoints are transits of the
        same sample: the induced cluster adjacency."""
        rows = []
        in_sample = np.zeros(graph.num_vertices, dtype=bool)
        for s in range(transits.shape[0]):
            verts = transits[s]
            verts = verts[verts != NULL_VERTEX]
            if verts.size == 0:
                continue
            in_sample[verts] = True
            # All the sample's adjacency rows in one ragged gather; the
            # concatenation order (vertex order, neighbors in CSR
            # order) matches the per-vertex loop it replaces.
            deg = graph.degrees_array[verts]
            nbrs, _ = ragged_gather(graph.indices, graph.indptr[verts],
                                    deg)
            u_rep = np.repeat(verts, deg)
            keep = in_sample[nbrs]
            in_sample[verts] = False
            if keep.any():
                kept = nbrs[keep].astype(np.int64)
                rows.append(np.stack([
                    np.full(kept.size, s, dtype=np.int64),
                    u_rep[keep],
                    kept,
                ], axis=1))
        if not rows:
            return np.zeros((0, 3), dtype=np.int64)
        return np.concatenate(rows, axis=0)
