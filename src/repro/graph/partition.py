"""Graph partitioning.

Two consumers:

- **ClusterGCN sampling** (Section 4.2) needs the graph divided into
  clusters; the paper "randomly assigned vertices in clusters".
  :func:`random_partition` reproduces that, and :func:`bfs_partition`
  provides the locality-aware alternative real ClusterGCN uses (METIS),
  approximated with BFS growth.
- **Large-graph sampling** (Section 8.4) needs *disjoint sub-graphs
  sized to fit GPU memory* that are shipped to the device on demand.
  :func:`partition_for_memory` produces contiguous vertex-range
  partitions whose CSR footprint respects a byte budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.graph.csr import VERTEX_DTYPE, CSRGraph

__all__ = ["Partition", "random_partition", "bfs_partition",
           "partition_for_memory", "partition_vertices"]


@dataclass
class Partition:
    """A disjoint division of a graph's vertices.

    ``assignment[v]`` is the partition id of vertex ``v``;
    ``members(i)`` lists the vertices of partition ``i``.
    """

    graph: CSRGraph
    assignment: np.ndarray
    num_parts: int

    def __post_init__(self) -> None:
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.assignment.shape != (self.graph.num_vertices,):
            raise ValueError("assignment must cover every vertex")
        if self.assignment.size and (
                self.assignment.min() < 0
                or self.assignment.max() >= self.num_parts):
            raise ValueError("assignment ids out of range")

    def members(self, part: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == part).astype(VERTEX_DTYPE)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.num_parts)

    def edge_cut(self) -> int:
        """Number of edges crossing partitions (quality metric)."""
        degrees = self.graph.degrees_array
        src_part = np.repeat(self.assignment, degrees)
        dst_part = self.assignment[self.graph.indices]
        return int(np.count_nonzero(src_part != dst_part))

    def part_bytes(self, part: int) -> int:
        """CSR footprint of the sub-graph induced on a partition's
        vertices *including* their out-edges (what must be shipped to
        the GPU for transits living in this partition)."""
        verts = self.members(part)
        edges = int(self.graph.degrees_array[verts].sum()) if verts.size else 0
        return edges * 8 + (verts.size + 1) * 8


def random_partition(graph: CSRGraph, num_parts: int, seed: int = 0) -> Partition:
    """Assign each vertex to a uniformly random partition (the paper's
    ClusterGCN setup)."""
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, num_parts, size=graph.num_vertices)
    return Partition(graph, assignment, num_parts)


def bfs_partition(graph: CSRGraph, num_parts: int, seed: int = 0) -> Partition:
    """Locality-aware partitioning by parallel BFS growth from random
    seeds — a cheap stand-in for METIS that keeps neighborhoods
    together, which is what ClusterGCN's clusters are for."""
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    assignment = -np.ones(n, dtype=np.int64)
    target = int(np.ceil(n / num_parts))
    # More parts than vertices leaves the surplus parts seedless (and
    # empty); their frontiers must still exist for the growth loop.
    seeds = rng.permutation(n)[:num_parts]
    frontiers: List[List[int]] = [[int(s)] for s in seeds]
    frontiers.extend([] for _ in range(num_parts - len(frontiers)))
    counts = np.zeros(num_parts, dtype=np.int64)
    for p, s in enumerate(seeds):
        if assignment[s] < 0:
            assignment[s] = p
            counts[p] += 1
    active = True
    while active:
        active = False
        for p in range(num_parts):
            if counts[p] >= target or not frontiers[p]:
                continue
            next_frontier: List[int] = []
            for v in frontiers[p]:
                for u in graph.neighbors(v):
                    if assignment[u] < 0 and counts[p] < target:
                        assignment[u] = p
                        counts[p] += 1
                        next_frontier.append(int(u))
            frontiers[p] = next_frontier
            if next_frontier:
                active = True
    # Disconnected leftovers: round-robin into the emptiest parts.
    leftovers = np.nonzero(assignment < 0)[0]
    for v in leftovers:
        p = int(np.argmin(counts))
        assignment[v] = p
        counts[p] += 1
    return Partition(graph, assignment, num_parts)


def partition_for_memory(graph: CSRGraph, byte_budget: int) -> Partition:
    """Split vertices into contiguous ranges whose CSR footprint each
    fits in ``byte_budget`` bytes (Section 8.4's disjoint sub-graphs).

    Raises ``ValueError`` if a single vertex's adjacency alone exceeds
    the budget — such a graph cannot be sampled by range partitioning.
    """
    if byte_budget <= 16:
        raise ValueError("byte budget too small for any sub-graph")
    n = graph.num_vertices
    v_bytes = graph.degrees_array * 8 + 8
    over = np.flatnonzero(v_bytes + 16 > byte_budget)
    if over.size:
        raise ValueError(f"vertex {over[0]} alone needs "
                         f"{v_bytes[over[0]]} bytes > budget")
    # Range [a, b) takes 8 * (cost[b] - cost[a] + 1) bytes; each part
    # is the longest range from where the last one ended that fits.
    cost = graph.indptr + np.arange(n + 1)
    assignment = np.zeros(n, dtype=np.int64)
    start, parts = 0, 0
    while start < n:
        end = int(np.searchsorted(cost, cost[start] + byte_budget // 8 - 1,
                                  side="right")) - 1
        assignment[start:end] = parts
        start, parts = end, parts + 1
    return Partition(graph, assignment, max(parts, 1))


def partition_vertices(num_vertices: int, num_parts: int) -> List[np.ndarray]:
    """Even contiguous split of ``range(num_vertices)`` into
    ``num_parts`` chunks (multi-GPU sample distribution)."""
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    bounds = np.linspace(0, num_vertices, num_parts + 1, dtype=np.int64)
    return [np.arange(bounds[i], bounds[i + 1]) for i in range(num_parts)]
