"""Sampling graphs that do not fit in GPU memory (Section 8.4).

"NextDoor can sample graphs that do not fit in GPU memory by creating
disjoint sub-graphs, such that each of these sub-graphs and its samples
be allocated in the GPU memory.  After creating these sub-graphs at
each computation step, NextDoor performs sampling for each sample by
transferring all sub-graphs containing the transit vertices of each
sample to the GPU.  In this experiment, we consider the time taken to
transfer graph from CPU to GPU."

The stand-in graphs are small, but the experiment is about the
*paper-scale* footprint (FriendS: 1.8 B edges ≈ 14 GB of CSR > 16 GB
with samples).  :class:`LargeGraphNextDoor` therefore scales every
partition's transfer bytes by ``modeled_graph_bytes / actual_bytes`` so
the PCIe arithmetic matches the original system.  The qualitative
results this reproduces: random walks become transfer-bound (CPU-based
KnightKing wins on DeepWalk/PPR, roughly 2x), compute-heavy node2vec
still favours the GPU (~1.5x), and k-hop / layer sampling — two steps,
huge per-step sampling volume — stay computation-bound.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from repro.api.types import NULL_VERTEX
from repro.core.engine import NextDoorEngine
from repro.graph.csr import CSRGraph
from repro.graph.partition import Partition, partition_for_memory
from repro.gpu.device import Device
from repro.gpu.spec import GPUSpec, V100

__all__ = ["LargeGraphNextDoor"]


class LargeGraphNextDoor(NextDoorEngine):
    """NextDoor's out-of-GPU-memory mode: partitioned transfers."""

    engine_name = "NextDoor-large"

    def __init__(self, modeled_graph_bytes: int,
                 spec: GPUSpec = V100,
                 num_partitions: int = 16,
                 sample_scale: float = 1.0,
                 workers=None) -> None:
        """``sample_scale`` keeps the compute : transfer ratio at paper
        proportions when the experiment runs fewer samples than the
        original (e.g. 20 k walkers instead of one per Friendster's
        65.6 M vertices): transfers shrink by the same factor the
        sampling work shrank, so who-wins stays scale-invariant.
        Pass 1.0 to charge unscaled paper-footprint transfers."""
        super().__init__(spec=spec, workers=workers)
        if modeled_graph_bytes <= 0:
            raise ValueError("modeled_graph_bytes must be positive")
        if not 0.0 < sample_scale <= 1.0:
            raise ValueError("sample_scale must be in (0, 1]")
        self.modeled_graph_bytes = modeled_graph_bytes
        self.num_partitions = num_partitions
        self.sample_scale = sample_scale
        self._partition: Optional[Partition] = None
        self._part_bytes: Optional[np.ndarray] = None
        self._scale = 1.0
        #: Results of this engine may be priced from different threads,
        #: all reaching ``_pre_step`` at step 0: without the lock one can
        #: see ``_partition`` set before ``_part_bytes`` is.
        self._partition_lock = threading.Lock()

    def fits_in_memory(self) -> bool:
        """Whether the modeled graph would have fit (leaving room for
        samples: the paper keeps graph + samples resident)."""
        return self.modeled_graph_bytes < 0.8 * self.spec.global_mem_bytes

    # ------------------------------------------------------------------

    def _ensure_partition(self, graph: CSRGraph) -> None:
        with self._partition_lock:
            if (self._partition is None
                    or self._partition.graph is not graph):
                self._build_partition(graph)

    def _build_partition(self, graph: CSRGraph) -> None:
        actual_bytes = max(1, graph.memory_bytes())
        self._scale = self.modeled_graph_bytes / actual_bytes
        # Partition so each modeled sub-graph fits comfortably on the
        # device next to the samples.
        budget_modeled = int(0.5 * self.spec.global_mem_bytes)
        budget_actual = max(1024, int(budget_modeled / self._scale))
        partition = partition_for_memory(graph, budget_actual)
        if partition.num_parts < self.num_partitions:
            # Honour the requested granularity even when the byte
            # budget alone would allow fewer, larger parts.
            bounds = np.linspace(0, graph.num_vertices,
                                 self.num_partitions + 1, dtype=np.int64)
            assignment = np.zeros(graph.num_vertices, dtype=np.int64)
            for p in range(self.num_partitions):
                assignment[bounds[p]:bounds[p + 1]] = p
            partition = Partition(graph, assignment, self.num_partitions)
        self._partition = partition
        self._part_bytes = np.array(
            [partition.part_bytes(p) for p in range(partition.num_parts)],
            dtype=np.float64) * self._scale

    # ------------------------------------------------------------------

    def _pre_step(self, device: Device, graph, tmap, step: int) -> None:
        """Transfer every sub-graph containing a transit of this step."""
        self._ensure_partition(graph)
        transits = tmap.unique_transits
        transits = transits[transits != NULL_VERTEX]
        if transits.size == 0:
            return
        parts = np.unique(self._partition.assignment[transits])
        total_bytes = (float(self._part_bytes[parts].sum())
                       * self.sample_scale)
        device.transfer(max(1, int(total_bytes)),
                        name=f"subgraph_transfer_{step}")
