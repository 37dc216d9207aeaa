"""Reference CPU samplers of existing GNNs (Section 8.2, Figure 7b).

"These samplers are written for TensorFlow or numpy and are designed to
run only on multi-core CPUs, not GPUs."  The reference implementations
drive Python/framework machinery per sampled vertex — op dispatch,
list/dict bookkeeping, feed-dict marshalling — so their per-vertex cost
is dominated by interpreter overhead rather than memory bandwidth, and
the sampling loop itself is serial (the frameworks parallelise tensor
math, not the Python sampling loop).

This engine runs any application functionally (identical samples) and
prices each produced vertex at reference-implementation cost on the
paper's Xeon.  It stands in for: GraphSAGE's sampler (k-hop),
GraphSAINT's (MultiRW), and the FastGCN / LADIES / MVS / ClusterGCN
reference samplers.
"""

from __future__ import annotations

from repro.api.types import NULL_VERTEX
from repro.baselines.cpu_engine import CpuEngine
from repro.core.stepper import StepRecord
from repro.gpu.cpu_model import CpuDevice, CpuTask
from repro.gpu.spec import CPUSpec, XEON_SILVER_4216

__all__ = ["ReferenceSamplerEngine"]

#: Interpreter/framework ops charged per produced vertex — Python-level
#: dict lookups, RNG calls, list appends, tensor marshalling.
_OPS_PER_VERTEX = 150.0


class ReferenceSamplerEngine(CpuEngine):
    """The existing GNNs' own CPU samplers."""

    engine_name = "ReferenceSampler"

    def __init__(self, spec: CPUSpec = XEON_SILVER_4216,
                 ops_per_vertex: float = _OPS_PER_VERTEX,
                 workers=None, chunk_size=None) -> None:
        super().__init__(spec, workers, chunk_size)
        self.ops_per_vertex = ops_per_vertex

    def _charge_step(self, cpu: CpuDevice, graph, batch,
                     record: StepRecord) -> None:
        info, step, m = record.info, record.step, max(record.m, 1)
        if record.collective:
            # The reference implementations materialise each sample's
            # combined neighborhood as Python/numpy objects before
            # selecting from it.
            mean_size = float(record.neighborhood_sizes.mean())
            cpu.run([CpuTask(ops=mean_size * 4.0,
                             sequential_bytes=mean_size * 8,
                             random_accesses=float(
                                 (record.transits != NULL_VERTEX)
                                 .sum(axis=1).mean()),
                             count=batch.num_samples)],
                    name=f"ref_neighborhood_{step}", parallel=False)
            cpu.run([CpuTask(ops=self.ops_per_vertex,
                             random_accesses=1.0,
                             count=batch.num_samples * m)],
                    name=f"ref_select_{step}", parallel=False)
            if record.has_edges:
                cpu.run([CpuTask(ops=6.0, random_accesses=0.5,
                                 count=record.tmap.num_pairs * m)],
                        name=f"ref_edges_{step}", parallel=False)
            return
        rounds = max(1.0, info.avg_compute_cycles / 10.0)
        cpu.run([CpuTask(ops=self.ops_per_vertex * rounds,
                         random_accesses=1.0
                         + info.extra_global_reads_per_vertex,
                         count=record.tmap.num_pairs * m)],
                name=f"ref_sample_{step}", parallel=False)
        if record.unique_width:
            # The reference samplers dedup with a per-sample Python
            # set as they append.
            cpu.run([CpuTask(ops=12.0, random_accesses=1.0,
                             count=batch.num_samples
                             * record.unique_width)],
                    name=f"ref_unique_{step}", parallel=False)
