"""Multicore CPU cost model for the paper's CPU baselines.

KnightKing and the reference GNN samplers run on the host CPU in the
paper.  To compare them with the modeled GPU on one footing, the CPU
baselines emit :class:`CpuTask` work descriptions (arithmetic ops,
random cache-missing accesses, sequential streamed bytes) and
:class:`CpuDevice` converts them to seconds with a
max(critical-task, total-work / cores) bound — the CPU analogue of the
GPU kernel model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.gpu.device import Timeline, TimelineEntry
from repro.gpu.spec import CPUSpec, XEON_SILVER_4216

__all__ = ["CpuTask", "CpuDevice"]


@dataclass
class CpuTask:
    """Work done by one schedulable unit (e.g. one walker, one sample).

    ``count`` batches many identical units into one record.
    """

    ops: float = 0.0
    random_accesses: float = 0.0
    sequential_bytes: float = 0.0
    count: int = 1

    def cycles_per_unit(self, spec: CPUSpec) -> float:
        lines = self.sequential_bytes / spec.cache_line_bytes
        return (self.ops * spec.op_cycles
                + self.random_accesses * spec.random_access_cycles
                + lines * spec.sequential_line_cycles)


class CpuDevice:
    """A modeled multicore CPU accumulating task batches."""

    #: The CPU model keeps no nvprof-style counters.
    metrics = metrics_by_phase = None

    def __init__(self, spec: CPUSpec = XEON_SILVER_4216,
                 name: str = "cpu0") -> None:
        self.spec = spec
        self.name = name
        self.timeline = Timeline()

    def run(self, tasks: List[CpuTask], phase: str = "sampling",
            name: str = "cpu_step", parallel: bool = True) -> float:
        """Execute a batch of tasks; returns seconds.

        ``parallel=False`` models a single-threaded phase (e.g. the
        Python driver loop of a reference sampler).
        """
        total = 0.0
        span = 0.0
        for task in tasks:
            per_unit = task.cycles_per_unit(self.spec)
            total += per_unit * task.count
            span = max(span, per_unit)
        cores = self.spec.cores if parallel else 1
        cycles = max(span, total / cores)
        seconds = self.spec.seconds(cycles)
        self.timeline.entries.append(TimelineEntry(name, phase, seconds))
        return seconds

    @property
    def elapsed_seconds(self) -> float:
        return self.timeline.total_seconds()

    def reset(self) -> None:
        self.timeline = Timeline()
