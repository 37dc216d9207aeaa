"""nvprof-style performance counters.

:class:`KernelCounters` accumulates the transaction/divergence counters
for one kernel (or one homogeneous group of warps, scaled up by the
group size).  :class:`DeviceMetrics` aggregates counters and busy time
across a device's whole timeline and derives the metrics the paper
reports: *L2 cache read transactions* (Figure 8), *global memory store
efficiency* and *multiprocessor activity* (Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["KernelCounters", "DeviceMetrics"]


@dataclass
class KernelCounters:
    """Raw event counts for a kernel execution."""

    global_load_transactions: float = 0.0
    global_store_transactions: float = 0.0
    #: Minimum store transactions had every store been perfectly
    #: coalesced — the denominator of nvprof's gst_efficiency.
    ideal_global_store_transactions: float = 0.0
    shared_load_transactions: float = 0.0
    shared_store_transactions: float = 0.0
    register_shuffles: float = 0.0
    branches: float = 0.0
    divergent_branches: float = 0.0
    compute_cycles: float = 0.0

    @property
    def l2_read_transactions(self) -> float:
        """Every global load transaction goes through L2 in this model."""
        return self.global_load_transactions

    @property
    def store_efficiency(self) -> float:
        """nvprof gst_efficiency: ideal / actual store transactions."""
        if self.global_store_transactions == 0:
            return 1.0
        return min(1.0, self.ideal_global_store_transactions
                   / self.global_store_transactions)

    @property
    def divergence_rate(self) -> float:
        if self.branches == 0:
            return 0.0
        return self.divergent_branches / self.branches

    def add(self, other: "KernelCounters") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def scaled(self, factor: float) -> "KernelCounters":
        """Counters multiplied by ``factor`` (per-warp -> per-group)."""
        out = KernelCounters()
        for name in self.__dataclass_fields__:
            setattr(out, name, getattr(self, name) * factor)
        return out

    def as_dict(self) -> Dict[str, float]:
        data = {name: getattr(self, name) for name in self.__dataclass_fields__}
        data["l2_read_transactions"] = self.l2_read_transactions
        data["store_efficiency"] = self.store_efficiency
        return data


@dataclass
class DeviceMetrics:
    """Aggregated metrics over a device timeline."""

    counters: KernelCounters = field(default_factory=KernelCounters)
    #: Sum over kernels of (SM-busy cycles across all SMs).
    sm_busy_cycles: float = 0.0
    #: Sum over kernels of (kernel wall cycles * num SMs).
    sm_total_cycles: float = 0.0

    @property
    def multiprocessor_activity(self) -> float:
        """nvprof sm_efficiency: average fraction of time SMs were busy."""
        if self.sm_total_cycles == 0:
            return 0.0
        return min(1.0, self.sm_busy_cycles / self.sm_total_cycles)

    def record_kernel(self, counters: KernelCounters, busy_cycles: float,
                      wall_cycles: float, num_sms: int) -> None:
        self.counters.add(counters)
        self.sm_busy_cycles += busy_cycles
        self.sm_total_cycles += wall_cycles * num_sms

    def merge(self, other: "DeviceMetrics") -> None:
        self.counters.add(other.counters)
        self.sm_busy_cycles += other.sm_busy_cycles
        self.sm_total_cycles += other.sm_total_cycles

    def as_dict(self) -> Dict[str, float]:
        data = self.counters.as_dict()
        data["multiprocessor_activity"] = self.multiprocessor_activity
        return data
