"""Multi-GPU execution model (Section 6.4, Figure 10).

NextDoor's multi-GPU mode: distribute samples equally among the GPUs,
run load balancing + scheduling + sampling on each GPU independently,
then collect the output.  Elapsed time is the slowest device (the
devices run concurrently) plus a per-step coordination overhead on the
host — the source of the imperfect scaling the paper sees on small
graphs, where per-GPU work is too little to amortize coordination and
too few warps exist to fill each GPU's SMs.
"""

from __future__ import annotations

from typing import List

from repro.gpu.device import Device
from repro.gpu.metrics import DeviceMetrics
from repro.gpu.spec import GPUSpec, V100

__all__ = ["MultiGPU"]


class MultiGPU:
    """A fixed pool of modeled GPUs."""

    #: Host-side coordination cost per run per device: NextDoor
    #: distributes samples once, runs every GPU independently (no
    #: per-step cross-device sync), and gathers outputs at the end.
    COORDINATION_SECONDS = 20e-6

    def __init__(self, num_devices: int, spec: GPUSpec = V100) -> None:
        if num_devices < 1:
            raise ValueError("need at least one device")
        self.devices: List[Device] = [
            Device(spec, name=f"gpu{i}") for i in range(num_devices)]
        self.coordination_seconds = 0.0

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def record_run(self) -> None:
        """Charge one run's distribute/collect coordination."""
        self.coordination_seconds += (self.COORDINATION_SECONDS
                                      * self.num_devices)

    @property
    def elapsed_seconds(self) -> float:
        """Wall time: slowest device plus host coordination."""
        slowest = max(d.elapsed_seconds for d in self.devices)
        return slowest + self.coordination_seconds

    def merged_metrics(self) -> DeviceMetrics:
        merged = DeviceMetrics()
        for device in self.devices:
            merged.merge(device.metrics)
        return merged
