"""The CPU comparators: the shared run, priced on a CPU model.

:class:`CpuEngine` is :class:`repro.core.engine.Engine` — the same
samples as every other engine — whose pricing pass hands each step's
record to the subclass's ``_charge_step`` on one
:class:`~repro.gpu.cpu_model.CpuDevice`.  A CPU system advances one
walker / one sample at a time, so its price lists read a step's live
pair count (``record.num_pairs``) and never the transit grouping.
"""

from __future__ import annotations

from repro.api.app import SamplingApp
from repro.core.engine import Engine
from repro.gpu.cpu_model import CpuDevice
from repro.gpu.spec import CPUSpec, XEON_SILVER_4216

__all__ = ["CpuEngine"]


class CpuEngine(Engine):
    """Base of the CPU engines; subclasses price steps."""

    engine_name = "CPU"
    _device_cls = CpuDevice

    def __init__(self, spec: CPUSpec = XEON_SILVER_4216,
                 workers=None) -> None:
        super().__init__(spec, workers)

    def _check_supported(self, app: SamplingApp, num_devices: int) -> None:
        """A CPU system is priced as one machine: no device count."""
        super()._check_supported(app, num_devices)
        if num_devices != 1:
            raise ValueError(f"{self.engine_name} is a CPU engine: it "
                             f"prices one machine, not {num_devices} devices")
