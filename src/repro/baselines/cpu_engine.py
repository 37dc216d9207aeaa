"""The CPU comparators: the shared run, priced on a CPU model.

:class:`CpuEngine` is :class:`repro.core.engine.Engine` over
sample-order pairs (a CPU system advances one walker / one sample at a
time; there is no transit grouping to pay for) whose pricing pass
hands each step's record to the subclass's ``_charge_step`` on a
:class:`~repro.gpu.cpu_model.CpuDevice`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.api.app import SamplingApp
from repro.core.engine import Engine, SamplingResult
from repro.core.transit_map import sample_order_pairs
from repro.gpu.cpu_model import CpuDevice
from repro.gpu.spec import CPUSpec, XEON_SILVER_4216

__all__ = ["CpuEngine"]


class CpuEngine(Engine):
    """Base of the CPU engines; subclasses price steps."""

    engine_name = "CPU"
    _pairs = staticmethod(sample_order_pairs)
    _device_cls = CpuDevice

    def __init__(self, spec: CPUSpec = XEON_SILVER_4216,
                 workers=None, chunk_size=None) -> None:
        super().__init__(spec, workers, chunk_size)

    def run(self, app: SamplingApp, graph,
            num_samples: Optional[int] = None,
            roots: Optional[np.ndarray] = None,
            seed: int = 0) -> SamplingResult:
        self._check_supported(app)
        return super().run(app, graph, num_samples, roots, seed)

    def _check_supported(self, app: SamplingApp) -> None:
        """Raise ``ValueError`` for applications the modeled system
        cannot express.  Default: everything is expressible."""
