"""The CPU comparators' shared run: the step loop priced on a CPU model.

:class:`CpuEngine` runs any application through
:func:`repro.core.stepper.run_steps` over sample-order pairs (a CPU
system advances one walker / one sample at a time; there is no transit
grouping to pay for) and hands each step's record to the subclass's
``_charge_step``, which prices it on a :class:`~repro.gpu.cpu_model.
CpuDevice`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.api.app import SamplingApp
from repro.core import stepper
from repro.core.engine import SamplingResult
from repro.core.transit_map import sample_order_pairs
from repro.gpu.cpu_model import CpuDevice
from repro.gpu.spec import CPUSpec, XEON_SILVER_4216
from repro.obs import get_metrics, trace
from repro.runtime.context import ExecutionContext

__all__ = ["CpuEngine"]


class CpuEngine:
    """Base of the CPU engines; subclasses price steps."""

    engine_name = "CPU"

    def __init__(self, spec: CPUSpec = XEON_SILVER_4216,
                 use_reference: bool = False,
                 workers=None, chunk_size=None) -> None:
        self.spec = spec
        self.use_reference = use_reference
        self.workers = workers
        self.chunk_size = chunk_size

    def run(self, app: SamplingApp, graph,
            num_samples: Optional[int] = None,
            roots: Optional[np.ndarray] = None,
            seed: int = 0) -> SamplingResult:
        self._check_supported(app)
        with trace.span("run", engine=self.engine_name, app=app.name,
                        graph=graph.name) as run_span:
            ctx = ExecutionContext(seed, workers=self.workers,
                                   chunk_size=self.chunk_size)
            batch = stepper.init_batch(app, graph, num_samples, roots,
                                       ctx.init_rng())
            run_span.set(samples=batch.num_samples)
            ctx.begin_run(app, graph, use_reference=self.use_reference)
            cpu = CpuDevice(self.spec)
            steps_run = stepper.run_steps(
                app, graph, batch, ctx,
                on_step=lambda record: self._charge_step(cpu, batch,
                                                         record),
                pairs=sample_order_pairs)
        reg = get_metrics()
        reg.counter("engine.runs").inc()
        reg.counter("engine.samples_produced").inc(batch.num_samples)
        reg.counter("engine.steps_run").inc(steps_run)
        return SamplingResult(
            app=app, graph_name=graph.name, batch=batch,
            seconds=cpu.elapsed_seconds,
            breakdown=cpu.timeline.phase_breakdown(),
            metrics=None, steps_run=steps_run, engine=self.engine_name)

    def _check_supported(self, app: SamplingApp) -> None:
        """Raise ``ValueError`` for applications the modeled system
        cannot express.  Default: everything is expressible."""

    def _charge_step(self, cpu: CpuDevice, batch,
                     record: stepper.StepRecord) -> None:
        raise NotImplementedError
