"""The NextDoor engine: transit-parallel sampling with load balancing.

Per step (Section 6):

1. ``stepTransits`` produces each sample's transit vertices.
2. The **scheduling index** groups the pairs by transit with a (modeled)
   radix sort + scan (:mod:`repro.core.transit_map`); a walk-shaped
   step runs in sample order and builds it only to be priced.
3. Individual sampling runs transit-parallel through the three
   load-balanced kernel classes of Table 2
   (:mod:`repro.core.scheduling`); collective sampling builds combined
   neighborhoods transit-parallel and selects sample-parallel
   (:mod:`repro.core.collective`).
4. Unique-neighbor dedup when the application asks for it
   (:mod:`repro.core.unique`).

An engine (:class:`Engine`) is :func:`repro.core.stepper.run_steps`
plus a price list, its ``_charge_*`` hooks, which replay the run's step
records when a modeled number is first read (NextDoor's, overridden by
the SP / TP / frontier / message-passing / large-graph engines).  Any
engine can price any run (:meth:`SamplingResult.priced_as`), and each
of several devices (Section 6.4) is priced from its rows of a record.
:func:`do_sampling` / :meth:`SamplingResult.get_final_samples` mirror
the Python module API of Section 6.5.
"""

from __future__ import annotations

import threading
from typing import Dict, List, NamedTuple, Optional, Union

import numpy as np

from repro.api.app import SamplingApp
from repro.api.sample import SampleBatch
from repro.api.types import OutputFormat, StepInfo
from repro.core import stepper
from repro.core.collective import (
    charge_collective_selection,
    charge_combined_neighborhood_tp,
    charge_edge_recording,
)
from repro.core.scheduling import KernelPlanConfig, charge_sampling_kernels
from repro.core.transit_map import charge_index_build, charge_map_readback
from repro.core.unique import charge_dedup
from repro.gpu.device import Device
from repro.gpu.metrics import DeviceMetrics
from repro.gpu.multi_gpu import MultiGPU
from repro.gpu.spec import GPUSpec, V100
from repro.obs import get_metrics, trace
from repro.runtime.context import ExecutionContext
from repro.runtime.faults import FaultPlan

__all__ = ["Engine", "NextDoorEngine", "SamplingResult", "do_sampling"]


class Priced(NamedTuple):
    """What one pricing pass leaves behind."""

    seconds: float
    breakdown: Dict[str, float]
    metrics: Optional[DeviceMetrics]
    metrics_by_phase: Optional[Dict[str, DeviceMetrics]]


class SamplingResult:
    """Samples, plus the modeled execution record of the run that made
    them: ``seconds``, ``breakdown``, ``metrics`` and ``metrics_by_phase``
    (None for CPU engines) come from one pricing pass over the run's step
    records by the engine it is priced as, made on first read."""

    def __init__(self, app: SamplingApp, graph, batch: SampleBatch,
                 records: List[stepper.StepRecord], pricer: "Engine",
                 num_devices: int) -> None:
        self.app = app
        self.graph_name = graph.name
        self.batch = batch
        self.steps_run = len(records)
        self.engine = pricer.engine_name
        self.devices_used = num_devices
        self._graph = graph
        self._records = records
        self._pricer = pricer
        self._model: Optional[Priced] = None
        self._lock = threading.Lock()

    def _priced(self) -> Priced:
        with self._lock:
            if self._model is None:
                with trace.span("charge_model", engine=self.engine):
                    self._model = self._pricer._price(
                        self.app, self._graph, self.batch, self._records,
                        self.devices_used)
            return self._model

    seconds = property(lambda self: self._priced().seconds)
    breakdown = property(lambda self: self._priced().breakdown)
    metrics = property(lambda self: self._priced().metrics)
    metrics_by_phase = property(lambda self: self._priced().metrics_by_phase)

    def priced_as(self, engine: "Engine",
                  num_devices: int = 1) -> "SamplingResult":
        """This run's batch and step records priced by ``engine`` on
        ``num_devices`` devices: what ``engine.run`` gives for the same
        app, graph and seed.  ``ValueError`` when ``engine`` cannot
        price the app or device count."""
        engine._check_supported(self.app, num_devices)
        return SamplingResult(self.app, self._graph, self.batch,
                              self._records, engine, num_devices)

    @property
    def samples(self) -> SampleBatch:
        return self.batch

    def get_final_samples(self) -> Union[np.ndarray, List[np.ndarray]]:
        """The paper's ``getFinalSamples``: a numpy array (format 1) or
        per-step arrays (format 2), per the application's declaration."""
        if self.app.output_format is OutputFormat.PER_STEP:
            return self.batch.per_step_arrays()
        return self.batch.as_array()

    def arrays(self) -> Dict[str, np.ndarray]:
        """The run's output by name, as ``save`` persists and the
        daemon ships it: walk-style output under ``samples``; per-step
        output under ``hop0``, ``hop1``, ...; ``roots``; recorded
        adjacency (importance / cluster sampling) under ``edges`` as
        (sample, u, v) rows.  Every array is ``int32``."""
        samples = self.get_final_samples()
        arrays = ({"samples": samples} if isinstance(samples, np.ndarray)
                  else {f"hop{i}": a for i, a in enumerate(samples)})
        arrays["roots"] = self.batch.roots
        if self.batch.edges:
            arrays["edges"] = np.concatenate(self.batch.edges, axis=0)
        return arrays

    def save(self, path: str) -> None:
        """Persist :meth:`arrays` as a compressed ``.npz``, ids widened
        to ``int64`` so saved files keep one dtype."""
        np.savez_compressed(path, **{k: a.astype(np.int64)
                                     for k, a in self.arrays().items()})

    sampling_seconds = property(
        lambda self: self.breakdown.get("sampling", 0.0))
    scheduling_index_seconds = property(
        lambda self: self.breakdown.get("scheduling_index", 0.0))
    transfer_seconds = property(
        lambda self: self.breakdown.get("transfer", 0.0))

    @property
    def samples_per_second(self) -> float:
        if self.seconds <= 0:
            return float("inf")
        return self.batch.num_samples / self.seconds

    def speedup_over(self, other: "SamplingResult") -> float:
        """``other.seconds / self.seconds`` — how much faster this run
        is than ``other``."""
        if self.seconds <= 0:
            return float("inf")
        return other.seconds / self.seconds


class Engine:
    """``run_steps`` plus a pricing pass over its records: ``run``
    samples with ``on_step=records.append`` and builds no device model;
    the result replays the records through ``_charge_step(device,
    graph, batch, record)`` on fresh device(s) when first read.  A
    subclass is that price list, ``_check_supported`` and the class
    attributes below."""

    engine_name = "engine"
    #: The device model a run is priced on.
    _device_cls = Device
    #: Optional :class:`repro.runtime.cancel.CancelScope` checked
    #: between chunks: a tripped scope (deadline passed, client
    #: gone) aborts the run with partial work discarded.  Attached
    #: per request by the serving daemon (docs/SERVING.md).
    cancel = None
    #: Optional parsed :class:`repro.runtime.faults.FaultPlan` for
    #: this engine's runs (None = no faults), the one way a plan
    #: reaches a run; each run fires a fresh copy's budgets.  Set by
    #: ``repro sample --fault-plan`` and per request by the daemon's
    #: test hook, so concurrent requests never see each other's plan.
    fault_plan = None

    def __init__(self, spec, workers: Optional[int] = None) -> None:
        self.spec = spec
        #: Chunk threads: 0 = the calling thread only; None =
        #: $REPRO_WORKERS, default 0.  Samples are bitwise-identical
        #: for any setting.
        self.workers = workers

    def run(self, app: SamplingApp, graph,
            num_samples: Optional[int] = None,
            roots: Optional[np.ndarray] = None,
            seed: int = 0,
            num_devices: int = 1) -> SamplingResult:
        """Run ``app`` over ``graph``: samples now, model costs on read.

        ``num_devices > 1`` prices Section 6.4: samples are split
        equally, each share is priced on its own modeled GPU, and wall
        time is the slowest device plus host coordination.  The samples
        are the one-device samples.
        """
        self._check_supported(app, num_devices)
        with trace.span("run", engine=self.engine_name, app=app.name,
                        graph=graph.name, devices=num_devices) as run_span:
            ctx = ExecutionContext(seed, workers=self.workers)
            ctx.cancel = self.cancel
            if self.fault_plan is not None:
                ctx._fault_plan = FaultPlan.parse(self.fault_plan.spec)
            batch = stepper.init_batch(app, graph, num_samples, roots,
                                       ctx.init_rng())
            run_span.set(samples=batch.num_samples)
            ctx.begin_run(app, graph)
            records: List[stepper.StepRecord] = []
            steps_run = stepper.run_steps(app, graph, batch, ctx,
                                          on_step=records.append)
        reg = get_metrics()
        reg.counter("engine.runs").inc()
        reg.counter("engine.samples_produced").inc(batch.num_samples)
        reg.counter("engine.steps_run").inc(steps_run)
        return SamplingResult(app, graph, batch, records, self, num_devices)

    def _check_supported(self, app: SamplingApp, num_devices: int) -> None:
        """Raise ``ValueError`` for an application this engine cannot
        express, or a device count it cannot price."""
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")

    # -- The pricing pass ------------------------------------------------

    def _price(self, app: SamplingApp, graph, batch: SampleBatch,
               records: List[stepper.StepRecord],
               num_devices: int) -> Priced:
        """Replay a run's records on fresh device(s), in recorded order
        (modeled seconds are float sums: the order is part of the
        result).  Several devices (Section 6.4): device ``d`` replays
        each step as its row slice of the batch saw it, skipping the
        steps where no pair of its slice was live; wall time is the
        slowest device plus host coordination, and a phase costs what
        it cost the device it cost most."""
        if num_devices == 1:
            device = self._device_cls(self.spec)
            self._replay(device, app, graph, batch, records)
            return Priced(device.elapsed_seconds,
                          device.timeline.phase_breakdown(),
                          device.metrics, device.metrics_by_phase)
        pool = MultiGPU(num_devices, self.spec)
        bounds = np.linspace(0, batch.num_samples, num_devices + 1,
                             dtype=np.int64)
        for device, lo, hi in zip(pool.devices, bounds[:-1], bounds[1:]):
            parts = [part for part in (r.rows(lo, hi) for r in records)
                     if part is not None]
            share = SampleBatch(graph, batch.roots[lo:hi])
            share.step_vertices = [batch.step_vertices[part.step][lo:hi]
                                   for part in parts]
            self._replay(device, app, graph, share, parts)
        pool.record_run()
        breakdown: Dict[str, float] = {}
        by_phase: Dict[str, DeviceMetrics] = {}
        for device in pool.devices:
            for phase, secs in device.timeline.phase_breakdown().items():
                breakdown[phase] = max(breakdown.get(phase, 0.0), secs)
            for phase, metrics in device.metrics_by_phase.items():
                by_phase.setdefault(phase, DeviceMetrics()).merge(metrics)
        breakdown["coordination"] = pool.coordination_seconds
        return Priced(pool.elapsed_seconds, breakdown,
                      pool.merged_metrics(), by_phase)

    def _replay(self, device, app: SamplingApp, graph, batch: SampleBatch,
                records: List[stepper.StepRecord]) -> None:
        """Charge ``records`` (one per step of ``batch``) to ``device``."""
        for record in records:
            self._charge_step(device, graph, batch, record)
        self._charge_output_materialisation(device, app, batch,
                                            len(records))

    def _charge_output_materialisation(self, device, app, batch,
                                       steps_run) -> None:
        """Final output pass.  Default: nothing to pay."""


class NextDoorEngine(Engine):
    """Transit-parallel GPU sampling engine (the paper's system)."""

    engine_name = "NextDoor"

    def __init__(self, spec: GPUSpec = V100,
                 config: KernelPlanConfig = KernelPlanConfig(),
                 workers: Optional[int] = None) -> None:
        super().__init__(spec, workers)
        self.config = config

    def _charge_step(self, device: Device, graph, batch: SampleBatch,
                     record: stepper.StepRecord) -> None:
        """Price one step in device order: scheduling index, sampling
        kernels, unique pass."""
        tmap = record.tmap
        self._pre_step(device, graph, tmap, record.step)
        self._charge_index(device, tmap)
        degrees = graph.degrees_array[tmap.unique_transits]
        if record.collective:
            self._charge_collective(device, tmap, degrees, record.m,
                                    record.info, batch.num_samples,
                                    has_edges=record.has_edges)
            return
        self._charge_individual(device, tmap, degrees, record.m,
                                record.info, weighted=graph.is_weighted)
        if record.unique_width:
            # Section 6.3: dedup, then one sample-parallel top-up pass
            # (one warp-pass over the holes).
            charge_dedup(device, batch.num_samples, record.unique_width)
            if record.unique_dups.any():
                charge_collective_selection(
                    device, np.count_nonzero(record.unique_topups), 1,
                    info=_TOPUP_INFO)

    # ------------------------------------------------------------------
    # Cost-charging hooks — baseline engines override these to price
    # the same functional work under their own execution strategies.
    # ------------------------------------------------------------------

    def _pre_step(self, device: Device, graph, tmap, step: int) -> None:
        """Hook before a step's kernels (the large-graph mode charges
        its partition transfers here).  Default: nothing."""

    def _charge_output_materialisation(self, device: Device, app,
                                       batch: SampleBatch,
                                       steps_run: int) -> None:
        """Final output pass: random walks (one vertex per sub-warp
        lane) write in scheduling-index order and need one permutation
        back to per-sample layout.  Wider sample sizes write >= 4
        consecutive words per sample — already coalesced in sample
        order — so no inversion is needed.  SP writes in sample order
        throughout and overrides this with a no-op."""
        if all(app.sample_size(i) <= 2 for i in range(steps_run)):
            total_vertices = sum(int(arr.size)
                                 for arr in batch.step_vertices)
            charge_map_readback(device, total_vertices)

    def _charge_index(self, device: Device, tmap) -> None:
        """Scheduling-index build (Section 6.1.2): terminated samples
        are compacted away by the partition scan, so the sort runs over
        the live pairs."""
        charge_index_build(device, tmap.num_pairs)

    def _charge_individual(self, device: Device, tmap, degrees: np.ndarray,
                           m: int, info: StepInfo,
                           weighted: bool = False) -> None:
        """Transit-parallel, load-balanced sampling kernels (Table 2)."""
        charge_sampling_kernels(device, tmap, degrees, m, info, self.config,
                                weighted=weighted)

    def _charge_collective(self, device: Device, tmap, degrees: np.ndarray,
                           m: int, info: StepInfo, num_samples: int,
                           has_edges: bool) -> None:
        """Transit-parallel combined-neighborhood construction +
        sample-parallel selection (Section 6.2)."""
        charge_combined_neighborhood_tp(device, tmap, degrees,
                                        config=self.config)
        charge_collective_selection(device, num_samples, m, info)
        if has_edges:
            charge_edge_recording(device, tmap.num_pairs * max(m, 1))


_TOPUP_INFO = StepInfo(avg_compute_cycles=10.0)


#: Keyword arguments ``do_sampling`` accepts beyond its positionals.
_DO_SAMPLING_KWARGS = ("spec", "config", "workers", "num_devices")


def do_sampling(app: SamplingApp, graph, num_samples: int, seed: int = 0,
                **kwargs) -> SamplingResult:
    """One-call convenience mirroring the paper's ``doSampling``."""
    unknown = sorted(set(kwargs) - set(_DO_SAMPLING_KWARGS))
    if unknown:
        raise TypeError(
            f"do_sampling() got unexpected keyword argument(s) "
            f"{', '.join(map(repr, unknown))}; valid keywords are "
            f"{', '.join(_DO_SAMPLING_KWARGS)}")
    num_devices = kwargs.pop("num_devices", 1)
    return NextDoorEngine(**kwargs).run(app, graph,
                                        num_samples=num_samples,
                                        seed=seed,
                                        num_devices=num_devices)
