"""The NextDoor engine: transit-parallel sampling with load balancing.

Per step (Section 6):

1. ``stepTransits`` produces each sample's transit vertices.
2. The **scheduling index** groups pairs by transit with a (modeled)
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
plus a pricing pass, made when a modeled number is first read, over
the step records it collected; :class:`NextDoorEngine` is the modeled
GPU's price list (its ``_charge_*`` hooks, which the SP / TP / frontier
/ message-passing / large-graph engines override).

Multi-GPU execution (Section 6.4) distributes samples equally across
devices and runs each independently.  :func:`do_sampling` /
:meth:`SamplingResult.get_final_samples` mirror the Python module API
of Section 6.5.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, NamedTuple, Optional, Union

import numpy as np

from repro.api.app import SamplingApp
from repro.api.sample import SampleBatch
from repro.api.types import NULL_VERTEX, OutputFormat, StepInfo
from repro.core import stepper
from repro.core.collective import (
    charge_collective_selection,
    charge_combined_neighborhood_tp,
    charge_edge_recording,
)
from repro.core.scheduling import KernelPlanConfig, charge_sampling_kernels
from repro.core.transit_map import (
    build_transit_map,
    charge_index_build,
    charge_map_readback,
)
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
    them.  ``run`` only samples: ``seconds``, ``breakdown``, ``metrics``
    and ``metrics_by_phase`` (None for CPU engines) come from one
    pricing pass over the run's step records, made on first read."""

    def __init__(self, app: SamplingApp, graph_name: str,
                 batch: SampleBatch, steps_run: int, engine: str,
                 price: Callable[[], Priced], devices_used: int = 1) -> None:
        self.app = app
        self.graph_name = graph_name
        self.batch = batch
        self.steps_run = steps_run
        self.engine = engine
        self.devices_used = devices_used
        #: The pricing pass; dropped, with the step records it holds,
        #: once it has run.
        self._price: Optional[Callable[[], Priced]] = price
        self._lock = threading.Lock()

    def _priced(self) -> Priced:
        with self._lock:
            if self._price is not None:
                with trace.span("charge_model", engine=self.engine):
                    self._model = self._price()
                self._price = None
            return self._model

    seconds = property(lambda self: self._priced().seconds)
    breakdown = property(lambda self: self._priced().breakdown)
    metrics = property(lambda self: self._priced().metrics)
    metrics_by_phase = property(lambda self: self._priced().metrics_by_phase)

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
        (sample, u, v) rows."""
        samples = self.get_final_samples()
        arrays = ({"samples": samples} if isinstance(samples, np.ndarray)
                  else {f"hop{i}": a for i, a in enumerate(samples)})
        arrays["roots"] = self.batch.roots
        if self.batch.edges:
            arrays["edges"] = np.concatenate(self.batch.edges, axis=0)
        return arrays

    def save(self, path: str) -> None:
        """Persist :meth:`arrays` as a compressed ``.npz``."""
        np.savez_compressed(path, **self.arrays())

    @property
    def sampling_seconds(self) -> float:
        return self.breakdown.get("sampling", 0.0)

    @property
    def scheduling_index_seconds(self) -> float:
        return self.breakdown.get("scheduling_index", 0.0)

    @property
    def transfer_seconds(self) -> float:
        return self.breakdown.get("transfer", 0.0)

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
    subclass is that price list plus the two class attributes below."""

    engine_name = "engine"
    #: How a step's live pairs are grouped (``run_steps``' ``pairs=``),
    #: and so what the pricing pass reads of a walk-shaped step.
    _pairs = staticmethod(build_transit_map)
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

    def __init__(self, spec, workers: Optional[int] = None,
                 chunk_size: Optional[int] = None) -> None:
        self.spec = spec
        #: Multicore runtime: 0 = in-process; None = $REPRO_WORKERS,
        #: default 0.  Samples are bitwise-identical for any setting.
        self.workers = workers
        #: Pairs per RNG-plan chunk (None = runtime default).
        self.chunk_size = chunk_size

    def run(self, app: SamplingApp, graph,
            num_samples: Optional[int] = None,
            roots: Optional[np.ndarray] = None,
            seed: int = 0,
            num_devices: int = 1) -> SamplingResult:
        """Run ``app`` over ``graph``: samples now, model costs on read.

        ``num_devices > 1`` reproduces Section 6.4: samples are split
        equally, each shard runs on its own modeled GPU, and wall time
        is the slowest device plus host coordination.
        """
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        with trace.span("run", engine=self.engine_name, app=app.name,
                        graph=graph.name, devices=num_devices) as run_span:
            ctx = ExecutionContext(seed, workers=self.workers,
                                   chunk_size=self.chunk_size)
            ctx.cancel = self.cancel
            if self.fault_plan is not None:
                ctx._fault_plan = FaultPlan.parse(self.fault_plan.spec)
            batch = stepper.init_batch(app, graph, num_samples, roots,
                                       ctx.init_rng())
            run_span.set(samples=batch.num_samples)
            ctx.begin_run(app, graph)
            if num_devices == 1:
                shards = [self._sample(app, graph, batch, ctx)]
            else:
                shards = self._sample_shards(app, graph, batch, ctx,
                                             num_devices)
                batch = _merge_batches(
                    graph, [shard[0] for shard in shards if shard])
        steps_run = max(shard[2] for shard in shards if shard)
        reg = get_metrics()
        reg.counter("engine.runs").inc()
        reg.counter("engine.samples_produced").inc(batch.num_samples)
        reg.counter("engine.steps_run").inc(steps_run)
        return SamplingResult(
            app, graph.name, batch, steps_run, self.engine_name,
            price=lambda: self._price(app, graph, shards),
            devices_used=num_devices)

    def _sample(self, app: SamplingApp, graph, batch: SampleBatch,
                ctx: ExecutionContext) -> tuple:
        """One device's share of a run — ``(batch, records, steps)``:
        the shared step loop, its records kept for the pricing pass."""
        records: List[stepper.StepRecord] = []
        steps_run = stepper.run_steps(app, graph, batch, ctx,
                                      on_step=records.append,
                                      pairs=self._pairs)
        return batch, records, steps_run

    def _sample_shards(self, app: SamplingApp, graph, batch: SampleBatch,
                       ctx: ExecutionContext,
                       num_devices: int) -> List[Optional[tuple]]:
        """Device ``d``'s share per entry; None where it got no root."""
        bounds = np.linspace(0, batch.num_samples, num_devices + 1,
                             dtype=np.int64)

        def run_shard(d: int) -> Optional[tuple]:
            shard_roots = batch.roots[bounds[d]:bounds[d + 1]]
            if shard_roots.shape[0] == 0:
                return None
            # Each shard samples from its own namespaced RNG plan, so
            # the merged result does not depend on execution order or
            # thread timing.
            shard_ctx = ctx.shard(d)
            shard_ctx.tracer.name_thread(f"shard-{d}")
            with shard_ctx.tracer.span("shard", shard=d,
                                       samples=shard_roots.shape[0]):
                shard = SampleBatch(graph, shard_roots)
                app.init_state(shard, shard_ctx.init_rng())
                return self._sample(app, graph, shard, shard_ctx)

        # Shards run concurrently.  Under a compiled backend each
        # shard's chunks run on the process-wide chunk threads (the C
        # kernels release the GIL); under numpy with workers the chunk
        # streams interleave on the shared process pool; in-process the
        # shard threads overlap wherever numpy releases the GIL.
        with ThreadPoolExecutor(max_workers=num_devices) as tpe:
            return list(tpe.map(run_shard, range(num_devices)))

    # -- The pricing pass ------------------------------------------------

    def _price(self, app: SamplingApp, graph,
               shards: List[Optional[tuple]]) -> Priced:
        """Replay a run's records on fresh device(s), in recorded order
        (modeled seconds are float sums: the order is part of the
        result).  Several devices (Section 6.4): wall time is the
        slowest plus host coordination, a phase costs what it cost the
        device it cost most."""
        pool = MultiGPU(len(shards), self.spec) if len(shards) > 1 else None
        devices = pool.devices if pool else [self._device_cls(self.spec)]
        for device, shard in zip(devices, shards):
            if shard is not None:
                batch, records, steps_run = shard
                for record in records:
                    self._charge_step(device, graph, batch, record)
                self._charge_output_materialisation(device, app, batch,
                                                    steps_run)
        if pool is None:
            return Priced(devices[0].elapsed_seconds,
                          devices[0].timeline.phase_breakdown(),
                          devices[0].metrics, devices[0].metrics_by_phase)
        pool.record_run()
        breakdown: Dict[str, float] = {}
        for device in pool.devices:
            for phase, secs in device.timeline.phase_breakdown().items():
                breakdown[phase] = max(breakdown.get(phase, 0.0), secs)
        breakdown["coordination"] = pool.coordination_seconds
        by_phase: Dict[str, DeviceMetrics] = {}
        for device in pool.devices:
            for phase, metrics in device.metrics_by_phase.items():
                by_phase.setdefault(phase, DeviceMetrics()).merge(metrics)
        return Priced(pool.elapsed_seconds, breakdown,
                      pool.merged_metrics(), by_phase)

    def _charge_output_materialisation(self, device, app, batch,
                                       steps_run) -> None:
        """Final output pass.  Default: nothing to pay."""


class NextDoorEngine(Engine):
    """Transit-parallel GPU sampling engine (the paper's system)."""

    engine_name = "NextDoor"

    def __init__(self, spec: GPUSpec = V100,
                 config: KernelPlanConfig = KernelPlanConfig(),
                 workers: Optional[int] = None,
                 chunk_size: Optional[int] = None) -> None:
        super().__init__(spec, workers, chunk_size)
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
            if record.unique_dups:
                charge_collective_selection(device, record.unique_holes,
                                            1, info=_TOPUP_INFO)

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


def _merge_batches(graph, shards: List[SampleBatch]) -> SampleBatch:
    """Concatenate per-device batches, padding step widths (INF apps
    may have run different step counts per shard)."""
    if not shards:
        raise ValueError("no shards to merge")
    if len(shards) == 1:
        return shards[0]
    merged = SampleBatch(graph, np.concatenate([b.roots for b in shards]))
    num_steps = max(b.num_steps for b in shards)
    total_rows = sum(b.num_samples for b in shards)
    row_starts = np.cumsum([0] + [b.num_samples for b in shards])
    for i in range(num_steps):
        width = max(b.step_vertices[i].shape[1]
                    for b in shards if b.num_steps > i)
        # Preallocate the padded step once and copy each shard into its
        # row block — no per-shard pad + concatenate round trips.
        out = np.full((total_rows, width), NULL_VERTEX, dtype=np.int64)
        for r0, b in zip(row_starts, shards):
            if b.num_steps > i:
                arr = b.step_vertices[i]
                out[r0:r0 + arr.shape[0], :arr.shape[1]] = arr
        merged.append_step(out)
    # Recorded edges: shift sample ids into the merged numbering with a
    # single broadcast add per shard array.
    for r0, b in zip(row_starts, shards):
        shift = np.asarray([r0, 0, 0], dtype=np.int64)
        for edges in b.edges:
            if edges.size:
                merged.record_edges(edges + shift)
    return merged


#: Keyword arguments ``do_sampling`` accepts beyond its positionals.
_DO_SAMPLING_KWARGS = ("spec", "config", "workers", "chunk_size",
                       "num_devices")


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
