"""The in-process layers, measured from outside.

Everything here times calls into the program's public functions:
cold set-up (graph generation, backend warm-up, pool spawn, shm
export), ``NextDoorEngine.run`` under each configuration, the
benchmark's own sample-only step loop with a span at every layer
boundary, the replay of the modeled-GPU charges, the telemetry probes
and the output-correctness gate.
"""

from __future__ import annotations

import gc
import random
import resource
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.api.types import NULL_VERTEX, SamplingType
from repro.baselines.sample_parallel import SampleParallelEngine
from repro.bench.runner import paper_app, paper_graph
from repro.core import stepper
from repro.core.collective import (charge_collective_selection,
                                   charge_combined_neighborhood_tp,
                                   charge_edge_recording)
from repro.core.engine import NextDoorEngine
from repro.core.scheduling import KernelPlanConfig, charge_sampling_kernels
from repro.core.transit_map import (build_transit_map, charge_index_build,
                                    charge_map_readback)
from repro.gpu.device import Device
from repro.graph import datasets
from repro.native.backend import backend_scope
from repro.obs import get_metrics, openmetrics_text, trace
from repro.obs.metrics import scalar_of
from repro.runtime import shm
from repro.runtime.context import ExecutionContext
from repro.runtime.pool import get_pool, shutdown_pools
from repro.serve.protocol import batch_digest

import spans as sp
from names import BACKENDS

#: Hooks of ``active_backend()`` whose calls become ``native.<hook>`` spans.
NATIVE_HOOKS = ("uniform_neighbors", "weighted_neighbors", "grouping",
                "segment_choice", "ragged_gather", "scatter_rows",
                "dedupe_rows")

#: Request classes of ``served_mix``: app, base sample count, payload.
REQUEST_CLASSES = {
    "khop": ("k-hop", 256, False),
    "khop_payload": ("k-hop", 256, True),
    "walk": ("DeepWalk", 256, False),
    "ladies": ("LADIES", 64, False),
}
_MIX = ["khop"] * 4 + ["khop_payload"] * 3 + ["walk"] * 2 + ["ladies"]

#: Pairs checked by the structural-validity gate.
VALIDITY_PAIRS = 10_000


@dataclass(frozen=True)
class Sizing:
    scale: int      # down-scale factor of the LiveJ stand-in
    walkers: int
    roots: int
    ladies: int


FULL = Sizing(scale=30, walkers=16_000, roots=32_768, ladies=512)
QUICK = Sizing(scale=300, walkers=2_000, roots=2_048, ladies=64)


def sizing_of(quick: bool) -> Sizing:
    return QUICK if quick else FULL


@dataclass
class Job:
    """One ``engine.run`` call: the program sees only these inputs."""

    cls: str
    app_name: str
    graph: object
    samples: int
    seed: int

    def app(self):
        return paper_app(self.app_name)


def mix_cycle(seed: int) -> List[str]:
    """The 40/30/20/10 class mix as a seed-shuffled cycle of ten."""
    cycle = list(_MIX)
    random.Random(seed).shuffle(cycle)
    return cycle


def request_samples(cls: str, i: int) -> int:
    """``base + (i mod 16)``: work constant within 6 %, signatures of
    concurrent requests distinct."""
    return REQUEST_CLASSES[cls][1] + i % 16


def jobs_for(workload: str, seed: int, sizing: Sizing) -> List[Job]:
    if workload == "walk":
        g = datasets.load("livej", seed=seed, weighted=True,
                          scale=sizing.scale)
        return [Job("walk", "DeepWalk", g, sizing.walkers, seed)]
    if workload in ("khop", "ladies"):
        g = datasets.load("livej", seed=seed, weighted=False,
                          scale=sizing.scale)
        if workload == "khop":
            return [Job("khop", "k-hop", g, sizing.roots, seed)]
        return [Job("ladies", "LADIES", g, sizing.ladies, seed)]
    if workload == "served_mix":
        # One pass of the request cycle, run directly: the daemon's
        # cache resolves the same (dataset, weighted, seed) graphs.
        return [Job(cls, REQUEST_CLASSES[cls][0],
                    paper_graph("ppi", REQUEST_CLASSES[cls][0], seed=seed),
                    request_samples(cls, i), seed)
                for i, cls in enumerate(mix_cycle(seed))]
    raise ValueError(f"unknown workload {workload!r}")


def distinct_graphs(jobs: List[Job]) -> list:
    seen, out = set(), []
    for job in jobs:
        if id(job.graph) not in seen:
            seen.add(id(job.graph))
            out.append(job.graph)
    return out


def graph_mb(graph) -> float:
    arrays = [graph.indptr, graph.indices]
    if graph.weights is not None:
        arrays.append(graph.weights)
    return sum(a.nbytes for a in arrays) / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Cold set-up
# ----------------------------------------------------------------------

def cold_setup(workload: str, seed: int, sizing: Sizing, t_process: float,
               nproc: int) -> Tuple[List[Job], Dict[str, float]]:
    """Everything a fresh process pays before its first pooled sample.

    ``t_process`` is the ``perf_counter`` reading taken before the
    first import, so interpreter-side import time is charged too.  The
    caller points ``XDG_CACHE_HOME`` at an empty directory first, which
    makes the C build cold on every call."""
    timing = {"import_s": time.perf_counter() - t_process}
    t = time.perf_counter()
    jobs = jobs_for(workload, seed, sizing)
    timing["generate_s"] = time.perf_counter() - t
    for backend in BACKENDS:
        t = time.perf_counter()
        with backend_scope(backend):
            pass
        timing[f"warm_up_s.{backend}"] = time.perf_counter() - t
    mapped = get_metrics().counter("shm.bytes_mapped")
    before = mapped.value
    t = time.perf_counter()
    handles = [shm.export_graph(g) for g in distinct_graphs(jobs)]
    timing["shm_export_s"] = time.perf_counter() - t
    timing["shm_mb"] = (mapped.value - before) / 1e6
    t = time.perf_counter()
    with backend_scope("cnative"):
        get_pool(nproc).broadcast_run(jobs[0].app(), handles[0], seed, False)
    timing["pool_spawn_s"] = time.perf_counter() - t
    timing["setup_s"] = (timing["import_s"] + timing["generate_s"]
                         + timing["warm_up_s.cnative"]
                         + timing["shm_export_s"] + timing["pool_spawn_s"])
    return jobs, timing


def teardown() -> None:
    shutdown_pools()
    shm.release_all()


def leaked_segments(pids) -> List[str]:
    """Segments in ``/dev/shm`` exported by one of ``pids``."""
    prefixes = tuple(f"{shm.SEGMENT_PREFIX}_{pid}_" for pid in pids)
    return [n for n in shm.leaked_segments() if n.startswith(prefixes)]


# ----------------------------------------------------------------------
# engine.run under one configuration
# ----------------------------------------------------------------------

def engine_pass(jobs: List[Job], backend: str, workers: int,
                engine_cls=NextDoorEngine) -> Tuple[List[float], list]:
    """One pass over the jobs: wall seconds of each ``engine.run``
    (engine and app constructed inside the timed region, as the daemon
    does per request) and the results."""
    seconds, results = [], []
    with backend_scope(backend):
        for job in jobs:
            gc.collect()
            t = time.perf_counter()
            result = engine_cls(workers=workers).run(
                job.app(), job.graph, num_samples=job.samples,
                seed=job.seed)
            seconds.append(time.perf_counter() - t)
            results.append(result)
    return seconds, results


# ----------------------------------------------------------------------
# The sample-only step loop, with spans at the layer boundaries
# ----------------------------------------------------------------------

@dataclass
class StepRecord:
    tmap: object
    m: int
    info: object
    collective: bool
    has_edges: bool


@contextmanager
def instrument(rec: sp.Recorder, app, backend, stats: Dict[str, float]
               ) -> Iterator[None]:
    """Time every call the program makes into the api hooks of ``app``
    and the kernel hooks of ``backend`` as child spans, by shadowing
    the bound methods on the two instances for the duration."""
    patched = []

    def shadow(obj, attr, name, native):
        inner = getattr(obj, attr)

        def timed(*args, **kwargs):
            with rec.span(name):
                out = inner(*args, **kwargs)
            if native:
                stats["calls"] += 1
                stats["declined"] += out is None
                arrays = [a for a in args if isinstance(a, np.ndarray)]
                outs = out if isinstance(out, tuple) else (out,)
                arrays += [a for a in outs if isinstance(a, np.ndarray)]
                stats["bytes"] += sum(a.nbytes for a in arrays)
                if attr in ("uniform_neighbors", "weighted_neighbors"):
                    stats["pairs"] += args[1].size
                    stats["draws"] += args[1].size * args[2]
                elif attr == "segment_choice":
                    stats["pairs"] += args[1].size - 1
                    stats["draws"] += (args[1].size - 1) * args[2]
            return out

        setattr(obj, attr, timed)
        patched.append((obj, attr))

    try:
        shadow(app, "sample_neighbors", "api.hook", False)
        shadow(app, "sample_from_neighborhood", "api.hook", False)
        shadow(app, "record_step_edges", "api.record_edges", False)
        for hook in NATIVE_HOOKS:
            shadow(backend, hook, f"native.{hook}", True)
        yield
    finally:
        for obj, attr in patched:
            delattr(obj, attr)


def step_loop(job: Job, rec: Optional[sp.Recorder] = None,
              stats: Optional[Dict[str, float]] = None, run: object = None):
    """``init_batch`` -> per step ``transits_for_step`` ->
    ``build_transit_map`` -> ``run_*_step`` through an
    ``ExecutionContext(seed, workers=0)`` -> ``append_step`` /
    ``post_step``: what ``NextDoorEngine._run_on_device`` does minus
    charging and telemetry.  Must be called inside a ``backend_scope``.

    Returns ``(seconds, batch, step records)``; with a recorder every
    layer boundary is a span under one ``core.step_loop`` span."""
    from repro.native.backend import active_backend
    app, graph = job.app(), job.graph
    span = rec.span if rec is not None else (lambda name, run=None:
                                             nullcontext())
    probes = (instrument(rec, app, active_backend(), stats)
              if rec is not None else nullcontext())
    collective = app.sampling_type() is SamplingType.COLLECTIVE
    records: List[StepRecord] = []
    gc.collect()
    t0 = time.perf_counter()
    with probes, span("core.step_loop", run=run):
        ctx = ExecutionContext(job.seed, workers=0)
        with span("core.init_batch"):
            batch = stepper.init_batch(app, graph, job.samples, None,
                                       ctx.init_rng())
        ctx.begin_run(app, graph)
        for step in range(stepper.step_limit(app)):
            with span("api.transits_for_step"):
                transits = app.transits_for_step(batch, step)
            with span("core.transit_map"):
                tmap = build_transit_map(transits, graph)
            if tmap.num_pairs == 0:
                break
            m = app.sample_size(step)
            if app.unique(step):
                raise NotImplementedError(
                    "the ledger's loop has no unique-neighbour pass")
            with span("runtime.ctx_step"):
                if collective:
                    new, info, edges, _ = stepper.run_collective_step(
                        app, graph, batch, transits, step, ctx)
                    if edges is not None:
                        batch.record_edges(edges)
                else:
                    edges = None
                    new, info = stepper.run_individual_step(
                        app, graph, batch, transits, step, ctx,
                        tmap.sample_ids, tmap.cols, tmap.transit_vals)
            records.append(StepRecord(tmap, m, info, collective,
                                      edges is not None))
            with span("api.post_step"):
                batch.append_step(new)
                app.post_step(batch, new, step, ctx.post_step_rng(step))
            if m > 0 and not (new != NULL_VERTEX).any():
                break
    return time.perf_counter() - t0, batch, records


def replay_charges(job: Job, batch, records: List[StepRecord]
                   ) -> Tuple[float, float]:
    """Charge a fresh modeled ``Device`` from the recorded step shapes,
    in the order ``NextDoorEngine`` charges them.  Returns (host seconds
    spent charging, simulated device seconds)."""
    app, graph = job.app(), job.graph
    device, config = Device(), KernelPlanConfig()
    t0 = time.perf_counter()
    for r in records:
        charge_index_build(device, r.tmap.num_pairs)
        degrees = graph.degrees_array[r.tmap.unique_transits]
        if r.collective:
            charge_combined_neighborhood_tp(device, r.tmap, degrees,
                                            config=config)
            charge_collective_selection(device, batch.num_samples, r.m,
                                        r.info)
            if r.has_edges:
                charge_edge_recording(device,
                                      r.tmap.num_pairs * max(r.m, 1))
        else:
            charge_sampling_kernels(device, r.tmap, degrees, r.m, r.info,
                                    config, weighted=graph.is_weighted)
    if all(app.sample_size(i) <= 2 for i in range(len(records))):
        charge_map_readback(device,
                            sum(int(a.size) for a in batch.step_vertices))
    return time.perf_counter() - t0, device.elapsed_seconds


# ----------------------------------------------------------------------
# Output-correctness gate
# ----------------------------------------------------------------------

def invalid_pairs(job: Job, batch) -> int:
    """Of :data:`VALIDITY_PAIRS` sampled (transit, vertex) pairs, how
    many are structurally wrong: a vertex must be NULL or a neighbour
    of its transit (individual apps) / of one of its sample's transits
    (collective apps)."""
    app, graph = job.app(), job.graph
    collective = app.sampling_type() is SamplingType.COLLECTIVE
    rng = np.random.default_rng(job.seed)
    per_step = max(1, VALIDITY_PAIRS // max(batch.num_steps, 1))
    bad = 0
    for step, new in enumerate(batch.step_vertices):
        if new.size == 0:
            continue
        transits = np.asarray(app.transits_for_step(batch, step))
        m = app.sample_size(step)
        rows = rng.integers(0, new.shape[0], size=per_step)
        slots = rng.integers(0, new.shape[1], size=per_step)
        for row, slot in zip(rows.tolist(), slots.tolist()):
            v = int(new[row, slot])
            if v == NULL_VERTEX:
                continue
            owners = (transits[row] if collective
                      else transits[row, slot // m:slot // m + 1])
            if not any(t != NULL_VERTEX and v in graph.neighbors(int(t))
                       for t in owners.tolist()):
                bad += 1
    return bad


class Gate:
    """Collects digest / modeled-time / validity checks; every check is
    one attempted operation and a mismatch one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.digests: Dict[str, str] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def same(self, key: str, label: str, value) -> None:
        """``value`` must equal the first value seen under ``key``."""
        first = self.digests.setdefault(key, value)
        self.check(first == value,
                   f"{key}: {label} gave {value!r}, expected {first!r}")


def gate_results(gate: Gate, jobs: List[Job], label: str, results,
                 digest: bool = True) -> None:
    """Digest and simulated seconds of one configuration's results must
    match every other configuration's.  ``digest=False`` skips the hash
    (65 MB of samples on khop) for the timed iterations."""
    for i, (job, result) in enumerate(zip(jobs, results)):
        if digest:
            gate.same(f"digest[{i}:{job.cls}]", label,
                      batch_digest(result.batch))
        gate.same(f"modeled_s[{i}:{job.cls}]", label, result.seconds)


# ----------------------------------------------------------------------
# Telemetry probes (the obs layer's own cost)
# ----------------------------------------------------------------------

def traced_engine_pass(jobs: List[Job]) -> Tuple[float, int]:
    """``engine.run`` with the program's own tracer on: summed wall
    seconds and spans recorded."""
    tracer = trace.enable()
    try:
        seconds = sum(engine_pass(jobs, "numpy", 0)[0])
        return seconds, len(tracer)
    finally:
        trace.disable()


def obs_probes() -> Dict[str, float]:
    loops = 20_000
    t = time.perf_counter()
    for _ in range(loops):
        with trace.span("ledger.noop"):
            pass
    noop_ns = (time.perf_counter() - t) / loops * 1e9
    t = time.perf_counter()
    get_metrics().snapshot()
    snapshot_ms = (time.perf_counter() - t) * 1e3
    t = time.perf_counter()
    openmetrics_text(get_metrics())
    render_ms = (time.perf_counter() - t) * 1e3
    return {"obs.noop_span_ns": noop_ns, "obs.snapshot_ms": snapshot_ms,
            "obs.openmetrics_render_ms": render_ms}


def runtime_counters() -> Dict[str, float]:
    snap = get_metrics().snapshot()
    return {"chunk_retries": scalar_of(snap.get("pool.chunk_retries", 0)),
            "worker_crashes": scalar_of(snap.get("pool.worker_crashes", 0)),
            "compile_failures":
                scalar_of(snap.get("native.compile_failures", 0)),
            "degraded": scalar_of(snap.get("runtime.degraded_mode", 0))}


def modeled_speedup_vs_sp(jobs: List[Job], nextdoor_s: float) -> float:
    """Simulated seconds of the sample-parallel baseline over
    NextDoor's, same inputs (both numbers are simulated time)."""
    _, results = engine_pass(jobs, "numpy", 0,
                             engine_cls=SampleParallelEngine)
    return sum(r.seconds for r in results) / nextdoor_s
