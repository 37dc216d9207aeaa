"""Samples first, price on read.

``engine.run`` samples and builds no device model; the first read of
``seconds`` / ``breakdown`` / ``metrics`` / ``metrics_by_phase`` replays
the run's step records through the engine's own ``_charge_*`` hooks.
Two contracts: the sampling path (run, digest, encode, save, a served
request) never constructs a device, and the lazy replay gives exactly
what pricing inline during the loop — the pre-lazy order, written out
below as the oracle — gives, for every engine and configuration.  A
third: one run priced as another engine (``priced_as``) is that
engine's own run, and it refuses an engine whose chunk size would draw
other samples.
"""

import dataclasses
import gc
import json
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.baselines
from repro.api.apps import DeepWalk
from repro.api.sample import SampleBatch
from repro.api.types import NULL_VERTEX
from repro.core import stepper
from repro.core.engine import NextDoorEngine
from repro.core.large_graph import LargeGraphNextDoor
from repro.gpu.cpu_model import CpuDevice
from repro.gpu.device import Device
from repro.gpu.metrics import DeviceMetrics
from repro.gpu.multi_gpu import MultiGPU
from repro.native.backend import available_backends, backend_scope
from repro.obs import get_metrics
from repro.runtime.context import ExecutionContext
from repro.runtime.faults import FaultInjected, FaultPlan
from repro.serve.protocol import SampleRequest, batch_digest, encode_batch
from repro.serve.server import SamplingServer, ServerConfig
from repro.verify.golden import GOLDEN_CASES
from repro.verify.golden import _NUM_SAMPLES as GOLDEN_SAMPLES
from repro.verify.golden import _golden_graph as golden_graph

ALL_ENGINES = [NextDoorEngine, LargeGraphNextDoor] + [
    getattr(repro.baselines, name) for name in repro.baselines.__all__]


def make_engine(engine_cls, **kwargs):
    if engine_cls is LargeGraphNextDoor:
        kwargs["modeled_graph_bytes"] = 1 << 34
    return engine_cls(**kwargs)


def comparable(seconds, breakdown, metrics, by_phase):
    """Everything a pricing pass produces, in comparable form."""
    asdict = dataclasses.asdict
    return (repr(seconds), breakdown, metrics and asdict(metrics),
            by_phase and {p: asdict(m) for p, m in by_phase.items()})


def priced(result):
    return comparable(result.seconds, result.breakdown, result.metrics,
                      result.metrics_by_phase)


# ----------------------------------------------------------------------
# The oracle: price each step as the loop hands it over
# ----------------------------------------------------------------------

def inline_priced(engine, app, graph, seed, num_devices=1):
    """``engine.run`` as it was before pricing moved to first read:
    ``_charge_step`` is the ``on_step`` callback, on device(s) built
    before the loop — device ``d`` charged the row slice ``[lo, hi)`` of
    each step where the slice has a live transit.  Returns ``(digest,
    priced tuple)``."""
    ctx = ExecutionContext(seed, workers=engine.workers)
    batch = stepper.init_batch(app, graph, GOLDEN_SAMPLES, None,
                               ctx.init_rng())
    ctx.begin_run(app, graph)
    pool = MultiGPU(num_devices, engine.spec) if num_devices > 1 else None
    devices = pool.devices if pool else [engine._device_cls(engine.spec)]
    bounds = np.linspace(0, batch.num_samples, num_devices + 1,
                         dtype=np.int64)
    shares = [SampleBatch(graph, batch.roots[lo:hi])
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    live_steps = [[] for _ in devices]

    def on_step(record):
        for d, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if not (record.transits[lo:hi] != NULL_VERTEX).any():
                continue
            share = record if pool is None else dataclasses.replace(
                record, transits=record.transits[lo:hi], shape=None,
                **{name: getattr(record, name)[lo:hi]
                   for name in ("neighborhood_sizes", "unique_dups",
                                "unique_topups")
                   if getattr(record, name) is not None})
            engine._charge_step(devices[d], graph, shares[d], share)
            live_steps[d].append(record.step)

    stepper.run_steps(app, graph, batch, ctx, on_step=on_step)
    for d, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        shares[d].step_vertices = [batch.step_vertices[i][lo:hi]
                                   for i in live_steps[d]]
        engine._charge_output_materialisation(devices[d], app, shares[d],
                                              len(live_steps[d]))
    if pool is None:
        return batch_digest(batch), comparable(
            devices[0].elapsed_seconds, devices[0].timeline.phase_breakdown(),
            devices[0].metrics, devices[0].metrics_by_phase)
    pool.record_run()
    breakdown = {}
    for device in pool.devices:
        for phase, secs in device.timeline.phase_breakdown().items():
            breakdown[phase] = max(breakdown.get(phase, 0.0), secs)
    breakdown["coordination"] = pool.coordination_seconds
    by_phase = {}
    for device in pool.devices:
        for phase, metrics in device.metrics_by_phase.items():
            by_phase.setdefault(phase, DeviceMetrics()).merge(metrics)
    return batch_digest(batch), comparable(
        pool.elapsed_seconds, breakdown, pool.merged_metrics(), by_phase)


class TestLazyEqualsInline:
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("engine_cls", ALL_ENGINES,
                             ids=lambda cls: cls.__name__)
    def test_every_engine_every_golden_app(self, engine_cls, backend,
                                           workers):
        """Includes the INF-step (``ppr``) and ``khop_unique`` cases.
        The device count prices a run and samples nothing: every GPU
        engine's batch is the same at D = 1, 2, 3, 4 and 8 (at
        ``workers=2``, checked on NextDoor alone)."""
        devices = ((2, 3, 4, 8) if issubclass(engine_cls, NextDoorEngine)
                   and (workers == 0 or engine_cls is NextDoorEngine)
                   else ())
        with backend_scope(backend):
            for case, (factory, weighted, seed) in GOLDEN_CASES.items():
                graph = golden_graph(weighted)
                engine = make_engine(engine_cls, workers=workers)
                try:
                    result = engine.run(factory(), graph,
                                        num_samples=GOLDEN_SAMPLES,
                                        seed=seed)
                except ValueError:
                    assert engine_cls is repro.baselines.KnightKingEngine
                    continue
                digest, expected = inline_priced(
                    make_engine(engine_cls, workers=workers), factory(),
                    graph, seed)
                assert batch_digest(result.batch) == digest, case
                assert priced(result) == expected, case
                for d in devices:
                    multi = engine.run(factory(), graph,
                                       num_samples=GOLDEN_SAMPLES,
                                       seed=seed, num_devices=d)
                    assert batch_digest(multi.batch) == digest, (case, d)

    @pytest.mark.parametrize("engine_cls, devices",
                             [(NextDoorEngine, 3), (LargeGraphNextDoor, 2)])
    @pytest.mark.parametrize("case", ["deepwalk", "ppr", "khop_unique",
                                      "ladies"])
    def test_multi_device(self, engine_cls, devices, case):
        factory, weighted, seed = GOLDEN_CASES[case]
        graph = golden_graph(weighted)
        result = make_engine(engine_cls).run(
            factory(), graph, num_samples=GOLDEN_SAMPLES, seed=seed,
            num_devices=devices)
        assert result.devices_used == devices
        digest, expected = inline_priced(make_engine(engine_cls), factory(),
                                         graph, seed, num_devices=devices)
        assert batch_digest(result.batch) == digest
        assert priced(result) == expected

    def test_interrupted_then_rerun(self, set_chunk_pairs):
        """A run is recovered by running it again: the interrupted run
        leaves nothing on the engine that changes the next one."""
        set_chunk_pairs(8)
        factory, weighted, seed = GOLDEN_CASES["deepwalk"]
        graph = golden_graph(weighted)
        engine = NextDoorEngine()
        engine.fault_plan = FaultPlan.parse("chunk-error:2.0")
        with pytest.raises(FaultInjected):
            engine.run(factory(), graph, num_samples=GOLDEN_SAMPLES,
                       seed=seed)
        engine.fault_plan = None
        rerun = engine.run(factory(), graph, num_samples=GOLDEN_SAMPLES,
                           seed=seed)
        digest, expected = inline_priced(NextDoorEngine(), factory(),
                                         graph, seed)
        assert batch_digest(rerun.batch) == digest
        assert priced(rerun) == expected


# ----------------------------------------------------------------------
# One run, priced as every engine
# ----------------------------------------------------------------------

#: Every engine at one device, the GPU engines at four as well.
ENGINE_DEVICES = [(cls, d) for cls in ALL_ENGINES
                  for d in ((1, 4) if issubclass(cls, NextDoorEngine)
                            else (1,))]


class TestPricedAs:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    @pytest.mark.parametrize(
        "engine_cls, devices", ENGINE_DEVICES,
        ids=[f"{cls.__name__}-D{d}" for cls, d in ENGINE_DEVICES])
    def test_view_equals_own_run(self, engine_cls, devices, case):
        """``NextDoorEngine().run(...).priced_as(E, D)`` is ``E``'s own
        run at ``D`` devices in digest and every priced number, and an
        app ``E`` cannot express fails in both."""
        factory, weighted, seed = GOLDEN_CASES[case]
        graph = golden_graph(weighted)
        run = NextDoorEngine().run(factory(), graph,
                                   num_samples=GOLDEN_SAMPLES, seed=seed)
        engine = make_engine(engine_cls)
        try:
            own = engine.run(factory(), graph, num_samples=GOLDEN_SAMPLES,
                             seed=seed, num_devices=devices)
        except ValueError:
            assert engine_cls is repro.baselines.KnightKingEngine
            with pytest.raises(ValueError, match="cannot express"):
                run.priced_as(engine, devices)
            return
        view = run.priced_as(engine, devices)
        assert (view.engine, view.devices_used) == (own.engine, devices)
        assert view.batch is run.batch
        assert batch_digest(own.batch) == batch_digest(run.batch)
        assert priced(view) == priced(own), (engine_cls.__name__, case)

    def test_a_view_prices_once_and_leaves_the_run_alone(self, monkeypatch):
        engine = NextDoorEngine()
        run = _walk(engine)
        sp = repro.baselines.SampleParallelEngine()
        passes = _count_pricing_passes(sp, monkeypatch)
        view = run.priced_as(sp)
        assert passes == []
        assert view.seconds != run.seconds
        view.breakdown
        assert passes == [1]
        assert priced(run) == priced(_walk())

    def test_the_run_counter_counts_runs_not_views(self):
        runs = get_metrics().counter("engine.runs")
        before = runs.value
        run = _walk()
        for engine_cls in ALL_ENGINES:
            run.priced_as(make_engine(engine_cls)).seconds
        assert runs.value == before + 1

    def test_bad_device_count(self):
        with pytest.raises(ValueError, match="num_devices"):
            _walk().priced_as(NextDoorEngine(), 0)


# ----------------------------------------------------------------------
# One memoised pass
# ----------------------------------------------------------------------

def _walk(engine=None, **kwargs):
    factory, weighted, seed = GOLDEN_CASES["deepwalk"]
    return (engine or NextDoorEngine()).run(
        factory(), golden_graph(weighted), num_samples=GOLDEN_SAMPLES,
        seed=seed, **kwargs)


def _count_pricing_passes(engine, monkeypatch):
    calls = []
    inner = engine._price
    monkeypatch.setattr(
        engine, "_price",
        lambda *args: (calls.append(1), inner(*args))[1])
    return calls


class TestPricingPass:
    def test_reading_twice_prices_once(self, monkeypatch):
        engine = NextDoorEngine()
        passes = _count_pricing_passes(engine, monkeypatch)
        result = _walk(engine)
        assert passes == []
        first = (result.seconds, result.breakdown, result.metrics,
                 result.metrics_by_phase)
        assert result.samples_per_second > 0 and result.sampling_seconds > 0
        again = (result.seconds, result.breakdown, result.metrics,
                 result.metrics_by_phase)
        assert all(a is b for a, b in zip(first, again))
        assert passes == [1]

    def test_two_threads_reading_agree(self, monkeypatch):
        engine = NextDoorEngine()
        passes = _count_pricing_passes(engine, monkeypatch)
        result = _walk(engine, num_devices=3)
        seen, barrier = [], threading.Barrier(2)

        def read():
            barrier.wait(timeout=30)
            seen.append((result.seconds, result.breakdown))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 2
        assert seen[0][0] == seen[1][0] and seen[0][1] is seen[1][1]
        assert passes == [1]

    def test_records_live_as_long_as_the_result(self):
        """A priced result keeps its records, so it can be priced again
        as another engine; dropping the result frees them."""
        gc.collect()
        before = {id(o) for o in gc.get_objects()
                  if isinstance(o, stepper.StepRecord)}
        result = _walk()
        records = [weakref.ref(o) for o in gc.get_objects()
                   if isinstance(o, stepper.StepRecord)
                   and id(o) not in before]
        assert len(records) == result.steps_run
        assert result.seconds > 0
        gc.collect()
        assert all(ref() is not None for ref in records)
        assert result.priced_as(NextDoorEngine(), 2).seconds > 0
        del result
        gc.collect()
        assert not any(ref() is not None for ref in records)

    def test_a_record_holds_no_pair_sized_array(self):
        """``unique_transits`` / ``counts`` only — never the step's
        ``sample_ids`` / ``cols`` / ``transit_vals``."""
        factory, weighted, seed = GOLDEN_CASES["khop"]
        graph, app, records = golden_graph(weighted), factory(), []
        ctx = ExecutionContext(seed)
        batch = stepper.init_batch(app, graph, GOLDEN_SAMPLES, None,
                                   ctx.init_rng())
        ctx.begin_run(app, graph)
        stepper.run_steps(app, graph, batch, ctx, on_step=records.append)
        last = records[-1].tmap
        assert last.num_pairs > last.num_transits
        assert not hasattr(last, "sample_ids")
        assert last.counts.size == last.unique_transits.size
        assert int(last.counts.sum()) == last.num_pairs


# ----------------------------------------------------------------------
# The sampling path builds no device
# ----------------------------------------------------------------------

class DeviceBuilt(Exception):
    pass


@pytest.fixture
def no_devices(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise DeviceBuilt(type(self).__name__)

    for cls in (Device, CpuDevice, MultiGPU):
        monkeypatch.setattr(cls, "__init__", refuse)


#: The ledger's ``served_mix`` request classes
#: (benchmarks/ledger/inproc.py::REQUEST_CLASSES).
REQUEST_CLASSES = {
    "khop": ("k-hop", 256, False),
    "khop_payload": ("k-hop", 256, True),
    "walk": ("DeepWalk", 256, False),
    "ladies": ("LADIES", 64, False),
}


class TestSamplingBuildsNoDevice:
    @pytest.mark.parametrize("engine_cls", ALL_ENGINES,
                             ids=lambda cls: cls.__name__)
    def test_run_and_everything_but_the_price(self, engine_cls, no_devices,
                                              medium_weighted, tmp_path):
        result = make_engine(engine_cls).run(
            DeepWalk(walk_length=6), medium_weighted, num_samples=48,
            seed=2)
        assert result.steps_run == 6
        assert len(batch_digest(result.batch)) == 32
        assert set(encode_batch(result)) == {"samples", "roots"}
        assert result.get_final_samples().shape == (48, 6)
        result.save(str(tmp_path / "walks.npz"))
        with np.load(str(tmp_path / "walks.npz")) as saved:
            assert np.array_equal(saved["roots"], result.batch.roots)
        # The read, and only the read, prices.
        with pytest.raises(DeviceBuilt):
            result.seconds

    def test_three_device_run(self, no_devices, medium_weighted):
        result = NextDoorEngine().run(
            DeepWalk(walk_length=6), medium_weighted, num_samples=48,
            seed=2, num_devices=3)
        assert result.batch.num_samples == 48
        with pytest.raises(DeviceBuilt, match="MultiGPU"):
            result.breakdown

    def test_served_requests(self, no_devices):
        config = ServerConfig(port=0, executors=2, queue_capacity=16,
                              workers=0)
        with SamplingServer(config) as server:
            for cls, (app, samples, payload) in REQUEST_CLASSES.items():
                request = SampleRequest(app=app, graph="ppi",
                                        samples=samples, seed=7,
                                        return_samples=payload)
                response = server.handle_sample(
                    json.dumps(request.to_json()).encode())
                assert response["status"] == "ok", (cls, response)
                assert response["digest"]
                assert ("arrays" in response) == payload
