"""Samples first, price on read.

``engine.run`` samples and builds no device model; the first read of
``seconds`` / ``breakdown`` / ``metrics`` / ``metrics_by_phase`` replays
the run's step records through the engine's own ``_charge_*`` hooks.
Two contracts: the sampling path (run, digest, encode, save, a served
request) never constructs a device, and the price read lazily is the
identity lattice's reference (``repro.verify.identity.check_cell``):
one NextDoor run priced as the engine (``priced_as``) — for every
engine, backend, worker count and device count, and after a failed
run.  Here the lattice's oracle runs on the ten golden apps.
"""

import dataclasses
import functools
import gc
import json
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.baselines
from repro.api.apps import DeepWalk
from repro.core import stepper
from repro.core.engine import NextDoorEngine
from repro.core.large_graph import LargeGraphNextDoor
from repro.gpu.cpu_model import CpuDevice
from repro.gpu.device import Device
from repro.gpu.multi_gpu import MultiGPU
from repro.native.backend import available_backends
from repro.obs import get_metrics
from repro.runtime.context import ExecutionContext
from repro.serve.protocol import SampleRequest, batch_digest, encode_batch
from repro.serve.server import SamplingServer, ServerConfig
from repro.verify.golden import GOLDEN_CASES
from repro.verify.golden import _NUM_SAMPLES as GOLDEN_SAMPLES
from repro.verify.golden import _golden_graph
from repro.verify.identity import ENGINES, Cell, Workload, check_cell

ALL_ENGINES = [NextDoorEngine, LargeGraphNextDoor] + [
    getattr(repro.baselines, name) for name in repro.baselines.__all__]

golden_graph = functools.lru_cache()(_golden_graph)

#: The ten golden apps as lattice workloads, at their golden size.
GOLDEN = {case: Workload(factory, functools.partial(golden_graph, weighted),
                         GOLDEN_SAMPLES, seed)
          for case, (factory, weighted, seed) in GOLDEN_CASES.items()}


def make_engine(engine_cls, **kwargs):
    return ENGINES[engine_cls.__name__](**kwargs)


def holds(case, engine_cls, backend="numpy", workers=0, devices=1,
          priced=True, disturbance="none"):
    """The golden ``case`` as one lattice cell: no departures."""
    cell = Cell(case, backend, workers, "direct", priced, disturbance,
                engine_cls.__name__, devices)
    assert check_cell(cell, GOLDEN) == [], cell


def priced(result):
    """Everything a pricing pass produces, in comparable form."""
    asdict = dataclasses.asdict
    by_phase = result.metrics_by_phase
    return (repr(result.seconds), result.breakdown,
            result.metrics and asdict(result.metrics),
            by_phase and {p: asdict(m) for p, m in by_phase.items()})


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
        devices = ((1, 2, 3, 4, 8)
                   if issubclass(engine_cls, NextDoorEngine)
                   and (workers == 0 or engine_cls is NextDoorEngine)
                   else (1,))
        for case in GOLDEN:
            for d in devices:
                holds(case, engine_cls, backend, workers, d,
                      priced=d == 1)

    @pytest.mark.parametrize("engine_cls, devices",
                             [(NextDoorEngine, 3), (LargeGraphNextDoor, 2)])
    @pytest.mark.parametrize("case", ["deepwalk", "ppr", "khop_unique",
                                      "ladies"])
    def test_multi_device(self, engine_cls, devices, case):
        holds(case, engine_cls, devices=devices)

    def test_interrupted_then_rerun(self, set_chunk_pairs):
        """A run is recovered by running it again: the interrupted run
        leaves nothing on the engine that changes the next one."""
        set_chunk_pairs(8)
        holds("deepwalk", NextDoorEngine, disturbance="chunk-error")


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
        holds(case, engine_cls, devices=devices)

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
