"""Observability layer: tracer, metrics registry, exporters, and the
instrumentation contracts (bitwise-identical samples, cheap disabled
path, per-worker chunk lanes)."""

import io
import json
import time

import numpy as np
import pytest

from repro.api.apps import DeepWalk, KHop, LADIES
from repro.core.engine import NextDoorEngine
from repro.graph import generators
from repro.obs import (
    chrome_trace,
    get_metrics,
    get_tracer,
    reset_metrics,
    trace,
    validate_chrome_trace,
    validate_openmetrics,
    write_chrome_trace,
)
from repro.obs.metrics import (BUCKET_BOUNDS, Counter, Gauge, Histogram,
                                MetricsRegistry)
from repro.obs.tracer import NullTracer, Tracer


@pytest.fixture
def tracer():
    """A fresh enabled tracer, restored to disabled afterwards."""
    t = trace.enable()
    yield t
    trace.disable()


@pytest.fixture
def graph():
    return generators.rmat_graph(num_vertices=400, num_edges=3000,
                                 seed=3, name="obs-rmat")


class TestTracer:
    def test_disabled_by_default(self):
        assert isinstance(get_tracer(), NullTracer)
        assert not trace.tracing_enabled()

    def test_null_span_records_nothing(self):
        with trace.span("x", step=1) as s:
            s.set(late=2)
        assert len(get_tracer()) == 0

    def test_enable_records_spans(self, tracer):
        with trace.span("work", step=3):
            pass
        (name, t0, t1, lane, args), = tracer.snapshot()
        assert name == "work"
        assert t1 >= t0
        assert args == {"step": 3}

    def test_span_set_merges_args(self, tracer):
        with trace.span("w", a=1) as s:
            s.set(b=2)
        assert tracer.snapshot()[0][4] == {"a": 1, "b": 2}

    def test_nested_spans_both_recorded(self, tracer):
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        names = [e[0] for e in tracer.snapshot()]
        assert names == ["inner", "outer"]  # inner closes first

    def test_add_span_uses_explicit_lane(self, tracer):
        t0 = time.monotonic()
        tracer.add_span("chunk", t0, t0 + 0.5, lane="worker-3", chunk=7)
        (_, _, _, lane, args), = tracer.snapshot()
        assert lane == "worker-3"
        assert args == {"chunk": 7}

    def test_clear(self, tracer):
        with trace.span("w"):
            pass
        tracer.clear()
        assert len(tracer) == 0

    def test_disabled_span_is_cheap(self):
        # The instrumentation contract: a disabled span must cost
        # roughly a function call, not a recording.  Generous bound so
        # CI noise cannot flake this.
        n = 20_000
        t0 = time.perf_counter()
        for i in range(n):
            with trace.span("probe", step=i):
                pass
        per_span = (time.perf_counter() - t0) / n
        assert per_span < 50e-6


class TestMetrics:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_gauge(self):
        g = Gauge()
        g.set(7)
        g.set(3)
        assert g.value == 3.0

    def test_histogram(self):
        h = Histogram()
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 3
        assert d["min"] == 1.0
        assert d["max"] == 3.0
        assert d["mean"] == pytest.approx(2.0)

    def test_histogram_bucket_is_searchsorted(self):
        """``observe``'s bisection puts every value where
        ``searchsorted(BUCKET_BOUNDS, v, "left")`` does: each bound and
        its neighbouring doubles, 0, negatives, subnormals, 1e300."""
        values = np.concatenate([
            BUCKET_BOUNDS, np.nextafter(BUCKET_BOUNDS, -np.inf),
            np.nextafter(BUCKET_BOUNDS, np.inf),
            [0.0, -0.0, -1.0, -1e300, 5e-324, 2.2e-308, 1e300]])
        for v in values:
            h = Histogram()
            h.observe(v)
            want = int(np.searchsorted(BUCKET_BOUNDS, v, side="left"))
            assert np.flatnonzero(h._buckets).tolist() == [want], v

    def test_histogram_drops_non_finite(self):
        h = Histogram()
        for v in (np.nan, np.inf, -np.inf, 1.0):
            h.observe(v)
        assert (h.dropped, h.count, h.total) == (3, 1, 1.0)
        assert h._buckets.sum() == 1

    def test_empty_histogram_dict(self):
        assert Histogram().as_dict()["count"] == 0

    def test_registry_get_or_create(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        with pytest.raises(TypeError):
            r.gauge("a")

    def test_snapshot_flat_and_sorted(self):
        r = MetricsRegistry()
        r.counter("b").inc()
        r.histogram("a").observe(1.0)
        snap = r.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["b"] == 1.0
        assert snap["a"]["count"] == 1
        json.dumps(snap)  # must be JSON-serialisable

    def test_global_registry_reset(self):
        get_metrics().counter("test.obs_tmp").inc()
        reset_metrics()
        assert "test.obs_tmp" not in get_metrics().snapshot()


class TestExport:
    def test_chrome_trace_shape(self, tracer):
        with trace.span("run", engine="NextDoor"):
            with trace.span("step", step=0):
                pass
        tracer.add_span("chunk", time.monotonic(),
                        time.monotonic() + 0.01, lane="worker-0")
        obj = chrome_trace(tracer)
        validate_chrome_trace(obj)
        events = obj["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"run", "step", "chunk"}
        # lanes: main thread + worker-0, each with thread_name metadata
        labels = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {"main", "worker-0"} <= labels
        # worker lane gets its own tid row
        tid_of = {e["args"]["name"]: e["tid"] for e in events
                  if e["ph"] == "M"}
        assert tid_of["worker-0"] != tid_of["main"]

    def test_write_chrome_trace(self, tracer, tmp_path):
        with trace.span("w"):
            pass
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, tracer)
        validate_chrome_trace(json.load(open(path)))

    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([1, 2, 3])
        with pytest.raises(ValueError):
            validate_chrome_trace({"no_events": True})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "a", "pid": 1,
                                  "tid": 0, "ts": 0.0, "dur": -5.0}]})

    def test_numpy_args_exported_as_json(self, tracer):
        with trace.span("w", pairs=np.int64(7), frac=np.float64(0.5)):
            pass
        obj = chrome_trace(tracer)
        json.dumps(obj)
        ev = [e for e in obj["traceEvents"] if e["ph"] == "X"][0]
        assert ev["args"]["pairs"] == 7


class TestEngineInstrumentation:
    def test_samples_bitwise_identical_tracing_on_vs_off(self, graph):
        app = DeepWalk(walk_length=12)
        off = NextDoorEngine().run(app, graph, num_samples=128, seed=5)
        trace.enable()
        try:
            on = NextDoorEngine().run(DeepWalk(walk_length=12), graph,
                                      num_samples=128, seed=5)
        finally:
            trace.disable()
        np.testing.assert_array_equal(off.samples.as_array(),
                                      on.samples.as_array())
        assert off.seconds == on.seconds  # modeled charges untouched

    def test_samples_bitwise_identical_full_telemetry_on_vs_off(
            self, graph, set_chunk_pairs):
        """Labeled metric families, percentile histograms and the
        tracer may all be active without moving one sampled vertex or
        one modeled charge."""
        set_chunk_pairs(64)
        reset_metrics()
        off = NextDoorEngine().run(
            DeepWalk(walk_length=12), graph, num_samples=128, seed=5)
        reset_metrics()
        trace.enable()
        try:
            on = NextDoorEngine().run(
                DeepWalk(walk_length=12), graph, num_samples=128,
                seed=5)
        finally:
            trace.disable()
        np.testing.assert_array_equal(off.samples.as_array(),
                                      on.samples.as_array())
        assert off.seconds == on.seconds  # modeled charges untouched
        # The telemetry itself really was live during the second run:
        snap = get_metrics().snapshot()
        series = snap["engine.stage_seconds"]["series"]
        sched, = [h for k, h in series.items()
                  if 'stage="scheduling_index"' in k]
        assert sched["count"] > 0 and sched["p50"] is not None

    def test_run_trace_has_expected_nesting(self, graph, tracer):
        NextDoorEngine().run(KHop(fanouts=(4, 3)), graph,
                             num_samples=64, seed=1)
        names = {e[0] for e in tracer.snapshot()}
        assert {"run", "step", "scheduling_index",
                "individual_kernels", "sampling.individual",
                "post_step"} <= names

    def test_collective_trace(self, graph, tracer):
        NextDoorEngine().run(LADIES(step_size=8, batch_size=8), graph,
                             num_samples=16, seed=1)
        names = {e[0] for e in tracer.snapshot()}
        assert "collective_kernels" in names
        assert "sampling.collective" in names

    def test_multi_gpu_shard_lanes(self, graph, tracer):
        """Devices price a run and do not split it: one ``run`` span
        carries the device count, and no thread lane is per device."""
        NextDoorEngine().run(DeepWalk(walk_length=6), graph,
                             num_samples=64, seed=2, num_devices=2)
        runs = [e[4] for e in tracer.snapshot() if e[0] == "run"]
        assert len(runs) == 1 and runs[0]["devices"] == 2
        labels = set(tracer.thread_names().values())
        assert not any(l.startswith("shard-") for l in labels)

    def test_engine_metrics_counted(self, graph):
        reset_metrics()
        NextDoorEngine().run(DeepWalk(walk_length=6), graph,
                             num_samples=32, seed=0)
        snap = get_metrics().snapshot()
        assert snap["engine.runs"] == 1.0
        assert snap["engine.samples_produced"] == 32.0
        assert snap["engine.steps_run"] > 0
        assert snap["rng.chunk_streams"] > 0


class TestWorkerLanes:
    """``workers=2`` is two chunk threads under each backend."""

    def test_pooled_run_records_worker_lanes(self, graph, tracer,
                                             backend, set_chunk_pairs):
        set_chunk_pairs(64)
        reset_metrics()
        engine = NextDoorEngine(workers=2)
        result = engine.run(DeepWalk(walk_length=6), graph,
                            num_samples=256, seed=4)
        assert result.batch.num_samples == 256
        lanes = [e[3] for e in tracer.snapshot() if e[0] == "chunk"]
        workers = {l for l in lanes if isinstance(l, str)}
        assert workers, "no worker-lane chunk spans recorded"
        assert workers <= {"worker-0", "worker-1"}
        snap = get_metrics().snapshot()
        assert snap["runtime.chunks_pooled"] > 0
        # chunk latency is a labeled family: one series per app/backend
        (key, hist), = snap["pool.chunk_seconds"]["series"].items()
        assert 'app="DeepWalk"' in key
        assert f'backend="{backend.name}"' in key
        assert hist["count"] > 0
        assert hist["p50"] is not None
        assert hist["p50"] <= hist["p99"] <= hist["max"] * 1.0001
        # Every chunk of every step is counted, timed and on a lane.
        chunks = snap["rng.chunk_streams"]
        assert snap["runtime.chunks_pooled"] == chunks
        assert hist["count"] == chunks
        assert len(lanes) == chunks and workers == set(lanes)
        assert "runtime.chunks_inprocess" not in snap

    def test_pooled_samples_match_inprocess_with_tracing(
            self, graph, tracer, backend, set_chunk_pairs):
        set_chunk_pairs(64)
        app = DeepWalk(walk_length=6)
        pooled = NextDoorEngine(workers=2).run(
            app, graph, num_samples=256, seed=4)
        serial = NextDoorEngine(workers=0).run(
            DeepWalk(walk_length=6), graph, num_samples=256, seed=4)
        np.testing.assert_array_equal(pooled.samples.as_array(),
                                      serial.samples.as_array())


class TestCliObs:
    def run_cli(self, argv):
        from repro.cli import main
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_sample_trace_and_stats(self, tmp_path):
        path = str(tmp_path / "t.json")
        code, out = self.run_cli(
            ["sample", "--app", "DeepWalk", "--graph", "ppi",
             "--samples", "32", "--trace", path, "--stats"])
        trace.disable()
        assert code == 0
        assert "wrote trace" in out
        stats = out[out.index("# TYPE"):]
        samples = validate_openmetrics(stats)
        assert "engine_runs_total" in samples
        obj = json.load(open(path))
        validate_chrome_trace(obj)
        names = {e["name"] for e in obj["traceEvents"]}
        assert "scheduling_index" in names
        assert "run" in names

    def test_compare_prints_modeled_times_only(self):
        """Every engine runs the same sampling code, so a per-engine
        wall-clock table would show noise and warm-up: there is none."""
        code, out = self.run_cli(["compare", "--apps", "DeepWalk",
                                  "--graph", "ppi"])
        assert code == 0
        assert "NextDoor" in out and "wall-clock" not in out
