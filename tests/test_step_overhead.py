"""The step loop's fixed cost: set-up resolved once per run, telemetry
unchanged, and the compiled kernels' cached graph addresses.

A step pays for its kernels, not for looking up its instruments or
re-reading the graph's array addresses: the count of registry lookups
and of ``.ctypes`` reads of the graph's arrays in one run must not grow
with the number of steps.
"""

import math

import numpy as np
import pytest

try:
    from numpy._core import _internal as np_internal
except ImportError:  # numpy < 2
    from numpy.core import _internal as np_internal

from repro.api.apps import DeepWalk, KHop, LADIES
from repro.core.engine import NextDoorEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.native.backend import (active_backend_name, available_backends,
                                  backend_scope)
from repro.obs import get_metrics, trace
from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import batch_digest

BACKENDS = available_backends()


def _walk_graph(seed=3, n=300, weighted=True):
    """Every vertex has an out-edge (a ring plus random chords), so
    every walker stays live and each step has one pair per sample."""
    rng = np.random.default_rng(seed)
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    chords = rng.integers(0, n, size=(4 * n, 2))
    g = CSRGraph.from_edges(n, np.concatenate([ring, chords]),
                            undirected=True, name=f"walk{n}")
    return g.with_random_weights(seed=seed) if weighted else g


def _graph_arrays(g):
    """The arrays a kernel reads of ``g`` itself (built now, so the
    weighted draw's records exist before anything is counted)."""
    arrays = [g.indptr, g.indices, g.degrees_array]
    if g.is_weighted:
        arrays += list(g.weight_records())
    return arrays


class _Spy:
    """Counts registry lookups and ``.ctypes`` reads of given arrays."""

    def __init__(self, monkeypatch, arrays):
        self.lookups = 0
        self.ctypes_reads = 0
        for name in ("counter", "histogram"):
            inner = getattr(MetricsRegistry, name)

            def counted(reg, *args, _inner=inner, **kwargs):
                self.lookups += 1
                return _inner(reg, *args, **kwargs)

            monkeypatch.setattr(MetricsRegistry, name, counted)
        init = np_internal._ctypes.__init__

        def read(obj, array, ptr=None):
            if any(array is a for a in arrays):
                self.ctypes_reads += 1
            init(obj, array, ptr)

        monkeypatch.setattr(np_internal._ctypes, "__init__", read)


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_set_up_does_not_grow_with_steps(monkeypatch, set_chunk_pairs,
                                         backend_name, workers):
    """Instruments are resolved once per run and graph addresses once
    per graph: a 100-step walk makes the lookups a 10-step walk does."""
    set_chunk_pairs(64)
    counts = {}
    with backend_scope(backend_name):
        for length in (10, 100):
            g = _walk_graph()   # fresh: its addresses are not cached yet
            arrays = _graph_arrays(g)
            with monkeypatch.context() as patch:
                spy = _Spy(patch, arrays)
                result = NextDoorEngine(workers=workers).run(
                    DeepWalk(walk_length=length), g, num_samples=256,
                    seed=4)
            assert result.steps_run == length
            counts[length] = (spy.lookups, spy.ctypes_reads)
    if workers:
        # Two threads' first chunks may both read a fresh graph's
        # addresses: only the lookups are exact.
        assert counts[10][0] == counts[100][0]
        return
    assert counts[10] == counts[100]
    if backend_name == "cnative":
        # CSR + records, each read once, by the first chunk.
        assert counts[10][1] == 5


class TestTelemetry:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_counts_follow_steps_and_chunks(self, backend_name,
                                            set_chunk_pairs):
        set_chunk_pairs(100)
        g = _walk_graph()
        reg = get_metrics()
        with backend_scope(backend_name):
            step_hist = reg.histogram(
                "engine.stage_seconds",
                labels={"stage": "step", "backend": active_backend_name()})
            streams = reg.counter("rng.chunk_streams")
            inprocess = reg.counter("runtime.chunks_inprocess")
            before = (step_hist.count, streams.value, inprocess.value)
            result = NextDoorEngine(workers=0).run(
                DeepWalk(walk_length=12), g, num_samples=250, seed=2)
        chunks = result.steps_run * math.ceil(250 / 100)
        assert step_hist.count - before[0] == result.steps_run == 12
        assert streams.value - before[1] == chunks
        assert inprocess.value - before[2] == chunks

    def test_trace_nesting_and_values(self, medium_graph):
        """Under an enabled tracer every stage lies inside its step,
        every chunk inside its step's sampling span, every step inside
        the run — and the run samples and prices as with tracing off."""
        cases = [(KHop(fanouts=(4, 3)), "individual_kernels",
                  "sampling.individual"),
                 (LADIES(step_size=8, batch_size=8), "collective_kernels",
                  "sampling.collective")]
        for app, kernels, sampling in cases:
            def run():
                return NextDoorEngine(workers=0).run(
                    app, medium_graph, num_samples=64, seed=1)

            off = run()
            tracer = trace.enable()
            try:
                on = run()
            finally:
                trace.disable()
            assert batch_digest(on.batch) == batch_digest(off.batch)
            assert repr(on.seconds) == repr(off.seconds)
            assert on.breakdown == off.breakdown

            events = tracer.snapshot()
            by_name = {}
            for name, t0, t1, _, args in events:
                by_name.setdefault(name, []).append((t0, t1, args or {}))
            assert {"run", "step", "scheduling_index", kernels, sampling,
                    "chunk", "post_step"} <= set(by_name)
            (run_t0, run_t1, _), = by_name["run"]
            steps = {a["step"]: (t0, t1) for t0, t1, a in by_name["step"]}
            assert len(steps) == len(by_name["step"]) == on.steps_run

            def inside(name, outer):
                for t0, t1, a in by_name[name]:
                    lo, hi = outer[a["step"]]
                    assert lo <= t0 <= t1 <= hi, (name, a)

            assert all(run_t0 <= t0 <= t1 <= run_t1
                       for t0, t1 in steps.values())
            for stage in ("scheduling_index", kernels, sampling,
                          "post_step"):
                inside(stage, steps)
            inside("chunk", {a["step"]: (t0, t1)
                             for t0, t1, a in by_name[sampling]})
            assert all(a["pairs"] >= 0
                       for _, _, a in by_name["scheduling_index"])


@pytest.mark.skipif("cnative" not in BACKENDS, reason="no C toolchain")
class TestAddressCache:
    def test_reused_ids_never_reuse_addresses(self):
        """Graphs built and dropped in one loop reuse ``id()`` values
        (and memory); each must still be drawn from its own arrays."""
        for i in range(24):
            g = rmat_graph(64 + 37 * i, 500 + 211 * i, seed=i,
                           name=f"g{i}").with_random_weights(seed=i)
            app = DeepWalk(walk_length=5)
            digests = []
            for name in ("numpy", "cnative"):
                with backend_scope(name):
                    digests.append(batch_digest(NextDoorEngine(
                        workers=0).run(app, g, num_samples=40,
                                       seed=i).batch))
            assert digests[0] == digests[1], i
            del g

    def test_copied_arrays_get_their_own_addresses(self):
        g = _walk_graph()
        copy = CSRGraph(g.indptr.copy(), g.indices.copy(),
                        weights=g.weights.copy(), name="copy")
        for weighted in (False, True):
            mine, theirs = g.addresses(weighted), copy.addresses(weighted)
            assert not set(mine) & set(theirs)
            assert mine == g.addresses(weighted)    # cached, stable
        with backend_scope("cnative"):
            runs = [NextDoorEngine(workers=0).run(
                DeepWalk(walk_length=8), graph, num_samples=64, seed=3)
                for graph in (g, copy)]
        assert batch_digest(runs[0].batch) == batch_digest(runs[1].batch)
