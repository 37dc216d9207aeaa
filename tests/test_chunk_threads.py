"""Chunk threads: ``workers >= 1`` under the compiled backend.

The C kernels release the GIL, so a dispatched step's chunks run on
``workers`` threads of this process (the caller and helpers from one
process-wide executor) and write their rows straight into the heap step
array: no worker process, graph export, broadcast or step arena.  Under
test: the threaded run is the serial run bit for bit, a failing or
cancelled chunk surfaces in the caller only once every thread has
stopped, concurrent runs cannot see each other, un-picklable apps run
threaded, and ``/dev/shm`` is never touched.  A collective step is not
dispatched: its chunks, and the one edge-recording call, stay on the
calling thread.
"""

import pickle
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.api.apps import LADIES, PPR, DeepWalk, KHop, Node2Vec
from repro.core.engine import NextDoorEngine
from repro.graph.generators import rmat_graph
from repro.native.backend import available_backends, backend_scope
from repro.obs import get_metrics
from repro.runtime import pool as pool_module
from repro.runtime import shm
from repro.runtime.cancel import CancelledRun, CancelScope
from repro.runtime.pool import shutdown_pools
from repro.serve.protocol import batch_digest

pytestmark = pytest.mark.skipif(
    "cnative" not in available_backends(), reason="no C compiler")

SAMPLES = 250

APPS = {
    "khop": lambda: KHop(fanouts=(25, 10)),
    "deepwalk": lambda: DeepWalk(walk_length=10),
    "node2vec": lambda: Node2Vec(walk_length=8, p=2.0, q=0.5),
    "ppr": lambda: PPR(termination_prob=0.2, max_steps=10),
    "ladies": lambda: LADIES(step_size=16, batch_size=16),
}


@pytest.fixture(autouse=True)
def cnative():
    shutdown_pools()  # pools of earlier modules: none may appear here
    with backend_scope("cnative") as backend:
        yield backend
    shutdown_pools()
    assert not backend._failed  # else the threads ran numpy kernels


def _counter(name):
    return get_metrics().counter(name).value


def _run(app, graph, workers, chunk, **engine_attrs):
    engine = NextDoorEngine(workers=workers, chunk_size=chunk)
    for name, value in engine_attrs.items():
        setattr(engine, name, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no degrade
        return engine.run(app, graph, num_samples=SAMPLES, seed=11)


class TestIdentity:
    # 96 pairs (3 collective rows) leaves every step a ragged last
    # chunk; 1024 gives the walks a single chunk per step (not
    # dispatched) and k-hop's second step seven.
    @pytest.mark.parametrize("chunk", [96, 1024])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(APPS))
    def test_threaded_run_is_the_serial_run(self, medium_weighted, name,
                                            workers, chunk):
        serial = _run(APPS[name](), medium_weighted, 0, chunk)
        before = _counter("runtime.chunks_pooled")
        threaded = _run(APPS[name](), medium_weighted, workers, chunk)
        assert batch_digest(threaded.batch) == batch_digest(serial.batch)
        assert threaded.seconds == serial.seconds
        assert threaded.breakdown == serial.breakdown
        pooled = _counter("runtime.chunks_pooled") - before
        if name == "ladies":
            assert pooled == 0  # collective: chunked on the caller
        elif chunk == 96 or name == "khop":
            assert pooled > 0
        assert pool_module._POOLS == {}

    def test_no_shared_memory_is_touched(self):
        graph = rmat_graph(500, 4000, seed=2, name="threads-rmat")
        segments = set(shm.leaked_segments())
        mapped = _counter("shm.bytes_mapped")
        before = _counter("runtime.chunks_pooled")
        _run(APPS["khop"](), graph, 2, 96)
        _run(APPS["ladies"](), graph, 2, 96)
        assert _counter("runtime.chunks_pooled") > before
        assert _counter("shm.bytes_mapped") == mapped
        assert set(shm.leaked_segments()) == segments
        assert getattr(graph, "_shared_handle", None) is None

    def test_unpicklable_app_runs_threaded(self, medium_weighted):
        scale = 1  # a closure cell: the class cannot be pickled

        class Local(KHop):
            def sample_size(self, step):
                return scale * super().sample_size(step)

        with pytest.raises(Exception):
            pickle.dumps(Local(fanouts=(5, 3)))
        serial = _run(Local(fanouts=(5, 3)), medium_weighted, 0, 96)
        before = _counter("runtime.chunks_pooled")
        threaded = _run(Local(fanouts=(5, 3)), medium_weighted, 2, 96)
        assert batch_digest(threaded.batch) == batch_digest(serial.batch)
        assert _counter("runtime.chunks_pooled") > before


class _EdgeSpy(LADIES):
    """LADIES that notes each edge-recording call: step, sample rows
    handed over, calling thread."""

    def __init__(self):
        super().__init__(step_size=16, batch_size=16)
        self.calls = []

    def record_step_edges(self, graph, batch, transits, new_vertices,
                          step):
        self.calls.append((step, len(transits), threading.get_ident()))
        return super().record_step_edges(graph, batch, transits,
                                         new_vertices, step)


def _same_edges(a, b):
    return len(a.batch.edges) == len(b.batch.edges) == 2 and all(
        x.size and np.array_equal(x, y)
        for x, y in zip(a.batch.edges, b.batch.edges))


class TestCollectiveEdges:
    def test_recorded_once_per_step_on_the_caller(self, medium_weighted):
        """84 collective chunks a step and two workers: still one
        recording call per step, all rows, on the calling thread —
        as under ``workers=0`` and under numpy — and the same edges."""
        runs = {}
        for label, backend, workers in (("threads", "cnative", 2),
                                        ("serial", "cnative", 0),
                                        ("numpy", "numpy", 0)):
            app = _EdgeSpy()
            with backend_scope(backend):
                runs[label] = _run(app, medium_weighted, workers, 96)
            assert app.calls == [
                (step, SAMPLES, threading.get_ident()) for step in (0, 1)]
        assert _same_edges(runs["threads"], runs["serial"])
        assert _same_edges(runs["threads"], runs["numpy"])

    def test_one_instance_shared_by_two_runs(self, medium_weighted):
        """Nothing of a recording is kept on the app (or the graph, or
        the backend): two threads driving the *same* LADIES instance
        (the daemon's two executors), a short switch interval."""
        app = LADIES(step_size=16, batch_size=16)
        direct = _run(app, medium_weighted, 0, 96)
        seen, errors = [], []

        def loop():
            try:
                for _ in range(4):
                    seen.append(_run(app, medium_weighted, 2, 96))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=loop) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(seen) == 8
        for result in seen:
            assert batch_digest(result.batch) == batch_digest(direct.batch)
            assert _same_edges(result, direct)


class _Probe(KHop):
    """k-hop whose step-1 chunks report when they run and on which
    thread, and can be made to misbehave there."""

    def __init__(self, on_chunk):
        super().__init__(fanouts=(5, 3))
        self.on_chunk = on_chunk
        self.lock = threading.Lock()
        self.running = 0
        self.started = []

    def sample_neighbors(self, graph, transits, step, rng, **kwargs):
        if step == 1:
            with self.lock:
                self.running += 1
                self.started.append(threading.get_ident())
            try:
                self.on_chunk(self)
            finally:
                with self.lock:
                    self.running -= 1
        return super().sample_neighbors(graph, transits, step, rng,
                                        **kwargs)


class TestFailureAndCancel:
    def test_helper_exception_reraised_in_caller(self, medium_graph):
        """The caller's first chunk waits until a helper thread has
        failed: the error still comes out of ``engine.run`` on the
        caller, after which nothing runs and nothing more starts."""
        caller = threading.get_ident()
        helper_failed = threading.Event()

        def on_chunk(app):
            if threading.get_ident() == caller:
                assert helper_failed.wait(timeout=30)
                time.sleep(0.05)  # the helper is out of its chunk
            else:
                helper_failed.set()
                raise ValueError("bad hook on a helper thread")

        app = _Probe(on_chunk)
        with pytest.raises(ValueError, match="helper thread"):
            _run(app, medium_graph, 2, 96)
        assert app.running == 0
        started = list(app.started)
        # 250 * 5 pairs in chunks of 96: 14 chunks, most never started.
        assert 2 <= len(started) < 14 and caller in started
        time.sleep(0.1)
        assert app.started == started and app.running == 0

    def test_cancel_scope_tripped_mid_step(self, medium_graph):
        # Checks: step 0's head and three chunks, step 1's head, then
        # one per chunk taken there — the second of those trips.
        app = _Probe(lambda app: None)
        with pytest.raises(CancelledRun, match="step 1 chunk"):
            _run(app, medium_graph, 2, 96,
                 cancel=CancelScope(trip_after_checks=7))
        assert app.running == 0 and len(app.started) == 1

    def test_cancelled_run_counts_once(self, medium_graph):
        """Every thread's next check trips; the run is one cancelled
        run."""
        before = _counter("runtime.runs_cancelled")
        with pytest.raises(CancelledRun):
            _run(KHop(fanouts=(5, 3)), medium_graph, 3, 96,
                 cancel=CancelScope(trip_after_checks=7))
        assert _counter("runtime.runs_cancelled") == before + 1


class TestConcurrentRuns:
    def test_two_apps_on_two_threads(self, medium_weighted):
        """The ``repro serve --workers 2 --executors 2`` shape: with no
        broadcast there is no installed app for a second run to
        overwrite.  More threads than cores and a short switch interval
        make a lost or misplaced chunk row likely to show."""
        names = ["khop", "deepwalk"]
        direct = {n: batch_digest(_run(APPS[n](), medium_weighted, 0,
                                       96).batch) for n in names}
        seen = {n: [] for n in names}
        errors = []

        def loop(name):
            try:
                for _ in range(6):
                    result = _run(APPS[name](), medium_weighted, 2, 96)
                    seen[name].append(batch_digest(result.batch))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=loop, args=(n,))
                       for n in names]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for n in names:
            assert seen[n] == [direct[n]] * 6
