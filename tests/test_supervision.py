"""Worker crash recovery: detection, then one recovery path.

The invariant every test here guards: no injected failure may change a
single sampled vertex.  A lost worker (killed or wedged) is detected by
the pool, which raises at once; the run retires the pool, warns once and
finishes in-process, and the next run gets a fresh pool.  Crashes cost
wall-clock, never correctness.
"""

import os
import warnings

import numpy as np
import pytest

from repro.api.apps import DeepWalk
from repro.core.engine import NextDoorEngine
from repro.obs import get_metrics
from repro.runtime import shm
from repro.runtime.faults import FaultPlan
from repro.runtime.pool import (
    TIMEOUT_ENV,
    WorkerCrash,
    WorkerPool,
    get_pool,
    retire_pool,
    shutdown_pools,
)

CHUNK = 64


def _expected(graph):
    return NextDoorEngine(workers=0, chunk_size=CHUNK).run(
        DeepWalk(walk_length=16), graph, num_samples=256, seed=11)


def _faulted(graph, plan, *, expect_degrade=False):
    engine = NextDoorEngine(workers=2, chunk_size=CHUNK)
    engine.fault_plan = FaultPlan.parse(plan)
    if expect_degrade:
        with pytest.warns(RuntimeWarning, match="in-process"):
            return engine.run(DeepWalk(walk_length=16), graph,
                              num_samples=256, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return engine.run(DeepWalk(walk_length=16), graph,
                          num_samples=256, seed=11)


def _assert_identical(a, b):
    assert np.array_equal(a.batch.roots, b.batch.roots)
    assert len(a.batch.step_vertices) == len(b.batch.step_vertices)
    for x, y in zip(a.batch.step_vertices, b.batch.step_vertices):
        assert np.array_equal(x, y)
    assert a.seconds == b.seconds


@pytest.mark.usefixtures("process_pool")
class TestCrashRecovery:
    @pytest.mark.parametrize("plan,timeout", [
        ("kill-before-chunk:0.1", None),
        ("wedge-chunk:0.1", "1"),
    ], ids=["kill-before-chunk", "wedge-chunk"])
    def test_lost_worker_finishes_in_process(self, medium_weighted,
                                             monkeypatch, plan, timeout):
        """A worker killed mid-step (pipe EOF) or wedged past a 1 s
        watchdog costs the run its pool, once: one warning, one crash
        counted, the degraded gauge set, the fault-free samples.  The
        next run on the same engine comes up on a fresh pool, and
        nothing is left in /dev/shm."""
        if timeout is not None:
            monkeypatch.setenv(TIMEOUT_ENV, timeout)
        before_segments = set(shm.leaked_segments())
        expected = _expected(medium_weighted)
        metrics = get_metrics()
        crashes = metrics.counter("pool.worker_crashes")
        degraded = metrics.gauge("runtime.degraded_mode")
        pooled = metrics.counter("runtime.chunks_pooled")
        engine = NextDoorEngine(workers=2, chunk_size=CHUNK)
        engine.fault_plan = FaultPlan.parse(plan)
        crashes_before = crashes.value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            got = engine.run(DeepWalk(walk_length=16), medium_weighted,
                             num_samples=256, seed=11)
        _assert_identical(expected, got)
        (warning,) = [w for w in caught
                      if issubclass(w.category, RuntimeWarning)]
        assert "in-process" in str(warning.message)
        assert crashes.value == crashes_before + 1
        assert degraded.value == 1

        engine.fault_plan = None
        pooled_before = pooled.value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            again = engine.run(DeepWalk(walk_length=16), medium_weighted,
                               num_samples=256, seed=11)
        _assert_identical(expected, again)
        assert pooled.value > pooled_before
        assert degraded.value == 0
        assert crashes.value == crashes_before + 1

        shutdown_pools()
        shm.release_all()
        own = f"{shm.SEGMENT_PREFIX}_{os.getpid()}_"
        left = set(shm.leaked_segments())
        assert not [n for n in left if n.startswith(own)]
        assert left <= before_segments

    def test_chunk_error_reruns_in_process(self, medium_weighted):
        """A worker-side exception sends the chunk back to the caller
        (in-process re-run) without killing the pool or the run."""
        from repro.obs.metrics import scalar_of
        expected = _expected(medium_weighted)

        def errors_total():
            return scalar_of(get_metrics().snapshot().get(
                "pool.chunk_errors", 0.0))

        before = errors_total()
        crashes = get_metrics().counter("pool.worker_crashes").value
        got = _faulted(medium_weighted, "chunk-error:0.1")
        _assert_identical(expected, got)
        assert errors_total() > before
        assert get_metrics().counter("pool.worker_crashes").value == crashes
        assert get_metrics().gauge("runtime.degraded_mode").value == 0


@pytest.mark.usefixtures("process_pool")
class TestBroadcastFailure:
    def test_broadcast_to_dead_worker_raises_workercrash(self):
        pool = WorkerPool(1)
        try:
            pool.procs[0].terminate()
            pool.procs[0].join()
            crashes = get_metrics().counter("pool.worker_crashes")
            before = crashes.value
            with pytest.raises(WorkerCrash):
                pool.broadcast_run(DeepWalk(walk_length=4), None, 0,
                                   False)
            assert crashes.value > before
        finally:
            pool.shutdown()

    def test_reference_flag_is_refused_before_any_send(self):
        # Checked before the pool is touched: no worker is needed.
        with pytest.raises(ValueError, match="reference view"):
            WorkerPool.broadcast_run(None, DeepWalk(walk_length=4), None,
                                     0, True)

    def test_injected_broadcast_failure_degrades_loudly(
            self, medium_weighted):
        expected = _expected(medium_weighted)
        got = _faulted(medium_weighted, "broadcast-fail",
                       expect_degrade=True)
        _assert_identical(expected, got)


class TestPoolRegistry:
    def test_retired_pool_is_replaced_on_next_get(self):
        try:
            pool = get_pool(1)
            retire_pool(pool)
            assert pool._closed
            fresh = get_pool(1)
            assert fresh is not pool
            assert fresh.healthy()
        finally:
            shutdown_pools()

    def test_run_after_retire_uses_fresh_pool(self, medium_weighted):
        """An engine run right after a retirement must come up on a
        fresh pool, not fail on the closed one."""
        retire_pool(get_pool(2))
        expected = _expected(medium_weighted)
        engine = NextDoorEngine(workers=2, chunk_size=CHUNK)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = engine.run(DeepWalk(walk_length=16), medium_weighted,
                             num_samples=256, seed=11)
        _assert_identical(expected, got)

    def test_run_chunks_on_closed_pool_raises(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(WorkerCrash, match="shut down"):
            pool.run_chunks([(0, ("ping",))])
