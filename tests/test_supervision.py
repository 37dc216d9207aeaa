"""Worker supervision: respawn, retry, quarantine, degrade-last.

The invariant every test here guards: no injected failure may change a
single sampled vertex.  Crashes cost wall-clock (respawns, in-process
re-runs), never correctness — and degradation to in-process execution
is the *last* resort, taken only once the respawn budget is spent.
"""

import warnings

import numpy as np
import pytest

from repro.api.apps import DeepWalk
from repro.core.engine import NextDoorEngine
from repro.obs import get_metrics
from repro.runtime.faults import PLAN_ENV
from repro.runtime.pool import (
    RESPAWN_ENV,
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


def _faulted(graph, plan, monkeypatch, *, timeout=None, respawns=None,
             expect_degrade=False):
    monkeypatch.setenv(PLAN_ENV, plan)
    if timeout is not None:
        monkeypatch.setenv(TIMEOUT_ENV, str(timeout))
    if respawns is not None:
        monkeypatch.setenv(RESPAWN_ENV, str(respawns))
    engine = NextDoorEngine(workers=2, chunk_size=CHUNK)
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
class TestRespawn:
    def test_crash_after_result_is_healed(self, medium_weighted,
                                          monkeypatch):
        """kill-after-chunk: the worker dies having shipped its result;
        the supervisor respawns it and the run never degrades."""
        expected = _expected(medium_weighted)
        respawns = get_metrics().counter("pool.worker_respawns")
        before = respawns.value
        got = _faulted(medium_weighted, "kill-after-chunk:0.2",
                       monkeypatch)
        _assert_identical(expected, got)
        assert respawns.value > before

    def test_crash_before_chunk_requeues_lost_chunk(self,
                                                    medium_weighted,
                                                    monkeypatch):
        """kill-before-chunk with a STEP.CHUNK trigger: the chunk is
        lost once, retried, and (because the respawned worker's fresh
        fault budget kills it again) quarantined to run in-process."""
        expected = _expected(medium_weighted)
        quarantined = get_metrics().counter("pool.chunks_quarantined")
        before = quarantined.value
        got = _faulted(medium_weighted, "kill-before-chunk:0.2",
                       monkeypatch)
        _assert_identical(expected, got)
        assert quarantined.value > before

    def test_wedged_worker_is_respawned_by_watchdog(self,
                                                    medium_weighted,
                                                    monkeypatch):
        expected = _expected(medium_weighted)
        crashes = get_metrics().counter("pool.worker_crashes")
        before = crashes.value
        got = _faulted(medium_weighted, "wedge-chunk:0.1",
                       monkeypatch, timeout=1.0, respawns=8)
        _assert_identical(expected, got)
        assert crashes.value > before

    def test_chunk_error_reruns_in_process(self, medium_weighted,
                                           monkeypatch):
        """A worker-side exception quarantines the chunk (in-process
        re-run) without killing the pool or the run."""
        from repro.obs.metrics import scalar_of
        expected = _expected(medium_weighted)

        def errors_total():
            return scalar_of(get_metrics().snapshot().get(
                "pool.chunk_errors", 0.0))

        before = errors_total()
        got = _faulted(medium_weighted, "chunk-error:0.1", monkeypatch)
        _assert_identical(expected, got)
        assert errors_total() > before

    def test_budget_exhausted_degrades_with_identical_samples(
            self, medium_weighted, monkeypatch):
        """Respawn budget 0 restores the old abandon-on-first-crash
        behaviour — loudly, and still bitwise-identical."""
        expected = _expected(medium_weighted)
        got = _faulted(medium_weighted, "kill-before-chunk:0.1",
                       monkeypatch, respawns=0, expect_degrade=True)
        _assert_identical(expected, got)
        assert get_metrics().gauge("runtime.degraded_mode").value == 1


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
            self, medium_weighted, monkeypatch):
        expected = _expected(medium_weighted)
        got = _faulted(medium_weighted, "broadcast-fail", monkeypatch,
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
