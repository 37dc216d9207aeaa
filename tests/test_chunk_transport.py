"""The zero-copy chunk transport (step arenas).

A dispatched step is staged once in a shared-memory arena
(``repro.runtime.shm.open_arena``); chunk messages and replies carry
indices and cost hints, never arrays; workers write their rows in
place.  Under test: the pooled run is the serial run bit for bit for
every shape of step, nothing array-like crosses a pipe, concurrent
steps get distinct arenas, an arena grows to the largest step and is
then reused, and every way out of a dispatched step hands the arena
back with no view left on its buffer.
"""

import os
import threading
import warnings

import numpy as np
import pytest

from repro.api.apps import LADIES, PPR, DeepWalk, KHop, Node2Vec
from repro.core.engine import NextDoorEngine
from repro.obs import get_metrics
from repro.runtime import shm
from repro.runtime.cancel import CancelledRun, CancelScope
from repro.runtime.faults import FaultPlan
from repro.runtime.pool import WorkerPool, get_pool, shutdown_pools
from repro.serve.protocol import batch_digest

pytestmark = pytest.mark.usefixtures("process_pool")

#: 250 samples in chunks of 96 pairs (3 collective rows): every step
#: ends on a ragged chunk.
CHUNK = 96
SAMPLES = 250

APPS = {
    "khop": lambda: KHop(fanouts=(5, 3)),
    "deepwalk": lambda: DeepWalk(walk_length=10),
    "node2vec": lambda: Node2Vec(walk_length=8, p=2.0, q=0.5),
    "ppr": lambda: PPR(termination_prob=0.2, max_steps=10),
    "ladies": lambda: LADIES(step_size=16, batch_size=16),
}


@pytest.fixture(autouse=True)
def fresh_pools():
    """Each test starts without pools or arenas (``shutdown_pools``
    releases the free arenas) and leaves none behind."""
    shutdown_pools()
    yield
    shutdown_pools()
    assert _own_arenas() == []


def _own_arenas():
    prefix = f"{shm.SEGMENT_PREFIX}_{os.getpid()}_"
    return [n for n in shm.leaked_segments()
            if n.startswith(prefix) and n.endswith("_arena")]


def _run(app_factory, graph, workers, num_samples=SAMPLES, **run_kw):
    engine = NextDoorEngine(workers=workers, chunk_size=CHUNK)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no silent degrade
        return engine.run(app_factory(), graph, num_samples=num_samples,
                          seed=11, **run_kw)


def _arrays_in(obj):
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays_in(item)]
    return []


@pytest.fixture
def pool_traffic(monkeypatch):
    """Every ``(jobs, replies)`` exchanged through ``run_chunks``."""
    traffic = []
    run_chunks = WorkerPool.run_chunks

    def spy(self, jobs, *args, **kwargs):
        replies = run_chunks(self, jobs, *args, **kwargs)
        traffic.append((jobs, replies))
        return replies

    monkeypatch.setattr(WorkerPool, "run_chunks", spy)
    return traffic


class TestIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(APPS))
    def test_pooled_run_is_the_serial_run(self, medium_weighted, name,
                                          workers, pool_traffic):
        serial = _run(APPS[name], medium_weighted, 0)
        assert pool_traffic == []
        pooled = _run(APPS[name], medium_weighted, workers)
        assert batch_digest(pooled.batch) == batch_digest(serial.batch)
        assert pooled.seconds == serial.seconds
        assert pooled.breakdown == serial.breakdown
        # The steps really went through workers and one arena.
        assert sum(len(replies) for _, replies in pool_traffic) > 0
        assert len(_own_arenas()) == 1

    @pytest.mark.parametrize("name", ["khop", "node2vec", "ladies"])
    def test_no_array_crosses_a_pipe(self, medium_weighted, name,
                                     pool_traffic):
        _run(APPS[name], medium_weighted, 2)
        assert pool_traffic
        for jobs, replies in pool_traffic:
            assert len(replies) == len(jobs)
            assert _arrays_in([msg for _, msg in jobs]) == []
            assert _arrays_in(replies) == []
            for _, (kind, _, _, _, arena, _, lo, hi) in jobs:
                assert kind in ("ichunk", "cchunk")
                assert arena.endswith("_arena")
                assert isinstance(lo, int) and isinstance(hi, int)

    def test_arena_bytes_are_counted_as_mapped(self, medium_graph):
        mapped = get_metrics().counter("shm.bytes_mapped")
        shm.export_graph(medium_graph)  # not part of the delta
        before = mapped.value
        _run(APPS["khop"], medium_graph, 2)
        (arena,) = _own_arenas()
        size = os.path.getsize(os.path.join("/dev/shm", arena))
        # Sized by step 1, exactly: at most 1250 pairs x (vals + rows),
        # 250 roots and the (250, 5, 3) output, plus field alignment.
        assert 8 * 3750 < size <= 8 * (2 * 1250 + 250 + 3750) + 4 * 64
        # Step 0's smaller arena was counted too, then outgrown.
        assert size < mapped.value - before < 2 * size


class TestConcurrentSteps:
    def test_shard_threads_get_distinct_arenas(self, medium_weighted,
                                               monkeypatch):
        """The shard threads of a multi-device run share one pool and
        step concurrently: each stages its steps in an arena of its
        own.  The first dispatch of each thread waits for the other's,
        so both hold a borrowed arena at the same moment."""
        serial = _run(APPS["khop"], medium_weighted, 0, num_devices=2)
        barrier = threading.Barrier(2, timeout=60)
        first_arena = {}
        run_chunks = WorkerPool.run_chunks

        def meet_then_run(self, jobs, *args, **kwargs):
            me = threading.get_ident()
            if me not in first_arena:
                first_arena[me] = jobs[0][1][4]
                barrier.wait()
            return run_chunks(self, jobs, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "run_chunks", meet_then_run)
        pooled = _run(APPS["khop"], medium_weighted, 2, num_devices=2)
        assert batch_digest(pooled.batch) == batch_digest(serial.batch)
        assert pooled.seconds == serial.seconds
        assert len(set(first_arena.values())) == 2
        assert len(_own_arenas()) == 2  # both back on the free list


class TestGrowth:
    def test_arena_grows_once_then_is_reused(self, medium_weighted):
        pool = get_pool(2)
        _run(APPS["deepwalk"], medium_weighted, 2, num_samples=200)
        (small,) = _own_arenas()
        _run(APPS["khop"], medium_weighted, 2, num_samples=2000)
        (grown,) = _own_arenas()
        assert grown != small
        # The reused arena is dirty: a step whose slots are all live
        # overwrites every row, one with NULL slots blanks it first.
        for name in ("deepwalk", "ppr"):
            serial = _run(APPS[name], medium_weighted, 0, num_samples=200)
            pooled = _run(APPS[name], medium_weighted, 2, num_samples=200)
            assert batch_digest(pooled.batch) == batch_digest(serial.batch)
            assert _own_arenas() == [grown]
        # Workers unmapped the outgrown arena when they met the new
        # one, so its pages are gone, not just its name.
        for proc in pool.procs:
            with open(f"/proc/{proc.pid}/maps") as maps:
                mapped = maps.read()
            assert grown in mapped
            assert small not in mapped


class _FailsAtStepOne(KHop):
    """A deterministic application bug: fails in the workers, then
    again when the failed chunk is re-run in the parent."""

    def sample_neighbors(self, graph, transit_vals, step, rng, **kwargs):
        if step == 1:
            raise ValueError("bad hook")
        return super().sample_neighbors(graph, transit_vals, step, rng,
                                        **kwargs)


class TestEveryExitReturnsTheArena:
    """The ``excinfo`` of ``pytest.raises`` keeps the interrupted
    step's frames alive: a view of the arena left in any of them would
    make unmapping it raise ``BufferError``."""

    def _assert_released_cleanly(self):
        assert len(_own_arenas()) == 1  # back on the free list
        shutdown_pools()
        shm.release_all()
        own = f"{shm.SEGMENT_PREFIX}_{os.getpid()}_"
        assert [n for n in shm.leaked_segments()
                if n.startswith(own)] == []

    def test_app_exception_reraised_in_process(self, medium_graph):
        engine = NextDoorEngine(workers=2, chunk_size=CHUNK)
        with pytest.raises(ValueError, match="bad hook") as excinfo:
            engine.run(_FailsAtStepOne(fanouts=(5, 3)), medium_graph,
                       num_samples=SAMPLES, seed=11)
        self._assert_released_cleanly()
        del excinfo

    def test_cancelled_mid_step(self, medium_graph):
        # The injected error sends step 1's chunk 1 back to the parent,
        # whose third cancellation check (two step heads, then that
        # chunk) trips with the step's arena borrowed.
        engine = NextDoorEngine(workers=2, chunk_size=CHUNK)
        engine.fault_plan = FaultPlan.parse("chunk-error:1.1:*")
        engine.cancel = CancelScope(trip_after_checks=3)
        with pytest.raises(CancelledRun, match="step 1 chunk 1") as excinfo:
            engine.run(KHop(fanouts=(5, 3)), medium_graph,
                       num_samples=SAMPLES, seed=11)
        self._assert_released_cleanly()
        del excinfo

    def test_worker_crash_degrade(self, medium_graph):
        """A lost worker retires the pool mid-step, the rest of the step
        runs in-process into the same arena, and the arena still goes
        back."""
        serial = NextDoorEngine(workers=0, chunk_size=CHUNK).run(
            KHop(fanouts=(5, 3)), medium_graph, num_samples=SAMPLES,
            seed=11)
        engine = NextDoorEngine(workers=2, chunk_size=CHUNK)
        engine.fault_plan = FaultPlan.parse("kill-before-chunk:1.2:*")
        with pytest.warns(RuntimeWarning, match="in-process"):
            degraded = engine.run(KHop(fanouts=(5, 3)), medium_graph,
                                  num_samples=SAMPLES, seed=11)
        assert batch_digest(degraded.batch) == batch_digest(serial.batch)
        self._assert_released_cleanly()

    def test_full_shm_degrades_before_staging(self, medium_graph,
                                              monkeypatch):
        """tmpfs answers a full filesystem with SIGBUS at first touch,
        so an arena that would not fit is refused up front and the run
        finishes in-process."""
        serial = NextDoorEngine(workers=0, chunk_size=CHUNK).run(
            KHop(fanouts=(5, 3)), medium_graph, num_samples=SAMPLES,
            seed=11)
        shm.export_graph(medium_graph)  # the graph fits; the arena won't
        statvfs = os.statvfs

        class _Full:
            f_bavail, f_frsize = 1, 4096

        monkeypatch.setattr(
            os, "statvfs",
            lambda path: _Full if path == "/dev/shm" else statvfs(path))
        with pytest.warns(RuntimeWarning, match="could not stage"):
            degraded = NextDoorEngine(workers=2, chunk_size=CHUNK).run(
                KHop(fanouts=(5, 3)), medium_graph, num_samples=SAMPLES,
                seed=11)
        assert batch_digest(degraded.batch) == batch_digest(serial.batch)
        assert _own_arenas() == []
